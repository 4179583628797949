"""Monte Carlo cross-check: stochastic sampling of purification steps.

Label pairs are drawn from the ensemble, and each copy is collapsed to one of
its computational-basis support strings (for P2, to a Hadamard-frame support
string).  A trial's verdict is one n-bit parity pattern, one bit per party,
set when that party reads odd: the true pattern z = x xor y, each bit flipped
with probability epsilon by homodyne misclassification (not under six-mode
PBS).  The trial is kept when the pattern reads all even, or all odd under
even-plus-odd.
"""
from __future__ import annotations

import numpy as np

from .ghz import GhzDiagonalEnsemble
from .optics import DiscriminationMode, ModeKind
from .purify import StepKind, StepReport


def _support_samples(reps: np.ndarray, signs: np.ndarray, n: int,
                     step: StepKind, rng: np.random.Generator) -> np.ndarray:
    """One computational string per trial from each copy's uniform support."""
    trials = reps.shape[0]
    full = (1 << n) - 1
    if step is StepKind.P1:
        # Support of (e, s) is {e, ~e}, each with probability 1/2.
        flip = rng.integers(0, 2, size=trials, dtype=np.int64)
        return np.where(flip == 1, reps ^ full, reps)
    # Hadamard frame: uniform over the 2^(n-1) strings of weight parity s.
    half = np.arange(1 << (n - 1), dtype=np.int64)
    parity = np.zeros_like(half)
    for b in range(n - 1):
        parity ^= (half >> b) & 1
    even_strings = (half << 1) | parity          # last bit fixes even weight
    odd_strings = even_strings ^ 1
    idx = rng.integers(0, 1 << (n - 1), size=trials)
    return np.where(signs == 1, even_strings[idx], odd_strings[idx])


def mc_sample_step(ens: GhzDiagonalEnsemble, step: StepKind | str,
                   mode: DiscriminationMode, trials: int, seed: int) -> StepReport:
    """Empirical StepReport from `trials` sampled copy pairs.

    Every kept trial enters the output: with epsilon > 0, a misread
    mismatched pair still leaves a GHZ basis state by the same rule as a
    genuine keep (P1: (e1, s1 s2), P2: (e1 xor e2, s1)).  The share of such
    trials is reported under the branch_stats key ("spurious", "*").
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    step = StepKind(step)
    n = ens.n_qubits
    full = (1 << n) - 1
    rng = np.random.default_rng(seed)

    # Nonzero labels in all_labels order: rep ascending, +1 before -1.
    flat = ens.W.T.ravel()
    support = np.flatnonzero(flat)
    probs = flat[support]
    reps = support >> 1
    signs = 1 - 2 * (support & 1)

    i1 = rng.choice(len(support), size=trials, p=probs)
    i2 = rng.choice(len(support), size=trials, p=probs)
    x = _support_samples(reps[i1], signs[i1], n, step, rng)
    y = _support_samples(reps[i2], signs[i2], n, step, rng)
    z = x ^ y

    read = z
    eps = mode.misclassification_probability
    if eps > 0.0 and mode.kind is not ModeKind.SIX_MODE_PBS:
        # Party k (qubit k, the bit of weight 2^(n-1-k)) misreads with
        # probability eps; photon-number post-selection has no such error.
        misread = rng.random((trials, n)) < eps
        read = z ^ (misread @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64)))
    kept = (read == 0) | ((read == full) & (mode.kind is ModeKind.EVEN_PLUS_ODD))

    n_kept = int(kept.sum())
    spurious_count = n_kept - int((kept & ((z == 0) | (z == full))).sum())

    # Output labels of every kept trial.  The correction cancels the sign
    # that the copy-2 outcome leaves, so the label does not depend on the
    # outcome and the outcome is not drawn.
    if step is StepKind.P1:
        out_rep = reps[i1][kept]
        out_sign = (signs[i1] * signs[i2])[kept]
    else:
        out_rep = (reps[i1] ^ reps[i2])[kept]
        out_sign = signs[i1][kept]

    if n_kept == 0:
        raise ValueError("no kept trials; increase trials")
    counts = np.bincount(out_rep * 2 + (out_sign == -1), minlength=1 << n)
    output = GhzDiagonalEnsemble(n, counts.reshape(-1, 2).T / n_kept)

    stats = {("spurious", "*"): spurious_count / trials} if spurious_count else {}
    return StepReport(output, n_kept / trials, stats)
