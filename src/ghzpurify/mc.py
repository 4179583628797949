"""Monte Carlo cross-check: stochastic sampling of purification steps.

Label pairs are drawn from the ensemble, each copy is collapsed to one of
its computational-basis support strings (for P2, to a Hadamard-frame support
string), and the per-party parity verdicts are simulated, including optional
homodyne misclassification.  The per-party verdict logic mirrors
optics.qnd_parity_shift + optics.discriminate in vectorized form (the
equivalence is asserted in the test suite).
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

    if mode.kind is ModeKind.SIX_MODE_PBS:
        # Photon-number post-selection; the scalar epsilon does not apply.
        kept = z == 0
        all_even = kept
        all_odd = np.zeros_like(kept)
    else:
        shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
        odd_party = ((z[:, None] >> shifts[None, :]) & 1).astype(bool)
        eps = mode.misclassification_probability
        if eps > 0.0:
            odd_party = odd_party ^ (rng.random((trials, n)) < eps)
        all_even = ~odd_party.any(axis=1)
        all_odd = odd_party.all(axis=1)
        kept = all_even | (all_odd if mode.kind is ModeKind.EVEN_PLUS_ODD else False)

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

    stats = {("E" * n, "*"): float((all_even & kept).sum()) / trials}
    if mode.kind is ModeKind.EVEN_PLUS_ODD:
        stats[("O" * n, "*")] = float((all_odd & kept).sum()) / trials
    if spurious_count:
        stats[("spurious", "*")] = spurious_count / trials
    return StepReport(output, n_kept / trials, stats)
