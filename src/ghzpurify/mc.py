"""Monte Carlo cross-check: stochastic sampling of purification steps.

Label pairs are drawn from the ensemble, and each copy is collapsed to one of
its computational-basis support strings (for P2, to a Hadamard-frame support
string).  A trial's verdict is one n-bit parity pattern, one bit per party,
set when that party reads odd: the true pattern z = x xor y, each bit flipped
with probability epsilon by homodyne misclassification (not under six-mode
PBS).  The trial is kept when the pattern reads all even, or all odd under
even-plus-odd.  The draws are fixed in kind and order (both copies' labels as
by Generator.choice, then their support strings, then the misread mask), so a
seed fixes the output.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ghz import GhzDiagonalEnsemble
from .optics import DiscriminationMode, ModeKind
from .purify import StepKind, StepReport

GUIDE_BITS = 12


def _draw_labels(support: np.ndarray, probs: np.ndarray, trials: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Label codes of shape (2, trials), row c draw for draw equal to
    support[rng.choice(len(probs), trials, p=probs)] for copy c + 1.  A guide
    table of 2^GUIDE_BITS buckets maps each uniform to its label; only the
    draws whose bucket holds a CDF point are searched, as choice searches."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random((2, trials))
    edges = np.arange((1 << GUIDE_BITS) + 1) / (1 << GUIDE_BITS)
    lo = cdf.searchsorted(edges[:-1], side="right")
    table = np.where(lo == cdf.searchsorted(edges[1:], side="left"), support[lo], -1)
    lab = table[(u * (1 << GUIDE_BITS)).astype(np.intp)]
    tie = np.flatnonzero(lab < 0)
    lab.flat[tie] = support[cdf.searchsorted(u.flat[tie], side="right")]
    return lab


@lru_cache(maxsize=None)
def _even_strings(n: int) -> np.ndarray:
    """The 2^(n-1) even-weight n-bit strings (a's bits, then their parity), read-only."""
    even = np.array([a << 1 | a.bit_count() & 1 for a in range(1 << (n - 1))], np.int64)
    even.flags.writeable = False
    return even


def mc_sample_step(ens: GhzDiagonalEnsemble, step: StepKind | str,
                   mode: DiscriminationMode, trials: int, seed: int) -> StepReport:
    """Empirical StepReport from `trials` sampled copy pairs.

    Every kept trial enters the output: with epsilon > 0, a misread
    mismatched pair still leaves a GHZ basis state by the same rule as a
    genuine keep (P1: (e1, s1 s2), P2: (e1 xor e2, s1)).  The share of such
    trials is reported under the branch_stats key ("spurious", "*").
    """
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ens.W.ndim != 2:
        raise ValueError("mc_sample_step takes one ensemble, not a stack")
    step = StepKind(step)
    n = ens.n_qubits
    full = (1 << n) - 1
    rng = np.random.default_rng(seed)

    # Nonzero label codes rep * 2 + (sign == -1), in all_labels order.
    flat = ens.W.T.ravel()
    support = np.flatnonzero(flat)
    lab1, lab2 = _draw_labels(support, flat[support], trials, rng)

    # The correction cancels the sign that copy 2's outcome leaves, so the
    # output label does not depend on that outcome, which is not drawn.
    if step is StepKind.P1:
        # Support of (e, s) is {e, ~e}, each with probability 1/2; output (e1, s1 s2).
        f1, f2 = (rng.integers(0, 2, size=trials, dtype=np.int64) for _ in range(2))
        z = ((lab1 ^ lab2) >> 1) ^ ((f1 ^ f2) * full)
        out = lab1 ^ (lab2 & 1)
    else:
        # Hadamard frame: a uniform string of weight parity s; output (e1 xor e2, s1).
        even = _even_strings(n)
        a1, a2 = (rng.integers(0, 1 << (n - 1), size=trials) for _ in range(2))
        z = even[a1] ^ even[a2] ^ ((lab1 ^ lab2) & 1)
        out = lab1 ^ (lab2 & ~1)

    read = z
    eps = mode.misclassification_probability
    if eps > 0.0 and mode.kind is not ModeKind.SIX_MODE_PBS:
        # Party k (qubit k, the bit of weight 2^(n-1-k)) misreads with
        # probability eps; photon-number post-selection has no such error.
        misread = rng.random((trials, n)) < eps
        pattern = np.zeros(trials, dtype=np.int64)
        for column in misread.T:
            pattern = pattern << 1 | column
        read = z ^ pattern
    kept = read == 0
    if mode.kind is ModeKind.EVEN_PLUS_ODD:
        kept |= read == full

    n_kept = int(np.count_nonzero(kept))
    if n_kept == 0:
        raise ValueError("no kept trials; increase trials")
    spurious_count = 0 if read is z else n_kept - int(
        np.count_nonzero(kept & ((z == 0) | (z == full))))
    counts = np.bincount(out[kept], minlength=1 << n)
    output = GhzDiagonalEnsemble(n, counts.reshape(-1, 2).T / n_kept)

    stats = {("spurious", "*"): spurious_count / trials} if spurious_count else {}
    return StepReport(output, n_kept / trials, stats)
