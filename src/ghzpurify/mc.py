"""Monte Carlo cross-check: stochastic sampling of purification steps.

Label pairs are drawn from the ensemble, and each copy is collapsed to one of
its computational-basis support strings (for P2, to a Hadamard-frame support
string).  A trial's verdict is one n-bit parity pattern, one bit per party,
set when that party reads odd: the true pattern z = x xor y, each bit flipped
with probability epsilon by homodyne misclassification (not under six-mode
PBS).  The trial is kept when the pattern reads all even, or all odd under
even-plus-odd.  The draws are fixed in kind and order (both copies' labels as
by Generator.choice, then their support strings, then the misread mask), so a
seed fixes the output.  The labels and support strings are read straight from
the raw 64-bit words of the generator's stream (PCG64), which Generator.random
and Generator.integers would turn into the same values: a double is a word's
top 53 bits over 2^53, and integers(0, 2^k) is the top k bits of one 32-bit
half, low half first (Lemire's method never rejects a power-of-two range).  A
P2 support string is computed from its draw a, an (n-1)-bit integer, as
a << 1 | parity(a).  After the draws, label codes, patterns and outputs are
held in the narrowest unsigned dtype that holds 2^n (uint8 up to n = 7).
"""
from __future__ import annotations

import numpy as np

from .ghz import MAX_QUBITS_FAST, GhzDiagonalEnsemble
from .optics import DiscriminationMode, ModeKind
from .purify import StepKind, StepReport

GUIDE_BITS = 12


def _draw_labels(support: np.ndarray, probs: np.ndarray, trials: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Label codes of shape (2, trials) in support's dtype, row c draw for
    draw equal to support[rng.choice(len(probs), trials, p=probs)] for copy
    c + 1.  The 2 * trials draws are the next 2 * trials words of the stream,
    which choice turns into the uniforms u = (word >> 11) * 2^-53.  A guide
    table of 2^GUIDE_BITS buckets maps each word's top GUIDE_BITS bits, which
    are floor(u * 2^GUIDE_BITS), to its label, or to the dtype's maximum where
    the bucket holds a CDF point; only those draws rebuild u and are
    searched, as choice searches.  Every code in support must lie below that
    maximum."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    words = rng.bit_generator.random_raw((2, trials))
    edges = np.arange((1 << GUIDE_BITS) + 1) / (1 << GUIDE_BITS)
    lo = cdf.searchsorted(edges[:-1], side="right")
    searched = np.iinfo(support.dtype).max
    table = np.where(lo == cdf.searchsorted(edges[1:], side="left"), support[lo], searched)
    # floor(u * 2^GUIDE_BITS) is the word's top GUIDE_BITS bits; below 2^63,
    # so its int64 view is an index that needs no cast.
    lab = table[(words >> (64 - GUIDE_BITS)).view(np.int64)]
    tie = np.flatnonzero(lab == searched)
    u = (words.flat[tie] >> 11) * 2.0 ** -53
    lab.flat[tie] = support[cdf.searchsorted(u, side="right")]
    return lab


def _is_integer(x) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def mc_sample_step(ens: GhzDiagonalEnsemble, step: StepKind | str,
                   mode: DiscriminationMode, trials: int, seed: int) -> StepReport:
    """Empirical StepReport from `trials` sampled copy pairs.

    Every kept trial enters the output: with epsilon > 0, a misread
    mismatched pair still leaves a GHZ basis state by the same rule as a
    genuine keep (P1: (e1, s1 s2), P2: (e1 xor e2, s1)).  The share of such
    trials is reported under the branch_stats key ("spurious", "*").
    """
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # None would seed from OS entropy, and a bool would run as seed 0 or 1.
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    n = ens.n_qubits
    # the draws are checked against the reference sampler up to this bound
    if n > MAX_QUBITS_FAST:
        raise ValueError(f"Monte Carlo is bounded at {MAX_QUBITS_FAST} qubits")
    step = StepKind(step)
    full = (1 << n) - 1
    rng = np.random.default_rng(seed)

    # Nonzero label codes rep * 2 + (sign == -1), in all_labels order.
    flat = ens.W.T.ravel()
    support = np.flatnonzero(flat)
    # The narrowest unsigned dtype that holds 2^n: its maximum is above every code.
    codes = support.astype(np.min_scalar_type(1 << n))
    lab1, lab2 = _draw_labels(codes, flat[support], trials, rng)

    # The correction cancels the sign that copy 2's outcome leaves, so the
    # output label does not depend on that outcome, which is not drawn.
    z = lab1 ^ lab2
    # Each copy's support draw is one 32-bit half of the next `trials` words,
    # low half first (little-endian on every host): copy 1 takes halves
    # [:trials], copy 2 the rest.  A power-of-two integers(0, 2^k) draw is
    # the half's top k bits, and only the two copies' XOR enters z.
    halves = rng.bit_generator.random_raw(trials).astype("<u8", copy=False).view("<u4")
    both = halves[:trials] ^ halves[trials:]
    if step is StepKind.P1:
        # Support of (e, s) is {e, ~e}, each with probability 1/2; output (e1, s1 s2).
        both >>= 31
        flip = both.astype(z.dtype)
        flip *= full
        z >>= 1
        z ^= flip
        out = lab2 & 1
    else:
        # Hadamard frame: a uniform string of weight parity s; output (e1 xor e2, s1).
        # The even string a << 1 | parity(a) is linear in a, so the two
        # copies' strings XOR to that of a1 ^ a2, whose n <= 6 bits fit the half.
        both >>= 33 - n
        parity = np.bitwise_count(both) & 1
        both <<= 1
        both |= parity
        z &= 1
        z ^= both
        out = lab2 & (full ^ 1)
    out ^= lab1

    read = z
    eps = mode.misclassification_probability
    if eps > 0.0 and mode.kind is not ModeKind.SIX_MODE_PBS:
        # Party k (qubit k, the bit of weight 2^(n-1-k)) misreads with
        # probability eps; photon-number post-selection has no such error.
        misread = rng.random((trials, n)) < eps
        read = misread.view(np.uint8) @ np.array([1 << (n - 1 - k) for k in range(n)], z.dtype)
        read ^= z
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
