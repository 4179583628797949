"""Monte Carlo cross-check: stochastic sampling of purification steps.

A trial draws a pair of labels from the ensemble and collapses each copy to
one of its computational-basis support strings (for P2, to a Hadamard-frame
support string).  The true parity pattern z = x xor y has one bit per
party, set when that party's check is odd.  Homodyne misclassification flips
each party's verdict with probability epsilon, so the trial is kept with the
chance K(z) of `DiscriminationMode.keep_weights`: that z reads all even, or
all odd under even-plus-odd.

The two copies are independent, so a pair is one draw from W x W: the S^2
pairs of the S nonzero labels, pair (i, j) at index i * S + j with weight
p_i * p_j.  And the copies' support draws enter z only through their XOR,
itself one uniform k-bit draw d: k = 1 under P1 (e or ~e), k = n - 1 under
P2.  A pair code holds the pair's output label in its high n bits and its
share of z, shifted up by k bits, in its low n bits; code | d is the
trial's bin, its output label over the index (share << k) | d, which names
z one to one.  Pair codes lie below 2^(2n), in the narrowest unsigned dtype
that holds 2^(2n): uint8 up to n = 3, uint16 from n = 4 on.

A trial's verdict depends only on its z: it is a Bernoulli(K(z)) coin.  So
the trials are counted per bin, and each bin's kept count is one binomial
draw over its count, which has the law of one coin per trial.  At
epsilon = 0 every K is 0 or 1, and binomial(c, 0) = 0, binomial(c, 1) = c.
The spurious keeps are those of the bins whose z is neither all even nor
all odd.

The draws are fixed in kind and order, so a seed fixes the output.  They
are read in order from one generator, default_rng(seed)'s PCG64: one raw
64-bit word per trial, then Generator.binomial(tally, K[:, None]) over the
bins' counts in C order over (z, output label).  A trial's word gives both
of its draws.  Its top 53 bits are the uniform (word >> 11) * 2^-53 from
which Generator.choice would draw its pair, and its low k bits, below the
11 that choice drops (k <= 5 at n <= 6), are d.  The trials are read block
by block of BLOCK, and the tally is of integers, so a sample does not
depend on BLOCK.

BLOCK keeps every array of a block, 8 bytes a trial at most, below glibc's
default 128 KiB mmap threshold: at 2^15 trials the 256 KiB word arrays were
mapped and unmapped, or the heap grown and trimmed, every block, at one
minor page fault per 4 KiB page.  The pair table, the arrays that build it
and the tally stay below that threshold too: at most 2^15 uint16 guide
entries (64 KiB), 4096 pairs (32 KiB a float array) and 4096 bins (32 KiB).
Memory is O(BLOCK) whatever the trial count: one step at n = 6 and
epsilon = 0.2 traces 0.53 MiB at 10^6 trials and at 10^7, and takes 0.011 s
and 0.10 s on a shared 2-core x86 machine.
"""
from __future__ import annotations

import numpy as np

from .ghz import MAX_QUBITS_FAST, GhzDiagonalEnsemble, is_integer
from .optics import DiscriminationMode
from .purify import StepKind, StepReport

BLOCK = 16_000


def _guide_bits(count: int) -> int:
    """Bits g of the guide table of a draw over `count` outcomes.  At most
    `count` buckets hold a CDF point, and only draws in those are resolved
    against the points: four bits more than count's bit length keep their
    mass under 1/16.  g lies in 12..15, so that a uint16 table of 2^g
    entries stays at 64 KiB, below glibc's 128 KiB mmap threshold, which
    2^16 entries would reach."""
    return max(12, min(15, count.bit_length() + 4))


def _label_reader(support: np.ndarray, probs: np.ndarray):
    """The map from m raw words of the stream to m codes in support's dtype,
    draw for draw support[rng.choice(len(probs), m, p=probs)] when choice
    draws from those words: it turns them into the uniforms
    u = (word >> 11) * 2^-53 and counts the CDF points at or below each, so
    it reads only their top 53 bits.

    A guide table of 2^g buckets, g = _guide_bits(len(probs)), maps each
    word's top g bits, which are floor(u * 2^g), to its code where no CDF
    point lies inside the bucket.  Where one does, the entry is tied + i for
    the first point i above the bucket's lower edge, tied = support.max() +
    1: the draw's outcome is i, or i + 1 once u reaches point i, and only a
    draw past point i + 1 too, in a bucket that holds more than one point,
    is searched as choice searches.  tied + len(probs) - 1 must fit in
    support's dtype."""
    guide = _guide_bits(len(probs))
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    # u reaches the CDF point c just where word >> 11 reaches c * 2^53
    # (exact), or its ceiling: the points as integers.
    cdf *= 2.0 ** 53
    points = np.ceil(cdf, out=cdf).astype(np.uint64)
    del cdf
    shift = 53 - guide   # bucket b holds word >> 11 in [b, b + 1) << shift
    # Bucket b takes the code of outcome i, the first point above its lower
    # edge b << shift: i is first in the buckets from ceil(points[i - 1] /
    # 2^shift) up to ceil(points[i] / 2^shift), which reaches 2^guide at the
    # last point, 2^53.
    upper = points + ((1 << shift) - 1)
    upper >>= shift
    table = support.repeat(np.diff(upper.view(np.int64), prepend=0))
    del upper
    tied = int(support.max()) + 1
    inside = (points >> shift)[points & ((1 << shift) - 1) != 0]
    table[inside.astype(np.intp)] = points.searchsorted(inside << shift, side="right") + tied

    def labels(words: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Codes of `words`; `index`, an intp array of their shape, is
        overwritten."""
        # the guide buckets, each below 2^guide, as the index's bits
        np.right_shift(words, 64 - guide, out=index.view(np.uint64))
        lab = table.take(index)
        tie = (lab >= tied).ravel().nonzero()[0]
        u = words.take(tie) >> 11
        # i stays below the last point, 2^53, which no u reaches
        i = lab.take(tie) - tied
        i += u >= points.take(i)
        more = (u >= points.take(i)).nonzero()[0]
        i.put(more, points.searchsorted(u.take(more), side="right"))
        lab.put(tie, support.take(i))
        return lab
    return labels


def mc_sample_step(ens: GhzDiagonalEnsemble, step: StepKind | str,
                   mode: DiscriminationMode, trials: int, seed: int) -> StepReport:
    """Empirical StepReport from `trials` sampled copy pairs.

    Every kept trial enters the output: with epsilon > 0, a misread
    mismatched pair still leaves a GHZ basis state by the same rule as a
    genuine keep (P1: (e1, s1 s2), P2: (e1 xor e2, s1)).  The share of such
    trials is reported under the branch_stats key ("spurious", "*").
    """
    if not is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # None would seed from OS entropy, and a bool would run as seed 0 or 1.
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if not isinstance(mode, DiscriminationMode):
        raise ValueError(f"mode must be a DiscriminationMode, got {mode!r}")
    n = ens.n_qubits
    # the draws are checked against the reference sampler up to this bound
    if n > MAX_QUBITS_FAST:
        raise ValueError(f"Monte Carlo is bounded at {MAX_QUBITS_FAST} qubits")
    step = StepKind(step)
    rng = np.random.default_rng(int(seed))
    full = (1 << n) - 1
    # bits of a trial's support draw d, the XOR of its two copies' draws
    k = 1 if step is StepKind.P1 else n - 1

    # One intp index per trial, reused by every block's pair draw.  It is
    # allocated before the pair table is built: allocated after it, it left
    # the heap top to be trimmed after some calls and grown again in the
    # next, up to 80 minor page faults a call at n = 5 and 6.
    index = np.empty(min(BLOCK, trials), np.intp)

    # Nonzero label codes c = rep * 2 + (sign == -1), in all_labels order.
    # Pair (c1, c2) leaves the output code c1 ^ (c2 & 1) under P1, (e1, s1 s2),
    # and c1 ^ (c2 & ~1) under P2, (e1 xor e2, s1): the correction cancels the
    # sign that copy 2's outcome leaves, which is not drawn.  Its share of z
    # is the XOR of the reps (P1) or of the sign bits (P2).  Its pair code
    # holds the output code above n bits and share << k in them.
    flat = ens.W.T.ravel()
    support = np.flatnonzero(flat)
    probs = flat[support]
    c2 = support.astype(np.min_scalar_type(1 << 2 * n))
    c1 = c2[:, None]
    if step is StepKind.P1:
        codes = c1 ^ (c2 & 1)
        codes <<= n
        codes |= (c1 ^ c2) & (full ^ 1)   # share << 1
    else:
        codes = c1 ^ (c2 & (full ^ 1))
        codes <<= n
        codes |= ((c1 ^ c2) & 1) << (n - 1)   # share << (n - 1)
    pairs = _label_reader(codes.ravel(), np.outer(probs, probs).ravel())

    # An integer tally, so its sum does not depend on the blocks.
    tally = np.zeros(1 << 2 * n, np.int64)
    for b in range(0, trials, BLOCK):
        m = min(BLOCK, trials - b)
        words = rng.bit_generator.random_raw(m)
        code = pairs(words, index[:m])
        words &= (1 << k) - 1   # d, in the bits that the pair draw drops
        words |= code
        tally += np.bincount(words.view(np.intp), minlength=1 << 2 * n)

    # The true pattern z of each index share << k | d: under P1, d = 1 flips
    # every party's bit (~e); under P2, the even string a << 1 | parity(a) is
    # linear in a, so the two copies' strings XOR to that of a = d.
    ix = np.arange(1 << n)
    if step is StepKind.P1:
        z = (ix >> 1) ^ (ix & 1) * full
    else:
        a = ix & (full >> 1)
        z = (ix >> k) ^ (a << 1 | np.bitwise_count(a) & 1)
    by_z = np.empty((1 << n, 1 << n), np.int64)
    by_z[z] = tally.reshape(1 << n, 1 << n).T   # rows z, columns the output label
    kept = rng.binomial(by_z, mode.keep_weights(n)[:, None])

    counts = kept.sum(axis=0)
    n_kept = int(counts.sum())
    if n_kept == 0:
        raise ValueError("no kept trials; increase trials")
    output = GhzDiagonalEnsemble(n, counts.reshape(-1, 2).T / n_kept)
    # kept trials whose true pattern is neither all even nor all odd
    spurious = n_kept - int(kept[0].sum()) - int(kept[full].sum())
    stats = {("spurious", "*"): spurious / trials} if spurious else {}
    return StepReport(output, n_kept / trials, stats)
