"""Monte Carlo cross-check: stochastic sampling of purification steps.

A trial draws a pair of labels from the ensemble and collapses each copy to
one of its computational-basis support strings (for P2, to a Hadamard-frame
support string).  The true parity pattern z = x xor y has one bit per
party, set when that party's check is odd.  Homodyne misclassification flips
each party's verdict with probability epsilon, so the trial is kept with the
chance K(z) of `DiscriminationMode.keep_weights`: that z reads all even, or
all odd under even-plus-odd.  One uniform per trial decides it: kept just
when rng.random() < K(z).  At epsilon = 0 every K is 0 or 1, and the verdict
is read off z with nothing drawn.

The two copies are independent, so a pair is one draw from W x W: the S^2
pairs of the S nonzero labels, pair (i, j) at index i * S + j with weight
p_i * p_j.  And the copies' support draws enter z only through their XOR,
itself one uniform k-bit draw: k = 1 under P1 (e or ~e), k = n - 1 under
P2.  So a trial draws one pair and one k-bit integer d.  A pair code holds
the pair's output label in its low n bits and, above them, its share of z
shifted up by k bits; the trial's index (code >> n) | d names z one to one,
so keep chances are looked up by index, not by z.  Pair codes lie below
2^(2n), in the narrowest unsigned dtype that holds 2^(2n): uint8 up to
n = 3, uint16 from n = 4 on.

The draws are fixed in kind and order, so a seed fixes the output.  They are
read in order from one generator, default_rng(seed)'s PCG64, block by block
of BLOCK trials.  A block of m trials reads its next words: m for the pairs,
as Generator.choice draws them; ceil(m / 2) support words, one 32-bit half
per trial, low half first; and m verdict words, only where epsilon > 0:
m + ceil(m / 2) words, or 2m + ceil(m / 2).  Those are the draws that
Generator.choice, Generator.integers and Generator.random would make, called
in that order for each block, as they turn raw words into values: a double
is a word's top 53 bits over 2^53, integers(0, 2^k) is the top k bits of
one 32-bit half (Lemire's method never rejects a power-of-two range), and
random() < K reads word >> 11 < ceil(K * 2^53).  Generator.integers keeps
the unused high half of an odd count for its next call, so BLOCK is even:
only a call's last block may leave a half unread.

A call of at most BLOCK trials is one block: it reads the words of one pass
over all its trials.  A longer call gives another sample of the same law,
so a sample depends on BLOCK: retuning it changes which sample a seed
gives, not its law.  BLOCK keeps every array of a block, 8 bytes a trial at
most, below glibc's default 128 KiB mmap threshold, and a block frees its
support words before it draws its verdict words: at 2^15 trials the 256 KiB
word arrays were mapped and unmapped, or the heap grown and trimmed, every
block, at one minor page fault per 4 KiB page.  The pair table and the
arrays that build it stay below that threshold too: at most 2^15 uint16
guide entries (64 KiB) and 4096 pairs (32 KiB a float array).  Memory is
O(BLOCK) whatever the trial count: one step at n = 6 and epsilon = 0.2
traces 0.46 MiB at 10^6 trials and at 10^7 (68 MiB and 677 MiB in one
pass), and takes 0.018 s and 0.16 s on a shared 2-core x86 machine.
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
    u = (word >> 11) * 2^-53 and counts the CDF points at or below each.

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
    n = ens.n_qubits
    # the draws are checked against the reference sampler up to this bound
    if n > MAX_QUBITS_FAST:
        raise ValueError(f"Monte Carlo is bounded at {MAX_QUBITS_FAST} qubits")
    step = StepKind(step)
    bits = np.random.default_rng(int(seed)).bit_generator
    full = (1 << n) - 1
    # bits of a trial's support draw d, the XOR of its two copies' draws
    k = 1 if step is StepKind.P1 else n - 1

    # One intp index per trial, reused by every gather and by the tally.  It
    # is allocated before the pair table is built: allocated after it, it
    # left the heap top to be trimmed after some calls and grown again in
    # the next, up to 80 minor page faults a call at n = 5 and 6.
    index = np.empty(min(BLOCK, trials), np.intp)

    # Nonzero label codes c = rep * 2 + (sign == -1), in all_labels order.
    # Pair (c1, c2) leaves the output code c1 ^ (c2 & 1) under P1, (e1, s1 s2),
    # and c1 ^ (c2 & ~1) under P2, (e1 xor e2, s1): the correction cancels the
    # sign that copy 2's outcome leaves, which is not drawn.  Its share of z
    # is the XOR of the reps (P1) or of the sign bits (P2).  Its pair code
    # holds the output code in the low n bits and share << k above them.
    flat = ens.W.T.ravel()
    support = np.flatnonzero(flat)
    probs = flat[support]
    c2 = support.astype(np.min_scalar_type(1 << 2 * n))
    c1 = c2[:, None]
    if step is StepKind.P1:
        codes = (c1 ^ c2) & (full ^ 1)   # share << 1
        codes <<= n
        codes |= c1 ^ (c2 & 1)
    else:
        codes = (c1 ^ c2) & 1
        codes <<= 2 * n - 1   # share << (n - 1) above the output
        codes |= c1 ^ (c2 & (full ^ 1))
    pairs = _label_reader(codes.ravel(), np.outer(probs, probs).ravel())

    # The true pattern z of each index share << k | d: under P1, d = 1 flips
    # every party's bit (~e); under P2, the even string a << 1 | parity(a) is
    # linear in a, so the two copies' strings XOR to that of a = d.
    ix = np.arange(1 << n)
    if step is StepKind.P1:
        z = (ix >> 1) ^ (ix & 1) * full
    else:
        a = ix & (full >> 1)
        z = (ix >> k) ^ (a << 1 | np.bitwise_count(a) & 1)
    keep = mode.keep_weights(n)[z]
    # the indices of the all-even and the all-odd pattern
    even, odd = np.flatnonzero(z == 0)[0], np.flatnonzero(z == full)[0]
    noisy = mode.misclassification_probability > 0.0
    if noisy:
        # rng.random() < K reads (word >> 11) * 2^-53 < K; K * 2^53 is exact,
        # and an integer lies below it just when it lies below its ceiling,
        # at most 2^53.
        below = np.ceil(keep * 2.0 ** 53).astype(np.uint64)
    else:
        kept = np.flatnonzero(keep).tolist()

    def block(m: int):
        """The next m trials: the tally of their codes (the output label,
        plus 2^n where rejected) and their spurious keeps.  Its arrays are
        freed when it returns, before the next block draws."""
        at = index[:m]
        code = pairs(bits.random_raw(m), at)
        # integers(0, 2^k) is the top k bits of one 32-bit half, low half
        # first; an odd m leaves the last high half unread.
        halves = bits.random_raw((m + 1) // 2).astype("<u8", copy=False).view("<u4")[:m]
        halves >>= 32 - k
        np.right_shift(code, n, out=at)
        at |= halves
        del halves   # freed before the verdict words are drawn
        code &= full   # the output label

        spurious = 0
        if noisy:
            # trials whose true pattern is all even or all odd; a kept trial
            # with any other pattern is a spurious keep
            plain = at == even
            plain |= at == odd
            # Each threshold K * 2^53 lands on the index it was read from:
            # numpy buffers an `out` only under mode="raise".
            limit = below.take(at, out=at.view(np.uint64), mode="clip")
            u = bits.random_raw(m)
            u >>= 11
            rejected = u >= limit
            plain |= rejected
            spurious = m - int(np.count_nonzero(plain))
        else:
            rejected = at != kept[0]
            for i in kept[1:]:
                rejected &= at != i
        np.bitwise_or(code, rejected.view(np.uint8) << n, out=at)
        return np.bincount(at, minlength=2 << n), spurious

    # Integer tallies, so their sums do not depend on the order of the blocks.
    counts = np.zeros(2 << n, dtype=np.int64)
    spurious_count = 0
    for b in range(0, trials, BLOCK):
        tally, spurious = block(min(BLOCK, trials - b))
        counts += tally
        spurious_count += spurious

    counts = counts[:1 << n]
    n_kept = int(counts.sum())
    if n_kept == 0:
        raise ValueError("no kept trials; increase trials")
    output = GhzDiagonalEnsemble(n, counts.reshape(-1, 2).T / n_kept)

    stats = {("spurious", "*"): spurious_count / trials} if spurious_count else {}
    return StepReport(output, n_kept / trials, stats)
