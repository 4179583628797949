"""Monte Carlo cross-check: stochastic sampling of purification steps.

Label pairs are drawn from the ensemble, and each copy is collapsed to one of
its computational-basis support strings (for P2, to a Hadamard-frame support
string).  The true parity pattern z = x xor y has one bit per party, set when
that party's check is odd.  Homodyne misclassification flips each party's
verdict with probability epsilon, so the trial is kept with the chance K(z)
of `DiscriminationMode.keep_weights`: that z reads all even, or all odd
under even-plus-odd.  One uniform per trial decides it: kept just when
rng.random() < K(z).  At epsilon = 0 every K is 0 or 1, and the verdict is
read off z with nothing drawn.

The draws are fixed in kind and order, so a seed fixes the output.  They are
read in order from one generator, default_rng(seed)'s PCG64, block by block
of BLOCK trials.  A block of m trials reads its next words: m for copy 1's
labels and m for copy 2's, as Generator.choice draws them; m support words,
read as 2m 32-bit halves, low half first, copy 1's draws the first m halves
and copy 2's the next m; and m verdict words, only where epsilon > 0.
Those are the draws that Generator.choice, Generator.integers and
Generator.random would make, called in that order for each block, as they
turn raw words into values: a double is a word's top 53 bits over 2^53,
integers(0, 2^k) is the top k bits of one 32-bit half (Lemire's method
never rejects a power-of-two range), and random() < K reads
word >> 11 < ceil(K * 2^53).  A P2 support string is computed from its draw
a, an (n-1)-bit integer, as a << 1 | parity(a).

A call of at most BLOCK trials is one block: it reads the words of one pass
over all its trials.  A longer call gives another sample of the same law,
so a sample depends on BLOCK: retuning it changes which sample a seed
gives, not its law.  BLOCK keeps every array of a block, 8 bytes a trial at
most, below glibc's default 128 KiB mmap threshold, and a block frees its
support words before it draws its verdict words: at 2^15 trials the 256 KiB
word arrays were mapped and unmapped, or the heap grown and trimmed, every
block, at one minor page fault per 4 KiB page.  Memory is O(BLOCK) whatever the trial
count: one step at n = 6 and epsilon = 0.2 traces 0.39 MiB at 10^6 trials
and at 10^7 (68 MiB and 677 MiB in one pass), and takes 0.02 s and 0.2 s on
a shared 2-core x86 machine.  Label codes, patterns and outputs are held in
the narrowest unsigned dtype that holds 2^n (uint8 up to n = 7).
"""
from __future__ import annotations

import numpy as np

from .ghz import MAX_QUBITS_FAST, GhzDiagonalEnsemble, is_integer
from .optics import DiscriminationMode
from .purify import StepKind, StepReport

GUIDE_BITS = 12
BLOCK = 16_000


def _label_reader(support: np.ndarray, probs: np.ndarray):
    """The map from m raw words of the stream to m label codes in support's
    dtype, draw for draw support[rng.choice(len(probs), m, p=probs)] when
    choice draws from those words: it turns them into the uniforms
    u = (word >> 11) * 2^-53 and counts the CDF points at or below each.  A
    guide table of 2^GUIDE_BITS buckets maps each word's top GUIDE_BITS
    bits, which are floor(u * 2^GUIDE_BITS), to its label, or to the dtype's
    maximum where a CDF point lies inside the bucket; only those draws
    rebuild u and are searched, as choice searches.  Every code in support
    must lie below that maximum."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    # u reaches the CDF point c just where word >> 11 reaches c * 2^53
    # (exact), or its ceiling: the points as integers.
    points = np.ceil(cdf * 2.0 ** 53).astype(np.uint64)
    shift = 53 - GUIDE_BITS   # bucket k holds word >> 11 in [k, k + 1) << shift
    # the points at or below each bucket's lower edge
    edge = np.bincount(((points + ((1 << shift) - 1)) >> shift).astype(np.intp),
                       minlength=(1 << GUIDE_BITS) + 1)
    table = support[edge[:1 << GUIDE_BITS].cumsum()]
    searched = np.iinfo(support.dtype).max
    table[(points >> shift)[points & ((1 << shift) - 1) != 0].astype(np.intp)] = searched

    def labels(words: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Label codes of `words`; `index`, an intp array of their shape, is
        overwritten."""
        # the guide buckets, each below 2^GUIDE_BITS, as the index's bits
        np.right_shift(words, 64 - GUIDE_BITS, out=index.view(np.uint64))
        lab = table.take(index)
        tie = (lab == searched).ravel().nonzero()[0]
        lab.put(tie, support[points.searchsorted(words.take(tie) >> 11, side="right")])
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

    # Nonzero label codes rep * 2 + (sign == -1), in all_labels order, in the
    # narrowest unsigned dtype that holds 2^n: its maximum is above every
    # code, and it holds a code with the rejected bit 2^n set.
    flat = ens.W.T.ravel()
    support = np.flatnonzero(flat)
    codes = support.astype(np.min_scalar_type(1 << n))
    labels = _label_reader(codes, flat[support])

    keep = mode.keep_weights(n)
    noisy = mode.misclassification_probability > 0.0
    if noisy:
        # rng.random() < K reads (word >> 11) * 2^-53 < K; K * 2^53 is exact,
        # and an integer lies below it just when it lies below its ceiling,
        # at most 2^53.
        below = np.ceil(keep * 2.0 ** 53).astype(np.uint64)
    else:
        kept_patterns = np.flatnonzero(keep).tolist()
    # One intp index per trial, reused by every gather and by the tally.
    index = np.empty(min(BLOCK, trials), np.intp)

    def block(m: int):
        """The next m trials: the tally of their codes (the output label,
        plus 2^n where rejected) and their spurious keeps.  Its arrays are
        freed when it returns, before the next block draws."""
        at = index[:m]
        lab1 = labels(bits.random_raw(m), at)
        lab2 = labels(bits.random_raw(m), at)
        # The correction cancels the sign that copy 2's outcome leaves, so the
        # output label does not depend on that outcome, which is not drawn.
        z = lab1 ^ lab2
        # A power-of-two integers(0, 2^k) draw is the half's top k bits, and
        # only the two copies' XOR enters z: copy 1's m halves, then copy 2's.
        halves = bits.random_raw(m).astype("<u8", copy=False).view("<u4")
        both = halves[:m]
        both ^= halves[m:]
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
        del both, halves   # freed before the verdict words are drawn

        spurious = 0
        if noisy:
            np.copyto(at, z)
            # Each threshold K[z] * 2^53 lands on the index it was read from:
            # numpy buffers an `out` only under mode="raise".
            limit = below.take(at, out=at.view(np.uint64), mode="clip")
            u = bits.random_raw(m)
            u >>= 11
            rejected = u >= limit
            # kept trials whose true pattern is neither all even nor all odd
            spurious = m - int(np.count_nonzero(rejected | (z == 0) | (z == full)))
        else:
            rejected = z != kept_patterns[0]
            for pattern in kept_patterns[1:]:
                rejected &= z != pattern
        np.bitwise_or(out, rejected.view(np.uint8) << n, out=at)
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
