"""Monte Carlo cross-check: stochastic sampling of purification steps.

Label pairs are drawn from the ensemble, and each copy is collapsed to one of
its computational-basis support strings (for P2, to a Hadamard-frame support
string).  A trial's verdict is one n-bit parity pattern, one bit per party,
set when that party reads odd: the true pattern z = x xor y, each bit flipped
with probability epsilon by homodyne misclassification (not under six-mode
PBS).  The trial is kept when the pattern reads all even, or all odd under
even-plus-odd.  The draws are fixed in kind and order (both copies' labels as
by Generator.choice, then their support strings, then the misread mask), so a
seed fixes the output.  They are read straight from the raw 64-bit words of
the generator's stream (PCG64), which Generator.random and Generator.integers
would turn into the same values: a double is a word's top 53 bits over 2^53,
integers(0, 2^k) is the top k bits of one 32-bit half, low half first
(Lemire's method never rejects a power-of-two range), and random() < epsilon
reads word < ceil(epsilon * 2^53) << 11.  A P2 support string is computed
from its draw a, an (n-1)-bit integer, as a << 1 | parity(a).

The trials run in blocks of BLOCK.  PCG64 is an LCG at heart, so it can jump
ahead k words in O(log k) steps: each block reads its own words at their
places in the stream of default_rng(seed), and the output is that of one pass
over all trials, bit for bit.  Memory is O(BLOCK * n) whatever the trial
count: one step at n = 6 and epsilon = 0.2 traces 2.2 MiB at 10^6 trials and
at 10^7 (68 MiB and 677 MiB in one pass), and takes 0.04 s and 0.4 s on a
shared 2-core x86 machine.  Label codes, patterns and outputs are held in the
narrowest unsigned dtype that holds 2^n (uint8 up to n = 7).
"""
from __future__ import annotations

import math

import numpy as np

from .ghz import MAX_QUBITS_FAST, GhzDiagonalEnsemble
from .optics import DiscriminationMode, ModeKind
from .purify import StepKind, StepReport

GUIDE_BITS = 12
BLOCK = 1 << 15


def _label_reader(support: np.ndarray, probs: np.ndarray):
    """The map from m raw words of the stream to m label codes in support's
    dtype, draw for draw support[rng.choice(len(probs), m, p=probs)] when
    choice draws from those words: it turns them into the uniforms
    u = (word >> 11) * 2^-53.  A guide table of 2^GUIDE_BITS buckets maps
    each word's top GUIDE_BITS bits, which are floor(u * 2^GUIDE_BITS), to
    its label, or to the dtype's maximum where the bucket holds a CDF point;
    only those draws rebuild u and are searched, as choice searches.  Every
    code in support must lie below that maximum."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    edges = np.arange((1 << GUIDE_BITS) + 1) / (1 << GUIDE_BITS)
    lo = cdf.searchsorted(edges[:-1], side="right")
    searched = np.iinfo(support.dtype).max
    table = np.where(lo == cdf.searchsorted(edges[1:], side="left"), support[lo], searched)

    def labels(words: np.ndarray) -> np.ndarray:
        # floor(u * 2^GUIDE_BITS) is the word's top GUIDE_BITS bits; below
        # 2^63, so its int64 view is an index that needs no cast.
        lab = table[(words >> (64 - GUIDE_BITS)).view(np.int64)]
        tie = np.flatnonzero(lab == searched)
        u = (words.flat[tie] >> 11) * 2.0 ** -53
        lab.flat[tie] = support[cdf.searchsorted(u, side="right")]
        return lab
    return labels


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
    trials = int(trials)  # a numpy integer would overflow the stream offsets
    full = (1 << n) - 1

    # Nonzero label codes rep * 2 + (sign == -1), in all_labels order, in the
    # narrowest unsigned dtype that holds 2^n: its maximum is above every
    # code, and it holds a code with the rejected bit 2^n set.
    flat = ens.W.T.ravel()
    support = np.flatnonzero(flat)
    codes = support.astype(np.min_scalar_type(1 << n))
    labels = _label_reader(codes, flat[support])
    cursor = np.random.PCG64(seed)
    start = cursor.state

    def words(offset: int, count: int) -> np.ndarray:
        """Words [offset, offset + count) of default_rng(seed)'s stream: copy
        1's labels are [0, T), copy 2's [T, 2T), the support draws [2T, 3T)
        and the misread mask, in (trial, party) order, [3T, 3T + nT)."""
        cursor.state = start
        cursor.advance(offset)
        return cursor.random_raw(count)

    def halves(h: int, m: int) -> np.ndarray:
        """Support draws [h, h + m), the 32-bit halves of words [2T, 3T), low
        half first (little-endian on every host): copy 1 takes [0, T), copy 2
        [T, 2T), so copy 2 starts mid-word when T is odd."""
        w = words(2 * trials + h // 2, (h % 2 + m + 1) // 2)
        return w.astype("<u8", copy=False).view("<u4")[h % 2:h % 2 + m]

    eps = mode.misclassification_probability
    # Party k (qubit k, the bit of weight 2^(n-1-k)) misreads with
    # probability eps; photon-number post-selection has no such error.
    # rng.random() < eps reads (word >> 11) * 2^-53 < eps, and the integer
    # word >> 11 lies below eps * 2^53 just when word < ceil(eps * 2^53) << 11.
    noisy = eps > 0.0 and mode.kind is not ModeKind.SIX_MODE_PBS
    below = np.uint64(math.ceil(eps * 2.0 ** 53) << 11)
    weights = np.array([1 << (n - 1 - k) for k in range(n)], codes.dtype)
    # Integer tallies, so their sums do not depend on the order of the blocks.
    counts = np.zeros(2 << n, dtype=np.int64)
    spurious_count = 0
    for b in range(0, trials, BLOCK):
        m = min(BLOCK, trials - b)
        lab1, lab2 = labels(words(b, m)), labels(words(trials + b, m))
        # The correction cancels the sign that copy 2's outcome leaves, so the
        # output label does not depend on that outcome, which is not drawn.
        z = lab1 ^ lab2
        # A power-of-two integers(0, 2^k) draw is the half's top k bits, and
        # only the two copies' XOR enters z.
        both = halves(b, m) ^ halves(trials + b, m)
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
        if noisy:
            misread = words(3 * trials + n * b, n * m).reshape(m, n) < below
            read = misread.view(np.uint8) @ weights
            read ^= z
        rejected = read != 0
        if mode.kind is ModeKind.EVEN_PLUS_ODD:
            rejected &= read != full
        if noisy:  # kept trials whose true pattern is neither all even nor all odd
            spurious_count += m - int(np.count_nonzero(rejected | (z == 0) | (z == full)))
        out |= rejected.view(np.uint8) << n
        counts += np.bincount(out, minlength=2 << n)

    counts = counts[:1 << n]
    n_kept = int(counts.sum())
    if n_kept == 0:
        raise ValueError("no kept trials; increase trials")
    output = GhzDiagonalEnsemble(n, counts.reshape(-1, 2).T / n_kept)

    stats = {("spurious", "*"): spurious_count / trials} if spurious_count else {}
    return StepReport(output, n_kept / trials, stats)
