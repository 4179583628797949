import itertools
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel,
                           build_binary_ensemble, build_werner,
                           ensemble_fidelity, random_ghz_diagonal,
                           target_label)
from ghzpurify.mc import BLOCK, _label_reader, mc_sample_step
from ghzpurify.optics import DiscriminationMode, ModeKind
from ghzpurify.purify import StepKind, apply_step

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()

TRIALS = 100_000


def bit_error(F=0.8, n=3):
    return build_binary_ensemble(F, GhzLabel("0" + "1" * (n - 1), +1), n)


def phase_error(F=0.8, n=3):
    return GhzDiagonalEnsemble(
        n, {GhzLabel("0" * n, +1): F, GhzLabel("0" * n, -1): 1.0 - F})


def binomial_3sigma(p, trials):
    return 3.0 * np.sqrt(p * (1.0 - p) / trials)


class TestConsistency:
    @pytest.mark.parametrize("mode", [EVEN_ONLY, EVEN_PLUS_ODD])
    def test_p1_keep_and_fidelity(self, mode):
        ens = bit_error()
        exact = apply_step(ens, StepKind.P1, mode)
        rep = mc_sample_step(ens, StepKind.P1, mode, TRIALS, seed=11)
        keep = exact.keep_probability
        assert abs(rep.keep_probability - keep) < binomial_3sigma(keep, TRIALS)
        fid = ensemble_fidelity(exact.output)
        kept = int(round(rep.keep_probability * TRIALS))
        assert abs(ensemble_fidelity(rep.output) - fid) < binomial_3sigma(fid, kept)

    def test_p2_keep_and_fidelity(self):
        ens = phase_error()
        exact = apply_step(ens, StepKind.P2, EVEN_ONLY)
        rep = mc_sample_step(ens, StepKind.P2, EVEN_ONLY, TRIALS, seed=12)
        keep = exact.keep_probability
        assert abs(rep.keep_probability - keep) < binomial_3sigma(keep, TRIALS)
        fid = ensemble_fidelity(exact.output)
        kept = int(round(rep.keep_probability * TRIALS))
        assert abs(ensemble_fidelity(rep.output) - fid) < binomial_3sigma(fid, kept)

    def test_six_mode_matches_even_only(self):
        ens = bit_error()
        six = mc_sample_step(ens, StepKind.P1,
                             DiscriminationMode.six_mode_pbs(), TRIALS, seed=13)
        exact = apply_step(ens, StepKind.P1, EVEN_ONLY)
        keep = exact.keep_probability
        assert abs(six.keep_probability - keep) < binomial_3sigma(keep, TRIALS)


class TestDeterminism:
    def test_same_seed_identical_tallies(self):
        ens = bit_error()
        a = mc_sample_step(ens, StepKind.P1, EVEN_ONLY, 20_000, seed=5)
        b = mc_sample_step(ens, StepKind.P1, EVEN_ONLY, 20_000, seed=5)
        assert a.keep_probability == b.keep_probability
        assert a.output.weights == b.output.weights
        assert a.branch_stats == b.branch_stats

    def test_different_seed_differs(self):
        ens = bit_error()
        a = mc_sample_step(ens, StepKind.P1, EVEN_ONLY, 20_000, seed=5)
        b = mc_sample_step(ens, StepKind.P1, EVEN_ONLY, 20_000, seed=6)
        assert a.keep_probability != b.keep_probability


class TestStepByName:
    @pytest.mark.parametrize("step", ["P1", "P2"])
    def test_name_runs_the_named_step(self, step):
        a = mc_sample_step(bit_error(), step, EVEN_ONLY, 20_000, seed=5)
        b = mc_sample_step(bit_error(), StepKind(step), EVEN_ONLY, 20_000, seed=5)
        assert a.keep_probability == b.keep_probability
        assert np.array_equal(a.output.W, b.output.W)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            mc_sample_step(bit_error(), "P3", EVEN_ONLY, 1_000, seed=5)


class TestMisclassification:
    def test_epsilon_shifts_keep_rate(self):
        # Symmetric verdict flips lose ~3*eps of the even branch and gain
        # only O(eps) of the mismatched branches, so the keep rate drops.
        ens = bit_error()
        clean = mc_sample_step(ens, StepKind.P1, EVEN_ONLY, TRIALS, seed=21)
        for eps in (0.05, 0.2):
            noisy = mc_sample_step(ens, StepKind.P1,
                                   DiscriminationMode.even_only(epsilon=eps),
                                   TRIALS, seed=21)
            # Analytic keep rate: matching even 0.34*(1-eps)^3 + matching odd
            # 0.34*eps^3 + mismatched 0.16*(eps^2*(1-eps) + eps*(1-eps)^2).
            expected = (0.34 * (1 - eps) ** 3 + 0.34 * eps ** 3
                        + 0.16 * (eps ** 2 * (1 - eps) + eps * (1 - eps) ** 2))
            assert abs(noisy.keep_probability - expected) < binomial_3sigma(
                expected, TRIALS)
            assert noisy.keep_probability < clean.keep_probability
            # Every kept pair leaves its copy-1 label, misread or not: the
            # target survives from target pairs (0.64 of pairs, kept with
            # a = ((1-eps)^3 + eps^3)/2) and from mismatched target-first
            # pairs (0.16, kept with b = (eps^2(1-eps) + eps(1-eps)^2)/2).
            a = ((1 - eps) ** 3 + eps ** 3) / 2
            b = (eps ** 2 * (1 - eps) + eps * (1 - eps) ** 2) / 2
            fid = (0.64 * a + 0.16 * b) / expected
            kept = int(round(noisy.keep_probability * TRIALS))
            assert abs(ensemble_fidelity(noisy.output) - fid) < binomial_3sigma(
                fid, kept)

    def test_even_plus_odd_doubles_the_noisy_keep(self):
        # An all-odd reading of pattern z is as likely as an all-even reading
        # of ~z, so keeping both doubles the even-only keep rate above.
        ens = bit_error()
        for eps in (0.05, 0.2):
            noisy = mc_sample_step(ens, StepKind.P1,
                                   DiscriminationMode.even_plus_odd(epsilon=eps),
                                   TRIALS, seed=24)
            expected = (0.68 * ((1 - eps) ** 3 + eps ** 3)
                        + 0.32 * (eps ** 2 * (1 - eps) + eps * (1 - eps) ** 2))
            assert abs(noisy.keep_probability - expected) < binomial_3sigma(
                expected, TRIALS)
            assert noisy.branch_stats.get(("spurious", "*"), 0.0) > 0.0

    def test_epsilon_produces_spurious_keeps(self):
        ens = bit_error()
        noisy = mc_sample_step(ens, StepKind.P1,
                               DiscriminationMode.even_only(epsilon=0.05),
                               TRIALS, seed=22)
        assert noisy.branch_stats.get(("spurious", "*"), 0.0) > 0.0

    def test_epsilon_zero_has_no_spurious(self):
        rep = mc_sample_step(bit_error(), StepKind.P1, EVEN_ONLY, TRIALS, seed=23)
        assert ("spurious", "*") not in rep.branch_stats


class TestValidation:
    def test_trials_bound(self):
        with pytest.raises(ValueError):
            mc_sample_step(bit_error(), StepKind.P1, EVEN_ONLY, 0, seed=1)

    @pytest.mark.parametrize("trials", [True, 2.5, "10", None, np.float64(100.0)])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            mc_sample_step(bit_error(), StepKind.P1, EVEN_ONLY, trials, seed=1)

    @pytest.mark.parametrize("trials", [np.int64(1_000), np.int32(1_000), np.uint16(1_000)])
    def test_numpy_integer_trials_run_as_int(self, trials):
        a = mc_sample_step(bit_error(), StepKind.P1, EVEN_ONLY, trials, seed=1)
        b = mc_sample_step(bit_error(), StepKind.P1, EVEN_ONLY, 1_000, seed=1)
        assert a.keep_probability == b.keep_probability
        assert np.array_equal(a.output.W, b.output.W)

    @pytest.mark.parametrize("seed", [None, True, False, -1, 1.5, "3", np.float64(3.0),
                                      np.int64(-2), [3], np.random.default_rng(3)])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # None would seed from OS entropy, and True would run as seed 1.
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            mc_sample_step(bit_error(), StepKind.P1, EVEN_ONLY, 1_000, seed=seed)

    @pytest.mark.parametrize("step", [StepKind.P1, StepKind.P2])
    def test_numpy_integer_seed_runs_as_int(self, step):
        mode = DiscriminationMode.even_plus_odd(epsilon=0.05)
        a = mc_sample_step(bit_error(), step, mode, 1_001, seed=np.int64(3))
        b = mc_sample_step(bit_error(), step, mode, 1_001, seed=3)
        assert a.keep_probability == b.keep_probability
        assert np.array_equal(a.output.W, b.output.W)
        assert a.branch_stats == b.branch_stats

    def test_pure_target_p1(self):
        ens = GhzDiagonalEnsemble(3, {target_label(3): 1.0})
        rep = mc_sample_step(ens, StepKind.P1, EVEN_PLUS_ODD, 10_000, seed=2)
        assert rep.keep_probability == 1.0
        assert ensemble_fidelity(rep.output) == 1.0


def kept_chance(n, mode):
    """K[z] for each true parity pattern z, by its own per-party product:
    the chance that every party reads even, each party (qubit k, the bit of
    weight 2^(n-1-k)) misreading with probability epsilon, party 0 first;
    under even-plus-odd, plus the chance that every party reads odd."""
    full = (1 << n) - 1
    eps = mode.misclassification_probability

    def all_even(pattern):
        p = 1.0
        for k in range(n):
            p *= eps if pattern >> (n - 1 - k) & 1 else 1.0 - eps
        return p

    both = mode.kind is ModeKind.EVEN_PLUS_ODD
    return np.array([all_even(z) + (all_even(full ^ z) if both else 0.0)
                     for z in range(full + 1)])


def reference_sample_step(ens, step, mode, trials, seed):
    """The per-trial sampler that mc_sample_step must match draw for draw:
    on one generator, block by block of BLOCK trials, one rng.choice per
    copy, each copy's support string as an explicit computational string,
    and one rng.random() per trial against the chance K[z] that its true
    pattern z reads as a kept verdict.
    Returns (W, keep, branch_stats), or the ValueError message."""
    n = ens.n_qubits
    full = (1 << n) - 1
    rng = np.random.default_rng(seed)
    flat = ens.W.T.ravel()
    support = np.flatnonzero(flat)
    reps = support >> 1
    signs = 1 - 2 * (support & 1)
    K = kept_chance(n, mode)

    def support_samples(r, s):
        if step is StepKind.P1:
            flip = rng.integers(0, 2, size=len(r), dtype=np.int64)
            return np.where(flip == 1, r ^ full, r)
        half = np.arange(1 << (n - 1), dtype=np.int64)
        parity = np.zeros_like(half)
        for b in range(n - 1):
            parity ^= (half >> b) & 1
        even_strings = (half << 1) | parity
        idx = rng.integers(0, 1 << (n - 1), size=len(r))
        return np.where(s == 1, even_strings[idx], even_strings[idx] ^ 1)

    def block(m):
        i1 = rng.choice(len(support), size=m, p=flat[support])
        i2 = rng.choice(len(support), size=m, p=flat[support])
        x = support_samples(reps[i1], signs[i1])
        y = support_samples(reps[i2], signs[i2])
        z = x ^ y
        if ((K > 0.0) & (K < 1.0)).any():
            return i1, i2, z, rng.random(m) < K[z]
        return i1, i2, z, K[z] == 1.0

    i1, i2, z, kept = map(np.concatenate, zip(*(
        block(min(BLOCK, trials - b)) for b in range(0, trials, BLOCK))))
    n_kept = int(kept.sum())
    if n_kept == 0:
        return "no kept trials; increase trials"
    spurious = n_kept - int((kept & ((z == 0) | (z == full))).sum())
    if step is StepKind.P1:
        out_rep, out_sign = reps[i1][kept], (signs[i1] * signs[i2])[kept]
    else:
        out_rep, out_sign = (reps[i1] ^ reps[i2])[kept], signs[i1][kept]
    counts = np.bincount(out_rep * 2 + (out_sign == -1), minlength=1 << n)
    stats = {("spurious", "*"): spurious / trials} if spurious else {}
    return counts.reshape(-1, 2).T / n_kept, n_kept / trials, stats


def sampled(ens, step, mode, trials, seed):
    try:
        rep = mc_sample_step(ens, step, mode, trials, seed)
    except ValueError as err:
        return str(err)
    return rep.output.W, rep.keep_probability, rep.branch_stats


def grid_inputs(n):
    yield random_ghz_diagonal(n, np.random.default_rng(n))
    yield build_werner(0.7, n)
    yield build_binary_ensemble(0.8, GhzLabel("0" * (n - 1) + "1", -1), n)
    yield GhzDiagonalEnsemble(n, {target_label(n): 1.0})


# (trials, seed): one trial, odd and even counts, and the largest at 20k.
TRIAL_SEEDS = ((1, 0), (1_001, 1), (4_096, 2), (20_000, 3))


def assert_matches_reference(ens, step, mode, trials, seed):
    want = reference_sample_step(ens, step, mode, trials, seed)
    got = sampled(ens, step, mode, trials, seed)
    case = (mode.kind.value, mode.misclassification_probability, trials, seed,
            ens.W.tolist())
    if isinstance(want, str):
        assert got == want, case
        return
    assert np.array_equal(got[0], want[0]), case
    assert got[1:] == want[1:], case


class TestBitIdenticalToTheReferenceSampler:
    # epsilon = 0.49 gives the densest misread masks, nearly half their bits set.
    @pytest.mark.parametrize("step", [StepKind.P1, StepKind.P2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_output_keep_and_stats(self, n, step):
        for ens, kind, eps, (trials, seed) in itertools.product(
                grid_inputs(n), ModeKind, (0.0, 0.05, 0.2, 0.49), TRIAL_SEEDS):
            assert_matches_reference(ens, step, DiscriminationMode(kind, eps), trials, seed)

    # The benchmark's sampling op: 200,000 trials of a random ensemble.  At
    # n = 6 the P2 draws span all 32 five-bit values.
    @pytest.mark.parametrize("step", [StepKind.P1, StepKind.P2])
    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_same_at_200k_trials(self, n, step):
        for k, (kind, eps) in enumerate(itertools.product(ModeKind, (0.0, 0.05, 0.2))):
            ens = random_ghz_diagonal(n, np.random.default_rng(100 + k))
            assert_matches_reference(ens, step, DiscriminationMode(kind, eps), 200_000, k)

    # Odd counts over several blocks: the last block is short and odd, so
    # copy 2's support draws start mid-word.
    @pytest.mark.parametrize("trials", [2 * BLOCK + 1, 3 * BLOCK - 1])
    @pytest.mark.parametrize("step", [StepKind.P1, StepKind.P2])
    @pytest.mark.parametrize("n", [3, 6])
    def test_same_at_odd_counts_over_several_blocks(self, n, step, trials):
        for k, (kind, eps) in enumerate(itertools.product(ModeKind, (0.0, 0.2))):
            ens = random_ghz_diagonal(n, np.random.default_rng(200 + k))
            assert_matches_reference(ens, step, DiscriminationMode(kind, eps), trials, k)


def enumerated_law(ens, step, mode):
    """(keep, spurious share, output weights) of one step, summed over every
    pair of labels and every pair of their support strings, with no
    sampler: P1 collapses (e, s) to e or ~e, P2 to any of the 2^(n-1)
    strings whose weight is odd just when s = -1, each equally likely.  A
    pair of strings x, y is kept with K[x ^ y] and leaves (e1, s1 s2) under
    P1, (e1 xor e2, s1) under P2; it is a spurious keep when x ^ y is
    neither all even nor all odd."""
    n = ens.n_qubits
    full = (1 << n) - 1
    flat = ens.W.T.ravel()   # flat[rep * 2 + (sign == -1)]
    K = kept_chance(n, mode)

    def strings(code):
        if step is StepKind.P1:
            return [code >> 1, (code >> 1) ^ full]
        return [x for x in range(full + 1) if x.bit_count() % 2 == code & 1]

    weights = np.zeros(full + 1)
    spurious = 0.0
    for c1, c2 in itertools.product(range(full + 1), repeat=2):
        z = np.bitwise_xor.outer(strings(c1), strings(c2))
        pair = flat[c1] * flat[c2]
        out = c1 ^ (c2 & 1) if step is StepKind.P1 else c1 ^ (c2 & (full ^ 1))
        weights[out] += pair * K[z].mean()
        spurious += pair * np.where((z == 0) | (z == full), 0.0, K[z]).mean()
    keep = weights.sum()
    return keep, spurious, weights / keep


LAW_NS = (2, 3, 4)
LAW_EPSILONS = (0.05, 0.2, 0.49)
LAW_TRIALS = 200_000
# Each case compares its keep, its spurious share and every output weight.
LAW_COMPARISONS = (len(StepKind) * len(ModeKind) * len(LAW_EPSILONS)
                   * sum(2 + (1 << n) for n in LAW_NS))
# A Bonferroni bound: all comparisons pass by chance with probability >= 0.999.
LAW_SIGMAS = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * LAW_COMPARISONS))


def within_law(got, p, trials):
    """A binomial share of `trials` at probability p, within LAW_SIGMAS
    standard deviations of p (an exact 0 or 1 admits no deviation)."""
    assert abs(got - p) <= LAW_SIGMAS * math.sqrt(p * (1.0 - p) / trials), (got, p)


class TestEnumeratedLaw:
    """The law of a step at epsilon > 0, enumerated without a sampler,
    against mc_sample_step."""

    @pytest.mark.parametrize("eps", LAW_EPSILONS)
    @pytest.mark.parametrize("kind", list(ModeKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("step", list(StepKind), ids=lambda step: step.value)
    def test_keep_spurious_share_and_output_follow_the_law(self, step, kind, eps):
        mode = DiscriminationMode(kind, eps)
        for n in LAW_NS:
            ens = random_ghz_diagonal(n, np.random.default_rng(300 + n))
            keep, spurious, weights = enumerated_law(ens, step, mode)
            rep = mc_sample_step(ens, step, mode, LAW_TRIALS, seed=n)
            within_law(rep.keep_probability, keep, LAW_TRIALS)
            within_law(rep.branch_stats.get(("spurious", "*"), 0.0), spurious, LAW_TRIALS)
            kept = rep.keep_probability * LAW_TRIALS
            for got, want in zip(rep.output.W.T.ravel(), weights):
                within_law(got, want, kept)


class TestConstantMemory:
    def test_a_million_trials_trace_under_1_mib(self):
        # One pass over all trials traced 67.7 MiB here; blocks take about
        # 0.39 MiB, each array of a block below glibc's 128 KiB mmap threshold.
        ens = random_ghz_diagonal(6, np.random.default_rng(0))
        mode = DiscriminationMode.even_plus_odd(epsilon=0.2)
        tracemalloc.start()
        try:
            mc_sample_step(ens, StepKind.P2, mode, 1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


@st.composite
def random_or_sparse_ensembles(draw):
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        return random_ghz_diagonal(n, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    # One to four labels, in all_labels order, with weights far apart or alike.
    codes = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4, unique=True))
    flat = np.zeros(1 << n)
    flat[codes] = draw(st.lists(st.floats(1e-9, 1.0), min_size=len(codes), max_size=len(codes)))
    return GhzDiagonalEnsemble(n, (flat / flat.sum()).reshape(-1, 2).T)


class TestBitIdenticalProperty:
    @settings(max_examples=400)
    @given(ens=random_or_sparse_ensembles(), step=st.sampled_from(StepKind),
           kind=st.sampled_from(ModeKind), eps=st.sampled_from((0.0, 0.05, 0.2, 0.49)),
           trials=st.integers(1, 3_000), seed=st.integers(0, 2 ** 63 - 1))
    def test_matches_the_reference_sampler(self, ens, step, kind, eps, trials, seed):
        assert_matches_reference(ens, step, DiscriminationMode(kind, eps), trials, seed)


class TestGeneratorWordStream:
    """The numpy identities by which mc rebuilds its draws from the raw
    64-bit words of the default generator (PCG64): a double is the word's top
    53 bits over 2^53, and a power-of-two integers draw is the top bits of one
    32-bit half, low half first, by Lemire's method with no rejection."""
    CASES = list(itertools.product(range(4), (1, 2, 1_001, 4_096)))

    @staticmethod
    def streams(seed):
        return np.random.default_rng(seed), np.random.default_rng(seed).bit_generator

    @pytest.mark.parametrize("seed, m", CASES)
    def test_a_double_is_the_top_53_bits(self, seed, m):
        rng, bits = self.streams(seed)
        assert np.array_equal(rng.random(m), (bits.random_raw(m) >> 11) * 2.0 ** -53)

    @pytest.mark.parametrize("seed, m", CASES)
    def test_the_guide_bucket_is_the_top_12_bits(self, seed, m):
        rng, bits = self.streams(seed)
        assert np.array_equal(np.floor(rng.random(m) * 4096), bits.random_raw(m) >> 52)

    @pytest.mark.parametrize("seed, m", CASES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_two_power_of_two_draws_are_the_top_bits_of_the_halves(self, seed, m, k):
        rng, bits = self.streams(seed)
        want = np.concatenate([rng.integers(0, 2 ** k, size=m) for _ in range(2)])
        halves = bits.random_raw(m).astype("<u8").view("<u4")
        assert np.array_equal(want, halves >> (32 - k))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [0, 1, 2_003, BLOCK])
    def test_a_read_after_k_words_reads_the_stream_from_word_k(self, seed, k):
        # mc reads its segments in turn, block by block, from one generator
        _, bits = self.streams(seed)
        bits.random_raw(k)
        want = np.random.default_rng(seed).bit_generator.random_raw(k + 1_001)[k:]
        assert np.array_equal(bits.random_raw(1_001), want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("keep", [0.0, 1e-300, 2.0 ** -53, 0.05, 0.2, 0.49 ** 3,
                                      np.nextafter(0.5, 0.0), 0.51 ** 2 + 0.49 ** 2,
                                      np.nextafter(1.0, 0.0), 1.0])
    def test_a_uniform_below_k_is_a_word_whose_top_53_bits_lie_below_a_threshold(
            self, seed, keep):
        # K * 2^53 is exact, and an integer lies below it just where it lies
        # below its ceiling, which is at most 2^53 (K = 1 keeps every word).
        rng, bits = self.streams(seed)
        below = np.ceil(np.array([keep]) * 2.0 ** 53).astype(np.uint64)
        assert np.array_equal(rng.random(4_096) < keep, bits.random_raw(4_096) >> 11 < below)


class TestLabelDraw:
    PROBS = ([1.0], [0.25, 0.25, 0.5], [1 / 64] * 64,
             [1e-300, 1 - 1e-12, 1e-12], [1 - 1e-12, 1e-300, 1e-12],
             *(np.random.default_rng(k).dirichlet(np.ones(k)) for k in (2, 5, 33, 64)))

    @pytest.mark.parametrize("probs", PROBS, ids=range(len(PROBS)))
    @pytest.mark.parametrize("trials", [1, 7, 4_097])
    def test_matches_two_choice_calls(self, probs, trials):
        probs = np.asarray(probs, dtype=float)
        support = 3 * np.arange(len(probs)) + 1
        for seed in range(4):
            rng = np.random.default_rng(seed)
            want = [support[rng.choice(len(probs), trials, p=probs)] for _ in range(2)]
            words = np.random.default_rng(seed).bit_generator.random_raw((2, trials))
            got = _label_reader(support, probs)(words, np.empty(words.shape, np.intp))
            assert np.array_equal(got, want)

    def test_full_uint8_support_never_returns_the_searched_marker(self):
        # Codes 0..63 (n = 6) with most of the mass on the last: the low
        # buckets all hold CDF points and are searched, marked by 255.
        probs = np.full(64, 1e-4)
        probs[-1] = 1.0 - probs[:-1].sum()
        support = np.arange(64, dtype=np.uint8)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            want = [rng.choice(64, 4_097, p=probs) for _ in range(2)]
            words = np.random.default_rng(seed).bit_generator.random_raw((2, 4_097))
            got = _label_reader(support, probs)(words, np.empty(words.shape, np.intp))
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
            assert not (got == np.iinfo(np.uint8).max).any()

