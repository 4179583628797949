import numpy as np
import pytest

from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel,
                           build_binary_ensemble, ensemble_fidelity,
                           target_label)
from ghzpurify.mc import mc_sample_step
from ghzpurify.optics import DiscriminationMode
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

    def test_pure_target_p1(self):
        ens = GhzDiagonalEnsemble(3, {target_label(3): 1.0})
        rep = mc_sample_step(ens, StepKind.P1, EVEN_PLUS_ODD, 10_000, seed=2)
        assert rep.keep_probability == 1.0
        assert ensemble_fidelity(rep.output) == 1.0
