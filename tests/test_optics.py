import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.optics import (DiscriminationMode, KerrInteraction, ModeKind,
                              ProbeBeam, ShiftClass, Verdict, classify_phase,
                              discriminate, kerr_evolve, qnd_parity_shift,
                              six_mode_keep)


class TestKerr:
    def test_no_photon_no_shift(self):
        probe = ProbeBeam(2.0, 0.0)
        out = kerr_evolve(0, probe, KerrInteraction(0.3))
        assert out.accumulated_phase == 0.0

    def test_single_photon_shift(self):
        out = kerr_evolve(1, ProbeBeam(2.0), KerrInteraction(0.3))
        assert out.accumulated_phase == pytest.approx(0.3)
        assert out.alpha == 2.0

    def test_two_pi_wraps_to_zero(self):
        # Two photons at theta = pi are indistinguishable from none.
        probe = ProbeBeam(1.0)
        k = KerrInteraction(math.pi)
        out = kerr_evolve(1, kerr_evolve(1, probe, k), k)
        assert out.accumulated_phase == pytest.approx(0.0, abs=1e-12)

    def test_rejects_multiphoton(self):
        with pytest.raises(ValueError):
            kerr_evolve(2, ProbeBeam(1.0), KerrInteraction(0.3))

    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            KerrInteraction(0.0)
        with pytest.raises(ValueError):
            KerrInteraction(3.5)

    @pytest.mark.parametrize("value", [True, False, "0.1", None, math.nan])
    def test_theta_and_phase_must_be_numbers(self, value):
        with pytest.raises(ValueError, match="theta"):
            KerrInteraction(value)
        with pytest.raises(ValueError, match="accumulated_phase"):
            ProbeBeam(1.0, value)


class TestShiftTable:
    @pytest.mark.parametrize("pair,expected", [
        (("H", "H"), ShiftClass.SHIFT_THETA),
        (("V", "V"), ShiftClass.SHIFT_THETA),
        (("H", "V"), ShiftClass.SHIFT_2THETA),
        (("V", "H"), ShiftClass.SHIFT_0),
    ])
    def test_table(self, pair, expected):
        assert qnd_parity_shift(pair) is expected

    def test_even_iff_equal(self):
        for a in "HV":
            for b in "HV":
                even = qnd_parity_shift((a, b)) is ShiftClass.SHIFT_THETA
                assert even == (a == b)

    def test_rejects_bad_polarization(self):
        with pytest.raises(ValueError):
            qnd_parity_shift(("H", "D"))


class TestClassifyPhase:
    def test_exact_values(self):
        assert classify_phase(0.0, 0.3) is ShiftClass.SHIFT_0
        assert classify_phase(0.3, 0.3) is ShiftClass.SHIFT_THETA
        assert classify_phase(0.6, 0.3) is ShiftClass.SHIFT_2THETA

    def test_modular_wrap(self):
        assert classify_phase(2 * math.pi, math.pi) is ShiftClass.SHIFT_0

    def test_unknown_phase(self):
        with pytest.raises(ValueError):
            classify_phase(0.15, 0.3)


class TestDiscriminate:
    def test_even_only_verdicts(self):
        mode = DiscriminationMode.even_only(theta=0.3)
        assert discriminate(ShiftClass.SHIFT_THETA, mode) is Verdict.EVEN
        assert discriminate(ShiftClass.SHIFT_0, mode) is Verdict.ODD
        assert discriminate(ShiftClass.SHIFT_2THETA, mode) is Verdict.ODD

    def test_even_plus_odd_merges_odd_shifts(self):
        mode = DiscriminationMode.even_plus_odd()
        assert discriminate(ShiftClass.SHIFT_2THETA, mode) is Verdict.ODD
        assert discriminate(ShiftClass.SHIFT_0, mode) is Verdict.ODD

    def test_even_plus_odd_requires_theta_pi(self):
        with pytest.raises(ValueError):
            DiscriminationMode(ModeKind.EVEN_PLUS_ODD, theta=0.3)

    def test_theta_must_be_a_number(self):
        for kind in ModeKind:
            for theta in (True, False, "3.14", None):
                with pytest.raises(ValueError, match="theta"):
                    DiscriminationMode(kind, 0.0, theta)
        with pytest.raises(ValueError, match="theta"):
            DiscriminationMode.even_only(theta=True)

    def test_deterministic_without_epsilon(self):
        mode = DiscriminationMode.even_only()
        for _ in range(10):
            assert discriminate(ShiftClass.SHIFT_THETA, mode) is Verdict.EVEN

    def test_epsilon_needs_rng(self):
        mode = DiscriminationMode.even_only(epsilon=0.1)
        with pytest.raises(ValueError):
            discriminate(ShiftClass.SHIFT_THETA, mode)

    def test_epsilon_reproducible(self):
        mode = DiscriminationMode.even_only(epsilon=0.3)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            runs.append([discriminate(ShiftClass.SHIFT_THETA, mode, rng)
                         for _ in range(100)])
        assert runs[0] == runs[1]
        assert Verdict.ODD in runs[0]  # some flips at epsilon = 0.3

    def test_epsilon_bounds(self):
        # six-mode PBS holds epsilon = 0, but only an epsilon in [0, 0.5)
        for kind in ModeKind:
            for eps in (-0.1, 0.5, math.nan, False, True, "0.1"):
                with pytest.raises(ValueError, match="misclassification"):
                    DiscriminationMode(kind, eps)


class TestSixMode:
    def test_equal_strings_keep(self):
        assert six_mode_keep(("000", "000"))
        assert six_mode_keep(("011", "011"))

    def test_unequal_discard(self):
        assert not six_mode_keep(("000", "111"))
        assert not six_mode_keep(("000", "001"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            six_mode_keep(("00", "000"))

    def test_matches_all_even_parity(self):
        # Six-mode events coincide with the all-even QND verdict pattern.
        mode = DiscriminationMode.even_only()
        for x in range(8):
            for y in range(8):
                s1, s2 = format(x, "03b"), format(y, "03b")
                all_even = all(
                    discriminate(qnd_parity_shift((("H", "V")[int(a)],
                                                   ("H", "V")[int(b)])), mode)
                    is Verdict.EVEN for a, b in zip(s1, s2))
                assert six_mode_keep((s1, s2)) == all_even

    @given(eps=st.floats(0.0, 0.5, exclude_max=True))
    def test_any_epsilon_gives_the_one_six_mode(self, eps):
        # photon counting reads no homodyne verdict, so it misreads nothing
        assert DiscriminationMode(ModeKind.SIX_MODE_PBS, eps) == DiscriminationMode.six_mode_pbs()


class TestKeepWeights:
    """K(z), the readout model that the Monte Carlo reads: the chance that
    a pair whose true parity pattern is z is kept, at every n of a GHZ
    state that the Monte Carlo runs (at n = 1, even-plus-odd keeps every
    verdict, misread or not)."""

    @settings(max_examples=300)
    @given(n=st.integers(2, 6), kind=st.sampled_from(ModeKind),
           eps=st.floats(0.0, 0.5, exclude_max=True))
    def test_the_readout_model(self, n, kind, eps):
        mode = DiscriminationMode(kind, eps)
        keep = mode.keep_weights(n)
        z = np.arange(1 << n)
        full = (1 << n) - 1
        assert keep.shape == (1 << n,)
        assert ((0.0 <= keep) & (keep <= 1.0)).all()
        # epsilon = 0: only the all-even pattern, and the all-odd one under
        # even-plus-odd, is kept, and kept surely
        ideal = (z == 0) | ((z == full) & (kind is ModeKind.EVEN_PLUS_ODD))
        assert np.array_equal(DiscriminationMode(kind, 0.0).keep_weights(n), ideal)
        if kind is ModeKind.SIX_MODE_PBS:
            assert np.array_equal(keep, ideal)   # photon counting misreads nothing
        if kind is ModeKind.EVEN_PLUS_ODD:
            assert np.array_equal(keep, keep[::-1])   # K(z) = K(~z)
        # q(z), the chance that z reads all even, is a distribution over z
        q = DiscriminationMode(ModeKind.EVEN_ONLY, eps).keep_weights(n)
        assert abs(q.sum() - 1.0) <= 1e-12
        # the Monte Carlo draws verdicts at epsilon > 0, just where the
        # readout can misread
        noisy = bool(((0.0 < keep) & (keep < 1.0)).any())
        assert (mode.misclassification_probability > 0.0) == noisy == (
            eps > 0.0 and kind is not ModeKind.SIX_MODE_PBS)
