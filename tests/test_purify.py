import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel,
                           build_binary_ensemble, build_bitflip_ensemble,
                           build_werner, ensemble_fidelity, fwht, target_label,
                           werner_weights)
from ghzpurify.optics import DiscriminationMode, ModeKind
from ghzpurify.purify import (StepKind, _finish, apply_step,
                              correction_for_outcome, p1_map, p1_step, p2_map,
                              p2_step, step_map)
from ghz_helpers import rational_step, rational_weights

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()
SIX_MODE = DiscriminationMode.six_mode_pbs()


def bit_error(n, F=0.8):
    return build_binary_ensemble(F, GhzLabel("0" + "1" * (n - 1), +1), n)


def phase_error(F, n):
    return GhzDiagonalEnsemble(
        n, {GhzLabel("0" * n, +1): F, GhzLabel("0" * n, -1): 1.0 - F})


class TestP1:
    def test_fidelity_recurrence_example(self):
        rep = p1_step(bit_error(3), EVEN_ONLY)
        assert ensemble_fidelity(rep.output) == pytest.approx(16 / 17, abs=1e-12)
        assert rep.keep_probability == pytest.approx(0.34, abs=1e-15)

    def test_pure_input(self):
        ens = GhzDiagonalEnsemble(3, {target_label(3): 1.0})
        assert p1_step(ens, EVEN_ONLY).keep_probability == pytest.approx(0.5)
        assert p1_step(ens, EVEN_PLUS_ODD).keep_probability == pytest.approx(1.0)
        assert ensemble_fidelity(p1_step(ens, EVEN_ONLY).output) == 1.0

    def test_multiflip_input(self):
        rep = p1_step(build_bitflip_ensemble([0.7, 0.1, 0.1, 0.1], 3),
                      EVEN_PLUS_ODD)
        total = 0.49 + 3 * 0.01
        assert ensemble_fidelity(rep.output) == pytest.approx(0.49 / total, abs=1e-12)
        assert ensemble_fidelity(rep.output) == pytest.approx(49 / 52, abs=1e-12)
        assert rep.keep_probability == pytest.approx(total, abs=1e-12)

    def test_branch_weights(self):
        F = 0.8
        rep = p1_step(bit_error(3), EVEN_ONLY)
        keep = rep.keep_probability
        target_mass = keep * ensemble_fidelity(rep.output)
        error_mass = keep - target_mass
        assert target_mass == pytest.approx(F ** 2 / 2, abs=1e-12)
        assert error_mass == pytest.approx((1 - F) ** 2 / 2, abs=1e-12)

    def test_sign_product_rule(self):
        # Mixed-sign input: output sign weights follow s_out = s1*s2.
        ens = GhzDiagonalEnsemble(3, {GhzLabel("000", +1): 0.6,
                                      GhzLabel("000", -1): 0.4})
        rep = p1_step(ens, EVEN_ONLY)
        assert rep.output.weight(GhzLabel("000", +1)) == pytest.approx(
            (0.36 + 0.16) / (0.36 + 0.16 + 0.48), abs=1e-12)
        assert rep.output.weight(GhzLabel("000", -1)) == pytest.approx(
            0.48 / (0.36 + 0.16 + 0.48), abs=1e-12)

    def test_iteration_converges_monotonically(self):
        ens = bit_error(3)
        fid = ensemble_fidelity(ens)
        for _ in range(8):
            ens = p1_step(ens, EVEN_ONLY).output
            new_fid = ensemble_fidelity(ens)
            # Strictly increasing until floating point saturates at 1.
            assert new_fid > fid or new_fid == 1.0
            fid = new_fid
        assert fid > 1 - 1e-9

    def test_closed_form_recurrence(self):
        for F in (0.55, 0.7, 0.9):
            for n in (2, 3, 4):
                ens = build_binary_ensemble(F, GhzLabel("0" + "1" * (n - 1), 1), n)
                out = p1_step(ens, EVEN_ONLY).output
                assert ensemble_fidelity(out) == pytest.approx(
                    F ** 2 / (F ** 2 + (1 - F) ** 2), abs=1e-12)


class TestP2:
    def test_phase_error_fidelity_map(self):
        rep = p2_step(phase_error(0.8, 3), EVEN_ONLY)
        assert ensemble_fidelity(rep.output) == pytest.approx(16 / 17, abs=1e-12)
        # Parity survival in the Hadamard frame is 2^-(n-1) per same-sign
        # pair, i.e. 0.17 here, not the 0.34 of the bit-flip step.
        assert rep.keep_probability == pytest.approx(
            0.25 * (0.64 + 0.04), abs=1e-12)

    def test_pure_input_unchanged(self):
        ens = GhzDiagonalEnsemble(3, {target_label(3): 1.0})
        rep = p2_step(ens, EVEN_ONLY)
        assert ensemble_fidelity(rep.output) == 1.0
        assert rep.keep_probability == pytest.approx(0.25, abs=1e-15)

    def test_bit_pattern_cancels_between_copies(self):
        # A pure bit-error state maps to the all-zero rep with its sign.
        ens = GhzDiagonalEnsemble(3, {GhzLabel("011", -1): 1.0})
        rep = p2_step(ens, EVEN_ONLY)
        assert rep.output.weight(GhzLabel("000", -1)) == pytest.approx(1.0)

    def test_even_plus_odd_mixes_signs_for_odd_n(self):
        # For odd n the all-odd branch pairs opposite-sign groups, so it is
        # not a pure yield doubling; the binary phase ensemble comes out at
        # its input fidelity.
        rep = p2_step(phase_error(0.8, 3), EVEN_PLUS_ODD)
        assert rep.keep_probability == pytest.approx(0.25, abs=1e-12)
        assert ensemble_fidelity(rep.output) == pytest.approx(0.8, abs=1e-12)


class TestCorrections:
    def test_p1_even_outcome_identity(self):
        assert correction_for_outcome(StepKind.P1, "000") == ()
        assert correction_for_outcome(StepKind.P1, "011") == ()

    def test_p1_odd_outcome_flips_first(self):
        assert correction_for_outcome(StepKind.P1, "001") == (0,)
        assert correction_for_outcome(StepKind.P1, "111") == (0,)

    def test_p2_pattern_matches_outcome(self):
        assert correction_for_outcome(StepKind.P2, "000") == ()
        assert correction_for_outcome(StepKind.P2, "011") == (1, 2)
        assert correction_for_outcome(StepKind.P2, "10110") == (0, 2, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            correction_for_outcome(StepKind.P1, "0a1")


class TestModeByName:
    """A discrimination mode given by its name runs that mode."""

    def test_name_equals_member_and_keeps_both_branches(self):
        by_name = DiscriminationMode("even-plus-odd")
        assert by_name == EVEN_PLUS_ODD
        werner = build_werner(0.8, 3)
        keep = p1_step(werner, by_name).keep_probability
        assert keep == p1_step(werner, EVEN_PLUS_ODD).keep_probability
        assert keep == pytest.approx(0.73, abs=1e-12)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            DiscriminationMode("even-and-odd")


SCHEDULES = pytest.mark.parametrize("schedule", [(StepKind.P1, StepKind.P2),
                                                 (StepKind.P2, StepKind.P1)],
                                     ids=["P1P2", "P2P1"])
STEP_MODES = pytest.mark.parametrize("mode", [EVEN_ONLY, EVEN_PLUS_ODD], ids=["even", "both"])
INPUTS = pytest.mark.parametrize("build", [lambda n: build_werner(0.5, n),
                                           lambda n: bit_error(n, 0.6)],
                                 ids=["werner", "binary"])


class TestAgainstRationalArithmetic:
    """step_map against the label-pair rules in exact arithmetic, both run
    from the exact value of the same float input: after k rounds every
    weight and the keep lie within C k 2^-52 of the exact value, and every
    label whose exact weight exceeds 1e-14 is carried.  The error per round
    grows with N, so C does too: the largest seen up to N = 5 is 3.5 k 2^-52
    (the keep at round 3 of Werner N = 5, P1,P2 even-plus-odd), 9.3 k 2^-52
    at N = 6 (the same keep) and 4.3 k 2^-52 at N = 7 (the keep at round 6
    of Werner, P2,P1 even-plus-odd)."""

    @staticmethod
    def six_rounds_within(c, build, n, mode, schedule):
        ens = build(n)
        W, exact = ens.W, rational_weights(ens)
        for k, step in enumerate(itertools.islice(itertools.cycle(schedule), 6), 1):
            W, keep = step_map(W, step, mode)
            exact, exact_keep = rational_step(exact, n, step, mode)
            bound = Fraction(c * k * 2.0 ** -52)
            assert abs(Fraction(keep) - exact_keep) <= bound, (k, "keep")
            for (s, e), w in np.ndenumerate(W):
                label = (e, 1 - 2 * s)
                want = exact.get(label, 0)
                assert abs(Fraction(w) - want) <= bound, (k, label)
                # A label above the round-off is carried.
                assert w > 0.0 or want <= 1e-14, (k, label)

    @SCHEDULES
    @STEP_MODES
    @pytest.mark.parametrize("n", [3, 4, 5])
    @INPUTS
    def test_six_rounds_within_c_k_ulps(self, build, n, mode, schedule):
        self.six_rounds_within(8, build, n, mode, schedule)

    @SCHEDULES
    @STEP_MODES
    @pytest.mark.parametrize("n", [6, 7])
    @INPUTS
    def test_six_rounds_within_c_k_ulps_beyond_n_5(self, build, n, mode, schedule):
        self.six_rounds_within(16, build, n, mode, schedule)


def reference_step(ens, step, mode):
    """The step maps in their plain form: a stacked P1 buffer, the output
    normalised by a second sum, small negatives clamped to +0.0, the keep
    capped at 1."""
    n = ens.n_qubits
    both = mode.kind is ModeKind.EVEN_PLUS_ODD
    if step is StepKind.P1:
        wp, wm = ens.W
        raw = np.stack((wp * wp + wm * wm, 2.0 * wp * wm))
        keep = 0.5 * (2 if both else 1) * float(raw.sum())
    else:
        F = fwht(ens.W)
        P = F * F
        if both and n % 2 == 1:
            P += F[0] * F[1]
        raw = fwht(P)
        branches = 2 if both and n % 2 == 0 else 1
        keep = branches * 2.0 ** -(2 * (n - 1)) * float(raw.sum())
    out = raw / raw.sum()
    return np.where(out > 0.0, out, 0.0), min(keep, 1.0)


@st.composite
def step_inputs(draw):
    """Ensembles at n = 2..6 with some labels at zero or at subnormal
    weights, stored C-ordered or as the transposed view that
    random_ghz_diagonal passes to the constructor."""
    n = draw(st.integers(2, 6))
    size = 1 << n
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    w[0] += 1e-3
    tiny = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    tiny[0] = False
    w[tiny] *= 1e-310
    w /= w.sum()
    transposed = draw(st.booleans())
    return GhzDiagonalEnsemble(n, w.reshape(-1, 2).T if transposed else w.reshape(2, -1))


class TestBitIdentity:
    """The in-place kernels give the reference maps' output and keep bit
    for bit, whatever the memory order of the input."""

    @settings(max_examples=300)
    @given(step_inputs())
    def test_steps_match_the_reference_bit_for_bit(self, ens):
        for step in StepKind:
            for mode in (EVEN_ONLY, EVEN_PLUS_ODD, SIX_MODE):
                rep = apply_step(ens, step, mode)
                want, keep = reference_step(ens, step, mode)
                assert rep.output.W.tobytes() == want.tobytes()
                assert rep.keep_probability == keep
                # C order, so the next step sums in the reference's order
                assert rep.output.W.flags.c_contiguous


class TestStackedSteps:
    """step_map on a stack runs the ensemble checks on each row, as a
    single-row step does."""

    def test_keep_floor_is_checked_per_row(self, monkeypatch):
        from ghzpurify import purify
        # P1 keeps half the sum over reps of (w+ + w-)^2: 0.5 for a pure
        # row, 0.125 for the uniform row at n = 3.
        stack = werner_weights(np.array([1.0, 0.0]), 3)
        monkeypatch.setattr(purify, "MIN_KEEP", 0.2)
        with pytest.raises(ValueError, match="underflowed"):
            step_map(stack, StepKind.P1, EVEN_ONLY)
        assert p1_step(GhzDiagonalEnsemble(3, stack[0]), EVEN_ONLY).keep_probability == 0.5


class TestArrayMaps:
    """The array maps that the schedule loop steps: their output is the
    weights of the checked ensemble that the step functions return, and
    they raise where the ensemble's check would."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("mode", [EVEN_ONLY, EVEN_PLUS_ODD])
    def test_p2_round_off_leaves_positive_zeros(self, n, mode):
        # The binary input whose P2 transforms leave round-off where exact
        # arithmetic gives 0, stepped through a few rounds of P2, P1.
        W = build_binary_ensemble(0.6, GhzLabel("0" + "1" * (n - 1), +1), n).W
        for _ in range(4):
            out, keep = p2_map(W, mode)
            rep = apply_step(GhzDiagonalEnsemble(n, W), StepKind.P2, mode)
            assert not np.signbit(out).any()
            assert out.tobytes() == rep.output.W.tobytes()
            assert keep == rep.keep_probability
            W, _ = p1_map(out, mode)

    def test_the_round_off_case_has_negative_round_off(self):
        # so the test above sees the clamp at work
        n = 6
        W = build_binary_ensemble(0.6, GhzLabel("0" + "1" * (n - 1), +1), n).W
        F = fwht(W)
        assert np.signbit(fwht(F * F)).any()

    def test_finish_clamps_negative_zero_and_round_off(self):
        raw = np.array([[0.5, -0.0], [-1e-17, 0.5]])
        total = float(raw.sum())
        want = GhzDiagonalEnsemble(2, raw / total).W
        out, keep = _finish(raw, 2.0)
        assert keep == min(2.0 * total, 1.0)   # a keep is capped at 1
        assert np.signbit(raw).sum() == 2 and not np.signbit(out).any()
        assert out.tobytes() == want.tobytes()

    def test_finish_rejects_a_negative_weight(self):
        with pytest.raises(ValueError, match=">= -1e-10"):
            _finish(np.array([[0.6, -1e-3], [0.2, 0.2]]), 1.0)

    @pytest.mark.parametrize("step", list(StepKind))
    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_row_holding_nan_raises(self, step, stacked):
        W = werner_weights(np.array([0.8, 0.6]), 3)
        W[-1, 1, 2] = np.nan
        with pytest.raises(ValueError, match="keep probability"):
            step_map(W if stacked else W[-1], step, EVEN_ONLY)
