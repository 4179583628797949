import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.exact import exact_step, ghz_diagonal_extract
from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel, all_labels,
                           build_binary_ensemble, build_bitflip_ensemble,
                           build_werner, ensemble_fidelity, ensemble_to_density,
                           fwht, random_ghz_diagonal, target_label)
from ghzpurify.optics import DiscriminationMode, ModeKind
from ghzpurify.purify import (StepKind, apply_step, correction_for_outcome,
                              p1_step, p2_step)

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()
SIX_MODE = DiscriminationMode.six_mode_pbs()


def bit_error(n):
    return build_binary_ensemble(0.8, GhzLabel("0" + "1" * (n - 1), +1), n)


def phase_error(F, n):
    return GhzDiagonalEnsemble(
        n, {GhzLabel("0" * n, +1): F, GhzLabel("0" * n, -1): 1.0 - F})


class TestP1:
    def test_fidelity_recurrence_example(self):
        rep = p1_step(bit_error(3), EVEN_ONLY)
        assert ensemble_fidelity(rep.output) == pytest.approx(16 / 17, abs=1e-12)
        assert rep.keep_probability == pytest.approx(0.34, abs=1e-12)

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

    def test_even_plus_odd_doubles_keep_exactly(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            ens = random_ghz_diagonal(n, rng)
            eo = p1_step(ens, EVEN_ONLY)
            epo = p1_step(ens, EVEN_PLUS_ODD)
            assert epo.keep_probability == pytest.approx(
                2 * eo.keep_probability, abs=1e-15)
            for lab in all_labels(n):
                assert epo.output.weight(lab) == pytest.approx(
                    eo.output.weight(lab), abs=1e-15)

    def test_six_mode_identical_to_even_only(self):
        rng = np.random.default_rng(2)
        ens = random_ghz_diagonal(3, rng)
        eo = p1_step(ens, EVEN_ONLY)
        six = p1_step(ens, SIX_MODE)
        assert six.keep_probability == eo.keep_probability
        assert six.output.weights == eo.output.weights

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

    def test_epsilon_rejected(self):
        with pytest.raises(ValueError):
            p1_step(bit_error(3), DiscriminationMode.even_only(epsilon=0.01))


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

    def test_even_plus_odd_doubles_for_even_n(self):
        rng = np.random.default_rng(3)
        for n in (2, 4):
            ens = random_ghz_diagonal(n, rng)
            eo = p2_step(ens, EVEN_ONLY)
            epo = p2_step(ens, EVEN_PLUS_ODD)
            assert epo.keep_probability == pytest.approx(
                2 * eo.keep_probability, abs=1e-15)
            for lab in all_labels(n):
                assert epo.output.weight(lab) == pytest.approx(
                    eo.output.weight(lab), abs=1e-14)

    def test_even_plus_odd_mixes_signs_for_odd_n(self):
        # For odd n the all-odd branch pairs opposite-sign groups, so it is
        # not a pure yield doubling; the binary phase ensemble comes out at
        # its input fidelity.
        rep = p2_step(phase_error(0.8, 3), EVEN_PLUS_ODD)
        assert rep.keep_probability == pytest.approx(0.25, abs=1e-12)
        assert ensemble_fidelity(rep.output) == pytest.approx(0.8, abs=1e-12)

    def test_mixed_bit_and_phase_errors_match_oracle(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            ens = random_ghz_diagonal(n, rng)
            fast = p2_step(ens, EVEN_ONLY)
            rho_out, keep = exact_step(ensemble_to_density(ens),
                                       StepKind.P2, EVEN_ONLY)
            oracle, _ = ghz_diagonal_extract(rho_out)
            assert fast.keep_probability == pytest.approx(keep, abs=1e-12)
            for lab in all_labels(n):
                assert fast.output.weight(lab) == pytest.approx(
                    oracle.weight(lab), abs=1e-9)


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


class TestStepReport:
    def test_output_normalized(self):
        rep = p1_step(bit_error(4), EVEN_ONLY)
        assert sum(rep.output.weights.values()) == pytest.approx(1.0, abs=1e-12)


class TestStepByName:
    """A step given by its name runs that step."""

    @pytest.mark.parametrize("step", ["P1", "P2"])
    def test_name_runs_the_named_step(self, step):
        by_name = apply_step(bit_error(3), step, EVEN_ONLY)
        by_kind = apply_step(bit_error(3), StepKind(step), EVEN_ONLY)
        assert by_name.keep_probability == by_kind.keep_probability
        assert np.array_equal(by_name.output.W, by_kind.output.W)

    def test_p1_by_name_keeps_p1s_share(self):
        # F^2 + (1 - F)^2 of the pairs, half of them on the even branch
        keep = apply_step(bit_error(3), "P1", EVEN_ONLY).keep_probability
        assert keep == pytest.approx(0.34, abs=1e-15)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            apply_step(bit_error(3), "P3", EVEN_ONLY)


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


def reference_step(ens, step, mode):
    """The step maps in their plain form: a stacked P1 buffer, the output
    normalised by a second sum, small negatives clamped to +0.0."""
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
    return np.where(out > 0.0, out, 0.0), keep


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

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
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


@st.composite
def stacks(draw):
    """1 to 5 rows at one n = 2..6, drawn as step_inputs draws one."""
    n = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1 << n, max_size=1 << n),
                         min_size=1, max_size=5))
    W = np.array(rows)
    W[:, 0] += 1e-3
    W /= W.sum(axis=1, keepdims=True)
    return GhzDiagonalEnsemble(n, W.reshape(len(W), -1, 2).transpose(0, 2, 1))


class TestStackedSteps:
    """A step on a stack gives each row the output and keep of the step on
    that row alone, bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(stacks())
    def test_rows_equal_single_steps(self, stack):
        n = stack.n_qubits
        for step in StepKind:
            for mode in (EVEN_ONLY, EVEN_PLUS_ODD, SIX_MODE):
                rep = apply_step(stack, step, mode)
                assert rep.keep_probability.shape == (len(stack.W),)
                for W, out, keep in zip(stack.W, rep.output.W, rep.keep_probability):
                    single = apply_step(GhzDiagonalEnsemble(n, W), step, mode)
                    assert out.tobytes() == single.output.W.tobytes()
                    assert keep == single.keep_probability

    def test_keep_floor_is_checked_per_row(self, monkeypatch):
        from ghzpurify import purify
        # P1 keeps half the sum over reps of (w+ + w-)^2: 0.5 for a pure
        # row, 0.125 for the uniform row at n = 3.
        stack = build_werner(np.array([1.0, 0.0]), 3)
        monkeypatch.setattr(purify, "MIN_KEEP", 0.2)
        with pytest.raises(ValueError, match="underflowed"):
            p1_step(stack, EVEN_ONLY)
        assert p1_step(GhzDiagonalEnsemble(3, stack.W[0]), EVEN_ONLY).keep_probability == 0.5
