from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel, all_labels,
                           binary_weights, build_binary_ensemble,
                           build_bitflip_ensemble, build_werner,
                           canonical_label, complement, ensemble_fidelity,
                           ensemble_to_density, fwht, ghz_label_to_state,
                           hadamard_matrix, is_integer, is_real, nonnegative,
                           random_ghz_diagonal, target_label, werner_weights)
from ghzpurify.mc import mc_sample_step
from ghzpurify.optics import DiscriminationMode
from ghzpurify.purify import StepKind
from ghzpurify.schedule import Schedule, run_schedule
from ghz_helpers import ghz_basis_matrix, is_valid_density

S2 = 1.0 / np.sqrt(2.0)


def vec(n, terms):
    out = np.zeros(1 << n, dtype=complex)
    for bits, amp in terms.items():
        out[int(bits, 2)] = amp
    return out


class TestLabels:
    def test_rejects_noncanonical_rep(self):
        with pytest.raises(ValueError):
            GhzLabel("100", +1)

    def test_rejects_bad_sign(self):
        for sign in (0, True, False):
            with pytest.raises(ValueError, match="sign"):
                GhzLabel("000", sign)

    def test_canonicalization_flips_leading_one(self):
        assert canonical_label("100", +1) == GhzLabel("011", +1)
        assert canonical_label("011", -1) == GhzLabel("011", -1)

    def test_canonicalization_rejects_what_is_not_bits(self):
        # the bits are checked before any complement, so the error names them
        for bits in ("1x0", "1 1", "x10", "", 101, None):
            with pytest.raises(ValueError, match="bit string") as err:
                canonical_label(bits, +1)
            assert f"got {bits!r}" in str(err.value)

    def test_label_count(self):
        for n in (2, 3, 4, 5):
            labels = all_labels(n)
            assert len(labels) == 1 << n
            assert len(set(labels)) == 1 << n

    def test_label_list_is_a_fresh_copy(self):
        labels = all_labels(3)
        labels.clear()
        assert all_labels(3)[:2] == [GhzLabel("000", +1), GhzLabel("000", -1)]
        assert len(all_labels(3)) == 8

    def test_canonicalization_preserves_state_up_to_phase(self):
        # States built from j and ~j with the same sign agree up to phase.
        for n in (2, 3, 4):
            for j in range(1 << n):
                bits = format(j, f"0{n}b")
                for sign in (+1, -1):
                    label = canonical_label(bits, sign)
                    raw = vec(n, {bits: S2}) + sign * vec(n, {complement(bits): S2})
                    built = ghz_label_to_state(label, n)
                    overlap = abs(np.vdot(raw, built))
                    assert overlap == pytest.approx(1.0, abs=1e-12)


class TestStates:
    def test_target_state(self):
        got = ghz_label_to_state(GhzLabel("000", +1), 3)
        assert_allclose(got, vec(3, {"000": S2, "111": S2}), atol=1e-15)

    def test_bit_error_state(self):
        got = ghz_label_to_state(GhzLabel("011", +1), 3)
        assert_allclose(got, vec(3, {"011": S2, "100": S2}), atol=1e-15)

    def test_phase_error_state(self):
        got = ghz_label_to_state(GhzLabel("000", -1), 3)
        assert_allclose(got, vec(3, {"000": S2, "111": -S2}), atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ghz_label_to_state(GhzLabel("000", +1), 4)

    def test_basis_is_orthonormal_and_complete(self):
        for n in (2, 3, 4, 5):
            B = ghz_basis_matrix(n)
            assert_allclose(B.conj().T @ B, np.eye(1 << n), atol=1e-12)


class TestEnsembles:
    def test_binary_fidelity(self):
        ens = build_binary_ensemble(0.8, GhzLabel("011", +1), 3)
        assert ensemble_fidelity(ens) == pytest.approx(0.8, abs=1e-15)
        assert ens.weight(GhzLabel("011", +1)) == pytest.approx(0.2, abs=1e-15)

    def test_binary_pure_target(self):
        ens = build_binary_ensemble(1.0, GhzLabel("011", +1), 3)
        assert ensemble_fidelity(ens) == 1.0

    def test_binary_error_label_equal_to_the_target_raises(self):
        with pytest.raises(ValueError, match="is the target"):
            build_binary_ensemble(0.8, target_label(3), 3)

    def test_bitflip_ensemble_labels(self):
        ens = build_bitflip_ensemble([0.7, 0.1, 0.1, 0.1], 3)
        assert ens.weight(GhzLabel("000", +1)) == pytest.approx(0.7)
        # Flip on qubit 1 canonicalizes to rep 011.
        assert ens.weight(GhzLabel("011", +1)) == pytest.approx(0.1)
        assert ens.weight(GhzLabel("010", +1)) == pytest.approx(0.1)
        assert ens.weight(GhzLabel("001", +1)) == pytest.approx(0.1)

    def test_bitflip_pure_error(self):
        ens = build_bitflip_ensemble([0, 1, 0, 0], 3)
        assert ensemble_fidelity(ens) == 0.0
        assert ens.weight(GhzLabel("011", +1)) == 1.0

    def test_bitflip_negative_weight(self):
        with pytest.raises(ValueError):
            build_bitflip_ensemble([1.1, -0.1, 0, 0], 3)

    @pytest.mark.parametrize("bad", [True, False, "0.1", None])
    def test_bitflip_weight_that_is_not_a_number_raises(self, bad):
        with pytest.raises(ValueError, match="numbers"):
            build_bitflip_ensemble([1, bad, 0, 0], 3)

    def test_werner_fidelity_formula(self):
        for n in (2, 3, 4, 5):
            for x in (0.0, 0.3, 0.8, 1.0):
                ens = build_werner(x, n)
                assert ensemble_fidelity(ens) == pytest.approx(
                    x + (1 - x) / (1 << n), abs=1e-15)

    def test_werner_x0_uniform(self):
        ens = build_werner(0.0, 3)
        for label in all_labels(3):
            assert ens.weight(label) == pytest.approx(0.125, abs=1e-15)

    def test_werner_example_value(self):
        assert ensemble_fidelity(build_werner(0.8, 3)) == pytest.approx(0.825)

    def test_uniform_fidelity(self):
        ens = GhzDiagonalEnsemble(3, {lab: 0.125 for lab in all_labels(3)})
        assert ensemble_fidelity(ens) == pytest.approx(0.125)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            GhzDiagonalEnsemble(3, {target_label(3): 0.5})

    def test_builds_beyond_the_engine_bounds_that_reject_it(self):
        ens = GhzDiagonalEnsemble(7, {target_label(7): 1.0})
        assert ens.W.shape == (2, 64) and ensemble_fidelity(ens) == 1.0
        mode = DiscriminationMode.even_only()
        with pytest.raises(ValueError, match="bounded at 6 qubits"):
            run_schedule(ens, Schedule((StepKind.P1,), mode, stop_rounds=1))
        with pytest.raises(ValueError, match="bounded at 6 qubits"):
            mc_sample_step(ens, StepKind.P1, mode, 100, 0)


def werner_with(w11, excess=0.0):
    """Werner weights at x = 0.8, n = 3 with W[1, 1] set to w11 (the sum
    kept at 1), then excess added to W[0, 0]."""
    W = build_werner(0.8, 3).W.copy()
    W[0, 0] += W[1, 1] + excess
    W[1, 1] = w11
    return W


class TestConstructorChecks:
    @pytest.mark.parametrize("w11, excess", [
        (np.nan, 0.0), (-1e-9, 0.0), (0.0, 2e-9), (0.0, -2e-9),
    ], ids=["nan", "negative", "sum_high", "sum_low"])
    def test_rejects(self, w11, excess):
        with pytest.raises(ValueError):
            GhzDiagonalEnsemble(3, werner_with(w11, excess))

    def test_tiny_negative_weight_stored_as_positive_zero(self):
        ens = GhzDiagonalEnsemble(3, werner_with(-1e-11))
        assert ens.W[1, 1] == 0.0 and not np.signbit(ens.W[1, 1])
        assert repr(ens) == "GhzDiagonalEnsemble(n_qubits=3, 7 labels)"

    def test_weights_are_read_only(self):
        ens = build_werner(0.8, 3)
        with pytest.raises(ValueError):
            ens.W[0, 0] = 0.5

    @pytest.mark.parametrize("x", [0.8, 1.0], ids=["all_positive", "with_zeros"])
    def test_callers_array_stays_theirs(self, x):
        W = build_werner(x, 3).W.copy()
        ens = GhzDiagonalEnsemble(3, W)
        assert W.flags.writeable
        assert not np.shares_memory(ens.W, W)
        before = ens.W.copy()
        W[...] = 0.25
        np.testing.assert_array_equal(ens.W, before)

    @pytest.mark.parametrize("shape", [(0, 2, 4), (2, 4, 2), (1, 2, 2, 4), (8,), (2, 2, 4)])
    def test_rejects_a_shape_that_is_not_one_ensemble(self, shape):
        with pytest.raises(ValueError, match="shape"):
            GhzDiagonalEnsemble(3, np.full(shape, 1.0 / 8))

    @pytest.mark.parametrize("x", [0.8, 1.0], ids=["all_positive", "with_zeros"])
    def test_transposed_array_is_copied_in_its_memory_order(self, x):
        # Stored as the caller laid it out, so a sum over it adds in the
        # same order whether or not a weight needed clamping.
        W = build_werner(x, 3).W.T.copy().T
        ens = GhzDiagonalEnsemble(3, W)
        assert W.flags.writeable and not np.shares_memory(ens.W, W)
        assert ens.W.flags.f_contiguous and not ens.W.flags.c_contiguous
        np.testing.assert_array_equal(ens.W, W)


class TestStackedWeights:
    """The weight builders take an array of values and give one row per
    value, the stack that a sweep runs; the ensemble holds one row."""

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_rows_equal_single_builds(self, n):
        values = [0.0, 0.3, 0.55, 0.8, 1.0]
        error = canonical_label("1" + "0" * (n - 1), +1)
        for stacked, single in (
                (werner_weights(np.array(values), n), lambda v: build_werner(v, n)),
                (binary_weights(values, error, n),
                 lambda v: build_binary_ensemble(v, error, n))):
            assert stacked.shape == (len(values), 2, 1 << (n - 1))
            for row, v in zip(stacked, values):
                assert row.tobytes() == single(v).W.tobytes()

    # A bool or a string is not a number, though float() takes it.
    @pytest.mark.parametrize("build, message", [
        (lambda: werner_weights([0.5, 1.5, 0.7], 3), r"x must be in \[0, 1\], got 1.5"),
        (lambda: binary_weights([0.5, np.nan], GhzLabel("011", +1), 3),
         r"F must be in \[0, 1\], got nan"),
        (lambda: build_werner(True, 3), "x must be a number, got True"),
        (lambda: build_werner("0.5", 3), "x must be a number, got '0.5'"),
        (lambda: werner_weights(["0.5", True], 2), "x must be a number, got '0.5'"),
        (lambda: werner_weights([0.5, True], 2), "x must be a number, got True"),
        (lambda: binary_weights(True, canonical_label("100", 1), 3),
         "F must be a number, got True"),
    ], ids=["x-above-1", "F-nan", "x-bool", "x-string", "x-list-of-string-and-bool",
            "x-list-with-bool", "F-bool"])
    def test_builders_reject_a_bad_value_with_one_message(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_density_of_a_stack_is_the_stack_of_densities(self):
        rho = ensemble_to_density(werner_weights(np.array([0.2, 0.9]), 3))
        for row, x in zip(rho, (0.2, 0.9)):
            np.testing.assert_array_equal(row, ensemble_to_density(build_werner(x, 3)))


class TestDensity:
    def test_pure_target_projector(self):
        ens = GhzDiagonalEnsemble(3, {target_label(3): 1.0})
        rho = ensemble_to_density(ens)
        v = ghz_label_to_state(target_label(3), 3)
        assert_allclose(rho, np.outer(v, v.conj()), atol=1e-15)

    def test_werner_matrix_identity(self):
        x = 0.8
        rho = ensemble_to_density(build_werner(x, 3))
        v = ghz_label_to_state(target_label(3), 3)
        expected = x * np.outer(v, v.conj()) + (1 - x) * np.eye(8) / 8
        assert_allclose(rho, expected, atol=1e-12)

    def test_mixture_trace_one(self):
        rho = ensemble_to_density(build_binary_ensemble(0.8, GhzLabel("011", 1), 3))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert is_valid_density(rho)

    def test_diagonal_roundtrip(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            ens = random_ghz_diagonal(n, rng)
            rho = ensemble_to_density(ens)
            B = ghz_basis_matrix(n)
            diag = (B.conj().T @ rho @ B).diagonal().real
            for lab, w in zip(all_labels(n), diag):
                assert w == pytest.approx(ens.weight(lab), abs=1e-12)


class TestHadamard:
    def test_single_qubit(self):
        got = hadamard_matrix(1) @ np.array([1.0, 0.0], dtype=complex)
        assert_allclose(got, np.array([S2, S2]), atol=1e-15)

    def test_target_maps_to_even_weight_plus_state(self):
        got = hadamard_matrix(3) @ ghz_label_to_state(target_label(3), 3)
        expected = vec(3, {s: 0.5 for s in ("000", "011", "101", "110")})
        assert_allclose(got, expected, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        H = hadamard_matrix(4)
        assert_allclose(H @ (H @ v), v, atol=1e-12)

    def test_cached_matrix_is_read_only(self):
        H = hadamard_matrix(3)
        assert H.dtype == complex and H.shape == (8, 8)
        with pytest.raises(ValueError):
            H[0, 0] = 0.0
        assert_allclose(H @ H, np.eye(8), atol=1e-12)


class TestFwht:
    @pytest.mark.parametrize("k", range(11))
    def test_matches_the_sylvester_matrix(self, k):
        # (-1)^popcount(i & j), built bit by bit, not from the library's matrices
        ij = np.arange(1 << k)[:, None] & np.arange(1 << k)
        parity = np.zeros_like(ij)
        for bit in range(k):
            parity ^= ij >> bit & 1
        S = 1.0 - 2.0 * parity
        # each row of the identity picks out one column: exact +-1 entries
        assert np.array_equal(fwht(np.eye(1 << k)), S)
        a = np.random.default_rng(k).normal(size=(3, 2, 1 << k))
        assert_allclose(fwht(a), a @ S, rtol=1e-12, atol=1e-12 * (1 << k))

    @pytest.mark.parametrize("k", [0, 1, 5, 6, 11])
    def test_involution_up_to_scale_and_input_untouched(self, k):
        a = np.random.default_rng(k).normal(size=(3, 2, 1 << k))
        before = a.copy()
        out = fwht(a)
        assert np.array_equal(a, before)
        assert out is not a
        assert_allclose(fwht(out), (1 << k) * a, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (2, 6), (0,), ()])
    def test_rejects_a_length_that_is_not_a_power_of_two(self, shape):
        with pytest.raises(ValueError, match="power of two"):
            fwht(np.ones(shape))


class TestInputRules:
    def test_numbers_take_numpy_scalars_and_refuse_bools_and_strings(self):
        for x in (3, np.int8(3), np.uint64(3)):
            assert is_integer(x) and is_real(x)
        for x in (0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2), 2.0):
            assert is_real(x) and not is_integer(x)
        for x in (True, False, np.bool_(True), "1", b"1", None, 1j, [1], np.array(1)):
            assert not is_integer(x) and not is_real(x)

    @pytest.mark.parametrize("shape", [(2, 4), (3, 2, 4)])
    def test_nonnegative_keeps_clean_weights_and_clears_round_off(self, shape):
        W = np.full(shape, 0.125)
        assert nonnegative(W) is W
        W[..., 0, 1], W[..., 1, 2] = -0.0, -1e-11
        out = nonnegative(W)
        assert out is not W and not np.signbit(out).any() and (out[W > 0] == 0.125).all()
