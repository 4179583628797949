import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghzpurify import exact
from ghzpurify.exact import (bruteforce_step, copy2_outcome_blocks,
                             fidelity_to_target, ghz_diagonal_extract,
                             measure_copy2_and_correct, p1_exact, p2_exact,
                             project_parity, tensor_pair)
from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel, all_labels,
                           build_binary_ensemble, build_werner, ensemble_to_density,
                           ghz_label_to_state, hadamard_matrix, random_density,
                           random_ghz_diagonal, target_label)
from ghzpurify.optics import DiscriminationMode
from ghzpurify.purify import StepKind, correction_for_outcome
from ghz_helpers import ghz_basis_matrix, reference_extract

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()

S2 = 1.0 / np.sqrt(2.0)


def vec(n, terms):
    out = np.zeros(1 << n, dtype=complex)
    for bits, amp in terms.items():
        out[int(bits, 2)] = amp
    return out


def projector(v):
    return np.outer(v, v.conj())


def phi_plus(n=3):
    return ghz_label_to_state(target_label(n), n)


def phi_one(n=3):
    return ghz_label_to_state(GhzLabel("0" + "1" * (n - 1), +1), n)


class TestTensorPair:
    def test_pure_pair(self):
        pair = tensor_pair(projector(phi_plus()))
        assert_allclose(pair, projector(np.kron(phi_plus(), phi_plus())),
                        atol=1e-15)

    def test_trace_one(self):
        rho = ensemble_to_density(build_binary_ensemble(0.8, GhzLabel("011", 1), 3))
        assert np.trace(tensor_pair(rho)).real == pytest.approx(1.0, abs=1e-12)

    def test_mixture_weights(self):
        F = 0.8
        rho = ensemble_to_density(build_binary_ensemble(F, GhzLabel("011", 1), 3))
        pair = tensor_pair(rho)
        p00 = np.kron(phi_plus(), phi_plus())
        p11 = np.kron(phi_one(), phi_one())
        assert (p00.conj() @ pair @ p00).real == pytest.approx(F ** 2, abs=1e-12)
        assert (p11.conj() @ pair @ p11).real == pytest.approx((1 - F) ** 2,
                                                              abs=1e-12)

    def test_size_bound(self):
        with pytest.raises(ValueError):
            tensor_pair(np.eye(64) / 64)


class TestProjectParity:
    def test_cross_combination_rejected(self):
        pair = np.kron(projector(phi_plus()), projector(phi_one()))
        _, p_even = project_parity(pair, "even")
        _, p_odd = project_parity(pair, "odd")
        assert p_even == pytest.approx(0.0, abs=1e-12)
        assert p_odd == pytest.approx(0.0, abs=1e-12)

    def test_odd_recovery_equals_even_state(self):
        pair = tensor_pair(projector(phi_plus()))
        even, p_even = project_parity(pair, "even")
        odd, p_odd = project_parity(pair, "odd")
        assert_allclose(odd / p_odd, even / p_even, atol=1e-12)

    def test_even_plus_odd_probabilities_sum(self):
        rng = np.random.default_rng(8)
        for n in (2, 3):
            pair = tensor_pair(ensemble_to_density(random_ghz_diagonal(n, rng)))
            _, p_even = project_parity(pair, "even")
            _, p_odd = project_parity(pair, "odd")
            assert 0.0 <= p_even + p_odd <= 1.0 + 1e-12


class TestMeasureAndCorrect:
    def test_even_kept_state_yields_target(self):
        kept = projector(vec(6, {"000000": S2, "111111": S2}))
        out = measure_copy2_and_correct(kept, StepKind.P1)
        assert_allclose(out, projector(phi_plus()), atol=1e-12)

    def test_error_kept_state_yields_error_ghz(self):
        kept = projector(vec(6, {"100100": S2, "011011": S2}))
        out = measure_copy2_and_correct(kept, StepKind.P1)
        assert_allclose(out, projector(phi_one()), atol=1e-12)

    def test_trace_preserved(self):
        kept = projector(vec(6, {"000000": S2, "111111": S2}))
        out = measure_copy2_and_correct(kept, StepKind.P1)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


class TestKernelsAgainstTextbookOperators:
    """Each two-copy kernel against its operator written out as a matrix,
    on a random complex density matrix that is not GHZ-diagonal."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_copy2_outcome_blocks(self, n):
        rng = np.random.default_rng(20 + n)
        dim = 1 << n
        rho_pair = random_density(2 * n, rng)
        H = hadamard_matrix(n)
        blocks = copy2_outcome_blocks(rho_pair)
        for m in range(dim):
            K = np.kron(np.eye(dim), H[m:m + 1, :])
            assert_allclose(blocks[:, m, :], K @ rho_pair @ K.conj().T, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_copy2_flip(self, n):
        rng = np.random.default_rng(30 + n)
        dim = 1 << n
        rho_pair = random_density(2 * n, rng)
        P = np.kron(np.eye(dim), np.eye(dim)[::-1])
        assert_allclose(exact._flip_copy2(rho_pair, n), P @ rho_pair @ P,
                        atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("step", [StepKind.P1, StepKind.P2])
    def test_measurement_is_kraus_sum(self, n, step):
        rng = np.random.default_rng(40 + n)
        dim = 1 << n
        rho_pair = random_density(2 * n, rng)
        H = hadamard_matrix(n)
        total = np.zeros((dim, dim), dtype=complex)
        for m in range(dim):
            flips = correction_for_outcome(step, format(m, f"0{n}b"))
            D = np.array([(-1.0) ** sum((x >> (n - 1 - q)) & 1 for q in flips)
                          for x in range(dim)])
            K = np.kron(np.diag(D), H[m:m + 1, :])
            total += K @ rho_pair @ K.conj().T
        assert_allclose(measure_copy2_and_correct(rho_pair, step),
                        total / np.trace(total).real, atol=1e-12)


class TestSchurAgainstBruteForce:
    """The Schur-product steps against the brute-force oracle on rho (x) rho,
    on random complex density matrices that are not GHZ-diagonal."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("step", [StepKind.P1, StepKind.P2])
    @pytest.mark.parametrize("mode", [EVEN_ONLY, EVEN_PLUS_ODD],
                             ids=["even-only", "even-plus-odd"])
    def test_step_matches_bruteforce(self, n, step, mode):
        rho = random_density(n, np.random.default_rng(50 + n))
        out, keep = exact.exact_step(rho, step, mode)
        want, want_keep = bruteforce_step(rho, step, mode)
        assert_allclose(out, want, rtol=0, atol=1e-12)
        assert keep == pytest.approx(want_keep, abs=1e-12)


class TestIdealReadout:
    """The brute-force oracle models error-free parity readout, as the
    engines do, so a misclassification probability is an error, not
    ignored.  Six-mode PBS runs at any epsilon as at epsilon = 0."""

    @pytest.mark.parametrize("step", [StepKind.P1, StepKind.P2])
    def test_epsilon_is_rejected(self, step):
        rho = ensemble_to_density(build_werner(0.8, 3))
        with pytest.raises(ValueError, match="epsilon"):
            bruteforce_step(rho, step, DiscriminationMode.even_only(0.2))
        six, six_keep = bruteforce_step(rho, step, DiscriminationMode("six-mode-pbs", 0.2))
        want, want_keep = bruteforce_step(rho, step, DiscriminationMode.six_mode_pbs())
        assert six_keep == want_keep
        assert np.array_equal(six, want)


class TestStepByName:
    @pytest.mark.parametrize("step", ["P1", "P2"])
    def test_name_runs_the_named_step(self, step):
        rho = ensemble_to_density(build_binary_ensemble(0.8, GhzLabel("011", 1), 3))
        out, keep = bruteforce_step(rho, step, EVEN_ONLY)
        want, want_keep = bruteforce_step(rho, StepKind(step), EVEN_ONLY)
        assert keep == want_keep
        assert np.array_equal(out, want)

    def test_unknown_name_raises(self):
        rho = ensemble_to_density(build_werner(0.8, 3))
        with pytest.raises(ValueError):
            bruteforce_step(rho, "P3", EVEN_ONLY)


class TestP1Exact:
    def test_binary_example(self):
        rho = ensemble_to_density(build_binary_ensemble(0.8, GhzLabel("011", 1), 3))
        out, keep = p1_exact(rho, EVEN_ONLY)
        assert fidelity_to_target(out) == pytest.approx(16 / 17, abs=1e-12)
        assert keep == pytest.approx(0.34, abs=1e-15)
        _, keep_epo = p1_exact(rho, EVEN_PLUS_ODD)
        assert keep_epo == pytest.approx(0.68, abs=1e-12)

    def test_four_qubit_formula(self):
        F = 0.75
        rho = ensemble_to_density(build_binary_ensemble(F, GhzLabel("0111", 1), 4))
        out, _ = p1_exact(rho, EVEN_ONLY)
        assert fidelity_to_target(out) == pytest.approx(0.9, abs=1e-12)


class TestP2Exact:
    def test_phase_binary_example(self):
        rho = ensemble_to_density(GhzDiagonalEnsemble(
            3, {GhzLabel("000", +1): 0.8, GhzLabel("000", -1): 0.2}))
        out, keep = p2_exact(rho, EVEN_ONLY)
        assert fidelity_to_target(out) == pytest.approx(16 / 17, abs=1e-12)
        assert keep == pytest.approx(0.17, abs=1e-12)

    def test_pure_target_fixed_point(self):
        out, keep = p2_exact(projector(phi_plus()), EVEN_ONLY)
        assert_allclose(out, projector(phi_plus()), atol=1e-12)
        assert keep == pytest.approx(0.25, abs=1e-12)
        # the corner entries sum past 2 by round-off; the fidelity is capped
        # at 1, and a NaN still reads NaN
        assert fidelity_to_target(out) == 1.0
        assert np.isnan(fidelity_to_target(np.full_like(out, np.nan)))


class TestDiagonalExtract:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        ens = random_ghz_diagonal(3, rng)
        got, residual = ghz_diagonal_extract(ensemble_to_density(ens))
        assert residual < 1e-12
        for lab in all_labels(3):
            assert got.weight(lab) == pytest.approx(ens.weight(lab), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_basis_change(self, n):
        rho = random_density(n, np.random.default_rng(70 + n))
        B = ghz_basis_matrix(n)
        in_basis = B.conj().T @ rho @ B
        diag = in_basis.diagonal().real
        got, residual = ghz_diagonal_extract(rho)
        assert residual == pytest.approx(np.linalg.norm(in_basis - np.diag(diag)),
                                         rel=1e-12)
        assert_allclose(got.W, (diag / diag.sum()).reshape(-1, 2).T, rtol=0,
                        atol=1e-12)

    def test_a_negative_weight_raises_as_in_the_constructor(self):
        # w(000, -) = 0.5 - 0.9 = -0.4: not a state, so it reads as no ensemble;
        # nor does -I/8, whose weights are all negative
        rho = np.zeros((8, 8))
        rho[0, 0] = rho[7, 7] = 0.5
        rho[0, 7] = rho[7, 0] = 0.9
        for r in (rho, -np.eye(8) / 8):
            with pytest.raises(ValueError, match="weights must be >= -1e-10"):
                ghz_diagonal_extract(r)

    # The zero operator, and w(000, +) = w(000, -) = 1/4 against
    # w(001, +) = w(001, -) = -1/4: weights that sum to 0 raise by the same
    # rule, with no 0/0 RuntimeWarning.
    @pytest.mark.parametrize("rho", [np.zeros((8, 8)),
                                     np.diag([1.0, -1.0, 0, 0, 0, 0, -1.0, 1.0]) / 4],
                             ids=["zero", "mixed_signs"])
    def test_a_zero_weight_total_raises_as_in_the_constructor(self, rho):
        with pytest.raises(ValueError, match="weights must be >= -1e-10"):
            ghz_diagonal_extract(rho)

    def test_small_residual_is_resolved(self):
        # A 1e-11 perturbation of a GHZ-diagonal state: the residual is read
        # from the entries, so it is not lost in the rounding of ||rho||^2.
        rng = np.random.default_rng(80)
        rho = (ensemble_to_density(random_ghz_diagonal(3, rng))
               + 1e-11 * random_density(3, rng))
        B = ghz_basis_matrix(3)
        in_basis = B.conj().T @ rho @ B
        want = np.linalg.norm(in_basis - np.diag(in_basis.diagonal().real))
        _, residual = ghz_diagonal_extract(rho)
        assert residual == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_residual_matches_the_dense_difference_bit_for_bit(self, n):
        def dense_residual(rho):
            # ‖rho − rho_GHZ‖ with rho_GHZ formed as a dense matrix
            x = np.arange(len(rho))
            diag, anti = rho[x, x], rho[x, x[::-1]]
            ghz_part = np.zeros_like(rho)
            ghz_part[x, x] = ((diag + diag[::-1]) / 2.0).real
            ghz_part[x, x[::-1]] = ((anti + anti[::-1]) / 2.0).real
            return float(np.linalg.norm(rho - ghz_part))

        rng = np.random.default_rng(90 + n)
        for case in range(50):
            diagonal = ensemble_to_density(random_ghz_diagonal(n, rng))
            rho = (random_density(n, rng) if case % 3 == 0 else
                   diagonal + 1e-11 * random_density(n, rng) if case % 3 == 1
                   else diagonal)
            for r in (rho, rho.T):
                before = r.copy()
                _, residual = ghz_diagonal_extract(r)
                assert residual == dense_residual(r)
                assert np.array_equal(r, before)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_the_reference_extract_bit_for_bit(self, n):
        # GHZ-diagonal, 1e-11-perturbed and random inputs, read in C order,
        # in F order and through negative strides.
        rng = np.random.default_rng(100 + n)
        for case in range(30):
            diagonal = ensemble_to_density(random_ghz_diagonal(n, rng))
            rho = (random_density(n, rng) if case % 3 == 0 else
                   diagonal + 1e-11 * random_density(n, rng) if case % 3 == 1
                   else diagonal)
            for r in (rho, rho.T, rho[::-1, ::-1]):
                before = r.copy()
                got, residual = ghz_diagonal_extract(r)
                want, want_residual = reference_extract(r)
                assert np.array_equal(r, before)
                assert got.W.tobytes() == want.W.tobytes()
                assert np.float64(residual).tobytes() == np.float64(want_residual).tobytes()

    def test_nondiagonal_has_residual(self):
        plus = vec(2, {"00": 1.0})
        rho = projector((plus + vec(2, {"01": 1.0})) / np.sqrt(2))
        _, residual = ghz_diagonal_extract(rho)
        assert residual > 1e-3


class TestStackedDenseSteps:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", [EVEN_ONLY, EVEN_PLUS_ODD], ids=["even", "both"])
    def test_rows_equal_single_steps(self, n, mode):
        rng = np.random.default_rng(n)
        rho = np.stack([random_density(n, rng) for _ in range(3)])
        for step in StepKind:
            out, keep = exact.exact_step(rho, step, mode)
            assert keep.shape == (3,)
            for r, o, k in zip(rho, out, keep):
                o1, k1 = exact.exact_step(r, step, mode)
                assert_allclose(o, o1, rtol=0, atol=1e-15)
                assert k == pytest.approx(k1, rel=1e-14)
        fid = fidelity_to_target(rho)
        assert list(fid) == [fidelity_to_target(r) for r in rho]

    def test_only_the_dense_steps_take_a_stack(self):
        rho = np.stack([phi_plus(), phi_plus()])
        with pytest.raises(ValueError, match="power-of-two"):
            ghz_diagonal_extract(rho)
        with pytest.raises(ValueError, match="power-of-two"):
            tensor_pair(rho)
