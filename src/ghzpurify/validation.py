"""Self-validation suite, six checks in the order `validate` prints them:
the Hadamard grouping table, intermediate state reproduction, the
measurement sign patterns, fast-vs-dense equivalence, dense-vs-brute-force
equivalence (which also checks the outcome correction table, since only the
brute-force oracle reads it) and probability bookkeeping.

Used by both the `validate` CLI command and the test suite; the engines'
own invariants are checked by the conformance suite in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .ghz import (MAX_QUBITS_EXACT, GhzLabel, all_labels, ensemble_to_density,
                  ghz_label_to_state, hadamard_matrix, random_density,
                  random_ghz_diagonal)
from .optics import DiscriminationMode
from .purify import StepKind, step_map


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str = ""


def _worst(worst: float, *values: float) -> float:
    """The largest of the deviations, or NaN once any is NaN.  Built-in max
    keeps its first argument against a NaN, so a deviation that could not be
    computed would pass its check."""
    for v in values:
        if v > worst or v != v:
            worst = v
    return worst


def _vec(n: int, terms: dict[str, float]) -> np.ndarray:
    out = np.zeros(1 << n, dtype=complex)
    for bits, amp in terms.items():
        out[int(bits, 2)] = amp
    return out


def _pure_deviation(op: np.ndarray, v: np.ndarray) -> float:
    """Entrywise deviation of op, normalised to trace one, from |v><v|."""
    return float(np.abs(op / op.trace() - np.outer(v, v.conj())).max())


# The eight rotated three-qubit GHZ states: H^(x)3 of (|e> + s|~e>)/sqrt(2)
# is supported on the strings of weight parity s with phases (-1)^(x.e).
def rotated_ghz_expansion(label: GhzLabel, n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    e = int(label.rep, 2)
    want_odd = label.sign == -1
    for x in range(1 << n):
        if bin(x).count("1") % 2 == want_odd:
            amps[x] = (-1) ** bin(x & e).count("1")
    return amps / np.sqrt(2.0 ** (n - 1))


def check_h_grouping(n_max: int = 5) -> CheckResult:
    """Rotated plus-sign states live on even-weight strings, minus-sign on odd."""
    worst = 0.0
    for n in range(2, n_max + 1):
        for label in all_labels(n):
            got = hadamard_matrix(n) @ ghz_label_to_state(label, n)
            worst = _worst(worst, float(np.abs(got - rotated_ghz_expansion(label, n)).max()))
    return CheckResult("h_grouping", worst < 1e-12, worst)


def check_state_reproduction() -> CheckResult:
    """Kept two-copy states of the pure-input branches, entry by entry."""
    s2 = 1.0 / np.sqrt(2.0)
    phi = ghz_label_to_state(GhzLabel("000", +1), 3)
    phi1 = ghz_label_to_state(GhzLabel("011", +1), 3)   # error on qubit 1
    phi3 = ghz_label_to_state(GhzLabel("001", +1), 3)   # error on qubit 3

    def kept(vec, branch, recover=True):
        pair = np.outer(vec, vec.conj())
        return exact.project_parity(exact.tensor_pair(pair), branch, recover)

    worst = 0.0
    cases = [
        (phi, "even", True, _vec(6, {"000000": s2, "111111": s2}), 0.5),
        (phi1, "even", True, _vec(6, {"100100": s2, "011011": s2}), 0.5),
        (phi, "odd", False, _vec(6, {"000111": s2, "111000": s2}), 0.5),
        (phi3, "odd", False, _vec(6, {"001110": s2, "110001": s2}), 0.5),
    ]
    for vec, branch, recover, expected, p_want in cases:
        got, p = kept(vec, branch, recover)
        worst = _worst(worst, _pure_deviation(got, expected), abs(p - p_want))

    # Phase-flip step: Hadamard-frame even-parity survivors of the binary
    # phase ensemble's pure branches.
    psi_p = hadamard_matrix(3) @ phi
    psi_m = hadamard_matrix(3) @ ghz_label_to_state(GhzLabel("000", -1), 3)
    expect_p = _vec(6, {s: 0.5 for s in ("000000", "011011", "101101", "110110")})
    expect_m = _vec(6, {s: 0.5 for s in ("001001", "010010", "100100", "111111")})
    for vec, expected in ((psi_p, expect_p), (psi_m, expect_m)):
        got, p = kept(vec, "even")
        worst = _worst(worst, _pure_deviation(got, expected), abs(p - 0.25))
    return CheckResult("state_reproduction", worst < 1e-12, worst)


def check_measurement_sign_patterns() -> CheckResult:
    """Copy-1 phases after the X-basis measurement equal (-1)^(x.m), read
    from the outcome blocks the oracle sums."""
    worst = 0.0
    for sign, outcomes in ((+1, (0b000, 0b011, 0b101, 0b110)),
                           (-1, (0b001, 0b010, 0b100, 0b111))):
        vec = hadamard_matrix(3) @ ghz_label_to_state(GhzLabel("000", sign), 3)
        pair = exact.tensor_pair(np.outer(vec, vec.conj()))
        blocks = exact.copy2_outcome_blocks(exact.project_parity(pair, "even")[0])
        for m in outcomes:
            want_odd = sign == -1
            expected = np.array(
                [(-1) ** bin(x & m).count("1") if bin(x).count("1") % 2 == want_odd
                 else 0.0 for x in range(8)], dtype=complex) / 2.0
            worst = _worst(worst, _pure_deviation(blocks[:, m, :], expected))
    return CheckResult("measurement_sign_patterns", worst < 1e-12, worst)


def check_oracle_equivalence(n_max: int = 4, seed: int = 7,
                             cases: int = 50) -> CheckResult:
    """Fast-engine weights vs the dense engine's output on random ensembles.

    The fast side is `purify.step_map`, the map that `run` and `sweep` step;
    the dense side is `exact.exact_step` on the ensemble's density matrix,
    read back by `exact.ghz_diagonal_extract`.  Reports the worst deviation
    of weight, keep or residual; a NaN, or a weight the extract rejects,
    fails.
    """
    rng = np.random.default_rng(seed)
    worst_diag = worst_keep = worst_res = 0.0
    modes = (DiscriminationMode.even_only(), DiscriminationMode.even_plus_odd())
    for n in range(2, n_max + 1):
        for c in range(cases):
            ens = random_ghz_diagonal(n, rng)
            rho = ensemble_to_density(ens)
            mode = modes[c % 2]
            for step in (StepKind.P1, StepKind.P2):
                W, fast_keep = step_map(ens.W, step, mode)
                rho_out, keep = exact.exact_step(rho, step, mode)
                try:
                    out_ens, residual = exact.ghz_diagonal_extract(rho_out)
                except ValueError:   # NaN or negative weights: no ensemble
                    diff = residual = np.nan
                else:
                    diff = float(np.abs(W - out_ens.W).max())
                worst_diag = _worst(worst_diag, diff)
                worst_keep = _worst(worst_keep, abs(fast_keep - keep))
                worst_res = _worst(worst_res, residual)
    ok = worst_diag < 1e-9 and worst_keep < 1e-12 and worst_res < 1e-10
    return CheckResult("oracle_equivalence", ok, _worst(worst_diag, worst_keep, worst_res),
                       f"diag={worst_diag:.3e} keep={worst_keep:.3e} residual={worst_res:.3e}")


def check_dense_vs_bruteforce(n_max: int = 5, seed: int = 7,
                              cases: int = 2) -> CheckResult:
    """Schur-product steps vs the brute-force oracle on random complex
    density matrices, which are not GHZ-diagonal: both steps, with and
    without the odd branch.

    The Schur form needs no correction table; the oracle applies the
    table to every copy-2 outcome, looking up `exact.correction_for_outcome`
    when it runs (so a test that corrupts the table patches that name, not
    `purify.correction_for_outcome`).  So this also
    checks the table: P2's flips must cancel the X-outcome sign signature
    (-1)^(x.m) exactly, and unlike a GHZ basis state a random state also
    sees a table that is off by a flip on every qubit."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    modes = (DiscriminationMode.even_only(), DiscriminationMode.even_plus_odd())
    for n in range(2, min(n_max, MAX_QUBITS_EXACT) + 1):
        for _ in range(cases):
            rho = random_density(n, rng)
            for step in (StepKind.P1, StepKind.P2):
                for mode in modes:
                    dense, keep = exact.exact_step(rho, step, mode)
                    brute, brute_keep = exact.bruteforce_step(rho, step, mode)
                    worst = _worst(worst, float(np.abs(dense - brute).max()),
                                   abs(keep - brute_keep))
    return CheckResult("dense_vs_bruteforce", worst < 1e-12, worst)


def check_probability_bookkeeping(seed: int = 11, cases: int = 20) -> CheckResult:
    """The probabilities of all 2^N party parity patterns sum to one."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3):
        for _ in range(cases):
            rho = ensemble_to_density(random_ghz_diagonal(n, rng))
            pair = exact.tensor_pair(rho)
            total = 0.0
            for parties in range(1 << n):
                mask = exact.parity_mask(n, parties)
                total += float((pair.diagonal().real * mask).sum())
            worst = _worst(worst, abs(total - 1.0))
    return CheckResult("probability_bookkeeping", worst < 1e-12, worst)


def run_validation(n_max: int = 4, seed: int = 7, cases: int = 50) -> list[CheckResult]:
    """All checks, in the order `validate` prints them."""
    return [
        check_h_grouping(min(n_max + 1, 5)),
        check_state_reproduction(),
        check_measurement_sign_patterns(),
        check_oracle_equivalence(n_max, seed, cases),
        check_dense_vs_bruteforce(n_max, seed),
        check_probability_bookkeeping(seed),
    ]
