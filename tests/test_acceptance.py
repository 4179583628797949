"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
a single pass/fail line (bypassing pytest capture so the lines always show).
"""
import sys
import time

import numpy as np

from ghzpurify import exact
from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel, all_labels,
                           build_binary_ensemble, build_werner,
                           ensemble_fidelity, ensemble_to_density,
                           ghz_label_to_state, hadamard_matrix)
from ghzpurify.mc import mc_sample_step
from ghzpurify.optics import DiscriminationMode
from ghzpurify.purify import StepKind, apply_step, p1_step
from ghzpurify.schedule import Schedule, run_schedule, sweep
from ghzpurify.validation import (check_h_grouping, check_measurement_sign_patterns,
                                  check_oracle_equivalence, check_state_reproduction)

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()
SIX_MODE = DiscriminationMode.six_mode_pbs()

P1 = StepKind.P1
P2 = StepKind.P2


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{extra}",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {desc}{extra}"


def bit_error(F, n):
    return build_binary_ensemble(F, GhzLabel("0" + "1" * (n - 1), +1), n)


def test_criterion_1_fidelity_recurrence():
    t0 = time.perf_counter()
    worst_fast = worst_exact = 0.0
    for F in np.arange(0.55, 0.951, 0.05):
        F = float(F)
        want = F ** 2 / (F ** 2 + (1 - F) ** 2)
        for n in (2, 3, 4, 5):
            ens = bit_error(F, n)
            got = ensemble_fidelity(p1_step(ens, EVEN_ONLY).output)
            worst_fast = max(worst_fast, abs(got - want))
            rho_out, _ = exact.p1_exact(ensemble_to_density(ens), EVEN_ONLY)
            worst_exact = max(worst_exact,
                              abs(exact.fidelity_to_target(rho_out) - want))
    elapsed = time.perf_counter() - t0
    ok = worst_fast < 1e-12 and worst_exact < 1e-9 and elapsed < 10.0
    _report(1, "bit-flip fidelity recurrence", ok,
            f"fast={worst_fast:.2e} exact={worst_exact:.2e} t={elapsed:.1f}s")


def test_criterion_2_branch_probabilities():
    worst = 0.0
    doubling_exact = True
    for F in (0.6, 0.8, 0.95):
        for n in (2, 3, 4):
            ens = bit_error(F, n)
            eo = p1_step(ens, EVEN_ONLY)
            epo = p1_step(ens, EVEN_PLUS_ODD)
            target = ensemble_fidelity(eo.output)
            worst = max(
                worst,
                abs(eo.keep_probability * target - 0.5 * F ** 2),
                abs(eo.keep_probability * (1 - target) - 0.5 * (1 - F) ** 2),
                abs(epo.keep_probability * target - F ** 2),
                abs(epo.keep_probability * (1 - target) - (1 - F) ** 2))
            doubling_exact &= epo.keep_probability == 2 * eo.keep_probability
    _report(2, "kept-branch probabilities and exact yield doubling",
            worst < 1e-12 and doubling_exact, f"dev={worst:.2e}")


def test_criterion_3_cross_rejection():
    # Branch enumeration on mismatched label pairs: the surviving-parity
    # branches must carry no probability at all.
    worst = 0.0
    for n in (2, 3, 4):
        labels = all_labels(n)
        H = hadamard_matrix(n)
        for a in labels:
            for b in labels:
                va = ghz_label_to_state(a, n)
                vb = ghz_label_to_state(b, n)
                if a.rep != b.rep:
                    # bit-flip step: copies with different patterns never
                    # produce an all-even (or all-odd) parity record
                    pair = np.kron(np.outer(va, va.conj()),
                                   np.outer(vb, vb.conj()))
                    for branch in ("even", "odd"):
                        _, p = exact.project_parity(pair, branch,
                                                    recover_odd=False)
                        worst = max(worst, p)
                if a.sign != b.sign:
                    # phase-flip step: opposite signs never survive the
                    # all-even parity check in the rotated frame
                    ra = H @ np.outer(va, va.conj()) @ H
                    rb = H @ np.outer(vb, vb.conj()) @ H
                    _, p = exact.project_parity(np.kron(ra, rb), "even",
                                                recover_odd=False)
                    worst = max(worst, p)
    _report(3, "mismatched pairs rejected in P1 and P2", worst <= 1e-12,
            f"max_kept={worst:.2e}")


# H^(x)3 of the eight three-qubit GHZ basis states, amplitude by amplitude.
# Plus-sign states land on even-weight strings, minus-sign on odd, with
# signs (-1)^(x.e).
_ROTATED_TABLE = {
    ("000", +1): {"000": 1, "011": 1, "101": 1, "110": 1},
    ("001", +1): {"000": 1, "011": -1, "101": -1, "110": 1},
    ("010", +1): {"000": 1, "011": -1, "101": 1, "110": -1},
    ("011", +1): {"000": 1, "011": 1, "101": -1, "110": -1},
    ("000", -1): {"001": 1, "010": 1, "100": 1, "111": 1},
    ("001", -1): {"001": -1, "010": 1, "100": 1, "111": -1},
    ("010", -1): {"001": 1, "010": -1, "100": 1, "111": -1},
    ("011", -1): {"001": -1, "010": -1, "100": 1, "111": 1},
}


def test_criterion_4_hadamard_grouping_table():
    worst = 0.0
    for (rep, sign), terms in _ROTATED_TABLE.items():
        got = hadamard_matrix(3) @ ghz_label_to_state(GhzLabel(rep, sign), 3)
        want = np.zeros(8, dtype=complex)
        for bits, amp in terms.items():
            want[int(bits, 2)] = amp / 2.0
        worst = max(worst, float(np.abs(got - want).max()))
    # even/odd-weight grouping for larger registers
    grouping = check_h_grouping(5)
    worst = max(worst, grouping.max_deviation)
    _report(4, "rotated-basis table and parity grouping",
            worst < 1e-12 and grouping.passed, f"dev={worst:.2e}")


def test_criterion_5_state_reproduction():
    states = check_state_reproduction()
    signs = check_measurement_sign_patterns()
    _report(5, "kept pure-branch states and measurement sign patterns",
            states.passed and signs.passed,
            f"states={states.max_deviation:.2e} signs={signs.max_deviation:.2e}")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    check = check_oracle_equivalence(n_max=4, seed=7, cases=200)
    elapsed = time.perf_counter() - t0
    _report(6, "fast vs exact engine on 600 random ensembles",
            check.passed and elapsed < 120.0, f"{check.detail} t={elapsed:.1f}s")


def test_criterion_7_werner_schedules():
    grid = [0.6, 0.7, 0.8, 0.9]
    sched = Schedule((P1, P2), EVEN_ONLY, stop_threshold=0.99)
    rows = sweep("x", grid, 3, sched)
    grid_exact = all(r.initial_fidelity == x + (1 - x) / 8
                     for r, x in zip(rows, grid))

    fast = run_schedule(build_werner(0.8, 3), sched, engine="fast")
    oracle = run_schedule(build_werner(0.8, 3), sched, engine="exact")
    agree = max(abs(a.fidelity - b.fidelity)
                for a, b in zip(fast.rounds, oracle.rounds))
    p1_only = run_schedule(build_werner(0.8, 3),
                           Schedule((P1,), EVEN_ONLY, stop_threshold=0.99))
    ok = (grid_exact and fast.converged and fast.final_fidelity > 0.99
          and agree < 1e-9 and not p1_only.converged
          and p1_only.final_fidelity < 0.99)
    _report(7, "Werner sweep fidelities and schedule convergence", ok,
            f"agree={agree:.2e} p1_final={p1_only.final_fidelity:.4f}")


def test_criterion_8_six_mode_parity():
    ok = True
    cases = [((P1,), 3, 3), ((P1, P2), 4, 4)]
    for steps, n, rounds in cases:
        trace = run_schedule(bit_error(0.8, n),
                             Schedule(steps, SIX_MODE, stop_rounds=rounds),
                             record_ensembles=True)
        # apply every step of the trajectory under all three modes to the
        # same input ensemble; halving must then hold exactly
        for j, ens in enumerate(trace.round_ensembles[:-1]):
            step = steps[j % len(steps)]
            six = apply_step(ens, step, SIX_MODE)
            eo = apply_step(ens, step, EVEN_ONLY)
            epo = apply_step(ens, step, EVEN_PLUS_ODD)
            ok &= six.output.weights == eo.output.weights
            ok &= six.keep_probability == eo.keep_probability
            ok &= 2.0 * six.keep_probability == epo.keep_probability
    _report(8, "six-mode selection matches all-even at half the doubled yield",
            ok)


def test_criterion_9_monte_carlo():
    trials = 1_000_000

    def sigma3(p, m):
        return 3.0 * np.sqrt(p * (1.0 - p) / m)

    worst_ratio = 0.0
    phase = GhzDiagonalEnsemble(3, {GhzLabel("000", +1): 0.8,
                                    GhzLabel("000", -1): 0.2})
    for ens, step in ((bit_error(0.8, 3), P1), (phase, P2)):
        ex = apply_step(ens, step, EVEN_ONLY)
        rep = mc_sample_step(ens, step, EVEN_ONLY, trials, seed=17)
        keep = ex.keep_probability
        worst_ratio = max(worst_ratio, abs(rep.keep_probability - keep)
                          / sigma3(keep, trials))
        fid = ensemble_fidelity(ex.output)
        kept = int(round(rep.keep_probability * trials))
        worst_ratio = max(worst_ratio,
                          abs(ensemble_fidelity(rep.output) - fid)
                          / sigma3(fid, kept))
    a = mc_sample_step(bit_error(0.8, 3), P1, EVEN_ONLY, 50_000, seed=3)
    b = mc_sample_step(bit_error(0.8, 3), P1, EVEN_ONLY, 50_000, seed=3)
    deterministic = (a.keep_probability == b.keep_probability
                     and a.output.weights == b.output.weights
                     and a.branch_stats == b.branch_stats)
    _report(9, "Monte Carlo within 3-sigma and seed-deterministic",
            worst_ratio < 1.0 and deterministic,
            f"worst={worst_ratio:.2f} sigma-ratio")
