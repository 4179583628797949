from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzpurify import schedule
from ghzpurify.exact import (exact_step, fidelity_to_target,
                             ghz_diagonal_extract)
from ghzpurify.ghz import (GhzLabel, build_binary_ensemble, build_werner,
                           canonical_label, ensemble_fidelity,
                           ensemble_to_density)
from ghzpurify.optics import DiscriminationMode
from ghzpurify.purify import StepKind, apply_step
from ghzpurify.schedule import (MAX_ROUNDS, SWEEP_BLOCK, RoundRecord, Schedule,
                                compare_orderings, run_schedule, sweep)

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()
SIX_MODE = DiscriminationMode.six_mode_pbs()

P1 = (StepKind.P1,)
P1P2 = (StepKind.P1, StepKind.P2)
P2P1 = (StepKind.P2, StepKind.P1)
P1P2P2 = (StepKind.P1, StepKind.P2, StepKind.P2)


def bit_error(F=0.8, n=3):
    return build_binary_ensemble(F, GhzLabel("0" + "1" * (n - 1), +1), n)


def flip_on_qubit_1(F, n):
    """The binary input of a sweep over F."""
    return build_binary_ensemble(F, canonical_label("1" + "0" * (n - 1), +1), n)


def stepwise(initial, sched, engine="fast"):
    """run_schedule's records and ensembles with every round computed."""
    ens, rho = initial, ensemble_to_density(initial)
    fid = ensemble_fidelity(initial)
    rounds, ensembles = [RoundRecord(0, "-", fid, 1.0, 1.0)], [initial]
    cum_yield = 1.0
    stop = MAX_ROUNDS if sched.stop_rounds is None else sched.stop_rounds
    for k in range(stop):
        if sched.stop_threshold is not None and fid >= sched.stop_threshold:
            break
        step = sched.steps[k % len(sched.steps)]
        if engine == "fast":
            report = apply_step(ens, step, sched.mode)
            ens, keep = report.output, report.keep_probability
            fid = ensemble_fidelity(ens)
        else:
            rho, keep = exact_step(rho, step, sched.mode)
            fid = fidelity_to_target(rho)
            ens = ghz_diagonal_extract(rho)[0]
        cum_yield *= keep / 2.0
        rounds.append(RoundRecord(k + 1, step.value, fid, keep, cum_yield))
        ensembles.append(ens)
    return rounds, ensembles


class TestScheduleType:
    def test_needs_steps(self):
        with pytest.raises(ValueError):
            Schedule((), EVEN_ONLY, stop_rounds=2)

    def test_needs_exactly_one_stop(self):
        with pytest.raises(ValueError):
            Schedule(P1, EVEN_ONLY)
        with pytest.raises(ValueError):
            Schedule(P1, EVEN_ONLY, stop_rounds=2, stop_threshold=0.9)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            Schedule(P1, EVEN_ONLY, stop_threshold=0.4)

    def test_step_names_run_the_named_steps(self):
        sched = Schedule(("P1", "P2"), EVEN_ONLY, stop_rounds=3)
        assert sched.steps == P1P2
        by_name = run_schedule(bit_error(), sched)
        assert by_name.rounds == run_schedule(
            bit_error(), Schedule(P1P2, EVEN_ONLY, stop_rounds=3)).rounds
        assert [r.step for r in by_name.rounds] == ["-", "P1", "P2", "P1"]

    def test_unknown_step_name(self):
        with pytest.raises(ValueError):
            Schedule(("P3",), EVEN_ONLY, stop_rounds=2)


class TestRunSchedule:
    def test_binary_p1_fidelity_sequence(self):
        sched = Schedule(P1, EVEN_ONLY, stop_rounds=2)
        trace = run_schedule(bit_error(), sched)
        fids = [r.fidelity for r in trace.rounds]
        assert fids[0] == pytest.approx(0.8)
        assert fids[1] == pytest.approx(16 / 17, abs=1e-12)
        f1 = 16 / 17
        assert fids[2] == pytest.approx(f1 ** 2 / (f1 ** 2 + (1 - f1) ** 2),
                                        abs=1e-12)
        assert fids[1] < fids[2]

    def test_initial_record(self):
        sched = Schedule(P1, EVEN_ONLY, stop_rounds=1)
        trace = run_schedule(bit_error(), sched)
        first = trace.rounds[0]
        assert (first.round_index, first.step) == (0, "-")
        assert first.cumulative_yield == 1.0

    def test_yield_convention(self):
        sched = Schedule(P1, EVEN_ONLY, stop_rounds=3)
        trace = run_schedule(bit_error(), sched)
        expected = 1.0
        for rec in trace.rounds[1:]:
            expected *= rec.keep_probability / 2.0
            assert rec.cumulative_yield == pytest.approx(expected, rel=1e-15)

    def test_werner_converges_with_p1p2(self):
        sched = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        trace = run_schedule(build_werner(0.8, 3), sched)
        assert trace.converged
        assert trace.final_fidelity > 0.99
        assert trace.n_rounds <= 6

    def test_pure_werner_zero_rounds(self):
        sched = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        trace = run_schedule(build_werner(1.0, 3), sched)
        assert trace.converged
        assert trace.n_rounds == 0

    def test_p1_only_on_werner_plateaus(self):
        sched = Schedule(P1, EVEN_ONLY, stop_threshold=0.99)
        trace = run_schedule(build_werner(0.8, 3), sched)
        assert not trace.converged
        assert trace.n_rounds == MAX_ROUNDS
        assert trace.final_fidelity < 0.99

    def test_fast_and_exact_agree_per_round(self):
        sched = Schedule(P1P2, EVEN_ONLY, stop_rounds=3)
        fast = run_schedule(build_werner(0.8, 3), sched, engine="fast")
        oracle = run_schedule(build_werner(0.8, 3), sched, engine="exact")
        for a, b in zip(fast.rounds, oracle.rounds):
            assert abs(a.fidelity - b.fidelity) < 1e-9
            assert abs(a.keep_probability - b.keep_probability) < 1e-12

    def test_exact_engine_size_bound(self):
        sched = Schedule(P1, EVEN_ONLY, stop_rounds=1)
        with pytest.raises(ValueError):
            run_schedule(bit_error(n=6), sched, engine="exact")

    def test_even_plus_odd_yield_power_of_two(self):
        k = 3
        eo = run_schedule(bit_error(), Schedule(P1, EVEN_ONLY, stop_rounds=k))
        epo = run_schedule(bit_error(), Schedule(P1, EVEN_PLUS_ODD, stop_rounds=k))
        for j in range(1, k + 1):
            ratio = epo.rounds[j].cumulative_yield / eo.rounds[j].cumulative_yield
            assert ratio == pytest.approx(2.0 ** j, rel=1e-12)

    def test_record_ensembles(self):
        sched = Schedule(P1, EVEN_ONLY, stop_rounds=2)
        trace = run_schedule(bit_error(), sched, record_ensembles=True)
        assert len(trace.round_ensembles) == 3
        assert ensemble_fidelity(trace.round_ensembles[-1]) == pytest.approx(
            trace.final_fidelity)


class TestCycleReplay:
    """Rounds after a cycle that returns the state to its own start are
    replayed; they must equal the rounds computed step by step."""

    @pytest.mark.parametrize("initial, steps, stop, engine", [
        (flip_on_qubit_1(0.6, 6), P2P1, {"stop_threshold": 0.99}, "fast"),
        (build_werner(0.8, 3), P1, {"stop_threshold": 0.99}, "fast"),
        (flip_on_qubit_1(0.6, 6), P1P2P2, {"stop_threshold": 0.99}, "fast"),
        # stops mid-cycle, after the replay has begun
        (flip_on_qubit_1(0.6, 6), P2P1, {"stop_rounds": 41}, "fast"),
        (flip_on_qubit_1(0.6, 4), P1P2P2, {"stop_rounds": 50}, "fast"),
        (flip_on_qubit_1(0.6, 5), P2P1, {"stop_threshold": 0.99}, "exact"),
        (build_werner(0.8, 3), P1, {"stop_rounds": 30}, "exact"),
    ])
    def test_equals_the_stepwise_loop(self, initial, steps, stop, engine):
        sched = Schedule(steps, EVEN_ONLY, **stop)
        trace = run_schedule(initial, sched, engine, record_ensembles=True)
        rounds, ensembles = stepwise(initial, sched, engine)
        assert trace.rounds == rounds
        assert len(trace.round_ensembles) == len(ensembles)
        for got, want in zip(trace.round_ensembles, ensembles):
            assert np.array_equal(got.W, want.W)

    def test_plateau_calls_fewer_steps_than_rounds(self, monkeypatch):
        calls = []

        def counting(ens, step, mode):
            calls.append(step)
            return apply_step(ens, step, mode)

        monkeypatch.setattr(schedule, "apply_step", counting)
        sched = Schedule(P2P1, EVEN_ONLY, stop_threshold=0.99)
        trace = run_schedule(flip_on_qubit_1(0.6, 6), sched)
        assert trace.n_rounds == MAX_ROUNDS and not trace.converged
        assert len(calls) < MAX_ROUNDS


class TestSweep:
    def test_werner_initial_fidelities(self):
        sched = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        rows = sweep("x", [0.6, 0.7, 0.8, 0.9], 3, sched)
        got = [r.initial_fidelity for r in rows]
        assert got == pytest.approx([0.65, 0.7375, 0.825, 0.9125], abs=1e-15)

    def test_rounds_nonincreasing_in_x(self):
        sched = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        rows = sweep("x", [0.6, 0.7, 0.8, 0.9], 3, sched)
        rounds = [r.rounds for r in rows]
        assert all(a >= b for a, b in zip(rounds, rounds[1:]))

    def test_single_point_matches_run(self):
        sched = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        rows = sweep("x", [0.8], 3, sched)
        trace = run_schedule(build_werner(0.8, 3), sched)
        assert rows[0].rounds == trace.n_rounds
        assert rows[0].final_fidelity == pytest.approx(trace.final_fidelity)

    def test_binary_param(self):
        sched = Schedule(P1, EVEN_ONLY, stop_threshold=0.99)
        rows = sweep("F", [0.8, 0.9], 3, sched)
        assert [r.initial_fidelity for r in rows] == pytest.approx([0.8, 0.9])
        assert all(r.converged for r in rows)

    def test_empty_grid(self):
        sched = Schedule(P1, EVEN_ONLY, stop_threshold=0.99)
        with pytest.raises(ValueError):
            sweep("x", [], 3, sched)

    def test_run_schedule_takes_one_ensemble(self):
        sched = Schedule(P1, EVEN_ONLY, stop_threshold=0.99)
        with pytest.raises(ValueError, match="one ensemble"):
            run_schedule(build_werner(np.array([0.8, 0.9]), 3), sched)


def initial_for(param, value, n):
    return build_werner(value, n) if param == "x" else flip_on_qubit_1(value, n)


def assert_rows_match_stepwise(rows, param, values, n, sched, engine):
    """Each row against its point run round by round (`stepwise`): bit for
    bit, rounds and the verdict included."""
    assert [r.value for r in rows] == values
    for row in rows:
        initial = initial_for(param, row.value, n)
        rounds, _ = stepwise(initial, sched, engine)
        last = rounds[-1]
        converged = (sched.stop_threshold is None
                     or last.fidelity >= sched.stop_threshold)
        assert row.initial_fidelity == ensemble_fidelity(initial)
        assert (row.rounds, row.converged) == (len(rounds) - 1, converged)
        assert (row.final_fidelity, row.cumulative_yield) == (
            last.fidelity, last.cumulative_yield)


STEP_ORDERS = (P1, (StepKind.P2,), P1P2, P2P1, P1P2P2)


@st.composite
def sweep_cases(draw):
    """A grid of up to 7 points, each run in blocks of 1 to 8 points."""
    n = draw(st.integers(2, 6))
    engine = draw(st.sampled_from(("fast", "exact"))) if n <= 4 else "fast"
    param = draw(st.sampled_from("xF"))
    steps = draw(st.sampled_from(STEP_ORDERS))
    mode = draw(st.sampled_from((EVEN_ONLY, EVEN_PLUS_ODD, SIX_MODE)))
    if draw(st.booleans()):
        stop = {"stop_threshold": draw(st.sampled_from((0.9, 0.99, 0.999, 1.0)))}
    else:
        stop = {"stop_rounds": draw(st.integers(0, MAX_ROUNDS))}
    values = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0),
                           min_size=1, max_size=7))
    block = draw(st.integers(1, 8))
    return n, engine, param, Schedule(steps, mode, **stop), values, block


class TestSweepAgainstStepwise:
    """A sweep runs its grid as stacks; every row must still equal its own
    point run round by round, whatever the stack does to its neighbours."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(sweep_cases())
    # plateaus below the threshold and replays to MAX_ROUNDS, beside points
    # that start converged or converge
    @example((6, "fast", "F", Schedule(P2P1, EVEN_ONLY, stop_threshold=0.99),
              [0.6, 1.0, 0.97, 0.55, 0.99], 2))
    @example((3, "fast", "x", Schedule(P1, EVEN_ONLY, stop_threshold=0.99),
              [0.8, 1.0, 0.3], 2))
    # round stops that end mid-cycle after a replay
    @example((6, "fast", "F", Schedule(P2P1, EVEN_ONLY, stop_rounds=41),
              [0.6, 0.7, 1.0], 3))
    @example((4, "fast", "F", Schedule(P1P2P2, EVEN_ONLY, stop_rounds=50),
              [0.6, 0.8], 1))
    @example((4, "exact", "x", Schedule(P1, EVEN_ONLY, stop_rounds=30),
              [0.8, 0.1, 1.0], 2))
    # 0.8 stops at round 19, mid-cycle, and 0.74 repeats at round 21
    @example((4, "fast", "F", Schedule(P1P2P2, EVEN_ONLY, stop_threshold=0.99),
              [0.8, 0.74], 2))
    # odd n under even-plus-odd: the opposite-sign term of P2
    @example((5, "fast", "x", Schedule(P2P1, EVEN_PLUS_ODD, stop_threshold=0.999),
              [0.4, 0.6, 0.8, 0.95], 3))
    @example((3, "exact", "F", Schedule(P1P2P2, EVEN_PLUS_ODD, stop_threshold=0.99),
              [0.55, 0.7, 1.0], 8))
    def test_rows_equal_their_point_runs(self, case):
        n, engine, param, sched, values, block = case
        with mock.patch("ghzpurify.schedule.SWEEP_BLOCK", block):
            rows = sweep(param, values, n, sched, engine)
        assert_rows_match_stepwise(rows, param, values, n, sched, engine)

    def test_a_stack_steps_the_rows_its_point_runs_step(self, monkeypatch):
        """A row leaves the stack when it stops or starts to repeat, so the
        stack steps as many rows as the point runs step, fewer than their
        rounds."""
        stepped = []

        def counting(ens, step, mode):
            stepped.append(len(ens.W) if ens.W.ndim == 3 else 1)
            return apply_step(ens, step, mode)

        monkeypatch.setattr(schedule, "apply_step", counting)
        sched = Schedule(P1P2P2, EVEN_ONLY, stop_threshold=0.99)
        values = [0.78, 0.45, 0.8, 0.74, 0.93, 1.0]
        rows = sweep("F", values, 4, sched)
        in_stack = sum(stepped)
        stepped.clear()
        for v in values:
            run_schedule(flip_on_qubit_1(v, 4), sched)
        assert in_stack == sum(stepped) < sum(r.rounds for r in rows)

    def test_a_grid_longer_than_one_block(self):
        values = [0.5 + 0.5 * i / (SWEEP_BLOCK + 10) for i in range(SWEEP_BLOCK + 11)]
        sched = Schedule(P2P1, EVEN_PLUS_ODD, stop_threshold=0.99)
        rows = sweep("F", values, 6, sched)
        assert_rows_match_stepwise(rows, "F", values, 6, sched, "fast")
        assert {r.converged for r in rows} == {True, False}


class TestCompareOrderings:
    def test_both_orders_converge(self):
        s12 = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        s21 = Schedule((StepKind.P2, StepKind.P1), EVEN_ONLY, stop_threshold=0.99)
        cmp = compare_orderings(build_werner(0.8, 3), [s12, s21])
        assert all(s.converged for s in cmp.summaries)
        assert len(cmp.by_rounds) == 2
        assert len(cmp.by_yield) == 2

    def test_identical_schedules_tie(self):
        s = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        cmp = compare_orderings(build_werner(0.8, 3), [s, s])
        assert (0, 1) in cmp.ties_rounds
        assert (0, 1) in cmp.ties_yield

    def test_yields_orders_of_magnitude_apart_do_not_tie(self):
        # Both yields are far below any absolute tolerance of 1e-15.
        s1 = Schedule(P1, EVEN_ONLY, stop_rounds=40)
        s2 = Schedule((StepKind.P2,), EVEN_ONLY, stop_rounds=40)
        cmp = compare_orderings(build_werner(0.8, 3), [s1, s2])
        y1, y2 = (s.cumulative_yield for s in cmp.summaries)
        assert y1 > 1e6 * y2 > 0.0
        assert cmp.ties_yield == []

    def test_nonconvergent_ranks_last(self):
        good = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        bad = Schedule(P1, EVEN_ONLY, stop_threshold=0.99)
        cmp = compare_orderings(build_werner(0.8, 3), [bad, good])
        assert cmp.by_rounds[0] == 1
        assert not cmp.summaries[0].converged

    def test_needs_two(self):
        s = Schedule(P1P2, EVEN_ONLY, stop_threshold=0.99)
        with pytest.raises(ValueError):
            compare_orderings(build_werner(0.8, 3), [s])


class TestModeEquivalence:
    def test_six_mode_trace_identical_to_even_only(self):
        k = 3
        eo = run_schedule(bit_error(), Schedule(P1, EVEN_ONLY, stop_rounds=k))
        six = run_schedule(bit_error(), Schedule(P1, SIX_MODE, stop_rounds=k))
        for a, b in zip(eo.rounds, six.rounds):
            assert a.fidelity == b.fidelity
            assert a.keep_probability == b.keep_probability
