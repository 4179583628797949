"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_op_list(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("name,keys", [
    ("cli_run_n3", ("initial", "schedule", "mode")),
    ("sweep_n6", ("param", "mode", "schedule")),
    ("mc_noisy", ("n", "epsilon", "step", "mode")),
])
def test_every_block_holds_each_combination_once(name, keys):
    ops = workloads.generate(name, 3)
    size = workloads.block_size(name)
    for start in range(0, len(ops), size):
        combos = [tuple(str(op[k]) for k in keys) for op in ops[start:start + size]]
        distinct = set(combos)
        assert len(combos) % len(distinct) == 0
        assert all(combos.count(c) == len(combos) // len(distinct) for c in distinct)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.inner", 2.0, 3.0, 1, 0),
        ("b", 5.0, 6.0, 0, 0),
        ("b.partial", 5.5, 7.0, 3, 0),   # overruns its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 0.5, 1.5])


def test_speed_factors_scale_by_the_median_reference_around_each_op():
    # A burst that slows one reference run does not move the factor; a
    # stretch at half speed halves it.
    refs = [1.0] * 10 + [5.0] + [1.0] * 10 + [2.0] * 20
    factors = workloads.speed_factors(refs)
    assert factors[:18] == [1.0] * 18
    assert factors[-10:] == [0.5] * 10


def test_slowness_is_the_geometric_mean_over_the_kernels(monkeypatch):
    # The first kernel takes twice its nominal time, the second four times.
    clock = iter([0.0, 2.0, 10.0, 18.0])
    monkeypatch.setattr(workloads, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setitem(workloads.REFERENCE, "mc_noisy",
                        ((lambda: None, 1.0), (lambda: None, 2.0)))
    assert workloads.slowness("mc_noisy") == pytest.approx(math.sqrt(2.0 * 4.0))


def test_tail_is_the_nearest_rank_percentile():
    values = [float(i) for i in range(100, 0, -1)]
    assert run.tail(values, 90.0) == (90.0, 10)
    assert run.tail(values, 99.0) == (99.0, 1)
    assert run.tail([3.0], 80.0) == (3.0, 0)


@pytest.fixture
def runner_for(tmp_path):
    return lambda name: workloads.Runner(name, tmp_path / name)


def test_tracer_rebinds_names_imported_into_other_modules(runner_for):
    runner_for("cli_run_n3")
    from ghzpurify import cli, ghz, schedule, validation
    import ghzpurify
    originals = (cli.run_schedule, schedule.ensemble_to_density,
                 validation.ensemble_to_density, ghzpurify.run_schedule)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rebound = (cli.run_schedule, schedule.ensemble_to_density,
                   validation.ensemble_to_density, ghzpurify.run_schedule)
        assert all(r is not o and r.__wrapped__ is o for r, o in zip(rebound, originals))
        assert schedule.ensemble_to_density is ghz.ensemble_to_density
    finally:
        tracer.uninstall()
    restored = (cli.run_schedule, schedule.ensemble_to_density,
                validation.ensemble_to_density, ghzpurify.run_schedule)
    assert all(r is o for r, o in zip(restored, originals))


def test_untraced_run_calls_the_original_functions(runner_for):
    runner = runner_for("cli_run_n3")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.recording = True
    op = workloads.generate("cli_run_n3", 1)[0]
    runner.run(runner.prepare(op))
    assert tracer.spans == [] and not tracer.counts
    for mod in tracer._modules():
        assert not any(hasattr(v, "span_name") for v in vars(mod).values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_op_passes_its_check_and_is_traced_to_its_layer(name, runner_for):
    runner = runner_for(name)
    op = workloads.generate(name, 5)[0]
    args = runner.prepare(op)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        with tracer.span(tracing.OP_SPAN):
            result = runner.run(args)
        tracer.recording = False
        assert runner.check(op, args, result) is None
    finally:
        tracer.uninstall()
    metrics, shares = tracing.per_layer_report(tracer.spans, tracer.counts, 1, 0.0)
    assert set(metrics) == set(run.units(ROOT)[1])
    assert shares[tracing.PREDICTED_DOMINANT[name]] > 0
    assert sum(shares.values()) == pytest.approx(1.0)


def test_computed_counts_follow_from_the_inputs(runner_for):
    runner = runner_for("mc_noisy")
    op = workloads.generate("mc_noisy", 2)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        runner.run(runner.prepare(op))
    finally:
        tracer.uninstall()
    metrics, _ = tracing.per_layer_report(tracer.spans, tracer.counts, 1, 0.0)
    assert metrics["mc.trials"] == workloads.MC_TRIALS

    runner = runner_for("oracle_n5")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        runner.run(runner.prepare({"seed": 3}))
    finally:
        tracer.uninstall()
    metrics, _ = tracing.per_layer_report(tracer.spans, tracer.counts, 1, 0.0)
    # Two cases for each N = 2..5, each through both exact steps; one
    # two-copy operator of 16 * 16^N bytes per exact step.
    per_case = sum(2 * 16 * 16 ** n for n in range(2, 6))
    assert metrics["exact.pair_bytes"] == workloads.ORACLE_CASES * per_case
    assert metrics["validation.cases"] == 4 * workloads.ORACLE_CASES


def test_mc_check_allows_the_skew_of_a_rare_label_count(runner_for):
    # At this op the label 01100- expects 6.3 of about 8500 kept trials and
    # gets 20, 5.4 normal sigmas out; over 150 MC seeds its count has mean
    # 6.35 and variance 6.55, as a Poisson count should.
    runner = runner_for("mc_noisy")
    op = {"n": 5, "epsilon": 0.0, "step": "P1", "mode": "six-mode-pbs",
          "ensemble_seed": 375630151, "mc_seed": 1632736821, "id": 0}
    args = runner.prepare(op)
    assert runner.check(op, args, runner.run(args)) is None


def test_p2_pairs_counts_the_pair_loop_of_both_sign_groups():
    class Label:
        def __init__(self, sign):
            self.sign = sign

    class Ens:
        n_qubits = 3
        weights = {Label(+1): 0.5, Label(+1): 0.3, Label(-1): 0.2}

    class Mode:
        class kind:
            value = "even-plus-odd"

    class Report:
        class output:
            weights = {}

    counts = tracing.defaultdict(float)
    tracing._observe_p2(counts, (Ens(), Mode()), {}, Report())
    # 2 plus, 1 minus: 2*2 + 1*1 same-sign pairs, plus 2*2*1 cross pairs (odd N)
    assert counts["purify.p2_pairs"] == 9


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep_n6", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
