"""One fresh process of the benchmark: set up one workload, then time it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode setup|timed|traced --scratch DIR

Prints one JSON object as its only line of standard output.  `setup` only
sets up: import, input generation and one warm-up op; then it takes
SETUP_REF_RUNS readings of the machine's slowness (`workloads.slowness`).
Each op's program objects (and, for the CLI, its config file) are built just
before the op, outside its timing.  `timed` then runs the closed loop (one
client, each op after the previous one returns), cycling through the op list
until `--seconds` of wall time have passed; each op is run `workloads.REPEATS` times back to back and
timed as the shortest run, and is followed by a slowness reading.
`traced` runs each of the first whole blocks of ops untraced and then under
the tracer.  Every op is checked after its timing stops.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

SETUP_REF_RUNS = 15


def _one(runner, op, args, run, repeats=1):
    """Time `run(args)` `repeats` times back to back and check the last result;
    returns (the shortest time in seconds, defect or None)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            result = run(args)
        except Exception:
            return time.perf_counter() - start, "raised " + traceback.format_exc(limit=-3)
        times.append(time.perf_counter() - start)
    try:
        return min(times), runner.check(op, args, result)
    except Exception:
        return min(times), "check raised " + traceback.format_exc(limit=-3)


def _loop(runner, ops, seconds):
    """Closed loop over the ops, cycled, until `seconds` of wall time pass.

    Each op is run REPEATS times back to back and followed, untimed, by a
    reading of the machine's slowness."""
    times, refs, failures = [], [], []
    repeats = workloads.REPEATS[runner.name]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(ops)
        elapsed, defect = _one(runner, ops[k], runner.prepare(ops[k]), runner.run, repeats)
        times.append(elapsed)
        if defect is not None:
            failures.append({"op": ops[k], "defect": defect})
        refs.append(workloads.slowness(runner.name))
        i += 1
    return times, refs, failures


def _traced(runner, ops, seconds, spans_path):
    """Each of the first whole blocks of ops, run untraced and then traced.

    Pairing each op's two runs keeps drift in machine speed out of the
    overhead estimate.  The tracer is installed only around the traced run.
    """
    import tracing
    planned = workloads.trace_ops(runner.name)
    tracer = tracing.Tracer()

    def traced_run(args):
        tracer.recording = True
        try:
            with tracer.span(tracing.OP_SPAN):
                return runner.run(args)
        finally:
            tracer.recording = False

    untraced, traced, failures = [], [], []
    deadline = time.perf_counter() + seconds
    for k in range(min(planned, len(ops))):
        if time.perf_counter() >= deadline:
            break
        args = runner.prepare(ops[k])
        elapsed, defect = _one(runner, ops[k], args, runner.run)
        untraced.append(elapsed)
        tracer.op_id = ops[k]["id"]
        tracer.install()
        try:
            elapsed, traced_defect = _one(runner, ops[k], args, traced_run)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        failures += [{"op": ops[k], "defect": d} for d in (defect, traced_defect) if d]
    done = len(traced)
    overhead = (sum(traced) - sum(untraced)) / done
    metrics, shares = tracing.per_layer_report(tracer.spans, tracer.counts, done, overhead)
    _write_spans(tracer.spans, spans_path)
    return {"metrics": metrics, "shares": shares, "ops": done, "planned_ops": planned,
            "attempted": 1 + 2 * done, "failures": failures}


def _write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("name,start,end,parent,op\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--scratch", required=True)
    a = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix=f"{a.workload}-", dir=a.scratch))
    try:
        ops = workloads.generate(a.workload, a.seed)
        runner = workloads.Runner(a.workload, scratch)
        # The warm-up op is the same for every seed, so set-up time is too.
        warm = workloads.generate(a.workload, workloads.WARMUP_SEED)[0]
        setup_end = []

        def warm_run(args):
            try:
                return runner.run(args)
            finally:
                setup_end.append(time.perf_counter())

        _, warm_defect = _one(runner, warm, runner.prepare(warm), warm_run)
        out = {"setup_s": setup_end[0] - _T0, "failures": [],
               "setup_slowness": [workloads.slowness(a.workload)
                                  for _ in range(SETUP_REF_RUNS)]}
        if warm_defect is not None:
            out["failures"].append({"op": warm, "defect": "warm-up " + warm_defect})
        if a.mode == "timed":
            times, refs, failures = _loop(runner, ops, a.seconds)
            out["op_s"], out["slowness"] = times, refs
            out["failures"] += failures
        elif a.mode == "traced":
            result = _traced(runner, ops, a.seconds,
                             Path(a.scratch) / f"spans-{a.workload}.csv")
            out["failures"] += result.pop("failures")
            out.update(result)
        import numpy
        out["numpy"] = numpy.__version__
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
