"""Benchmark of ghzpurify: one command, four workloads, every metric with its unit.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`.
Each workload runs in fresh worker processes (perfbench/worker.py) with
BLAS pinned to one thread, a fixed string-hash seed, no bytecode cache
written and no $GHZPURIFY_OUTDIR; scratch files go under
`.bench_build/perfbench/` and are removed by the worker that made them.

`--trace 0` reports the end-to-end metrics: `setup_s` is the median over
SETUP_RUNS fresh processes, the rest come from one timed process.  Their
times are scaled to a fixed machine speed (see `workloads.REFERENCE`); the lines
before the result also give the unscaled wall times.
`--trace 1` reports the per-layer metrics from a separate traced process.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are the
same numbers for people, plus the environment and every failed op with its
inputs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
BUDGET_S = 170.0
BLAS_THREADS = 1
HASH_SEED = "0"


class BenchError(Exception):
    pass


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile of `values`, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GHZPURIFY_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # String hashing lays out the dict-keyed ensembles; a fixed hash seed
    # gives every process the same layout.
    env["PYTHONHASHSEED"] = HASH_SEED
    # Nothing is written into the source tree, and every process compiles alike.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Bench:
    def __init__(self, root: Path, seed: int, seconds: float):
        self.root, self.seed, self.seconds = root, seed, seconds
        self.env = _worker_env(root)
        self.end_to_end_units, self.per_layer_units = units(root)
        self.scratch = root / ".bench_build" / "perfbench"
        self.deadline = 0.0

    def worker(self, workload: str, mode: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        self.scratch.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--seconds", str(self.seconds),
               "--mode", mode, "--scratch", str(self.scratch)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} worker ran past the time budget")
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def end_to_end(self, workload: str) -> tuple[dict, int, list, list]:
        setups = [self.worker(workload, "setup") for _ in range(SETUP_RUNS - 1)]
        timed = self.worker(workload, "timed")
        setups.append(timed)
        failures = [f for r in setups for f in r["failures"]]
        attempted = len(timed["op_s"]) + len(setups)
        wall_ms = [1e3 * t for t in timed["op_s"]]
        op_ms = [t * f for t, f in
                 zip(wall_ms, workloads.speed_factors(timed["slowness"]))]
        setup_wall = [r["setup_s"] for r in setups]
        setup_s = [t * workloads.speed_factor(r["setup_slowness"])
                   for t, r in zip(setup_wall, setups)]
        percentile = workloads.TAIL_PERCENTILE[workload]
        metrics, wall = {}, {}
        for out, times, setup in ((metrics, op_ms, setup_s), (wall, wall_ms, setup_wall)):
            out["ops_per_s"] = 1e3 * len(times) / sum(times)
            out["op_p50_ms"] = statistics.median(times)
            out["op_tail_ms"], beyond = tail(times, percentile)
            out["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mib"] = timed["peak_rss_mib"]
        metrics["pass_ratio"] = 1.0 - len(failures) / attempted
        notes = {k: f"wall {v:.6g}" for k, v in wall.items()}
        notes["op_tail_ms"] += f"; p{percentile:g}, {len(op_ms)} samples, {beyond} beyond"
        notes["setup_s"] += f"; median of {SETUP_RUNS} processes"
        notes["pass_ratio"] = f"fail_ratio = {len(failures)}/{attempted}"
        self.numpy = timed["numpy"]
        return ({k: (v, self.end_to_end_units[k], notes.get(k)) for k, v in metrics.items()},
                attempted, failures, [])

    def per_layer(self, workload: str) -> tuple[dict, int, list, list]:
        traced = self.worker(workload, "traced")
        self.numpy = traced["numpy"]
        metrics = {k: (v, self.per_layer_units[k], None) for k, v in traced["metrics"].items()}
        shares = traced["shares"]
        dominant = max(tracing.LAYERS, key=lambda layer: shares[layer])
        predicted = tracing.PREDICTED_DOMINANT[workload]
        verdict = "confirmed" if dominant == predicted else f"differs from predicted {predicted}"
        lines = [f"{workload} traced {traced['ops']} ops (planned {traced['planned_ops']})",
                 f"{workload} self-time share: " + ", ".join(
                     f"{layer} {100 * s:.1f}%" for layer, s in shares.items() if s > 0),
                 f"{workload} dominant layer: {dominant} ({verdict})"]
        return metrics, traced["attempted"], traced["failures"], lines


def _print_metrics(workload, metrics):
    for name, (value, unit, note) in metrics.items():
        extra = f"  ({note})" if note else ""
        print(f"{workload} {name} = {value:.6g} {unit}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ghzpurify" / "__init__.py").is_file():
        print("error: run from the root of a ghzpurify checkout (no src/ghzpurify)",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    bench = Bench(root, args.seed, args.seconds)

    result_metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            bench.deadline = time.monotonic() + BUDGET_S
            metrics, n, failures, lines = (bench.per_layer if args.trace
                                           else bench.end_to_end)(name)
            for line in lines:
                print(line)
            _print_metrics(name, metrics)
            for f in failures:
                print(f"{name} FAILED op {json.dumps(f['op'])}: {f['defect'].strip()}")
            attempted += n
            failed += len(failures)
            prefix = f"{name}." if args.workload == "all" else ""
            result_metrics.update({prefix + k: {"value": v, "unit": u}
                                   for k, (v, u, _) in metrics.items()})
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": bench.numpy, "openblas_threads": BLAS_THREADS,
           "commit": _git_commit(root), "seed": args.seed, "seconds": args.seconds}
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
