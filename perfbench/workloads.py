"""Workloads of the benchmark: the seeded scenario generator, the op each
workload times, and the untimed check of every op's output.

`generate(name, seed)` draws every input of every op from the workload seed
alone and returns plain data, so the same seed gives the same op list and
the program receives nothing else.  Scenario combinations are drawn in
shuffled balanced blocks: each block holds every combination once, so a run
of whole blocks has the same mix on every seed and only the continuous
parameters differ.

`Runner(name, scratch)` turns an op into program objects (`prepare`, untimed),
executes it through the public functions of ghzpurify's modules (`run`,
timed), and checks its output (`check`, untimed).  Every call goes through the
module attribute (`cli.main`, not a name imported from it), so the tracer can
rebind it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import statistics
import time
from pathlib import Path

CLI_N = 3
SWEEP_N = 6
SWEEP_POINTS = 31
THRESHOLD = 0.99
ORACLE_N_MAX = 5
ORACLE_CASES = 2
MC_TRIALS = 200_000
MC_SIGMAS = 5.0

# Tier-1 tolerances for engine agreement.
FIDELITY_TOL = 1e-9
KEEP_TOL = 1e-12

WARMUP_SEED = 0

# Machine speed.  On a shared machine the same code runs up to 1.4x slower
# for stretches of tens of seconds.  Each op is therefore followed, untimed,
# by the workload's reference kernels (REFERENCE below), which do not touch
# ghzpurify, and the reported times are scaled to a machine on which those
# kernels take their nominal times: an op's time is divided by the median
# slowness (see `slowness`) of the REF_WINDOW ops around it.
REF_WINDOW = 9

# Back-to-back runs of each op per workload; the op's time is the shortest.
# A CLI op takes a few ms, so a burst of load from other processes on the
# machine can double one run of it, and such bursts, not the program, set
# the tail of single runs: on a shared 2-core x86 machine, over five seeds,
# p98 of single runs spread 0.23 of its median and p98 of the shortest of
# three runs 0.07.  The other ops take tens of ms or more, so one run
# averages the bursts out.
REPEATS = {"cli_run_n3": 3, "sweep_n6": 1, "oracle_n5": 1, "mc_noisy": 1}

# The tail percentile reported per workload: fixed, so it compares like with
# like between runs and commits, and chosen so that a run of 25 seconds
# leaves at least 10 samples beyond it.  It falls inside the band of each
# workload's costliest scenario rather than among the few ops a burst of
# machine load slowed.  On cli_run_n3, whose costliest ops are few and
# spread thinly, p90 of the scaled times spread 0.04 of its median over nine
# seeds, against 0.09 for p95 and p98.  On sweep_n6 the costliest quarter of
# the ops take about twice as long as the next ones, so p75 and p80 lie at
# the edge of that band: over six seeds p75 spread 0.45, p80 0.07 and p85,
# inside the band, 0.05.
TAIL_PERCENTILE = {"cli_run_n3": 90.0, "sweep_n6": 85.0, "oracle_n5": 80.0, "mc_noisy": 95.0}

MODES = ("even-only", "even-plus-odd", "six-mode-pbs")

# Ops drawn per workload, in whole blocks: about as many as one timed run
# completes, so the tail percentile comes from distinct inputs rather than
# from repeats of the few costliest ones.  The timed loop cycles the list if
# it runs out.  The traced run times whole blocks too, so its mix is balanced
# and its computed counts repeat exactly for a seed.
POOL_BLOCKS = {"cli_run_n3": 40, "sweep_n6": 16, "oracle_n5": 64, "mc_noisy": 16}
TRACE_BLOCKS = {"cli_run_n3": 4, "sweep_n6": 3, "oracle_n5": 16, "mc_noisy": 2}


def _arithmetic():
    total = 0
    for i in range(15_000):
        total += i * i


def _containers():
    table = {f"k{i}": [i, str(i) * 3, i * 0.5] for i in range(400)}
    json.loads(json.dumps(table))
    sorted(table.items(), key=lambda kv: kv[1][2], reverse=True)


# Each workload's reference kernels, each with its nominal time, about its
# time on a 2-core x86 machine.  Kernels that load different parts of the
# machine slow down by different amounts, so a workload whose ops use both
# the interpreter's containers and plain arithmetic has both.  Under load
# added on the other core (a busy loop, a memory stream, file writes), the
# ratio of the CLI ops to the container kernel moved by 3%, against 17% to
# the arithmetic one.  Between runs of the same code, the oracle and MC
# figures spread 2-7% when scaled by the arithmetic kernel and 9-15% by the
# container kernel.  Over six runs, the coefficient of variation of the
# sweep's p50 was 0.144 unscaled, 0.048 scaled by the arithmetic kernel,
# 0.045 by the container kernel and 0.025 by both.
REFERENCE = {"cli_run_n3": ((_containers, 1.0e-3),),
             "sweep_n6": ((_containers, 1.0e-3), (_arithmetic, 1.0e-3)),
             "oracle_n5": ((_arithmetic, 1.0e-3),),
             "mc_noisy": ((_arithmetic, 1.0e-3),)}


def slowness(name: str) -> float:
    """How many times slower than nominal the machine runs workload `name`'s
    reference kernels now: the geometric mean, over the kernels, of the
    shortest of REPEATS[name] runs (as for the workload's ops) over the
    kernel's nominal time."""
    logs = []
    for kernel, nominal in REFERENCE[name]:
        times = []
        for _ in range(REPEATS[name]):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        logs.append(math.log(min(times) / nominal))
    return math.exp(statistics.fmean(logs))


def speed_factor(readings: list[float]) -> float:
    """One over the median of the slowness `readings`."""
    return 1.0 / statistics.median(readings)


def speed_factors(readings: list[float]) -> list[float]:
    """Per op, the speed factor of the slowness readings of the ops around it."""
    half = REF_WINDOW // 2
    return [speed_factor(readings[max(0, i - half):i + half + 1])
            for i in range(len(readings))]


# Steps of the R2 low-discrepancy sequence: point b of it is
# (r1 + b * R2[0], r2 + b * R2[1]) mod 1, and every run of its first points
# spreads evenly over the unit square.
R2 = (0.7548776662466927, 0.5698402909980532)


def _spread(rng: random.Random, combos, blocks: int, dim: int) -> dict:
    """Per combination, coordinate `dim` of the first `blocks` points of an R2
    sequence with a random start: block b uses point b.  However many blocks
    a run completes, it spreads each combination's parameters evenly over
    their ranges, so the mix's cost varies little between seeds."""
    out = {}
    for combo in combos:
        start = rng.random()
        out[combo] = [(start + b * R2[dim]) % 1.0 for b in range(blocks)]
    return out


def _cli_ops(rng: random.Random) -> list[dict]:
    combos = list(itertools.product(
        ("werner", "binary", "bitflip"),
        (("P1", "P2"), ("P2", "P1"), ("P1", "P2", "P2")),
        MODES, ("threshold", "rounds")))
    blocks = POOL_BLOCKS["cli_run_n3"]
    level, rounds = _spread(rng, combos, blocks, 0), _spread(rng, combos, blocks, 1)
    ops = []
    for b in range(blocks):
        rng.shuffle(combos)
        for combo in combos:
            initial, steps, mode, stop = combo
            u = level[combo][b]
            op = {"initial": initial, "schedule": list(steps), "mode": mode}
            if initial == "werner":
                op["x"] = 0.6 + 0.35 * u
            elif initial == "binary":
                op["F"] = 0.6 + 0.35 * u
            else:
                w0 = 0.6 + 0.3 * u
                split = [rng.random() + 0.05 for _ in range(CLI_N)]
                op["weights"] = [w0] + [(1.0 - w0) * s / sum(split) for s in split]
            op["stop"] = ({"threshold": THRESHOLD} if stop == "threshold"
                          else {"rounds": 1 + int(8 * rounds[combo][b])})
            ops.append(op)
    return ops


def _sweep_ops(rng: random.Random) -> list[dict]:
    combos = list(itertools.product(
        ("x", "F"), ("even-only", "even-plus-odd"), (("P1", "P2"), ("P2", "P1"))))
    blocks = POOL_BLOCKS["sweep_n6"]
    low, high = _spread(rng, combos, blocks, 0), _spread(rng, combos, blocks, 1)
    ops = []
    for b in range(blocks):
        rng.shuffle(combos)
        for combo in combos:
            param, mode, steps = combo
            lo = (0.5 if param == "x" else 0.55) + 0.1 * low[combo][b]
            hi = 0.9 + 0.08 * high[combo][b]
            step = (hi - lo) / (SWEEP_POINTS - 1)
            ops.append({"param": param, "mode": mode, "schedule": list(steps),
                        "values": [lo + i * step for i in range(SWEEP_POINTS)]})
    return ops


def _oracle_ops(rng: random.Random) -> list[dict]:
    return [{"seed": rng.getrandbits(31)} for _ in range(POOL_BLOCKS["oracle_n5"])]


def _mc_ops(rng: random.Random) -> list[dict]:
    combos = list(itertools.product((3, 5), (0.0, 0.05, 0.2), ("P1", "P2"), MODES))
    ops = []
    for _ in range(POOL_BLOCKS["mc_noisy"]):
        rng.shuffle(combos)
        for n, eps, step, mode in combos:
            ops.append({"n": n, "epsilon": eps, "step": step, "mode": mode,
                        "ensemble_seed": rng.getrandbits(31),
                        "mc_seed": rng.getrandbits(31)})
    return ops


_GENERATORS = {"cli_run_n3": _cli_ops, "sweep_n6": _sweep_ops,
               "oracle_n5": _oracle_ops, "mc_noisy": _mc_ops}
WORKLOADS = tuple(_GENERATORS)


def block_size(name: str) -> int:
    return len(_GENERATORS[name](random.Random(0))) // POOL_BLOCKS[name]


def trace_ops(name: str) -> int:
    return TRACE_BLOCKS[name] * block_size(name)


def generate(name: str, seed: int) -> list[dict]:
    """The op list of workload `name` for `seed`; op i carries "id": i."""
    ops = _GENERATORS[name](random.Random(f"{name}:{seed}"))
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


class Runner:
    """Prepare, run and check the ops of one workload.

    `scratch` is a private directory for CLI outputs and config files.
    """

    def __init__(self, name: str, scratch: Path):
        from ghzpurify import cli, exact, ghz, mc, purify, schedule, validation
        from ghzpurify.optics import DiscriminationMode, ModeKind
        from ghzpurify.purify import StepKind
        self.name = name
        self.scratch = Path(scratch)
        self.cli, self.exact, self.ghz, self.mc = cli, exact, ghz, mc
        self.purify, self.schedule, self.validation = purify, schedule, validation
        self.Mode, self.ModeKind, self.StepKind = DiscriminationMode, ModeKind, StepKind
        # The error label of the program's binary ensembles: a flip of qubit 1.
        self._sweep_error = ghz.canonical_label("1" + "0" * (SWEEP_N - 1), +1)
        self.outdir = self.scratch / "out"
        self.outdir.mkdir(parents=True, exist_ok=True)
        # prepare(op) -> args, untimed; run(args) -> result, the timed op;
        # check(op, args, result) -> None or a description of the defect.
        self.prepare = getattr(self, "_prepare_" + name)
        self.run = getattr(self, "_run_" + name)
        self.check = getattr(self, "_check_" + name)

    def _mode(self, kind: str, epsilon: float = 0.0):
        return self.Mode(self.ModeKind(kind), epsilon, math.pi)

    def _schedule(self, op: dict):
        stop = op.get("stop", {"threshold": THRESHOLD})
        return self.schedule.Schedule(
            tuple(self.StepKind(s) for s in op["schedule"]), self._mode(op["mode"]),
            stop_rounds=stop.get("rounds"), stop_threshold=stop.get("threshold"))

    # -- prepare ---------------------------------------------------------------

    def _prepare_cli_run_n3(self, op):
        argv = ["run", "--n", str(CLI_N), "--schedule", ",".join(op["schedule"]),
                "--mode", op["mode"], "--outdir", str(self.outdir)]
        stop = op["stop"]
        argv += (["--threshold", repr(stop["threshold"])] if "threshold" in stop
                 else ["--rounds", str(stop["rounds"])])
        if op["initial"] == "werner":
            argv += ["--x", repr(op["x"])]
        elif op["initial"] == "binary":
            argv += ["--F", repr(op["F"])]
        else:
            path = self.scratch / f"config-{op['id']}.json"
            path.write_text(json.dumps(
                {"initial": {"type": "bitflip", "weights": op["weights"]}}))
            argv += ["--config", str(path)]
        return argv

    def _prepare_sweep_n6(self, op):
        return op["param"], op["values"], self._schedule(op)

    def _prepare_oracle_n5(self, op):
        return op["seed"]

    def _prepare_mc_noisy(self, op):
        import numpy as np
        ens = self.ghz.random_ghz_diagonal(op["n"], np.random.default_rng(op["ensemble_seed"]))
        return (ens, self.StepKind(op["step"]), self._mode(op["mode"], op["epsilon"]),
                op["mc_seed"])

    # -- run -------------------------------------------------------------------

    def _run_cli_run_n3(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(argv)

    def _run_sweep_n6(self, args):
        param, values, sched = args
        return self.schedule.sweep(param, values, SWEEP_N, sched, "fast")

    def _run_oracle_n5(self, seed):
        return self.validation.check_oracle_equivalence(
            n_max=ORACLE_N_MAX, seed=seed, cases=ORACLE_CASES)

    def _run_mc_noisy(self, args):
        ens, step, mode, seed = args
        return self.mc.mc_sample_step(ens, step, mode, MC_TRIALS, seed)

    # -- check -----------------------------------------------------------------

    def _initial_cli(self, op):
        if op["initial"] == "werner":
            return self.ghz.build_werner(op["x"], CLI_N)
        if op["initial"] == "binary":
            error = self.ghz.canonical_label("1" + "0" * (CLI_N - 1), +1)
            return self.ghz.build_binary_ensemble(op["F"], error, CLI_N)
        return self.ghz.build_bitflip_ensemble(op["weights"], CLI_N)

    def _check_cli_run_n3(self, op, args, code):
        with open(self.outdir / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        summary = json.loads((self.outdir / "summary.json").read_text())
        if code not in (0, 3) or (code == 0) != summary["converged"]:
            return f"exit code {code} with converged={summary['converged']}"
        sched = self._schedule(op)
        fast = self.schedule.run_schedule(self._initial_cli(op), sched, "fast",
                                          record_ensembles=True)
        if len(rows) != len(fast.rounds) or summary["rounds"] != fast.n_rounds:
            return f"{len(rows) - 1} rounds in trace.csv, {fast.n_rounds} in-process"
        # Each round against one exact-engine step from the same input state:
        # the tier-1 tolerances bound one step, and round-off accumulated over
        # a long trajectory is not a step's error.
        for k, row in enumerate(rows):
            rho = self.ghz.ensemble_to_density(fast.round_ensembles[max(k - 1, 0)])
            if k == 0:
                fid, keep = self.exact.fidelity_to_target(rho), 1.0
            else:
                rho, keep = self.exact.exact_step(rho, self.StepKind(row[1]), sched.mode)
                fid = self.exact.fidelity_to_target(rho)
            if row[1] != fast.rounds[k].step:
                return f"round {k}: step {row[1]}, schedule {fast.rounds[k].step}"
            if abs(float(row[2]) - fid) > FIDELITY_TOL:
                return f"round {k}: fidelity {row[2]}, exact step {fid!r}"
            if abs(float(row[3]) - keep) > KEEP_TOL:
                return f"round {k}: keep {row[3]}, exact step {keep!r}"
        return None

    def _check_sweep_n6(self, op, args, rows):
        param, values, sched = args
        if len(rows) != len(values):
            return f"{len(rows)} rows for {len(values)} grid values"
        for row in rows:
            where = f"{param}={row.value!r}"
            if not 0.0 <= row.final_fidelity <= 1.0:
                return f"{where}: fidelity {row.final_fidelity!r} outside [0, 1]"
            if row.converged and row.final_fidelity < THRESHOLD:
                return f"{where}: converged below the threshold"
            if not 0.0 < row.cumulative_yield <= 1.0:
                return f"{where}: yield {row.cumulative_yield!r} outside (0, 1]"
            if row.rounds > self.schedule.MAX_ROUNDS:
                return f"{where}: {row.rounds} rounds > MAX_ROUNDS"
        even, both = self._mode("even-only"), self._mode("even-plus-odd")
        target = self.ghz.GhzDiagonalEnsemble(
            SWEEP_N, {self.ghz.target_label(SWEEP_N): 1.0})
        # The doubling law on every tenth initial ensemble: a full check
        # would cost four times the op itself.
        for v in values[::10]:
            initial = (self.ghz.build_werner(v, SWEEP_N) if param == "x" else
                       self.ghz.build_binary_ensemble(v, self._sweep_error, SWEEP_N))
            for step in (self.StepKind.P1, self.StepKind.P2):
                k1 = self.purify.apply_step(initial, step, even).keep_probability
                k2 = self.purify.apply_step(initial, step, both).keep_probability
                if abs(k2 - 2.0 * k1) > KEEP_TOL:
                    return f"{param}={v!r} {step.value}: keep {k2!r} != 2 x {k1!r}"
        for step in (self.StepKind.P1, self.StepKind.P2):
            for mode in (even, both):
                out = self.purify.apply_step(target, step, mode).output
                if abs(self.ghz.ensemble_fidelity(out) - 1.0) > FIDELITY_TOL:
                    return f"target is not a fixed point of {step.value}"
        return None

    def _check_oracle_n5(self, op, args, result):
        return None if result.passed else f"{result.name} failed: {result.detail}"

    def _check_mc_noisy(self, op, args, report):
        ens, step, mode, _ = args
        weights = report.output.weights
        keep = report.keep_probability
        if not 0.0 < keep <= 1.0:
            return f"keep {keep!r} outside (0, 1]"
        if abs(sum(weights.values()) - 1.0) > 1e-9:
            return f"output weights sum to {sum(weights.values())!r}"
        if op["epsilon"] > 0.0:
            return None
        ref = self.purify.apply_step(ens, step, mode)
        if abs(keep - ref.keep_probability) > _binomial_bound(ref.keep_probability, MC_TRIALS):
            return f"keep {keep!r}, closed form {ref.keep_probability!r}"
        kept = keep * MC_TRIALS
        for label in set(weights) | set(ref.output.weights):
            want = ref.output.weight(label)
            if abs(report.output.weight(label) - want) > _binomial_bound(want, kept):
                return (f"weight of {label.rep}{'+' if label.sign > 0 else '-'} "
                        f"{report.output.weight(label)!r}, closed form {want!r}")
        return None


def _binomial_bound(p: float, trials: float) -> float:
    # MC_SIGMAS standard deviations, with a variance floor of one count, plus
    # MC_SIGMAS**2 counts: the count of a rare label is skewed like a Poisson
    # count, and a run checks thousands of labels, so the normal bound alone
    # fails about once in ten runs by chance.
    return (MC_SIGMAS * math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
            + MC_SIGMAS ** 2 / trials)
