"""Iterated purification schedules: per-round fidelity and yield traces,
and parameter sweeps, on any engine of the `ENGINES` table."""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from . import exact, ghz
from .ghz import (GhzDiagonalEnsemble, binary_weights, canonical_label,
                  ensemble_to_density, is_integer, is_real, werner_weights)
from .optics import DiscriminationMode
from .purify import StepKind, step_map

MAX_ROUNDS = 64


# An engine as the schedule loop calls it: encode(W) -> state,
# step(state, step, mode) -> (state, keep), fidelity(state) and
# readout(n, state) -> ensemble of one row.  Its state is one bare array, a
# row or a stack, so rows leave it by state[mask] and cycles compare its bits.
Engine = namedtuple("Engine", "max_qubits encode step fidelity readout")

# The engines by their CLI names.  Each lambda looks its function up when
# called, so a patched or traced `step_map`, `ensemble_to_density`, ... runs.
ENGINES = {
    "fast": Engine(ghz.MAX_QUBITS_FAST, lambda W: W,
                   lambda W, step, mode: step_map(W, step, mode),
                   lambda W: W[..., 0, 0],
                   lambda n, W: GhzDiagonalEnsemble(n, W)),
    "exact": Engine(ghz.MAX_QUBITS_EXACT, lambda W: ensemble_to_density(W),
                    lambda rho, step, mode: exact.exact_step(rho, step, mode),
                    lambda rho: exact.fidelity_to_target(rho),
                    lambda n, rho: exact.ghz_diagonal_extract(rho)[0]),
}


@dataclass(frozen=True)
class Schedule:
    """Cyclic sequence of steps with either a round-count or a fidelity stop."""

    steps: tuple[StepKind, ...]
    mode: DiscriminationMode
    stop_rounds: int | None = None
    stop_threshold: float | None = None

    def __post_init__(self):
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        # a step given by name ("P1") runs that step; an unknown name raises
        object.__setattr__(self, "steps", tuple(StepKind(s) for s in self.steps))
        if not isinstance(self.mode, DiscriminationMode):
            raise ValueError(f"mode must be a DiscriminationMode, got {self.mode!r}")
        if (self.stop_rounds is None) == (self.stop_threshold is None):
            raise ValueError("specify exactly one of stop_rounds, stop_threshold")
        if self.stop_rounds is not None:
            if not is_integer(self.stop_rounds):
                raise ValueError(f"stop_rounds must be an integer, got {self.stop_rounds!r}")
            object.__setattr__(self, "stop_rounds", int(self.stop_rounds))
            if not 0 <= self.stop_rounds <= MAX_ROUNDS:
                raise ValueError(f"stop_rounds must lie in [0, {MAX_ROUNDS}]")
        if self.stop_threshold is not None:
            if not is_real(self.stop_threshold):
                raise ValueError(f"stop_threshold must be a number, got {self.stop_threshold!r}")
            if not 0.5 < self.stop_threshold <= 1.0:
                raise ValueError("stop_threshold must lie in (1/2, 1]")


@dataclass
class RoundRecord:
    round_index: int
    step: str            # "P1", "P2", or "-" for the initial record
    fidelity: float
    keep_probability: float
    cumulative_yield: float


@dataclass
class ScheduleTrace:
    """Per-round metrics; rounds[0] is the initial state with yield 1.

    cumulative_yield after round k is the product of keep_probability/2 over
    rounds 1..k (two copies consumed per survivor).
    """

    rounds: list[RoundRecord]
    converged: bool
    round_ensembles: list[GhzDiagonalEnsemble] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return len(self.rounds) - 1

    @property
    def final_fidelity(self) -> float:
        return self.rounds[-1].fidelity

    @property
    def cumulative_yield(self) -> float:
        return self.rounds[-1].cumulative_yield


def _replay(records: list, period: int, end: int):
    """Extend a row's records to round `end` by repeating its last cycle.

    The replayed rounds repeat rounds that stayed below any threshold, so a
    frozen row runs to its round stop; the yield is still multiplied round
    by round, so it equals the product of a computed run.
    """
    for k in range(len(records), end + 1):
        fid, keep, _, state = records[k - period]
        records.append((fid, keep, records[-1][2] * (keep / 2.0), state))


def engine_for(engine: str, n: int) -> Engine:
    """The `ENGINES` entry named `engine`, once n is an integer within its
    bounds."""
    if not isinstance(engine, str) or engine not in ENGINES:
        raise ValueError(f"engine must be one of {sorted(ENGINES)}, got {engine!r}")
    eng = ENGINES[engine]
    if not (is_integer(n) and 2 <= n <= eng.max_qubits):
        raise ValueError(f"{engine} engine is bounded at {eng.max_qubits} qubits "
                         f"and takes an integer n >= 2, got {n!r}")
    return eng


def _run_rows(n: int, W, sched: Schedule, engine: str,
              record: bool = False) -> list[list[tuple]]:
    """Run the schedule on one n-qubit ensemble's weights W, or on a stack.

    Returns, per row, its records (fidelity, keep, cumulative yield, state)
    from round 0 on; the state is the round's ensemble from round 1 on with
    `record` set on one ensemble, else None.  The loop's state is the array
    that the `ENGINES` entry named `engine` encodes from W and steps (W, or
    rho), read back as an ensemble only for a recorded round.  All rows step
    together, and each stops on its own: at the threshold, at stop_rounds or
    at MAX_ROUNDS.  A stopped row leaves the stack.  A row whose state at a
    cycle boundary equals, bit for bit, its state at the previous boundary
    repeats that cycle for ever: it leaves the stack too, and its remaining
    rounds are replayed from its own records.
    """
    eng = engine_for(engine, n)
    stacked = W.ndim == 3
    # a round stop never stops a row at a fidelity
    thr = math.inf if sched.stop_threshold is None else sched.stop_threshold
    end = MAX_ROUNDS if sched.stop_rounds is None else sched.stop_rounds
    steps, mode, period = sched.steps, sched.mode, len(sched.steps)
    fid = W[..., 0, 0].reshape(-1).tolist()
    hist = [[(f, 1.0, 1.0, None)] for f in fid]
    stop = [f >= thr for f in fid]
    live = hist   # the records of the rows still in the stack
    state = cycle_start = eng.encode(W)
    k = 0
    while True:
        if True in stop:
            mask = [not s for s in stop]
            live = [records for records, m in zip(live, mask) if m]
            if not live:
                break
            state, cycle_start = state[mask], cycle_start[mask]
        if k == end:
            break
        if k % period == 0:
            cycle_start = state
        state, keep = eng.step(state, steps[k % period], mode)
        fid = eng.fidelity(state)
        k += 1
        fid, keep = (fid.tolist(), keep.tolist()) if stacked else ([float(fid)], [keep])
        snap = eng.readout(n, state) if record else None
        for records, f, p in zip(live, fid, keep):
            records.append((f, p, records[-1][2] * (p / 2.0), snap))
        stop = [f >= thr for f in fid]
        if k % period == 0 and k < end:
            for i, records in enumerate(live):
                # equal states give equal fidelities, so the states are
                # compared only then (a repeat missed costs a computed cycle)
                if records[-1][0] == records[-1 - period][0]:
                    now = state.reshape(len(live), -1)
                    if (now[i] == cycle_start.reshape(len(live), -1)[i]).all():
                        _replay(records, period, end)
                        stop[i] = True
    return hist


def _converged(sched: Schedule, fid: float) -> bool:
    return sched.stop_threshold is None or fid >= sched.stop_threshold


def run_schedule(initial: GhzDiagonalEnsemble, sched: Schedule,
                 engine: str = "fast", record_ensembles: bool = False) -> ScheduleTrace:
    """Apply the schedule's steps cyclically until its stop condition.

    `engine` is a key of `ENGINES`; any other value raises ValueError.  With
    a threshold stop, hitting MAX_ROUNDS first yields converged=False rather
    than an exception.  Once a whole cycle returns the engine's state to its
    bits at the cycle's start, every later cycle repeats it bit for bit, so
    its rounds are replayed from the records.  This is the loop that `sweep`
    runs on a stack, here on `initial.W`; the state is read back as an
    ensemble only for `record_ensembles`, whose round 0 is `initial`.
    """
    records = _run_rows(initial.n_qubits, initial.W, sched, engine, record_ensembles)[0]
    rounds = [RoundRecord(k, sched.steps[(k - 1) % len(sched.steps)].value if k else "-",
                          *r[:3]) for k, r in enumerate(records)]
    ensembles = [initial] + [r[3] for r in records[1:]] if record_ensembles else []
    return ScheduleTrace(rounds, _converged(sched, records[-1][0]), ensembles)


@dataclass
class SweepRow:
    value: float
    initial_fidelity: float
    rounds: int
    final_fidelity: float
    cumulative_yield: float
    converged: bool


# Grid points per stack: bounds the memory of a long sweep (on the exact
# engine at n = 5 a point holds a 32 x 32 complex rho and its temporaries).
SWEEP_BLOCK = 256


def _initial_for(param: str, values: list, n: int):
    if param == "x":
        return werner_weights(values, n)
    if param == "F":
        return binary_weights(values, canonical_label("1" + "0" * (n - 1), +1), n)
    raise ValueError(f"param must be 'x' or 'F', got {param!r}")


def sweep(param: str, values, n_qubits: int, template: Schedule,
          engine: str = "fast") -> list[SweepRow]:
    """One schedule run per grid value; param 'x' builds Werner inputs,
    param 'F' binary bit-flip inputs (error on qubit 1).

    The grid runs in blocks of SWEEP_BLOCK points, each block as one stack
    through the loop of `run_schedule` on `ENGINES[engine]`: every point
    stops, and replays its cycle, on its own, so a row is its point's run.
    """
    values = list(values)
    if not values:
        raise ValueError("empty sweep grid")
    engine_for(engine, n_qubits)   # a bad name or n raises before a stack is built
    rows = []
    for i in range(0, len(values), SWEEP_BLOCK):
        block = values[i:i + SWEEP_BLOCK]
        W = _initial_for(param, block, n_qubits)
        for v, records in zip(block, _run_rows(n_qubits, W, template, engine)):
            fid, _, cum, _ = records[-1]
            rows.append(SweepRow(v, records[0][0], len(records) - 1, fid, cum,
                                 _converged(template, fid)))
    return rows
