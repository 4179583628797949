"""Iterated purification schedules: fidelity/yield traces, parameter sweeps
and ordering comparisons."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact
from .ghz import (GhzDiagonalEnsemble, build_binary_ensemble, build_werner,
                  canonical_label, ensemble_fidelity, ensemble_to_density)
from .optics import DiscriminationMode
from .purify import StepKind, apply_step

MAX_ROUNDS = 64


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
        if (self.stop_rounds is None) == (self.stop_threshold is None):
            raise ValueError("specify exactly one of stop_rounds, stop_threshold")
        if self.stop_rounds is not None:
            if not isinstance(self.stop_rounds, int) or isinstance(self.stop_rounds, bool):
                raise ValueError(f"stop_rounds must be an integer, got {self.stop_rounds!r}")
            if not 0 <= self.stop_rounds <= MAX_ROUNDS:
                raise ValueError(f"stop_rounds must lie in [0, {MAX_ROUNDS}]")
        if self.stop_threshold is not None:
            if isinstance(self.stop_threshold, bool):
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


def run_schedule(initial: GhzDiagonalEnsemble, sched: Schedule,
                 engine: str = "fast", record_ensembles: bool = False) -> ScheduleTrace:
    """Apply the schedule's steps cyclically until its stop condition.

    With a threshold stop, hitting MAX_ROUNDS first yields converged=False
    rather than an exception.  Once a whole cycle returns the state (the
    ensemble, or rho on the exact engine) to its bits at the cycle's start,
    every later cycle repeats it bit for bit, so its rounds are replayed from
    the records instead of recomputed.
    """
    if engine not in ("fast", "exact"):
        raise ValueError(f"engine must be 'fast' or 'exact', got {engine!r}")
    if engine == "exact" and initial.n_qubits > exact.MAX_QUBITS_EXACT:
        raise ValueError(f"exact engine is bounded at {exact.MAX_QUBITS_EXACT} qubits")

    ens = initial
    rho = ensemble_to_density(initial) if engine == "exact" else None
    fid = ensemble_fidelity(initial)
    rounds = [RoundRecord(0, "-", fid, 1.0, 1.0)]
    ensembles = [initial] if record_ensembles else []
    cum_yield = 1.0
    converged = sched.stop_threshold is not None and fid >= sched.stop_threshold

    period = len(sched.steps)
    cycle_start = None   # the state at the last cycle boundary
    repeating = False
    k = 0
    while not converged:
        if sched.stop_rounds is not None and k >= sched.stop_rounds:
            converged = True
            break
        if sched.stop_threshold is not None and k >= MAX_ROUNDS:
            break
        step = sched.steps[k % period]
        if k % period == 0 and not repeating:
            state = ens.W if engine == "fast" else rho
            repeating = cycle_start is not None and np.array_equal(state, cycle_start)
            cycle_start = state
        if repeating:
            prev = rounds[k + 1 - period]
            fid, keep = prev.fidelity, prev.keep_probability
        elif engine == "fast":
            report = apply_step(ens, step, sched.mode)
            ens = report.output
            fid = ensemble_fidelity(ens)
            keep = report.keep_probability
        else:
            rho, keep = exact.exact_step(rho, step, sched.mode)
            fid = exact.fidelity_to_target(rho)
        k += 1
        cum_yield *= keep / 2.0
        rounds.append(RoundRecord(k, step.value, fid, keep, cum_yield))
        if record_ensembles:
            ensembles.append(ensembles[k - period] if repeating else
                             ens if engine == "fast" else
                             exact.ghz_diagonal_extract(rho)[0])
        if sched.stop_threshold is not None and fid >= sched.stop_threshold:
            converged = True

    return ScheduleTrace(rounds, converged, ensembles)


@dataclass
class SweepRow:
    value: float
    initial_fidelity: float
    rounds: int
    final_fidelity: float
    cumulative_yield: float
    converged: bool


def _initial_for(param: str, value: float, n: int) -> GhzDiagonalEnsemble:
    if param == "x":
        return build_werner(value, n)
    if param == "F":
        return build_binary_ensemble(value, canonical_label("1" + "0" * (n - 1), +1), n)
    raise ValueError(f"param must be 'x' or 'F', got {param!r}")


def sweep(param: str, values, n_qubits: int, template: Schedule,
          engine: str = "fast") -> list[SweepRow]:
    """One schedule run per grid value; param 'x' builds Werner inputs,
    param 'F' binary bit-flip inputs (error on qubit 1)."""
    values = list(values)
    if not values:
        raise ValueError("empty sweep grid")
    rows = []
    for v in values:
        initial = _initial_for(param, v, n_qubits)
        trace = run_schedule(initial, template, engine)
        rows.append(SweepRow(v, ensemble_fidelity(initial), trace.n_rounds,
                             trace.final_fidelity, trace.cumulative_yield,
                             trace.converged))
    return rows


@dataclass
class OrderingSummary:
    steps: tuple[StepKind, ...]
    rounds: int
    final_fidelity: float
    cumulative_yield: float
    converged: bool


@dataclass
class OrderingComparison:
    summaries: list[OrderingSummary]
    by_rounds: list[int]       # indices into summaries, best first
    by_yield: list[int]
    ties_rounds: list[tuple[int, int]]
    ties_yield: list[tuple[int, int]]


def compare_orderings(initial: GhzDiagonalEnsemble, orderings: list[Schedule],
                      engine: str = "fast") -> OrderingComparison:
    """Rank schedules by rounds-to-stop and by cumulative yield; ties are
    reported, not broken."""
    if len(orderings) < 2:
        raise ValueError("need at least two orderings to compare")
    summaries = []
    for sched in orderings:
        trace = run_schedule(initial, sched, engine)
        summaries.append(OrderingSummary(sched.steps, trace.n_rounds,
                                         trace.final_fidelity,
                                         trace.cumulative_yield, trace.converged))

    # Non-convergent runs rank last regardless of metric.
    def rounds_key(i):
        return (not summaries[i].converged, summaries[i].rounds)

    def yield_key(i):
        return (not summaries[i].converged, -summaries[i].cumulative_yield)

    idx = list(range(len(summaries)))
    by_rounds = sorted(idx, key=rounds_key)
    by_yield = sorted(idx, key=yield_key)
    ties_rounds = [(i, j) for a, i in enumerate(idx) for j in idx[a + 1:]
                   if rounds_key(i) == rounds_key(j)]
    ties_yield = [(i, j) for a, i in enumerate(idx) for j in idx[a + 1:]
                  if math.isclose(summaries[i].cumulative_yield,
                                  summaries[j].cumulative_yield, rel_tol=1e-12)
                  and summaries[i].converged == summaries[j].converged]
    return OrderingComparison(summaries, by_rounds, by_yield, ties_rounds, ties_yield)
