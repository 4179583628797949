"""Exact simulator of QND-based multipartite entanglement purification for
N-qubit GHZ ensembles."""

from .ghz import (GhzDiagonalEnsemble, GhzLabel, all_labels,
                  build_binary_ensemble, build_bitflip_ensemble, build_werner,
                  canonical_label, ensemble_fidelity, ensemble_to_density,
                  ghz_label_to_state, target_label)
from .optics import (DiscriminationMode, KerrInteraction, ModeKind, ProbeBeam,
                     ShiftClass, Verdict, discriminate, kerr_evolve,
                     qnd_parity_shift, six_mode_keep)
from .purify import (StepKind, StepReport, apply_step, correction_for_outcome,
                     p1_step, p2_step)
from .exact import (ghz_diagonal_extract, fidelity_to_target, p1_exact,
                    p2_exact, project_parity, tensor_pair)
from .mc import mc_sample_step
from .schedule import (Schedule, ScheduleTrace, compare_orderings,
                       run_schedule, sweep)

__all__ = [
    "GhzDiagonalEnsemble", "GhzLabel", "all_labels", "build_binary_ensemble",
    "build_bitflip_ensemble", "build_werner", "canonical_label",
    "ensemble_fidelity", "ensemble_to_density", "ghz_label_to_state",
    "target_label",
    "DiscriminationMode", "KerrInteraction", "ModeKind", "ProbeBeam",
    "ShiftClass", "Verdict", "discriminate", "kerr_evolve", "qnd_parity_shift",
    "six_mode_keep",
    "StepKind", "StepReport", "apply_step", "correction_for_outcome",
    "p1_step", "p2_step",
    "ghz_diagonal_extract", "fidelity_to_target", "p1_exact", "p2_exact",
    "project_parity", "tensor_pair",
    "mc_sample_step",
    "Schedule", "ScheduleTrace", "compare_orderings", "run_schedule", "sweep",
]
