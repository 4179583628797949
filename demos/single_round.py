"""
One purification round, step by step
====================================

Starts from a three-qubit GHZ ensemble with a bit-flip error on qubits
2 and 3, applies the bit-flip step P1, then puts a phase error through
the phase-flip step P2.  The exact density-matrix engine is run next to
the closed-form engine to show they agree.

Run:  python demos/single_round.py
"""
import numpy as np

from ghzpurify.exact import exact_step, fidelity_to_target
from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel,
                           build_binary_ensemble, ensemble_fidelity,
                           ensemble_to_density)
from ghzpurify.optics import DiscriminationMode
from ghzpurify.purify import StepKind, p1_step, p2_step

mode = DiscriminationMode.even_only()

# --- P1: bit-flip correction --------------------------------------------
F = 0.8
ens = build_binary_ensemble(F, GhzLabel("011", +1), 3)
print(f"input: fidelity {ensemble_fidelity(ens):.4f}, "
      f"error weight {1 - F:.2f} on the qubit-1 pattern")

rep = p1_step(ens, mode)
print(f"after P1: fidelity {ensemble_fidelity(rep.output):.6f} "
      f"(= F^2/(F^2+(1-F)^2) = {F**2 / (F**2 + (1-F)**2):.6f})")
print(f"keep probability {rep.keep_probability:.4f}")

rho_out, keep = exact_step(ensemble_to_density(ens), StepKind.P1, mode)
print(f"exact engine: fidelity {fidelity_to_target(rho_out):.6f}, "
      f"keep {keep:.4f}")
print()

# --- P2: phase-flip correction ------------------------------------------
phase_ens = GhzDiagonalEnsemble(3, {GhzLabel("000", +1): F,
                                    GhzLabel("000", -1): 1 - F})
print(f"phase-error input: fidelity {ensemble_fidelity(phase_ens):.4f}")

rep2 = p2_step(phase_ens, mode)
print(f"after P2: fidelity {ensemble_fidelity(rep2.output):.6f}, "
      f"keep {rep2.keep_probability:.4f}")

# The parity check runs in the Hadamard-rotated frame, where each copy is
# spread over 2^(n-1) strings; that costs a factor 2^-(n-1) in yield
# relative to the bit-flip step but applies the same fidelity map.
rho2, keep2 = exact_step(ensemble_to_density(phase_ens), StepKind.P2, mode)
print(f"exact engine: fidelity {fidelity_to_target(rho2):.6f}, keep {keep2:.4f}")
assert np.isclose(keep2, rep2.keep_probability, atol=1e-12)
