"""Purification steps P1 (bit-flip correction) and P2 (phase-flip correction)
as closed-form maps on GHZ-diagonal ensembles.

Derivation of the closed forms (validated against the exact engine):

P1.  A pair of copies labelled (e1, s1), (e2, s2) passes the all-even parity
check iff e1 == e2, with probability 1/2; the surviving two-copy state is
(|e e> + s1 s2 |~e ~e>)/sqrt(2).  Measuring copy 2 in the rotated basis and
applying the parity-of-outcome phase correction leaves (e, s1*s2).  Under
theta = pi the all-odd branch (probability 1/2, same pairs) is recovered by
bit flips on copy 2 and gives the identical output, doubling the yield.

P2.  Both copies are rotated into the Hadamard frame, where the state with
label (e, s) is spread uniformly over the 2^(n-1) strings of weight parity s
with phases (-1)^(x.e).  The all-even check keeps pairs with s1 == s2 with
probability 2^-(n-1) regardless of e1, e2; after the X-basis measurement of
copy 2 (outcome m), the phase-flip pattern m on copy 1, and the final
Hadamard frame change, the kept copy carries the label (e1 xor e2, s).  The
all-odd branch pairs signs with s1 == s2 * (-1)^n, so it doubles the yield
only for even n; for odd n it admits opposite-sign pairs (output sign s1).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .ghz import GhzDiagonalEnsemble, fwht, nonnegative
from .optics import DiscriminationMode, ModeKind

MIN_KEEP = 1e-300


class StepKind(str, Enum):
    P1 = "P1"
    P2 = "P2"


@dataclass
class StepReport:
    """Output ensemble and keep probability of one purification step.

    branch_stats is filled by the Monte Carlo only: ("spurious", "*") holds
    the share of trials kept on a misread verdict, when it is nonzero.
    """

    output: GhzDiagonalEnsemble
    keep_probability: float
    branch_stats: dict[tuple[str, str], float] = field(default_factory=dict)


def correction_for_outcome(step: StepKind, outcome: str) -> tuple[int, ...]:
    """Qubits (0-based) of the kept copy that receive a phase flip.

    P1: flip the first qubit iff the outcome has an odd number of ones.
    P2: flip every qubit where the outcome reads 1, cancelling the sign
    signature (-1)^(x.m) of the X-basis measurement.
    """
    if any(c not in "01" for c in outcome):
        raise ValueError(f"outcome must be a bit string, got {outcome!r}")
    if step is StepKind.P1:
        return (0,) if outcome.count("1") % 2 == 1 else ()
    if step is StepKind.P2:
        return tuple(i for i, c in enumerate(outcome) if c == "1")
    raise ValueError(f"unknown step kind {step!r}")


def check_ideal_readout(mode: DiscriminationMode):
    """The deterministic step maps, closed-form and dense, model an
    error-free parity readout."""
    if mode.misclassification_probability != 0.0:
        raise ValueError("epsilon must be 0: the fast and exact engines model "
                         "an ideal parity readout (mc_sample_step samples a noisy one)")


def _finish(raw: np.ndarray, scale: float):
    """raw holds the kept mass of each output label divided by scale; it is
    normalised in place by the total that gives the keep probability, one
    per row of a stack.  Returns (W', keep), W' checked by `nonnegative` as
    the ensemble constructor checks it; a keep below MIN_KEEP or NaN raises.
    Each row sums to one, as it is divided by its own total.  The keep is capped
    at 1: a total that rounds past it (weights that sum to an ulp above 1,
    or (w+^2 + w-^2) + 2 w+ w- past (w+ + w-)^2) is still a probability."""
    if raw.ndim == 2:
        total = float(raw.sum())
        keep = lowest = scale * total
    else:
        total = raw.reshape(len(raw), -1).sum(axis=1)
        keep = scale * total
        lowest, total = keep.min(), total[:, None, None]
    if not lowest >= MIN_KEEP:
        raise ValueError("keep probability underflowed or is NaN; "
                         "input is not purifiable")
    raw /= total
    keep = min(keep, 1.0) if raw.ndim == 2 else np.minimum(keep, 1.0, out=keep)
    return nonnegative(raw), keep


def p1_map(W: np.ndarray, mode: DiscriminationMode):
    """Bit-flip correction on two independent copies of the weights W (of
    every row of a stack): (W, mode) -> (W', keep)."""
    check_ideal_readout(mode)
    branches = 2 if mode.kind is ModeKind.EVEN_PLUS_ODD else 1
    # Equal-rep pairs pass each kept branch with probability 1/2 and leave
    # (e, s1*s2); the output does not depend on how many branches are kept.
    # One C-ordered buffer whatever the layout of W, filled in place:
    # (wp^2 + wm^2, (2 wp) wm), each rounded as the plain expression would be.
    raw = np.multiply(W, W, order="C")
    raw[..., 0, :] += raw[..., 1, :]
    np.multiply(W[..., 0, :], 2.0, out=raw[..., 1, :])
    raw[..., 1, :] *= W[..., 1, :]
    return _finish(raw, 0.5 * branches)


def p2_map(W: np.ndarray, mode: DiscriminationMode):
    """Phase-flip correction via Hadamard-frame parity checking on the
    weights W (of every row of a stack): (W, mode) -> (W', keep).

    A kept pair (probability 2^-(n-1)) leaves rep e1 xor e2, so the step is
    one XOR convolution, the P2 map of Murao et al., PRA 57, R4075 (1998):
    with F = fwht(W), each sign row s maps to fwht(F_s^2) / 2^(n-1).  Under
    even-plus-odd at odd n the opposite-sign pairs pass too, each output row
    carrying its copy-1 sign, so F_+ F_- joins both squares before the one
    inverse transform.  Every step takes two transforms of a (..., 2, m)
    block, whatever the stack height.
    """
    check_ideal_readout(mode)
    n = W.shape[-1].bit_length()   # m = 2^(n-1)
    both = mode.kind is ModeKind.EVEN_PLUS_ODD
    F = fwht(W)
    P = F * F
    if both and n % 2 == 1:
        P += F[..., :1, :] * F[..., 1:, :]
    # for even n the all-odd branch mirrors the all-even one exactly
    branches = 2 if both and n % 2 == 0 else 1
    return _finish(fwht(P), branches * 2.0 ** -(2 * (n - 1)))


def step_map(W: np.ndarray, step: StepKind | str, mode: DiscriminationMode):
    """One step on the weights W: (W, step, mode) -> (W', keep)."""
    if not isinstance(step, StepKind):
        step = StepKind(step)
    return (p1_map if step is StepKind.P1 else p2_map)(W, mode)


def apply_step(ens: GhzDiagonalEnsemble, step: StepKind | str,
               mode: DiscriminationMode) -> StepReport:
    """`step_map` on the ensemble's weights, its output wrapped in a checked
    ensemble."""
    W, keep = step_map(ens.W, step, mode)
    return StepReport(GhzDiagonalEnsemble(ens.n_qubits, W), keep)


def p1_step(ens: GhzDiagonalEnsemble, mode: DiscriminationMode) -> StepReport:
    return apply_step(ens, StepKind.P1, mode)


def p2_step(ens: GhzDiagonalEnsemble, mode: DiscriminationMode) -> StepReport:
    return apply_step(ens, StepKind.P2, mode)
