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

from .ghz import GhzDiagonalEnsemble, fwht
from .optics import DiscriminationMode, ModeKind

MIN_KEEP = 1e-300


class StepKind(str, Enum):
    P1 = "P1"
    P2 = "P2"


@dataclass
class StepReport:
    """Output ensemble and keep probability of one purification step; for a
    stacked ensemble, keep_probability is an array with one per row.

    branch_stats is filled by the Monte Carlo only: ("spurious", "*") holds
    the share of trials kept on a misread verdict, when it is nonzero.
    """

    output: GhzDiagonalEnsemble
    keep_probability: float | np.ndarray
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
        raise ValueError("deterministic step maps require epsilon = 0; "
                         "use mc_sample_step for noisy readout")


def _finish(n: int, raw: np.ndarray, scale: float) -> StepReport:
    """raw holds the kept mass of each output label divided by scale; it is
    normalised in place by the total that gives the keep probability, one
    per row of a stack."""
    if raw.ndim == 2:
        total = float(raw.sum())
        keep = lowest = scale * total
    else:
        total = raw.reshape(len(raw), -1).sum(axis=1)
        keep = scale * total
        lowest, total = keep.min(), total[:, None, None]
    if lowest < MIN_KEEP:
        raise ValueError("keep probability underflowed; input is not purifiable")
    raw /= total
    return StepReport(GhzDiagonalEnsemble(n, raw), keep)


def p1_step(ens: GhzDiagonalEnsemble, mode: DiscriminationMode) -> StepReport:
    """Bit-flip correction on two independent copies of the ensemble (of
    every row of a stack)."""
    check_ideal_readout(mode)
    branches = 2 if mode.kind is ModeKind.EVEN_PLUS_ODD else 1
    W = ens.W
    # Equal-rep pairs pass each kept branch with probability 1/2 and leave
    # (e, s1*s2); the output does not depend on how many branches are kept.
    # One C-ordered buffer whatever the layout of ens.W, filled in place:
    # (wp^2 + wm^2, (2 wp) wm), each rounded as the plain expression would be.
    raw = np.multiply(W, W, order="C")
    raw[..., 0, :] += raw[..., 1, :]
    np.multiply(W[..., 0, :], 2.0, out=raw[..., 1, :])
    raw[..., 1, :] *= W[..., 1, :]
    return _finish(ens.n_qubits, raw, 0.5 * branches)


def p2_step(ens: GhzDiagonalEnsemble, mode: DiscriminationMode) -> StepReport:
    """Phase-flip correction via Hadamard-frame parity checking.

    A kept pair (probability 2^-(n-1)) leaves rep e1 xor e2: a sign row maps
    to its XOR autoconvolution, fwht(fwht(row)^2) / 2^(n-1).
    """
    check_ideal_readout(mode)
    n = ens.n_qubits
    both = mode.kind is ModeKind.EVEN_PLUS_ODD
    F = fwht(ens.W)
    raw = fwht(F * F)
    if both and n % 2 == 1:
        # opposite-sign pairs, each output row carrying its copy-1 sign
        raw += fwht(F[..., :1, :] * F[..., 1:, :])
    # for even n the all-odd branch mirrors the all-even one exactly
    branches = 2 if both and n % 2 == 0 else 1
    return _finish(n, raw, branches * 2.0 ** -(2 * (n - 1)))


def apply_step(ens: GhzDiagonalEnsemble, step: StepKind | str,
               mode: DiscriminationMode) -> StepReport:
    if not isinstance(step, StepKind):
        step = StepKind(step)
    return p1_step(ens, mode) if step is StepKind.P1 else p2_step(ens, mode)
