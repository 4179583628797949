"""Purification steps P1 (bit-flip correction) and P2 (phase-flip correction)
as closed-form maps on GHZ-diagonal ensembles.  They read the mode only as
K(z) = `mode.keep_weights(n)`, the chance that a copy pair whose true parity
pattern is z is kept.  Derivation (validated against the exact engine):

P1.  Copies labelled (e1, s1), (e2, s2) collapse to e1 or ~e1 and e2 or ~e2,
so the pattern is d = e1 xor e2 or ~d, and the pair is kept with
Kr(d) = (K(d) + K(~d)) / 2; the kept state (|e1 e2> + s1 s2 |~e1 ~e2>)/sqrt(2),
measured in the rotated basis with the parity-of-outcome phase correction,
leaves (e1, s1*s2).  At epsilon = 0 only d = 0 is kept, with probability
1/2, or 1 when theta = pi bit flips on copy 2 recover the all-odd branch.

P2.  Both copies are rotated into the Hadamard frame, where the state with
label (e, s) is spread uniformly over the 2^(n-1) strings of weight parity s
with phases (-1)^(x.e), so a pair's pattern is uniform over the strings of
even weight when s1 == s2 and of odd weight when not: it is kept with
a_same or a_opp, the mean of K over those.  After the X-basis measurement of
copy 2 (outcome m), the phase-flip pattern m on copy 1, and the final
Hadamard frame change, the kept copy carries the label (e1 xor e2, s1).  At
epsilon = 0 even-plus-odd's all-odd pattern doubles a_same at even n, and
at odd n admits the opposite-sign pairs, a_opp = a_same.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .ghz import GhzDiagonalEnsemble, fwht, nonnegative
from .optics import DiscriminationMode

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


@lru_cache(maxsize=64)
def _readout(mode: DiscriminationMode, n: int):
    """(Kr[0], fwht(Kr) / 2^(n-1) or None if only d = 0 is kept, a_opp / a_same,
    a_same / 2^(n-1)); fsum rounds the exact sum, so K(z) = K(~z) gives ratio 1."""
    K = mode.keep_weights(n)
    m = len(K) // 2
    Kr = 0.5 * (K[:m] + K[:m - 1:-1])   # K[~d] = K[2^n - 1 - d]
    odd = np.bitwise_count(np.arange(2 * m)) & 1 == 1
    a_same, a_opp = math.fsum(K[~odd]) / m, math.fsum(K[odd]) / m
    return float(Kr[0]), fwht(Kr) / m if Kr[1:].any() else None, a_opp / a_same, a_same / m


def p1_map(W: np.ndarray, mode: DiscriminationMode):
    """Bit-flip correction on two independent copies of the weights W (of
    every row of a stack): (W, mode) -> (W', keep).  With C = Kr ⊛ W over the
    reps, sign + keeps W+ C+ + W- C- and sign - keeps W+ C- + W- C+."""
    kr0, Kh, _, _ = _readout(mode, W.shape[-1].bit_length())
    if Kh is not None:
        C = fwht(Kh * fwht(W))
        return _finish(W[..., :1, :] * C + W[..., 1:, :] * C[..., ::-1, :], 1.0)
    # Only equal reps are kept: C = kr0 W, with kr0 as the scale.
    # One C-ordered buffer whatever the layout of W, filled in place:
    # (wp^2 + wm^2, (2 wp) wm), each rounded as the plain expression would be.
    raw = np.multiply(W, W, order="C")
    raw[..., 0, :] += raw[..., 1, :]
    np.multiply(W[..., 0, :], 2.0, out=raw[..., 1, :])
    raw[..., 1, :] *= W[..., 1, :]
    return _finish(raw, kr0)


def p2_map(W: np.ndarray, mode: DiscriminationMode):
    """Phase-flip correction via Hadamard-frame parity checking on the
    weights W (of every row of a stack): (W, mode) -> (W', keep).

    A kept pair leaves rep e1 xor e2, so the step is one XOR convolution,
    the P2 map of Murao et al., PRA 57, R4075 (1998): with F = fwht(W), each
    sign row s maps to fwht(a_same F_s^2 + a_opp F_+ F_-) / 2^(n-1).  Every
    step takes two transforms of a (..., 2, m) block, whatever the stack
    height.
    """
    _, _, ratio, scale = _readout(mode, W.shape[-1].bit_length())
    F = fwht(W)
    P = F * F
    if ratio:
        P += ratio * F[..., :1, :] * F[..., 1:, :]
    return _finish(fwht(P), scale)


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
