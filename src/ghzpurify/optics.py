"""Optical layer: cross-Kerr probe evolution, QND parity shifts, homodyne
discrimination modes and the PBS six-mode-event alternative.

The X homodyne measurement itself is not wave-function simulated; only its
verdict is modelled, optionally with a scalar misclassification probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ghz import is_real

PHASE_ATOL = 1e-9
TWO_PI = 2.0 * math.pi


class ShiftClass(Enum):
    SHIFT_0 = "0"
    SHIFT_THETA = "theta"
    SHIFT_2THETA = "2theta"


class Verdict(Enum):
    EVEN = "even"
    ODD = "odd"


class ModeKind(Enum):
    EVEN_ONLY = "even-only"
    EVEN_PLUS_ODD = "even-plus-odd"
    SIX_MODE_PBS = "six-mode-pbs"


@dataclass(frozen=True)
class KerrInteraction:
    """Cross-Kerr phase per signal photon, theta = chi * t."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta <= math.pi:
            raise ValueError(f"theta must be in (0, pi], got {self.theta}")


@dataclass(frozen=True)
class ProbeBeam:
    alpha: complex
    accumulated_phase: float = 0.0

    def __post_init__(self):
        if abs(self.alpha) <= 0.0:
            raise ValueError("probe amplitude must be nonzero")
        if not 0.0 <= self.accumulated_phase < TWO_PI:
            raise ValueError("accumulated_phase must lie in [0, 2*pi)")


def kerr_evolve(photon_number: int, probe: ProbeBeam, k: KerrInteraction) -> ProbeBeam:
    """Advance the probe phase by photon_number * theta (mod 2*pi)."""
    if photon_number not in (0, 1):
        raise ValueError(f"photon_number must be 0 or 1, got {photon_number}")
    phase = (probe.accumulated_phase + photon_number * k.theta) % TWO_PI
    return ProbeBeam(probe.alpha, phase)


def qnd_parity_shift(pol_pair) -> ShiftClass:
    """Phase shift of the probe for a polarization pair.

    Both photons traverse the same Kerr medium only when the pair is HH or
    VV; HV hits both media, VH neither.
    """
    a, b = pol_pair
    if a not in "HV" or b not in "HV":
        raise ValueError(f"polarizations must be 'H' or 'V', got {pol_pair!r}")
    if a == b:
        return ShiftClass.SHIFT_THETA
    if (a, b) == ("H", "V"):
        return ShiftClass.SHIFT_2THETA
    return ShiftClass.SHIFT_0


def classify_phase(phase: float, theta: float) -> ShiftClass:
    """Map an accumulated probe phase to its shift class (tolerance 1e-9)."""
    phase = phase % TWO_PI
    for cls, ref in ((ShiftClass.SHIFT_0, 0.0),
                     (ShiftClass.SHIFT_THETA, theta),
                     (ShiftClass.SHIFT_2THETA, 2.0 * theta)):
        diff = (phase - ref) % TWO_PI
        if min(diff, TWO_PI - diff) <= PHASE_ATOL:
            return cls
    raise ValueError(f"phase {phase} matches no shift class for theta={theta}")


@dataclass(frozen=True)
class DiscriminationMode:
    """How X homodyne verdicts are read out and which branches are kept.

    Each party's homodyne verdict is misread with probability epsilon.
    Six-mode PBS post-selects on photon number, which no homodyne verdict
    misreads, so it takes any epsilon in [0, 0.5) and holds epsilon = 0."""

    kind: ModeKind
    misclassification_probability: float = 0.0
    theta: float = math.pi

    def __post_init__(self):
        # a kind given by name ("even-plus-odd") runs that mode; an unknown name raises
        object.__setattr__(self, "kind", ModeKind(self.kind))
        eps = self.misclassification_probability
        if not (is_real(eps) and 0.0 <= eps < 0.5):
            raise ValueError("misclassification probability must be in [0, 0.5)")
        if self.kind is ModeKind.SIX_MODE_PBS:
            object.__setattr__(self, "misclassification_probability", 0.0)
        if not (is_real(self.theta) and 0.0 < self.theta <= math.pi):
            raise ValueError(f"theta must be in (0, pi], got {self.theta}")
        if self.kind is ModeKind.EVEN_PLUS_ODD and abs(self.theta - math.pi) > PHASE_ATOL:
            raise ValueError("even-plus-odd discrimination requires theta = pi")

    @classmethod
    def even_only(cls, epsilon: float = 0.0, theta: float = math.pi):
        return cls(ModeKind.EVEN_ONLY, epsilon, theta)

    @classmethod
    def even_plus_odd(cls, epsilon: float = 0.0):
        return cls(ModeKind.EVEN_PLUS_ODD, epsilon, math.pi)

    @classmethod
    def six_mode_pbs(cls):
        return cls(ModeKind.SIX_MODE_PBS, 0.0, math.pi)

    def keep_weights(self, n: int) -> np.ndarray:
        """K(z), the chance that a copy pair whose true parity pattern is z
        is kept, for each n-bit z (party k's bit, of weight 2^(n-1-k), is set
        when its check is odd).  Each party's verdict flips independently
        with probability epsilon, so z reads all even with probability
        q(z) = epsilon^|z| (1 - epsilon)^(n-|z|), taken as a product over the
        parties in order, and all odd with q(~z).  Even-only keeps K = q(z);
        even-plus-odd keeps K = q(z) + q(~z), capped at 1 against round-off."""
        eps = self.misclassification_probability
        bits = np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None] & 1
        q = np.ones(1 << n)
        for factor in np.where(bits, eps, 1.0 - eps):   # party 0 first
            q *= factor
        if self.kind is ModeKind.EVEN_PLUS_ODD:
            q = np.minimum(q + q[::-1], 1.0)   # ~z is (2^n - 1) - z
        return q


def discriminate(shift_class: ShiftClass, mode: DiscriminationMode,
                 rng: np.random.Generator | None = None) -> Verdict:
    """Verdict for a shift class; with epsilon > 0 the verdict may flip.

    Under EVEN_PLUS_ODD (theta = pi) the 0 and 2*theta shifts are merged
    into one kept Odd verdict; under EVEN_ONLY they are distinguishable but
    both lead to discarding, so the verdict is Odd either way.
    """
    verdict = Verdict.EVEN if shift_class is ShiftClass.SHIFT_THETA else Verdict.ODD
    eps = mode.misclassification_probability
    if eps > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an explicit random generator")
        if rng.random() < eps:
            verdict = Verdict.ODD if verdict is Verdict.EVEN else Verdict.EVEN
    return verdict


def six_mode_keep(strings) -> bool:
    """PBS post-selection: keep iff every party sees equal polarizations.

    One photon per output mode at each party happens exactly when the two
    computational strings agree bitwise.
    """
    s1, s2 = strings
    if len(s1) != len(s2):
        raise ValueError("strings must have equal length")
    return s1 == s2
