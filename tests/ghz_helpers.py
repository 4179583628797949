"""Dense-matrix and rational-arithmetic helpers that only the tests use."""
from collections import defaultdict
from fractions import Fraction

import numpy as np

from ghzpurify.exact import num_qubits
from ghzpurify.ghz import GhzDiagonalEnsemble, all_labels, ghz_label_to_state
from ghzpurify.optics import ModeKind
from ghzpurify.purify import StepKind

ATOL = 1e-12


def ghz_basis_matrix(n: int) -> np.ndarray:
    """Columns are the 2^n GHZ basis vectors in all_labels(n) order."""
    return np.column_stack([ghz_label_to_state(lab, n) for lab in all_labels(n)])


def is_valid_density(rho: np.ndarray, atol: float = ATOL) -> bool:
    """Hermitian, trace one, eigenvalues >= -1e-10."""
    if not np.allclose(rho, rho.conj().T, atol=atol):
        return False
    if abs(np.trace(rho) - 1.0) > atol:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -1e-10)


def reference_extract(rho: np.ndarray) -> tuple[GhzDiagonalEnsemble, float]:
    """`exact.ghz_diagonal_extract` as fancy-index gathers and scatters: the
    reference that its strided views must match bit for bit."""
    n = num_qubits(rho)
    x = np.arange(1 << n)
    diag, anti = rho[x, x], rho[x, x[::-1]]      # x[::-1] is ~x
    mean = ((diag + diag[::-1]) / 2.0).real
    cross = ((anti + anti[::-1]) / 2.0).real
    diff = np.array(rho)
    diff[x, x] -= mean
    diff[x, x[::-1]] -= cross
    residual = float(np.linalg.norm(diff))
    reps = slice(0, len(x) // 2)                   # canonical reps: first bit 0
    W = np.stack([mean[reps] + cross[reps], mean[reps] - cross[reps]])
    return GhzDiagonalEnsemble(n, W / abs(W.sum())), residual


def rational_weights(ens: GhzDiagonalEnsemble) -> dict[tuple[int, int], Fraction]:
    """The exact values of the ensemble's float weights, keyed (rep, sign)
    with rep its column in W; zero weights are left out."""
    return {(rep, sign): Fraction(w)
            for sign, row in zip((1, -1), ens.W) for rep, w in enumerate(row) if w}


def rational_step(weights: dict, n: int, step: StepKind, mode):
    """P1 or P2 one label pair at a time: (weights', keep), in the arithmetic
    of the weights given, exact for Fractions and float for floats.

    P1 keeps equal-rep pairs with probability 1/2 per kept branch and leaves
    (e, s1 s2).  P2 keeps equal-sign pairs with probability 2^-(n-1) and
    leaves (e1 xor e2, s1); under even-plus-odd the all-odd branch doubles
    that at even n, and at odd n keeps the opposite-sign pairs instead, with
    the same probability and output rule."""
    both = mode.kind is ModeKind.EVEN_PLUS_ODD
    out = defaultdict(Fraction)
    for (e1, s1), w1 in weights.items():
        for (e2, s2), w2 in weights.items():
            if step is StepKind.P1:
                if e1 == e2:
                    out[e1, s1 * s2] += w1 * w2 / 2
            elif s1 == s2 or (both and n % 2 == 1):
                out[e1 ^ e2, s1] += w1 * w2 / 2 ** (n - 1)
    total = sum(out.values())
    branches = 2 if both and (step is StepKind.P1 or n % 2 == 0) else 1
    return {label: w / total for label, w in out.items() if w}, branches * total
