"""Dense-matrix, rational-arithmetic and enumerated-law helpers that only
the tests use."""
import itertools
import math
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
    """P1 or P2 one label pair at a time, in exact arithmetic: (weights',
    keep) as Fractions, from weights given as Fractions.

    A label pair is kept with the mean of K over the true patterns z = x ^ y
    of its support strings x, y, K from `kept_chance` at the mode's epsilon
    taken exactly, as Fraction(epsilon).  Under P1, (e, s) collapses to e or
    ~e, so z is e1 xor e2 or its complement; under P2, to the strings whose
    weight is odd just when s = -1, so z runs evenly over the patterns whose
    weight is odd just when s1 != s2.  P1 leaves (e1, s1 s2), P2
    (e1 xor e2, s1).  The pair sums run over integers: the weights over one
    common denominator, the chances over another."""
    full = (1 << n) - 1
    K = kept_chance(n, mode, exact=True)
    if step is StepKind.P1:
        chance = [(K[d] + K[full ^ d]) / 2 for d in range(1 << (n - 1))]
    else:
        chance = [sum(K[z] for z in range(full + 1) if z.bit_count() % 2 == odd) / 2 ** (n - 1)
                  for odd in (0, 1)]
    den = math.lcm(*(w.denominator for w in weights.values()))
    chance_den = math.lcm(*(c.denominator for c in chance))
    num = {label: int(w * den) for label, w in weights.items()}
    chance = [int(c * chance_den) for c in chance]
    out = defaultdict(int)
    for (e1, s1), w1 in num.items():
        for (e2, s2), w2 in num.items():
            if step is StepKind.P1:
                out[e1, s1 * s2] += w1 * w2 * chance[e1 ^ e2]
            else:
                out[e1 ^ e2, s1] += w1 * w2 * chance[s1 != s2]
    total = sum(out.values())
    return ({label: Fraction(w, total) for label, w in out.items() if w},
            Fraction(total, den * den * chance_den))


def kept_chance(n, mode, exact=False):
    """K[z] for each true parity pattern z, by its own per-party product:
    the chance that every party reads even, each party (qubit k, the bit of
    weight 2^(n-1-k)) misreading with probability epsilon, party 0 first;
    under even-plus-odd, plus the chance that every party reads odd.  In
    floats, or in Fractions from Fraction(epsilon) when `exact`."""
    full = (1 << n) - 1
    eps = mode.misclassification_probability
    if exact:
        eps = Fraction(eps)

    def all_even(pattern):
        p = 1
        for k in range(n):
            p *= eps if pattern >> (n - 1 - k) & 1 else 1 - eps
        return p

    both = mode.kind is ModeKind.EVEN_PLUS_ODD
    return np.array([all_even(z) + (all_even(full ^ z) if both else 0)
                     for z in range(full + 1)])


def enumerated_law(ens, step, mode):
    """(keep, spurious share, output weights) of one step, summed over every
    pair of labels and every pair of their support strings, with no
    sampler: P1 collapses (e, s) to e or ~e, P2 to any of the 2^(n-1)
    strings whose weight is odd just when s = -1, each equally likely.  A
    pair of strings x, y is kept with K[x ^ y] and leaves (e1, s1 s2) under
    P1, (e1 xor e2, s1) under P2; it is a spurious keep when x ^ y is
    neither all even nor all odd."""
    n = ens.n_qubits
    full = (1 << n) - 1
    flat = ens.W.T.ravel()   # flat[rep * 2 + (sign == -1)]
    K = kept_chance(n, mode)

    def strings(code):
        if step is StepKind.P1:
            return [code >> 1, (code >> 1) ^ full]
        return [x for x in range(full + 1) if x.bit_count() % 2 == code & 1]

    weights = np.zeros(full + 1)
    spurious = 0.0
    for c1, c2 in itertools.product(range(full + 1), repeat=2):
        z = np.bitwise_xor.outer(strings(c1), strings(c2))
        pair = flat[c1] * flat[c2]
        out = c1 ^ (c2 & 1) if step is StepKind.P1 else c1 ^ (c2 & (full ^ 1))
        weights[out] += pair * K[z].mean()
        spurious += pair * np.where((z == 0) | (z == full), 0.0, K[z]).mean()
    keep = weights.sum()
    return keep, spurious, weights / keep
