"""GHZ basis labels, diagonal ensembles and density-operator helpers.

The N-qubit GHZ basis states are (|j> + s|~j>)/sqrt(2) where ~j is the
bitwise complement of j and s = +/-1.  Since j and ~j give the same state up
to a global phase, each state is labelled by the member of {j, ~j} whose
first bit is 0, together with the sign s.  Computational strings are read
qubit-1-first and interpreted as big-endian integer indices.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

MAX_QUBITS_FAST = 6
MAX_QUBITS_EXACT = 5


def is_integer(x) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A Python or numpy real number, and not a bool; an int or a float
    skips the slower `numbers.Real` test."""
    return type(x) in (int, float) or isinstance(x, numbers.Real) and not isinstance(x, bool)


def nonnegative(W: np.ndarray) -> np.ndarray:
    """Weights W (a row or a stack) once none is NaN or below -1e-10: W
    itself, or a fresh array where round-off negatives and -0.0 are +0.0."""
    lo = W.min()   # NaN if any weight is NaN, and NaN fails the check
    if not lo >= -1e-10:
        raise ValueError(f"weights must be >= -1e-10 and not NaN, got {lo}")
    return np.where(W > 0.0, W, 0.0) if lo <= 0.0 else W


def _bits(rep):
    """rep, once it is a nonempty string of 0s and 1s."""
    if not isinstance(rep, str) or not rep or rep.strip("01"):
        raise ValueError(f"rep must be a nonempty bit string, got {rep!r}")
    return rep


@dataclass(frozen=True)
class GhzLabel:
    """Canonical label of one GHZ basis state: (|rep> + sign|~rep>)/sqrt(2)."""

    rep: str
    sign: int

    def __post_init__(self):
        if _bits(self.rep)[0] != "0":
            raise ValueError(f"canonical rep must start with 0, got {self.rep!r}")
        if not is_real(self.sign) or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.rep)


def complement(bits: str) -> str:
    """Swap 0 and 1."""
    return bits.translate(str.maketrans("01", "10"))


def canonical_label(bits: str, sign: int) -> GhzLabel:
    """Label for the state (|bits> + sign|~bits>)/sqrt(2).

    If bits starts with 1 the complement representative is used; this changes
    the state only by a global phase (equal to sign).  Bits that are not a
    bit string raise before that, so the error names them as given.
    """
    if _bits(bits)[0] == "1":
        bits = complement(bits)
    return GhzLabel(bits, sign)


def target_label(n: int) -> GhzLabel:
    """The purification target (|00...0> + |11...1>)/sqrt(2)."""
    return GhzLabel("0" * n, +1)


@lru_cache(maxsize=None)
def _label_tuple(n: int) -> tuple[GhzLabel, ...]:
    return tuple(GhzLabel(format(r, f"0{n}b"), sign)
                 for r in range(1 << (n - 1)) for sign in (+1, -1))


def all_labels(n: int) -> list[GhzLabel]:
    """All 2^n GHZ labels in deterministic (rep, +1 before -1) order."""
    return list(_label_tuple(n))


def ghz_label_to_state(label: GhzLabel, n: int) -> np.ndarray:
    """State vector (|rep> + sign|~rep>)/sqrt(2) of length 2^n."""
    if label.n_qubits != n:
        raise ValueError(f"label has {label.n_qubits} bits, expected {n}")
    vec = np.zeros(1 << n, dtype=complex)
    vec[int(label.rep, 2)] = 1.0 / np.sqrt(2.0)
    vec[int(complement(label.rep), 2)] += label.sign / np.sqrt(2.0)
    return vec


class GhzDiagonalEnsemble:
    """Probability weights over the 2^n GHZ basis states, held in one array W
    of shape (2, 2^(n-1)): label (rep, sign) sits at W[(1 - sign) // 2,
    int(rep, 2)].  Takes W or a dict keyed by GhzLabel; never renormalizes.
    Any n >= 2 is built: each engine bounds the n it runs.
    """

    def __init__(self, n_qubits: int, weights):
        if n_qubits < 2:
            raise ValueError("need at least 2 qubits")
        shape = (2, 1 << (n_qubits - 1))
        if isinstance(weights, dict):
            W = np.zeros(shape)
            for label, w in weights.items():
                if label.n_qubits != n_qubits:
                    raise ValueError(f"label {label} does not match n_qubits={n_qubits}")
                W[(1 - label.sign) // 2, int(label.rep, 2)] = w
        else:
            W = np.asarray(weights, dtype=float)
            if W.shape != shape:
                raise ValueError(f"weight array has shape {W.shape}, expected {shape}")
        # A fresh array in the input's memory order either way, so a caller's
        # array is never frozen or aliased.
        clean = nonnegative(W)
        W = W.copy(order="K") if clean is W else clean
        total = W.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")
        W.flags.writeable = False
        self.n_qubits = n_qubits
        self.W = W

    @property
    def weights(self) -> MappingProxyType:
        """Read-only mapping of the nonzero weights keyed by GhzLabel."""
        flat = self.W.T.ravel().tolist()   # all_labels order
        return MappingProxyType({label: w for label, w in
                                 zip(_label_tuple(self.n_qubits), flat) if w > 0.0})

    def weight(self, label: GhzLabel) -> float:
        """Weight of label; a label of another n has weight 0."""
        if label.n_qubits != self.n_qubits:
            return 0.0
        return float(self.W[(1 - label.sign) // 2, int(label.rep, 2)])

    def __repr__(self):
        return (f"GhzDiagonalEnsemble(n_qubits={self.n_qubits}, "
                f"{np.count_nonzero(self.W)} labels)")


def ensemble_fidelity(ens: GhzDiagonalEnsemble) -> float:
    """Weight of the target state (all-zero rep, sign +1)."""
    return float(ens.W[0, 0])


def _fractions(name: str, value) -> np.ndarray:
    """value, a number or a 1-D sequence or array of numbers, as a float
    array (0-d or 1-D) after checking each value is a number in [0, 1]."""
    # objects, so that a bool or a string is checked before float() takes it
    values = np.asarray(value, dtype=object)
    if values.ndim > 1:
        raise ValueError(f"{name} must be a number or a 1-D array, got shape {values.shape}")
    for v in values.reshape(-1).tolist():
        if not is_real(v):
            raise ValueError(f"{name} must be a number, got {v!r}")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    return values.astype(float)


def binary_weights(F, error_label: GhzLabel, n: int) -> np.ndarray:
    """Weights of the mixture of F on the target and 1-F on error_label.  An
    array of F gives one row per value, shape (len(F), 2, 2^(n-1))."""
    F = _fractions("F", F)
    if error_label == target_label(n):
        raise ValueError(f"error label {error_label.rep} (or its complement) with "
                         "sign +1 is the target state")
    if error_label.n_qubits != n:
        raise ValueError(f"label {error_label} does not match n_qubits={n}")
    W = np.zeros(F.shape + (2, 1 << (n - 1)))
    W[..., (1 - error_label.sign) // 2, int(error_label.rep, 2)] = 1.0 - F
    W[..., 0, 0] = F
    return W


def build_binary_ensemble(F: float, error_label: GhzLabel, n: int) -> GhzDiagonalEnsemble:
    """Two-component mixture: F on the target, 1-F on error_label."""
    return GhzDiagonalEnsemble(n, binary_weights(F, error_label, n))


def build_bitflip_ensemble(weights, n: int) -> GhzDiagonalEnsemble:
    """Mixture with weight[0] on the target and weight[i] on a flip of qubit i.

    All labels carry sign +1; the flip-on-qubit-1 pattern canonicalizes to the
    complement rep (e.g. '011' for n=3).
    """
    weights = list(weights)
    if len(weights) != n + 1:
        raise ValueError(f"need {n + 1} weights for n={n}, got {len(weights)}")
    if not all(map(is_real, weights)):
        raise ValueError(f"weights must be numbers, got {weights!r}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    W = np.zeros((2, 1 << (n - 1)))
    W[0, 0] = weights[0]
    for i in range(1, n + 1):
        flip = 1 << (n - i)   # qubit 1 is the most significant bit
        W[0, min(flip, flip ^ ((1 << n) - 1))] += weights[i]
    return GhzDiagonalEnsemble(n, W)


def werner_weights(x, n: int) -> np.ndarray:
    """Weights of x |phi+><phi+| + (1-x) I/2^n in the (complete) GHZ basis.
    An array of x gives one row per value, shape (len(x), 2, 2^(n-1))."""
    x = _fractions("x", x)
    W = np.empty(x.shape + (2, 1 << (n - 1)))
    W.T[...] = (1.0 - x) / (1 << n)   # W.T puts the row axis last
    W[..., 0, 0] += x
    return W


def build_werner(x: float, n: int) -> GhzDiagonalEnsemble:
    """x |phi+><phi+| + (1-x) I/2^n, expressed in the (complete) GHZ basis."""
    return GhzDiagonalEnsemble(n, werner_weights(x, n))


def ensemble_to_density(ens) -> np.ndarray:
    """Sum of w |label><label| as a dense 2^n x 2^n matrix, of an ensemble or of
    its weights W (one matrix per row of a stack): the label (e, s) puts w/2 at
    (e, e) and (~e, ~e) and s*w/2 at (e, ~e) and (~e, e).  As ~x = 2^n - 1 - x,
    the second half of the diagonal and of the anti-diagonal mirrors the first."""
    W = getattr(ens, "W", ens)
    dim = 2 * W.shape[-1]
    plus, minus = W[..., 0, :], W[..., 1, :]
    rho = np.zeros(W.shape[:-2] + (dim * dim,), dtype=complex)
    for line, half in ((slice(None, None, dim + 1), (plus + minus) / 2.0),
                       (slice(dim - 1, -1, dim - 1), (plus - minus) / 2.0)):
        rho[..., line] = np.concatenate((half, half[..., ::-1]), axis=-1)
    return rho.reshape(W.shape[:-2] + (dim, dim))


FWHT_RADIX = 32


@lru_cache(maxsize=None)
def _sylvester(r: int) -> np.ndarray:
    """The r x r Sylvester matrix, entries (-1)^popcount(i & j), read-only."""
    S = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * (r.bit_length() - 1),
               np.ones((1, 1)))
    S.flags.writeable = False
    return S


@lru_cache(maxsize=None)
def hadamard_matrix(n: int) -> np.ndarray:
    """H^(x)n as a dense complex 2^n x 2^n matrix: the Sylvester matrix
    scaled by 2^(-n/2), read-only, as every caller shares it."""
    H = (_sylvester(1 << n) * 2.0 ** (-n / 2)).astype(complex)
    H.flags.writeable = False
    return H


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (length 2^k):
    out[..., j] = sum_x (-1)^popcount(j & x) a[..., x].

    Each pass applies the Sylvester matrix of order r <= FWHT_RADIX to r
    strided elements at a time, so a length of 2^k takes ceil(k / 5) matrix
    products instead of k butterfly passes.
    """
    out = np.asarray(a, dtype=float)
    m = out.shape[-1] if out.ndim else 0
    if m < 1 or m & (m - 1):
        raise ValueError(f"fwht needs a last axis whose length is a power of two, "
                         f"got shape {out.shape}")
    # The first pass is one right product over every row (S is symmetric);
    # it also gives a fresh array when m = 1.
    r = min(FWHT_RADIX, m)
    out = (out.reshape(-1, r) @ _sylvester(r)).reshape(out.shape)
    h = r
    while h < m:
        r = min(FWHT_RADIX, m // h)
        out = (_sylvester(r) @ out.reshape(-1, r, h)).reshape(out.shape)
        h *= r
    return out


def random_ghz_diagonal(n: int, rng: np.random.Generator) -> GhzDiagonalEnsemble:
    """Random ensemble with Dirichlet(1) weights over all labels."""
    w = rng.dirichlet(np.ones(1 << n))   # in all_labels(n) order
    return GhzDiagonalEnsemble(n, w.reshape(-1, 2).T)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank complex density matrix A A^dagger / tr with A a
    complex Gaussian 2^n x 2^n matrix: not GHZ-diagonal."""
    shape = (1 << n, 1 << n)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
