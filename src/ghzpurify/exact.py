"""Dense density-matrix engine: P1/P2 as Schur products on 2^n x 2^n, and the
brute-force two-copy oracle (`bruteforce_step`) that validates them.

Schur form.  Lay the two copies out as [copy-1 qubits, copy-2 qubits], so a
two-copy index i encodes the pair of strings (x, y) = (i >> n, i & (2^n - 1));
party k compares qubits (k, n + k).
- The parity pattern z keeps y = x xor z, whose entries rho[x, x'] *
  rho[x xor z, x' xor z] form the Schur product rho∘(X^z rho X^z).  The
  readout keeps z with K(z) = `mode.keep_weights(n)`, so the kept operator
  is the sum over z of K(z) rho∘(X^z rho X^z): at epsilon = 0, rho∘rho, plus
  rho∘(P rho P) under even-plus-odd (P: x -> ~x, the theta = pi recovery).
- The keep probability is the trace of the kept operator.
- Measuring copy 2 in the rotated basis with outcome m gives copy 1 the sign
  (-1)^(m.(x xor x')).  P1's correction (a phase flip when m has odd weight)
  cancels it for x' in {x, ~x}, and the average over m erases every other
  entry: the output is the kept operator masked to x' in {x, ~x}.
- P2 runs the same core in the Hadamard frame r = H rho H.  Its correction
  cancels the sign for every x', so there is no mask, and the output is
  H (kept r) H.
Both steps hold O(4^n) memory.  P1 takes O(4^n) time; P2's frame changes
are BLAS matrix products, O(8^n).

Brute-force oracle.  `bruteforce_step` does the same operations on the full
rho (x) rho (O(16^n)): parity blocks weighted by per-party read chances of
its own, the theta = pi recovery flip, the copy-2 measurement channel with a
correction for every outcome, and the partial trace.  It uses none of the
structure above, nor `keep_weights`, and looks up the correction table by
this module's name `correction_for_outcome` when it runs, so validation checks
the Schur form and the table against it (a test that corrupts the table
patches `exact.correction_for_outcome`).

Readout.  `ghz_diagonal_extract` reads a dense state back as GHZ weights.
The GHZ basis lives on the diagonal and the anti-diagonal, which in a flat
C-ordered d x d matrix are the strided views flat[::d+1] and
flat[d-1:-1:d-1], the lines `ensemble_to_density` writes.  The weights take
O(2^n) entries from them; the off-diagonal residual is the Frobenius norm of
a copy of rho with the two lines reduced in place.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ghz import MAX_QUBITS_EXACT, GhzDiagonalEnsemble, hadamard_matrix
from .optics import DiscriminationMode, ModeKind
from .purify import StepKind, correction_for_outcome


def num_qubits(rho: np.ndarray, stack: bool = False) -> int:
    """n of a 2^n x 2^n operator; with stack set, also of a stack of them,
    shape (G, 2^n, 2^n)."""
    n = rho.shape[-1].bit_length() - 1
    if rho.shape[-2:] != (1 << n, 1 << n) or rho.ndim not in ((2, 3) if stack else (2,)):
        raise ValueError(f"not a square power-of-two matrix: {rho.shape}")
    return n


# -- Schur-product engine --------------------------------------------------
#
# Each step also takes a stack of operators, shape (G, 2^n, 2^n), and then
# returns an array of G keep probabilities (a PerRow) in place of a float.

PerRow = float | np.ndarray


@lru_cache(maxsize=None)
def _ghz_pairs(n: int) -> np.ndarray:
    """Read-only mask of the entries (x, x') with x' in {x, ~x}."""
    x = np.arange(1 << n)
    mask = np.zeros((1 << n, 1 << n), dtype=bool)
    mask[x, x] = mask[x, x[::-1]] = True   # x[::-1] is ~x
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=64)
def _kept_patterns(mode: DiscriminationMode, n: int) -> tuple:
    """(idx, K(z)) for each z that K = mode.keep_weights(n) keeps, rho[idx]
    being X^z rho X^z: a view for z = 0 and ~0, which a gather slows."""
    K, x, rev = mode.keep_weights(n), np.arange(1 << n), slice(None, None, -1)
    views = {0: (...,), (1 << n) - 1: (..., rev, rev)}
    return tuple((views.get(z, (..., x[:, None] ^ z, x ^ z)), float(K[z]))
                 for z in np.flatnonzero(K).tolist())


def _schur_kept(rho: np.ndarray, mode: DiscriminationMode
                ) -> tuple[np.ndarray, PerRow, PerRow]:
    """The sum over kept z of K(z) rho∘(X^z rho X^z); its trace capped at 1
    (the keep: a trace that rounds past 1 is still a probability), and the
    trace shaped to divide it."""
    kept = None
    for idx, k in _kept_patterns(mode, rho.shape[-1].bit_length() - 1):
        term = rho * rho[idx] if k == 1.0 else k * (rho * rho[idx])
        kept = term if kept is None else np.add(kept, term, out=kept)
    if kept.ndim == 2:
        norm = float(kept.trace().real)
        return kept, min(norm, 1.0), norm
    norm = kept.trace(axis1=1, axis2=2).real
    return kept, np.minimum(norm, 1.0), norm[:, None, None]


def p1_exact(rho: np.ndarray, mode: DiscriminationMode) -> tuple[np.ndarray, PerRow]:
    """Bit-flip correction; returns (output, keep probability)."""
    kept, keep, norm = _schur_kept(rho, mode)
    return np.where(_ghz_pairs(num_qubits(rho, stack=True)), kept, 0.0) / norm, keep


def p2_exact(rho: np.ndarray, mode: DiscriminationMode) -> tuple[np.ndarray, PerRow]:
    """Phase-flip correction: the P1 core in the Hadamard frame, no mask."""
    H = hadamard_matrix(num_qubits(rho, stack=True))
    kept, keep, norm = _schur_kept(H @ rho @ H, mode)
    return H @ kept @ H / norm, keep


def exact_step(rho: np.ndarray, step: StepKind | str, mode: DiscriminationMode
               ) -> tuple[np.ndarray, PerRow]:
    fn = p1_exact if StepKind(step) is StepKind.P1 else p2_exact
    return fn(rho, mode)


# -- brute-force oracle on rho (x) rho -------------------------------------

def tensor_pair(rho: np.ndarray) -> np.ndarray:
    """rho (x) rho with copy-1 qubits first."""
    n = num_qubits(rho)
    if n > MAX_QUBITS_EXACT:
        raise ValueError(f"brute-force oracle is bounded at {MAX_QUBITS_EXACT} qubits")
    return np.kron(rho, rho)


def parity_mask(n: int, pattern: int) -> np.ndarray:
    """Two-copy basis states (x, y) whose parties read the parity pattern
    x xor y: 0 is all even, 2^n - 1 all odd."""
    dim = 1 << n
    idx = np.arange(dim * dim)
    return ((idx >> n) ^ (idx & (dim - 1))) == pattern


def _flip_copy2(rho_pair: np.ndarray, n: int) -> np.ndarray:
    """Bit flip on every copy-2 qubit (index permutation y -> ~y).

    ~y = dim - 1 - y, so the permutation reverses both copy-2 axes.
    """
    dim = 1 << n
    r4 = rho_pair.reshape(dim, dim, dim, dim)
    return np.ascontiguousarray(r4[:, ::-1, :, ::-1]).reshape(rho_pair.shape)


def project_parity(rho_pair: np.ndarray, branch: str,
                   recover_odd: bool = True) -> tuple[np.ndarray, float]:
    """Project every party onto its even or odd two-qubit parity subspace.

    Returns the (unnormalized) projected operator and its trace.  The odd
    branch, when recover_odd is set, additionally applies the theta = pi
    recovery bit flip to every copy-2 qubit.
    """
    if branch not in ("even", "odd"):
        raise ValueError(f"branch must be 'even' or 'odd', got {branch!r}")
    n = num_qubits(rho_pair) // 2
    mask = parity_mask(n, 0 if branch == "even" else (1 << n) - 1)
    projected = np.where(np.outer(mask, mask), rho_pair, 0.0)
    prob = float(np.trace(projected).real)
    if branch == "odd" and recover_odd:
        projected = _flip_copy2(projected, n)
    return projected, prob


def copy2_outcome_blocks(rho_pair: np.ndarray) -> np.ndarray:
    """Copy 1's unnormalised operator for each outcome m of copy 2 measured
    after a 45-degree rotation, as blocks[x, m, y].

    Outcome m reads the copy-2 diagonal block (x, m; y, m) of the rotated
    operator, so only those blocks are formed, not the full rotation.
    """
    H = hadamard_matrix(num_qubits(rho_pair) // 2)
    dim = H.shape[0]
    rows = (H @ rho_pair.reshape(dim, dim, dim * dim)).reshape(dim, dim, dim, dim)
    return np.einsum("xmyb,mb->xmy", rows, H)


def _phase_flip_diag(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Diagonal of Z on the given qubits (qubit 0 is the most significant bit)."""
    dim = 1 << n
    idx = np.arange(dim)
    diag = np.ones(dim)
    for q in qubits:
        diag *= np.where((idx >> (n - 1 - q)) & 1, -1.0, 1.0)
    return diag


def measure_copy2_and_correct(rho_pair: np.ndarray, step: StepKind) -> np.ndarray:
    """Rotate copy 2 by 45 degrees, sum the Z-measurement channel with
    outcome-conditioned corrections on copy 1, and trace out copy 2."""
    n = num_qubits(rho_pair) // 2
    D = np.array([_phase_flip_diag(n, correction_for_outcome(step, f"{m:0{n}b}"))
                  for m in range(1 << n)])
    out = np.einsum("mx,xmy,my->xy", D, copy2_outcome_blocks(rho_pair), D)
    return out / out.trace().real


def _kept_pair_state(rho_pair: np.ndarray, mode: DiscriminationMode
                     ) -> tuple[np.ndarray, float]:
    """The kept operator and its trace, each party misreading with epsilon."""
    n = num_qubits(rho_pair) // 2
    eps = mode.misclassification_probability
    x = np.arange(1 << n)
    q = np.where(x[:, None] >> np.arange(n) & 1, eps, 1.0 - eps).prod(axis=1)   # q(z): all even
    pattern = np.bitwise_xor.outer(x, x).ravel()   # of each two-copy index (x, y)
    block = pattern[:, None] == pattern   # both indices on one pattern
    kept = np.where(block, q[pattern][:, None], 0.0) * rho_pair
    if mode.kind is ModeKind.EVEN_PLUS_ODD:   # all odd with q(~z), after the flip
        kept += _flip_copy2(np.where(block, q[::-1][pattern][:, None], 0.0) * rho_pair, n)
    return kept, float(kept.trace().real)


def bruteforce_step(rho: np.ndarray, step: StepKind | str, mode: DiscriminationMode
                    ) -> tuple[np.ndarray, float]:
    """The step on the full rho (x) rho.

    P2 runs the P1 operations in the Hadamard frame.  O(16^n): validation only.
    """
    step = StepKind(step)
    H = hadamard_matrix(num_qubits(rho))
    if step is StepKind.P2:
        rho = H @ rho @ H
    kept, keep = _kept_pair_state(tensor_pair(rho), mode)
    out = measure_copy2_and_correct(kept, step)
    return (H @ out @ H if step is StepKind.P2 else out), keep


# -- readout of a dense state ----------------------------------------------

def ghz_diagonal_extract(rho: np.ndarray) -> tuple[GhzDiagonalEnsemble, float]:
    """Diagonal weights in the GHZ basis plus the off-diagonal residual norm.

    The label (e, s) lives on {|e>, |~e>}, so its weight reads four entries:
    w(e, s) = ½ Re(rho[e, e] + rho[~e, ~e]) + s·½ Re(rho[e, ~e] + rho[~e, e]).
    The ensemble constructor checks these weights over their total: NaN or a
    weight below -1e-10 (which no state has) raises, and so does a zero
    total, read as NaN weights.
    As ~x = 2^n - 1 - x, rho[x, x] and rho[x, ~x] are the strided views
    flat[::d+1] and flat[d-1:-1:d-1] of a flat C-ordered d x d matrix, the
    lines `ensemble_to_density` writes.  The GHZ basis is orthonormal, so the
    residual is ‖rho − rho_GHZ‖_F, where rho_GHZ is the GHZ-diagonal state
    with these weights: it sits on those two lines, so the difference is a
    copy of rho with them reduced in place, formed entry by entry.  (The
    shortcut √(‖rho‖² − Σ w²) loses everything below about 1e-8 to
    cancellation.)  The copy keeps rho's memory order, so the norm sums in
    that order, and is read through whichever of it and its transpose is
    C-ordered.  The transpose has the same diagonal and the anti-diagonal
    reversed, and the mirrored half-sums are palindromes bit for bit, so
    either view gives the same weights and residual.
    """
    n = num_qubits(rho)
    d = 1 << n
    diff = np.array(rho)
    flat = (diff if diff.flags.c_contiguous else diff.T).reshape(-1)
    diag, anti = flat[::d + 1], flat[d - 1:-1:d - 1]
    mean = ((diag + diag[::-1]) / 2.0).real
    cross = ((anti + anti[::-1]) / 2.0).real
    diag -= mean
    anti -= cross
    residual = float(np.linalg.norm(flat))
    m = d // 2                                     # canonical reps: first bit 0
    W = np.empty((2, m))
    np.add(mean[:m], cross[:m], out=W[0])
    np.subtract(mean[:m], cross[:m], out=W[1])
    total = abs(W.sum())   # keeps each weight's sign, so a negative trace raises too
    W /= total if total else np.nan   # a zero total: NaN weights, with no 0/0 warning
    return GhzDiagonalEnsemble(n, W), residual


def fidelity_to_target(rho: np.ndarray) -> PerRow:
    """<phi+| rho |phi+>: the four corner entries, as the extract reads them,
    capped at 1 as the keep is (NaN passes through); an array with one per
    operator of a stack."""
    num_qubits(rho, stack=True)
    f = np.minimum(0.5 * (rho[..., 0, 0] + rho[..., -1, -1]
                          + rho[..., 0, -1] + rho[..., -1, 0]).real, 1.0)
    return float(f) if rho.ndim == 2 else f
