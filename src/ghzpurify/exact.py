"""Brute-force oracle: P1/P2 on full two-copy density matrices via
projectors, outcome-summed measurement channels and partial traces.

Two-copy indices are laid out as [copy-1 qubits, copy-2 qubits], so an index
i encodes the pair of computational strings (x, y) = (i >> n, i & (2^n - 1)).
Party k compares qubits (k, n + k).
"""
from __future__ import annotations

import numpy as np

from .ghz import (MAX_QUBITS_EXACT, GhzDiagonalEnsemble, ghz_basis_matrix,
                  ghz_label_to_state, hadamard_matrix, target_label)
from .optics import DiscriminationMode, ModeKind
from .purify import StepKind, correction_for_outcome


def num_qubits(rho: np.ndarray) -> int:
    n = rho.shape[0].bit_length() - 1
    if rho.shape != (1 << n, 1 << n):
        raise ValueError(f"not a square power-of-two matrix: {rho.shape}")
    return n


def tensor_pair(rho: np.ndarray) -> np.ndarray:
    """rho (x) rho with copy-1 qubits first."""
    n = num_qubits(rho)
    if n > MAX_QUBITS_EXACT:
        raise ValueError(f"exact engine is bounded at {MAX_QUBITS_EXACT} qubits")
    return np.kron(rho, rho)


def _parity_mask(n: int, branch: str) -> np.ndarray:
    dim = 1 << n
    idx = np.arange(dim * dim)
    x, y = idx >> n, idx & (dim - 1)
    if branch == "even":
        return x == y
    if branch == "odd":
        return (x ^ y) == dim - 1
    raise ValueError(f"branch must be 'even' or 'odd', got {branch!r}")


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
    n = num_qubits(rho_pair) // 2
    mask = _parity_mask(n, branch)
    projected = np.where(np.outer(mask, mask), rho_pair, 0.0)
    prob = float(np.trace(projected).real)
    if branch == "odd" and recover_odd:
        projected = _flip_copy2(projected, n)
    return projected, prob


def _rotate_copy2_rows(rho_pair: np.ndarray, U: np.ndarray) -> np.ndarray:
    """(I (x) U) rho as t[x, p, y, b]: row (x, p), column (y, b)."""
    dim = U.shape[0]
    return (U @ rho_pair.reshape(dim, dim, dim * dim)).reshape(dim, dim, dim, dim)


def apply_copy2_unitary(rho_pair: np.ndarray, U: np.ndarray) -> np.ndarray:
    """(I (x) U) rho (I (x) U)^dagger without forming the full unitary."""
    t = _rotate_copy2_rows(rho_pair, U)
    return (t.reshape(-1, U.shape[0]) @ U.conj().T).reshape(rho_pair.shape)


def _phase_flip_diag(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Diagonal of Z on the given qubits (qubit 0 is the most significant bit)."""
    dim = 1 << n
    idx = np.arange(dim)
    diag = np.ones(dim)
    for q in qubits:
        diag *= np.where((idx >> (n - 1 - q)) & 1, -1.0, 1.0)
    return diag


def measure_copy2_and_correct(rho_pair: np.ndarray, step: StepKind,
                              correction=correction_for_outcome) -> np.ndarray:
    """Rotate copy 2 by 45 degrees, sum the Z-measurement channel with
    outcome-conditioned corrections on copy 1, and trace out copy 2.

    Outcome m reads the copy-2 diagonal block (x, m; y, m) of the rotated
    operator, so only those blocks are formed, not the full rotation.
    """
    n = num_qubits(rho_pair) // 2
    U = hadamard_matrix(n)
    blocks = np.einsum("xmyb,mb->xmy", _rotate_copy2_rows(rho_pair, U), U.conj())
    D = np.array([_phase_flip_diag(n, correction(step, format(m, f"0{n}b")))
                  for m in range(1 << n)])
    out = np.einsum("mx,xmy,my->xy", D, blocks, D)
    return out / out.trace().real


def _kept_pair_state(rho_pair: np.ndarray, mode: DiscriminationMode
                     ) -> tuple[np.ndarray, float]:
    kept, keep = project_parity(rho_pair, "even")
    if mode.kind is ModeKind.EVEN_PLUS_ODD:
        odd, p_odd = project_parity(rho_pair, "odd")
        kept += odd
        keep += p_odd
    return kept, keep


def p1_exact(rho: np.ndarray, mode: DiscriminationMode,
             correction=correction_for_outcome) -> tuple[np.ndarray, float]:
    """Bit-flip correction on rho (x) rho; returns (output, keep probability)."""
    kept, keep = _kept_pair_state(tensor_pair(rho), mode)
    return measure_copy2_and_correct(kept, StepKind.P1, correction), keep


def p2_exact(rho: np.ndarray, mode: DiscriminationMode,
             correction=correction_for_outcome) -> tuple[np.ndarray, float]:
    """Phase-flip correction: Hadamard frame in, P1 core, Hadamard frame out."""
    n = num_qubits(rho)
    H = hadamard_matrix(n)
    kept, keep = _kept_pair_state(tensor_pair(H @ rho @ H), mode)
    out = measure_copy2_and_correct(kept, StepKind.P2, correction)
    return H @ out @ H, keep


def exact_step(rho: np.ndarray, step: StepKind, mode: DiscriminationMode
               ) -> tuple[np.ndarray, float]:
    fn = p1_exact if step is StepKind.P1 else p2_exact
    return fn(rho, mode)


def ghz_diagonal_extract(rho: np.ndarray) -> tuple[GhzDiagonalEnsemble, float]:
    """Diagonal weights in the GHZ basis plus the off-diagonal residual norm."""
    n = num_qubits(rho)
    B = ghz_basis_matrix(n)
    in_basis = B.conj().T @ rho @ B
    diag = in_basis.diagonal().real.copy()
    residual = float(np.linalg.norm(in_basis - np.diag(diag)))
    diag = np.clip(diag, 0.0, None)
    diag /= diag.sum()
    ens = GhzDiagonalEnsemble(n, diag.reshape(-1, 2).T)   # all_labels(n) order
    return ens, residual


def fidelity_to_target(rho: np.ndarray) -> float:
    """<phi+| rho |phi+> for the all-zero-rep, plus-sign target."""
    n = num_qubits(rho)
    vec = ghz_label_to_state(target_label(n), n)
    return float((vec.conj() @ rho @ vec).real)
