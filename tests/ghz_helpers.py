"""Dense-matrix helpers that only the tests use."""
import numpy as np

from ghzpurify.exact import num_qubits
from ghzpurify.ghz import GhzDiagonalEnsemble, all_labels, ghz_label_to_state

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
    W = np.clip(np.stack([mean[reps] + cross[reps], mean[reps] - cross[reps]]), 0.0, None)
    return GhzDiagonalEnsemble(n, W / W.sum()), residual
