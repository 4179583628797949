"""Dense-matrix helpers that only the tests use."""
import numpy as np

from ghzpurify.ghz import all_labels, ghz_label_to_state

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
