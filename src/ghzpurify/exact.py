"""Dense density-matrix engine: P1/P2 as Schur products on 2^n x 2^n, and the
brute-force two-copy oracle (`bruteforce_step`) that validates them.

Schur form.  Lay the two copies out as [copy-1 qubits, copy-2 qubits], so a
two-copy index i encodes the pair of strings (x, y) = (i >> n, i & (2^n - 1));
party k compares qubits (k, n + k).
- Even parity on every party keeps y = x, so the kept entries of rho (x) rho
  are rho[x, x'] rho[x, x'] at ((x, x), (x', x')): the Schur product rho∘rho.
- The odd branch keeps y = ~x.  Its theta = pi recovery flips every copy-2
  qubit, which moves ~x back onto x and leaves rho∘(P rho P), where P is the
  complement permutation x -> ~x.  Even-plus-odd adds the two.
- The keep probability is the trace of the kept operator.
- Measuring copy 2 in the rotated basis with outcome m gives copy 1 the sign
  (-1)^(m.(x xor x')).  P1's correction (a phase flip when m has odd weight)
  cancels it for x' in {x, ~x}, and the average over m erases every other
  entry: the output is the kept operator masked to x' in {x, ~x}.
- P2 runs the same core in the Hadamard frame r = H rho H.  Its correction
  cancels the sign for every x', so there is no mask, and the output is
  H (r∘r) H.
Both steps hold O(4^n) memory.  P1 takes O(4^n) time; P2's frame changes
are BLAS matrix products, O(8^n).

Brute-force oracle.  `bruteforce_step` does the same operations on the full
rho (x) rho (O(16^n)): parity projectors, the theta = pi recovery flip, the
copy-2 measurement channel with a correction for every outcome, and the
partial trace.  It uses none of the structure above, and takes the
correction table as an argument, so validation can check the Schur form and
the table against it.
"""
from __future__ import annotations

import numpy as np

from .ghz import MAX_QUBITS_EXACT, GhzDiagonalEnsemble, hadamard_matrix
from .optics import DiscriminationMode, ModeKind
from .purify import StepKind, check_ideal_readout, correction_for_outcome


def num_qubits(rho: np.ndarray) -> int:
    n = rho.shape[0].bit_length() - 1
    if rho.shape != (1 << n, 1 << n):
        raise ValueError(f"not a square power-of-two matrix: {rho.shape}")
    return n


# -- Schur-product engine --------------------------------------------------

def _schur_kept(rho: np.ndarray, mode: DiscriminationMode
                ) -> tuple[np.ndarray, float]:
    """rho∘rho, plus rho∘(P rho P) for even-plus-odd; and its trace."""
    kept = rho * rho
    if mode.kind is ModeKind.EVEN_PLUS_ODD:
        kept += rho * rho[::-1, ::-1]
    return kept, float(kept.trace().real)


def p1_exact(rho: np.ndarray, mode: DiscriminationMode) -> tuple[np.ndarray, float]:
    """Bit-flip correction; returns (output, keep probability)."""
    check_ideal_readout(mode)
    kept, keep = _schur_kept(rho, mode)
    x = np.arange(1 << num_qubits(rho))
    out = np.zeros_like(kept)
    out[x, x] = kept[x, x]
    out[x, x[::-1]] = kept[x, x[::-1]]   # x[::-1] is ~x
    return out / keep, keep


def p2_exact(rho: np.ndarray, mode: DiscriminationMode) -> tuple[np.ndarray, float]:
    """Phase-flip correction: the P1 core in the Hadamard frame, no mask."""
    check_ideal_readout(mode)
    H = hadamard_matrix(num_qubits(rho))
    kept, keep = _schur_kept(H @ rho @ H, mode)
    return H @ kept @ H / keep, keep


def exact_step(rho: np.ndarray, step: StepKind | str, mode: DiscriminationMode
               ) -> tuple[np.ndarray, float]:
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


def measure_copy2_and_correct(rho_pair: np.ndarray, step: StepKind,
                              correction=correction_for_outcome) -> np.ndarray:
    """Rotate copy 2 by 45 degrees, sum the Z-measurement channel with
    outcome-conditioned corrections on copy 1, and trace out copy 2."""
    n = num_qubits(rho_pair) // 2
    D = np.array([_phase_flip_diag(n, correction(step, format(m, f"0{n}b")))
                  for m in range(1 << n)])
    out = np.einsum("mx,xmy,my->xy", D, copy2_outcome_blocks(rho_pair), D)
    return out / out.trace().real


def _kept_pair_state(rho_pair: np.ndarray, mode: DiscriminationMode
                     ) -> tuple[np.ndarray, float]:
    kept, keep = project_parity(rho_pair, "even")
    if mode.kind is ModeKind.EVEN_PLUS_ODD:
        odd, p_odd = project_parity(rho_pair, "odd")
        kept += odd
        keep += p_odd
    return kept, keep


def bruteforce_step(rho: np.ndarray, step: StepKind | str, mode: DiscriminationMode,
                    correction=correction_for_outcome) -> tuple[np.ndarray, float]:
    """The step on the full rho (x) rho, with an injectable correction table.

    P2 runs the P1 operations in the Hadamard frame.  O(16^n): validation only.
    """
    check_ideal_readout(mode)
    step = StepKind(step)
    H = hadamard_matrix(num_qubits(rho))
    if step is StepKind.P2:
        rho = H @ rho @ H
    kept, keep = _kept_pair_state(tensor_pair(rho), mode)
    out = measure_copy2_and_correct(kept, step, correction)
    return (H @ out @ H if step is StepKind.P2 else out), keep


# -- readout of a dense state ----------------------------------------------

def ghz_diagonal_extract(rho: np.ndarray) -> tuple[GhzDiagonalEnsemble, float]:
    """Diagonal weights in the GHZ basis plus the off-diagonal residual norm.

    The label (e, s) lives on {|e>, |~e>}, so its weight reads four entries:
    w(e, s) = ½ Re(rho[e, e] + rho[~e, ~e]) + s·½ Re(rho[e, ~e] + rho[~e, e]).
    The GHZ basis is orthonormal, so the residual is ‖rho − rho_GHZ‖_F, where
    rho_GHZ is the GHZ-diagonal state with these weights: it sits on the
    diagonal and the anti-diagonal, so the difference is a copy of rho with
    those entries reduced, formed entry by entry.  (The shortcut
    √(‖rho‖² − Σ w²) loses everything below about 1e-8 to cancellation.)
    """
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


def fidelity_to_target(rho: np.ndarray) -> float:
    """<phi+| rho |phi+>: the four corner entries, as the extract reads them."""
    num_qubits(rho)
    return 0.5 * float((rho[0, 0] + rho[-1, -1] + rho[0, -1] + rho[-1, 0]).real)
