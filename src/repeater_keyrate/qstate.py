"""Dense multi-qubit density-operator arithmetic.

Everything downstream (noise channels, encoding, swapping, decoding) is
built on the exact operations in this module.  Every state of the model is
Pauli diagonal, so each is built from its GHZ-frame weights by
:func:`frame_state` and read back by :func:`frame_weights_of`, and is
float64; only the correctable-state vectors are complex.  Every register
operation is one of four kernels: a CNOT gathered through its basis
permutation, and an X or Z Pauli, a depolarized qubit and the measured
blocks of a qubit on the (a, 2, b, a, 2, b) view of the matrix.  Gates are
(control, target) tuples, as in :mod:`repeater_keyrate.frames`.

Convention used throughout the package: qubits are indexed from 0 and
qubit 0 is the most significant bit of the computational basis index,
i.e. |b0 b1 ... b_{n-1}> has index sum(b_i * 2^(n-1-i)).  Circuits drawn
top-to-bottom map onto ascending qubit indices.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HERMITICITY_TOL = 1e-10


def _num_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, trace-one matrix on a qubit register.

    Hermiticity and trace are asserted at construction (debug builds only);
    positivity is an O(dim^3) eigenvalue check, which the validators that
    need it run themselves.
    """

    matrix: np.ndarray

    def __post_init__(self):
        # a private copy, frozen below: float64 unless the input is complex
        mat = np.array(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        _num_qubits(mat.shape[0])
        mat.flags.writeable = False  # instances may be shared/cached freely
        if __debug__:
            assert np.abs(mat - mat.conj().T).max() < max(
                HERMITICITY_TOL, HERMITICITY_TOL * np.abs(mat).max()
            ), "matrix is not Hermitian within tolerance"
            assert abs(np.trace(mat).real - 1.0) < 1e-8, (
                f"trace {np.trace(mat)} is not 1"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# Pauli-diagonal states
# ---------------------------------------------------------------------------

def _frame_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, 2^n - 1 - a) for each a < 2^(n-1), the basis pair of frames 2a, 2a + 1."""
    _num_qubits(dim)
    a = np.arange(dim // 2)
    return a, dim - 1 - a


def frame_state(weights) -> np.ndarray:
    """sum_i w_i |i><i| over the GHZ frames |2a + (sign < 0)> = (|a> +- |b>)/sqrt(2),
    b = 2^n - 1 - a, as in :func:`repeater_keyrate.frames._frame`; at n = 2 they
    are (phi+, phi-, psi+, psi-).  Every state of the model is diagonal in them
    (README decision 20).  The entries (w+ +- w-)/2 of |a><a|, |b><b| and
    |a><b|, |b><a| carry no rounded 1/sqrt(2): dyadic weights give an exact matrix."""
    plus, minus = np.asarray(weights, dtype=float).reshape(-1, 2).T
    a, b = _frame_pairs(2 * len(plus))
    mat = np.zeros((2 * len(plus),) * 2)
    mat[a, a] = mat[b, b] = (plus + minus) / 2.0
    mat[a, b] = mat[b, a] = (plus - minus) / 2.0
    return mat


def frame_weights_of(matrix: np.ndarray) -> np.ndarray:
    """The frame expectations <i|rho|i> of :func:`frame_state`'s frames, each
    read off three entries as (rho_aa + rho_bb +- 2 Re rho_ab)/2."""
    a, b = _frame_pairs(matrix.shape[0])
    diag = matrix[a, a].real + matrix[b, b].real
    coherence = 2.0 * matrix[a, b].real
    return np.column_stack(((diag + coherence) / 2.0, (diag - coherence) / 2.0)).reshape(-1)


# ---------------------------------------------------------------------------
# raw-matrix kernels (shared with the other modules; inputs are ndarrays)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    """Basis permutation of CNOT(control -> target) on an n-qubit register."""
    idx = np.arange(2**n)
    ctrl_bit = (idx >> (n - 1 - control)) & 1
    return idx ^ (ctrl_bit << (n - 1 - target))


def _register_view(rho: np.ndarray, qubit: int) -> np.ndarray:
    """The (a, 2, b, a, 2, b) view of rho in which axes 1 and 4 are ``qubit``."""
    n = _num_qubits(rho.shape[0])
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit register")
    a, b = 2**qubit, 2 ** (n - 1 - qubit)
    return rho.reshape(a, 2, b, a, 2, b)


def _apply_cnot_mat(rho: np.ndarray, control: int, target: int) -> np.ndarray:
    n = _num_qubits(rho.shape[0])
    if control == target or not (0 <= control < n and 0 <= target < n):
        raise ValueError(f"CNOT ({control}, {target}) needs two distinct qubits of {n}")
    perm = _cnot_permutation(n, control, target)
    return rho[np.ix_(perm, perm)]


def _apply_pauli_mat(rho: np.ndarray, pauli: str, qubit: int) -> np.ndarray:
    """X (an index flip) or Z (a sign on the coherences) on one qubit."""
    if pauli not in ("x", "z"):
        raise ValueError(f"Pauli must be 'x' or 'z', got {pauli!r}")
    t = _register_view(rho, qubit)
    if pauli == "x":
        return t[:, ::-1, :, :, ::-1, :].reshape(rho.shape)
    t = t.copy()
    t[:, 0, :, :, 1, :] *= -1
    t[:, 1, :, :, 0, :] *= -1
    return t.reshape(rho.shape)


def _depolarize_mat(rho: np.ndarray, qubit: int) -> np.ndarray:
    """One qubit replaced by I/2: its diagonal blocks averaged, its
    coherences dropped."""
    t = _register_view(rho, qubit)
    out = np.zeros_like(t)
    out[:, 0, :, :, 0, :] = out[:, 1, :, :, 1, :] = (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]) / 2
    return out.reshape(rho.shape)


def _measured_blocks(rho: np.ndarray, qubit: int, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized post-measurement blocks (outcome 0, outcome 1) of one
    qubit, on the remaining qubits.

    With rho_jk the blocks of the measured qubit, the Z basis gives
    (rho_00, rho_11) and the X basis gives
    ((rho_00 + rho_11 +- (rho_01 + rho_10)) / 2) for |+> and |->.  Writing
    the X basis out instead of conjugating with a Hadamard keeps dyadic
    inputs exact (no rounded 1/sqrt(2) factors).
    """
    if basis not in ("x", "z"):
        raise ValueError("basis must be 'x' or 'z'")
    t = _register_view(rho, qubit)
    m = rho.shape[0] // 2
    if basis == "z":
        return t[:, 0, :, :, 0, :].reshape(m, m), t[:, 1, :, :, 1, :].reshape(m, m)
    diag = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
    coherence = t[:, 0, :, :, 1, :] + t[:, 1, :, :, 0, :]
    plus = (diag + coherence) / 2
    minus = (diag - coherence) / 2
    return plus.reshape(m, m), minus.reshape(m, m)


def _measure_correct_mat(
    rho: np.ndarray,
    qubit: int,
    basis: str,
    correction: tuple[str, int] | None = None,
) -> np.ndarray:
    """Measure one qubit, apply an optional Pauli on outcome 1, discard it.

    Outcomes are summed after correction, so the result is the deterministic
    measure-and-correct channel on the remaining qubits (trace preserving).
    """
    branch0, branch1 = _measured_blocks(rho, qubit, basis)
    if correction is not None:
        pauli, target = correction
        branch1 = _apply_pauli_mat(branch1, pauli, target if target < qubit else target - 1)
    return branch0 + branch1


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 via Hermitian eigendecomposition."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    for op in (rho, sigma):
        smallest = np.linalg.eigvalsh(op.matrix)[0]
        if smallest < -1e-8:
            raise ValueError(f"input not positive semidefinite (min eig {smallest})")
    s = _psd_sqrt(rho.matrix)
    inner = s @ sigma.matrix @ s
    inner = (inner + inner.conj().T) / 2
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(f, 1.0) if f <= 1.0 + 1e-9 else f


# Bell-basis diagonal (phi+, phi-, psi+, psi-) of a two-qubit state, plus the
# off-diagonal residue; [:4] is the plain tuple that `rates.error_rates` reads.
BellDiagCoeffs = namedtuple(
    "BellDiagCoeffs", "phi_plus phi_minus psi_plus psi_minus remainder_norm", defaults=(0.0,)
)


def bell_diag_coeffs(rho: DensityOperator) -> BellDiagCoeffs:
    """Diagonal Bell-basis coefficients <B_k|rho|B_k> of a 4x4 state, its
    frame weights (:func:`frame_weights_of`).

    ``remainder_norm`` is the Frobenius norm of rho minus its Bell-diagonal
    part; it vanishes iff rho is Bell diagonal.
    """
    if rho.dim != 4:
        raise ValueError("bell_diag_coeffs needs a two-qubit state")
    lams = frame_weights_of(rho.matrix)
    remainder = float(np.linalg.norm(rho.matrix - frame_state(lams)))
    return BellDiagCoeffs(*map(float, lams), remainder_norm=remainder)
