"""Dense multi-qubit density-operator arithmetic.

Everything downstream (noise channels, encoding, swapping, decoding) is
built on the handful of exact operations in this module: partial traces,
gate application, measurement and fidelities.

Convention used throughout the package: qubits are indexed from 0 and
qubit 0 is the most significant bit of the computational basis index,
i.e. |b0 b1 ... b_{n-1}> has index sum(b_i * 2^(n-1-i)).  Circuits drawn
top-to-bottom map onto ascending qubit indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

_SINGLE_QUBIT_GATES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


def _num_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, trace-one, positive-semidefinite matrix on a qubit register.

    Hermiticity and trace are asserted at construction (debug builds only);
    positivity is an O(dim^3) eigenvalue check and is exposed separately via
    :meth:`validate` so hot paths stay cheap.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
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

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.dim)

    def validate(self, psd_tol: float = PSD_TOL) -> None:
        """Full invariant check: Hermitian, trace one, eigenvalues >= -tol."""
        mat = self.matrix
        if np.abs(mat - mat.conj().T).max() >= HERMITICITY_TOL * max(1.0, np.abs(mat).max()):
            raise ValueError("not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) >= 1e-9:
            raise ValueError(f"trace is {np.trace(mat).real}, not 1")
        smallest = np.linalg.eigvalsh(mat)[0]
        if smallest < -psd_tol:
            raise ValueError(f"smallest eigenvalue {smallest} below -{psd_tol}")


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex).reshape(-1)
        object.__setattr__(self, "vector", vec)
        _num_qubits(vec.shape[0])
        if __debug__:
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12, "state vector not normalized"

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.dim)

    def projector(self) -> DensityOperator:
        """|psi><psi|, built as |u><u| / <u|u> with u = psi / max_i |psi_i|.

        The rescaling changes nothing mathematically, but it makes the
        projector exact for states whose nonzero amplitudes share one
        magnitude (Bell and GHZ states give entries of exactly +-1/2 rather
        than the rounded square of 1/sqrt(2)).
        """
        u = self.vector / np.abs(self.vector).max()
        return DensityOperator(np.outer(u, u.conj()) / np.vdot(u, u).real)


@dataclass(frozen=True)
class GatePlacement:
    """A named gate acting on specific register qubits.

    ``kind`` is one of ``cnot``, ``x``, ``y``, ``z``, ``h``.  For ``cnot``
    the qubits are (control, target); single-qubit kinds take one index.
    """

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.kind == "cnot":
            if len(self.qubits) != 2:
                raise ValueError("cnot takes (control, target)")
        elif self.kind in _SINGLE_QUBIT_GATES:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} takes a single qubit index")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if any(q < 0 for q in self.qubits):
            raise ValueError("gate qubits must be nonnegative")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


@dataclass(frozen=True)
class GateSequence:
    """Ordered list of gate placements, applied first-to-last."""

    gates: tuple[GatePlacement, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __getitem__(self, idx):
        return self.gates[idx]


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def ket(bits: str | Sequence[int]) -> PureState:
    """Computational basis state, e.g. ket("01") = |01>."""
    bits = [int(b) for b in bits]
    n = len(bits)
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0/1")
        index = (index << 1) | b
    vec = np.zeros(2**n, dtype=complex)
    vec[index] = 1.0
    return PureState(vec)


def bell_state(which: str = "phi+") -> PureState:
    """One of the four Bell states phi+/phi-/psi+/psi-."""
    s = 1.0 / np.sqrt(2)
    table = {
        "phi+": [s, 0, 0, s],
        "phi-": [s, 0, 0, -s],
        "psi+": [0, s, s, 0],
        "psi-": [0, s, -s, 0],
    }
    if which not in table:
        raise ValueError(f"unknown Bell state {which!r}")
    return PureState(np.array(table[which], dtype=complex))


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2)
    return PureState(vec)


def maximally_mixed(num_qubits: int) -> DensityOperator:
    dim = 2**num_qubits
    return DensityOperator(np.eye(dim, dtype=complex) / dim)


# ---------------------------------------------------------------------------
# raw-matrix kernels (shared with the other modules; inputs are ndarrays)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    """Basis permutation of CNOT(control -> target) on an n-qubit register."""
    idx = np.arange(2**n)
    ctrl_bit = (idx >> (n - 1 - control)) & 1
    return idx ^ (ctrl_bit << (n - 1 - target))


def _apply_cnot_mat(rho: np.ndarray, control: int, target: int) -> np.ndarray:
    n = _num_qubits(rho.shape[0])
    perm = _cnot_permutation(n, control, target)
    return rho[np.ix_(perm, perm)]


def _apply_single_mat_fast(rho: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a single-qubit unitary at the given position of a register."""
    n = _num_qubits(rho.shape[0])
    a, b = 2**qubit, 2 ** (n - 1 - qubit)
    t = rho.reshape(a, 2, b, a, 2, b)
    t = np.tensordot(u, t, axes=([1], [1]))          # i a b c k d
    t = np.moveaxis(t, 0, 1)                          # a i b c k d
    t = np.tensordot(t, u.conj(), axes=([4], [1]))    # a i b c d k
    t = np.moveaxis(t, 5, 4)                          # a i b c k d
    return t.reshape(rho.shape)


def _apply_gate_mat(rho: np.ndarray, gate: GatePlacement) -> np.ndarray:
    n = _num_qubits(rho.shape[0])
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for {n}-qubit register")
    if gate.kind == "cnot":
        return _apply_cnot_mat(rho, *gate.qubits)
    return _apply_single_mat_fast(rho, _SINGLE_QUBIT_GATES[gate.kind], gate.qubits[0])


def _partial_trace_mat(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out every qubit not in ``keep``; kept qubits retain their order."""
    n = _num_qubits(rho.shape[0])
    keep = sorted(keep)
    out = rho
    removed = 0
    for q in range(n):
        if q in keep:
            continue
        pos = q - removed
        m = _num_qubits(out.shape[0])
        a, b = 2**pos, 2 ** (m - 1 - pos)
        t = out.reshape(a, 2, b, a, 2, b)
        out = (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]).reshape(a * b, a * b)
        removed += 1
    return out


def _insert_mixed_pair_mat(reduced: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Tensor 1/4 identity back in at qubit positions i < j of an n-qubit register.

    ``reduced`` lives on the other n-2 qubits in their original order.
    """
    if i > j:
        i, j = j, i
    m = _num_qubits(reduced.shape[0])
    assert m == n - 2
    out = np.kron(reduced, np.eye(4, dtype=complex) / 4)
    # qubits of `out` are (kept..., i, j); permute back to register order
    order = [q for q in range(n) if q not in (i, j)] + [i, j]
    return _permute_qubits_mat(out, order, n)


def _permute_qubits_mat(rho: np.ndarray, current_order: Sequence[int], n: int) -> np.ndarray:
    """Reorder register qubits: axis k of ``rho`` currently holds qubit current_order[k]."""
    inv = np.argsort(current_order)  # axis to pull for final position q
    t = rho.reshape([2] * (2 * n))
    axes = list(inv) + [n + k for k in inv]
    return t.transpose(axes).reshape(2**n, 2**n)


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
    n = _num_qubits(rho.shape[0])
    a, b = 2**qubit, 2 ** (n - 1 - qubit)
    m = a * b
    t = rho.reshape(a, 2, b, a, 2, b)
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
        kind, target = correction
        target_new = target if target < qubit else target - 1
        branch1 = _apply_gate_mat(branch1, GatePlacement(kind, (target_new,)))
    return branch0 + branch1


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def apply_gate(rho: DensityOperator, gate: GatePlacement) -> DensityOperator:
    """Conjugate by the unitary of ``gate`` embedded at its qubit indices."""
    return DensityOperator(_apply_gate_mat(rho.matrix, gate))


def overlap(rho: DensityOperator, psi: PureState) -> float:
    """Expectation <psi|rho|psi>."""
    if rho.dim != psi.dim:
        raise ValueError("dimension mismatch")
    return float(np.vdot(psi.vector, rho.matrix @ psi.vector).real)


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


@dataclass(frozen=True)
class BellDiagCoeffs:
    """Bell-basis diagonal of a two-qubit state, plus the off-diagonal residue."""

    phi_plus: float
    phi_minus: float
    psi_plus: float
    psi_minus: float
    remainder_norm: float = 0.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi_plus, self.phi_minus, self.psi_plus, self.psi_minus)


def bell_diag_coeffs(rho: DensityOperator) -> BellDiagCoeffs:
    """Diagonal Bell-basis coefficients <B_k|rho|B_k> of a 4x4 state.

    ``remainder_norm`` is the Frobenius norm of rho minus its Bell-diagonal
    part; it vanishes iff rho is Bell diagonal.
    """
    if rho.dim != 4:
        raise ValueError("bell_diag_coeffs needs a two-qubit state")
    names = ("phi+", "phi-", "psi+", "psi-")
    vecs = [bell_state(name).vector for name in names]
    lams = [float(np.vdot(v, rho.matrix @ v).real) for v in vecs]
    diag_part = sum(
        lam * np.outer(v, v.conj()) for lam, v in zip(lams, vecs)
    )
    remainder = float(np.linalg.norm(rho.matrix - diag_part))
    return BellDiagCoeffs(*lams, remainder_norm=remainder)
