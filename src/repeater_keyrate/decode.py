"""Decoding the 64-dim swapped state down to a two-qubit key pair.

Each side unwinds its repetition-code block with two CNOTs from the first
qubit, measures the other two qubits in Z, and bit-flips the first qubit
only when the syndrome is "11" (the one pattern a single flip on the kept
qubit produces).  Closed forms for the perfectly and imperfectly decoded
pipeline states are provided alongside the explicit circuit, which doubles
as their validator.
"""

from __future__ import annotations

import numpy as np

from .channels import depolarizing_gate_mat, one_faulty_branches
from .encgen import encoded_pair
from .encswap import _resolve_chain, rho_s_weights, swapped_state_nonideal
from .qstate import (
    DensityOperator,
    GatePlacement,
    GateSequence,
    _apply_gate_mat,
    _num_qubits,
    bell_state,
)

# Alice holds qubits 0-2, Bob 3-5.  Per side: CNOT onto the third qubit,
# then onto the second, both controlled by the kept qubit.
DECODE_GATES = GateSequence(
    (
        GatePlacement("cnot", (0, 2)),
        GatePlacement("cnot", (0, 1)),
        GatePlacement("cnot", (3, 5)),
        GatePlacement("cnot", (3, 4)),
    )
)


class ModelBreakdownError(ValueError):
    """Raised when a closed-form state leaves the physical regime."""


def _measure_syndrome_pair(mat: np.ndarray, q1: int, q2: int, target: int) -> np.ndarray:
    """Z-measure qubits (q1, q2), X the target iff the outcome is (1, 1),
    discard the measured qubits, and average the corrected branches."""
    n = _num_qubits(mat.shape[0])
    rest = [q for q in range(n) if q not in (q1, q2)]
    ket_axes = [q1, q2] + rest
    axes = ket_axes + [n + q for q in ket_axes]
    r = 2 ** (n - 2)
    t = mat.reshape([2] * (2 * n)).transpose(axes).reshape(4, r, 4, r)
    target_pos = rest.index(target)
    out = np.zeros((r, r), dtype=complex)
    for m in range(4):
        block = t[m, :, m, :]
        if m == 3:
            block = _apply_gate_mat(block, GatePlacement("x", (target_pos,)))
        out += block
    return out


def _decode_measurements(mat: np.ndarray) -> np.ndarray:
    mat = _measure_syndrome_pair(mat, 1, 2, target=0)   # -> qubits (0, 3, 4, 5)
    mat = _measure_syndrome_pair(mat, 2, 3, target=1)   # -> qubits (0, 3)
    return mat


def decode_circuit_mat(mat: np.ndarray) -> np.ndarray:
    for gate in DECODE_GATES:
        mat = _apply_gate_mat(mat, gate)
    return _decode_measurements(mat)


def decode_circuit(rho64: DensityOperator) -> DensityOperator:
    """Explicit perfect-gate decoding circuit: 64-dim in, two-qubit pair out."""
    if rho64.dim != 64:
        raise ValueError("decode_circuit expects a six-qubit state")
    return DensityOperator(decode_circuit_mat(rho64.matrix))


def decode_one_faulty_mat(mat: np.ndarray) -> np.ndarray:
    branches = one_faulty_branches(mat, DECODE_GATES)
    out = np.zeros((4, 4), dtype=complex)
    for branch in branches:
        out += _decode_measurements(branch)
    return out / len(branches)


def decode_one_faulty(rho64: DensityOperator) -> DensityOperator:
    """Decoding with exactly one of the four CNOTs replaced by the mixed
    pair (uniformly averaged), then measured and corrected as usual."""
    if rho64.dim != 64:
        raise ValueError("decode_one_faulty expects a six-qubit state")
    return DensityOperator(decode_one_faulty_mat(rho64.matrix))


def decode_exact_noise_mat(mat: np.ndarray, beta: float) -> np.ndarray:
    for gate in DECODE_GATES:
        mat = depolarizing_gate_mat(mat, gate, beta)
    return _decode_measurements(mat)


def rho_tilde_prime() -> DensityOperator:
    """Two-qubit state produced by one-faulty decoding of either the ideal
    encoded pair or its computational-basis dephasing; a fixed mixture."""
    diag = np.array([5 / 16, 3 / 16, 3 / 16, 5 / 16])
    return DensityOperator(np.diag(diag).astype(complex))


def decode_perfect(
    beta: float, f0: float, r: int, *, p_s: float | None = None
) -> DensityOperator:
    """State after perfect decoding of the swapped chain state.

    For r >= 1 this is the closed form implied by the decoding-map
    properties; its phi+ coefficient may be negative at extreme parameters,
    in which case the assembled state must still be positive or the point
    is rejected as a model breakdown (never clamped).  r = 0 means no swap
    at all: the single encoded pair is decoded through the circuit.
    """
    if r == 0:
        return decode_circuit(encoded_pair(beta, f0))
    p_r = _resolve_chain(beta, f0, r, p_s)
    w_ideal, w_deph, q_r = rho_s_weights(beta, r)
    c_phi = p_r * w_ideal - (1.0 - p_r) / 63.0
    c_deph = p_r * w_deph
    c_mix = p_r * q_r + (1.0 - p_r) * 64.0 / 63.0
    mat = (
        c_phi * bell_state("phi+").projector().matrix
        + c_deph * 0.5 * np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        + c_mix * np.eye(4, dtype=complex) / 4.0
    )
    smallest = np.linalg.eigvalsh(mat)[0]
    if smallest < -1e-9:
        raise ModelBreakdownError(
            f"decoded state not positive (min eigenvalue {smallest}) at "
            f"beta={beta}, F0={f0}, r={r}"
        )
    return DensityOperator(mat)


def decode_nonideal(
    beta: float, f0: float, r: int, *, p_s: float | None = None
) -> DensityOperator:
    """State after one-faulty decoding of the swapped chain state."""
    if r == 0:
        return decode_one_faulty(encoded_pair(beta, f0))
    p_r = _resolve_chain(beta, f0, r, p_s)
    w_ideal, w_deph, _ = rho_s_weights(beta, r)
    kept = w_ideal + w_deph
    tilde = rho_tilde_prime().matrix
    eye4 = np.eye(4, dtype=complex) / 4.0
    mat = p_r * (kept * tilde + (1.0 - kept) * eye4) + (1.0 - p_r) / 63.0 * (
        64.0 * eye4 - tilde
    )
    return DensityOperator(mat)


def final_state(
    beta: float, f0: float, r: int, *, p_s: float | None = None
) -> DensityOperator:
    """Key pair after first-order-noisy decoding of the swapped state.

    The four decode CNOTs contribute an all-perfect term, a one-faulty
    term, and a maximally mixed remainder.
    """
    if r == 0:
        pair = encoded_pair(beta, f0)
        dec = decode_circuit(pair).matrix
        dec_ni = decode_one_faulty(pair).matrix
    else:
        dec = decode_perfect(beta, f0, r, p_s=p_s).matrix
        dec_ni = decode_nonideal(beta, f0, r, p_s=p_s).matrix
    w_perfect = (1.0 - beta) ** 4
    w_faulty = 4.0 * beta * (1.0 - beta) ** 3
    w_rest = 1.0 - w_perfect - w_faulty
    mat = w_perfect * dec + w_faulty * dec_ni + w_rest * np.eye(4, dtype=complex) / 4.0
    return DensityOperator(mat)


def validate_first_order_vs_exact(beta: float, f0: float, r: int) -> float:
    """Uhlmann fidelity between the first-order final state and a decode in
    which every CNOT carries the exact depolarizing map."""
    from .qstate import uhlmann_fidelity

    if r == 0:
        pre = encoded_pair(beta, f0).matrix
    else:
        pre = swapped_state_nonideal(beta, f0, r).matrix
    exact = DensityOperator(decode_exact_noise_mat(pre, beta))
    first = final_state(beta, f0, r)
    return uhlmann_fidelity(first, exact)
