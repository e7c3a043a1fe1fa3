"""Decoding the 64-dim swapped state down to a two-qubit key pair.

Each side unwinds its repetition-code block with two CNOTs from the first
qubit, measures the other two qubits in Z, and bit-flips the first qubit
only when the syndrome is "11" (the one pattern a single flip on the kept
qubit produces).  The CNOTs are the (control, target) tuples of
``closedform._DECODE_GATES``.  The closed-form Bell coefficients of the
decoded pipeline states (:class:`~repeater_keyrate.closedform.ChainState`)
live in :mod:`repeater_keyrate.closedform`; the explicit circuits here
validate them.  With no swap (r = 0) the decoded coefficients here come
from the encoded pair's Pauli frames and the frame-to-Bell decode tables
(:func:`~repeater_keyrate.frames.pair_decode_coeffs`), the frame-by-frame
reference of the rate path's stored rows
(:func:`~repeater_keyrate.repeaterless.pair_decode_closed_form`), which
``validate`` compares with the circuits.  Each decoded pair
is the :func:`~repeater_keyrate.qstate.frame_state` of its Bell
coefficients (phi+, phi-, psi+, psi-).
"""

from __future__ import annotations

import numpy as np

from .channels import depolarizing_gate_mat, first_order_sum
from .closedform import (
    _DECODE_GATES,
    _TILDE_BELL,
    ChainState,
    chain_success_prob,
    swap_success_closed_form,
)
from .encgen import encoded_pair
from .encswap import swapped_state_nonideal
from .frames import pair_decode_coeffs
from .qstate import (
    DensityOperator,
    _apply_cnot_mat,
    _apply_pauli_mat,
    _measured_blocks,
    frame_state,
    uhlmann_fidelity,
)


def _measure_syndrome_pair(mat: np.ndarray, q1: int, q2: int, target: int) -> np.ndarray:
    """Z-measure qubits q1 < q2, X the target (below q1) iff the outcome is
    (1, 1), discard the measured qubits, and sum the corrected branches."""
    b0, b1 = _measured_blocks(mat, q1, "z")
    b00, b01 = _measured_blocks(b0, q2 - 1, "z")
    b10, b11 = _measured_blocks(b1, q2 - 1, "z")
    return b00 + b01 + b10 + _apply_pauli_mat(b11, "x", target)


def _decode_measurements(mat: np.ndarray) -> np.ndarray:
    mat = _measure_syndrome_pair(mat, 1, 2, target=0)   # -> qubits (0, 3, 4, 5)
    mat = _measure_syndrome_pair(mat, 2, 3, target=1)   # -> qubits (0, 3)
    return mat


def decode_circuit(rho64: DensityOperator) -> DensityOperator:
    """Explicit perfect-gate decoding circuit: 64-dim in, two-qubit pair out."""
    if rho64.dim != 64:
        raise ValueError("decode_circuit expects a six-qubit state")
    mat = rho64.matrix
    for control, target in _DECODE_GATES:
        mat = _apply_cnot_mat(mat, control, target)
    return DensityOperator(_decode_measurements(mat))


def decode_one_faulty(rho64: DensityOperator) -> DensityOperator:
    """Decoding with exactly one of the four CNOTs replaced by the mixed
    pair (uniformly averaged), then measured and corrected as usual."""
    if rho64.dim != 64:
        raise ValueError("decode_one_faulty expects a six-qubit state")
    faulty = first_order_sum(rho64.matrix, _DECODE_GATES, 0.0, 1.0 / len(_DECODE_GATES))
    return DensityOperator(_decode_measurements(faulty))


def decode_exact_noise_mat(mat: np.ndarray, beta: float) -> np.ndarray:
    for gate in _DECODE_GATES:
        mat = depolarizing_gate_mat(mat, gate, beta)
    return _decode_measurements(mat)


def rho_tilde_prime() -> DensityOperator:
    """Two-qubit state produced by one-faulty decoding of either the ideal
    encoded pair or its computational-basis dephasing; a fixed mixture."""
    return DensityOperator(frame_state(_TILDE_BELL))


def decode_perfect(beta: float, f0: float, r: int) -> DensityOperator:
    """State after perfect decoding of the swapped chain state, in closed
    form.  r = 0 means no swap at all: the single encoded pair is decoded
    frame by frame (:func:`pair_decode_coeffs`).
    """
    if r == 0:
        return DensityOperator(frame_state(pair_decode_coeffs(beta, f0)[0]))
    p_r = chain_success_prob(swap_success_closed_form(beta, f0), r)
    return DensityOperator(frame_state(ChainState(beta).decode_coeffs(r, p_r)[0]))


def final_state(beta: float, f0: float, r: int) -> DensityOperator:
    """Key pair after first-order-noisy decoding of the swapped state.

    The four decode CNOTs contribute an all-perfect term, a one-faulty
    term, and a maximally mixed remainder: :meth:`ChainState.mix` of the
    two decodes, from the encoded pair's frames (:func:`pair_decode_coeffs`)
    for r = 0, else of the chain (:meth:`ChainState.decode_coeffs`), where
    :func:`chain_success_prob` rejects an r that is not a positive integer.
    """
    chain = ChainState(beta)
    if r == 0:
        perfect, faulty = pair_decode_coeffs(beta, f0)
    else:
        p_r = chain_success_prob(swap_success_closed_form(beta, f0), r)
        perfect, faulty = chain.decode_coeffs(r, p_r)
    return DensityOperator(frame_state(chain.mix(perfect, faulty)))


def validate_first_order_vs_exact(beta: float, f0: float, r: int) -> float:
    """Uhlmann fidelity between the first-order final state and a decode in
    which every CNOT carries the exact depolarizing map."""
    if r == 0:
        pre = encoded_pair(beta, f0).matrix
    else:
        pre = swapped_state_nonideal(beta, f0, r).matrix
    exact = DensityOperator(decode_exact_noise_mat(pre, beta))
    first = final_state(beta, f0, r)
    return uhlmann_fidelity(first, exact)
