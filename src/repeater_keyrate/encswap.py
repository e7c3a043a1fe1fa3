"""Encoded connection: the correctable states, p_s and the swapped states.

Two encoded pairs meet at a middle station where three Bell-measurement
CNOTs join them.  Correlated two-qubit Pauli errors at a CNOT commute into
harmless errors on the X-basis control / Z-basis target measurements, and
single X errors flip exactly one of the three majority-voted Z outcomes,
so error pairs from a six-element set are classically correctable as long
as at most one CNOT sees an outcome-flipping pair.

Register conventions: each encoded pair has qubits 0-2 at its left station
and 3-5 at its right station.  Bell-measurement CNOT k uses the left
pair's qubit 3+k as control and the right pair's qubit k as target.

Each correctable state is one GHZ frame on each pair, so p_s sums
w_left w_right over 64 frame pairs (:mod:`repeater_keyrate.frames`), each
weight read off the dense pair by
:func:`~repeater_keyrate.qstate.frame_weights_of`; the swapped states are
the :func:`~repeater_keyrate.qstate.frame_state` of their weights.  The
closed forms the rate path uses (:func:`swap_success_closed_form`,
:func:`chain_success_prob`, :meth:`ChainState.weights`) live in
:mod:`repeater_keyrate.closedform`; this module holds the dense states that
validate them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .closedform import ChainState, _check_stations, chain_success_prob, swap_success_closed_form
from .frames import _correctable_frames
from .qstate import DensityOperator, frame_state, frame_weights_of

_INDICES = np.arange(64)


def _pauli_image(paulis) -> np.ndarray:
    """The Pauli string, as (Pauli, qubit) pairs, applied to the encoded Bell
    state (|000000> + |111111>)/sqrt(2) as a dense 64-dim vector, global
    phase included.  The vector is written out here, not taken from the
    frames, so the Gram check stays an independent reference.  Each Pauli
    acts on the vector by index, qubit 0 being the most significant bit:
    X flips the bit, Z negates the entries where it is 1, and Y = iXZ."""
    vector = np.zeros(64, dtype=complex)
    vector[0] = vector[63] = 1.0 / np.sqrt(2)
    for pauli, qubit in paulis:
        bit = 1 << (5 - qubit)
        if pauli in ("Y", "Z"):
            vector = np.where(_INDICES & bit, -vector, vector)
        if pauli in ("X", "Y"):
            vector = vector[_INDICES ^ bit]
        if pauli == "Y":
            vector = 1j * vector
    return vector


@lru_cache(maxsize=1)
def correctable_states() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 64 mutually orthogonal correctable states as dense factors, for
    the Gram check and the full-register validators: (left, right,
    phase_trivial).

    Row i of ``left`` (``right``) is the 64-dim factor on the left (right)
    encoded pair, the first admissible combo of frame pair i applied to the
    ideal pair; the 4096-dim state is their Kronecker product.
    ``phase_trivial`` marks the 32 states whose error applies no net phase
    flip (an even number of correlated YY/ZZ pairs).
    """
    combos, _, _, phase_trivial = zip(*_correctable_frames())
    left = [_pauli_image((labels[0], 3 + k) for k, labels in enumerate(combo)) for combo in combos]
    right = [_pauli_image((labels[1], k) for k, labels in enumerate(combo)) for combo in combos]
    return np.array(left), np.array(right), np.array(phase_trivial)


def swap_success_prob(rho_enc: DensityOperator, *, phase_trivial_only: bool = False) -> float:
    """Probability that the joint error pattern of two encoded pairs is
    classically correctable at the swap station.

    Each correctable state is one GHZ frame on each pair, so its expectation
    against rho_enc (x) rho_enc is a product of two frame expectations of
    rho_enc (:func:`~repeater_keyrate.qstate.frame_weights_of`).  With
    ``phase_trivial_only`` the sum is restricted to the 32 states carrying
    no net phase flip; the threshold searches use that restriction (see the
    chain accounting note in :mod:`repeater_keyrate.rates`).  The rate path uses
    :func:`swap_success_closed_form`, which this validates.
    """
    if rho_enc.dim != 64:
        raise ValueError("swap_success_prob needs a 64-dim encoded pair")
    _, left, right, phase_trivial = zip(*_correctable_frames())
    frames = frame_weights_of(rho_enc.matrix)
    products = frames[list(left)] * frames[list(right)]
    return float(np.sum(products[np.array(phase_trivial)] if phase_trivial_only else products))


def _rho_s_weights(beta: float, r: int) -> np.ndarray:
    """Frame weights of the swapped state conditioned on correctable errors,
    r stations deep: the ideal pair (frame 0), the dephasing
    D = (frames 0 + 1)/2 and I/64."""
    _check_stations(r)
    w_ideal, w_deph, q_r = ChainState(beta).weights(r)
    weights = np.full(64, q_r / 64.0)
    weights[:2] += (w_ideal + w_deph / 2.0, w_deph / 2.0)
    return weights


def swapped_state_nonideal(beta: float, f0: float, r: int) -> DensityOperator:
    """State after r swaps with noisy Bell-measurement CNOTs, with p_s in
    closed form: the correctable-error state with weight P_r, else uniform off
    the ideal pair."""
    p_r = chain_success_prob(swap_success_closed_form(beta, f0), r)
    failed = np.append(0.0, np.full(63, 1.0 / 63.0))
    return DensityOperator(frame_state(p_r * _rho_s_weights(beta, r) + (1.0 - p_r) * failed))
