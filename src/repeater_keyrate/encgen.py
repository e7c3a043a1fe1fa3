"""Generation of the noisy encoded Bell pair on six qubits.

One station prepares (|000>+|111>)/sqrt(2) with two noisy CNOTs, the other
holds |000>, and three teleportation-based CNOTs (each consuming one
distributed Bell pair, two local CNOTs, two measurements and conditional
Paulis) fan the entanglement across.  Gate noise on the six physical CNOTs
is treated to first order; measurement corrections are error free and,
being linear, act once on the first-order mixture.  :func:`encoded_pair` is
the :func:`~repeater_keyrate.qstate.frame_state` of the pair's 64 Pauli-frame
weights (:func:`~repeater_keyrate.frames.frame_weights`); the ideal pair
(|000000> + |111111>)/sqrt(2) is frame 0.  :func:`encoded_pair_direct`
simulates the 12-qubit register and validates it.

Register layout (0-based, 12 qubits during generation):
  0-2   code qubits at the left station (GHZ register)
  3-5   code qubits at the right station (|000> register)
  6+2k  local Bell half of teleported CNOT k     (k = 0, 1, 2)
  7+2k  remote Bell half of teleported CNOT k

The finished pair lives on qubits 0-5, left station first.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channels import depolarizing_gate_mat, first_order_sum, source_state_mat
from .closedform import _check_unit, first_order_weights
from .frames import _GHZ_TERMS, _ghz_prep_weights, frame_weights
from .qstate import DensityOperator, _measure_correct_mat, frame_state

# The three teleported CNOTs in execution order.  Teleported CNOT k
# entangles code qubit k into code qubit 3+k through Bell pair (6+2k, 7+2k):
# a local CNOT onto the near Bell half and a remote CNOT from the far half,
# then a Z measurement of the near half steering an X correction on the
# target and an X measurement of the far half steering a Z correction on
# the control.  A measurement is (qubit, basis, Pauli correction applied
# on outcome 1), the arguments of qstate._measure_correct_mat.
ENCODING_GATES = tuple(gate for k in range(3) for gate in ((k, 6 + 2 * k), (7 + 2 * k, 3 + k)))
ENCODING_MEASUREMENTS = tuple(
    rule for k in range(3) for rule in ((6 + 2 * k, "z", ("x", 3 + k)), (7 + 2 * k, "x", ("z", k)))
)


# ---------------------------------------------------------------------------
# GHZ preparation
# ---------------------------------------------------------------------------

def ghz_prep(beta: float) -> DensityOperator:
    """Three-qubit GHZ register prepared with two depolarized CNOTs.

    Closed form of the state obtained by applying noisy CNOT(0->1) and then
    CNOT(0->2) to (|0>+|1>)|00>/sqrt(2); equals :func:`ghz_prep_circuit`.
    """
    _check_unit("beta", beta)
    mat = np.zeros((8, 8))
    for weight, terms in zip(_ghz_prep_weights(beta), _GHZ_TERMS):
        for x, y in terms:
            mat[x, y] = weight
    return DensityOperator(mat)


def ghz_prep_circuit(beta: float) -> DensityOperator:
    """Same state by explicit simulation of the two faulty CNOTs."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    vec = np.kron(plus, np.eye(4)[0])
    rho = np.outer(vec, vec.conj())
    rho = depolarizing_gate_mat(rho, (0, 1), beta)
    rho = depolarizing_gate_mat(rho, (0, 2), beta)
    return DensityOperator(rho)


def _apply_measurement_rules(mat: np.ndarray) -> np.ndarray:
    """Measure, correct and discard per :data:`ENCODING_MEASUREMENTS`;
    highest qubit first so the remaining indices (and the sub-6 correction
    targets) never shift."""
    for rule in sorted(ENCODING_MEASUREMENTS, reverse=True):
        mat = _measure_correct_mat(mat, *rule)
    return mat


# ---------------------------------------------------------------------------
# the pair from its Pauli frames
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def encoded_pair(beta: float, f0: float) -> DensityOperator:
    """Noisy encoded Bell pair on six qubits, the :func:`frame_state` of its
    64 Pauli-frame weights.  Tests compare it with :func:`encoded_pair_direct`.
    """
    return DensityOperator(frame_state(frame_weights(beta, f0)))


def encoded_pair_direct(beta: float, f0: float) -> DensityOperator:
    """Reference implementation on the full 12-qubit register.

    Same model as :func:`encoded_pair` without the Pauli frames: the 4096-dim
    first-order mixture (:func:`first_order_sum`) is measured and corrected
    once, explicitly.  Slow (~3 s, ~0.7 GB); used to validate the frames.
    """
    src = source_state_mat(f0)
    zero3 = np.eye(8)[0]
    rho = np.kron(ghz_prep(beta).matrix, np.outer(zero3, zero3))
    for _ in range(3):
        rho = np.kron(rho, src)
    w_perfect, w_branch, p = first_order_weights(len(ENCODING_GATES), beta)
    mat = first_order_sum(rho, ENCODING_GATES, w_perfect, w_branch)
    mat[np.diag_indices_from(mat)] += p / len(mat)
    return DensityOperator(_apply_measurement_rules(mat))
