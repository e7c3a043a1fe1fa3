"""Generation of the noisy encoded Bell pair on six qubits.

One station prepares (|000>+|111>)/sqrt(2) with two noisy CNOTs, the other
holds |000>, and three teleportation-based CNOTs (each consuming one
distributed Bell pair, two local CNOTs, two measurements and conditional
Paulis) fan the entanglement across.  Gate noise on the six physical CNOTs
is treated to first order; measurement corrections are error free and are
applied branch by branch before averaging.

Register layout (0-based, 12 qubits during generation):
  0-2   code qubits at the left station (GHZ register)
  3-5   code qubits at the right station (|000> register)
  6+2k  local Bell half of teleported CNOT k     (k = 0, 1, 2)
  7+2k  remote Bell half of teleported CNOT k

The finished pair lives on qubits 0-5, left station first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (
    _faulty_gate_mat,
    concat_first_order_branches,
    depolarizing_gate,
    first_order_weights,
    source_state_mat,
)
from .qstate import (
    DensityOperator,
    GatePlacement,
    GateSequence,
    PureState,
    _apply_gate_mat,
    _measure_correct_mat,
    ghz_state,
    ket,
)

NUM_TELEPORT_GATES = 6


@dataclass(frozen=True)
class MeasurementRule:
    """Measure ``qubit`` in ``basis``; on outcome 1 apply the Pauli correction."""

    qubit: int
    basis: str  # 'z' or 'x'
    correction_kind: str
    correction_qubit: int


@dataclass(frozen=True)
class EncodingCircuit:
    """The six physical CNOTs of the three teleported CNOTs plus their
    measurement/correction rules, in execution order."""

    gates: GateSequence
    measurements: tuple[MeasurementRule, ...]
    num_qubits: int = 12


def encoded_bell_state() -> PureState:
    """(|000000> + |111111>)/sqrt(2), the ideal encoded pair."""
    return ghz_state(6)


# ---------------------------------------------------------------------------
# GHZ preparation
# ---------------------------------------------------------------------------

def _ghz_prep_weights(beta: float) -> tuple[float, float, float, float]:
    """Closed-form weights: (|000>/|111> diagonal, off-diagonal, |010>/|101>,
    each of the remaining four basis projectors)."""
    w_main = 0.5 * (1.0 + beta * (beta / 2.0 - 5.0 / 4.0))
    w_off = 0.5 * (1.0 - beta) ** 2
    w_mid = (beta / 4.0) * (1.5 - beta)
    w_rest = beta / 8.0
    return w_main, w_off, w_mid, w_rest


def ghz_prep(beta: float) -> DensityOperator:
    """Three-qubit GHZ register prepared with two depolarized CNOTs.

    Closed form of the state obtained by applying noisy CNOT(0->1) and then
    CNOT(0->2) to (|0>+|1>)|00>/sqrt(2); equals :func:`ghz_prep_circuit`.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    w_main, w_off, w_mid, w_rest = _ghz_prep_weights(beta)
    mat = np.zeros((8, 8), dtype=complex)
    mat[0, 0] = mat[7, 7] = w_main
    mat[0, 7] = mat[7, 0] = w_off
    mat[0b010, 0b010] = mat[0b101, 0b101] = w_mid
    for idx in (0b001, 0b110, 0b100, 0b011):
        mat[idx, idx] = w_rest
    return DensityOperator(mat)


def ghz_prep_circuit(beta: float) -> DensityOperator:
    """Same state by explicit simulation of the two faulty CNOTs."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    vec = np.kron(plus, ket("00").vector)
    rho = DensityOperator(np.outer(vec, vec.conj()))
    rho = depolarizing_gate(rho, GatePlacement("cnot", (0, 1)), beta)
    rho = depolarizing_gate(rho, GatePlacement("cnot", (0, 2)), beta)
    return rho


# ---------------------------------------------------------------------------
# teleported-CNOT circuit description
# ---------------------------------------------------------------------------

def teleported_cnot_sequence() -> EncodingCircuit:
    """Execution-order gate and measurement plan for the three teleported CNOTs.

    Teleported CNOT k entangles code qubit k into code qubit 3+k through
    Bell pair (6+2k, 7+2k): a local CNOT onto the near Bell half, a remote
    CNOT from the far half, a Z measurement steering an X correction on the
    target and an X measurement steering a Z correction on the control.
    """
    gates: list[GatePlacement] = []
    rules: list[MeasurementRule] = []
    for k in range(3):
        local, remote = 6 + 2 * k, 7 + 2 * k
        gates.append(GatePlacement("cnot", (k, local)))
        gates.append(GatePlacement("cnot", (remote, 3 + k)))
        rules.append(MeasurementRule(local, "z", "x", 3 + k))
        rules.append(MeasurementRule(remote, "x", "z", k))
    return EncodingCircuit(GateSequence(tuple(gates)), tuple(rules))


def _apply_measurement_rules(mat: np.ndarray, rules: tuple[MeasurementRule, ...]) -> np.ndarray:
    """Measure, correct and discard per rule; highest qubit first so the
    remaining indices (and the sub-6 correction targets) never shift."""
    for rule in sorted(rules, key=lambda r: -r.qubit):
        mat = _measure_correct_mat(
            mat, rule.qubit, rule.basis, (rule.correction_kind, rule.correction_qubit)
        )
    return mat


# ---------------------------------------------------------------------------
# fast path: per-teleported-CNOT two-qubit channels
# ---------------------------------------------------------------------------
#
# The six gates act on pairwise disjoint qubits, so every branch of the
# first-order map factorizes into three independent four-qubit blocks
# (code control, code target, and the consumed Bell pair).  Each block is a
# two-qubit -> two-qubit channel; precomputing its 16x16 superoperator makes
# an encoded-pair evaluation a few 64-dim contractions instead of a
# 4096-dim simulation.  Equality with the direct register simulation is
# exact and covered by tests.

_PAIR_RULES = (
    MeasurementRule(2, "z", "x", 1),  # local Bell half -> X on code target
    MeasurementRule(3, "x", "z", 0),  # remote Bell half -> Z on code control
)


def _channel_output(sigma: np.ndarray, variant: str) -> np.ndarray:
    """One teleported CNOT on the 4-qubit block (c, t, local, remote)."""
    gate_a = GatePlacement("cnot", (0, 2))
    gate_b = GatePlacement("cnot", (3, 1))
    if variant == "perfect":
        sigma = _apply_gate_mat(sigma, gate_a)
        sigma = _apply_gate_mat(sigma, gate_b)
    elif variant == "a_faulty":
        sigma = _faulty_gate_mat(sigma, gate_a)
        sigma = _apply_gate_mat(sigma, gate_b)
    elif variant == "b_faulty":
        sigma = _apply_gate_mat(sigma, gate_a)
        sigma = _faulty_gate_mat(sigma, gate_b)
    else:
        raise ValueError(variant)
    return _apply_measurement_rules(sigma, _PAIR_RULES)


@lru_cache(maxsize=64)
def _teleported_superops(f0: float) -> dict[str, np.ndarray]:
    """16x16 superoperators (as (4,4,4,4) arrays) of the teleported-CNOT
    channel for a source pair of fidelity f0, one per noise variant."""
    rho_dep = source_state_mat(f0)
    ops = {}
    for variant in ("perfect", "a_faulty", "b_faulty"):
        s = np.zeros((4, 4, 4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                unit = np.zeros((4, 4), dtype=complex)
                unit[i, j] = 1.0
                s[:, :, i, j] = _channel_output(np.kron(unit, rho_dep), variant)
        ops[variant] = s
    return ops


def _apply_pair_channel(rho: np.ndarray, superop: np.ndarray, qa: int, qb: int) -> np.ndarray:
    """Apply a two-qubit channel (superop indexed [k,l,i,j]) to qubits (qa, qb)."""
    n = 6
    ket_axes = [qa, qb] + [q for q in range(n) if q not in (qa, qb)]
    axes = ket_axes + [n + q for q in ket_axes]
    inv = np.argsort(axes)
    t = rho.reshape([2] * (2 * n)).transpose(axes).reshape(4, 2 ** (n - 2), 4, 2 ** (n - 2))
    out = np.einsum("klij,irjs->krls", superop, t, optimize=True)
    return out.reshape([2] * (2 * n)).transpose(inv).reshape(2**n, 2**n)


@lru_cache(maxsize=512)
def encoded_pair(beta: float, f0: float) -> DensityOperator:
    """Noisy encoded Bell pair on six qubits.

    Starts from the GHZ register, the |000> register and three depolarized
    Bell pairs, runs the six teleported-CNOT gates under the first-order
    noise model and averages the corrected measurement branches.  The
    identity remainder of the noise map measures down to the maximally
    mixed 64-dim state exactly.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if not 0.0 <= f0 <= 1.0:
        raise ValueError(f"F0 must be in [0, 1], got {f0}")
    ops = _teleported_superops(f0)
    zero3 = ket("000").vector
    rho6 = np.kron(ghz_prep(beta).matrix, np.outer(zero3, zero3.conj()))

    pairs = [(0, 3), (1, 4), (2, 5)]
    w_perfect, w_branch, p = first_order_weights(NUM_TELEPORT_GATES, beta)

    total = np.zeros((64, 64), dtype=complex)
    for k in range(3):
        # all teleported CNOTs except k applied perfectly
        base = rho6
        for m in range(3):
            if m != k:
                base = _apply_pair_channel(base, ops["perfect"], *pairs[m])
        if k == 0:
            total += w_perfect * _apply_pair_channel(base, ops["perfect"], *pairs[k])
        if w_branch > 0.0:
            total += w_branch * _apply_pair_channel(base, ops["a_faulty"], *pairs[k])
            total += w_branch * _apply_pair_channel(base, ops["b_faulty"], *pairs[k])
    if p > 0.0:
        total += p * np.eye(64, dtype=complex) / 64.0
    return DensityOperator(total)


def encoded_pair_direct(beta: float, f0: float) -> DensityOperator:
    """Reference implementation on the full 12-qubit register.

    Same model as :func:`encoded_pair` without the factorization: the
    first-order map runs on the 4096-dim state and every branch is measured
    and corrected explicitly.  Slow; used to validate the fast path.
    """
    circuit = teleported_cnot_sequence()
    src = source_state_mat(f0)
    zero3 = ket("000").vector
    rho = np.kron(ghz_prep(beta).matrix, np.outer(zero3, zero3.conj()))
    for _ in range(3):
        rho = np.kron(rho, src)
    branches = concat_first_order_branches(rho, circuit.gates, beta)
    total = np.zeros((64, 64), dtype=complex)
    for weight, branch in branches:
        total += weight * _apply_measurement_rules(branch, circuit.measurements)
    return DensityOperator(total)
