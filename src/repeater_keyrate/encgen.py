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

import itertools
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

# (x, y) of the ten nonzero entries |x><y| of ghz_prep, one group per weight
# of _ghz_prep_weights
_GHZ_TERMS = (
    ((0b000, 0b000), (0b111, 0b111)),
    ((0b000, 0b111), (0b111, 0b000)),
    ((0b010, 0b010), (0b101, 0b101)),
    ((0b001, 0b001), (0b110, 0b110), (0b100, 0b100), (0b011, 0b011)),
)


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
    mat = np.zeros((8, 8), dtype=complex)
    for weight, terms in zip(_ghz_prep_weights(beta), _GHZ_TERMS):
        for x, y in terms:
            mat[x, y] = weight
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
# fast path: pair-block factorization
# ---------------------------------------------------------------------------
#
# The six gates act on three disjoint blocks, code qubits (k, 3+k) plus Bell
# pair k; the GHZ register is ten product terms w |x><y| and each source is
# F0 P + ((1 - F0)/3)(I - P).  So every entry of the encoded pair is a sum of
# products of three block outputs: a fixed table contracted with the weights
# of :func:`_entry_weights`.  Tests compare it with the register simulation.

_PAIR_RULES = (
    MeasurementRule(2, "z", "x", 1),  # local Bell half -> X on code target
    MeasurementRule(3, "x", "z", 0),  # remote Bell half -> Z on code control
)


def _channel_output(sigma: np.ndarray, variant: int) -> np.ndarray:
    """One teleported CNOT on the 4-qubit block (c, t, local, remote); in
    variant 1 (2) its first (second) gate is replaced by the mixed pair."""
    for k, gate in enumerate((GatePlacement("cnot", (0, 2)), GatePlacement("cnot", (3, 1)))):
        sigma = _faulty_gate_mat(sigma, gate) if variant == k + 1 else _apply_gate_mat(sigma, gate)
    return _apply_measurement_rules(sigma, _PAIR_RULES)


@lru_cache(maxsize=1)
def _block_outputs() -> np.ndarray:
    """O[s, v, x, y]: the 4x4 output on (c, t) of variant v applied to
    |x 0><y 0| (x) source s, with s = 0 the Bell projector P and s = 1 its
    complement I - P.  Every gate, correction and source here is real."""
    proj = source_state_mat(1.0)
    out = np.empty((2, 3, 2, 2, 4, 4), dtype=complex)
    for s, src in enumerate((proj, np.eye(4, dtype=complex) - proj)):
        for v, x, y in itertools.product(range(3), (0, 1), (0, 1)):
            code = np.zeros((4, 4), dtype=complex)
            code[2 * x, 2 * y] = 1.0
            out[s, v, x, y] = _channel_output(np.kron(code, src), v)
    return out.real


def _entry_table(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries <row|rho_enc|col> of the encoded pair without its identity
    remainder, as a (4, 2, 4, len) table over the GHZ weight group, the
    first-order weight (all perfect, one faulty) and the number m of
    sources in P, whose coefficient is F0^m ((1 - F0)/3)^(3 - m)."""
    sources_in_p = 3 - np.array(list(itertools.product((0, 1), repeat=3))).sum(axis=1)
    by_m = (sources_in_p == np.arange(4)[:, None]).astype(float)
    # 4-dim index of block k, code qubits (k, 3+k), in a six-qubit index
    k = np.arange(3)[:, None]
    row_idx, col_idx = (2 * ((i >> (5 - k)) & 1) + ((i >> (2 - k)) & 1) for i in (rows, cols))
    # entries[s, v, x, y, j]: the entries of block j for source s and variant v
    entries = _block_outputs()[..., row_idx, col_idx]

    def product(a, b, c):  # (source, entry) factors -> (m, entry)
        return by_m @ (a[:, None, None] * b[None, :, None] * c[None, None, :]).reshape(8, -1)

    table = np.zeros((4, 2, 4, len(rows)))
    for g, terms in enumerate(_GHZ_TERMS):
        for x, y in terms:
            e = [entries[:, :, (x >> 2 - j) & 1, (y >> 2 - j) & 1, j] for j in range(3)]
            perfect = [f[:, 0] for f in e]
            table[g, 0] += product(*perfect)
            for j in range(3):
                table[g, 1] += product(*perfect[:j], e[j][:, 1] + e[j][:, 2], *perfect[j + 1:])
    return table


@lru_cache(maxsize=1)
def _full_entry_table() -> np.ndarray:
    return _entry_table(*np.indices((64, 64)).reshape(2, -1)).reshape(4, 2, 4, 64, 64)


def _entry_weights(beta: float, f0: float) -> tuple[np.ndarray, float]:
    """The (4, 2, 4) weights that :func:`_entry_table` is contracted with,
    and the weight p of the maximally mixed remainder."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if not 0.0 <= f0 <= 1.0:
        raise ValueError(f"F0 must be in [0, 1], got {f0}")
    w_perfect, w_branch, p = first_order_weights(NUM_TELEPORT_GATES, beta)
    monomials = [f0**m * ((1.0 - f0) / 3.0) ** (3 - m) for m in range(4)]
    ghz_and_gates = np.multiply.outer(_ghz_prep_weights(beta), (w_perfect, w_branch))
    return np.multiply.outer(ghz_and_gates, monomials), p


@lru_cache(maxsize=512)
def encoded_pair(beta: float, f0: float) -> DensityOperator:
    """Noisy encoded Bell pair on six qubits.

    Starts from the GHZ register, the |000> register and three depolarized
    Bell pairs, runs the six teleported-CNOT gates under the first-order
    noise model and averages the corrected measurement branches.  The
    identity remainder of the noise map measures down to the maximally
    mixed 64-dim state exactly.
    """
    weights, p = _entry_weights(beta, f0)
    total = np.tensordot(weights, _full_entry_table(), axes=3)
    if p > 0.0:
        total += p * np.eye(64) / 64.0
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
