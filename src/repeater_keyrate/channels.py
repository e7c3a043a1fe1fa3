"""Depolarizing gate noise and the first-order concatenated error model.

A faulty two-qubit gate discards its qubit pair and replaces it with the
maximally mixed pair.  A sequence of n gates is approximated to first order
in the gate error: either all gates work, or exactly one is replaced, with
the leftover probability assigned to the maximally mixed state of the whole
register (worst case).
"""

from __future__ import annotations

import numpy as np

from .closedform import first_order_weights
from .qstate import (
    GatePlacement,
    _apply_gate_mat,
    _insert_mixed_pair_mat,
    _num_qubits,
    _partial_trace_mat,
    bell_state,
)


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")


def _require_two_qubit(gate: GatePlacement) -> None:
    if not gate.is_two_qubit:
        raise ValueError(f"noise maps act on two-qubit gates only, got {gate.kind}")


def _faulty_gate_mat(rho: np.ndarray, gate: GatePlacement) -> np.ndarray:
    """Replace the gate by discarding its qubit pair and inserting 1/4."""
    n = _num_qubits(rho.shape[0])
    i, j = gate.qubits
    keep = [q for q in range(n) if q not in (i, j)]
    reduced = _partial_trace_mat(rho, keep)
    return _insert_mixed_pair_mat(reduced, i, j, n)


def depolarizing_gate_mat(rho: np.ndarray, gate: GatePlacement, beta: float) -> np.ndarray:
    """Single depolarized two-qubit gate.

    With probability 1-beta the gate acts perfectly; with probability beta
    its qubit pair is traced out and replaced by the maximally mixed pair.
    """
    _check_beta(beta)
    _require_two_qubit(gate)
    perfect = _apply_gate_mat(rho, gate)
    if beta == 0.0:
        return perfect
    return (1.0 - beta) * perfect + beta * _faulty_gate_mat(rho, gate)


def one_faulty_branches(rho: np.ndarray, seq: tuple[GatePlacement, ...]) -> list[np.ndarray]:
    """The n equally weighted branches of the one-faulty-gate mixture.

    Branch a applies gates 0..a-1 perfectly, replaces gate a by the mixed
    pair on its qubits, then applies gates a+1..n-1 perfectly.
    """
    n = len(seq)
    if n < 1:
        raise ValueError("gate sequence must contain at least one gate")
    for g in seq:
        _require_two_qubit(g)
    branches = []
    prefix = rho
    for a, gate in enumerate(seq):
        branch = _faulty_gate_mat(prefix, gate)
        for later in seq[a + 1:]:
            branch = _apply_gate_mat(branch, later)
        branches.append(branch)
        prefix = _apply_gate_mat(prefix, gate)
    return branches


def concat_first_order_branches(
    rho: np.ndarray, seq: tuple[GatePlacement, ...], beta: float
) -> list[tuple[float, np.ndarray]]:
    """Weighted branch list of the first-order concatenated map.

    Keeping branches separate lets callers apply measurements and
    corrections per branch before averaging.
    """
    _check_beta(beta)
    n = len(seq)
    if n < 1:
        raise ValueError("gate sequence must contain at least one gate")
    w_perfect, w_branch, p = first_order_weights(n, beta)
    perfect = rho
    for g in seq:
        perfect = _apply_gate_mat(perfect, g)
    out = [(w_perfect, perfect)]
    if w_branch > 0.0:
        out.extend((w_branch, b) for b in one_faulty_branches(rho, seq))
    if p > 0.0:
        d = rho.shape[0]
        out.append((p, np.eye(d, dtype=complex) / d))
    return out


def source_state_mat(f0: float) -> np.ndarray:
    """Bell pair depolarized by the source: fidelity f0 to phi+, isotropic rest."""
    proj = bell_state("phi+").projector().matrix
    return f0 * proj + (1.0 - f0) / 3.0 * (np.eye(4, dtype=complex) - proj)
