"""Depolarizing gate noise and the first-order concatenated error model.

Every gate is a CNOT, given as (control, target).  A faulty gate discards
its qubit pair and replaces it with the maximally mixed pair.  A sequence
of n gates is approximated to first order in the gate error: either all
gates work, or exactly one is replaced, with the leftover probability
assigned to the maximally mixed state of the whole register (worst case).
"""

from __future__ import annotations

import numpy as np

from .closedform import _check_unit, first_order_weights
from .qstate import _apply_cnot_mat, _depolarize_mat, frame_state


def _faulty_gate_mat(rho: np.ndarray, gate: tuple[int, int]) -> np.ndarray:
    """Replace the gate by the maximally mixed pair on its qubits: both
    depolarized, the lower one first.  That is the twirl over the 16 Pauli
    pairs that :func:`repeater_keyrate.frames._branches` models."""
    low, high = sorted(gate)
    return _depolarize_mat(_depolarize_mat(rho, low), high)


def depolarizing_gate_mat(rho: np.ndarray, gate: tuple[int, int], beta: float) -> np.ndarray:
    """Single depolarized CNOT, given as (control, target).

    With probability 1-beta the gate acts perfectly; with probability beta
    its qubit pair is replaced by the maximally mixed pair.
    """
    _check_unit("beta", beta)
    control, target = gate
    perfect = _apply_cnot_mat(rho, control, target)
    if beta == 0.0:
        return perfect
    return (1.0 - beta) * perfect + beta * _faulty_gate_mat(rho, gate)


def one_faulty_branches(rho: np.ndarray, seq: tuple[tuple[int, int], ...]) -> list[np.ndarray]:
    """The n equally weighted branches of the one-faulty-gate mixture.

    Branch a applies gates 0..a-1 perfectly, replaces gate a by the mixed
    pair on its qubits, then applies gates a+1..n-1 perfectly.
    """
    n = len(seq)
    if n < 1:
        raise ValueError("gate sequence must contain at least one gate")
    branches = []
    prefix = rho
    for a, gate in enumerate(seq):
        branch = _faulty_gate_mat(prefix, gate)
        for later in seq[a + 1:]:
            branch = _apply_cnot_mat(branch, *later)
        branches.append(branch)
        prefix = _apply_cnot_mat(prefix, *gate)
    return branches


def concat_first_order_branches(
    rho: np.ndarray, seq: tuple[tuple[int, int], ...], beta: float
) -> list[tuple[float, np.ndarray]]:
    """Weighted branch list of the first-order concatenated map.

    Keeping branches separate lets callers apply measurements and
    corrections per branch before averaging.
    """
    _check_unit("beta", beta)
    n = len(seq)
    if n < 1:
        raise ValueError("gate sequence must contain at least one gate")
    w_perfect, w_branch, p = first_order_weights(n, beta)
    perfect = rho
    for control, target in seq:
        perfect = _apply_cnot_mat(perfect, control, target)
    out = [(w_perfect, perfect)]
    if w_branch > 0.0:
        out.extend((w_branch, b) for b in one_faulty_branches(rho, seq))
    if p > 0.0:
        d = rho.shape[0]
        out.append((p, np.eye(d, dtype=complex) / d))
    return out


def source_state_mat(f0: float) -> np.ndarray:
    """Bell pair depolarized by the source: fidelity f0 to phi+, isotropic rest."""
    return frame_state([f0] + [(1.0 - f0) / 3.0] * 3)
