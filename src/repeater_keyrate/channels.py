"""Depolarizing gate noise and the first-order concatenated error model.

Every gate is a CNOT, given as (control, target).  A faulty gate discards
its qubit pair and replaces it with the maximally mixed pair.  A sequence
of n gates is approximated to first order in the gate error: either all
gates work, or exactly one is replaced, with the leftover probability
assigned to the maximally mixed state of the whole register (worst case).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate

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


def _apply_gates(rho: np.ndarray, seq: tuple[tuple[int, int], ...]) -> np.ndarray:
    for control, target in seq:
        rho = _apply_cnot_mat(rho, control, target)
    return rho


def one_faulty_branches(rho: np.ndarray, seq: tuple[tuple[int, int], ...]) -> Iterator[np.ndarray]:
    """The n equally weighted branches of the one-faulty-gate mixture, one
    at a time; the sequence is checked when called.

    Branch a applies gates 0..a-1 perfectly, replaces gate a by the mixed
    pair on its qubits, then applies gates a+1..n-1 perfectly.
    """
    if not seq:
        raise ValueError("gate sequence must contain at least one gate")
    prefixes = accumulate(seq, lambda mat, gate: _apply_cnot_mat(mat, *gate), initial=rho)
    return (_apply_gates(_faulty_gate_mat(prefix, gate), seq[a + 1:])
            for a, (gate, prefix) in enumerate(zip(seq, prefixes)))


def concat_first_order_branches(
    rho: np.ndarray, seq: tuple[tuple[int, int], ...], beta: float
) -> Iterator[tuple[float, np.ndarray]]:
    """The weighted branches of the first-order concatenated map, one at a
    time; beta and the sequence are checked when called.

    Streaming the branches lets callers measure and correct each one before
    averaging without holding them all.
    """
    _check_unit("beta", beta)
    faulty = one_faulty_branches(rho, seq)
    w_perfect, w_branch, p = first_order_weights(len(seq), beta)

    def branches():
        yield w_perfect, _apply_gates(rho, seq)
        if w_branch > 0.0:
            yield from ((w_branch, branch) for branch in faulty)
        if p > 0.0:
            yield p, np.eye(rho.shape[0]) / rho.shape[0]

    return branches()


def source_state_mat(f0: float) -> np.ndarray:
    """Bell pair depolarized by the source: fidelity f0 to phi+, isotropic rest."""
    return frame_state([f0] + [(1.0 - f0) / 3.0] * 3)
