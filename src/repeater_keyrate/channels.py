"""Depolarizing gate noise and the first-order concatenated error model.

Every gate is a CNOT, given as (control, target).  A faulty gate discards
its qubit pair and replaces it with the maximally mixed pair.  A sequence
of n gates is approximated to first order in the gate error: either all
gates work, or exactly one is replaced, with the leftover probability
assigned to the maximally mixed state of the whole register (worst case).
:func:`first_order_sum` builds that mixture in one pass, to be measured once.
"""

from __future__ import annotations

import numpy as np

from .closedform import _check_unit
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


def first_order_sum(
    rho: np.ndarray, seq: tuple[tuple[int, int], ...], w_perfect: float, w_branch: float
) -> np.ndarray:
    """w_perfect times the all-perfect run of the sequence plus w_branch times
    the sum S of its n one-faulty branches, in one pass; the mixed remainder
    is the caller's.  Measure-and-correct is linear, so callers measure the
    sum once instead of each branch.

    Branch a applies gates 0..a-1 perfectly, replaces gate a by the mixed
    pair on its qubits, then applies gates a+1..n-1 perfectly, so
    S <- CNOT_a(S) + faulty_a(prefix_a) beside the perfect prefix.  With
    w_branch = 0 no faulty term is built.
    """
    if not seq:
        raise ValueError("gate sequence must contain at least one gate")
    faulty = None
    for gate in seq:
        if w_branch:
            term = _faulty_gate_mat(rho, gate)
            if faulty is not None:
                term += _apply_cnot_mat(faulty, *gate)
            faulty = term
        rho = _apply_cnot_mat(rho, *gate)
    rho *= w_perfect
    if faulty is not None:
        faulty *= w_branch
        rho += faulty
    return rho


def source_state_mat(f0: float) -> np.ndarray:
    """Bell pair depolarized by the source: fidelity f0 to phi+, isotropic rest."""
    _check_unit("F0", f0)
    return frame_state([f0] + [(1.0 - f0) / 3.0] * 3)
