"""Encoded connection: correctable-error counting and the swapped states.

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
w_left w_right over 64 frame pairs.  The closed forms the rate path uses
(:func:`swap_success_closed_form`, :func:`chain_success_prob`,
:func:`rho_s_weights`) live in :mod:`repeater_keyrate.closedform`; this
module re-exports them and holds the dense states that validate them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .closedform import (
    ERROR_PAIR_LABELS,
    _admissible,
    _correctable_frames,
    chain_success_prob,
    rho_s_weights,
    swap_success_closed_form,
)
from .encgen import encoded_bell_state
from .qstate import _SINGLE_QUBIT_GATES, DensityOperator


@dataclass(frozen=True)
class ErrorPair:
    """(control Pauli, target Pauli) at one Bell-measurement CNOT."""

    label: str

    def __post_init__(self):
        if self.label not in ERROR_PAIR_LABELS:
            raise ValueError(f"label must be one of {ERROR_PAIR_LABELS}, got {self.label!r}")

    @property
    def control(self) -> str:
        return self.label[0]

    @property
    def target(self) -> str:
        return self.label[1]


@dataclass(frozen=True)
class PauliCombo:
    """One error pair per Bell-measurement CNOT."""

    pairs: tuple[ErrorPair, ErrorPair, ErrorPair]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if len(self.pairs) != 3:
            raise ValueError("a combo assigns exactly three error pairs")

    @property
    def is_admissible(self) -> bool:
        """Correctable iff at most one pair flips a majority-vote outcome."""
        return _admissible(self.labels())

    def labels(self) -> tuple[str, str, str]:
        return tuple(p.label for p in self.pairs)


@dataclass(frozen=True)
class ComboCounts:
    raw_count: int
    admissible_count: int
    paper_permutation_count: int
    admissible: tuple[PauliCombo, ...]


def enumerate_combos() -> ComboCounts:
    """All 6^3 error-pair assignments and the 160 correctable ones.

    The 160 x 6 = 960 figure counts position permutations separately and is
    reported only for parity with that convention; the physics below uses
    the 64 deduplicated states.
    """
    all_combos = [
        PauliCombo(tuple(ErrorPair(lbl) for lbl in labels))
        for labels in itertools.product(ERROR_PAIR_LABELS, repeat=3)
    ]
    admissible = tuple(c for c in all_combos if c.is_admissible)
    return ComboCounts(
        raw_count=len(all_combos),
        admissible_count=len(admissible),
        paper_permutation_count=len(admissible) * 6,
        admissible=admissible,
    )


@dataclass(frozen=True)
class CorrectableStateSet:
    """The 64 mutually orthogonal correctable states, factorized per pair.

    Row i of ``left`` (``right``) holds the 64-dim factor acting on the
    left (right) encoded pair; the full 4096-dim state is their Kronecker
    product.  ``phase_trivial`` marks the 32 states whose generating error
    applies no net phase flip (an even number of correlated YY/ZZ pairs);
    the other 32 are their phase-flipped partners.
    """

    left: np.ndarray   # (64, 64)
    right: np.ndarray  # (64, 64)
    phase_trivial: np.ndarray  # (64,) bool

    def __len__(self) -> int:
        return self.left.shape[0]

    def full_vector(self, i: int) -> np.ndarray:
        return np.kron(self.left[i], self.right[i])


def _pauli_image(paulis) -> np.ndarray:
    """The Pauli string, as (Pauli, qubit) pairs, applied to the encoded Bell
    state as a dense 64-dim vector, global phase included."""
    factors = [np.eye(2)] * 6
    for pauli, qubit in paulis:
        if pauli != "I":
            factors[qubit] = _SINGLE_QUBIT_GATES[pauli.lower()]
    return reduce(np.kron, factors) @ encoded_bell_state().vector


@lru_cache(maxsize=1)
def correctable_states() -> CorrectableStateSet:
    """The 64 deduplicated correctable states as dense factors (for the
    Gram check and the full-register validators): the first admissible
    combo of each frame pair, applied to the ideal double pair."""
    combos, _, _, phase_trivial = zip(*_correctable_frames())
    left = [_pauli_image((labels[0], 3 + k) for k, labels in enumerate(combo)) for combo in combos]
    right = [_pauli_image((labels[1], k) for k, labels in enumerate(combo)) for combo in combos]
    return CorrectableStateSet(np.array(left), np.array(right), np.array(phase_trivial))


def _frame_expectations(mat: np.ndarray) -> np.ndarray:
    """<x, +-|rho|x, +-> of the 64 frames, frame 2x + (sign < 0), each read
    off three entries as (rho_xx + rho_yy +- 2 Re rho_xy)/2 with y = 63 - x:
    no rounded 1/sqrt(2) factors, so the ideal pair gives exactly 1."""
    x = np.arange(32)
    diag = mat[x, x].real + mat[63 - x, 63 - x].real
    coherence = 2.0 * mat[x, 63 - x].real
    return np.column_stack(((diag + coherence) / 2.0, (diag - coherence) / 2.0)).reshape(64)


def swap_success_prob(rho_enc: DensityOperator, *, phase_trivial_only: bool = False) -> float:
    """Probability that the joint error pattern of two encoded pairs is
    classically correctable at the swap station.

    Each correctable state is one GHZ frame on each pair, so its expectation
    against rho_enc (x) rho_enc is a product of two frame expectations of
    rho_enc (:func:`_frame_expectations`).  With ``phase_trivial_only``
    the sum is restricted to the 32 states carrying no net phase flip; the
    threshold searches use that restriction (see the chain accounting note
    in :mod:`repeater_keyrate.rates`).  The rate path uses
    :func:`swap_success_closed_form`, which this validates.
    """
    if rho_enc.dim != 64:
        raise ValueError("swap_success_prob needs a 64-dim encoded pair")
    _, left, right, phase_trivial = zip(*_correctable_frames())
    frames = _frame_expectations(rho_enc.matrix)
    products = frames[list(left)] * frames[list(right)]
    return float(np.sum(products[np.array(phase_trivial)] if phase_trivial_only else products))


def _ideal_projector() -> np.ndarray:
    return encoded_bell_state().projector().matrix


def rho_s(beta: float, r: int) -> DensityOperator:
    """Swapped state conditioned on correctable errors, r stations deep."""
    w_ideal, w_deph, q_r = rho_s_weights(beta, r)
    proj = _ideal_projector()
    deph = np.zeros((64, 64), dtype=complex)
    deph[0, 0] = deph[63, 63] = 0.5
    return DensityOperator(
        w_ideal * proj + w_deph * deph + q_r * np.eye(64, dtype=complex) / 64.0
    )


def swapped_state_nonideal(beta: float, f0: float, r: int) -> DensityOperator:
    """State after r swaps with noisy Bell-measurement CNOTs, with p_s in
    closed form."""
    p_r = chain_success_prob(swap_success_closed_form(beta, f0), r)
    proj = _ideal_projector()
    comp = (np.eye(64, dtype=complex) - proj) / 63.0
    return DensityOperator(p_r * rho_s(beta, r).matrix + (1.0 - p_r) * comp)
