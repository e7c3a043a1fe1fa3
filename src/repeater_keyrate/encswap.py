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

The closed forms the rate path uses (:func:`swap_success_closed_form`,
:func:`chain_success_prob`, :func:`rho_s_weights`) live in
:mod:`repeater_keyrate.closedform`; this module re-exports them and holds
the dense states and tables that validate them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import chain_success_prob, rho_s_weights, swap_success_closed_form
from .encgen import _entry_table, encoded_bell_state
from .qstate import DensityOperator

ERROR_PAIR_LABELS = ("XX", "YY", "ZZ", "II", "IX", "XI")
_FLIP_LABELS = frozenset({"IX", "XI"})

# phases (on |0>, on |1>) of each Pauli; X and Y also flip the bit
_PAULI_PHASES = {"I": (1, 1), "X": (1, 1), "Y": (1j, -1j), "Z": (1, -1)}


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

    @property
    def flips_outcome(self) -> bool:
        """True if the pair flips one majority-voted Z measurement outcome."""
        return self.label in _FLIP_LABELS


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
        return sum(p.flips_outcome for p in self.pairs) <= 1

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


@dataclass(frozen=True)
class _TwoTermForm:
    """Rows written as g (|a> + c|b>) / sqrt(2) with unit phases g and c.

    Every correctable-state factor has this form (a Pauli string maps
    |000000> and |111111> to basis states up to a phase), so its
    expectation in rho is (rho_aa + rho_bb + 2 Re(c rho_ab)) / 2: index
    arithmetic with no rounded 1/sqrt(2) factors.
    """

    a: np.ndarray  # (64,) int, a < b
    b: np.ndarray  # (64,) int
    c: np.ndarray  # (64,) complex, one of +-1, +-i
    g: np.ndarray  # (64,) complex, one of +-1, +-i

    def vectors(self) -> np.ndarray:
        """The rows as dense 64-dim vectors."""
        amplitude = encoded_bell_state().vector[0]
        rows = np.arange(len(self.a))
        out = np.zeros((len(self.a), 64), dtype=complex)
        out[rows, self.a] = self.g * amplitude
        out[rows, self.b] = self.g * self.c * amplitude
        return out

    def combine(self, aa: np.ndarray, bb: np.ndarray, ab: np.ndarray) -> np.ndarray:
        """Expectations from the entries rho_aa, rho_bb and rho_ab (last axis: row)."""
        return (aa.real + bb.real + 2.0 * (self.c * ab).real) / 2.0

    def expectations(self, mat: np.ndarray) -> np.ndarray:
        a, b = self.a, self.b
        return self.combine(mat[a, a], mat[b, b], mat[a, b])


def _ghz_image(paulis: list[tuple[str, int]]) -> tuple[int, int, complex, complex]:
    """(a, b, c, g) with the Pauli string, as (Pauli, qubit) pairs, taking
    the encoded Bell state to g (|a> + c|b>) / sqrt(2) and a < b."""
    flips, g0, g1 = 0, 1 + 0j, 1 + 0j
    for pauli, qubit in paulis:
        flips |= (pauli in "XY") << (5 - qubit)
        g0, g1 = g0 * _PAULI_PHASES[pauli][0], g1 * _PAULI_PHASES[pauli][1]
    # |000000> -> g0 |flips>, |111111> -> g1 |63 ^ flips>
    if flips > 63 ^ flips:
        flips, g0, g1 = 63 ^ flips, g1, g0
    return flips, 63 ^ flips, g1 * g0.conjugate(), g0


@lru_cache(maxsize=1)
def _correctable_terms() -> tuple[_TwoTermForm, _TwoTermForm, np.ndarray]:
    """Two-term forms of the left and right factors of the 64 correctable
    states, and the mask of the 32 phase-trivial ones.

    Each admissible combo's Paulis act on the left pair's qubits 3-5 (CNOT
    controls) and the right pair's qubits 0-2 (CNOT targets) of the ideal
    double pair.  States equal up to global phase have equal (a, b, c) in
    both factors and collapse to their first occurrence; anything other
    than exactly 64 distinct states means a register or labeling convention
    broke, so that is a hard failure.
    """
    distinct: dict[tuple, tuple] = {}
    for combo in enumerate_combos().admissible:
        left = _ghz_image([(p.control, 3 + k) for k, p in enumerate(combo.pairs)])
        right = _ghz_image([(p.target, k) for k, p in enumerate(combo.pairs)])
        trivial = sum(p.label in ("YY", "ZZ") for p in combo.pairs) % 2 == 0
        distinct.setdefault((left[:3], right[:3]), (left, right, trivial))
    lefts, rights, phase_trivial = zip(*distinct.values())
    phase_trivial = np.array(phase_trivial)
    if len(phase_trivial) != 64 or int(phase_trivial.sum()) != 32:
        raise RuntimeError(
            f"expected 64 distinct correctable states (32 phase trivial), "
            f"found {len(phase_trivial)} ({int(phase_trivial.sum())}); "
            "register or error-labeling convention is inconsistent"
        )
    left, right = (_TwoTermForm(*map(np.array, zip(*rows))) for rows in (lefts, rights))
    return left, right, phase_trivial


@lru_cache(maxsize=1)
def correctable_states() -> CorrectableStateSet:
    """The 64 deduplicated correctable states as dense factors (for the
    Gram check and the full-register validators)."""
    left, right, phase_trivial = _correctable_terms()
    return CorrectableStateSet(left.vectors(), right.vectors(), phase_trivial.copy())


def _success_sum(left: np.ndarray, right: np.ndarray, phase_trivial_only: bool) -> float:
    """Sum of left times right factor expectations over the correctable states."""
    products = left * right
    return float(np.sum(products[_correctable_terms()[2]] if phase_trivial_only else products))


def swap_success_prob(rho_enc: DensityOperator, *, phase_trivial_only: bool = False) -> float:
    """Probability that the joint error pattern of two encoded pairs is
    classically correctable at the swap station.

    Computed in factorized form: the expectation of each 4096-dim
    correctable state against rho_enc (x) rho_enc is the product of two
    64-dim expectations, each read off three matrix entries (see
    :class:`_TwoTermForm`), so the ideal corner gives exactly 1.  With
    ``phase_trivial_only`` the sum is restricted to the 32 states carrying
    no net phase flip; the threshold searches use that restriction (see the
    chain accounting note in :mod:`repeater_keyrate.rates`).  The rate
    path uses :func:`swap_success_closed_form`, which this validates.
    """
    if rho_enc.dim != 64:
        raise ValueError("swap_success_prob needs a 64-dim encoded pair")
    left, right, _ = _correctable_terms()
    return _success_sum(
        left.expectations(rho_enc.matrix), right.expectations(rho_enc.matrix), phase_trivial_only
    )


@lru_cache(maxsize=1)
def _swap_tables() -> tuple[np.ndarray, np.ndarray]:
    """Real (32, 64) tables T with <factor_i|rho_enc|factor_i> = w . T[:, i]
    + p/64 for the weights (w, p) of :func:`encgen._entry_weights`, one
    table per side.  Every entry is a multiple of 1/4; the Bernstein tables
    of :func:`swap_success_closed_form` are built from them (see the tests)."""
    tables = []
    for form in _correctable_terms()[:2]:
        entries = _entry_table(np.r_[form.a, form.b, form.a], np.r_[form.a, form.b, form.b])
        tables.append(form.combine(*entries.reshape(32, 3, -1).swapaxes(0, 1)))
    return tables[0], tables[1]


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
