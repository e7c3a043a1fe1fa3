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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encgen import encoded_bell_state, encoded_pair
from .qstate import DensityOperator

ERROR_PAIR_LABELS = ("XX", "YY", "ZZ", "II", "IX", "XI")
_FLIP_LABELS = frozenset({"IX", "XI"})

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def _apply_pauli_vec(vec: np.ndarray, pauli: str, qubit: int, n: int) -> np.ndarray:
    if pauli == "I":
        return vec
    a, b = 2**qubit, 2 ** (n - 1 - qubit)
    t = vec.reshape(a, 2, b)
    out = np.tensordot(_PAULI[pauli], t, axes=([1], [1]))  # i a b
    return np.moveaxis(out, 0, 1).reshape(-1)


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


@lru_cache(maxsize=1)
def correctable_states() -> CorrectableStateSet:
    """Deduplicated correctable states from the admissible combos.

    Each combo's Paulis act on the left pair's qubits 3-5 (CNOT controls)
    and the right pair's qubits 0-2 (CNOT targets) of the ideal double
    pair.  States equal up to global phase collapse to one representative;
    anything other than exactly 64 distinct states means a register or
    labeling convention broke, so that is a hard failure.
    """
    base = encoded_bell_state().vector
    lefts, rights, parities = [], [], []
    for combo in enumerate_combos().admissible:
        lv, rv = base, base
        phase_pairs = 0
        for k, pair in enumerate(combo.pairs):
            lv = _apply_pauli_vec(lv, pair.control, 3 + k, 6)
            rv = _apply_pauli_vec(rv, pair.target, k, 6)
            if pair.label in ("YY", "ZZ"):
                phase_pairs ^= 1
        lefts.append(lv)
        rights.append(rv)
        parities.append(phase_pairs)
    lefts = np.array(lefts)
    rights = np.array(rights)

    kept: list[int] = []
    for i in range(len(lefts)):
        duplicate = False
        for j in kept:
            ov = np.vdot(lefts[j], lefts[i]) * np.vdot(rights[j], rights[i])
            if abs(abs(ov) - 1.0) < 1e-9:
                duplicate = True
                break
        if not duplicate:
            kept.append(i)
    states = CorrectableStateSet(
        left=lefts[kept].copy(),
        right=rights[kept].copy(),
        phase_trivial=np.array([parities[i] == 0 for i in kept]),
    )
    if len(states) != 64 or int(states.phase_trivial.sum()) != 32:
        raise RuntimeError(
            f"expected 64 distinct correctable states (32 phase trivial), "
            f"found {len(states)} ({int(states.phase_trivial.sum())}); "
            "register or error-labeling convention is inconsistent"
        )
    return states


@dataclass(frozen=True)
class _TwoTermForm:
    """Rows written as g (|a> + c|b>) / sqrt(2) with unit phases g and c.

    Every correctable-state factor has this form (a Pauli string maps
    |000000> and |111111> to basis states up to a phase), so its
    expectation in rho is (rho_aa + rho_bb + 2 Re(c rho_ab)) / 2: index
    arithmetic with no rounded 1/sqrt(2) factors.
    """

    a: np.ndarray  # (64,) int
    b: np.ndarray  # (64,) int
    c: np.ndarray  # (64,) complex, one of +-1, +-i

    @classmethod
    def of(cls, vecs: np.ndarray) -> _TwoTermForm:
        support = np.abs(vecs) > 1e-12
        if not (support.sum(axis=1) == 2).all():
            raise RuntimeError("correctable-state factor is not a two-term superposition")
        a, b = np.nonzero(support)[1].reshape(-1, 2).T
        rows = np.arange(len(vecs))
        ratio = vecs[rows, b] / vecs[rows, a]
        c = np.round(ratio.real) + 1j * np.round(ratio.imag)
        if np.abs(c - ratio).max() > 1e-12 or not (np.abs(c) == 1).all():
            raise RuntimeError("correctable-state factor has a relative phase outside {+-1, +-i}")
        return cls(a, b, c)

    def expectations(self, mat: np.ndarray) -> np.ndarray:
        a, b = self.a, self.b
        return (mat[a, a].real + mat[b, b].real + 2.0 * (self.c * mat[a, b]).real) / 2.0


@lru_cache(maxsize=1)
def _correctable_terms() -> tuple[_TwoTermForm, _TwoTermForm]:
    """Two-term forms of the left and right factors of :func:`correctable_states`."""
    states = correctable_states()
    return _TwoTermForm.of(states.left), _TwoTermForm.of(states.right)


def swap_success_prob(rho_enc: DensityOperator, *, phase_trivial_only: bool = False) -> float:
    """Probability that the joint error pattern of two encoded pairs is
    classically correctable at the swap station.

    Computed in factorized form: the expectation of each 4096-dim
    correctable state against rho_enc (x) rho_enc is the product of two
    64-dim expectations, each read off three matrix entries (see
    :class:`_TwoTermForm`), so the ideal corner gives exactly 1.  With
    ``phase_trivial_only`` the sum is restricted to the 32 states carrying
    no net phase flip; the threshold searches use that restriction (see the
    chain accounting note in :mod:`repeater_keyrate.rates`).
    """
    if rho_enc.dim != 64:
        raise ValueError("swap_success_prob needs a 64-dim encoded pair")
    left, right = _correctable_terms()
    products = left.expectations(rho_enc.matrix) * right.expectations(rho_enc.matrix)
    if phase_trivial_only:
        products = products[correctable_states().phase_trivial]
    return float(np.sum(products))


def chain_success_prob(p_s: float, r: int) -> float:
    """Success probability over r independent swap stations: p_s ** r."""
    if r < 1 or int(r) != r:
        raise ValueError(f"r must be a positive integer, got {r}")
    if not 0.0 <= p_s <= 1.0 + 1e-12:
        raise ValueError(f"p_s must be a probability, got {p_s}")
    return float(min(p_s, 1.0) ** r)


def _resolve_chain(beta: float, f0: float, r: int, p_s: float | None) -> float:
    """P_r = p_s ** r, with p_s computed from the encoded pair when not given."""
    if p_s is None:
        p_s = swap_success_prob(encoded_pair(beta, f0))
    return chain_success_prob(p_s, r)


def _ideal_projector() -> np.ndarray:
    return encoded_bell_state().projector().matrix


def rho_s_weights(beta: float, r: int) -> tuple[float, float, float]:
    """(ideal, dephased, mixed-remainder) weights of the swapped state after
    r stations, each with three first-order-noisy Bell-measurement CNOTs.

    Evaluated in log space so large r underflows cleanly to zero instead of
    overflowing intermediate powers.
    """
    if r < 1 or int(r) != r:
        raise ValueError(f"r must be a positive integer, got {r}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if beta == 0.0:
        return 1.0, 0.0, 0.0
    if beta == 1.0:
        return 0.0, 0.0, 1.0
    log1m = np.log1p(-beta)
    w_ideal = float(np.exp(3 * r * log1m))
    w_deph = float(np.exp(r * (np.log(3.0) + np.log(beta)) + 2 * r * log1m))
    q_r = 1.0 - w_ideal - w_deph
    assert q_r >= -1e-12, f"remainder weight {q_r} negative"
    return w_ideal, w_deph, max(q_r, 0.0)


def rho_s(beta: float, r: int) -> DensityOperator:
    """Swapped state conditioned on correctable errors, r stations deep."""
    w_ideal, w_deph, q_r = rho_s_weights(beta, r)
    proj = _ideal_projector()
    deph = np.zeros((64, 64), dtype=complex)
    deph[0, 0] = deph[63, 63] = 0.5
    return DensityOperator(
        w_ideal * proj + w_deph * deph + q_r * np.eye(64, dtype=complex) / 64.0
    )


def swapped_state_nonideal(
    beta: float, f0: float, r: int, *, p_s: float | None = None
) -> DensityOperator:
    """State after r swaps with noisy Bell-measurement CNOTs.

    ``p_s`` may be passed in to reuse an already computed encoded pair;
    otherwise the full generation pipeline runs.
    """
    p_r = _resolve_chain(beta, f0, r, p_s)
    proj = _ideal_projector()
    comp = (np.eye(64, dtype=complex) - proj) / 63.0
    return DensityOperator(p_r * rho_s(beta, r).matrix + (1.0 - p_r) * comp)
