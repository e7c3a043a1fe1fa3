"""The encoded pair as 64 Pauli-frame weights, in the stdlib alone.

Every gate of the model is a CNOT, every correction a Pauli and every noise
a Pauli channel, so the encoded pair is diagonal in the GHZ basis, one
weight per Pauli frame (README decision 20).  This module carries the
frames through generation, the perfect and the one-faulty decode, and the
correctable errors of the swap.  The rate path never imports it: p_s and
the decode at N = 0 are integer tables in :mod:`~repeater_keyrate.closedform`
that the tests rebuild from these frames.  ``enumerate-errors``, the dense
modules and the tests import it.  Importing it builds no table.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, product

from .closedform import _DECODE_GATES, DECODE_GATE_COUNT, _check_unit, first_order_weights

# A Pauli is an (x, z) pair of bit masks, qubit q of n at bit n - 1 - q as in
# a basis index.  Up to a global phase, X^x Z^z sends |Phi6> to the GHZ basis
# state (|a> + s|63 - a>)/sqrt(2), a = min(x, 63 - x) and s = (-1)^|z|: frame
# 2a + (s < 0), so frame 0 is |Phi6> (README decision 20).  The tables below
# are built on first use.

# one of the three teleported CNOTs on its block (control, target, local
# half, remote half)
_TELEPORT_GATES = ((0, 2), (3, 1))

# (x, y) of the ten nonzero entries |x><y| of the GHZ register prepared with
# two noisy CNOTs (encgen.ghz_prep), one group per weight of _ghz_prep_weights
_GHZ_TERMS = (
    ((0b000, 0b000), (0b111, 0b111)),
    ((0b000, 0b111), (0b111, 0b000)),
    ((0b010, 0b010), (0b101, 0b101)),
    ((0b001, 0b001), (0b110, 0b110), (0b100, 0b100), (0b011, 0b011)),
)


def _ghz_prep_weights(beta):
    """Closed-form weights of the GHZ register: (|000>/|111> diagonal,
    off-diagonal, |010>/|101>, each of the remaining four basis projectors).
    Integer constants keep a ``Fraction`` beta exact."""
    return ((8 + beta * (4 * beta - 10)) / 16, (1 - beta) ** 2 / 2,
            beta * (3 - 2 * beta) / 8, beta / 8)


def _frame(x: int, minus: int) -> int:
    """Frame index of X^x Z^z |Phi6>, given minus = |z| mod 2."""
    return min(x, x ^ 63) << 1 | minus


def _cnot(pauli: tuple[int, int], gate: tuple[int, int], n: int) -> tuple[int, int]:
    """The Pauli through CNOT(control -> target): X spreads forward, Z back."""
    (x, z), (control, target) = pauli, gate
    c, t = 1 << n - 1 - control, 1 << n - 1 - target
    return (x ^ t if x & c else x), (z ^ c if z & t else z)


def _branches(pauli: tuple[int, int], gates, n: int, faulty: int | None) -> list[tuple[int, int]]:
    """The errors that ``pauli`` becomes through the CNOTs ``gates`` when
    gate number ``faulty`` (None: none) is followed by the 16 Paulis of its
    twirl, which is a faulty gate's maximally mixed pair."""
    out = [pauli]
    for k, gate in enumerate(gates):
        out = [_cnot(p, gate, n) for p in out]
        if k == faulty:
            a, b = (1 << n - 1 - q for q in gate)
            masks = (0, a, b, a | b)
            out = [(x ^ u, z ^ v) for x, z in out for u in masks for v in masks]
    return out


@lru_cache(maxsize=1)
def _frame_table() -> tuple[tuple[tuple[int, ...], ...], int]:
    """(columns, denominator): frame i of the encoded pair, less its identity
    remainder, weighs sum_r c_r columns[i][r] / denominator, with r over
    (GHZ weight group, gates all perfect or one faulty, sources in P) in that
    order and c_r the product of those weights (:func:`frame_weights`).

    The GHZ register is a mixture of GHZ3 frames X^x Z_0^minus, and
    teleported CNOT k acts on its own block (code qubits k and 3 + k, Bell
    pair k), so each block's errors are counted apart and then multiplied.
    In a block the Z-measured local half steers an X on the target and the
    X-measured remote half a Z on the control, so an X on the one or a Z on
    the other flips its correction; a source in I - P is an X, Y or Z on the
    local half.
    """
    # (X on control, faulty gate, source in P) -> {(X on control, X on
    # target, Z parity): count}, 16 per error when no gate is faulty
    blocks = {}
    for x_control, faulty, in_p in product((0, 1), (None, 0, 1), (False, True)):
        counts = blocks[x_control, faulty, in_p] = Counter()
        for sx, sz in ((0, 0),) if in_p else ((2, 0), (2, 2), (0, 2)):
            for x, z in _branches((x_control << 3 | sx, sz), _TELEPORT_GATES, 4, faulty):
                counts[x >> 3 & 1, (x >> 2 ^ x >> 1) & 1, (z >> 3 ^ z >> 2 ^ z) & 1] += (
                    16 if faulty is None else 1
                )
    perfect = [(None, None, None)]
    one_faulty = [(None,) * k + (gate,) + (None,) * (2 - k) for k in range(3) for gate in (0, 1)]
    rows = []
    for terms in _GHZ_TERMS:
        ghz = Counter()  # twice the GHZ3 frame coefficients of the group
        for x, y in terms:
            ghz[min(x, x ^ 7), 0] += 1
            ghz[min(x, x ^ 7), 1] += 1 if x == y else -1
        for faults, m in product((perfect, one_faulty), range(4)):
            row = [0] * 64
            in_p = combinations(range(3), m)  # the blocks whose source is in P
            for ((x3, minus), c), fault, ps in product(ghz.items(), faults, in_p):
                outputs = [blocks[x3 >> 2 - k & 1, fault[k], k in ps].items() for k in range(3)]
                for (e0, n0), (e1, n1), (e2, n2) in product(*outputs):
                    x = e0[0] << 5 | e1[0] << 4 | e2[0] << 3 | e0[1] << 2 | e1[1] << 1 | e2[1]
                    row[_frame(x, minus ^ e0[2] ^ e1[2] ^ e2[2])] += c * n0 * n1 * n2
            rows.append(row)
    return tuple(zip(*rows)), 2 * 16**3


@lru_cache(maxsize=512, typed=True)  # typed: 0.0 and Fraction(0) are equal keys
def frame_weights(beta, f0) -> tuple:
    """The 64 frame weights of the encoded pair (README decision 20): the
    columns of :func:`_frame_table` contracted with the GHZ-preparation
    weights, the first-order weights of the six teleported-CNOT gates and
    the source monomials F0^m ((1 - F0)/3)^(3 - m), plus p/64 for the
    gates' identity remainder p.  Exact for ``Fraction`` arguments."""
    _check_unit("beta", beta)
    _check_unit("F0", f0)
    *gates, p = first_order_weights(3 * len(_TELEPORT_GATES), beta)
    sources = [f0**m * ((1 - f0) / 3) ** (3 - m) for m in range(4)]
    weights = [g * v * s for g in _ghz_prep_weights(beta) for v in gates for s in sources]
    columns, denominator = _frame_table()
    mixed = p / 64
    return tuple(
        sum(w * c for w, c in zip(weights, column) if c) / denominator + mixed for column in columns
    )


def _bell_index(pauli: tuple[int, int]) -> int:
    """Bell state (phi+, phi-, psi+, psi-) left on qubits (0, 3) by the
    error ``pauli`` after the decode CNOTs: an X on both Z-measured syndrome
    qubits of a side flips the X correction of its kept qubit."""
    x, z = pauli
    flip = (x >> 5) ^ (x >> 4 & x >> 3) ^ (x >> 2) ^ (x >> 1 & x)
    return 2 * (flip & 1) + ((z >> 5 ^ z >> 2) & 1)


@lru_cache(maxsize=1)
def _decode_tables() -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(perfect, one_faulty) for each frame: the Bell state that its perfect
    decode gives, and the Bell weights, as integers over 64, of its decode
    with one of the four CNOTs faulty, averaged over the four."""
    perfect, one_faulty = [], []
    for i in range(64):
        pauli = (i >> 1, (i & 1) << 5)  # X^x, and Z on qubit 0 for the minus sign
        perfect.append(_bell_index(_branches(pauli, _DECODE_GATES, 6, None)[0]))
        counts = [0] * 4
        for gate in range(DECODE_GATE_COUNT):
            for error in _branches(pauli, _DECODE_GATES, 6, gate):
                counts[_bell_index(error)] += 1
        one_faulty.append(tuple(counts))
    return tuple(perfect), tuple(one_faulty)


def pair_decode_coeffs(beta: float, f0: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Bell coefficients of the perfect and the one-faulty decode of the
    encoded pair itself, with no swap (N = 0), frame by frame; then
    :meth:`ChainState.mix` adds the noise of the decode CNOTs.  The
    reference of the rate path's stored rows
    (:func:`~repeater_keyrate.closedform.pair_decode_closed_form`)."""
    weights, (bells, rows) = frame_weights(beta, f0), _decode_tables()
    perfect = tuple(sum(w for w, bell in zip(weights, bells) if bell == k) for k in range(4))
    return perfect, tuple(sum(w * row[k] for w, row in zip(weights, rows)) / 64 for k in range(4))


# Error pairs (control Pauli, target Pauli) at one Bell-measurement CNOT of
# the swap; IX and XI flip one majority-voted Z outcome.
ERROR_PAIR_LABELS = ("XX", "YY", "ZZ", "II", "IX", "XI")
_FLIP_LABELS = frozenset({"IX", "XI"})


def _admissible(labels) -> bool:
    """Correctable iff at most one pair flips a majority-vote outcome."""
    return sum(label in _FLIP_LABELS for label in labels) <= 1


def _admissible_combos() -> tuple[tuple[str, str, str], ...]:
    """The 160 admissible label triples of the 6^3, in ``itertools.product`` order."""
    return tuple(labels for labels in product(ERROR_PAIR_LABELS, repeat=3) if _admissible(labels))


def _pauli_frame(paulis) -> int:
    """Frame of the Pauli string, as (Pauli, qubit) pairs, applied to |Phi6>."""
    x = z = 0
    for pauli, qubit in paulis:
        bit = 1 << 5 - qubit
        x |= bit if pauli in "XY" else 0
        z |= bit if pauli in "YZ" else 0
    return _frame(x, z.bit_count() & 1)


@lru_cache(maxsize=1)
def _correctable_frames() -> tuple[tuple[tuple[str, str, str], int, int, bool], ...]:
    """(labels, left frame, right frame, phase trivial) of the 64 distinct
    correctable states of the swap, each from its first admissible combo.

    Bell-measurement CNOT k has the left pair's qubit 3 + k as control and
    the right pair's qubit k as target, so a combo is one frame on each
    pair, and combos with the same two frames give the same state.  Phase
    trivial means an even number of YY/ZZ pairs.  Anything but 64 states,
    32 phase trivial, means a register or labeling convention broke.
    """
    distinct = {}
    for labels in _admissible_combos():
        left = _pauli_frame((label[0], 3 + k) for k, label in enumerate(labels))
        right = _pauli_frame((label[1], k) for k, label in enumerate(labels))
        trivial = sum(label in ("YY", "ZZ") for label in labels) % 2 == 0
        distinct.setdefault((left, right), (labels, left, right, trivial))
    states = tuple(distinct.values())
    if len(states) != 64 or sum(state[3] for state in states) != 32:
        raise RuntimeError("expected 64 distinct correctable states, 32 phase trivial; "
                           "register or error-labeling convention is inconsistent")
    return states
