"""Closed-form scalars of the rate and threshold paths, in the stdlib alone.

The encoded pair is 64 numbers: every gate of the model is a CNOT, every
correction a Pauli and every noise a Pauli channel, so the pair is diagonal
in the GHZ basis, one weight per Pauli frame (README decision 20).  Past the
pair every stage of the pipeline is a handful of numbers: the swap success
p_s, the weights of the swapped state, the chain success P_r and the Bell
coefficients of the decoded pair.  This module holds the one implementation
of each; the dense modules (:mod:`~repeater_keyrate.qstate`,
:mod:`~repeater_keyrate.channels`, :mod:`~repeater_keyrate.encgen`,
:mod:`~repeater_keyrate.encswap`, :mod:`~repeater_keyrate.decode`) re-export
them or build their matrices from them, and validate them against the 64-
and 4096-dimensional simulation.  Importing it loads no numpy and builds no
table.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, product

# CNOTs (control, target) of the decoding circuit, Alice on qubits 0-2 and
# Bob on 3-5: per side onto the third qubit, then onto the second
_DECODE_GATES = ((0, 2), (0, 1), (3, 5), (3, 4))
DECODE_GATE_COUNT = len(_DECODE_GATES)
# Bell coefficients (phi+, phi-, psi+, psi-) of rho_tilde_prime, the
# one-faulty decode of the ideal encoded pair and of its dephasing
_TILDE_BELL = (5 / 16, 5 / 16, 3 / 16, 3 / 16)


class BellDiagCoeffs(namedtuple(
    "BellDiagCoeffs", "phi_plus phi_minus psi_plus psi_minus remainder_norm", defaults=(0.0,)
)):
    """Bell-basis diagonal of a two-qubit state, plus the off-diagonal residue."""

    __slots__ = ()

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi_plus, self.phi_minus, self.psi_plus, self.psi_minus)


def first_order_weights(n: int, beta: float) -> tuple[float, float, float]:
    """(all-perfect, per-faulty-branch, identity remainder) weights of n
    first-order-noisy gates.

    The identity remainder is p = 1 - (1-beta)^n - n beta (1-beta)^(n-1),
    of order beta^2.  Exact for a ``Fraction`` beta.
    """
    w_perfect = (1 - beta) ** n
    w_branch = beta * (1 - beta) ** (n - 1)
    p = 1 - w_perfect - n * w_branch
    return w_perfect, w_branch, max(p, 0.0)


# ---------------------------------------------------------------------------
# Pauli frames of the encoded pair
# ---------------------------------------------------------------------------
#
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
    if not 0 <= beta <= 1:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if not 0 <= f0 <= 1:
        raise ValueError(f"F0 must be in [0, 1], got {f0}")
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
    :meth:`ChainState.mix` adds the noise of the decode CNOTs."""
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
    for labels in product(ERROR_PAIR_LABELS, repeat=3):
        if _admissible(labels):
            left = _pauli_frame((label[0], 3 + k) for k, label in enumerate(labels))
            right = _pauli_frame((label[1], k) for k, label in enumerate(labels))
            trivial = sum(label in ("YY", "ZZ") for label in labels) % 2 == 0
            distinct.setdefault((left, right), (labels, left, right, trivial))
    states = tuple(distinct.values())
    if len(states) != 64 or sum(state[3] for state in states) != 32:
        raise RuntimeError("expected 64 distinct correctable states, 32 phase trivial; "
                           "register or error-labeling convention is inconsistent")
    return states


# ---------------------------------------------------------------------------
# swap success
# ---------------------------------------------------------------------------
#
# The swap success p_s is an exact rational polynomial of degree 16 in beta
# and 6 in eps = 1 - F0 (README decision 15).  Each table holds its Bernstein
# coefficients on [0, 1]^2 times the binomials C(16, i) C(6, j), as integers
# over _SUCCESS_DENOMINATOR, so that
#   p_s = sum_ij table[i][j] beta^i (1 - beta)^(16 - i) eps^j (1 - eps)^(6 - j) / denominator.
# Every Bernstein coefficient lies in [1/128, 1]: the sum never cancels.  The
# tests rebuild both tables in exact rationals from the frame weights, as
# p_s = sum of w_left w_right over the correctable frame pairs.

_SUCCESS_ALL = (
    (46656, 46656, 155520, 51840, 25920, 12096, 5376),
    (209952, 812592, 1157328, 851040, 409536, 193392, 57680),
    (707130, 2967516, 5041926, 4763016, 2936358, 1257948, 280538),
    (1510488, 7220016, 14658408, 16695072, 11602728, 4762800, 896024),
    (2840184, 15046560, 33957144, 42177024, 30636072, 12387168, 2175304),
    (4793904, 27002160, 64276416, 82962144, 61340976, 24653808, 4206816),
    (7100460, 41358600, 101115540, 132885360, 99041940, 39699720, 6685740),
    (9027936, 53522208, 132622272, 175825728, 131546592, 52661664, 8812800),
    (9625716, 57530736, 143416980, 190874880, 143044380, 57232656, 9551196),
    (8389332, 50291280, 125646228, 167458752, 125571708, 50231664, 8374428),
    (5842206, 35049348, 87616242, 116815608, 87609762, 35044164, 5840910),
    (3184272, 19105632, 47764080, 63685440, 47764080, 19105632, 3184272),
    (1326780, 7960680, 19901700, 26535600, 19901700, 7960680, 1326780),
    (408240, 2449440, 6123600, 8164800, 6123600, 2449440, 408240),
    (87480, 524880, 1312200, 1749600, 1312200, 524880, 87480),
    (11664, 69984, 174960, 233280, 174960, 69984, 11664),
    (729, 4374, 10935, 14580, 10935, 4374, 729),
)
_SUCCESS_PHASE_TRIVIAL = (
    (93312, 93312, 124416, 41472, 31104, 12672, 5120),
    (419904, 1053648, 1053648, 766368, 435168, 199824, 55824),
    (981234, 3383532, 4995918, 4573800, 2951406, 1285356, 275218),
    (1872072, 7896528, 14732280, 16351200, 11579832, 4831056, 884360),
    (3248424, 15863040, 34093224, 41753664, 30590712, 12477888, 2160184),
    (5120496, 27655344, 64385280, 82623456, 61304688, 24726384, 4194720),
    (7263756, 41685192, 101169972, 132716016, 99023796, 39736008, 6679692),
    (9074592, 53615520, 132637824, 175777344, 131541408, 52672032, 8811072),
    (9631548, 57542400, 143418924, 190868832, 143043732, 57233952, 9550980),
    (8389332, 50291280, 125646228, 167458752, 125571708, 50231664, 8374428),
    (5842206, 35049348, 87616242, 116815608, 87609762, 35044164, 5840910),
    (3184272, 19105632, 47764080, 63685440, 47764080, 19105632, 3184272),
    (1326780, 7960680, 19901700, 26535600, 19901700, 7960680, 1326780),
    (408240, 2449440, 6123600, 8164800, 6123600, 2449440, 408240),
    (87480, 524880, 1312200, 1749600, 1312200, 524880, 87480),
    (11664, 69984, 174960, 233280, 174960, 69984, 11664),
    (729, 4374, 10935, 14580, 10935, 4374, 729),
)

_SUCCESS_DENOMINATOR = {False: 46656.0, True: 93312.0}  # by phase_trivial_only
_SUCCESS_TABLES = {False: _SUCCESS_ALL, True: _SUCCESS_PHASE_TRIVIAL}


def _bernstein_ratio(x: float, x_bar: float, degree: int) -> tuple[float, float, bool]:
    """(scale, ratio, mirrored) with x^k x_bar^(degree - k) = scale * ratio^k,
    or, when mirrored (x > x_bar), scale * ratio^(degree - k); the ratio
    is then at most 1 either way."""
    if x <= x_bar:
        return x_bar**degree, x / x_bar, False
    return x**degree, x_bar / x, True


@lru_cache(maxsize=1024)
def _success_rows(f0: float, phase_trivial_only: bool) -> tuple[float, tuple[float, ...]]:
    """(scale, rows) at this F0: each table row summed over eps = 1 - F0 by
    Horner once per F0, not once per point (:func:`swap_success_closed_form`)."""
    table = _SUCCESS_TABLES[phase_trivial_only]
    scale, ratio, mirrored = _bernstein_ratio(1.0 - f0, f0, len(table[0]) - 1)
    rows = []
    for row in table:
        inner = 0.0
        for c in row if mirrored else reversed(row):
            inner = inner * ratio + c
        rows.append(inner)
    return scale, tuple(rows)


@lru_cache(maxsize=4096)
def swap_success_closed_form(beta: float, f0: float, *, phase_trivial_only: bool = False) -> float:
    """:func:`~repeater_keyrate.encswap.swap_success_prob` of
    ``encoded_pair(beta, f0)`` without the pair.

    p_s(beta, 1 - F0) is the exact polynomial behind the dense tables,
    stored as positive Bernstein coefficients and evaluated by Horner, in
    eps and then in beta (no cancellation).  It matches the dense pair to
    ~1e-15 relative over [0, 1]^2 and is exactly 1 at the ideal corner.  With
    ``phase_trivial_only`` the sum runs over the 32 phase-trivial
    correctable states (the thresholds' accounting).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if not 0.0 <= f0 <= 1.0:
        raise ValueError(f"F0 must be in [0, 1], got {f0}")
    e_scale, rows = _success_rows(f0, phase_trivial_only)
    b_scale, b_ratio, b_mirrored = _bernstein_ratio(beta, 1.0 - beta, len(rows) - 1)
    total = 0.0
    for inner in rows if b_mirrored else reversed(rows):
        total = total * b_ratio + inner
    return total * b_scale * e_scale / _SUCCESS_DENOMINATOR[phase_trivial_only]


def _check_stations(r: int) -> None:
    if r < 1 or int(r) != r:
        raise ValueError(f"r must be a positive integer, got {r}")


def chain_success_prob(p_s: float, r: int) -> float:
    """Success probability over r independent swap stations: p_s ** r."""
    _check_stations(r)
    if not 0.0 <= p_s <= 1.0 + 1e-12:
        raise ValueError(f"p_s must be a probability, got {p_s}")
    return float(min(p_s, 1.0) ** r)


# ---------------------------------------------------------------------------
# swapped and decoded states
# ---------------------------------------------------------------------------

class ChainState:
    """The swapped and decoded chain state at one beta, as closed forms in
    (r, P_r).  log(1 - beta), log 3 + log beta and the decode CNOTs' weights
    are computed once, and shared by every nesting level of a point; at
    beta = 0 and 1 a logarithm is -inf, which gives the exact weights."""

    def __init__(self, beta: float):
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self._log1m = math.log1p(-beta) if beta < 1.0 else -math.inf
        self._log_3beta = math.log(3.0) + math.log(beta) if beta > 0.0 else -math.inf
        w_perfect, w_branch, w_rest = first_order_weights(DECODE_GATE_COUNT, beta)
        self._decode_weights = (w_perfect, DECODE_GATE_COUNT * w_branch, w_rest / 4.0)

    def weights(self, r: int) -> tuple[float, float, float]:
        """:func:`rho_s_weights`, in log space so large r underflows cleanly
        to zero instead of overflowing intermediate powers."""
        w_ideal = math.exp(3 * r * self._log1m)
        w_deph = math.exp(r * self._log_3beta + 2 * r * self._log1m)
        q_r = 1.0 - w_ideal - w_deph
        assert q_r >= -1e-12, f"remainder weight {q_r} negative"
        return w_ideal, w_deph, max(q_r, 0.0)

    def decode_coeffs(self, r: int, p_r: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Bell coefficients of the perfect and the one-faulty decode of the
        swapped state after r stations with chain success P_r.  Decoding
        sends |Phi6>, D and I/64 to Phi+, (Phi+ + Phi-)/2 and I/4, one-faulty
        decoding sends |Phi6> and D to rho_tilde_prime, and the rest is
        linearity.  For beta and P_r in [0, 1] every coefficient is a sum of
        nonnegative terms: the Phi+ one is
        P_r (w_ideal + w_deph/2 + q_r/4) + 15 (1 - P_r)/63."""
        w_ideal, w_deph, q_r = self.weights(r)
        c_phi = p_r * w_ideal - (1.0 - p_r) / 63.0
        c_mix = p_r * q_r + (1.0 - p_r) * 64.0 / 63.0
        phi_minus = p_r * w_deph / 2.0 + c_mix / 4.0
        perfect = (c_phi + phi_minus, phi_minus, c_mix / 4.0, c_mix / 4.0)
        kept = w_ideal + w_deph
        spread = (1.0 - kept) / 4.0
        t_phi, _, t_psi, _ = _TILDE_BELL  # its phi and its psi pair are equal
        faulty_phi = p_r * (kept * t_phi + spread) + (1.0 - p_r) * (16.0 - t_phi) / 63.0
        faulty_psi = p_r * (kept * t_psi + spread) + (1.0 - p_r) * (16.0 - t_psi) / 63.0
        return perfect, (faulty_phi, faulty_phi, faulty_psi, faulty_psi)

    def bell_coeffs(self, r: int, p_r: float) -> BellDiagCoeffs:
        """:func:`final_bell_coeffs`: :meth:`mix` of the chain's two decodes."""
        return self.mix(*self.decode_coeffs(r, p_r))

    def mix(self, perfect: tuple[float, ...], faulty: tuple[float, ...]) -> BellDiagCoeffs:
        """The first-order mixture over the four decode CNOTs of the perfect
        decode, the one-faulty decode (given as Bell coefficients) and I/4."""
        (d_0, d_1, d_2, d_3), (n_0, n_1, n_2, n_3) = perfect, faulty
        w_perfect, w_faulty, mixed = self._decode_weights
        return BellDiagCoeffs(
            w_perfect * d_0 + w_faulty * n_0 + mixed,
            w_perfect * d_1 + w_faulty * n_1 + mixed,
            w_perfect * d_2 + w_faulty * n_2 + mixed,
            w_perfect * d_3 + w_faulty * n_3 + mixed,
        )


def rho_s_weights(beta: float, r: int) -> tuple[float, float, float]:
    """(ideal, dephased, mixed-remainder) weights of the swapped state after
    r stations, each with three first-order-noisy Bell-measurement CNOTs."""
    _check_stations(r)
    return ChainState(beta).weights(r)


def _chain_decode_coeffs(beta: float, r: int, p_r: float) -> tuple[tuple[float, ...], ...]:
    """:meth:`ChainState.decode_coeffs` at one beta."""
    _check_stations(r)
    return ChainState(beta).decode_coeffs(r, p_r)


def final_bell_coeffs(beta: float, r: int, p_r: float) -> BellDiagCoeffs:
    """Closed-form Bell coefficients of :func:`~repeater_keyrate.decode.final_state`
    for r >= 1 stations with chain success P_r (:meth:`ChainState.bell_coeffs`)."""
    _check_stations(r)
    return ChainState(beta).bell_coeffs(r, p_r)
