"""Closed-form scalars of the rate and threshold paths, in the stdlib alone.

Past the encoded pair every stage of the pipeline is a handful of numbers:
the swap success p_s, the weights of the swapped state, the chain success
P_r and the Bell coefficients of the decoded pair, after a swap or, at
N = 0, with none.  This module holds the one implementation of each; the
dense modules validate them against the 64- and 4096-dimensional
simulation.  The encoded pair itself is 64 Pauli-frame weights
(:mod:`~repeater_keyrate.frames`, README decision 20), which the rate path
never reads: p_s and the decode at N = 0 are stored integer tables here
that the tests rebuild from the frames.  Importing this module loads no
numpy and builds no table.
"""

import math
from functools import lru_cache

# CNOTs (control, target) of the decoding circuit, Alice on qubits 0-2 and
# Bob on 3-5: per side onto the third qubit, then onto the second
_DECODE_GATES = ((0, 2), (0, 1), (3, 5), (3, 4))
DECODE_GATE_COUNT = len(_DECODE_GATES)
# Bell coefficients (phi+, phi-, psi+, psi-) of rho_tilde_prime, the
# one-faulty decode of the ideal encoded pair and of its dephasing
_TILDE_BELL = (5 / 16, 5 / 16, 3 / 16, 3 / 16)
_T_PHI, _T_PSI = _TILDE_BELL[0], _TILDE_BELL[2]  # its phi and its psi pair are equal


def _check_unit(name: str, x: float) -> None:
    """The one range check of beta and F0; NaN fails it, a ``Fraction`` stays exact."""
    if not 0 <= x <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {x}")


def first_order_weights(n: int, beta: float) -> tuple[float, float, float]:
    """(all-perfect, per-faulty-branch, identity remainder) weights of n
    first-order-noisy gates.

    The identity remainder p = 1 - (1-beta)^n - n beta (1-beta)^(n-1), of
    order beta^2, is the chance that two or more gates fail.  It is summed
    over the gate of the second failure, m + 2 for m = 0...n-2, as
    beta^2 sum_m (m + 1) (1-beta)^m by Horner: every term is nonnegative, so
    no subtraction cancels at small beta.  Exact for a ``Fraction`` beta.
    """
    a = 1 - beta
    w_perfect = a**n
    w_branch = beta * a ** (n - 1)
    tail = 0
    for m in range(n - 1, 0, -1):
        tail = tail * a + m
    return w_perfect, w_branch, tail * beta * beta


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
) + _SUCCESS_ALL[9:]  # the same integers from row 9 on, over twice the denominator

_SUCCESS_DENOMINATOR = {False: 46656.0, True: 93312.0}  # by phase_trivial_only
_SUCCESS_TABLES = {False: _SUCCESS_ALL, True: _SUCCESS_PHASE_TRIVIAL}


def _bernstein_ratio(x: float, x_bar: float, degree: int) -> tuple[float, float, bool]:
    """(scale, ratio, mirrored) with x^k x_bar^(degree - k) = scale * ratio^k,
    or, when mirrored (x > x_bar), scale * ratio^(degree - k); the ratio
    is then at most 1 either way."""
    if x <= x_bar:
        return x_bar**degree, x / x_bar, False
    return x**degree, x_bar / x, True


def _eps_rows(
    f0: float, phase_trivial_only: bool, count: int | None = None
) -> tuple[float, tuple[float, ...]]:
    """(scale, rows) at this F0: the first ``count`` table rows (all by
    default), each summed over eps = 1 - F0 by Horner."""
    table = _SUCCESS_TABLES[phase_trivial_only]
    scale, ratio, mirrored = _bernstein_ratio(1.0 - f0, f0, len(table[0]) - 1)
    rows = []
    for row in table[:count]:
        inner = 0.0
        for c in row if mirrored else reversed(row):
            inner = inner * ratio + c
        rows.append(inner)
    return scale, tuple(rows)


# every row once per F0, not per point; typed, so no caller gets another's float64 rows
_success_rows = lru_cache(maxsize=1024, typed=True)(_eps_rows)


def swap_success_closed_form(beta: float, f0: float, *, phase_trivial_only: bool = False) -> float:
    """:func:`~repeater_keyrate.encswap.swap_success_prob` of
    ``encoded_pair(beta, f0)`` without the pair.

    p_s(beta, 1 - F0) is the exact polynomial behind the dense tables,
    stored as positive Bernstein coefficients and evaluated by Horner, in
    eps and then in beta (no cancellation).  It matches the dense pair to
    ~1e-15 relative over [0, 1]^2 and is exactly 1 at the ideal corner.  With
    ``phase_trivial_only`` the sum runs over the 32 phase-trivial
    correctable states (the thresholds' accounting).  At beta = 0 (-0.0
    too) only row 0 is summed over eps, as a polynomial of degree 0 in beta:
    the full Horner sum multiplies every later row by a ratio of exactly 0
    and its scale (1 - beta)^16 is 1, so the bits are the same.  Uncached:
    the rate path keeps p_s per (beta, F0) in ``rates._shared_point``.
    """
    _check_unit("beta", beta)
    _check_unit("F0", f0)
    if beta == 0.0:
        e_scale, rows = _eps_rows(f0, phase_trivial_only, 1)
    else:
        e_scale, rows = _success_rows(f0, phase_trivial_only)
    b_scale, b_ratio, b_mirrored = _bernstein_ratio(beta, 1.0 - beta, len(rows) - 1)
    total = 0.0
    for inner in rows if b_mirrored else reversed(rows):
        total = total * b_ratio + inner
    return total * b_scale * e_scale / _SUCCESS_DENOMINATOR[phase_trivial_only]


def _check_stations(r: int) -> None:
    if r < 1 or r % 1 != 0:  # inf and NaN leave a NaN remainder
        raise ValueError(f"r must be a positive integer, got {r}")


def _capped_success(p_s: float) -> float:
    """p_s, checked to be a probability up to 1e-12 of rounding, capped at 1."""
    if not 0.0 <= p_s <= 1.0 + 1e-12:
        raise ValueError(f"p_s must be a probability, got {p_s}")
    return float(1.0 if p_s > 1.0 else p_s)


def chain_success_prob(p_s: float, r: int) -> float:
    """Success probability over r independent swap stations: p_s ** r."""
    _check_stations(r)
    return float(_capped_success(p_s) ** r)


# ---------------------------------------------------------------------------
# swapped and decoded states
# ---------------------------------------------------------------------------

class ChainState:
    """The swapped and decoded chain state at one beta, as closed forms in
    (r, P_r).  log(1 - beta), log 3 + log beta and the decode CNOTs' weights
    are computed once, for every point and nesting level at that beta, and
    the P_r-free terms of each r once, on first use; at beta = 0 and 1 a
    logarithm is -inf, which gives the exact weights.

    ``keyless_p_r`` maps each r >= 1 to the largest P_r at which the nesting
    scan (``rates._Point.best``) decoded a keyless pair, r_inf <= -1e-6.  At
    fixed (beta, r) every decoded Bell coefficient is affine in P_r, so
    r_inf = 1 - H is convex in P_r, and that one decode rules out a key at
    every lower P_r (README decision 22).  N = 0 is never stored: its pair
    depends on F0, not on P_r."""

    def __init__(self, beta: float):
        _check_unit("beta", beta)
        self._log1m = math.log1p(-beta) if beta < 1.0 else -math.inf
        self._log_3beta = math.log(3.0) + math.log(beta) if beta > 0.0 else -math.inf
        w_perfect, w_branch, w_rest = first_order_weights(DECODE_GATE_COUNT, beta)
        self._decode_weights = (w_perfect, DECODE_GATE_COUNT * w_branch, w_rest / 4.0)
        self._by_r: dict[int, tuple[float, ...]] = {}
        self.keyless_p_r: dict[int, float] = {}

    def weights(self, r: int) -> tuple[float, float, float]:
        """(ideal, dephased, mixed-remainder) weights of the swapped state
        after r stations, each with three first-order-noisy Bell-measurement
        CNOTs.  In log space, so large r underflows cleanly to zero instead
        of overflowing intermediate powers."""
        w_ideal = math.exp(3 * r * self._log1m)
        w_deph = math.exp(r * self._log_3beta + 2 * r * self._log1m)
        q_r = 1.0 - w_ideal - w_deph
        assert q_r >= -1e-12, f"remainder weight {q_r} negative"
        return w_ideal, w_deph, 0.0 if q_r < 0.0 else q_r

    def _r_terms(self, r: int) -> tuple[float, ...]:
        """:meth:`weights` and the P_r-free sums kept * t + spread of the
        one-faulty decode's Phi and Psi entries, stored for every later call at r."""
        w_ideal, w_deph, q_r = self.weights(r)
        kept = w_ideal + w_deph
        spread = (1.0 - kept) / 4.0
        terms = self._by_r[r] = (
            w_ideal, w_deph, q_r, kept * _T_PHI + spread, kept * _T_PSI + spread,
        )
        return terms

    def _decode_terms(self, r: int, p_r: float) -> tuple[float, ...]:
        """w_ideal and the Phi- and Psi entries of the perfect and of the
        one-faulty decode (:meth:`decode_coeffs`); Psi+ = Psi- in both."""
        w_ideal, w_deph, q_r, kept_phi, kept_psi = self._by_r.get(r) or self._r_terms(r)
        psi = (p_r * q_r + (1.0 - p_r) * 64.0 / 63.0) / 4.0
        phi_minus = p_r * w_deph / 2.0 + psi
        faulty_phi = p_r * kept_phi + (1.0 - p_r) * (16.0 - _T_PHI) / 63.0
        faulty_psi = p_r * kept_psi + (1.0 - p_r) * (16.0 - _T_PSI) / 63.0
        return w_ideal, phi_minus, psi, faulty_phi, faulty_psi

    def decode_coeffs(self, r: int, p_r: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Bell coefficients of the perfect and the one-faulty decode of the
        swapped state after r stations with chain success P_r.  Decoding
        sends |Phi6>, D and I/64 to Phi+, (Phi+ + Phi-)/2 and I/4, one-faulty
        decoding sends |Phi6> and D to rho_tilde_prime, and the rest is
        linearity.  For beta and P_r in [0, 1] every coefficient is a sum of
        nonnegative terms: the Phi+ one is
        P_r (w_ideal + w_deph/2 + q_r/4) + 15 (1 - P_r)/63."""
        w_ideal, phi_minus, psi, faulty_phi, faulty_psi = self._decode_terms(r, p_r)
        c_phi = p_r * w_ideal - (1.0 - p_r) / 63.0
        faulty = (faulty_phi, faulty_phi, faulty_psi, faulty_psi)
        return (c_phi + phi_minus, phi_minus, psi, psi), faulty

    def qbers(self, r: int, p_r: float) -> tuple[float, float, float]:
        """(e_X, e_Y, e_Z) of the decoded pair after r stations with chain
        success P_r: ``error_rates(mix(*decode_coeffs(r, p_r)))`` bit for bit,
        from the Phi- and Psi entries alone.  Psi+ = Psi- makes e_X = e_Y
        exactly."""
        _, phi_minus, psi, faulty_phi, faulty_psi = self._decode_terms(r, p_r)
        w_perfect, w_faulty, mixed = self._decode_weights
        mixed_psi = w_perfect * psi + w_faulty * faulty_psi + mixed
        e_x = w_perfect * phi_minus + w_faulty * faulty_phi + mixed + mixed_psi
        return e_x, e_x, mixed_psi + mixed_psi

    def mix(self, perfect: tuple[float, ...], faulty: tuple[float, ...]) -> tuple[float, ...]:
        """The first-order mixture over the four decode CNOTs of the perfect decode,
        the one-faulty decode (given as Bell coefficients) and I/4, as a plain tuple."""
        w_perfect, w_faulty, mixed = self._decode_weights
        return tuple(w_perfect * d + w_faulty * n + mixed for d, n in zip(perfect, faulty))


# ---------------------------------------------------------------------------
# the decoded encoded pair with no swap (N = 0)
# ---------------------------------------------------------------------------
#
# N = 0 is one segment with no station: its key pair mixes the perfect and
# the one-faulty decode of the encoded pair itself.  The GHZ register behind
# the encoded pair mixes GHZ3 frames of three weights,
# A = (1-beta)^2 + beta (3 (1-beta) + beta)/8, B = beta (3 - 2 beta)/8 and
# C = beta/8.  Each Bell coefficient of the pair's perfect and one-faulty
# decode, less p/4 for the six teleport gates' identity remainder p, is
# sum_r row[r] c_r over the 24 monomials c_r = (A, B or C) x (all gates
# perfect, or one faulty) x F0^m ((1 - F0)/3)^(3 - m), m = 0...3, in that
# order.  The entries are integers >= 0 (over 32 in the one-faulty rows), so
# the sum never cancels; the tests rebuild them in exact rationals from the
# frame core's tables.

_PAIR_PERFECT = (  # phi+, phi-, and psi+ = psi-
    (3, 9, 3, 1, 27, 45, 21, 3, 15, 21, 11, 1, 99, 129, 53, 7, 22, 30, 10, 2, 144, 168, 64, 8),
    (4, 6, 6, 0, 27, 45, 21, 3, 14, 24, 8, 2, 99, 129, 53, 7, 22, 30, 10, 2, 144, 168, 64, 8),
    (10, 6, 0, 0, 54, 36, 6, 0, 26, 18, 4, 0, 144, 114, 28, 2, 32, 24, 8, 0, 180, 156, 44, 4),
)
_PAIR_ONE_FAULTY = (  # phi+ = phi-, and psi+ = psi-, over 32
    (194, 222, 86, 10, 1215, 1323, 477, 57, 654, 642, 218, 22,
     3861, 3897, 1311, 147, 808, 888, 312, 40, 5004, 5244, 1828, 212),
    (238, 210, 58, 6, 1377, 1269, 387, 39, 642, 654, 214, 26,
     3915, 3879, 1281, 141, 920, 840, 264, 24, 5364, 5124, 1628, 172),
)


def pair_decode_closed_form(beta: float, f0: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Bell coefficients of the perfect and the one-faulty decode of the
    encoded pair itself, with no swap (N = 0), from the stored rows:
    :func:`~repeater_keyrate.frames.pair_decode_coeffs` without the frames,
    exact for ``Fraction`` arguments.  :meth:`ChainState.mix` adds the noise
    of the decode CNOTs."""
    _check_unit("beta", beta)
    _check_unit("F0", f0)
    *gates, p = first_order_weights(6, beta)
    a = 1 - beta
    ghz = (a * a + beta * (3 * a + beta) / 8, beta * (3 - 2 * beta) / 8, beta / 8)
    sources = [f0**m * ((1 - f0) / 3) ** (3 - m) for m in range(4)]
    monomials = [v * g * s for v in ghz for g in gates for s in sources]
    mixed = p / 4
    phi_plus, phi_minus, psi = (
        sum(c * w for c, w in zip(row, monomials)) + mixed for row in _PAIR_PERFECT
    )
    faulty_phi, faulty_psi = (
        sum(c * w for c, w in zip(row, monomials)) / 32 + mixed
        for row in _PAIR_ONE_FAULTY
    )
    return (phi_plus, phi_minus, psi, psi), (faulty_phi, faulty_phi, faulty_psi, faulty_psi)
