"""Secret key rates, waiting-time statistics, thresholds and resource cost.

The chain has r = 2^N - 1 stations splitting the total distance into 2^N
segments of length L0.  Each segment needs three Bell pairs, generated in
parallel rounds with per-round success probability P0; the repeater rate is
set by the expected number of rounds until the slowest of the 3*2^N pairs
arrives, doubled for the arrival acknowledgement.  The secret fraction is
the asymptotic six-state value on the decoded Bell-diagonal pair, and the
key rate divides by the six memories each half node keeps busy.

Chain accounting.  The rate pipeline (:func:`key_rate`, sweeps, cost)
compounds swap errors once per station, exactly as the closed-form chain
states in :mod:`repeater_keyrate.closedform` are written: r = 2^N - 1
first-order connection applications and success probability p_s ** r over
all 64 correctable states.  The threshold searches
(:func:`threshold_gate_quality`, :func:`threshold_fidelity`) instead
compound once per nesting level with the success sum restricted to the 32
phase-trivial correctable states; that is the accounting under which the
published minimal-parameter table is reproducible across the whole station
range (per-station compounding contradicts it beyond a few stations, and
no single accounting reproduces both the table and the published cost
curves).  Both conventions are deliberate; see the README model notes.

Nesting scan.  Each quantity is computed where it is constant: the levels'
checks and K bounds once per scan, with no memo, as no scan repeats its
(L, levels, fiber) (:func:`_levels_by_bound`), and the rest in one memo
each: H_n per n (:func:`_harmonic`), the link terms L0, P0, Z and R
per (L, N, fiber) (:func:`_link_terms`), the rows of p_s per F0
(``_success_rows``; row 0 alone at beta = 0), the beta terms per beta
(``_shared_chain``), the chain's P_r-free terms per (beta, r)
(``ChainState._by_r``) and the largest P_r decoded keyless there
(``ChainState.keyless_p_r``), and p_s, checked once, per (beta, F0, accounting)
(``_shared_point``, the :class:`_Point` of every entry point but the surface
grid, whose points never repeat a key, so K agrees to the last bit); those
that take the caller's floats are typed.  :meth:`_Point.best` is the one level
scorer: it takes the levels by descending bound, scores each cheapest test
first, P_r as one power against the gate and the chain's keyless bound, then
r_inf from the QBER kernel ``ChainState.qbers``, which computes only the Phi-
and Psi entries of the decoded pair (e_X = e_Y, so the six-state fraction
skips h(1/2) = 1), then the link terms, ranks only the levels with a key, and
stops at the first bound below the best K.  :func:`optimize_over_stations`
reports only its winner; :func:`surface_key_rates` reads the level list once
for a grid at one distance, scores its points in descending p_s, so that one
keyless decode per (beta, r) serves every later point, and returns each
point's (N, K) with no report; and :func:`cost_coefficient` scores every
level alone.

Everything here is stdlib arithmetic on those closed forms, N = 0
included: with no swap the key pair mixes the stored perfect and one-faulty
decodes of the encoded pair
(:func:`~repeater_keyrate.closedform.pair_decode_closed_form`), so no rate
command, at any N, loads numpy or the Pauli-frame core.  The records are
namedtuples, not dataclasses, which would cost the rate commands the import
of :mod:`dataclasses` and its dependencies.  The annotations take
``Callable``, ``Iterable`` and ``Sequence`` from :mod:`collections.abc`,
which a start with site has already loaded, not from :mod:`typing`, which
with the :mod:`re` and :mod:`enum` it loads would add its import to every
start without site (``python -S``, README decision 21).
"""

import math
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

from .closedform import (
    ChainState,
    _capped_success,
    chain_success_prob,
    pair_decode_closed_form,
    swap_success_closed_form,
)

MEMORIES_PER_HALF_NODE = 6
DEFAULT_ALPHA_DB_PER_KM = 0.17
DEFAULT_SPEED_KM_PER_S = 2e5
# The default optimization range starts at one station: N = 0 (a single
# segment with no station) is supported as an explicit extension but is not
# part of the repeater protocol whose thresholds the pipeline reproduces.
DEFAULT_MIN_NESTING = 1
DEFAULT_MAX_NESTING = 10
TABLE_STATION_COUNTS = (1, 3, 7, 15, 31, 63, 127)
# Below this P_r every decoded Bell coefficient is <= P_r + (1 - P_r) 16/63 < 1/2,
# so r_inf <= 0 (README decision 22); the 8.7e-5 margin under 31/94, where the
# bound is 1/2, keeps r_inf below -1.8e-4, far past any rounding.
KEYLESS_P_R = 0.3297
# A float r_inf at most -KEYLESS_MARGIN is below 0 in exact arithmetic by more than
# its 1e-7 of rounding, so the decode rules out a key at every lower P_r of its
# (beta, r): r_inf is convex in P_r and below -1.7e-4 at KEYLESS_P_R (decision 22).
KEYLESS_MARGIN = 1e-6


class NoThresholdError(ValueError):
    """Raised when a threshold bracket contains no sign change."""


def _check_nesting(nesting: int) -> None:
    if nesting < 0 or nesting % 1 != 0:  # inf and NaN leave a NaN remainder
        raise ValueError(f"nesting level must be an integer >= 0, got {nesting}")
    # the 3 * 2^N pairs of the waiting time, L / 2^N and the cost's 2^(N+1)
    # memories are floats, and the largest float is just under 2^1024
    if nesting > 1022:
        raise ValueError(f"nesting level {nesting} is too deep: 2^N must stay a float, N <= 1022")


def check_link(distance_km: float, nesting: int, alpha_db_per_km: float,
               speed_km_per_s: float, t0_mode: str) -> None:
    """Reject a link that the rate pipeline cannot time: every check of
    :func:`key_rate` but beta and F0, in its order and with its messages."""
    if not distance_km > 0:
        raise ValueError(f"distance must be positive, got {distance_km}")
    _check_nesting(nesting)
    if not alpha_db_per_km > 0:
        raise ValueError(f"alpha must be positive, got {alpha_db_per_km}")
    if not speed_km_per_s > 0:
        raise ValueError(f"signal speed must be positive, got {speed_km_per_s}")
    if t0_mode not in ("physical", "normalized"):
        raise ValueError(f"t0_mode must be 'physical' or 'normalized', got {t0_mode!r}")
    l0 = distance_km / 2**nesting
    t0 = _fundamental_time(l0, speed_km_per_s, t0_mode)
    if t0 == 0.0 or math.isinf(1.0 / (2.0 * t0)):
        raise ValueError(f"segment of {l0} km is too short to time: T0 = {t0} s "
                         "leaves no finite rate 1/(2 T0)")


# Everything the rate pipeline produces for one parameter point.
# secret_fraction is unclamped; key_rate uses max(secret_fraction, 0).
RateReport = namedtuple("RateReport", (
    "p0", "z_value", "rate_pairs_per_s", "e_x", "e_y", "e_z", "secret_fraction", "key_rate",
    "p_s", "p_r", "nesting", "l0_km", "memories",
), defaults=(MEMORIES_PER_HALF_NODE,))


def error_rates(coeffs: Sequence[float]) -> tuple[float, float, float]:
    """QBER in the X, Y and Z bases of a Bell-diagonal pair, read off the first
    four entries (phi+, phi-, psi+, psi-) of ``coeffs``."""
    _, phi_minus, psi_plus, psi_minus = coeffs[:4]
    return phi_minus + psi_minus, phi_minus + psi_plus, psi_plus + psi_minus


def binary_entropy(p: float) -> float:
    """h(p), 0 at and beyond both ends of [0, 1]: h(p) of p clamped to [0, 1]."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


# [0, 1] widened by 1e-9 for rounding: the range of each QBER and entropy argument
_LOW, _HIGH = -1e-9, 1.0 + 1e-9


def secret_fraction_six_state(e_x: float, e_y: float, e_z: float) -> float:
    """Asymptotic six-state secret fraction (Devetak-Winter), unclamped.

    Returns -inf when an entropy argument leaves [0, 1] (no key regardless);
    callers extracting a rate clamp at zero, threshold searches use the sign.
    Each entropy argument is clamped to [0, 1] once, by :func:`binary_entropy`.
    """
    if not (_LOW <= e_x <= _HIGH and _LOW <= e_y <= _HIGH and _LOW <= e_z <= _HIGH):
        for name, e in (("e_x", e_x), ("e_y", e_y), ("e_z", e_z)):
            if not _LOW <= e <= _HIGH:
                raise ValueError(f"{name} must be in [0, 1], got {e}")
    if e_z <= 0.0:
        term_cond_phase = 0.0
    elif e_x == e_y:
        # the argument below is exactly 1/2, and h(1/2) = 1.0 exactly
        term_cond_phase = e_z
    else:
        arg = (1.0 + (e_x - e_y) / e_z) / 2.0
        if arg < _LOW or arg > _HIGH:
            return float("-inf")
        term_cond_phase = e_z * binary_entropy(arg)
    if e_z >= 1.0:
        # no term without a Z error, and h(e_z) = 0 at and past 1
        return 1.0 - term_cond_phase
    arg = (1.0 - (e_x + e_y + e_z) / 2.0) / (1.0 - e_z)
    if arg < _LOW or arg > _HIGH:
        return float("-inf")
    term_no_error = (1.0 - e_z) * binary_entropy(arg)
    return 1.0 - term_cond_phase - term_no_error - binary_entropy(e_z)


def transmission_prob(l0_km: float, alpha_db_per_km: float = DEFAULT_ALPHA_DB_PER_KM) -> float:
    """Fiber transmittivity of one segment: 10^(-alpha L0 / 10)."""
    if not l0_km >= 0:
        raise ValueError(f"segment length must be nonnegative, got {l0_km}")
    if not alpha_db_per_km > 0:
        raise ValueError(f"alpha must be positive, got {alpha_db_per_km}")
    return float(10.0 ** (-alpha_db_per_km * l0_km / 10.0))


# Above this many pairs H_n comes from its asymptotic series (next term
# 1/(252 n^6) < 1e-17) instead of a sum whose cost grows with n.
_HARMONIC_SUM_MAX = 256
_EULER_GAMMA = 0.5772156649015329
_LN2 = math.log(2.0)
# The alternating remainder series of the tail stops below this term.
_SERIES_STOP = 2.0**-70
# ln(2^-60 / 4): the remainder bound 4 M! / (x y^(M+1)) against 2^-60 H_n / x
_LOG_SWITCH_TOL = -62.0 * _LN2


@lru_cache(maxsize=1024)
def _harmonic(n: int) -> float:
    if n <= _HARMONIC_SUM_MAX:
        return math.fsum(1.0 / j for j in range(1, n + 1))
    # int true division, which rounds once and cannot overflow at n = 3 * 2^253
    return math.log(n) + _EULER_GAMMA + 1 / (2 * n) - 1 / (12 * n**2) + 1 / (120 * n**4)


def _tail_terms(num_pairs: int, x: float, ks: Iterable[int]) -> list[float]:
    """1 - (1 - q^k)^n with q = e^-x for each k, to full relative precision:
    log(1 - q^k) is split at q^k = 1/2 (Maechler), accurate at both ends."""
    return [-math.expm1(num_pairs * (
        math.log(-math.expm1(-k * x)) if k * x < _LN2 else math.log1p(-math.exp(-k * x))
    )) for k in ks]


def _z_tail_sum(num_pairs: int, x: float) -> float:
    """1 + sum_{k>=1} [1 - (1 - e^{-k x})^n] in double precision.

    The terms below K = ceil(ln(2n) / x), where n q^K <= 1/2, are summed
    one by one, and the rest, from K on, is the exact alternating series
    sum_j (-1)^(j+1) C(n, j) q^(jK) / (1 - q^j), whose terms shrink at
    least twofold; everything is added with ``math.fsum``, which is exact,
    so the leading terms that round to 1.0 need no count of their own.
    """
    k_end = math.ceil((math.log(num_pairs) + _LN2) / x)
    terms = _tail_terms(num_pairs, x, range(1, k_end))
    q_end = math.exp(-k_end * x)
    binomial_q = 1.0  # C(n, j) q^(jK), built as a running product
    for j in range(1, num_pairs + 1):
        binomial_q *= (num_pairs - j + 1) / j * q_end
        term = binomial_q / -math.expm1(-j * x)
        terms.append(term if j % 2 else -term)
        if term < _SERIES_STOP:
            break
    return 1.0 + math.fsum(terms)


def _z_asymptote(num_pairs: int, x: float) -> float:
    """Euler-Maclaurin limit H_n / x + 1/2 of the tail sum.

    The integral of the summand is H_n / x and its value at k = 0 is 1.
    What it leaves out is exponentially small in 1/x, the residues of the
    alternating form at s = 2 pi i k / x (:func:`_asymptote_is_exact`).
    """
    return _harmonic(num_pairs) / x + 0.5


def _asymptote_is_exact(num_pairs: int, x: float) -> bool:
    """Whether B(n, x) = 4 M! / (x y^(M+1)) <= 2^-60 H_n / x, with
    y = 2 pi / x and M = min(n, floor(y)), evaluated in logs.

    B bounds |Z_n - (H_n / x + 1/2)|, the sum over k != 0 of the residues
    of the Rice integral of the alternating form of Z_n at s = 2 pi i k / x
    (Flajolet & Sedgewick, Theor. Comput. Sci. 144, 101 (1995)):
    (1) the k-th has size n! / (x y_k prod_{m<=n} sqrt(y_k^2 + m^2)),
    y_k = k y; (2) it is at most the first one times sqrt(1 + 1/y^2) / k^2,
    so both signs of k together give at most 4 times the first for y >= 2;
    (3) n! / prod_{m<=n} sqrt(y^2 + m^2) <= M! / y^M, as each factor
    m / sqrt(y^2 + m^2) is at most 1 and at most m / y.  Below y = 2 the
    test cannot pass: M! / y^(M+1) >= 1/4 there.
    """
    y = 2.0 * math.pi / x
    m = num_pairs if y >= num_pairs else math.floor(y)
    return math.lgamma(m + 1) - (m + 1) * math.log(y) <= (
        math.log(_harmonic(num_pairs)) + _LOG_SWITCH_TOL
    )


def z_n(num_pairs: int, p0: float) -> float:
    """Expected rounds until all ``num_pairs`` geometric waits have succeeded.

    Z_n = 1 + sum_{k>=1} [1 - (1 - q^k)^n] with q = 1 - P0 (the expected
    maximum of n geometric variables; the alternating binomial closed form
    of Bernardes, Praxmeyer & van Loock, PRA 83, 012323 (2011), is the same
    number).  Each term is -expm1(n log(1 - q^k)), which keeps its relative
    precision where q^k is below machine epsilon.  With x = -ln q, the
    Euler-Maclaurin limit H_n / x + 1/2 is returned wherever its proven
    remainder bound is below 2^-60 of it (:func:`_asymptote_is_exact`).
    Elsewhere n = 2 and 3 take the alternating form summed by hand, whose
    terms are all positive: Z_2 = (1 + 2q) / ((1 + q) P0) and
    Z_3 = (1 + 4q + 3q^2 + 3q^3) / ((1 + q)(1 - q^3)), with
    (1 + q)(1 - q^3) = P0 (1 + 2q + 2q^2 + q^3); for n >= 4 the terms below
    K = ceil(ln(2n) / x) are summed in one pass and the rest is the
    binomial series (:func:`_z_tail_sum`).  n = 1 is the exact 1 / P0.
    """
    if num_pairs < 1 or num_pairs % 1 != 0:
        raise ValueError(f"num_pairs must be a positive integer, got {num_pairs}")
    num_pairs = int(num_pairs)
    if not 0.0 < p0 <= 1.0:
        raise ValueError(f"P0 must be in (0, 1], got {p0} (P0 = 0 diverges)")
    if p0 == 1.0:
        return 1.0
    if num_pairs == 1:
        return 1.0 / p0
    x = -math.log1p(-p0)
    if _asymptote_is_exact(num_pairs, x):
        return _z_asymptote(num_pairs, x)
    if num_pairs > 3:
        return _z_tail_sum(num_pairs, x)
    q = 1.0 - p0
    if num_pairs == 2:
        return (1.0 + 2.0 * q) / ((1.0 + q) * p0)
    return math.fsum((1.0, 4 * q, 3 * q * q, 3 * q**3)) / math.fsum(
        (p0, 2 * p0 * q, 2 * p0 * q * q, p0 * q**3)
    )


def _fundamental_time(l0_km: float, speed_km_per_s: float, t0_mode: str) -> float:
    """T0 = L0/c, or 1 when normalized."""
    return 1.0 if t0_mode == "normalized" else l0_km / speed_km_per_s


# typed: an equal value of another type, say a numpy float, gets its own entry,
# so no caller's report takes the types of another caller's arguments
@lru_cache(maxsize=65536, typed=True)
def _link_terms(
    distance_km: float, nesting: int, alpha_db_per_km: float, speed_km_per_s: float, t0_mode: str
) -> tuple[float, ...]:
    """L0, P0, Z and R = 1/(2 T0 Z) of a nesting level, once per (L, N,
    fiber): the one memo of Z.  If P0 underflowed to 0.0, Z = inf and R = 0
    (:func:`z_n` itself rejects P0 = 0)."""
    l0 = distance_km / 2**nesting
    p0 = transmission_prob(l0, alpha_db_per_km)
    z = z_n(3 * 2**nesting, p0) if p0 > 0.0 else math.inf
    return l0, p0, z, 1.0 / (2.0 * _fundamental_time(l0, speed_km_per_s, t0_mode) * z)


class _Point:
    """The rate pipeline at one (beta, F0): p_s, checked once, and the chain state
    of its beta (:class:`~repeater_keyrate.closedform.ChainState`), shared by all points."""

    def __init__(self, beta: float, f0: float, phase_trivial_only: bool = False):
        self.beta, self.f0 = beta, f0
        self.p_s = swap_success_closed_form(beta, f0, phase_trivial_only=phase_trivial_only)
        self._capped_p_s = _capped_success(self.p_s)
        self.chain = _shared_chain(beta)

    def decoded(
        self, swap_count: int, p_r: float | None = None
    ) -> tuple[float, tuple[float, float, float], float]:
        """P_r (unless given), (e_X, e_Y, e_Z) and the unclamped six-state r_inf
        after ``swap_count`` compoundings, from the chain's QBER kernel; N = 0
        mixes the stored decodes of the encoded pair."""
        if swap_count == 0:
            p_r = 1.0
            qbers = error_rates(self.chain.mix(*pair_decode_closed_form(self.beta, self.f0)))
        else:
            p_r = chain_success_prob(self.p_s, swap_count) if p_r is None else p_r
            qbers = self.chain.qbers(swap_count, p_r)
        return p_r, qbers, secret_fraction_six_state(*qbers)

    def report(
        self, distance_km: float, nesting: int, fiber: tuple, decoded: tuple | None = None
    ) -> RateReport:
        """The :class:`RateReport` of one nesting level, from its :meth:`decoded`
        tuple when the caller has it."""
        p_r, (e_x, e_y, e_z), fraction = decoded or self.decoded(2**nesting - 1)
        l0, p0, z, rate = _link_terms(distance_km, nesting, *fiber)
        k = rate * (0.0 if fraction < 0.0 else fraction) / MEMORIES_PER_HALF_NODE
        return RateReport(p0, z, rate, e_x, e_y, e_z, fraction, k, self.p_s, p_r, nesting, l0)

    def best(self, distance_km: float, levels: tuple, fiber: tuple) -> tuple:
        """(N, K, decoded) of the winner among ``levels``, (UB, N) pairs highest UB
        first (:func:`_levels_by_bound`): a level with K > 0 ranks as (K, -N), and
        the scan stops at the first UB below the best K.  A level is keyless with
        no decode below the gate (P_r = p_s ** r < ``KEYLESS_P_R``) or at a P_r no
        higher than one its chain state decoded keyless (``ChainState.keyless_p_r``,
        set to its P_r by each decode with r >= 1 and a finite r_inf <=
        -``KEYLESS_MARGIN``), and without the link terms when r_inf <= 0 (R is
        finite); else its K is R r_inf / 6, as :meth:`report` has it.  A point with
        no key takes the level that ranks highest as (UB > 0, -N), with K = 0.0.
        ``decoded`` is the winner's :meth:`decoded` tuple, or None below the gate."""
        keyless = self.chain.keyless_p_r
        best, winner, last_keyless = (0.0, 0), None, None  # best: (K, -N), K > 0
        for bound, n in levels:
            if bound < best[0]:
                break
            r = 2**n - 1
            p_r = self._capped_p_s**r
            if p_r < KEYLESS_P_R or p_r <= keyless.get(r, -1.0):
                continue
            decoded = self.decoded(r, p_r)
            fraction = decoded[2]
            if fraction > 0.0:
                key = _link_terms(distance_km, n, *fiber)[3] * fraction / MEMORIES_PER_HALF_NODE
                if (key, -n) > best:
                    best, winner = (key, -n), decoded
            else:
                last_keyless = n, decoded
                if r and -math.inf < fraction <= -KEYLESS_MARGIN:
                    keyless[r] = p_r  # above any bound stored at r: those levels are skipped
        if winner is not None:
            return -best[1], best[0], winner
        n = -max((bound > 0.0, -n) for bound, n in levels)[1]
        if last_keyless is not None and last_keyless[0] == n:
            return n, 0.0, last_keyless[1]
        r = 2**n - 1
        p_r = self._capped_p_s**r
        return n, 0.0, None if p_r < KEYLESS_P_R else self.decoded(r, p_r)


# each single-point entry's (beta, F0, accounting) and every point's beta chain, typed as
# _link_terms is; a grid's points never repeat and skip the point memo
_shared_chain = lru_cache(maxsize=1024, typed=True)(ChainState)
_shared_point = lru_cache(maxsize=1024, typed=True)(_Point)


def secret_fraction_for(beta: float, f0: float, nesting: int) -> float:
    """Unclamped six-state secret fraction of the decoded chain state,
    with the rate pipeline's per-station error compounding."""
    _check_nesting(nesting)
    return _shared_point(beta, f0).decoded(2**nesting - 1)[2]


def key_rate(
    distance_km: float,
    beta: float,
    f0: float,
    nesting: int,
    *,
    alpha_db_per_km: float = DEFAULT_ALPHA_DB_PER_KM,
    speed_km_per_s: float = DEFAULT_SPEED_KM_PER_S,
    t0_mode: str = "physical",
) -> RateReport:
    """Full pipeline at one nesting level: encoded pair -> swap chain -> decode
    -> six-state key.  ``t0_mode`` is "physical" (T0 = L0/c) or "normalized"
    (T0 = 1).  Beta, F0 and then the link (:func:`check_link`) are checked;
    an integral float level, say 2.0, is reported as the int it equals.

    The key rate is pairs per second times the clamped secret fraction,
    divided by the six memories per half node.
    """
    point = _shared_point(beta, f0)
    fiber = (alpha_db_per_km, speed_km_per_s, t0_mode)
    check_link(distance_km, nesting, *fiber)
    return point.report(distance_km, int(nesting), fiber)


def _levels_by_bound(
    distance_km: float, n_range: Iterable[int], alpha_db_per_km: float,
    speed_km_per_s: float, t0_mode: str,
) -> tuple[tuple[float, int], ...]:
    """(UB, N) for each distinct level of ``n_range``, highest UB first.

    The inputs are checked once per call, not per point (the point checks
    beta and F0), by :func:`check_link` at two levels: the nesting sign
    fails first at the shallowest, T0 is shortest (the only level-dependent
    check) at the deepest, and the other checks are the same at every
    level.  UB bounds the level's K without Z or the fraction
    (README decision 18): r_inf <= 1 and Z >= max(1, 1/P0, H_n/x),
    n = 3 * 2^N, x = -ln(1 - P0), times 1 + 1e-9 for rounding.  UB = 0
    exactly when P0 underflowed to 0: 1/Z <= min(1, P0, x/H_n) does not
    overflow at a subnormal P0, and a positive UB that rounds to 0 is
    rounded up to the smallest float."""
    n_range = tuple(n_range)  # read twice, and any iterable is accepted
    if not n_range:
        raise ValueError("n_range must be nonempty")
    fractional = [n for n in n_range if n % 1 != 0]  # in n_range order: a set's order drifts
    if fractional:
        raise ValueError(f"nesting levels must be integers, got {fractional}")
    n_values = sorted(set(map(int, n_range)))
    for n in (n_values[0], n_values[-1]):
        check_link(distance_km, n, alpha_db_per_km, speed_km_per_s, t0_mode)
    bounds = []
    for n in n_values:
        l0 = distance_km / 2**n
        p0 = transmission_prob(l0, alpha_db_per_km)
        x = -math.log1p(-p0) if p0 < 1.0 else math.inf
        t0 = _fundamental_time(l0, speed_km_per_s, t0_mode)
        bound = (1.0 + 1e-9) * min(1.0, p0, x / _harmonic(3 * 2**n)) / (2.0 * t0)
        bound /= MEMORIES_PER_HALF_NODE
        bounds.append((bound if bound > 0.0 or p0 == 0.0 else math.ulp(0.0), n))
    return tuple(sorted(bounds, reverse=True))


def optimize_over_stations(
    distance_km: float,
    beta: float,
    f0: float,
    n_range: Iterable[int] = range(DEFAULT_MIN_NESTING, DEFAULT_MAX_NESTING + 1),
    *,
    alpha_db_per_km: float = DEFAULT_ALPHA_DB_PER_KM,
    speed_km_per_s: float = DEFAULT_SPEED_KM_PER_S,
    t0_mode: str = "physical",
) -> tuple[int, RateReport]:
    """Key rate maximized over the nesting level; ties go to fewer stations,
    except that a level whose P0 underflowed to 0 loses every tie.  The
    levels are taken in descending order of their bound UB
    (:func:`_levels_by_bound`), and the search (:meth:`_Point.best`) stops at
    the first UB below the best K so far: no level left can then win or tie.
    A level ranks as (K, UB > 0, -N), since UB > 0 exactly when P0 > 0, and
    the winner alone gets a report, from its decoded tuple."""
    fiber = (alpha_db_per_km, speed_km_per_s, t0_mode)
    point = _shared_point(beta, f0)
    n, _, decoded = point.best(
        distance_km, _levels_by_bound(distance_km, n_range, *fiber), fiber)
    return n, point.report(distance_km, n, fiber, decoded)


def surface_key_rates(
    distance_km: float,
    points: Iterable[tuple],
    n_range: Iterable[int],
    *,
    alpha_db_per_km: float,
    speed_km_per_s: float,
    t0_mode: str,
) -> list[tuple]:
    """(N, K) of :func:`optimize_over_stations` at each (beta, F0) of ``points``,
    in their order, with one level list for the grid and no report: K is the
    winner's R r_inf / 6, the expression of its report, and 0.0 for a winner
    without a key, as the report has it.  The points come from :class:`_Point`
    itself, since no two points of a grid share the memo's key; each checks its
    beta and F0 before the level list is read.  They are scored in descending
    p_s: at each (beta, r) the first keyless decode then bounds the lower P_r of
    every point after it (``ChainState.keyless_p_r``)."""
    fiber = (alpha_db_per_km, speed_km_per_s, t0_mode)
    grid = [_Point(*point) for point in points]
    levels = _levels_by_bound(distance_km, n_range, *fiber)
    scores = [None] * len(grid)
    for i in sorted(range(len(grid)), key=lambda i: grid[i].p_s, reverse=True):
        scores[i] = grid[i].best(distance_km, levels, fiber)[:2]
    return scores


def _bisect(f: Callable[[float], float], a: float, b: float, fa: float, xtol: float) -> float:
    """Root of ``f`` in [a, b] by bisection, given fa = f(a) with a sign
    opposite to f(b).

    Follows ``scipy.optimize.bisect`` (rtol = 4 eps, 100 iterations) midpoint
    for midpoint, so it returns the same float, but tests the tolerance
    before evaluating f at the midpoint it returns: one f call fewer.
    """
    if not xtol > 0.0:
        raise ValueError(f"bisection tolerance must be positive, got {xtol}")
    rtol = 4.0 * sys.float_info.epsilon
    dm = b - a
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        if abs(dm) < xtol + rtol * abs(xm):
            return xm
        fm = f(xm)
        if fm == 0.0:
            return xm
        if fm * fa >= 0.0:
            a = xm
    raise RuntimeError(f"bisection did not converge in 100 iterations (xtol={xtol})")


def nesting_of(stations: int) -> int | None:
    """N of a chain of 2^N - 1 ``stations`` (an integral float counts as its int), else None."""
    if stations < 0 or stations % 1 != 0:  # inf and NaN leave a NaN remainder
        return None
    n = int(stations) + 1
    return n.bit_length() - 1 if n & (n - 1) == 0 else None


def _threshold(r: int, bracket: tuple[float, float], tol: float, over_f0: bool) -> float:
    """Root in ``bracket`` of the unclamped secret fraction over beta at
    F0 = 1, where it falls, or over F0 at beta = 0, where it rises, with the
    per-nesting-level compounding that reproduces the published table (see
    the module docstring)."""
    nesting = nesting_of(r)
    if r < 1 or nesting is None:
        raise ValueError(f"station count must be 2^N - 1 with N >= 1, got {r}")
    r = int(r)
    lo, hi = bracket

    def f(x: float) -> float:
        point = _shared_point(0.0, x, True) if over_f0 else _shared_point(x, 1.0, True)
        return point.decoded(nesting)[2]

    f_lo, f_hi = f(lo), f(hi)
    if not (f_hi > 0.0 > f_lo if over_f0 else f_lo > 0.0 > f_hi):
        name = "F0" if over_f0 else "beta"
        raise NoThresholdError(f"no sign change for r={r} in {name} bracket [{lo}, {hi}]")
    return _bisect(f, lo, hi, f_lo, tol)


def threshold_gate_quality(
    r: int, *, bracket: tuple[float, float] = (0.0, 0.05), tol: float = 1e-4
) -> float:
    """Minimal gate quality for a nonzero key with r stations and F0 = 1."""
    return 1.0 - _threshold(r, bracket, tol, over_f0=False)


def threshold_fidelity(
    r: int, *, bracket: tuple[float, float] = (0.9, 1.0), tol: float = 1e-4
) -> float:
    """Minimal source fidelity for a nonzero key with r stations and
    perfect gates, with the same compounding as
    :func:`threshold_gate_quality`."""
    return _threshold(r, bracket, tol, over_f0=True)


# cost: memory qubits per secret bit, minimized over N;
# cost_coefficient: cost / total distance
CostReport = namedtuple("CostReport", ("cost", "cost_coefficient", "nesting", "l0_km", "key_rate"))


def min_cost_over_nesting(entries: Sequence[tuple[int, float]]) -> tuple[float, int]:
    """Minimum of 2^(N+1) / K over (N, K) entries; K <= 0 means unusable.

    This is the plug point for comparing externally supplied schemes: feed
    it their (nesting, key-rate) table.
    """
    if not entries:
        raise ValueError("entries must be nonempty")
    # ties, infinite costs included, go to the smaller N
    return min((2.0 ** (n + 1) / k if k > 0.0 else math.inf, n) for n, k in entries)


def cost_coefficient(
    distance_km: float,
    beta: float,
    f0: float,
    n_range: Iterable[int] = range(DEFAULT_MIN_NESTING, DEFAULT_MAX_NESTING + 1),
    *,
    alpha_db_per_km: float = DEFAULT_ALPHA_DB_PER_KM,
    speed_km_per_s: float = DEFAULT_SPEED_KM_PER_S,
    t0_mode: str = "normalized",
) -> CostReport:
    """Total memory qubits per secret bit, minimized over the nesting level.

    2^(N+1) counts two memory qubits per station plus one at each end.
    """
    fiber = (alpha_db_per_km, speed_km_per_s, t0_mode)
    point = _shared_point(beta, f0)
    # every level, in the bound's order: min_cost_over_nesting breaks ties by N
    key_rates = {level[1]: point.best(distance_km, (level,), fiber)[1]
                 for level in _levels_by_bound(distance_km, n_range, *fiber)}
    cost, n_best = min_cost_over_nesting(list(key_rates.items()))
    return CostReport(cost, cost / distance_km, n_best, distance_km / 2**n_best, key_rates[n_best])
