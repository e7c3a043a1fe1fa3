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
states in :mod:`repeater_keyrate.encswap` and
:mod:`repeater_keyrate.decode` are written: r = 2^N - 1 first-order
connection applications and success probability p_s ** r over all 64
correctable states.  The threshold searches
(:func:`threshold_gate_quality`, :func:`threshold_fidelity`) instead
compound once per nesting level with the success sum restricted to the 32
phase-trivial correctable states; that is the accounting under which the
published minimal-parameter table is reproducible across the whole station
range (per-station compounding contradicts it beyond a few stations, and
no single accounting reproduces both the table and the published cost
curves).  Both conventions are deliberate; see the README model notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .decode import final_state
from .encgen import encoded_pair
from .encswap import chain_success_prob, swap_success_prob
from .qstate import BellDiagCoeffs, bell_diag_coeffs

MEMORIES_PER_HALF_NODE = 6
DEFAULT_ALPHA_DB_PER_KM = 0.17
DEFAULT_SPEED_KM_PER_S = 2e5
# The default optimization range starts at one station: N = 0 (a single
# repeaterless segment) is supported as an explicit extension but is not
# part of the repeater protocol whose thresholds the pipeline reproduces.
DEFAULT_MIN_NESTING = 1
DEFAULT_MAX_NESTING = 10
TABLE_STATION_COUNTS = (1, 3, 7, 15, 31, 63, 127)


class NoThresholdError(ValueError):
    """Raised when a threshold bracket contains no sign change."""


@dataclass(frozen=True)
class RepeaterParams:
    """Every knob of the rate pipeline."""

    beta: float
    f0: float
    distance_km: float
    nesting: int
    alpha_db_per_km: float = DEFAULT_ALPHA_DB_PER_KM
    speed_km_per_s: float = DEFAULT_SPEED_KM_PER_S
    t0_mode: str = "physical"  # or "normalized" (T0 = 1)

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.f0 <= 1.0:
            raise ValueError(f"F0 must be in [0, 1], got {self.f0}")
        if self.distance_km <= 0:
            raise ValueError(f"distance must be positive, got {self.distance_km}")
        if self.nesting < 0 or int(self.nesting) != self.nesting:
            raise ValueError(f"nesting level must be an integer >= 0, got {self.nesting}")
        if self.alpha_db_per_km <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha_db_per_km}")
        if self.speed_km_per_s <= 0:
            raise ValueError(f"signal speed must be positive, got {self.speed_km_per_s}")
        if self.t0_mode not in ("physical", "normalized"):
            raise ValueError(f"t0_mode must be 'physical' or 'normalized', got {self.t0_mode!r}")

    @property
    def gate_quality(self) -> float:
        return 1.0 - self.beta

    @property
    def stations(self) -> int:
        return 2**self.nesting - 1

    @property
    def segments(self) -> int:
        return 2**self.nesting

    @property
    def segment_km(self) -> float:
        return self.distance_km / self.segments


@dataclass(frozen=True)
class RateReport:
    """Everything the rate pipeline produces for one parameter point."""

    p0: float
    z_value: float
    rate_pairs_per_s: float
    e_x: float
    e_y: float
    e_z: float
    secret_fraction: float  # unclamped; the key rate uses max(., 0)
    key_rate: float
    p_s: float
    p_r: float
    nesting: int
    l0_km: float
    memories: int = MEMORIES_PER_HALF_NODE


def error_rates(coeffs: BellDiagCoeffs) -> tuple[float, float, float]:
    """QBER in the X, Y and Z bases of a Bell-diagonal pair."""
    e_z = coeffs.psi_plus + coeffs.psi_minus
    e_x = coeffs.phi_minus + coeffs.psi_minus
    e_y = coeffs.phi_minus + coeffs.psi_plus
    return e_x, e_y, e_z


def binary_entropy(p: float) -> float:
    if p < 0.0:
        p = 0.0 if p > -1e-12 else p
    if p > 1.0:
        p = 1.0 if p < 1.0 + 1e-12 else p
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def secret_fraction_six_state(e_x: float, e_y: float, e_z: float) -> float:
    """Asymptotic six-state secret fraction (Devetak-Winter), unclamped.

    Returns -inf when an entropy argument leaves [0, 1] (no key regardless);
    callers extracting a rate clamp at zero, threshold searches use the sign.
    """
    tol = 1e-9
    for name, e in (("e_x", e_x), ("e_y", e_y), ("e_z", e_z)):
        if not -tol <= e <= 1.0 + tol:
            raise ValueError(f"{name} must be in [0, 1], got {e}")
    if e_z <= 0.0:
        term_cond_phase = 0.0
    else:
        arg = (1.0 + (e_x - e_y) / e_z) / 2.0
        if arg < -tol or arg > 1.0 + tol:
            return float("-inf")
        term_cond_phase = e_z * binary_entropy(min(max(arg, 0.0), 1.0))
    if e_z >= 1.0:
        term_no_error = 0.0
    else:
        arg = (1.0 - (e_x + e_y + e_z) / 2.0) / (1.0 - e_z)
        if arg < -tol or arg > 1.0 + tol:
            return float("-inf")
        term_no_error = (1.0 - e_z) * binary_entropy(min(max(arg, 0.0), 1.0))
    return 1.0 - term_cond_phase - term_no_error - binary_entropy(max(e_z, 0.0))


def transmission_prob(l0_km: float, alpha_db_per_km: float = DEFAULT_ALPHA_DB_PER_KM) -> float:
    """Fiber transmittivity of one segment: 10^(-alpha L0 / 10)."""
    if l0_km < 0:
        raise ValueError(f"segment length must be nonnegative, got {l0_km}")
    if alpha_db_per_km <= 0:
        raise ValueError(f"alpha must be positive, got {alpha_db_per_km}")
    return float(10.0 ** (-alpha_db_per_km * l0_km / 10.0))


# Past this many terms the tail sum gives way to its Euler-Maclaurin limit
# (:func:`_z_asymptote`).  The cap is what keeps tiny P0 finite in time and
# memory: at P0 ~ 1e-17 the sum would need ~1e18 terms.
_Z_TAIL_CAP = 200_000
# ln(1e20): the tail is cut where num_pairs * (1 - P0)^k < 1e-20.
_TAIL_CUTOFF = 46.0
# Above this many pairs H_n comes from its asymptotic series (next term
# 1/(252 n^6) < 1e-17) instead of a sum whose cost grows with n.
_HARMONIC_SUM_MAX = 256
_LN2 = math.log(2.0)


def _log1mexp(u: np.ndarray) -> np.ndarray:
    """log(1 - exp(u)) for u < 0, accurate at both ends (Maechler's split)."""
    out = np.empty_like(u)
    near = u > -_LN2
    out[near] = np.log(-np.expm1(u[near]))
    out[~near] = np.log1p(-np.exp(u[~near]))
    return out


def _harmonic(n: int) -> float:
    if n <= _HARMONIC_SUM_MAX:
        return math.fsum(1.0 / j for j in range(1, n + 1))
    return (
        math.log(n) + np.euler_gamma + 1.0 / (2 * n) - 1.0 / (12 * n**2) + 1.0 / (120 * n**4)
    )


def _z_tail_sum(num_pairs: int, x: float, k_end: int) -> float:
    """1 + sum_{k=1}^{k_end} [1 - (1 - e^{-k x})^n] in double precision."""
    k = np.arange(1, k_end + 1, dtype=float)
    terms = -np.expm1(num_pairs * _log1mexp(-k * x))
    return 1.0 + math.fsum(terms.tolist())


def _z_asymptote(num_pairs: int, x: float) -> float:
    """Euler-Maclaurin limit H_n / x + 1/2 of the tail sum for small x.

    The integral of the summand is H_n / x and its value at k = 0 is 1; the
    derivative corrections vanish up to order n - 1 because the summand is
    flat to that order at k = 0, so for n >= 2 they are O(x^3) against
    Z ~ 1/x.
    """
    return _harmonic(num_pairs) / x + 0.5


@lru_cache(maxsize=65536)
def z_n(num_pairs: int, p0: float) -> float:
    """Expected rounds until all ``num_pairs`` geometric waits have succeeded.

    Z_n = 1 + sum_{k>=1} [1 - (1 - q^k)^n] with q = 1 - P0 (the expected
    maximum of n geometric variables; the alternating binomial closed form
    of Bernardes, Praxmeyer & van Loock, PRA 83, 012323 (2011), is the same
    number).  Each term is -expm1(n log(1 - q^k)), which keeps its relative
    precision where q^k is below machine epsilon, and the terms are added
    exactly with ``math.fsum``.  The sum stops where n q^k < 1e-20; when
    that takes more than the cap (200 000) terms (tiny P0) the
    Euler-Maclaurin limit H_n / (-ln q) + 1/2 replaces it.  n = 1 is the
    exact 1 / P0.
    """
    if num_pairs < 1 or int(num_pairs) != num_pairs:
        raise ValueError(f"num_pairs must be a positive integer, got {num_pairs}")
    if not 0.0 < p0 <= 1.0:
        raise ValueError(f"P0 must be in (0, 1], got {p0} (P0 = 0 diverges)")
    if p0 == 1.0:
        return 1.0
    if num_pairs == 1:
        return 1.0 / p0
    x = -math.log1p(-p0)
    k_end = (math.log(num_pairs) + _TAIL_CUTOFF) / x
    if k_end > _Z_TAIL_CAP:
        return _z_asymptote(num_pairs, x)
    return _z_tail_sum(num_pairs, x, math.ceil(k_end))


def repeater_rate_qec(params: RepeaterParams) -> float:
    """Entangled pairs per second for the encoded chain.

    Swapping is deterministic in this scheme; the wait is for the slowest of
    the 3 * 2^N Bell pairs, and each round costs two fundamental times
    (photon transit plus acknowledgement).
    """
    return _pair_rate(params, _waiting_rounds(params)[1])


def _pair_rate(params: RepeaterParams, z: float) -> float:
    """R = 1 / (2 T0 Z) for Z expected rounds."""
    t0 = 1.0 if params.t0_mode == "normalized" else params.segment_km / params.speed_km_per_s
    return 1.0 / (2.0 * t0 * z)


def _waiting_rounds(params: RepeaterParams) -> tuple[float, float]:
    """(P0, Z) for the chain's segments.

    A segment long enough for P0 to underflow to 0.0 never delivers a pair:
    Z is infinite and the rate 0, where :func:`z_n` itself rejects P0 = 0.
    """
    p0 = transmission_prob(params.segment_km, params.alpha_db_per_km)
    return p0, (z_n(3 * params.segments, p0) if p0 > 0.0 else math.inf)


@lru_cache(maxsize=4096)
def _swap_prob(beta: float, f0: float, phase_trivial_only: bool = False) -> float:
    return swap_success_prob(
        encoded_pair(beta, f0), phase_trivial_only=phase_trivial_only
    )


def _decoded_key_fraction(
    beta: float, f0: float, swap_count: int, p_s: float | None
) -> tuple[tuple[float, float, float], float]:
    """(e_X, e_Y, e_Z) and the unclamped six-state r_inf of the decoded pair
    after ``swap_count`` compoundings with swap success ``p_s``."""
    qbers = error_rates(bell_diag_coeffs(final_state(beta, f0, swap_count, p_s=p_s)))
    return qbers, secret_fraction_six_state(*qbers)


def _chain_secret_fraction(
    beta: float, f0: float, swap_count: int, phase_trivial_only: bool
) -> float:
    p_s = _swap_prob(beta, f0, phase_trivial_only) if swap_count else None
    return _decoded_key_fraction(beta, f0, swap_count, p_s)[1]


def secret_fraction_for(beta: float, f0: float, nesting: int) -> float:
    """Unclamped six-state secret fraction of the decoded chain state,
    with the rate pipeline's per-station error compounding."""
    return _chain_secret_fraction(beta, f0, 2**nesting - 1, phase_trivial_only=False)


def key_rate(params: RepeaterParams) -> RateReport:
    """Full pipeline: encoded pair -> swap chain -> decode -> six-state key.

    The key rate is pairs per second times the clamped secret fraction,
    divided by the six memories per half node.
    """
    r = params.stations
    p_s = _swap_prob(params.beta, params.f0)
    p_r = chain_success_prob(p_s, r) if r >= 1 else 1.0
    (e_x, e_y, e_z), fraction = _decoded_key_fraction(params.beta, params.f0, r, p_s)
    p0, z = _waiting_rounds(params)
    rate = _pair_rate(params, z)
    return RateReport(
        p0=p0,
        z_value=z,
        rate_pairs_per_s=rate,
        e_x=e_x,
        e_y=e_y,
        e_z=e_z,
        secret_fraction=fraction,
        key_rate=rate * max(fraction, 0.0) / MEMORIES_PER_HALF_NODE,
        p_s=p_s,
        p_r=p_r,
        nesting=params.nesting,
        l0_km=params.segment_km,
    )


def _reports_by_nesting(
    distance_km: float, beta: float, f0: float, n_range: Iterable[int], **fiber
) -> dict[int, RateReport]:
    """:func:`key_rate` at each distinct nesting level of ``n_range``, in
    ascending order; ``fiber`` holds the remaining :class:`RepeaterParams`."""
    n_values = sorted(set(int(n) for n in n_range))
    if not n_values:
        raise ValueError("n_range must be nonempty")
    return {
        n: key_rate(RepeaterParams(beta=beta, f0=f0, distance_km=distance_km, nesting=n, **fiber))
        for n in n_values
    }


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
    except that a level whose P0 underflowed to 0 loses every tie."""
    reports = _reports_by_nesting(
        distance_km, beta, f0, n_range,
        alpha_db_per_km=alpha_db_per_km, speed_km_per_s=speed_km_per_s, t0_mode=t0_mode,
    )
    best: tuple[int, RateReport] | None = None
    for n, report in reports.items():
        if best is None or (report.key_rate, report.p0 > 0.0) > (
            best[1].key_rate, best[1].p0 > 0.0
        ):
            best = (n, report)
    return best


def _bisect(f: Callable[[float], float], a: float, b: float, fa: float, xtol: float) -> float:
    """Root of ``f`` in [a, b] by bisection, given fa = f(a) with a sign
    opposite to f(b).

    Follows ``scipy.optimize.bisect`` (rtol = 4 eps, 100 iterations) midpoint
    for midpoint, so it returns the same float.
    """
    if xtol <= 0.0:
        raise ValueError(f"bisection tolerance must be positive, got {xtol}")
    rtol = 4.0 * np.finfo(float).eps
    dm = b - a
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError(f"bisection did not converge in 100 iterations (xtol={xtol})")


def _require_chain_stations(r: int) -> None:
    if r < 1 or (r + 1) & r != 0:
        raise ValueError(f"station count must be 2^N - 1 with N >= 1, got {r}")


def threshold_gate_quality(
    r: int, *, bracket: tuple[float, float] = (0.0, 0.05), tol: float = 1e-4
) -> float:
    """Minimal gate quality for a nonzero key with r stations and F0 = 1.

    Bisects the sign of the unclamped secret fraction over beta, using the
    per-nesting-level compounding that reproduces the published table (see
    the module docstring).
    """
    _require_chain_stations(r)
    nesting = (r + 1).bit_length() - 1
    lo, hi = bracket

    def f(beta: float) -> float:
        return _chain_secret_fraction(beta, 1.0, nesting, phase_trivial_only=True)

    f_lo, f_hi = f(lo), f(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise NoThresholdError(
            f"no sign change for r={r} in beta bracket [{lo}, {hi}]"
        )
    beta_star = _bisect(f, lo, hi, f_lo, tol)
    return 1.0 - beta_star


def threshold_fidelity(
    r: int, *, bracket: tuple[float, float] = (0.9, 1.0), tol: float = 1e-4
) -> float:
    """Minimal source fidelity for a nonzero key with r stations and
    perfect gates, with the same compounding as
    :func:`threshold_gate_quality`."""
    _require_chain_stations(r)
    nesting = (r + 1).bit_length() - 1
    lo, hi = bracket

    def f(f0: float) -> float:
        return _chain_secret_fraction(0.0, f0, nesting, phase_trivial_only=True)

    f_lo, f_hi = f(lo), f(hi)
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise NoThresholdError(
            f"no sign change for r={r} in F0 bracket [{lo}, {hi}]"
        )
    return _bisect(f, lo, hi, f_lo, tol)


@dataclass(frozen=True)
class CostReport:
    cost: float          # memory qubits per secret bit, minimized over N
    cost_coefficient: float  # cost / total distance
    nesting: int
    l0_km: float
    key_rate: float


def min_cost_over_nesting(entries: Sequence[tuple[int, float]]) -> tuple[float, int]:
    """Minimum of 2^(N+1) / K over (N, K) entries; K <= 0 means unusable.

    This is the plug point for comparing externally supplied schemes: feed
    it their (nesting, key-rate) table.
    """
    if not entries:
        raise ValueError("entries must be nonempty")
    best_cost, best_n = float("inf"), min(n for n, _ in entries)
    for n, k in sorted(entries):
        cost = 2.0 ** (n + 1) / k if k > 0.0 else float("inf")
        if cost < best_cost:
            best_cost, best_n = cost, n
    return best_cost, best_n


def cost_coefficient(
    distance_km: float,
    beta: float,
    f0: float,
    *,
    t0_mode: str = "normalized",
    n_range: Iterable[int] = range(DEFAULT_MIN_NESTING, DEFAULT_MAX_NESTING + 1),
    alpha_db_per_km: float = DEFAULT_ALPHA_DB_PER_KM,
    speed_km_per_s: float = DEFAULT_SPEED_KM_PER_S,
) -> CostReport:
    """Total memory qubits per secret bit, minimized over the nesting level.

    2^(N+1) counts two memory qubits per station plus one at each end.
    """
    reports = _reports_by_nesting(
        distance_km, beta, f0, n_range,
        alpha_db_per_km=alpha_db_per_km, speed_km_per_s=speed_km_per_s, t0_mode=t0_mode,
    )
    cost, n_best = min_cost_over_nesting([(n, rep.key_rate) for n, rep in reports.items()])
    return CostReport(
        cost=cost,
        cost_coefficient=cost / distance_km,
        nesting=n_best,
        l0_km=distance_km / 2**n_best,
        key_rate=reports[n_best].key_rate,
    )
