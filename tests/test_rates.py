import math
import sys
import time
import types
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import bisect

from repeater_keyrate import channels, cli, closedform, encgen, frames, rates
from repeater_keyrate.qstate import BellDiagCoeffs
from repeater_keyrate.rates import (
    CostReport,
    NoThresholdError,
    check_link,
    cost_coefficient,
    error_rates,
    key_rate,
    min_cost_over_nesting,
    optimize_over_stations,
    secret_fraction_for,
    secret_fraction_six_state,
    threshold_fidelity,
    threshold_gate_quality,
    transmission_prob,
    z_n,
)


def coeffs(*vals):
    return BellDiagCoeffs(*vals)


class TestErrorRates:
    def test_perfect_pair(self):
        assert error_rates(coeffs(1, 0, 0, 0)) == (0, 0, 0)

    def test_maximally_mixed(self):
        assert error_rates(coeffs(0.25, 0.25, 0.25, 0.25)) == (0.5, 0.5, 0.5)

    def test_computational_mixture(self):
        assert error_rates(coeffs(0.5, 0.5, 0.0, 0.0)) == (0.5, 0.5, 0.0)


class TestSecretFraction:
    def test_perfect(self):
        assert secret_fraction_six_state(0, 0, 0) == 1.0

    def test_symmetric_threshold_location(self):
        # independent root search on an inline copy of the formula
        def h(p):
            if p in (0.0, 1.0):
                return 0.0
            return -p * math.log2(p) - (1 - p) * math.log2(1 - p)

        def r_sym(q):
            return 1 - q * h(0.5) - (1 - q) * h((1 - 1.5 * q) / (1 - q)) - h(q)

        lo, hi = 0.10, 0.14
        for _ in range(60):
            mid = (lo + hi) / 2
            if r_sym(mid) > 0:
                lo = mid
            else:
                hi = mid
        q_star = (lo + hi) / 2
        assert q_star == pytest.approx(0.1262, abs=5e-4)

        # the package formula agrees with the oracle at the root
        assert abs(secret_fraction_six_state(q_star, q_star, q_star)) < 1e-3

    def test_fully_random_has_no_key(self):
        assert secret_fraction_six_state(0.5, 0.5, 0.5) < 0

    def test_invalid_entropy_argument_means_no_key(self):
        assert secret_fraction_six_state(1.0, 1.0, 0.5) == float("-inf")

    def test_continuity_near_zero(self):
        small = secret_fraction_six_state(1e-9, 1e-9, 1e-9)
        assert small == pytest.approx(1.0, abs=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            secret_fraction_six_state(-0.2, 0.0, 0.0)

    # Each QBER may stray 1e-9 past [0, 1] by rounding.
    @pytest.mark.parametrize("position, edge", [
        (0, -1e-9), (0, 1.0 + 1e-9), (1, -1e-9), (1, 1.0 + 1e-9), (2, -1e-9), (2, 1.0 + 1e-9),
    ])
    def test_slack_edge_is_accepted(self, position, edge):
        args = [0.0, 0.0, 0.0]
        args[position] = edge
        assert math.isfinite(secret_fraction_six_state(*args))

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("edge", [-1e-9, 1.0 + 1e-9])
    def test_just_past_the_slack_names_the_argument(self, position, edge):
        args = [0.0, 0.0, 0.0]
        args[position] = math.nextafter(edge, math.copysign(math.inf, edge))
        name = ("e_x", "e_y", "e_z")[position]
        with pytest.raises(ValueError, match=f"^{name} must be in \\[0, 1\\]"):
            secret_fraction_six_state(*args)


class TestTransmission:
    def test_zero_length(self):
        assert transmission_prob(0.0) == 1.0

    def test_attenuation_length(self):
        p = transmission_prob(25.5, 0.17)
        assert p == pytest.approx(10 ** (-0.17 * 25.5 / 10), abs=1e-12)
        assert p == pytest.approx(1 / math.e, abs=5e-3)

    def test_exponent_additivity(self):
        assert transmission_prob(51.0) == pytest.approx(transmission_prob(25.5) ** 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            transmission_prob(-1.0)
        with pytest.raises(ValueError):
            transmission_prob(10.0, 0.0)

    @pytest.mark.parametrize("args", [(math.nan,), (10.0, math.nan)])
    def test_rejects_nan(self, args):
        with pytest.raises(ValueError):
            transmission_prob(*args)


def z_series_oracle(num_pairs, p0):
    """Independent evaluation: sum over rounds of P(some pair still waiting)."""
    q = 1.0 - p0
    total, k = 0.0, 0
    while True:
        term = -math.expm1(num_pairs * math.log1p(-(q**k))) if k > 0 else 1.0
        if term < 1e-17:
            break
        total += term
        k += 1
    return total


def z_binomial_reference(num_pairs, p0):
    """The alternating binomial closed form (Bernardes, Praxmeyer & van Loock,
    PRA 83, 012323 (2011)) summed in mpmath at a precision scaled to the
    binomial growth (~0.302 digits per pair), so the cancellation is exact.
    q^j is a running product at that precision: it keeps ~31 digits, as
    q**j does, and rounds to the same float at every tested point."""
    if p0 == 1.0:
        return 1.0
    digits = 30 + int(0.302 * num_pairs) + max(0, int(-math.log10(p0)) + 1)
    with mp.workdps(digits):
        q = 1 - mp.mpf(p0)
        total, binomial, q_j = mp.mpf(0), 1, mp.mpf(1)
        for j in range(1, num_pairs + 1):
            binomial = binomial * (num_pairs - j + 1) // j  # C(n, j), exact in ints
            q_j *= q
            term = mp.mpf(binomial) / (1 - q_j)
            total += term if j % 2 == 1 else -term
        return float(total)


def z_numpy_tail_reference(num_pairs, p0):
    """The earlier numpy evaluation of the tail sum: every term
    -expm1(n log1mexp(-k x)) up to k = ceil((ln n + 46) / x), where
    n q^k < 1e-20, added with ``math.fsum``."""
    x = -math.log1p(-p0)
    k = np.arange(1, math.ceil((math.log(num_pairs) + 46.0) / x) + 1, dtype=float)
    u = -k * x
    log1mexp = np.empty_like(u)
    near = u > -math.log(2.0)
    log1mexp[near] = np.log(-np.expm1(u[near]))
    log1mexp[~near] = np.log1p(-np.exp(u[~near]))
    return 1.0 + math.fsum((-np.expm1(num_pairs * log1mexp)).tolist())


REFERENCE_PAIRS = (1, 2, *(3 * 2**nesting for nesting in range(11)))


# A tail sum cut at n q^k < 1e-20 takes (ln n + TAIL_CUTOFF) / x terms.  Where
# that count reaches TERM_CAP (outside the proven region at n <= 3, inside it at
# n >= 6) is a sample point of the tests below; z_n itself has no term cap.
TERM_CAP = 200_000
TAIL_CUTOFF = 46.0


def cap_rate(num_pairs):
    """-ln(1 - P0) at which a tail sum cut at n q^k < 1e-20 takes TERM_CAP terms."""
    return (math.log(num_pairs) + TAIL_CUTOFF) / TERM_CAP


def outside_proven_region(num_pairs, draw, count):
    """The first ``count`` P0 = draw() in (0, 1) where the proven switch does not fire."""
    p0s = []
    while len(p0s) < count:
        p0 = float(draw())
        if 0.0 < p0 < 1.0 and not rates._asymptote_is_exact(num_pairs, -math.log1p(-p0)):
            p0s.append(p0)
    return p0s


class TestZnTailSum:
    @pytest.mark.parametrize("num_pairs", REFERENCE_PAIRS)
    def test_matches_binomial_reference(self, num_pairs):
        p_cap = -math.expm1(-cap_rate(num_pairs))
        for p0 in (1e-30, 1e-17, p_cap * 0.999, p_cap * 1.001, 1e-3, 0.37, 0.999):
            assert z_n(num_pairs, p0) == pytest.approx(
                z_binomial_reference(num_pairs, p0), rel=1e-14, abs=0.0
            ), p0

    @pytest.mark.parametrize("num_pairs", REFERENCE_PAIRS)
    def test_matches_numpy_tail_reference(self, num_pairs):
        p_cap = -math.expm1(-cap_rate(num_pairs))
        for p0 in np.geomspace(p_cap * 1.001, 0.999, 40):
            expected = z_numpy_tail_reference(num_pairs, float(p0))
            assert z_n(num_pairs, float(p0)) == pytest.approx(expected, rel=4.5e-16, abs=0.0), p0

    @pytest.mark.parametrize("num_pairs", REFERENCE_PAIRS[1:])
    def test_tail_sum_meets_asymptote_at_cap(self, num_pairs):
        x = cap_rate(num_pairs)
        tail = rates._z_tail_sum(num_pairs, x)
        assert rates._z_asymptote(num_pairs, x) == pytest.approx(tail, rel=1e-14, abs=0.0)

    def test_tail_terms_equal_the_two_branch_formula(self):
        # log(1 - q^k), q = e^-x, written out with its two branches split at k x = ln 2
        def two_branch(num_pairs, x, k):
            u = -k * x
            log1mexp = math.log(-math.expm1(u)) if u > -math.log(2.0) else math.log1p(-math.exp(u))
            return -math.expm1(num_pairs * log1mexp)

        for num_pairs in (2, 3, 12, 3072):
            for k in (1, 2, 7, 1000):
                split = math.log(2.0) / k
                near = (math.nextafter(split, 0.0), split, math.nextafter(split, 1.0))
                for x in (*near, split / 3, split * 3, 1e-6, 40.0):
                    assert rates._tail_terms(num_pairs, x, (k,)) == [two_branch(num_pairs, x, k)]
            for x in (0.05, 0.3, 1e-4):  # one list whose k x crosses ln 2
                ks = range(1, math.ceil(3 * math.log(2.0) / x))
                assert rates._tail_terms(num_pairs, x, ks) == [
                    two_branch(num_pairs, x, k) for k in ks
                ]

    def test_series_stops_once_its_terms_are_negligible(self, monkeypatch):
        # z_n(3 * 2^20, 0.9999) takes the tail sum with K = 2, where n q^K ~ 0.03:
        # its binomial series drops below 2^-70 within a dozen terms, not n
        num_pairs, p0 = 3 * 2**20, 0.9999
        x = -math.log1p(-p0)
        assert not rates._asymptote_is_exact(num_pairs, x)
        assert math.ceil((math.log(num_pairs) + math.log(2.0)) / x) == 2
        sizes = []
        counted = types.SimpleNamespace(**vars(math))
        counted.fsum = lambda terms: (sizes.append(len(terms)), math.fsum(terms))[1]
        monkeypatch.setattr(rates, "math", counted)
        rates.z_n(num_pairs, p0)
        assert 1 < sizes[-1] <= 16

    def test_exact_cases(self):
        assert z_n(1, 0.3) == 1.0 / 0.3
        assert z_n(3072, 1.0) == 1.0

    @pytest.mark.parametrize("num_pairs", (2, 3))
    def test_two_and_three_pair_closed_forms_match_mpmath(self, num_pairs):
        # 1000 P0 log-uniform in [1e-15, 1) and 1000 uniform, all outside the proven
        # region, against the alternating form at 60 digits, compared in mpmath
        rng = np.random.default_rng(num_pairs)
        p0s = [
            *outside_proven_region(num_pairs, lambda: 10.0 ** rng.uniform(-15.0, 0.0), 1000),
            *outside_proven_region(num_pairs, rng.random, 1000),
        ]
        worst = mp.mpf(0)
        with mp.workdps(60):
            for p0 in p0s:
                q = 1 - mp.mpf(p0)
                exact = mp.fsum(
                    (1 if j % 2 else -1) * mp.binomial(num_pairs, j) / (1 - q**j)
                    for j in range(1, num_pairs + 1)
                )
                worst = max(worst, abs(z_n(num_pairs, p0) - exact) / exact)
        assert worst <= 4.5e-16, worst

    def test_every_p0_is_fast(self):
        x_cap = cap_rate(3072)
        near_cap = [-math.expm1(-x_cap * f) for f in (0.999, 1.0, 1.001)]
        for p0 in [*np.geomspace(1e-30, 0.999, 40), *near_cap]:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                z_n(3072, float(p0))
                best = min(best, time.perf_counter() - start)
            assert best < 0.05, (p0, best)
        # n = 2, 3 just above the sample cap, in closed form, and the longest tail
        # left: n = 6 just above the proven switch
        for num_pairs in (2, 3, 6):
            x_switch = max(switch_rate(num_pairs), cap_rate(num_pairs))
            for p0 in (-math.expm1(-x_switch * f) for f in (1.0, 1.001, 1.01)):
                assert not rates._asymptote_is_exact(num_pairs, -math.log1p(-p0))
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    z_n(num_pairs, p0)
                    best = min(best, time.perf_counter() - start)
                assert best < (1e-3 if num_pairs <= 3 else 0.05), (num_pairs, p0, best)


def switch_rate(num_pairs):
    """The smallest x (to ~1e-15 relative) at which the proven switch no longer
    holds, by bisection in log x: the asymptote is proven exact at 1e-12 for
    every n >= 2 here, and no n has it at x = 3 (y = 2 pi / x < 2)."""
    lo, hi = 1e-12, 3.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if rates._asymptote_is_exact(num_pairs, mid):
            lo = mid
        else:
            hi = mid
    return hi


def remainder_bound(num_pairs, x):
    """B(n, x) = 4 M! / (x y^(M+1)), y = 2 pi / x, M = min(n, floor(y)), in mpmath."""
    y = 2 * mp.pi / mp.mpf(x)
    m = min(num_pairs, int(mp.floor(y)))
    return 4 * mp.factorial(m) / (mp.mpf(x) * y ** (m + 1))


class TestZnSwitch:
    @pytest.mark.parametrize("num_pairs", (2, 3, 6, 12, 24, 48, 96, 192, 384))
    def test_bound_covers_the_exact_remainder(self, num_pairs):
        # Z_n exactly, from the alternating form at log10 C(n, n/2) + 60 digits or more,
        # minus H_n / x + 1/2, on both sides of the switch
        x_switch = switch_rate(num_pairs)
        for x in np.geomspace(x_switch / 2, min(x_switch * 8, 2.0), 9).tolist():
            # digits enough to resolve B itself, where it lies below 1e-60 of Z
            relative = remainder_bound(num_pairs, x) * x / rates._harmonic(num_pairs)
            below = max(0, int(-mp.log10(relative)))
            digits = int(math.log10(math.comb(num_pairs, num_pairs // 2))) + 60 + below
            with mp.workdps(digits):
                xm = mp.mpf(x)
                harmonic = mp.fsum(mp.mpf(1) / j for j in range(1, num_pairs + 1))
                z = mp.fsum(
                    (1 if j % 2 else -1) * mp.binomial(num_pairs, j) / -mp.expm1(-j * xm)
                    for j in range(1, num_pairs + 1)
                )
                gap = abs(z - (harmonic / xm + mp.mpf(1) / 2))
                assert gap <= remainder_bound(num_pairs, x), (x, gap)
                # the test in logs says what B says, away from its rounding
                ratio = remainder_bound(num_pairs, x) / (mp.mpf(2) ** -60 * harmonic / xm)
                if abs(mp.log(ratio)) > 1e-9:
                    assert rates._asymptote_is_exact(num_pairs, x) == (ratio <= 1), x

    @pytest.mark.parametrize("nesting", range(1, 21))
    def test_cap_lies_inside_the_proven_region(self, nesting):
        num_pairs = 3 * 2**nesting
        assert rates._asymptote_is_exact(num_pairs, cap_rate(num_pairs))
        # the longest tail left, K - 1 terms, is just above the switch
        x = switch_rate(num_pairs)
        assert not rates._asymptote_is_exact(num_pairs, x)
        tail = math.ceil((math.log(num_pairs) + math.log(2.0)) / x) - 1
        assert tail <= (413 if num_pairs == 6 else 98), tail

    @pytest.mark.parametrize("num_pairs", (2, 3, 6, 12, 24, 3072, 3 * 2**20))
    def test_proven_region_returns_the_asymptote(self, num_pairs):
        x_switch = switch_rate(num_pairs)
        for x in np.geomspace(x_switch / 100, x_switch * 0.99, 7).tolist():
            p0 = -math.expm1(-x)
            x = -math.log1p(-p0)
            assert rates._asymptote_is_exact(num_pairs, x)
            assert z_n(num_pairs, p0) == rates._z_asymptote(num_pairs, x)

    def test_cap_stays_the_switch_at_two_and_three_pairs(self):
        for num_pairs in (2, 3):
            assert not rates._asymptote_is_exact(num_pairs, cap_rate(num_pairs))
            assert switch_rate(num_pairs) < cap_rate(num_pairs)


class TestBisection:
    @pytest.mark.parametrize("tol", [1e-4, 1.5e-4])
    def test_same_floats_as_scipy(self, tol):
        for r in (1, 3, 7, 15, 31, 63, 127):
            nesting = (r + 1).bit_length() - 1

            def f_beta(beta):
                return rates._Point(beta, 1.0, phase_trivial_only=True).decoded(nesting)[2]

            def f_f0(f0):
                return rates._Point(0.0, f0, phase_trivial_only=True).decoded(nesting)[2]

            assert threshold_gate_quality(r, tol=tol) == 1.0 - bisect(f_beta, 0.0, 0.05, xtol=tol)
            assert threshold_fidelity(r, tol=tol) == bisect(f_f0, 0.9, 1.0, xtol=tol)

    @pytest.mark.parametrize("r", [1, 7, 127])
    @pytest.mark.parametrize("over_f0", [False, True])
    def test_one_call_fewer_than_scipy(self, monkeypatch, r, over_f0):
        # the tolerance is tested before f at the midpoint that is returned
        nesting = (r + 1).bit_length() - 1
        ours, theirs = [], []
        shared = rates._shared_point
        monkeypatch.setattr(rates, "_shared_point",
                            lambda *key: ours.append(key[over_f0]) or shared(*key))

        def f(x):
            theirs.append(x)
            point = rates._Point(0.0, x, True) if over_f0 else rates._Point(x, 1.0, True)
            return point.decoded(nesting)[2]

        if over_f0:
            assert threshold_fidelity(r) == bisect(f, 0.9, 1.0, xtol=1e-4)
        else:
            assert threshold_gate_quality(r) == 1.0 - bisect(f, 0.0, 0.05, xtol=1e-4)
        assert ours == theirs[:-1]

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            threshold_gate_quality(1, tol=0.0)

    @pytest.mark.parametrize("threshold", [threshold_gate_quality, threshold_fidelity])
    def test_rejects_nan_tolerance_before_bisecting(self, threshold):
        # NaN fails every comparison: a `xtol <= 0` check would let it run 100 midpoints
        with pytest.raises(ValueError, match="tolerance must be positive"):
            threshold(1, tol=float("nan"))


class TestZn:
    def test_single_pair(self):
        for p0 in (0.1, 0.37, 0.9):
            assert z_n(1, p0) == pytest.approx(1 / p0, rel=1e-12)

    def test_two_pairs_closed_value(self):
        expected = float(4 - Fraction(4, 3))
        assert z_n(2, 0.5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("num_pairs,p0", [(3, 0.37), (6, 0.37), (12, 0.2), (24, 0.5), (96, 0.31), (384, 0.37)])
    def test_matches_series_oracle(self, num_pairs, p0):
        assert z_n(num_pairs, p0) == pytest.approx(z_series_oracle(num_pairs, p0), rel=1e-10)

    def test_monte_carlo_agreement(self, monte_carlo_z):
        rng = np.random.default_rng(42)
        trials = 200_000
        for num_pairs, p0 in ((6, 0.37), (12, 0.2)):
            assert monte_carlo_z(num_pairs, p0, trials, rng) < 3

    def test_monotone_in_num_pairs(self):
        values = [z_n(n, 0.37) for n in (1, 2, 4, 8, 16, 32)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_decreasing_in_p0(self):
        values = [z_n(6, p) for p in (0.1, 0.3, 0.5, 0.9)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_lower_bound(self):
        assert z_n(6, 0.25) >= 1 / 0.25

    def test_tiny_p0_stays_finite(self):
        z = z_n(3, 1e-30)
        assert z == pytest.approx((1 + 0.5 + 1 / 3) / 1e-30, rel=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            z_n(0, 0.5)
        with pytest.raises(ValueError):
            z_n(3, 0.0)

    def test_integral_float_num_pairs_accepted(self):
        assert z_n(3.0, 0.5) == z_n(3, 0.5)


class TestGeometricMax:
    """The Monte Carlo sampler of z_n: one uniform per maximum of n geometrics."""

    TRIALS = 10**5
    # DKW: an empirical CDF of N draws strays more than eps from its law with
    # probability at most 2 exp(-2 N eps^2); here alpha = 1e-6, split over two samples
    EPS = math.sqrt(math.log(2 / 0.5e-6) / (2 * TRIALS))

    @pytest.mark.parametrize("num_pairs, p0", [(3, 0.37), (12, 0.2)])
    def test_law_is_the_maximum_of_geometrics(self, geometric_max, num_pairs, p0):
        rng = np.random.default_rng(2024)
        direct = geometric_max(rng.random(self.TRIALS), num_pairs, p0)
        # the sampler it replaced: the maximum of n draws of rng.geometric
        reference = rng.geometric(p0, size=(self.TRIALS, num_pairs)).max(axis=1)
        k = np.arange(1, 11)
        law = (1.0 - (1.0 - p0) ** k) ** num_pairs
        direct_cdf = (direct[:, None] <= k).mean(axis=0)
        reference_cdf = (reference[:, None] <= k).mean(axis=0)
        assert np.abs(direct_cdf - law).max() <= self.EPS
        assert np.abs(reference_cdf - law).max() <= self.EPS
        assert np.abs(direct_cdf - reference_cdf).max() <= 2 * self.EPS

    def test_zero_uniform_is_one_wait(self, geometric_max):
        assert geometric_max(np.array([0.0]), 12, 0.2).tolist() == [1.0]


class TestRepeaterRate:
    def test_normalized_high_transmission_limit(self):
        report = key_rate(1e-9, 0.0, 1.0, 1, t0_mode="normalized")
        assert report.rate_pairs_per_s == pytest.approx(0.5)

    def test_direct_link_uses_three_pairs(self):
        p0 = transmission_prob(51.0)
        t0 = 51.0 / rates.DEFAULT_SPEED_KM_PER_S
        assert key_rate(51.0, 0.0, 1.0, 0).rate_pairs_per_s == pytest.approx(
            1.0 / (2 * t0 * z_n(3, p0)))

    def test_decreasing_in_distance(self):
        rates = [
            key_rate(L, 0.0, 1.0, 2).rate_pairs_per_s
            for L in (100, 200, 400, 800)
        ]
        assert all(b < a for a, b in zip(rates, rates[1:]))


class TestJiangRate:
    def test_far_above_finite_memory_rate(self):
        # Jiang et al.'s infinite-memory estimate m P0 / L0 with m = 3, in
        # the same time units: multiply by the c/L0 attempt rate
        l0 = 25.5
        p0 = transmission_prob(l0)
        finite = key_rate(l0, 0.0, 1.0, 0).rate_pairs_per_s
        infinite = 3 * p0 / l0 * rates.DEFAULT_SPEED_KM_PER_S
        assert infinite / finite > 5


class TestKeyRate:
    def test_ideal_sanity(self):
        for nesting in (1, 2, 3):
            report = key_rate(100.0, 0.0, 1.0, nesting)
            assert report.p_s == pytest.approx(1.0, abs=1e-12)
            assert report.p_r == pytest.approx(1.0, abs=1e-12)
            assert report.secret_fraction == pytest.approx(1.0, abs=1e-12)
            assert report.key_rate == pytest.approx(report.rate_pairs_per_s / 6, rel=1e-12)

    def test_ideal_corner_is_exact(self):
        for nesting in range(1, 11):
            report = key_rate(200.0, 0.0, 1.0, nesting)
            assert report.p_s == 1.0
            assert report.p_r == 1.0
            assert report.secret_fraction == 1.0
            assert report.key_rate == report.rate_pairs_per_s / 6

    def test_underflowed_p0_gives_no_rate(self):
        report = key_rate(100000.0, 0.01, 0.99, 1)
        assert report.p0 == 0.0
        assert report.z_value == math.inf
        assert report.rate_pairs_per_s == 0.0
        assert report.key_rate == 0.0
        assert key_rate(100000.0, 0.01, 0.99, 1).rate_pairs_per_s == 0.0

    def test_optimum_skips_underflowed_levels(self):
        n_best, report = optimize_over_stations(100000.0, 0.01, 0.99)
        assert report.p0 > 0.0
        assert transmission_prob(100000.0 / 2 ** (n_best - 1)) == 0.0

    def test_realistic_point_has_key(self):
        n_best, report = optimize_over_stations(600.0, 1 - 0.992, 0.98)
        assert report.key_rate > 0
        assert report.secret_fraction > 0

    def test_low_fidelity_has_no_key(self):
        for n in range(1, 11):
            report = key_rate(600.0, 0.008, 0.90, n)
            assert report.key_rate == 0.0
            assert report.secret_fraction < 0

    def test_report_consistency(self):
        report = key_rate(400.0, 0.005, 0.98, 2)
        assert report.key_rate == pytest.approx(
            report.rate_pairs_per_s * max(report.secret_fraction, 0.0) / report.memories
        )
        assert 0 <= report.p0 <= 1
        assert report.memories == 6
        assert report.l0_km == pytest.approx(100.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            key_rate(-5.0, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            key_rate(5.0, 0.0, 1.0, -1)
        with pytest.raises(ValueError):
            key_rate(5.0, 0.0, 1.0, 1, t0_mode="bogus")
        with pytest.raises(ValueError):  # T0 of a 1e-306 km segment has no finite 1/(2 T0)
            key_rate(1e-300, 0.0, 1.0, 20)
        # defaults, and no record can be changed in place
        report = key_rate(5.0, 0.0, 1.0, 1)
        assert report.memories == 6
        assert BellDiagCoeffs(1.0, 0.0, 0.0, 0.0).remainder_norm == 0.0
        records = (
            (report, "key_rate"),
            (BellDiagCoeffs(1.0, 0.0, 0.0, 0.0), "phi_plus"),
            (cost_coefficient(100.0, 0.0, 1.0), "cost"),
        )
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, 0.5)

    @pytest.mark.parametrize("field", ["distance_km", "alpha_db_per_km", "speed_km_per_s"])
    def test_nan_rejected(self, field):
        # every check is `not x > 0`, which NaN fails
        kwargs = {"distance_km": 600.0, "alpha_db_per_km": 0.17, "speed_km_per_s": 2e5}
        kwargs[field] = math.nan
        with pytest.raises(ValueError):
            key_rate(beta=0.0, f0=1.0, nesting=1, **kwargs)
        with pytest.raises(ValueError):
            optimize_over_stations(kwargs.pop("distance_km"), 0.0, 1.0, **kwargs)

    def test_one_waiting_time_lookup_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return z_n(*args)

        rates._link_terms.cache_clear()
        monkeypatch.setattr(rates, "z_n", counted)
        report = key_rate(400.0, 0.005, 0.98, 2)
        assert calls == [(12, report.p0)]

    def test_integral_float_nesting_accepted(self):
        report = key_rate(600.0, 0.0, 1.0, 2.0)
        assert type(report.nesting) is int
        assert report == key_rate(600.0, 0.0, 1.0, 2)


class TestOptimize:
    def test_argmax_property(self):
        n_best, best = optimize_over_stations(300.0, 0.002, 0.995, range(1, 7))
        for n in range(1, 7):
            report = key_rate(300.0, 0.002, 0.995, n)
            assert best.key_rate >= report.key_rate - 1e-18

    def test_unordered_range(self):
        a = optimize_over_stations(300.0, 0.002, 0.995, [3, 1, 2])
        b = optimize_over_stations(300.0, 0.002, 0.995, [1, 2, 3])
        assert a[0] == b[0]

    def test_optimal_nesting_nondecreasing_in_distance(self):
        picks = [
            optimize_over_stations(L, 0.002, 0.995, range(1, 9))[0]
            for L in (50, 200, 800, 3200)
        ]
        assert all(b >= a for a, b in zip(picks, picks[1:]))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            optimize_over_stations(100.0, 0.0, 1.0, [])

    @pytest.mark.parametrize("levels", [[1.5, 2.7], [2.9], [1, 2, 2.5]])
    def test_non_integral_levels_rejected(self, levels):
        # int() alone would truncate them: [1.5, 2.7] would scan N = 1, 2
        with pytest.raises(ValueError, match="nesting levels must be integers"):
            optimize_over_stations(600.0, 0.0, 1.0, levels)

    def test_integral_float_levels_accepted(self):
        assert optimize_over_stations(600.0, 0.0, 1.0, [1.0, 2.0, 2]) == (
            optimize_over_stations(600.0, 0.0, 1.0, [1, 2])
        )

    def test_generator_range(self):
        # the level list is read twice (its checks, then its levels), so a
        # one-pass iterable must give the answer of the same levels in a list
        levels = [3, 1, 2, 1]
        assert optimize_over_stations(300.0, 0.002, 0.995, (n for n in levels)) == (
            optimize_over_stations(300.0, 0.002, 0.995, levels)
        )

    def test_surface_grid_builds_the_swap_rows_once_per_f0(self, monkeypatch):
        # p_s's rows over eps depend on F0 alone; each point adds only its beta.
        # The link terms depend on (L, N, fiber) alone and the chain's
        # P_r-free terms on (beta, r) alone, so the grid computes each once
        f0s, gate_qualities = (0.99, 0.995, 0.999, 1.0), (0.99, 0.995, 1.0)
        link_calls, weights_calls = [], []
        cached_link_terms, weights = rates._link_terms, closedform.ChainState.weights

        def counted_link_terms(*args):
            link_calls.append(args)
            return cached_link_terms(*args)

        def counted_weights(chain, r):
            weights_calls.append((chain, r))
            return weights(chain, r)

        monkeypatch.setattr(rates, "_link_terms", counted_link_terms)
        monkeypatch.setattr(closedform.ChainState, "weights", counted_weights)
        for cache in (rates._shared_point, closedform._success_rows,
                      cached_link_terms, rates._shared_chain):
            cache.cache_clear()
        for f0 in f0s:
            for pg in gate_qualities:
                optimize_over_stations(600.0, 1.0 - pg, f0, range(1, 5))
        assert closedform._success_rows.cache_info().misses == len(f0s)
        assert rates._shared_point.cache_info().misses == len(f0s) * len(gate_qualities)
        needed = {args[1] for args in link_calls}
        assert len(link_calls) > len(needed) == cached_link_terms.cache_info().misses
        chains = {rates._shared_chain(1.0 - pg) for pg in gate_qualities}
        assert weights_calls and len(weights_calls) == len(set(weights_calls))
        assert {chain for chain, _ in weights_calls} <= chains

    def test_levels_that_cannot_win_sum_no_waiting_time(self, monkeypatch):
        # at 2000 km the shallow levels' K bound lies below the winner's K,
        # N = 10's chain success P_r = 0.18 is below KEYLESS_P_R, which rules out
        # a key, and N = 8, 9 decode to r_inf < 0; only N = 6, 7 sum Z, and the
        # winner's report reads its cached link terms: one z_n lookup fewer, so
        # the count is stricter than a Z looked up again
        levels = []

        def counted(num_pairs, p0):
            levels.append((num_pairs // 3).bit_length() - 1)
            return z_n(num_pairs, p0)

        rates._link_terms.cache_clear()
        monkeypatch.setattr(rates, "z_n", counted)
        n_best, report = optimize_over_stations(2000.0, 1e-4, 0.9999)
        assert n_best == 6 and report.key_rate > 0.0
        assert sorted(levels) == [6, 7]

    @pytest.mark.parametrize("distance, beta, f0", [
        (2000.0, 1e-4, 0.9999), (600.0, 0.01, 0.99), (600.0, 0.1, 0.9), (37000.0, 0.1, 0.9),
    ])
    def test_one_report_per_scan(self, monkeypatch, distance, beta, f0):
        # the scan scores levels by K alone and reports only the winner
        calls = []
        original = rates._Point.report

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(rates._Point, "report", counted)
        n_best, report = optimize_over_stations(distance, beta, f0)
        assert len(calls) == 1 and calls[0][1] == n_best == report.nesting

    def test_no_key_anywhere_goes_to_the_shallowest_level(self):
        for levels in (range(1, 11), [4, 7, 9]):
            n_best, report = optimize_over_stations(600.0, 0.05, 0.9, levels)
            assert (n_best, report.key_rate) == (min(levels), 0.0)

    def test_all_keyless_levels_report_the_shallowest_in_full(self):
        # at F0 = p_G = 0.9 every level's chain success rules out a key, so
        # no level is decoded in the scan and the winner's report comes after it
        beta = 1.0 - 0.9
        p_s = rates._Point(beta, 0.9).p_s
        assert all(p_s ** (2**n - 1) < rates.KEYLESS_P_R for n in range(1, 11))
        n_best, report = optimize_over_stations(600.0, beta, 0.9)
        assert (n_best, report) == (1, key_rate(600.0, beta, 0.9, 1))
        assert report.secret_fraction < 0.0 and report.key_rate == 0.0
        assert cost_coefficient(600.0, beta, 0.9).cost == math.inf

    def test_underflowed_levels_lose_ties(self):
        # at 1e5 km P0 underflows at N = 1, 2; every K is 0 at beta = 0.05, F0 = 0.9
        n_best, report = optimize_over_stations(100000.0, 0.05, 0.9, range(1, 11))
        assert (n_best, report.key_rate) == (3, 0.0)
        assert report.p0 > 0.0
        assert key_rate(100000.0, 0.05, 0.9, 2).p0 == 0.0

    def test_a_subnormal_p0_wins_ties_over_deeper_keyless_levels(self):
        # at 37000 km, F0 = p_G = 0.9 every level is keyless and N = 1 has a
        # subnormal P0 ~ 3e-315, where 1/P0 overflows: a positive P0 still wins
        reports = {n: key_rate(37000.0, 0.1, 0.9, n) for n in range(1, 11)}
        assert 0.0 < reports[1].p0 < sys.float_info.min
        n_star = max(reports, key=lambda n: (reports[n].key_rate, reports[n].p0 > 0.0))
        assert n_star == 1
        assert optimize_over_stations(37000.0, 0.1, 0.9) == (n_star, reports[n_star])


class TestThresholds:
    def test_single_station_row(self):
        assert threshold_gate_quality(1) == pytest.approx(0.984, abs=1e-3)
        assert threshold_fidelity(1) == pytest.approx(0.944, abs=1e-3)

    def test_seven_station_row(self):
        assert threshold_gate_quality(7) == pytest.approx(0.994, abs=1e-3)
        assert threshold_fidelity(7) == pytest.approx(0.981, abs=1e-3)

    def test_monotone_in_stations(self):
        pg = [threshold_gate_quality(r) for r in (1, 7, 127)]
        f0 = [threshold_fidelity(r) for r in (1, 7, 127)]
        assert pg == sorted(pg)
        assert f0 == sorted(f0)

    def test_rejects_invalid_station_count(self):
        for bad in (0, 2, 5, -3):
            with pytest.raises(ValueError):
                threshold_gate_quality(bad)

    def test_no_threshold_in_bracket(self):
        with pytest.raises(NoThresholdError):
            threshold_gate_quality(1, bracket=(0.0, 0.001))

    def test_integral_float_station_count_accepted(self):
        assert threshold_fidelity(7.0) == threshold_fidelity(7)
        with pytest.raises(ValueError):
            threshold_fidelity(6.5)


class TestCost:
    def test_min_cost_plug_point(self):
        cost, n = min_cost_over_nesting([(0, 1.0)])
        assert cost == pytest.approx(2.0)
        assert n == 0

    def test_zero_rate_is_unusable(self):
        cost, n = min_cost_over_nesting([(1, 0.0), (2, 0.5)])
        assert cost == pytest.approx(2**3 / 0.5)
        assert n == 2

    def test_widening_range_never_increases_cost(self):
        narrow = cost_coefficient(1000.0, 1e-4, 0.99995, n_range=range(3, 6))
        wide = cost_coefficient(1000.0, 1e-4, 0.99995, n_range=range(1, 9))
        assert wide.cost <= narrow.cost + 1e-12

    def test_fig8_point(self):
        report = cost_coefficient(2000.0, 1 - 0.9999, 0.99995)
        assert 30.0 <= report.l0_km <= 120.0
        assert np.isfinite(report.cost)
        assert report.cost_coefficient == pytest.approx(report.cost / 2000.0)

    def test_no_key_gives_infinite_cost(self):
        report = cost_coefficient(600.0, 0.05, 0.9)
        assert report.cost == float("inf")

    @pytest.mark.parametrize("levels", [[2.9], [1.5, 2.7]])
    def test_non_integral_levels_rejected(self, levels):
        # int() alone would truncate them: [2.9] would scan N = 2
        with pytest.raises(ValueError, match="nesting levels must be integers"):
            cost_coefficient(600.0, 1e-4, 0.99995, n_range=levels)


COUNT_CHECKS = {
    "key_rate": lambda x: key_rate(100.0, 0.0, 1.0, x),
    "z_n": lambda x: z_n(x, 0.5),
    "threshold_gate_quality": lambda x: threshold_gate_quality(x),
    "chain_success_prob": lambda x: closedform.chain_success_prob(0.9, x),
    "optimize_over_stations": lambda x: optimize_over_stations(100.0, 0.0, 1.0, n_range=[x]),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(COUNT_CHECKS))
def test_non_finite_counts_raise_value_error(entry, value):
    # the argument checks' own messages, not int()'s OverflowError on inf
    # or its "cannot convert float NaN" error
    with pytest.raises(ValueError, match="must be"):
        COUNT_CHECKS[entry](value)


# every entry point that takes a nesting level N, as f(N); T0 = 1 ("normalized")
# leaves no T0 check to stop a deep level
DEPTH_CHECKS = {
    "secret_fraction_for": lambda n: secret_fraction_for(0.01, 0.99, n),
    "key_rate": lambda n: key_rate(2000.0, 0.01, 0.99, n, t0_mode="normalized"),
    "optimize_over_stations": lambda n: optimize_over_stations(
        2000.0, 0.01, 0.99, [n], t0_mode="normalized"),
    "cost_coefficient": lambda n: cost_coefficient(2000.0, 0.01, 0.99, n_range=[n]),
}


@pytest.mark.parametrize("entry", sorted(DEPTH_CHECKS))
def test_deepest_nesting_level_is_1022(entry):
    # 2^1023 is a float but 3 * 2^1023 and 2^(1023 + 1) are not: a ValueError
    # that names the level, not an OverflowError from the arithmetic
    DEPTH_CHECKS[entry](1022)
    for n in (1023, 2000):
        with pytest.raises(ValueError, match=f"nesting level {n} is too deep"):
            DEPTH_CHECKS[entry](n)


def test_non_integral_levels_are_listed_in_their_order():
    # a set holding NaN keeps no fixed order, so the message must not come from one
    texts = []
    for levels in ([math.nan, -1], [-1, math.nan]):
        with pytest.raises(ValueError, match="nesting levels must be integers") as caught:
            optimize_over_stations(600.0, 0.01, 0.99, levels)
        texts.append(str(caught.value))
    assert texts[0] == texts[1]


# every entry point that checks beta or F0, as f(beta, F0), and the inputs it checks
UNIT_CHECKS = {
    "swap_success_closed_form": (closedform.swap_success_closed_form, ("beta", "F0")),
    "ChainState": (lambda b, f: closedform.ChainState(b), ("beta",)),
    "frame_weights": (frames.frame_weights, ("beta", "F0")),
    "ghz_prep": (lambda b, f: encgen.ghz_prep(b), ("beta",)),
    "depolarizing_gate_mat": (
        lambda b, f: channels.depolarizing_gate_mat(np.eye(4) / 4, (0, 1), b), ("beta",)),
    "source_state_mat": (lambda b, f: channels.source_state_mat(f), ("F0",)),
    "encoded_pair_direct": (encgen.encoded_pair_direct, ("beta", "F0")),
    "optimize_over_stations": (lambda b, f: optimize_over_stations(100.0, b, f), ("beta", "F0")),
    "cost_coefficient": (lambda b, f: cost_coefficient(100.0, b, f), ("beta", "F0")),
    "secret_fraction_for": (lambda b, f: secret_fraction_for(b, f, 2), ("beta", "F0")),
    "key_rate": (lambda b, f: key_rate(100.0, b, f, 2), ("beta", "F0")),
}


@pytest.mark.parametrize("value", [-0.1, 1.1, math.nan])
@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry, (_, names) in sorted(UNIT_CHECKS.items()) for name in names
])
def test_one_unit_range_message(entry, name, value):
    check, _ = UNIT_CHECKS[entry]
    point = {"beta": 0.01, "F0": 0.99, name: value}
    with pytest.raises(ValueError) as caught:
        check(point["beta"], point["F0"])
    assert str(caught.value) == f"{name} must be in [0, 1], got {value}"


# (distance, nesting, alpha, speed, T0 mode) of links that cannot be timed
BAD_LINKS = [
    (-5.0, 1, 0.17, 2e5, "physical"),
    (math.nan, 1, 0.17, 2e5, "physical"),
    (600.0, -1, 0.17, 2e5, "physical"),
    (600.0, 1, 0.0, 2e5, "physical"),
    (600.0, 1, 0.17, math.nan, "normalized"),
    (600.0, 1, 0.17, 2e5, "bogus"),
    (1e-300, 20, 0.17, 2e5, "physical"),
    (1e-320, 1, 0.17, 2e5, "physical"),
]


@pytest.mark.parametrize("link", BAD_LINKS, ids=[f"link{i}" for i in range(len(BAD_LINKS))])
def test_one_link_check(capsys, link):
    distance, nesting, *fiber = link
    keywords = dict(zip(("alpha_db_per_km", "speed_km_per_s", "t0_mode"), fiber))
    with pytest.raises(ValueError) as caught:
        check_link(*link)
    text = str(caught.value)
    for build in (
        lambda: key_rate(distance, 0.01, 0.99, nesting, **keywords),
        lambda: optimize_over_stations(distance, 0.01, 0.99, [nesting], **keywords),
        lambda: cost_coefficient(distance, 0.01, 0.99, n_range=[nesting], **keywords),
    ):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == text
    if "too short" in text:  # the one check whose links the CLI's flag types let through
        argv = ["keyrate", "--distance", repr(distance), "--nesting", str(nesting),
                "--fidelity", "0.99", "--gate-quality", "0.99"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --distance {distance:.10g}: {text}\n"


@pytest.mark.parametrize("deep, expected", [
    (lambda: optimize_over_stations(2000.0, 0.01, 0.99, n_range=[253]),
     lambda: (253, key_rate(2000.0, 0.01, 0.99, 253))),
    (lambda: cost_coefficient(2000.0, 0.01, 0.99, n_range=range(1, 300)),
     lambda: cost_coefficient(2000.0, 0.01, 0.99, n_range=range(1, 253))),
], ids=["optimize_over_stations", "cost_coefficient"])
def test_scan_answers_where_key_rate_does(deep, expected):
    # n^4 of n = 3 * 2^253 pairs overflowed a float in H_n's series; the levels
    # from 253 on are keyless, so the scan gives what key_rate or the levels above give
    assert deep() == expected()


def test_harmonic_series_keeps_every_bit():
    for nesting in range(253):
        n = 3 * 2**nesting
        if n > rates._HARMONIC_SUM_MAX:
            old = (math.log(n) + rates._EULER_GAMMA
                   + 1.0 / (2 * n) - 1.0 / (12 * n**2) + 1.0 / (120 * n**4))
            assert rates._harmonic(n) == old


class TestSecretFractionFor:
    @pytest.mark.parametrize("nesting", [-1, 1.5, math.inf, math.nan])
    def test_rejects_a_nesting_level_by_its_own_name(self, nesting):
        # not by the station count 2^N - 1 derived from it
        with pytest.raises(ValueError) as caught:
            secret_fraction_for(0.01, 0.99, nesting)
        assert str(caught.value) == f"nesting level must be an integer >= 0, got {nesting}"

    def test_matches_key_rate_fraction(self):
        report = key_rate(200.0, 0.004, 0.99, 2)
        assert secret_fraction_for(0.004, 0.99, 2) == pytest.approx(report.secret_fraction)

    def test_zero_nesting_supported(self):
        assert secret_fraction_for(0.0, 1.0, 0) == pytest.approx(1.0, abs=1e-12)
