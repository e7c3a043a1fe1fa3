import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import bisect

from repeater_keyrate import rates
from repeater_keyrate.qstate import BellDiagCoeffs
from repeater_keyrate.validation import monte_carlo_z
from repeater_keyrate.rates import (
    CostReport,
    NoThresholdError,
    RepeaterParams,
    cost_coefficient,
    error_rates,
    key_rate,
    min_cost_over_nesting,
    optimize_over_stations,
    repeater_rate_qec,
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
        assert secret_fraction_six_state(0, 0, 0) == pytest.approx(1.0)

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
    binomial growth (~0.302 digits per pair), so the cancellation is exact."""
    if p0 == 1.0:
        return 1.0
    digits = 30 + int(0.302 * num_pairs) + max(0, int(-math.log10(p0)) + 1)
    with mp.workdps(digits):
        q = 1 - mp.mpf(p0)
        total = mp.mpf(0)
        for j in range(1, num_pairs + 1):
            term = mp.mpf(math.comb(num_pairs, j)) / (1 - q**j)
            total += term if j % 2 == 1 else -term
        return float(total)


REFERENCE_PAIRS = (1, 2, *(3 * 2**nesting for nesting in range(11)))


def cap_rate(num_pairs):
    """-ln(1 - P0) at which the tail sum reaches its term cap."""
    return (math.log(num_pairs) + rates._TAIL_CUTOFF) / rates._Z_TAIL_CAP


class TestZnTailSum:
    @pytest.mark.parametrize("num_pairs", REFERENCE_PAIRS)
    def test_matches_binomial_reference(self, num_pairs):
        p_cap = -math.expm1(-cap_rate(num_pairs))
        for p0 in (1e-30, 1e-17, p_cap * 0.999, p_cap * 1.001, 1e-3, 0.37, 0.999):
            assert z_n(num_pairs, p0) == pytest.approx(
                z_binomial_reference(num_pairs, p0), rel=1e-14, abs=0.0
            ), p0

    @pytest.mark.parametrize("num_pairs", REFERENCE_PAIRS[1:])
    def test_tail_sum_meets_asymptote_at_cap(self, num_pairs):
        x = cap_rate(num_pairs)
        tail = rates._z_tail_sum(num_pairs, x, rates._Z_TAIL_CAP)
        assert rates._z_asymptote(num_pairs, x) == pytest.approx(tail, rel=1e-14, abs=0.0)

    def test_exact_cases(self):
        assert z_n(1, 0.3) == 1.0 / 0.3
        assert z_n(3072, 1.0) == 1.0

    def test_every_p0_is_fast(self):
        x_cap = cap_rate(3072)
        near_cap = [-math.expm1(-x_cap * f) for f in (0.999, 1.0, 1.001)]
        for p0 in [*np.geomspace(1e-30, 0.999, 40), *near_cap]:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                z_n.__wrapped__(3072, float(p0))
                best = min(best, time.perf_counter() - start)
            assert best < 0.05, (p0, best)


class TestBisection:
    @pytest.mark.parametrize("tol", [1e-4, 1.5e-4])
    def test_same_floats_as_scipy(self, tol):
        for r in (1, 3, 7, 15, 31, 63, 127):
            nesting = (r + 1).bit_length() - 1

            def f_beta(beta):
                return rates._chain_secret_fraction(beta, 1.0, nesting, phase_trivial_only=True)

            def f_f0(f0):
                return rates._chain_secret_fraction(0.0, f0, nesting, phase_trivial_only=True)

            assert threshold_gate_quality(r, tol=tol) == 1.0 - bisect(f_beta, 0.0, 0.05, xtol=tol)
            assert threshold_fidelity(r, tol=tol) == bisect(f_f0, 0.9, 1.0, xtol=tol)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            threshold_gate_quality(1, tol=0.0)


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

    def test_monte_carlo_agreement(self):
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


class TestRepeaterRate:
    def test_normalized_high_transmission_limit(self):
        params = RepeaterParams(beta=0.0, f0=1.0, distance_km=1e-9, nesting=1, t0_mode="normalized")
        assert repeater_rate_qec(params) == pytest.approx(0.5)

    def test_direct_link_uses_three_pairs(self):
        params = RepeaterParams(beta=0.0, f0=1.0, distance_km=51.0, nesting=0)
        p0 = transmission_prob(51.0)
        t0 = 51.0 / params.speed_km_per_s
        assert repeater_rate_qec(params) == pytest.approx(1.0 / (2 * t0 * z_n(3, p0)))

    def test_decreasing_in_distance(self):
        rates = [
            repeater_rate_qec(RepeaterParams(beta=0.0, f0=1.0, distance_km=L, nesting=2))
            for L in (100, 200, 400, 800)
        ]
        assert all(b < a for a, b in zip(rates, rates[1:]))


class TestJiangRate:
    def test_far_above_finite_memory_rate(self):
        # Jiang et al.'s infinite-memory estimate m P0 / L0 with m = 3, in
        # the same time units: multiply by the c/L0 attempt rate
        l0 = 25.5
        p0 = transmission_prob(l0)
        params = RepeaterParams(beta=0.0, f0=1.0, distance_km=l0, nesting=0)
        finite = repeater_rate_qec(params)
        infinite = 3 * p0 / l0 * params.speed_km_per_s
        assert infinite / finite > 5


class TestKeyRate:
    def test_ideal_sanity(self):
        for nesting in (1, 2, 3):
            report = key_rate(
                RepeaterParams(beta=0.0, f0=1.0, distance_km=100.0, nesting=nesting)
            )
            assert report.p_s == pytest.approx(1.0, abs=1e-12)
            assert report.p_r == pytest.approx(1.0, abs=1e-12)
            assert report.secret_fraction == pytest.approx(1.0, abs=1e-12)
            assert report.key_rate == pytest.approx(report.rate_pairs_per_s / 6, rel=1e-12)

    def test_ideal_corner_is_exact(self):
        for nesting in range(1, 11):
            report = key_rate(
                RepeaterParams(beta=0.0, f0=1.0, distance_km=200.0, nesting=nesting)
            )
            assert report.p_s == 1.0
            assert report.p_r == 1.0
            assert report.secret_fraction == 1.0
            assert report.key_rate == report.rate_pairs_per_s / 6

    def test_underflowed_p0_gives_no_rate(self):
        params = RepeaterParams(beta=0.01, f0=0.99, distance_km=100000.0, nesting=1)
        report = key_rate(params)
        assert report.p0 == 0.0
        assert report.z_value == math.inf
        assert report.rate_pairs_per_s == 0.0
        assert report.key_rate == 0.0
        assert repeater_rate_qec(params) == 0.0

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
            report = key_rate(RepeaterParams(beta=0.008, f0=0.90, distance_km=600.0, nesting=n))
            assert report.key_rate == 0.0
            assert report.secret_fraction < 0

    def test_report_consistency(self):
        report = key_rate(RepeaterParams(beta=0.005, f0=0.98, distance_km=400.0, nesting=2))
        assert report.key_rate == pytest.approx(
            report.rate_pairs_per_s * max(report.secret_fraction, 0.0) / report.memories
        )
        assert 0 <= report.p0 <= 1
        assert report.memories == 6
        assert report.l0_km == pytest.approx(100.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RepeaterParams(beta=0.0, f0=1.0, distance_km=-5.0, nesting=1)
        with pytest.raises(ValueError):
            RepeaterParams(beta=0.0, f0=1.0, distance_km=5.0, nesting=-1)
        with pytest.raises(ValueError):
            RepeaterParams(beta=0.0, f0=1.0, distance_km=5.0, nesting=1, t0_mode="bogus")

    def test_one_waiting_time_lookup_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return z_n(*args)

        monkeypatch.setattr(rates, "z_n", counted)
        report = key_rate(RepeaterParams(beta=0.005, f0=0.98, distance_km=400.0, nesting=2))
        assert calls == [(12, report.p0)]


class TestOptimize:
    def test_argmax_property(self):
        n_best, best = optimize_over_stations(300.0, 0.002, 0.995, range(1, 7))
        for n in range(1, 7):
            report = key_rate(RepeaterParams(beta=0.002, f0=0.995, distance_km=300.0, nesting=n))
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


class TestSecretFractionFor:
    def test_matches_key_rate_fraction(self):
        report = key_rate(RepeaterParams(beta=0.004, f0=0.99, distance_km=200.0, nesting=2))
        assert secret_fraction_for(0.004, 0.99, 2) == pytest.approx(report.secret_fraction)

    def test_zero_nesting_supported(self):
        assert secret_fraction_for(0.0, 1.0, 0) == pytest.approx(1.0, abs=1e-12)
