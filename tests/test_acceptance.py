"""Acceptance suite: one test per published-value criterion.

Each check prints a PASS/FAIL line so a full run reads as a report.  The
station-count/threshold table is asserted entry by entry at +-0.001; the
gate-quality entry at r = 3 is a known deviation (the published table is
not self-consistent there; see the README model notes), so that single
entry fails honestly rather than being loosened.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import bisect

from repeater_keyrate import rates, validation


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}]: {detail}")


TABLE = {
    1: (0.984, 0.944),
    3: (0.993, 0.972),
    7: (0.994, 0.981),
    15: (0.996, 0.986),
    31: (0.997, 0.989),
    63: (0.997, 0.991),
    127: (0.998, 0.992),
}


@pytest.fixture(scope="module")
def threshold_table():
    start = time.time()
    computed = {}
    for r in TABLE:
        computed[(r, "gate")] = rates.threshold_gate_quality(r)
        computed[(r, "fidelity")] = rates.threshold_fidelity(r)
    computed["elapsed"] = time.time() - start
    return computed


@pytest.mark.parametrize("r", list(TABLE))
@pytest.mark.parametrize("kind", ["gate", "fidelity"])
def test_c1_threshold_table(threshold_table, r, kind):
    expected = TABLE[r][0] if kind == "gate" else TABLE[r][1]
    got = threshold_table[(r, kind)]
    ok = abs(got - expected) <= 1e-3
    label = "p_G,min" if kind == "gate" else "F_0,min"
    report(1, ok, f"{label}(r={r}) = {got:.5f} vs published {expected} (+-0.001)")
    assert ok, (
        f"{label}(r={r}) = {got:.5f} deviates from the published {expected} by "
        f"{abs(got - expected):.5f} > 0.001"
        + (
            "; known deviation: the published table is not self-consistent at "
            "this entry (see README model notes and the decisions ledger)"
            if (r, kind) == (3, "gate")
            else ""
        )
    )


def test_c1_runtime(threshold_table):
    elapsed = threshold_table["elapsed"]
    ok = elapsed < 300.0
    report(1, ok, f"full threshold table computed in {elapsed:.1f} s (< 300 s)")
    assert ok


def test_c2_key_region_boundary():
    def best_fraction_beta(beta):
        return max(rates.secret_fraction_for(beta, 1.0, n) for n in range(1, 11))

    def best_fraction_f0(f0):
        return max(rates.secret_fraction_for(0.0, f0, n) for n in range(1, 11))

    beta_star = bisect(best_fraction_beta, 0.0, 0.05, xtol=1e-5)
    f0_star = bisect(best_fraction_f0, 0.9, 1.0, xtol=1e-5)
    ok_beta = abs(beta_star - 0.0165) <= 1e-3
    ok_f0 = abs(f0_star - 0.943) <= 1e-3
    report(2, ok_beta and ok_f0,
           f"600 km key-region boundary: beta* = {beta_star:.5f} (0.0165+-0.001), "
           f"F0* = {f0_star:.5f} (0.943+-0.001)")
    assert ok_beta and ok_f0


def test_c3_counting_suite():
    (raw, admissible, permuted, distinct), max_off = validation.counting_deviation()
    ok = (raw, admissible, permuted, distinct) == (216, 160, 960, 64) and max_off < 1e-9
    report(3, ok,
           f"counts {raw}/{admissible}/{permuted}, {distinct} orthogonal states "
           f"(max overlap {max_off:.1e})")
    assert ok


def test_c4_closed_forms_match_circuits():
    worst_dec = validation.perfect_decode_deviation((0.0, 0.005, 0.01), (0.95, 0.99, 1.0), (1, 3))
    worst_ghz = validation.ghz_prep_deviation((0.01, 0.05, 0.1))
    ok = worst_dec <= 1e-10 and worst_ghz <= 1e-12
    report(4, ok,
           f"decode closed form vs circuit <= {worst_dec:.1e} (1e-10), "
           f"GHZ prep closed form vs circuit <= {worst_ghz:.1e} (1e-12)")
    assert ok


def test_c5_decoding_map_properties(decoding_map_deviations):
    ideal, dephased, mixed, _ = decoding_map_deviations
    worst = max(ideal, dephased, mixed)
    ok = worst <= 1e-12
    report(5, ok, f"decoding-map properties hold to {worst:.1e} (1e-12)")
    assert ok


def test_c6_waiting_time_monte_carlo(monte_carlo_z):
    rng = np.random.default_rng(42)
    trials = 10**6
    start = time.time()
    details = []
    ok = True
    for num_pairs, p0 in ((3, 0.37), (6, 0.37), (12, 0.2)):
        sigmas = monte_carlo_z(num_pairs, p0, trials, rng)
        details.append(f"({num_pairs},{p0}): {sigmas:.2f} sigma")
        ok = ok and sigmas <= 3.0
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    report(6, ok, f"z_n vs Monte Carlo {', '.join(details)}; {elapsed:.1f} s (< 30 s)")
    assert ok


def test_c7_first_order_fidelity():
    worst = validation.first_order_fidelity((1e-3, 3e-3, 1e-2), (0.98, 0.99, 1.0))
    ok = worst >= 0.99
    report(7, ok, f"Uhlmann fidelity of first-order decode >= {worst:.6f} (0.99)")
    assert ok


def test_c8_cost_behavior():
    distances = list(range(500, 5001, 500))
    costs = []
    l0s = []
    for distance in distances:
        rep = rates.cost_coefficient(float(distance), 1 - 0.9999, 0.99995)
        costs.append(rep.cost)
        l0s.append(rep.l0_km)
    band_ok = all(30.0 <= l0 <= 120.0 for l0 in l0s)
    monotone_ok = all(b >= a for a, b in zip(costs, costs[1:]))
    finite_ok = all(np.isfinite(c) and c > 0 for c in costs)
    ok = band_ok and monotone_ok and finite_ok
    report(8, ok,
           f"optimal L0 in [{min(l0s):.1f}, {max(l0s):.1f}] km (30-120), "
           f"cost monotone in L: {monotone_ok}")
    assert ok


def test_c9_sanity_identities():
    ok = True
    for nesting in (1, 2, 3, 6, 10):
        rep = rates.key_rate(200.0, 0.0, 1.0, nesting)
        ok = ok and abs(rep.p_s - 1.0) <= 1e-12
        ok = ok and abs(rep.secret_fraction - 1.0) <= 1e-12
        ok = ok and abs(rep.key_rate - rep.rate_pairs_per_s / 6) <= 1e-12 * rep.rate_pairs_per_s

    # brute-force root of the symmetric six-state formula
    def h(p):
        return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)

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
    root_ok = abs(q_star - 0.1262) <= 5e-4
    package_ok = abs(rates.secret_fraction_six_state(q_star, q_star, q_star)) < 1e-3
    ok = ok and root_ok and package_ok
    report(9, ok,
           f"ideal-chain identities hold; symmetric six-state zero at "
           f"Q = {q_star:.5f} (0.1262+-0.0005)")
    assert ok
