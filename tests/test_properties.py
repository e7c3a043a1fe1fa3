"""Physical invariants of the rate pipeline over random parameters.

Unless it says otherwise, a property draws from beta in [0, 0.02], F0 in
[0.9, 1], L in [1, 2000] km and N in 1..10.  The runs are derandomized, so
the suite draws the same examples every time.  Two guards at the end check
that the rate and threshold paths stay on the closed forms.
"""

import contextlib
import io
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeater_keyrate import cli, closedform, encgen, frames, rates
from repeater_keyrate.closedform import (
    DECODE_GATE_COUNT,
    ChainState,
    chain_success_prob,
    first_order_weights,
)
from repeater_keyrate.decode import (
    decode_circuit,
    decode_one_faulty,
    final_state,
)
from repeater_keyrate.encswap import swapped_state_nonideal
from repeater_keyrate.qstate import DensityOperator, bell_diag_coeffs
from repeater_keyrate.rates import (
    DEFAULT_ALPHA_DB_PER_KM,
    DEFAULT_SPEED_KM_PER_S,
    KEYLESS_MARGIN,
    KEYLESS_P_R,
    MEMORIES_PER_HALF_NODE,
    _levels_by_bound,
    _Point,
    _shared_chain,
    binary_entropy,
    cost_coefficient,
    error_rates,
    key_rate,
    min_cost_over_nesting,
    optimize_over_stations,
    secret_fraction_six_state,
    surface_key_rates,
    threshold_fidelity,
    threshold_gate_quality,
    transmission_prob,
    z_n,
)
from repeater_keyrate.validation import swap_closed_form_deviation

deterministic = settings(derandomize=True, deadline=None, max_examples=50, database=None)

betas = st.floats(0.0, 0.02)
fidelities = st.floats(0.9, 1.0)
distances = st.floats(1.0, 2000.0)
nestings = st.integers(1, 10)


@deterministic
@given(betas, fidelities, nestings)
def test_final_state_is_a_bell_diagonal_density_matrix(beta, f0, nesting):
    # the tolerances of `repeater-keyrate validate`
    rho = final_state(beta, f0, 2**nesting - 1)
    assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-9
    assert bell_diag_coeffs(rho).remainder_norm <= 1e-10


@deterministic
@given(st.floats(0.0, 1.0), st.integers(1, 2**20 - 1), st.floats(0.0, 1.0))
def test_decoded_bell_coefficients_are_nonnegative(beta, r, p_r):
    # over the whole parameter range, up to the CLI's largest chain
    perfect, faulty = ChainState(beta).decode_coeffs(r, p_r)
    assert min(perfect) >= 0.0
    assert min(faulty) >= 0.0


@deterministic
@given(betas, fidelities, distances, nestings)
def test_key_rate_is_the_clamped_secret_share_of_the_pair_rate(beta, f0, distance, nesting):
    report = key_rate(distance, beta, f0, nesting)
    rate = report.rate_pairs_per_s
    assert 0.0 <= report.key_rate <= rate / MEMORIES_PER_HALF_NODE
    assert report.key_rate == rate * max(report.secret_fraction, 0.0) / MEMORIES_PER_HALF_NODE


@deterministic
@given(distances, nestings)
def test_waiting_rounds_lie_between_one_and_all_pairs_in_series(distance, nesting):
    p0 = transmission_prob(distance / 2**nesting)
    num_pairs = 3 * 2**nesting
    z = z_n(num_pairs, p0)
    assert 1.0 / p0 <= z <= num_pairs / p0
    assert z_n(num_pairs + 1, p0) >= z


@settings(deterministic, max_examples=300)
@given(st.one_of(st.floats(5e-324, 1.0), st.floats(-745.0, 0.0).map(math.exp)))
@example(5e-324)
@example(math.nextafter(1.0, 0.0))
def test_two_and_three_pair_waits_keep_the_scan_bound(p0):
    # N = 0 prunes its one level by Z_3 >= max(1, 1/P0, H_n / x) (README decision 18);
    # the nestings above start at N = 1, n = 6
    x = -math.log1p(-p0) if p0 < 1.0 else math.inf
    z = {n: z_n(n, p0) for n in (2, 3, 4)}
    for n in (2, 3):
        assert max(1.0, 1.0 / p0, rates._harmonic(n) / x) / (1.0 + 1e-9) <= z[n] <= n / p0
    assert z[2] <= z[3] <= z[4]


@deterministic
@given(betas, fidelities)
def test_closed_form_swap_success_equals_the_dense_pair(beta, f0):
    # both chain conventions: all 64 and the 32 phase-trivial states
    assert swap_closed_form_deviation([beta], [f0]) <= 1e-14


@deterministic
@given(st.fractions(0, 1, max_denominator=10**6), st.fractions(0, 1, max_denominator=10**6))
def test_frame_weights_are_a_distribution_in_exact_rationals(beta, f0):
    # over the whole unit square, corners included
    weights = frames.frame_weights(beta, f0)
    assert all(isinstance(w, Fraction) for w in weights)
    assert min(weights) >= 0
    assert sum(weights) == 1


@deterministic
@given(betas, fidelities, nestings)
def test_rate_path_qbers_equal_the_decoding_circuits(beta, f0, nesting):
    report = key_rate(100.0, beta, f0, nesting)
    swapped = swapped_state_nonideal(beta, f0, 2**nesting - 1)
    w_perfect, w_branch, w_rest = first_order_weights(DECODE_GATE_COUNT, beta)
    mat = (
        w_perfect * decode_circuit(swapped).matrix
        + DECODE_GATE_COUNT * w_branch * decode_one_faulty(swapped).matrix
        + w_rest * np.eye(4) / 4.0
    )
    expected = error_rates(bell_diag_coeffs(DensityOperator(mat)))
    assert np.abs(np.subtract((report.e_x, report.e_y, report.e_z), expected)).max() <= 1e-12


@deterministic
@given(betas, fidelities, fidelities, distances, nestings)
def test_key_rate_does_not_decrease_in_source_fidelity(beta, f_a, f_b, distance, nesting):
    low, high = sorted((f_a, f_b))
    rates_k = [
        key_rate(distance, beta, f0, nesting).key_rate
        for f0 in (low, high)
    ]
    assert rates_k[1] >= rates_k[0]


@deterministic
@given(betas, betas, fidelities, distances, nestings)
def test_key_rate_does_not_decrease_in_gate_quality(beta_a, beta_b, f0, distance, nesting):
    # a larger gate quality p_G is a smaller beta
    worse, better = sorted((beta_a, beta_b), reverse=True)
    rates_k = [
        key_rate(distance, beta, f0, nesting).key_rate
        for beta in (worse, better)
    ]
    assert rates_k[1] >= rates_k[0]


@deterministic
@given(
    betas, st.floats(0.0, 1.0), st.floats(1.0, 1e5), st.integers(0, 10),
    st.sampled_from(["physical", "normalized"]),
)
# subnormal P0: ~3e-315, where 1/P0 overflows, and 5e-324, the smallest float
@example(0.01, 0.9, 37000.0, 1, "physical")
@example(0.01, 0.9, 19020.0, 0, "normalized")
def test_key_rate_bound_holds_at_every_level(beta, f0, distance, nesting, t0_mode):
    # the bound that lets optimize_over_stations skip a level (README decision 18)
    fiber = (DEFAULT_ALPHA_DB_PER_KM, DEFAULT_SPEED_KM_PER_S, t0_mode)
    [(bound, _)] = _levels_by_bound(distance, (nesting,), *fiber)
    report = key_rate(distance, beta, f0, nesting, t0_mode=t0_mode)
    assert bound >= report.key_rate
    assert (bound > 0.0) == (report.p0 > 0.0)


@deterministic
@given(betas, st.floats(0.0, 1.0), st.floats(1.0, 1e5), st.sets(st.integers(0, 10), min_size=1))
def test_nesting_scan_equals_key_rate_at_every_level(beta, f0, distance, levels):
    # past ~8000 km the shallow levels' P0 underflows to 0; N = 0 is the dense path
    def per_level(t0_mode):
        return {
            n: key_rate(distance, beta, f0, n, t0_mode=t0_mode)
            for n in sorted(levels)
        }

    reports = per_level("physical")
    n_star = max(reports, key=lambda n: (reports[n].key_rate, reports[n].p0 > 0.0))
    assert optimize_over_stations(distance, beta, f0, levels) == (n_star, reports[n_star])

    reports = per_level("normalized")
    cost, n_cost = min_cost_over_nesting([(n, rep.key_rate) for n, rep in reports.items()])
    report = cost_coefficient(distance, beta, f0, n_range=levels)
    assert (report.nesting, report.key_rate, report.cost) == (
        n_cost, reports[n_cost].key_rate, cost
    )


@deterministic
@given(distances, fidelities, betas.map(lambda beta: 1.0 - beta))
def test_cli_optimum_prints_as_its_fixed_level(distance, f0, p_g):
    # keyrate --optimize and keyrate --nesting N_opt print the same bytes
    def keyrate(*how):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["keyrate", "--distance", repr(distance), "--fidelity", repr(f0),
                             "--gate-quality", repr(p_g), *how])
        assert code == 0
        return out.getvalue()

    optimized = keyrate("--optimize")
    n_opt = optimized.split("\nN=", 1)[1].split("\n", 1)[0]
    assert keyrate("--nesting", n_opt) == optimized


@deterministic
@given(betas, st.floats(0.0, 1.0), st.integers(1, 20))
def test_keyless_gate_is_sound(beta, f0, nesting):
    # below KEYLESS_P_R every Bell coefficient is <= 1/2, so r_inf <= 0 (README decision 22)
    assert Fraction(KEYLESS_P_R) < Fraction(31, 94)
    point, r = _Point(beta, f0), 2**nesting - 1
    p_r = chain_success_prob(point.p_s, r)
    if p_r < KEYLESS_P_R:
        perfect, faulty = point.chain.decode_coeffs(r, p_r)
        assert max(*perfect, *faulty, *point.chain.mix(perfect, faulty)) <= 0.5
        assert point.decoded(r)[2] <= 0.0


@deterministic
@given(betas, st.integers(1, 2**20 - 1), st.floats(KEYLESS_P_R, 1.0), st.floats(KEYLESS_P_R, 1.0))
@example(0.005, 1, KEYLESS_P_R, 0.7395601118298879)  # r_inf(P1) = -0.09
@example(0.005, 1, 0.5, 0.7726252078738193)  # r_inf(P1) = -2e-6
def test_a_keyless_decode_rules_out_every_lower_chain_success(beta, r, p_a, p_b):
    # at fixed (beta, r) r_inf is convex in P_r and below -1.7e-4 at KEYLESS_P_R, so a
    # float r_inf <= -KEYLESS_MARGIN at P1 leaves no key anywhere in [KEYLESS_P_R, P1]
    chain = ChainState(beta)
    p_r, p1 = sorted((p_a, p_b))
    assert secret_fraction_six_state(*chain.qbers(r, KEYLESS_P_R)) < -1.7e-4
    if -math.inf < secret_fraction_six_state(*chain.qbers(r, p1)) <= -KEYLESS_MARGIN:
        assert secret_fraction_six_state(*chain.qbers(r, p_r)) <= 0.0


unit = st.floats(0.0, 1.0)


@deterministic
@given(unit, unit, st.integers(0, 20))
@example(0.0, 0.0, 0)
@example(-0.0, 1.0, 0)
@example(-0.0, 0.99, 3)
@example(1.0, 1.0, 20)
@example(1.0, 0.0, 1)
def test_lean_level_path_equals_the_reference_path(beta, f0, nesting):
    # the scan's gate and QBER kernel against chain_success_prob and a
    # fresh ChainState's mixture, bit for bit
    point, r = _Point(beta, f0), 2**nesting - 1
    fiber = (0.17, 2e5, "physical")
    _, _, decoded = point.best(100.0, _levels_by_bound(100.0, (nesting,), *fiber), fiber)
    if nesting == 0:
        stored = closedform.pair_decode_closed_form(beta, f0)
        expected = error_rates(ChainState(beta).mix(*stored))
        assert decoded is not None and decoded == point.decoded(0)
    else:
        p_r = chain_success_prob(point.p_s, r)
        chain = ChainState(beta)
        expected = error_rates(chain.mix(*chain.decode_coeffs(r, p_r)))
        assert point._capped_p_s**r == p_r
        assert (decoded is None) == (p_r < KEYLESS_P_R)
        assert decoded is None or decoded[0] == p_r
        assert decoded is None or decoded == point.decoded(r)
    assert point.decoded(r)[1] == expected


@deterministic
@given(unit, st.integers(1, 2**20 - 1), unit)
@example(-0.0, 1, 0.5)
@example(0.0, 3, 1.0)
@example(1.0, 7, 0.0)
def test_shared_chain_state_equals_a_fresh_one(beta, r, p_r):
    # -0.0 and 0.0 share one cache entry, so a chain of either sign must give its bits
    shared = _shared_chain(beta)
    assert _Point(beta, 0.9).chain is _Point(beta, 1.0).chain is _shared_chain(abs(beta))
    for fresh in map(ChainState, (0.0, -0.0) if beta == 0.0 else (beta,)):
        assert repr(shared.weights(r)) == repr(fresh.weights(r))
        coeffs = fresh.decode_coeffs(r, p_r)
        assert repr(shared.decode_coeffs(r, p_r)) == repr(coeffs)
        assert repr(shared.mix(*coeffs)) == repr(fresh.mix(*coeffs))


edge_betas = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), unit)


@deterministic
@given(edge_betas, st.integers(1, 2**20 - 1), unit)
@example(-0.0, 1, 1.0)
@example(1.0, 2**20 - 1, 0.0)
def test_qber_kernel_equals_the_mixture_of_the_decode_coefficients(beta, r, p_r):
    chain = ChainState(beta)
    expected = error_rates(chain.mix(*chain.decode_coeffs(r, p_r)))
    assert repr(chain.qbers(r, p_r)) == repr(expected)


def _six_state_through_every_entropy(e_x, e_y, e_z):
    """The six-state fraction with the conditional-phase entropy evaluated,
    h(1/2) included, for arguments inside [0, 1]."""
    cond_phase = 0.0
    if e_z > 0.0:
        cond_phase = e_z * binary_entropy(min(max((1.0 + (e_x - e_y) / e_z) / 2.0, 0.0), 1.0))
    if e_z >= 1.0:
        return 1.0 - cond_phase
    arg = (1.0 - (e_x + e_y + e_z) / 2.0) / (1.0 - e_z)
    if not -1e-9 <= arg <= 1.0 + 1e-9:
        return -math.inf
    no_error = (1.0 - e_z) * binary_entropy(min(max(arg, 0.0), 1.0))
    return 1.0 - cond_phase - no_error - binary_entropy(max(e_z, 0.0))


@deterministic
@given(st.floats(0.0, 0.5), st.one_of(st.sampled_from([0.0, -0.0, -1e-10, 1.0]), unit))
@example(0.25, 0.5)
def test_equal_x_and_y_errors_skip_an_entropy_of_one_half(e, e_z):
    assert binary_entropy(0.5) == 1.0
    assert repr(secret_fraction_six_state(e, e, e_z)) == repr(_six_state_through_every_entropy(e, e, e_z))


def _success_through_every_row(beta, f0, phase_trivial_only):
    """p_s as the Horner sum over all 17 Bernstein rows in beta."""
    e_scale, rows = closedform._success_rows(f0, phase_trivial_only)
    ratio, total = beta / (1.0 - beta), 0.0
    for inner in reversed(rows):
        total = total * ratio + inner
    b_scale = (1.0 - beta) ** (len(rows) - 1)
    return total * b_scale * e_scale / closedform._SUCCESS_DENOMINATOR[phase_trivial_only]


@deterministic
@given(st.sampled_from([0.0, -0.0]), st.one_of(st.sampled_from([0.0, 1.0]), unit), st.booleans())
def test_zero_beta_swap_success_sums_row_zero_to_the_same_bits(beta, f0, phase_trivial_only):
    p_s = closedform.swap_success_closed_form(beta, f0, phase_trivial_only=phase_trivial_only)
    assert repr(p_s) == repr(_success_through_every_row(beta, f0, phase_trivial_only))


# The per-level path's clamps as the builtins wrote them (first argument wins
# a tie, so -0.0 and NaN pass through); the conditional forms must agree.

def _six_state_with_builtin_clamps(e_x, e_y, e_z):
    if not (-1e-9 <= e_x <= 1.0 + 1e-9 and -1e-9 <= e_y <= 1.0 + 1e-9 and -1e-9 <= e_z <= 1.0 + 1e-9):
        for name, e in (("e_x", e_x), ("e_y", e_y), ("e_z", e_z)):
            if not -1e-9 <= e <= 1.0 + 1e-9:
                raise ValueError(f"{name} must be in [0, 1], got {e}")
    if e_z <= 0.0:
        term_cond_phase = 0.0
    elif e_x == e_y:
        term_cond_phase = e_z
    else:
        arg = (1.0 + (e_x - e_y) / e_z) / 2.0
        if arg < -1e-9 or arg > 1.0 + 1e-9:
            return float("-inf")
        term_cond_phase = e_z * binary_entropy(min(max(arg, 0.0), 1.0))
    if e_z >= 1.0:
        return 1.0 - term_cond_phase
    arg = (1.0 - (e_x + e_y + e_z) / 2.0) / (1.0 - e_z)
    if arg < -1e-9 or arg > 1.0 + 1e-9:
        return float("-inf")
    term_no_error = (1.0 - e_z) * binary_entropy(min(max(arg, 0.0), 1.0))
    return 1.0 - term_cond_phase - term_no_error - binary_entropy(max(e_z, 0.0))


def _outcome(f, *args):
    """repr of f's value, or of the error it raises."""
    try:
        return repr(f(*args))
    except ValueError as error:
        return repr(error)


qber_edges = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1e-9, 1.0 + 1e-9]), st.floats(-1e-9, 1.0 + 1e-9))


@deterministic
@given(qber_edges, qber_edges, qber_edges)
@example(-0.0, -0.0, -0.0)
@example(0.0, 0.0, 0.0)
@example(1.0, 1.0, 1.0)
@example(-1e-9, 0.0, 1.0)
@example(1.0 + 1e-9, 0.0, 0.5)
@example(0.25, 0.25, 1.0)
@example(0.1, 0.2, 1.0)
@example(0.0, 0.0, 1.0 + 1e-9)
@example(-1e-9, -1e-9, 0.5)
@example(-1e-9, -1e-9, 0.0)
@example(1.0 + 1e-9, 1.0, 0.0)
@example(0.3 + 1e-10, 0.1, 0.2)
@example(0.1, 0.3 + 1e-10, 0.2)
def test_six_state_clamps_keep_the_builtin_bits(e_x, e_y, e_z):
    assert _outcome(secret_fraction_six_state, e_x, e_y, e_z) == (
        _outcome(_six_state_with_builtin_clamps, e_x, e_y, e_z)
    )


def _capped_with_builtin_min(p_s):
    if not 0.0 <= p_s <= 1.0 + 1e-12:
        raise ValueError(f"p_s must be a probability, got {p_s}")
    return float(min(p_s, 1.0))


@deterministic
@given(st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 1.0 + 1e-12, 1.0 + 2e-12]), st.floats(-1e-9, 1.0 + 1e-11)))
@example(1.0 + 1e-12)
@example(-0.0)
def test_capped_success_keeps_the_builtin_bits(p_s):
    assert _outcome(closedform._capped_success, p_s) == _outcome(_capped_with_builtin_min, p_s)


@deterministic
@given(edge_betas, st.one_of(st.integers(1, 127), st.integers(1, 2**20 - 1)))
@example(-0.0, 1)
@example(1.0, 3)
@example(1e-300, 7)
@example(2e-9, 1)
@example(1e-15, 1)
def test_chain_weights_keep_the_builtin_bits(beta, r):
    chain = ChainState(beta)
    w_ideal = math.exp(3 * r * chain._log1m)
    w_deph = math.exp(r * chain._log_3beta + 2 * r * chain._log1m)
    q_r = 1.0 - w_ideal - w_deph
    assert repr(chain.weights(r)) == repr((w_ideal, w_deph, max(q_r, 0.0)))


@pytest.mark.parametrize("beta", [2e-9, 1e-15])
def test_chain_weights_clamp_a_negative_remainder(beta):
    # 1 - w_ideal - w_deph rounds below zero at these beta and r = 1
    chain = ChainState(beta)
    w_ideal, w_deph, q_r = chain.weights(1)
    assert 1.0 - w_ideal - w_deph < 0.0
    assert repr(q_r) == "0.0"


@deterministic
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**15, 10**15),
    st.sampled_from([-0.0, math.inf, -math.inf, 1e-300, 5e-324, 0, 1]),
), max_size=13))
@example([-0.0, math.inf, 1e-300, 3])
@example([])
def test_row_is_the_joined_field_format(values):
    assert cli._row(*values) == ",".join(f"{x:.10g}" for x in values)


@deterministic
@given(st.one_of(st.sampled_from([-math.inf, -0.0, 0.0, 1.0, math.nan]), st.floats(-1.0, 1.0)),
       st.sampled_from([(600.0, 2), (2000.0, 6), (1e5, 1)]), st.sampled_from(["physical", "normalized"]))
@example(-math.inf, (600.0, 2), "physical")
@example(-0.0, (600.0, 2), "physical")
def test_report_clamp_keeps_the_builtin_bits(fraction, link, t0_mode):
    # a K of -0.0 prints as -0 in the CSV, so the sign of a zero fraction must survive
    distance, nesting = link
    fiber = (DEFAULT_ALPHA_DB_PER_KM, DEFAULT_SPEED_KM_PER_S, t0_mode)
    report = _Point(0.001, 0.99).report(distance, nesting, fiber, (0.5, (0.1, 0.1, 0.1), fraction))
    rate = rates._link_terms(distance, nesting, *fiber)[3]
    assert repr(report.key_rate) == repr(rate * max(fraction, 0.0) / MEMORIES_PER_HALF_NODE)


# the rate path's memos but ChainState._by_r, which clearing _shared_chain drops
_RATE_PATH_CACHES = (
    rates._harmonic, rates._link_terms, closedform._success_rows, rates._shared_chain,
    rates._shared_point,
)


def _clear_rate_path_caches():
    for cache in _RATE_PATH_CACHES:
        cache.cache_clear()


def test_cached_scans_equal_cold_ones_at_every_point():
    # one process sweeps an (F0, p_G) grid at 600 km and a distance range,
    # interleaving two alphas and both T0 modes, so every cache is shared
    # across points; each point must still come out as it does with every
    # rate-path cache cleared
    fibers = [(alpha, DEFAULT_SPEED_KM_PER_S, t0_mode)
              for alpha in (DEFAULT_ALPHA_DB_PER_KM, 0.2) for t0_mode in ("physical", "normalized")]
    grid = [(600.0, 1.0 - pg, f0) for f0 in (0.99, 0.995, 1.0) for pg in (0.99, 0.995, 1.0)]
    points = [(distance, beta, f0, fiber)
              for distance, beta, f0 in grid + [(d, 0.005, 0.995) for d in (300.0, 600.0, 1200.0)]
              for fiber in fibers]

    def scan(distance, beta, f0, fiber):
        alpha, speed, t0_mode = fiber
        return repr(optimize_over_stations(distance, beta, f0, alpha_db_per_km=alpha,
                                           speed_km_per_s=speed, t0_mode=t0_mode))

    warm = [scan(*point) for point in points]
    for point, expected in zip(points, warm):
        _clear_rate_path_caches()
        assert scan(*point) == expected, point


grid_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 - 1e-12]), unit)
level_ranges = st.tuples(st.integers(0, 20), st.integers(0, 20)).map(
    lambda ends: range(min(ends), max(ends) + 1))


@settings(deterministic, max_examples=300)
@given(st.lists(st.tuples(grid_values, grid_values), max_size=6), st.floats(1e-3, 1e5),
       level_ranges, st.sampled_from(["physical", "normalized"]))
# the ideal corner with both zeros; P0 = 0 at N = 0...2 of 1e5 km, and 0 at N = 0
# and subnormal at N = 1 of 37000 km
@example([(0.0, 1.0), (-0.0, 1.0), (1.0, 0.0)], 600.0, range(0, 11), "physical")
@example([(0.05, 0.9), (0.0, 1.0)], 1e5, range(0, 21), "normalized")
@example([(0.1, 0.9), (0.0, 1.0 - 1e-12)], 37000.0, range(0, 3), "physical")
@example([], 600.0, range(1, 11), "physical")
# each in both orders, as the keyless bounds of one point serve the points after it:
# N = 0 keyless at F0 = 0.8 and keyed at 0.99, where N = 0 must store no bound;
# at r = 1 keyless at F0 = 0.958471 (P_r = 0.7705, r_inf = -0.006) and keyed at
# 0.959538 (P_r = 0.7745, r_inf = 0.005);
# and no key at any level for F0 = p_G = 0.9
@example([(0.01, 0.8), (0.01, 0.99)], 50.0, range(0, 1), "physical")
@example([(0.01, 0.99), (0.01, 0.8)], 50.0, range(0, 1), "physical")
@example([(0.005, 0.958471), (0.005, 0.959538)], 600.0, range(1, 2), "physical")
@example([(0.005, 0.959538), (0.005, 0.958471)], 600.0, range(1, 2), "physical")
@example([(1.0 - 0.9, 0.9), (1.0 - 0.9, 0.95)], 600.0, range(1, 11), "physical")
@example([(1.0 - 0.9, 0.95), (1.0 - 0.9, 0.9)], 600.0, range(1, 11), "physical")
def test_surface_batch_equals_the_scan_at_every_point(points, distance, levels, t0_mode):
    # a surface grid builds no report, and its K is the scan's report's K to the last
    # bit: with every memo cleared, and with the memos that the scans filled
    fiber = {"alpha_db_per_km": DEFAULT_ALPHA_DB_PER_KM,
             "speed_km_per_s": DEFAULT_SPEED_KM_PER_S, "t0_mode": t0_mode}

    def scans():
        return repr([(n, report.key_rate) for n, report in (
            optimize_over_stations(distance, beta, f0, levels, **fiber) for beta, f0 in points)])

    _clear_rate_path_caches()
    batch = repr(surface_key_rates(distance, points, levels, **fiber))
    _clear_rate_path_caches()
    expected = scans()
    assert batch == expected
    assert repr(surface_key_rates(distance, points, levels, **fiber)) == expected
    assert scans() == expected


def _optimized(distance, beta, f0):
    n_best, report = optimize_over_stations(distance, beta, f0)
    return (n_best, *report)


# each entry point that takes (distance, beta, F0) from the caller, as a flat record
_RATE_ENTRY_POINTS = {
    **{f"key_rate N={n}": lambda distance, beta, f0, n=n: key_rate(distance, beta, f0, n)
       for n in (0, 1, 3)},
    "optimize_over_stations": _optimized,
    "cost_coefficient": cost_coefficient,
}


def _typed_fields(record):
    return [(type(x), repr(x)) for x in record]


def test_cached_link_terms_keep_each_callers_types():
    # numpy arguments equal to float ones must not hand their float64s to the float caller
    rates._link_terms.cache_clear()
    assert type(key_rate(np.float64(600.0), 0.0, 1.0, 2).l0_km) is np.float64
    assert type(key_rate(600.0, 0.0, 1.0, 2).l0_km) is float
    numpy_speed = key_rate(600.0, 0.0, 1.0, 2, speed_km_per_s=np.float64(DEFAULT_SPEED_KM_PER_S))
    assert type(numpy_speed.rate_pairs_per_s) is np.float64
    assert type(key_rate(600.0, 0.0, 1.0, 2).rate_pairs_per_s) is float
    # nor through the point, p_s's rows or the chain state: after a numpy call, an
    # equal float call reports what it reports with every rate-path cache cleared
    for name, entry in _RATE_ENTRY_POINTS.items():
        _clear_rate_path_caches()
        cold = _typed_fields(entry(600.0, 0.002, 0.995))
        _clear_rate_path_caches()
        entry(np.float64(600.0), np.float64(0.002), np.float64(0.995))
        assert _typed_fields(entry(600.0, 0.002, 0.995)) == cold, name
    # -0.0 and 0.0 share each memo's entry; either order gives each its cold report
    for name, entry in _RATE_ENTRY_POINTS.items():
        for f0 in (0.99, 1.0):
            cold = []  # by index: a dict would take -0.0 and 0.0 for one key
            for beta in (0.0, -0.0):
                _clear_rate_path_caches()
                cold.append(repr(entry(600.0, beta, f0)))
            for order in ((0, 1), (1, 0)):
                _clear_rate_path_caches()
                assert [repr(entry(600.0, (0.0, -0.0)[i], f0)) for i in order] == [
                    cold[i] for i in order], (name, f0, order)


def _patch_every_binding(monkeypatch, original, replacement):
    """Point every package-module global bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repeater_keyrate"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_rate_and_threshold_paths_build_no_encoded_pair(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the rate path built a dense encoded pair")

    _patch_every_binding(monkeypatch, encgen.encoded_pair, forbidden)
    rates._shared_point.cache_clear()
    assert key_rate(300.0, 0.004, 0.985, 3).p_s < 1.0
    assert optimize_over_stations(300.0, 0.004, 0.985)[1].key_rate > 0.0
    assert 0.95 < threshold_gate_quality(1) < 1.0
    assert 0.9 < threshold_fidelity(1) < 1.0
    with pytest.raises(AssertionError):
        encgen.encoded_pair(0.0, 1.0)


def test_one_chain_success_evaluation_per_key_rate(monkeypatch):
    calls = []
    original = closedform.chain_success_prob

    def counted(*args):
        calls.append(args)
        return original(*args)

    _patch_every_binding(monkeypatch, original, counted)
    report = key_rate(400.0, 0.005, 0.98, 2)
    assert calls == [(report.p_s, 3)]


@pytest.mark.parametrize("scan", [optimize_over_stations, cost_coefficient])
def test_one_swap_success_evaluation_per_point(monkeypatch, scan):
    # a distance range at one (beta, F0), as sweep --distance-range and cost run it,
    # takes p_s from the point memo: one evaluation, not one per distance
    calls = []
    original = rates.swap_success_closed_form

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rates, "swap_success_closed_form", counted)
    rates._shared_point.cache_clear()
    for distance in (200.0, 500.0, 800.0, 1100.0, 1400.0, 1700.0, 2000.0):
        scan(distance, 1.0 - 0.9999, 0.9999)
    assert calls == [(1.0 - 0.9999, 0.9999)]


def test_keyless_levels_do_no_entropy_or_waiting_time_work(monkeypatch):
    # at 600 km, beta = 0.01, F0 = 0.99 the levels N >= 3 have P_r below the
    # gate, and N = 2 passes it (P_r = 0.61) but decodes to r_inf = -0.49
    beta, f0, levels = 0.01, 0.99, range(1, 11)
    point = _Point(beta, f0)
    keyless = [n for n in levels if chain_success_prob(point.p_s, 2**n - 1) < KEYLESS_P_R]
    assert keyless == list(range(3, 11))
    assert point.decoded(3)[0] > KEYLESS_P_R and point.decoded(3)[2] < 0.0
    keyless_qbers = {point.decoded(2**n - 1)[1] for n in keyless}
    fractions, waits = [], []

    def recorded(calls, original):
        def wrapper(*args):
            calls.append(args)
            return original(*args)

        return wrapper

    _patch_every_binding(monkeypatch, secret_fraction_six_state,
                         recorded(fractions, secret_fraction_six_state))
    _patch_every_binding(monkeypatch, z_n, recorded(waits, z_n))
    for scan in (
        lambda: optimize_over_stations(600.0, beta, f0, levels),
        lambda: cost_coefficient(600.0, beta, f0, n_range=levels),
    ):
        fractions.clear()
        waits.clear()
        rates._link_terms.cache_clear()
        scan()
        assert fractions and waits
        assert not keyless_qbers & set(fractions)
        assert not {3 * 2**n for n in keyless} & {num_pairs for num_pairs, _ in waits}
        assert 12 not in {num_pairs for num_pairs, _ in waits}


def test_a_point_without_a_key_decodes_its_winner_once(monkeypatch):
    # at 600 km, beta = 0.02, F0 = 0.97 only N = 1 passes the gate, and it decodes to
    # r_inf = -0.33: the keyless winner's report takes the scan's decode
    calls = []
    original = secret_fraction_six_state

    def counted(*qbers):
        calls.append(qbers)
        return original(*qbers)

    _clear_rate_path_caches()
    _patch_every_binding(monkeypatch, original, counted)
    n, report = optimize_over_stations(600.0, 0.02, 0.97, range(1, 11))
    assert (n, report.key_rate) == (1, 0.0) and report.secret_fraction < 0.0
    assert calls == [(report.e_x, report.e_y, report.e_z)]


def test_keyless_decodes_rule_out_the_grid_points_after_them(monkeypatch):
    # the benchmark's surface grid: 600 km, F0 and p_G over 0.99:1:0.001, N = 1...10.
    # Of its 1128 levels past UB, 360 pass the gate; one keyless decode per (beta, r)
    # rules out the points of lower p_s, so 157 are decoded
    axis = cli._UNIT_RANGE("0.99:1:0.001")
    points = [(1.0 - pg, f0) for f0 in axis for pg in axis]
    fiber = {"alpha_db_per_km": DEFAULT_ALPHA_DB_PER_KM,
             "speed_km_per_s": DEFAULT_SPEED_KM_PER_S, "t0_mode": "physical"}
    calls = []
    original = secret_fraction_six_state

    def counted(*qbers):
        calls.append(qbers)
        return original(*qbers)

    _clear_rate_path_caches()
    _patch_every_binding(monkeypatch, original, counted)
    surface_key_rates(600.0, points, range(1, 11), **fiber)
    assert len(calls) <= 160
