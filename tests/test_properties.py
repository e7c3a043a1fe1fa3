"""Physical invariants of the rate pipeline over random parameters.

Every property draws from beta in [0, 0.02], F0 in [0.9, 1], L in [1, 2000]
km and N in 1..10.  The runs are derandomized, so the suite draws the same
examples every time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repeater_keyrate.decode import final_state
from repeater_keyrate.qstate import bell_diag_coeffs
from repeater_keyrate.rates import (
    MEMORIES_PER_HALF_NODE,
    RepeaterParams,
    key_rate,
    transmission_prob,
    z_n,
)

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
@given(betas, fidelities, distances, nestings)
def test_key_rate_is_the_clamped_secret_share_of_the_pair_rate(beta, f0, distance, nesting):
    report = key_rate(RepeaterParams(beta=beta, f0=f0, distance_km=distance, nesting=nesting))
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
