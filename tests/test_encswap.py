from fractions import Fraction

import numpy as np
import pytest

from repeater_keyrate.encgen import encoded_bell_state, encoded_pair
from repeater_keyrate.encswap import (
    ErrorPair,
    PauliCombo,
    chain_success_prob,
    correctable_states,
    enumerate_combos,
    rho_s,
    rho_s_weights,
    swap_success_prob,
    swapped_state_nonideal,
)
from repeater_keyrate.qstate import DensityOperator, overlap
from repeater_keyrate.validation import swap_register_deviation


class TestEnumeration:
    def test_counts(self):
        counts = enumerate_combos()
        assert counts.raw_count == 216
        assert counts.admissible_count == 160
        assert counts.paper_permutation_count == 960
        assert len(counts.admissible) == 160

    def test_double_flip_combo_excluded(self):
        combo = PauliCombo((ErrorPair("IX"), ErrorPair("IX"), ErrorPair("II")))
        assert not combo.is_admissible
        assert combo.labels() not in {c.labels() for c in enumerate_combos().admissible}

    def test_single_flip_allowed(self):
        assert PauliCombo((ErrorPair("IX"), ErrorPair("ZZ"), ErrorPair("II"))).is_admissible

    def test_admissible_count_formula(self):
        # 4^3 pure non-flip choices plus 3 positions x 2 flips x 4^2 others
        assert 4**3 + 3 * 2 * 4**2 == 160

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            ErrorPair("XY")


class TestCorrectableStates:
    def test_cardinality(self):
        assert len(correctable_states()) == 64

    def test_pairwise_orthogonality(self):
        states = correctable_states()
        gram = (states.left.conj() @ states.left.T) * (states.right.conj() @ states.right.T)
        assert np.abs(gram - np.eye(64)).max() < 1e-9

    def test_contains_identity_state(self):
        states = correctable_states()
        phi = encoded_bell_state().vector
        ovs = np.abs(states.left @ phi.conj()) * np.abs(states.right @ phi.conj())
        assert np.isclose(ovs.max(), 1.0)

    def test_xx_combo_state_differs_from_identity(self):
        # whether (XX, II, II) collapses onto the identity-error state is
        # decided numerically: the X pair is not stabilizer equivalent here
        from repeater_keyrate.encswap import _apply_pauli_vec

        phi = encoded_bell_state().vector
        left_xx = _apply_pauli_vec(phi, "X", 3, 6)
        right_xx = _apply_pauli_vec(phi, "X", 0, 6)
        inner = np.vdot(left_xx, phi) * np.vdot(right_xx, phi)
        assert abs(abs(inner) - 1.0) > 0.5  # distinct states
        assert abs(inner) < 1e-12  # in fact orthogonal

    def test_half_of_states_are_phase_trivial(self):
        states = correctable_states()
        assert int(states.phase_trivial.sum()) == 32

    def test_two_term_form_matches_dense_factors(self):
        from repeater_keyrate.encswap import _correctable_terms

        rng = np.random.default_rng(3)
        g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        states = correctable_states()
        for vecs, terms in zip((states.left, states.right), _correctable_terms()):
            dense = np.einsum("id,de,ie->i", vecs.conj(), rho, vecs).real
            assert np.abs(terms.expectations(rho) - dense).max() < 1e-14

    def test_full_vector_factorization(self):
        states = correctable_states()
        vec = states.full_vector(5)
        assert vec.shape == (4096,)
        assert np.linalg.norm(vec) == pytest.approx(1.0)


class TestSwapSuccess:
    def test_ideal_pair_gives_unity(self):
        assert swap_success_prob(encoded_pair(0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
        assert swap_success_prob(
            encoded_pair(0.0, 1.0), phase_trivial_only=True
        ) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_pair_is_exact(self):
        assert swap_success_prob(encoded_pair(0.0, 1.0)) == 1.0
        assert swap_success_prob(encoded_pair(0.0, 1.0), phase_trivial_only=True) == 1.0

    def test_monotone_in_beta(self):
        values = [swap_success_prob(encoded_pair(b, 1.0)) for b in (0.0, 0.005, 0.01)]
        assert values[0] >= values[1] >= values[2]

    def test_factorized_matches_direct_tensor_evaluation(self):
        assert swap_register_deviation(0.01, 0.99) <= 1e-10

    def test_restricted_sum_is_smaller(self):
        pair = encoded_pair(0.0, 0.95)
        full = swap_success_prob(pair)
        restricted = swap_success_prob(pair, phase_trivial_only=True)
        assert restricted < full

    def test_requires_64_dim(self):
        with pytest.raises(ValueError):
            swap_success_prob(DensityOperator(np.eye(4) / 4))


class TestChainSuccess:
    def test_single_station(self):
        assert chain_success_prob(0.87, 1) == pytest.approx(0.87)

    def test_perfect_swapping(self):
        for r in (1, 5, 127):
            assert chain_success_prob(1.0, r) == 1.0

    def test_seven_stations(self):
        expected = float(Fraction(99, 100) ** 7)
        assert chain_success_prob(0.99, 7) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.9321, abs=5e-5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chain_success_prob(0.9, 0)
        with pytest.raises(ValueError):
            chain_success_prob(1.4, 2)


class TestSwappedStates:
    def test_rho_s_perfect_gates(self):
        out = rho_s(0.0, 3)
        expected = encoded_bell_state().projector().matrix
        assert np.abs(out.matrix - expected).max() < 1e-14

    def test_rho_s_single_station_weights(self):
        beta = 0.02
        w_ideal, w_deph, q = rho_s_weights(beta, 1)
        assert w_ideal == pytest.approx((1 - beta) ** 3)
        assert w_deph == pytest.approx(3 * beta * (1 - beta) ** 2)
        assert q == pytest.approx(1 - (1 - beta) ** 3 - 3 * beta * (1 - beta) ** 2)

    def test_rho_s_two_station_middle_weight(self):
        _, w_deph, _ = rho_s_weights(0.01, 2)
        expected = float(9 * Fraction(1, 100) ** 2 * Fraction(99, 100) ** 4)
        assert w_deph == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(8.64536409e-4, abs=1e-12)

    def test_rho_s_large_r_underflows_cleanly(self):
        w_ideal, w_deph, q = rho_s_weights(0.003, 127)
        assert 0.0 <= w_deph < 1e-200
        assert w_ideal == pytest.approx(np.exp(3 * 127 * np.log1p(-0.003)))
        assert q == pytest.approx(1.0 - w_ideal, abs=1e-12)

    def test_rho_s_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rho_s(0.01, 0)
        with pytest.raises(ValueError):
            rho_s(1.5, 1)

    def test_nonideal_perfect_limit(self):
        out = swapped_state_nonideal(0.0, 1.0, 1)
        expected = encoded_bell_state().projector().matrix
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_nonideal_trace_one(self):
        out = swapped_state_nonideal(0.005, 0.98, 3)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10

    def test_nonideal_overlap_decreasing_in_r(self):
        target = encoded_bell_state()
        values = [
            overlap(swapped_state_nonideal(0.005, 0.99, r), target) for r in (1, 2, 3, 5)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
