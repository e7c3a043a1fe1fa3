from fractions import Fraction

import numpy as np
import pytest

from repeater_keyrate.encgen import (
    ENCODING_GATES,
    ENCODING_MEASUREMENTS,
    _apply_measurement_rules,
    encoded_pair,
    encoded_pair_direct,
    ghz_prep,
    ghz_prep_circuit,
)
from repeater_keyrate.channels import source_state_mat
from repeater_keyrate.frames import frame_weights
from repeater_keyrate.qstate import _cnot_permutation, frame_state, frame_weights_of
from repeater_keyrate.rates import key_rate
from repeater_keyrate.validation import (
    encoded_pair_register_deviation,
    measured_mixed_register_deviation,
)


class TestGhzPrep:
    def test_perfect_preparation(self):
        expected = frame_state(np.eye(8)[0])
        assert np.abs(ghz_prep(0.0).matrix - expected).max() < 1e-15

    def test_closed_form_entries_at_beta_01(self):
        mat = ghz_prep(0.1).matrix
        assert mat[0, 0] == pytest.approx(0.44)
        assert mat[7, 7] == pytest.approx(0.44)
        assert mat[0, 7] == pytest.approx(0.405)
        assert mat[0b101, 0b101] == pytest.approx(0.035)
        assert mat[0b010, 0b010] == pytest.approx(0.035)
        for idx in (0b001, 0b110, 0b100, 0b011):
            assert mat[idx, idx] == pytest.approx(0.0125)
        assert np.trace(mat).real == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [0.01, 0.05, 0.1])
    def test_matches_circuit_simulation(self, beta):
        dev = np.abs(ghz_prep(beta).matrix - ghz_prep_circuit(beta).matrix).max()
        assert dev < 1e-12

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            ghz_prep(-0.2)


class TestTeleportedCnotSequence:
    def test_six_gates(self):
        assert len(ENCODING_GATES) == 6

    def test_six_measurements(self):
        assert len(ENCODING_MEASUREMENTS) == 6
        bases = sorted(basis for _, basis, _ in ENCODING_MEASUREMENTS)
        assert bases == ["x", "x", "x", "z", "z", "z"]

    def test_gates_act_on_disjoint_pairs(self):
        used = [q for g in ENCODING_GATES for q in g]
        assert sorted(used) == list(range(12))

    def test_perfect_run_produces_encoded_bell_state(self):
        # pure-state propagation of the whole circuit with ideal resources
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        ghz3 = (np.eye(8)[0] + np.eye(8)[7]) / np.sqrt(2)
        vec = np.kron(ghz3, np.eye(8)[0])
        for _ in range(3):
            vec = np.kron(vec, phi)
        for g in ENCODING_GATES:
            vec = vec[_cnot_permutation(12, *g)]
        rho = np.outer(vec, vec.conj())
        out = _apply_measurement_rules(rho)
        expected = frame_state(np.eye(64)[0])
        assert np.abs(out - expected).max() < 1e-14


class TestPauliFrames:
    def test_ideal_corner_is_one_hot(self):
        assert frame_weights(0.0, 1.0) == (1.0,) + (0.0,) * 63
        exact = frame_weights(Fraction(0), Fraction(1))
        assert exact == (1,) + (0,) * 63
        assert all(isinstance(w, Fraction) for w in exact)

    def test_ideal_corner_without_swap_gives_an_exact_key(self):
        report = key_rate(100.0, 0.0, 1.0, 0)
        assert (report.e_x, report.e_y, report.e_z) == (0.0, 0.0, 0.0)
        assert report.secret_fraction == 1.0


class TestEncodedPair:
    def test_ideal_pipeline_is_exact(self):
        pair = encoded_pair(0.0, 1.0)
        # |Phi6><Phi6| written out: exactly 1/2 on the four corners
        expected = np.zeros((64, 64))
        expected[np.ix_([0, 63], [0, 63])] = 0.5
        assert np.abs(pair.matrix - expected).max() < 1e-14
        assert np.array_equal(pair.matrix, expected)

    def test_source_noise_only_bounds(self):
        # <Phi6|rho|Phi6>, rho's weight on the ideal pair, is the expectation of frame 0
        ov = frame_weights_of(encoded_pair(0.0, 0.98).matrix)[0]
        assert 0.9 < ov < 1.0

    def test_overlap_monotone_in_beta(self):
        values = [frame_weights_of(encoded_pair(b, 1.0).matrix)[0] for b in (0.0, 0.01, 0.02)]
        assert values[0] >= values[1] >= values[2]

    def test_trace_and_positivity(self):
        for beta, f0 in ((0.0, 1.0), (0.01, 0.99), (0.05, 0.9)):
            mat = encoded_pair(beta, f0).matrix
            assert abs(np.trace(mat).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(mat)[0] > -1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            encoded_pair(1.5, 1.0)
        with pytest.raises(ValueError):
            encoded_pair(0.0, -0.1)

    def test_factorized_equals_direct_register_simulation(self):
        assert encoded_pair_register_deviation(0.01, 0.99) < 1e-12

    @pytest.mark.parametrize("beta, f0", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    def test_frame_weights_are_the_register_simulation_at_the_corners(self, beta, f0):
        # the interior point is test_factorized_equals_direct_register_simulation's
        direct = frame_weights_of(encoded_pair_direct(beta, f0).matrix)
        assert np.abs(np.array(frame_weights(beta, f0)) - direct).max() <= 1e-15

    def test_mixed_remainder_measures_to_mixed_pair(self):
        assert measured_mixed_register_deviation() < 1e-15

    def test_gate_measure_interleaving_invariance(self):
        # measuring each teleported CNOT's Bell halves right after its two
        # gates must equal running all gates first (disjoint supports)
        from repeater_keyrate.channels import first_order_sum
        from repeater_keyrate.closedform import first_order_weights
        from repeater_keyrate.encgen import ghz_prep

        beta, f0 = 0.02, 0.97
        zeros = np.outer(np.eye(8)[0], np.eye(8)[0])
        rho0 = np.kron(ghz_prep(beta).matrix, zeros)
        src = source_state_mat(f0)
        for _ in range(3):
            rho0 = np.kron(rho0, src)

        # interleaved: gates are already applied inside the first-order sum,
        # so interleaving reduces to measuring in a different qubit order;
        # measurement is linear, so both orders measure the one weighted sum
        w_perfect, w_branch, p = first_order_weights(len(ENCODING_GATES), beta)
        mixture = first_order_sum(rho0, ENCODING_GATES, w_perfect, w_branch)
        mixture[np.diag_indices_from(mixture)] += p / 4096
        all_then_measure = _apply_measurement_rules(mixture)
        interleaved = mixture
        reordered = sorted(ENCODING_MEASUREMENTS)
        for i, (qubit, basis, correction) in enumerate(reordered):
            # measure lowest-index Bell half first; adjust indices on the fly
            shift = sum(1 for done in reordered[:i] if done[0] < qubit)
            from repeater_keyrate.qstate import _measure_correct_mat

            interleaved = _measure_correct_mat(interleaved, qubit - shift, basis, correction)
        assert np.abs(all_then_measure - interleaved).max() < 1e-10
