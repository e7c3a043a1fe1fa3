import numpy as np
import pytest

from repeater_keyrate.encgen import (
    _apply_measurement_rules,
    encoded_bell_state,
    encoded_pair,
    ghz_prep,
    ghz_prep_circuit,
    teleported_cnot_sequence,
)
from repeater_keyrate.channels import source_state_mat
from repeater_keyrate.qstate import _cnot_permutation, bell_state, ghz_state, ket, overlap
from repeater_keyrate.validation import (
    encoded_pair_register_deviation,
    measured_mixed_register_deviation,
)


class TestGhzPrep:
    def test_perfect_preparation(self):
        expected = ghz_state(3).projector().matrix
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
        assert len(teleported_cnot_sequence().gates) == 6

    def test_six_measurements(self):
        circuit = teleported_cnot_sequence()
        assert len(circuit.measurements) == 6
        bases = sorted(rule.basis for rule in circuit.measurements)
        assert bases == ["x", "x", "x", "z", "z", "z"]

    def test_gates_act_on_disjoint_pairs(self):
        circuit = teleported_cnot_sequence()
        used = [q for g in circuit.gates for q in g.qubits]
        assert sorted(used) == list(range(12))

    def test_perfect_run_produces_encoded_bell_state(self):
        # pure-state propagation of the whole circuit with ideal resources
        circuit = teleported_cnot_sequence()
        phi = bell_state("phi+").vector
        vec = np.kron(ghz_state(3).vector, ket("000").vector)
        for _ in range(3):
            vec = np.kron(vec, phi)
        for g in circuit.gates:
            vec = vec[_cnot_permutation(12, *g.qubits)]
        rho = np.outer(vec, vec.conj())
        out = _apply_measurement_rules(rho, circuit.measurements)
        expected = encoded_bell_state().projector().matrix
        assert np.abs(out - expected).max() < 1e-14


class TestEncodedPair:
    def test_ideal_pipeline_is_exact(self):
        pair = encoded_pair(0.0, 1.0)
        expected = encoded_bell_state().projector().matrix
        assert np.abs(pair.matrix - expected).max() < 1e-14
        assert np.array_equal(pair.matrix, expected)

    def test_source_noise_only_bounds(self):
        ov = overlap(encoded_pair(0.0, 0.98), encoded_bell_state())
        assert 0.9 < ov < 1.0

    def test_overlap_monotone_in_beta(self):
        target = encoded_bell_state()
        values = [overlap(encoded_pair(b, 1.0), target) for b in (0.0, 0.01, 0.02)]
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

    def test_mixed_remainder_measures_to_mixed_pair(self):
        assert measured_mixed_register_deviation() < 1e-15

    def test_gate_measure_interleaving_invariance(self):
        # measuring each teleported CNOT's Bell halves right after its two
        # gates must equal running all gates first (disjoint supports)
        from repeater_keyrate.channels import concat_first_order_branches
        from repeater_keyrate.encgen import ghz_prep

        beta, f0 = 0.02, 0.97
        circuit = teleported_cnot_sequence()
        zeros = ket("000").projector().matrix
        rho0 = np.kron(ghz_prep(beta).matrix, zeros)
        src = source_state_mat(f0)
        for _ in range(3):
            rho0 = np.kron(rho0, src)

        branches = concat_first_order_branches(rho0, circuit.gates, beta)
        all_then_measure = np.zeros((64, 64), dtype=complex)
        for w, b in branches:
            all_then_measure += w * _apply_measurement_rules(b, circuit.measurements)

        # interleaved: gates are already applied inside each branch, so
        # interleaving reduces to measuring in a different qubit order
        interleaved = np.zeros((64, 64), dtype=complex)
        reordered = sorted(circuit.measurements, key=lambda r: r.qubit)
        for w, b in branches:
            state = b
            for rule in reordered:
                # measure lowest-index Bell half first; adjust indices on the fly
                shift = sum(1 for done in reordered[: reordered.index(rule)] if done.qubit < rule.qubit)
                from repeater_keyrate.qstate import _measure_correct_mat

                state = _measure_correct_mat(
                    state,
                    rule.qubit - shift,
                    rule.basis,
                    (rule.correction_kind, rule.correction_qubit),
                )
            interleaved += w * state
        assert np.abs(all_then_measure - interleaved).max() < 1e-10
