from fractions import Fraction

import numpy as np
import pytest

from repeater_keyrate.channels import (
    concat_first_order,
    concat_first_order_branches,
    depolarizing_gate,
    first_order_weights,
    one_faulty_branches,
    source_state,
    source_state_mat,
)
from repeater_keyrate.qstate import (
    DensityOperator,
    GatePlacement,
    GateSequence,
    apply_gate,
    bell_diag_coeffs,
    bell_state,
    ket,
    maximally_mixed,
    overlap,
)

CNOT01 = GatePlacement("cnot", (0, 1))


class TestDepolarizingGate:
    def test_beta_zero_is_perfect_gate(self):
        rho = bell_state("phi+").projector()
        noisy = depolarizing_gate(rho, CNOT01, 0.0)
        perfect = apply_gate(rho, CNOT01)
        assert np.allclose(noisy.matrix, perfect.matrix)

    def test_beta_one_fully_mixes_pair(self):
        rho = ket("10").projector()
        out = depolarizing_gate(rho, CNOT01, 1.0)
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_overlap_with_ideal_output(self):
        # (1 - beta) + beta/4 against the perfectly rotated state
        rho = bell_state("phi+").projector()
        out = depolarizing_gate(rho, CNOT01, 0.1)
        ideal = apply_gate(rho, CNOT01)
        vec = np.linalg.eigh(ideal.matrix)[1][:, -1]
        got = float(np.vdot(vec, out.matrix @ vec).real)
        assert got == pytest.approx(0.9 + 0.1 / 4)

    def test_trace_preserving_on_embedded_pair(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityOperator((a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        out = depolarizing_gate(rho, GatePlacement("cnot", (2, 0)), 0.3)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10

    def test_rejects_bad_beta_and_single_qubit_gate(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            depolarizing_gate(rho, CNOT01, 1.2)
        with pytest.raises(ValueError):
            depolarizing_gate(rho, GatePlacement("x", (0,)), 0.1)


class TestOneFaultyMix:
    def test_single_gate_fully_replaced(self):
        [branch] = one_faulty_branches(ket("00").projector().matrix, GateSequence((CNOT01,)))
        assert np.allclose(branch, np.eye(4) / 4)

    def test_two_identical_cnots(self):
        # replacing either of two CNOTs on |00><00| leaves I/4 both times
        seq = GateSequence((CNOT01, CNOT01))
        branches = one_faulty_branches(ket("00").projector().matrix, seq)
        assert len(branches) == 2
        for branch in branches:
            assert np.allclose(branch, np.eye(4) / 4)

    def test_branches_have_unit_trace(self):
        seq = GateSequence((CNOT01, GatePlacement("cnot", (1, 2)), GatePlacement("cnot", (0, 2))))
        for branch in one_faulty_branches(ket("000").projector().matrix, seq):
            assert abs(np.trace(branch) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(branch)[0] > -1e-12


class TestConcatFirstOrder:
    def test_beta_zero_is_perfect_concatenation(self):
        seq = GateSequence((CNOT01, GatePlacement("cnot", (1, 0))))
        rho = ket("10").projector()
        out = concat_first_order(rho, seq, 0.0)
        expected = apply_gate(apply_gate(rho, seq[0]), seq[1])
        assert np.allclose(out.matrix, expected.matrix)

    def test_single_gate_matches_depolarizing_gate_on_pair_register(self):
        # with the register equal to the gate pair, 1_d/d and the mixed pair agree
        rho = bell_state("phi+").projector()
        seq = GateSequence((CNOT01,))
        a = concat_first_order(rho, seq, 0.07)
        b = depolarizing_gate(rho, CNOT01, 0.07)
        assert np.abs(a.matrix - b.matrix).max() < 1e-14

    def test_remainder_weight_arithmetic(self):
        # exact rational evaluation of 1 - (1-b)^6 - 6 b (1-b)^5 at b = 1/100
        b = Fraction(1, 100)
        expected = 1 - (1 - b) ** 6 - 6 * b * (1 - b) ** 5
        _, _, p = first_order_weights(6, 0.01)
        assert p == pytest.approx(float(expected), abs=1e-15)
        assert float(expected) == pytest.approx(1.460447605e-3, abs=1e-12)

    def test_weights_sum_to_one(self):
        for n in (1, 3, 6):
            for beta in (0.0, 0.01, 0.3, 1.0):
                w_perfect, w_branch, p = first_order_weights(n, beta)
                assert w_perfect + n * w_branch + p == pytest.approx(1.0, abs=1e-12)

    def test_small_beta_remainder_bound(self):
        # p stays at the 1e-3 scale for beta <= 0.01 and n <= 6
        _, _, p = first_order_weights(6, 0.01)
        assert p <= 1.5e-3

    def test_branch_weights_exposed(self):
        seq = GateSequence((CNOT01, GatePlacement("cnot", (1, 0))))
        branches = concat_first_order_branches(ket("00").projector().matrix, seq, 0.02)
        weights = [w for w, _ in branches]
        assert len(branches) == 4  # perfect + 2 faulty + identity
        assert sum(weights) == pytest.approx(1.0)
        total = sum(w * b for w, b in branches)
        assert abs(np.trace(total) - 1.0) < 1e-12

    def test_monotone_in_beta_on_two_gates(self):
        seq = GateSequence((CNOT01, GatePlacement("cnot", (1, 0))))
        rho = bell_state("phi+").projector()
        ideal = apply_gate(apply_gate(rho, seq[0]), seq[1])
        vec = np.linalg.eigh(ideal.matrix)[1][:, -1]
        overlaps = []
        for beta in np.arange(0.0, 0.051, 0.005):
            out = concat_first_order(rho, seq, float(beta))
            overlaps.append(float(np.vdot(vec, out.matrix @ vec).real))
        assert all(a >= b - 1e-12 for a, b in zip(overlaps, overlaps[1:]))


class TestSourceState:
    def test_perfect_source(self):
        assert np.allclose(source_state(1.0).matrix, bell_state("phi+").projector().matrix)

    def test_perfect_source_is_exact(self):
        # entries of exactly 1/2, not the rounded square of 1/sqrt(2)
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.array_equal(source_state_mat(1.0), expected)

    def test_quarter_fidelity_is_maximally_mixed(self):
        assert np.allclose(source_state(0.25).matrix, np.eye(4) / 4)

    def test_bell_coefficients(self):
        c = bell_diag_coeffs(source_state(0.98))
        assert c.phi_plus == pytest.approx(0.98)
        assert c.phi_minus == pytest.approx(0.02 / 3)
        assert c.psi_plus == pytest.approx(0.02 / 3)
        assert c.psi_minus == pytest.approx(0.02 / 3)

    def test_overlap_matches_fidelity(self):
        assert overlap(source_state(0.9), bell_state("phi+")) == pytest.approx(0.9)
