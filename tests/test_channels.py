import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repeater_keyrate.channels import (
    _faulty_gate_mat,
    depolarizing_gate_mat,
    first_order_sum,
    source_state_mat,
)
from repeater_keyrate.closedform import DECODE_GATE_COUNT, first_order_weights
from repeater_keyrate.encgen import ENCODING_GATES
from repeater_keyrate.qstate import (
    DensityOperator,
    _apply_cnot_mat,
    bell_diag_coeffs,
    frame_state,
)

CNOT01 = (0, 1)
PHI_PLUS = frame_state(np.eye(4)[0])


def projector(bits):
    """|bits><bits| of a computational basis state, e.g. projector("01")."""
    v = np.eye(2 ** len(bits))[int(bits, 2)]
    return np.outer(v, v)


class TestDepolarizingGate:
    def test_beta_zero_is_perfect_gate(self):
        rho = PHI_PLUS
        noisy = depolarizing_gate_mat(rho, CNOT01, 0.0)
        perfect = _apply_cnot_mat(rho, *CNOT01)
        assert np.allclose(noisy, perfect)

    def test_beta_one_fully_mixes_pair(self):
        rho = projector("10")
        out = depolarizing_gate_mat(rho, CNOT01, 1.0)
        assert np.allclose(out, np.eye(4) / 4)

    def test_overlap_with_ideal_output(self):
        # (1 - beta) + beta/4 against the perfectly rotated state
        rho = PHI_PLUS
        out = depolarizing_gate_mat(rho, CNOT01, 0.1)
        ideal = _apply_cnot_mat(rho, *CNOT01)
        vec = np.linalg.eigh(ideal)[1][:, -1]
        got = float(np.vdot(vec, out @ vec).real)
        assert got == pytest.approx(0.9 + 0.1 / 4)

    def test_trace_preserving_on_embedded_pair(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityOperator((a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        out = depolarizing_gate_mat(rho.matrix, (2, 0), 0.3)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out)[0] > -1e-10

    def test_rejects_bad_beta_and_single_qubit_gate(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            depolarizing_gate_mat(rho, CNOT01, 1.2)
        with pytest.raises(ValueError):
            depolarizing_gate_mat(rho, (0,), 0.1)


def one_faulty_sum(rho, seq):
    """The sum of the one-faulty branches, without the perfect run."""
    return first_order_sum(rho, seq, 0.0, 1.0)


def branch_loop(rho, seq, w_perfect, w_branch):
    """first_order_sum from its definition: the perfect run, then branch a
    for each a (gates 0..a-1, the mixed pair on gate a, gates a+1..n-1)."""
    def run(mat, gates):
        for gate in gates:
            mat = _apply_cnot_mat(mat, *gate)
        return mat

    total = w_perfect * run(rho, seq)
    for a, gate in enumerate(seq):
        total = total + w_branch * run(_faulty_gate_mat(run(rho, seq[:a]), gate), seq[a + 1:])
    return total


class TestOneFaultyMix:
    def test_single_gate_fully_replaced(self):
        assert np.allclose(one_faulty_sum(projector("00"), (CNOT01,)), np.eye(4) / 4)

    def test_two_identical_cnots(self):
        # replacing either of two CNOTs on |00><00| leaves I/4 both times
        seq = (CNOT01, CNOT01)
        assert np.allclose(one_faulty_sum(projector("00"), seq), len(seq) * np.eye(4) / 4)

    def test_branches_have_unit_trace(self):
        # n branches of unit trace, each positive: the sum has trace n and is positive
        seq = (CNOT01, (1, 2), (0, 2))
        total = one_faulty_sum(projector("000"), seq)
        assert abs(np.trace(total) - len(seq)) < 1e-12
        assert np.linalg.eigvalsh(total)[0] > -1e-12

    @pytest.mark.parametrize(
        "branches",
        [
            lambda: one_faulty_sum(projector("00"), ()),
            lambda: first_order_mix(projector("00"), (), 0.01),
        ],
        ids=["one_faulty_branches", "concat_first_order_branches"],
    )
    def test_empty_sequence_rejected_when_called(self, branches):
        # both the one-faulty sum and the first-order concatenated map check
        # the sequence before building any term
        with pytest.raises(ValueError, match="gate sequence must contain at least one gate"):
            branches()

    @pytest.mark.parametrize("seed", range(12))
    def test_sum_is_the_per_branch_loop(self, seed):
        # random Pauli-diagonal states of 3-4 qubits, 1-6 random CNOTs, and the
        # perfect run, the one-faulty sum and a first-order weighting of both
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 5))
        rho = frame_state(rng.dirichlet(np.ones(2 ** n)))
        seq = tuple(tuple(int(q) for q in rng.choice(n, 2, replace=False))
                    for _ in range(rng.integers(1, 7)))
        w_perfect, w_branch, _ = first_order_weights(len(seq), float(rng.uniform(0.0, 0.2)))
        for weights in ((1.0, 0.0), (0.0, 1.0), (w_perfect, w_branch)):
            got = first_order_sum(rho, seq, *weights)
            assert np.abs(got - branch_loop(rho, seq, *weights)).max() <= 1e-15


def first_order_mix(rho, seq, beta):
    """State of the first-order concatenated map: the weighted perfect run and
    one-faulty sum, plus the maximally mixed remainder."""
    w_perfect, w_branch, p = first_order_weights(len(seq), beta)
    return first_order_sum(rho, seq, w_perfect, w_branch) + p * np.eye(len(rho)) / len(rho)


class TestConcatFirstOrder:
    def test_beta_zero_is_perfect_concatenation(self):
        seq = (CNOT01, (1, 0))
        rho = projector("10")
        out = first_order_mix(rho, seq, 0.0)
        expected = _apply_cnot_mat(_apply_cnot_mat(rho, *seq[0]), *seq[1])
        assert np.allclose(out, expected)

    def test_single_gate_matches_depolarizing_gate_on_pair_register(self):
        # with the register equal to the gate pair, 1_d/d and the mixed pair agree
        rho = PHI_PLUS
        seq = (CNOT01,)
        a = first_order_mix(rho, seq, 0.07)
        b = depolarizing_gate_mat(rho, CNOT01, 0.07)
        assert np.abs(a - b).max() < 1e-14

    def test_remainder_weight_arithmetic(self):
        # exact rational evaluation of 1 - (1-b)^6 - 6 b (1-b)^5 at b = 1/100
        b = Fraction(1, 100)
        expected = 1 - (1 - b) ** 6 - 6 * b * (1 - b) ** 5
        _, _, p = first_order_weights(6, 0.01)
        assert p == pytest.approx(float(expected), abs=1e-15)
        assert float(expected) == pytest.approx(1.460447605e-3, abs=1e-12)

    @pytest.mark.parametrize("seed,n", [(1, DECODE_GATE_COUNT), (2, 6), (3, len(ENCODING_GATES))],
                             ids=["decode", "six", "encoding"])
    def test_remainder_matches_exact_rationals(self, seed, n):
        # the remainder to the last bits at every beta, also where 1 - (1-b)^n
        # - n b (1-b)^(n-1) cancels all but its beta^2 term
        rng = random.Random(seed)
        betas = [10 ** rng.uniform(-15, math.log10(0.5)) for _ in range(1000)]
        for beta in (*betas, 0.0, 1.0):
            b = Fraction(beta)
            exact = 1 - (1 - b) ** n - n * b * (1 - b) ** (n - 1)
            _, _, p = first_order_weights(n, beta)
            assert p >= 0
            if exact == 0:
                assert p == 0.0
            else:
                assert abs(Fraction(p) - exact) <= 1e-15 * exact, beta

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
        # the kernel's trace is w_perfect + n w_branch; the remainder p completes it
        seq = (CNOT01, (1, 0))
        w_perfect, w_branch, p = first_order_weights(len(seq), 0.02)
        assert w_perfect + len(seq) * w_branch + p == pytest.approx(1.0)
        terms = first_order_sum(projector("00"), seq, w_perfect, w_branch)
        assert abs(np.trace(terms) - (w_perfect + len(seq) * w_branch)) < 1e-12
        assert abs(np.trace(first_order_mix(projector("00"), seq, 0.02)) - 1.0) < 1e-12

    def test_monotone_in_beta_on_two_gates(self):
        seq = (CNOT01, (1, 0))
        rho = PHI_PLUS
        ideal = _apply_cnot_mat(_apply_cnot_mat(rho, *seq[0]), *seq[1])
        vec = np.linalg.eigh(ideal)[1][:, -1]
        overlaps = []
        for beta in np.arange(0.0, 0.051, 0.005):
            out = first_order_mix(rho, seq, float(beta))
            overlaps.append(float(np.vdot(vec, out @ vec).real))
        assert all(a >= b - 1e-12 for a, b in zip(overlaps, overlaps[1:]))


class TestSourceState:
    def test_perfect_source(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(source_state_mat(1.0), np.outer(phi, phi))

    def test_perfect_source_is_exact(self):
        # entries of exactly 1/2, not the rounded square of 1/sqrt(2)
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.array_equal(source_state_mat(1.0), expected)

    def test_quarter_fidelity_is_maximally_mixed(self):
        assert np.allclose(source_state_mat(0.25), np.eye(4) / 4)

    def test_bell_coefficients(self):
        c = bell_diag_coeffs(DensityOperator(source_state_mat(0.98)))
        assert c.phi_plus == pytest.approx(0.98)
        assert c.phi_minus == pytest.approx(0.02 / 3)
        assert c.psi_plus == pytest.approx(0.02 / 3)
        assert c.psi_minus == pytest.approx(0.02 / 3)

    def test_overlap_matches_fidelity(self):
        # <phi+|rho|phi+> is the phi+ coefficient of bell_diag_coeffs
        source = DensityOperator(source_state_mat(0.9))
        assert bell_diag_coeffs(source).phi_plus == pytest.approx(0.9)
