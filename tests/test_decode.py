import numpy as np
import pytest

from repeater_keyrate.decode import (
    decode_circuit,
    decode_exact_noise_mat,
    decode_nonideal,
    decode_one_faulty,
    decode_perfect,
    final_state,
    rho_tilde_prime,
    validate_first_order_vs_exact,
)
from repeater_keyrate.encgen import encoded_bell_state, encoded_pair
from repeater_keyrate.encswap import swapped_state_nonideal
from repeater_keyrate.qstate import (
    DensityOperator,
    bell_diag_coeffs,
    bell_state,
    maximally_mixed,
)


def dephased_pair():
    mat = np.zeros((64, 64), dtype=complex)
    mat[0, 0] = mat[63, 63] = 0.5
    return DensityOperator(mat)


class TestDecodeCircuitProperties:
    def test_ideal_pair_decodes_to_bell_state(self):
        out = decode_circuit(encoded_bell_state().projector())
        expected = bell_state("phi+").projector().matrix
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_computational_dephasing_decodes_to_classical_mix(self):
        out = decode_circuit(dephased_pair())
        expected = 0.5 * np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_maximally_mixed_decodes_to_maximally_mixed(self):
        out = decode_circuit(maximally_mixed(6))
        assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-12

    def test_single_bit_flip_is_corrected(self):
        # a flip on any one qubit of either block must not reach the pair
        from repeater_keyrate.qstate import GatePlacement, apply_gate

        ideal = encoded_bell_state().projector()
        expected = bell_state("phi+").projector().matrix
        for qubit in range(6):
            flipped = apply_gate(ideal, GatePlacement("x", (qubit,)))
            out = decode_circuit(flipped)
            assert np.abs(out.matrix - expected).max() < 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            decode_circuit(maximally_mixed(2))


class TestRhoTildePrime:
    def test_trace(self):
        assert np.trace(rho_tilde_prime().matrix).real == pytest.approx(1.0)

    def test_bell_coefficients(self):
        c = bell_diag_coeffs(rho_tilde_prime())
        assert c.as_tuple() == pytest.approx((5 / 16, 5 / 16, 3 / 16, 3 / 16), abs=1e-14)
        assert c.remainder_norm < 1e-14

    def test_one_faulty_circuit_oracle(self):
        # one-faulty decoding of both distinguished inputs lands on the
        # same fixed mixture
        tilde = rho_tilde_prime().matrix
        a = decode_one_faulty(encoded_bell_state().projector()).matrix
        b = decode_one_faulty(dephased_pair()).matrix
        assert np.abs(a - tilde).max() < 1e-12
        assert np.abs(b - tilde).max() < 1e-12

    def test_one_faulty_preserves_maximally_mixed(self):
        out = decode_one_faulty(maximally_mixed(6))
        assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-13


class TestDecodePerfect:
    def test_ideal_parameters(self):
        out = decode_perfect(0.0, 1.0, 1)
        assert np.abs(out.matrix - bell_state("phi+").projector().matrix).max() < 1e-12

    def test_trace_one(self):
        out = decode_perfect(0.005, 0.98, 1)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.005, 0.01])
    @pytest.mark.parametrize("f0", [0.95, 0.99, 1.0])
    @pytest.mark.parametrize("r", [1, 3])
    def test_closed_form_equals_circuit(self, beta, f0, r):
        closed = decode_perfect(beta, f0, r).matrix
        circuit = decode_circuit(swapped_state_nonideal(beta, f0, r)).matrix
        assert np.abs(closed - circuit).max() < 1e-10

    def test_zero_swap_route_uses_circuit(self):
        direct = decode_perfect(0.01, 0.99, 0).matrix
        explicit = decode_circuit(encoded_pair(0.01, 0.99)).matrix
        assert np.abs(direct - explicit).max() < 1e-14


class TestDecodeNonideal:
    def test_perfect_chain_reduces_to_fixed_mixture(self):
        out = decode_nonideal(0.0, 1.0, 1)
        assert np.abs(out.matrix - rho_tilde_prime().matrix).max() < 1e-12

    def test_trace_one(self):
        out = decode_nonideal(0.005, 0.98, 1)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_positive_at_deep_chain(self):
        out = decode_nonideal(0.01, 0.99, 7)
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-12

    @pytest.mark.parametrize("beta,f0,r", [(0.005, 0.99, 1), (0.01, 0.95, 3)])
    def test_closed_form_equals_one_faulty_circuit(self, beta, f0, r):
        closed = decode_nonideal(beta, f0, r).matrix
        circuit = decode_one_faulty(swapped_state_nonideal(beta, f0, r)).matrix
        assert np.abs(closed - circuit).max() < 1e-10


class TestFinalState:
    def test_ideal_parameters(self):
        out = final_state(0.0, 1.0, 3)
        assert np.abs(out.matrix - bell_state("phi+").projector().matrix).max() < 1e-12

    def test_bell_diagonal(self):
        out = final_state(0.008, 0.98, 3)
        assert bell_diag_coeffs(out).remainder_norm < 1e-10

    def test_bell_weight_decreasing_in_r(self):
        values = [
            bell_diag_coeffs(final_state(0.005, 0.99, r)).phi_plus for r in (1, 2, 3, 5)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_trace_and_positivity(self):
        for args in ((0.005, 0.98, 1), (0.01, 0.99, 7), (0.02, 0.95, 3)):
            mat = final_state(*args).matrix
            assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(mat)[0] > -1e-12


class TestFirstOrderValidation:
    def test_perfect_gates_give_unit_fidelity(self):
        assert validate_first_order_vs_exact(0.0, 0.99, 1) == pytest.approx(1.0, abs=1e-10)

    def test_small_beta(self):
        assert validate_first_order_vs_exact(1e-3, 0.99, 1) >= 0.999

    def test_moderate_beta(self):
        assert validate_first_order_vs_exact(1e-2, 0.99, 1) >= 0.99

    def test_exact_noise_decode_is_trace_preserving(self):
        pre = swapped_state_nonideal(0.01, 0.99, 1).matrix
        out = decode_exact_noise_mat(pre, 0.01)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
