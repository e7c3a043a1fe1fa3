import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeater_keyrate import repeaterless
from repeater_keyrate.closedform import (
    _TILDE_BELL,
    DECODE_GATE_COUNT,
    ChainState,
    chain_success_prob,
    first_order_weights,
    swap_success_closed_form,
)
from repeater_keyrate.decode import (
    decode_circuit,
    decode_exact_noise_mat,
    decode_one_faulty,
    decode_perfect,
    final_state,
    rho_tilde_prime,
    validate_first_order_vs_exact,
)
from repeater_keyrate.encgen import encoded_pair
from repeater_keyrate.encswap import swapped_state_nonideal
from repeater_keyrate.frames import _decode_tables, _frame_table, pair_decode_coeffs
from repeater_keyrate.qstate import (
    DensityOperator,
    _apply_pauli_mat,
    bell_diag_coeffs,
    frame_state,
)

PHI_PLUS = frame_state(np.eye(4)[0])
from repeater_keyrate.rates import key_rate
from repeater_keyrate.repeaterless import pair_decode_closed_form
from repeater_keyrate.validation import decoding_map_deviations, pair_decode_deviation


class TestDecodeCircuitProperties:
    def test_ideal_pair_decodes_to_bell_state(self):
        assert decoding_map_deviations()[0] < 1e-12

    def test_computational_dephasing_decodes_to_classical_mix(self):
        assert decoding_map_deviations()[1] < 1e-12

    def test_maximally_mixed_decodes_to_maximally_mixed(self):
        assert decoding_map_deviations()[2] < 1e-12

    def test_single_bit_flip_is_corrected(self):
        # a flip on any one qubit of either block must not reach the pair
        ideal = frame_state(np.eye(64)[0])
        expected = PHI_PLUS
        for qubit in range(6):
            flipped = DensityOperator(_apply_pauli_mat(ideal, "x", qubit))
            out = decode_circuit(flipped)
            assert np.abs(out.matrix - expected).max() < 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            decode_circuit(DensityOperator(np.eye(4) / 4))


class TestRhoTildePrime:
    def test_trace(self):
        assert np.trace(rho_tilde_prime().matrix).real == pytest.approx(1.0)

    def test_bell_coefficients(self):
        c = bell_diag_coeffs(rho_tilde_prime())
        assert c[:4] == pytest.approx((5 / 16, 5 / 16, 3 / 16, 3 / 16), abs=1e-14)
        assert c.remainder_norm < 1e-14

    def test_one_faulty_circuit_oracle(self):
        # one-faulty decoding of both distinguished inputs lands on the
        # same fixed mixture
        assert decoding_map_deviations()[3] < 1e-12

    def test_one_faulty_preserves_maximally_mixed(self):
        out = decode_one_faulty(DensityOperator(np.eye(64) / 64))
        assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-13


class TestDecodePerfect:
    def test_ideal_parameters(self):
        out = decode_perfect(0.0, 1.0, 1)
        assert np.abs(out.matrix - PHI_PLUS).max() < 1e-12

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
        # r = 0 decodes the pair's frames; the circuit decodes its matrix
        direct = decode_perfect(0.01, 0.99, 0).matrix
        explicit = decode_circuit(encoded_pair(0.01, 0.99)).matrix
        assert np.abs(direct - explicit).max() < 1e-14


class TestDecodeTables:
    def test_each_frame_matches_the_decoding_circuits(self):
        # perfect decoding gives one Bell state, one-faulty decoding
        # multiples of 1/64 of each
        perfect, one_faulty = _decode_tables()
        for i in range(64):
            state = DensityOperator(frame_state(np.eye(64)[i]))
            expected = np.eye(4)[perfect[i]]
            assert np.abs(bell_diag_coeffs(decode_circuit(state))[:4] - expected).max() < 1e-14
            faulty = np.array(one_faulty[i]) / 64
            assert np.abs(bell_diag_coeffs(decode_one_faulty(state))[:4] - faulty).max() < 1e-14

    def test_tilde_bell_is_the_trivial_frames_one_faulty_decode(self):
        row = _decode_tables()[1][0]
        assert tuple(Fraction(c, 64) for c in row) == tuple(map(Fraction, _TILDE_BELL))

    @pytest.mark.parametrize("beta,f0", [(0.0, 1.0), (0.01, 0.99), (0.3, 0.6), (1.0, 0.0)])
    def test_zero_swap_final_state_equals_the_circuits(self, beta, f0):
        pair = encoded_pair(beta, f0)
        w_perfect, w_branch, w_rest = first_order_weights(DECODE_GATE_COUNT, beta)
        circuits = (
            w_perfect * decode_circuit(pair).matrix
            + DECODE_GATE_COUNT * w_branch * decode_one_faulty(pair).matrix
            + w_rest * np.eye(4) / 4.0
        )
        assert np.abs(final_state(beta, f0, 0).matrix - circuits).max() < 1e-14


def stored_pair_rows():
    """The perfect rows (phi+, phi-, psi+, psi-) of repeaterless's N = 0
    decode and its one-faulty rows times their denominator 32, rebuilt in
    exact rationals from the frame core.

    A column of frames._frame_table is over the GHZ weight groups (d, o, e,
    f) of frames._ghz_prep_weights, which are ((A + B)/2, (A - B)/2, B, C);
    moved to the values (A, B, C), each frame's column is summed into the
    Bell state of its perfect decode, or weighted by its one-faulty decode
    row over 64."""
    columns, denominator = _frame_table()
    bells, faulty_rows = _decode_tables()
    by_value = []
    for column in columns:
        d, o, e, f = (column[8 * g:8 * g + 8] for g in range(4))
        by_value.append([Fraction(x, 2 * denominator) for x in (
            *(x + y for x, y in zip(d, o)),
            *(x - y + 2 * z for x, y, z in zip(d, o, e)),
            *(2 * z for z in f),
        )])
    perfect = [
        tuple(sum(col[r] for col, bell in zip(by_value, bells) if bell == k) for r in range(24))
        for k in range(4)
    ]
    faulty = [  # over 64, times 32
        tuple(sum(col[r] * row[k] for col, row in zip(by_value, faulty_rows)) / 2
              for r in range(24))
        for k in range(4)
    ]
    return perfect, faulty


class TestStoredPairDecode:
    """repeaterless.pair_decode_closed_form, the rate path's N = 0, against the
    frame core's frame-by-frame decode and the dense decoding circuits."""

    def test_stored_rows_regenerate_exactly(self):
        perfect, faulty = stored_pair_rows()
        phi_plus, phi_minus, psi = repeaterless._PAIR_PERFECT
        assert perfect == [phi_plus, phi_minus, psi, psi]
        faulty_phi, faulty_psi = repeaterless._PAIR_ONE_FAULTY
        assert faulty == [faulty_phi, faulty_phi, faulty_psi, faulty_psi]

    def test_stored_entries_are_nonnegative(self):
        # so the sum over the nonnegative monomials never cancels
        rows = repeaterless._PAIR_PERFECT + repeaterless._PAIR_ONE_FAULTY
        assert all(len(row) == 24 for row in rows)
        assert min(min(row) for row in rows) >= 0

    @pytest.mark.parametrize("beta", [Fraction(k, 8) for k in range(9)])
    def test_equals_the_frame_decode_in_fractions(self, beta):
        # both are polynomials of degree 8 in beta and 3 in F0: equality on a
        # 9 x 4 grid of distinct points, the four corners among them, makes
        # them identical
        for f0 in (Fraction(k, 3) for k in range(4)):
            assert pair_decode_closed_form(beta, f0) == pair_decode_coeffs(beta, f0), f0

    @pytest.mark.parametrize("beta", [0.0, -0.0])
    def test_ideal_corner_is_exact(self, beta):
        assert pair_decode_closed_form(beta, 1.0) == ((1.0, 0.0, 0.0, 0.0), _TILDE_BELL)
        report = key_rate(200.0, beta, 1.0, 0)
        assert (report.p_s, report.p_r, report.secret_fraction) == (1.0, 1.0, 1.0)
        assert (report.e_x, report.e_y, report.e_z) == (0.0, 0.0, 0.0)
        assert report.key_rate == report.rate_pairs_per_s / 6

    def test_matches_the_circuits_over_the_unit_square(self):
        grid = (0.0, 0.01, 0.3, 0.7, 0.99, 1.0)
        assert pair_decode_deviation(grid, grid) <= 1e-12

    @pytest.mark.parametrize("beta,f0", [(-0.1, 0.9), (0.1, 1.5), (math.nan, 0.9)])
    def test_rejects_a_point_outside_the_unit_square(self, beta, f0):
        with pytest.raises(ValueError, match="must be in"):
            pair_decode_closed_form(beta, f0)


def one_faulty_decode(beta, f0, r):
    """Closed-form one-faulty decode of the swapped chain state."""
    p_r = chain_success_prob(swap_success_closed_form(beta, f0), r)
    return frame_state(ChainState(beta).decode_coeffs(r, p_r)[1])


class TestDecodeNonideal:
    def test_perfect_chain_reduces_to_fixed_mixture(self):
        out = one_faulty_decode(0.0, 1.0, 1)
        assert np.abs(out - rho_tilde_prime().matrix).max() < 1e-12

    def test_trace_one(self):
        out = one_faulty_decode(0.005, 0.98, 1)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_positive_at_deep_chain(self):
        out = one_faulty_decode(0.01, 0.99, 7)
        assert np.linalg.eigvalsh(out)[0] > -1e-12

    @pytest.mark.parametrize("beta,f0,r", [(0.005, 0.99, 1), (0.01, 0.95, 3)])
    def test_closed_form_equals_one_faulty_circuit(self, beta, f0, r):
        closed = one_faulty_decode(beta, f0, r)
        circuit = decode_one_faulty(swapped_state_nonideal(beta, f0, r)).matrix
        assert np.abs(closed - circuit).max() < 1e-10


def chain_decode_coeffs_reference(beta, r, p_r):
    """The earlier generator-expression form of ``ChainState.decode_coeffs``."""
    w_ideal, w_deph, q_r = ChainState(beta).weights(r)
    c_phi = p_r * w_ideal - (1.0 - p_r) / 63.0
    c_mix = p_r * q_r + (1.0 - p_r) * 64.0 / 63.0
    phi_minus = p_r * w_deph / 2.0 + c_mix / 4.0
    perfect = (c_phi + phi_minus, phi_minus, c_mix / 4.0, c_mix / 4.0)
    kept = w_ideal + w_deph
    faulty = tuple(
        p_r * (kept * t + (1.0 - kept) / 4.0) + (1.0 - p_r) * (16.0 - t) / 63.0
        for t in _TILDE_BELL
    )
    return perfect, faulty


def final_bell_coeffs_reference(beta, r, p_r):
    """The earlier generator-expression form of ``ChainState.mix`` of the two decodes."""
    perfect, faulty = chain_decode_coeffs_reference(beta, r, p_r)
    w_perfect, w_branch, w_rest = first_order_weights(DECODE_GATE_COUNT, beta)
    return tuple(
        w_perfect * d + DECODE_GATE_COUNT * w_branch * n + w_rest / 4.0
        for d, n in zip(perfect, faulty)
    )


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.floats(0.0, 1.0), st.integers(1, 2**20 - 1), st.floats(0.0, 1.0))
def test_written_out_coefficients_keep_every_bit(beta, r, p_r):
    # the same operations in the same order as the reference, so == holds
    chain = ChainState(beta)
    assert chain.decode_coeffs(r, p_r) == chain_decode_coeffs_reference(beta, r, p_r)
    assert chain.mix(*chain.decode_coeffs(r, p_r)) == final_bell_coeffs_reference(beta, r, p_r)


class TestFinalState:
    @pytest.mark.parametrize("r", [-3, 0.5, math.inf, math.nan])
    def test_rejects_a_station_count_that_is_not_a_positive_integer(self, r):
        with pytest.raises(ValueError, match="r must be a positive integer"):
            final_state(0.01, 0.99, r)

    @pytest.mark.parametrize("beta,f0", [(0.0, 1.0), (0.01, 0.99), (0.3, 0.6), (1.0, 0.0)])
    def test_zero_swap_keeps_every_bit(self, beta, f0):
        # the written-out mixture of the encoded pair's two decodes, term for term
        perfect, faulty = pair_decode_coeffs(beta, f0)
        w_perfect, w_branch, w_rest = first_order_weights(DECODE_GATE_COUNT, beta)
        coeffs = [
            w_perfect * d + DECODE_GATE_COUNT * w_branch * n + w_rest / 4.0
            for d, n in zip(perfect, faulty)
        ]
        assert np.array_equal(final_state(beta, f0, 0).matrix, frame_state(coeffs))

    def test_ideal_parameters(self):
        out = final_state(0.0, 1.0, 3)
        assert np.abs(out.matrix - PHI_PLUS).max() < 1e-12

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
