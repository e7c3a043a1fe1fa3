from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeater_keyrate import closedform, frames
from repeater_keyrate.closedform import ChainState, chain_success_prob, swap_success_closed_form
from repeater_keyrate.encgen import encoded_pair
from repeater_keyrate.encswap import (
    correctable_states,
    swap_success_prob,
    swapped_state_nonideal,
)
from repeater_keyrate.frames import ERROR_PAIR_LABELS, _admissible
from repeater_keyrate.qstate import DensityOperator, frame_state, frame_weights_of
from repeater_keyrate.validation import swap_closed_form_deviation, swap_register_deviation

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# the ideal encoded pair (|000000> + |111111>)/sqrt(2) and its projector
PHI6 = (np.eye(64, dtype=complex)[0] + np.eye(64, dtype=complex)[63]) / np.sqrt(2)
PHI6_PROJECTOR = frame_state(np.eye(64)[0])


def apply_pauli_vec(vec, pauli, qubit, n):
    if pauli == "I":
        return vec
    a, b = 2**qubit, 2 ** (n - 1 - qubit)
    t = vec.reshape(a, 2, b)
    out = np.tensordot(_PAULI[pauli], t, axes=([1], [1]))  # i a b
    return np.moveaxis(out, 0, 1).reshape(-1)


def admissible_combos():
    """The error-pair labels of the 160 correctable combos, in product order."""
    return [labels for labels in product(ERROR_PAIR_LABELS, repeat=3) if _admissible(labels)]


def reference_correctable_states():
    """Dense construction: apply each admissible combo's Paulis to the ideal
    double pair and drop states equal to an earlier one up to global phase."""
    base = PHI6
    lefts, rights, parities = [], [], []
    for combo in admissible_combos():
        lv, rv = base, base
        phase_pairs = 0
        for k, (control, target) in enumerate(combo):
            lv = apply_pauli_vec(lv, control, 3 + k, 6)
            rv = apply_pauli_vec(rv, target, k, 6)
            if control + target in ("YY", "ZZ"):
                phase_pairs ^= 1
        lefts.append(lv)
        rights.append(rv)
        parities.append(phase_pairs)
    lefts = np.array(lefts)
    rights = np.array(rights)
    kept = []
    for i in range(len(lefts)):
        duplicate = False
        for j in kept:
            ov = np.vdot(lefts[j], lefts[i]) * np.vdot(rights[j], rights[i])
            if abs(abs(ov) - 1.0) < 1e-9:
                duplicate = True
                break
        if not duplicate:
            kept.append(i)
    return lefts[kept], rights[kept], np.array([parities[i] == 0 for i in kept])


class TestEnumeration:
    def test_counts(self):
        admissible = admissible_combos()
        assert len(list(product(ERROR_PAIR_LABELS, repeat=3))) == 216
        assert len(admissible) == 160
        assert 6 * len(admissible) == 960
        assert len(set(admissible)) == 160
        # the one enumeration that the frame core, enumerate-errors and validate read
        assert frames._admissible_combos() == tuple(admissible)

    def test_double_flip_combo_excluded(self):
        combo = ("IX", "IX", "II")
        assert not _admissible(combo)
        assert combo not in admissible_combos()

    def test_single_flip_allowed(self):
        assert _admissible(("IX", "ZZ", "II"))

    def test_admissible_count_formula(self):
        # 4^3 pure non-flip choices plus 3 positions x 2 flips x 4^2 others
        assert 4**3 + 3 * 2 * 4**2 == 160


class TestCorrectableStates:
    def test_cardinality(self):
        left, right, phase_trivial = correctable_states()
        assert len(left) == len(right) == len(phase_trivial) == 64

    def test_pairwise_orthogonality(self):
        left, right, _ = correctable_states()
        gram = (left.conj() @ left.T) * (right.conj() @ right.T)
        assert np.abs(gram - np.eye(64)).max() < 1e-9

    def test_contains_identity_state(self):
        left, right, _ = correctable_states()
        phi = PHI6
        ovs = np.abs(left @ phi.conj()) * np.abs(right @ phi.conj())
        assert np.isclose(ovs.max(), 1.0)

    def test_xx_combo_state_differs_from_identity(self):
        # whether (XX, II, II) collapses onto the identity-error state is
        # decided numerically: the X pair is not stabilizer equivalent here
        phi = PHI6
        left_xx = apply_pauli_vec(phi, "X", 3, 6)
        right_xx = apply_pauli_vec(phi, "X", 0, 6)
        inner = np.vdot(left_xx, phi) * np.vdot(right_xx, phi)
        assert abs(abs(inner) - 1.0) > 0.5  # distinct states
        assert abs(inner) < 1e-12  # in fact orthogonal

    def test_index_arithmetic_equals_dense_construction(self):
        left, right, phase_trivial = reference_correctable_states()
        states = correctable_states()
        assert np.array_equal(states[0], left)
        assert np.array_equal(states[1], right)
        assert np.array_equal(states[2], phase_trivial)

    def test_half_of_states_are_phase_trivial(self):
        phase_trivial = correctable_states()[2]
        assert int(phase_trivial.sum()) == 32

    def test_two_term_form_matches_dense_factors(self):
        # each factor is one frame (|x> +- |63 - x>)/sqrt(2): frame_state builds
        # its projector, and frame_weights_of reads its expectation off three
        # entries of rho
        rng = np.random.default_rng(3)
        g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        states = correctable_states()
        _, left, right, _ = zip(*frames._correctable_frames())
        for vecs, indices in zip(states[:2], (left, right)):
            dense = np.einsum("id,de,ie->i", vecs.conj(), rho, vecs).real
            assert np.abs(frame_weights_of(rho)[list(indices)] - dense).max() < 1e-14
            for vec, i in zip(vecs, indices):
                projector = np.outer(vec, vec.conj())
                assert np.abs(frame_state(np.eye(64)[i]) - projector).max() <= 1e-15

    def test_full_vector_factorization(self):
        left, right, _ = correctable_states()
        vec = np.kron(left[5], right[5])
        assert vec.shape == (4096,)
        assert np.linalg.norm(vec) == pytest.approx(1.0)


class Poly(dict):
    """Exact polynomial in (beta, eps): {(i, j): coefficient of beta^i eps^j}."""

    def __add__(self, other):
        out = Poly(self)
        for key, c in (other if isinstance(other, Poly) else {(0, 0): other}).items():
            out[key] = out.get(key, 0) + c
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({key: c * other for key, c in self.items()})
        out = Poly()
        for (i, j), a in self.items():
            for (k, l), b in other.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + a * b
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly({(0, 0): Fraction(1)})
        for _ in range(n):
            out = out * self
        return out

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other


BETA, EPS = Poly({(1, 0): Fraction(1)}), Poly({(0, 1): Fraction(1)})


def exact_frame_weights(beta, eps):
    """The 64 frame weights of the encoded pair at (beta, eps = 1 - F0) in
    exact arithmetic: beta and eps are Fractions, or BETA and EPS for the
    polynomial.

    The weights w and p mirror frames.frame_weights (GHZ, gate and
    source weights), and frame i weighs w . columns[i] / denominator + p/64
    with (columns, denominator) = frames._frame_table(), whose entries
    are integers."""
    ghz = (
        (1 + beta * (beta * Fraction(1, 2) - Fraction(5, 4))) * Fraction(1, 2),
        (1 - beta) * (1 - beta) * Fraction(1, 2),
        beta * (Fraction(3, 2) - beta) * Fraction(1, 4),
        beta * Fraction(1, 8),
    )
    gates = ((1 - beta) ** 6, beta * (1 - beta) ** 5)
    remainder = 1 - gates[0] - 6 * gates[1]
    sources = [(1 - eps) ** m * (eps * Fraction(1, 3)) ** (3 - m) for m in range(4)]
    weights = [g * v * m for g in ghz for v in gates for m in sources]
    columns, denominator = frames._frame_table()
    mixed = remainder * Fraction(1, 64)
    return [
        sum((w * Fraction(c, denominator) for w, c in zip(weights, column) if c), mixed)
        for column in columns
    ]


def exact_swap_success(beta, eps, phase_trivial_only):
    """p_s at (beta, eps = 1 - F0) from the frame weights in exact
    arithmetic: the sum of w_left w_right over the correctable frame pairs,
    all 64 or the 32 phase-trivial ones."""
    weights = exact_frame_weights(beta, eps)
    return sum(
        weights[left] * weights[right]
        for _, left, right, trivial in frames._correctable_frames()
        if trivial or not phase_trivial_only
    )


def stored_swap_success(beta, eps, phase_trivial_only):
    """The stored Bernstein table of swap_success_closed_form at a rational point."""
    table = closedform._SUCCESS_TABLES[phase_trivial_only]
    total = sum(
        c * beta**i * (1 - beta) ** (16 - i) * eps**j * (1 - eps) ** (6 - j)
        for i, row in enumerate(table) for j, c in enumerate(row)
    )
    return total / Fraction(closedform._SUCCESS_DENOMINATOR[phase_trivial_only])


def bernstein_table(phase_trivial_only):
    """The stored table rebuilt from the frame weights: Bernstein
    coefficients of p_s on [0, 1]^2 of degree (16, 6), times C(16, i) C(6, j)
    and the denominator."""
    power = exact_swap_success(BETA, EPS, phase_trivial_only)
    denominator = int(closedform._SUCCESS_DENOMINATOR[phase_trivial_only])
    table = []
    for i in range(17):
        row = []
        for j in range(7):
            b = sum(
                Fraction(comb(i, k), comb(16, k)) * Fraction(comb(j, l), comb(6, l)) * c
                for (k, l), c in power.items() if k <= i and l <= j
            )
            row.append(b * comb(16, i) * comb(6, j) * denominator)
        table.append(tuple(row))
    return tuple(table)


def bernstein_sum_reference(table, beta, f0):
    """p_s times the denominator by the two-dimensional Horner, with the
    inner sum over eps redone for every beta: the reference for the rows
    that swap_success_closed_form takes from its per-F0 cache."""
    b_scale, b_ratio, b_mirrored = closedform._bernstein_ratio(beta, 1.0 - beta, len(table) - 1)
    e_scale, e_ratio, e_mirrored = closedform._bernstein_ratio(1.0 - f0, f0, len(table[0]) - 1)
    total = 0.0
    for row in table if b_mirrored else reversed(table):
        inner = 0.0
        for c in row if e_mirrored else reversed(row):
            inner = inner * e_ratio + c
        total = total * b_ratio + inner
    return total * b_scale * e_scale


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans())
@example(0.0, 1.0, False)
@example(0.0, 1.0, True)
@example(0.7, 0.2, False)  # both ratios mirrored
@example(0.7, 0.2, True)
@example(0.3, 0.8, False)  # neither mirrored
@example(1e-300, 1.0 - 1e-16, True)
def test_cached_rows_keep_every_bit(beta, f0, phase_trivial_only):
    # the same operations in the same order as the reference, so == holds
    table = closedform._SUCCESS_TABLES[phase_trivial_only]
    expected = bernstein_sum_reference(table, beta, f0) / closedform._SUCCESS_DENOMINATOR[
        phase_trivial_only
    ]
    assert swap_success_closed_form(beta, f0, phase_trivial_only=phase_trivial_only) == expected


class TestStoredSwapSuccess:
    @pytest.mark.parametrize("phase_trivial_only", [False, True])
    def test_stored_table_is_the_dense_polynomial(self, phase_trivial_only):
        # degree 16 in beta and 6 in eps: equality on a 17 x 7 grid of
        # distinct points makes the two polynomials identical
        for a in range(17):
            for b in range(7):
                beta, eps = Fraction(a, 16), Fraction(b, 6)
                assert stored_swap_success(beta, eps, phase_trivial_only) == exact_swap_success(
                    beta, eps, phase_trivial_only
                ), (beta, eps)

    def test_frame_weights_are_the_exact_contraction(self):
        # the Fractions of frames.frame_weights on the grid of the test above
        for a in range(17):
            for b in range(7):
                beta, eps = Fraction(a, 16), Fraction(b, 6)
                expected = tuple(exact_frame_weights(beta, eps))
                assert frames.frame_weights(beta, 1 - eps) == expected, (beta, eps)

    @pytest.mark.parametrize("phase_trivial_only", [False, True])
    def test_stored_table_regenerates_exactly(self, phase_trivial_only):
        table = bernstein_table(phase_trivial_only)
        assert table == closedform._SUCCESS_TABLES[phase_trivial_only]
        # positive coefficients: the Horner sum never cancels
        assert min(min(row) for row in table) > 0

    def test_matches_dense_pair_over_unit_square(self):
        grid = [k / 20 for k in range(21)]
        assert swap_closed_form_deviation(grid, grid) <= 1e-14
        corner = [0.0, 1e-15, 1e-9, 1e-5]
        assert swap_closed_form_deviation(corner, [1.0 - e for e in corner]) <= 1e-14


class TestSwapSuccess:
    def test_ideal_pair_gives_unity(self):
        assert swap_success_prob(encoded_pair(0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
        assert swap_success_prob(
            encoded_pair(0.0, 1.0), phase_trivial_only=True
        ) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_pair_is_exact(self):
        assert swap_success_prob(encoded_pair(0.0, 1.0)) == 1.0
        assert swap_success_prob(encoded_pair(0.0, 1.0), phase_trivial_only=True) == 1.0

    def test_closed_form_ideal_corner_is_exact(self):
        assert swap_success_closed_form(0.0, 1.0) == 1.0
        assert swap_success_closed_form(0.0, 1.0, phase_trivial_only=True) == 1.0

    def test_closed_form_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            swap_success_closed_form(1.5, 1.0)
        with pytest.raises(ValueError):
            swap_success_closed_form(0.0, -0.1)

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
        # at beta = 0, F0 = 1, P_r is exactly 1, so the state conditioned on correctable
        # errors is the r = 3 perfect-gate state
        out = swapped_state_nonideal(0.0, 1.0, 3)
        expected = PHI6_PROJECTOR
        assert np.abs(out.matrix - expected).max() < 1e-14

    def test_rho_s_single_station_weights(self):
        beta = 0.02
        w_ideal, w_deph, q = ChainState(beta).weights(1)
        assert w_ideal == pytest.approx((1 - beta) ** 3)
        assert w_deph == pytest.approx(3 * beta * (1 - beta) ** 2)
        assert q == pytest.approx(1 - (1 - beta) ** 3 - 3 * beta * (1 - beta) ** 2)

    def test_rho_s_two_station_middle_weight(self):
        _, w_deph, _ = ChainState(0.01).weights(2)
        expected = float(9 * Fraction(1, 100) ** 2 * Fraction(99, 100) ** 4)
        assert w_deph == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(8.64536409e-4, abs=1e-12)

    def test_rho_s_large_r_underflows_cleanly(self):
        w_ideal, w_deph, q = ChainState(0.003).weights(127)
        assert 0.0 <= w_deph < 1e-200
        assert w_ideal == pytest.approx(np.exp(3 * 127 * np.log1p(-0.003)))
        assert q == pytest.approx(1.0 - w_ideal, abs=1e-12)

    @pytest.mark.parametrize("r", [1, 3, 127, 2**20 - 1])
    def test_rho_s_weights_exact_at_beta_zero_and_one(self, r):
        # a logarithm is -inf there, and exp(-inf) = 0 gives the weights exactly
        assert ChainState(0.0).weights(r) == (1.0, 0.0, 0.0)
        assert ChainState(1.0).weights(r) == (0.0, 0.0, 1.0)

    def test_rho_s_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            swapped_state_nonideal(0.01, 0.99, 0)
        with pytest.raises(ValueError):
            swapped_state_nonideal(1.5, 0.99, 1)

    def test_nonideal_perfect_limit(self):
        out = swapped_state_nonideal(0.0, 1.0, 1)
        expected = PHI6_PROJECTOR
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_nonideal_trace_one(self):
        out = swapped_state_nonideal(0.005, 0.98, 3)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10

    def test_nonideal_overlap_decreasing_in_r(self):
        # <Phi6|rho|Phi6>, rho's weight on the ideal pair, is the expectation of frame 0
        values = [
            frame_weights_of(swapped_state_nonideal(0.005, 0.99, r).matrix)[0]
            for r in (1, 2, 3, 5)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
