import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeater_keyrate.channels import _faulty_gate_mat, source_state_mat
from repeater_keyrate.decode import final_state
from repeater_keyrate.encgen import encoded_pair
from repeater_keyrate.encswap import swapped_state_nonideal
from repeater_keyrate.qstate import (
    DensityOperator,
    _apply_cnot_mat,
    _apply_pauli_mat,
    _depolarize_mat,
    _measure_correct_mat,
    _measured_blocks,
    bell_diag_coeffs,
    frame_state,
    frame_weights_of,
    uhlmann_fidelity,
)

PHI_PLUS, PSI_PLUS = frame_state(np.eye(4)[0]), frame_state(np.eye(4)[2])


def projector(bits):
    """|bits><bits| of a computational basis state, e.g. projector("01")."""
    v = np.eye(2 ** len(bits))[int(bits, 2)]
    return np.outer(v, v)


def random_density(rng, n_qubits):
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho))


def random_pure(rng, n_qubits):
    dim = 2**n_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


PAULIS = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def embed(paulis, n_qubits):
    """Kronecker product of 2x2 Paulis over the register, {qubit: name}."""
    out = np.eye(1, dtype=complex)
    for q in range(n_qubits):
        out = np.kron(out, PAULIS[paulis.get(q, "i")])
    return out


def discard(rho, *qubits):
    """Measure the qubits in Z, highest first, and keep no outcome."""
    for q in sorted(qubits, reverse=True):
        rho = _measure_correct_mat(rho, q, "z")
    return rho


class TestPartialTrace:
    # measuring a qubit and discarding the outcome traces it out
    def test_bell_reduction(self):
        for q in (0, 1):
            red = discard(PHI_PLUS, 1 - q)
            assert np.allclose(red, np.eye(2) / 2)

    def test_product_state(self):
        rho = projector("01")
        out = discard(rho, 1)
        assert np.allclose(out, projector("0"))

    def test_empty_keep_is_degenerate_scalar(self):
        out = discard(PHI_PLUS, 0, 1)
        assert out.shape == (1, 1)
        assert np.allclose(out, [[1.0]])

    def test_recovers_tensor_factors(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = random_density(rng, 1).matrix
            b = random_density(rng, 2).matrix
            joint = np.kron(a, b)
            assert np.abs(discard(joint, 1, 2) - a).max() < 1e-14
            assert np.abs(discard(joint, 0) - b).max() < 1e-14


class TestApplyGate:
    def test_cnot_flips_target(self):
        out = _apply_cnot_mat(projector("10"), 0, 1)
        assert np.allclose(out, projector("11"))

    def test_cnot_on_mixed_is_identity(self):
        out = _apply_cnot_mat(np.eye(4) / 4, 0, 1)
        assert np.allclose(out, np.eye(4) / 4)

    def test_x_maps_phi_to_psi(self):
        out = _apply_pauli_mat(PHI_PLUS, "x", 0)
        assert np.allclose(out, PSI_PLUS)

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        for out in (_apply_cnot_mat(rho.matrix, 2, 0), _apply_pauli_mat(rho.matrix, "x", 1),
                    _apply_pauli_mat(rho.matrix, "z", 0)):
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert np.allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho.matrix), atol=1e-10
            )

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            _apply_cnot_mat(np.eye(4) / 4, 0, 5)


class TestKernels:
    @pytest.mark.parametrize("seed", range(3))
    def test_faulty_gate_is_the_pauli_pair_twirl(self, seed):
        rho = random_density(np.random.default_rng(seed), 3).matrix
        for i, j in ((i, j) for i in range(3) for j in range(3) if i != j):
            twirl = sum(
                embed({i: p, j: q}, 3) @ rho @ embed({i: p, j: q}, 3).conj().T
                for p in PAULIS for q in PAULIS
            ) / 16
            assert np.abs(_faulty_gate_mat(rho, (i, j)) - twirl).max() < 1e-15

    @pytest.mark.parametrize("seed", range(3))
    def test_depolarized_qubit_is_the_pauli_twirl(self, seed):
        rho = random_density(np.random.default_rng(seed), 3).matrix
        for q in range(3):
            twirl = sum(embed({q: p}, 3) @ rho @ embed({q: p}, 3).conj().T for p in PAULIS) / 4
            assert np.abs(_depolarize_mat(rho, q) - twirl).max() < 1e-15

    @pytest.mark.parametrize("seed", range(3))
    def test_pauli_is_conjugation_by_the_embedded_matrix(self, seed):
        rho = random_density(np.random.default_rng(seed), 3).matrix
        for pauli in ("x", "z"):
            for q in range(3):
                u = embed({q: pauli}, 3)
                assert np.array_equal(_apply_pauli_mat(rho, pauli, q), u @ rho @ u.conj().T)

    @pytest.mark.parametrize("control,target", [(1, 1), (0, 2), (2, 0), (-1, 0), (0, -1)])
    def test_bad_cnot_qubits_rejected(self, control, target):
        with pytest.raises(ValueError):
            _apply_cnot_mat(np.eye(4) / 4, control, target)

    @pytest.mark.parametrize("pauli,qubit", [("y", 0), ("h", 0), ("X", 0), ("x", 2), ("z", -1)])
    def test_bad_pauli_rejected(self, pauli, qubit):
        with pytest.raises(ValueError):
            _apply_pauli_mat(np.eye(4) / 4, pauli, qubit)


def traces(blocks):
    return [float(np.trace(block).real) for block in blocks]


class TestMeasureBranch:
    def test_deterministic_z(self):
        zero, one = _measured_blocks(projector("00"), 0, "z")
        assert traces([zero, one]) == pytest.approx([1.0, 0.0])
        assert np.allclose(zero, projector("0"))

    def test_x_basis_plus_state(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        blocks = _measured_blocks(np.outer(plus, plus), 0, "x")
        assert traces(blocks) == pytest.approx([1.0, 0.0])
        assert blocks[0].shape == (1, 1)

    def test_mixed_state_splits_evenly(self):
        for block in _measured_blocks(np.eye(4) / 4, 0, "z"):
            assert float(np.trace(block).real) == pytest.approx(0.5)
            assert np.allclose(block / 0.5, np.eye(2) / 2)

    def test_x_basis_of_bell_projector_is_exact(self):
        # phi+ measured in X on qubit 0: |+> leaves |+>, |-> leaves |-> and
        # the Z correction turns it back into |+>; all entries exactly 1/2
        phi = source_state_mat(1.0)
        out = _measure_correct_mat(phi, 0, "x", ("z", 1))
        assert np.array_equal(out, np.full((2, 2), 0.5))
        plus, minus = traces(_measured_blocks(phi, 0, "x"))
        assert plus == 0.5 and minus == 0.5

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_density(rng, 3)
            for basis in ("z", "x"):
                total = sum(traces(_measured_blocks(rho.matrix, 1, basis)))
                assert abs(total - 1.0) < 1e-12


class TestOverlap:
    # <phi+|rho|phi+> is the phi+ coefficient of bell_diag_coeffs
    def test_self_overlap(self):
        assert bell_diag_coeffs(DensityOperator(PHI_PLUS)).phi_plus == pytest.approx(1.0)

    def test_mixed_overlap(self):
        assert bell_diag_coeffs(DensityOperator(np.eye(4) / 4)).phi_plus == pytest.approx(0.25)

    def test_depolarized_source(self):
        source = DensityOperator(source_state_mat(0.98))
        assert bell_diag_coeffs(source).phi_plus == pytest.approx(0.98)


class TestUhlmannFidelity:
    def test_self_fidelity(self):
        rho = random_density(np.random.default_rng(5), 2)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        zero, one = DensityOperator(projector("0")), DensityOperator(projector("1"))
        assert uhlmann_fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed(self):
        mixed = DensityOperator(np.eye(2) / 2)
        assert uhlmann_fidelity(DensityOperator(projector("0")), mixed) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a, b = random_density(rng, 2), random_density(rng, 2)
        assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) < 1e-8

    def test_pure_pure_matches_overlap(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            psi, chi = random_pure(rng, 2), random_pure(rng, 2)
            expected = abs(np.vdot(psi, chi)) ** 2
            rho, sigma = (DensityOperator(np.outer(v, v.conj())) for v in (psi, chi))
            got = uhlmann_fidelity(rho, sigma)
            assert got == pytest.approx(expected, abs=1e-8)

    def test_rejects_non_psd(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        bad = DensityOperator(mat)
        with pytest.raises(ValueError, match="positive"):
            uhlmann_fidelity(bad, DensityOperator(np.eye(2) / 2))


class TestBellDiagCoeffs:
    def test_phi_plus(self):
        c = bell_diag_coeffs(DensityOperator(PHI_PLUS))
        assert c[:4] == pytest.approx((1, 0, 0, 0), abs=1e-12)
        assert c.remainder_norm < 1e-12

    def test_maximally_mixed(self):
        c = bell_diag_coeffs(DensityOperator(np.eye(4) / 4))
        assert c[:4] == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_computational_dephasing(self):
        mat = 0.5 * np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        c = bell_diag_coeffs(DensityOperator(mat))
        assert c[:4] == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-12)
        assert c.remainder_norm < 1e-12

    def test_remainder_detects_non_bell_diagonal(self):
        c = bell_diag_coeffs(DensityOperator(projector("00")))
        assert c.remainder_norm > 0.1


class TestFrameState:
    # twice the Bell projectors, in the order of every Bell tuple: phi+, phi-, psi+, psi-
    BELL = (
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]],
        [[1, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1]],
        [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]],
    )

    @pytest.mark.parametrize("k", range(4))
    def test_two_qubit_frames_are_the_bell_projectors(self, k):
        assert np.array_equal(frame_state(np.eye(4)[k]), np.array(self.BELL[k]) / 2)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_reader_inverts_builder(self, n, data):
        floats = st.lists(st.floats(0.0, 1.0), min_size=2**n, max_size=2**n)
        raw = np.array(data.draw(floats))
        weights = raw / raw.sum() if raw.sum() > 0 else np.full(2**n, 2.0**-n)
        assert np.abs(frame_weights_of(frame_state(weights)) - weights).max() <= 2.3e-16

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_reader_inverts_builder_exactly_on_dyadic_weights(self, n, data):
        counts = data.draw(st.lists(st.integers(0, 1024), min_size=2**n, max_size=2**n))
        weights = np.array(counts) / 1024
        assert np.array_equal(frame_weights_of(frame_state(weights)), weights)


class TestValidation:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(3) / 3)

    def test_caller_array_stays_writeable(self):
        # the operator freezes its own copy, not the caller's array
        m = np.eye(2, dtype=complex) / 2
        op = DensityOperator(m)
        assert m.flags.writeable and not op.matrix.flags.writeable
        m[0, 0] = 1.0
        assert op.matrix[0, 0] == 0.5

    @pytest.mark.parametrize(
        "matrix, dtype",
        [
            (np.eye(2) / 2, np.float64),
            (np.eye(2, dtype=np.float32) / 2, np.float64),
            ([[1, 0], [0, 0]], np.float64),
            (np.eye(2, dtype=complex) / 2, np.complex128),
            (np.eye(2, dtype=np.complex64) / 2, np.complex128),
        ],
        ids=["float64", "float32", "int", "complex128", "complex64"],
    )
    def test_real_input_stays_real(self, matrix, dtype):
        assert DensityOperator(matrix).matrix.dtype == dtype

    def test_pipeline_states_are_real(self):
        states = (
            encoded_pair(0.01, 0.99),
            swapped_state_nonideal(0.01, 0.99, 3),
            final_state(0.01, 0.99, 0),
            final_state(0.01, 0.99, 3),
        )
        assert [state.matrix.dtype for state in states] == [np.float64] * 4
