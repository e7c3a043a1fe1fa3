import numpy as np
import pytest

from repeater_keyrate.channels import source_state_mat
from repeater_keyrate.qstate import (
    DensityOperator,
    _apply_gate_mat,
    _measure_correct_mat,
    _measured_blocks,
    _partial_trace_mat,
    GatePlacement,
    PureState,
    bell_diag_coeffs,
    bell_state,
    ghz_state,
    ket,
    uhlmann_fidelity,
)


def random_density(rng, n_qubits):
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho))


def random_pure(rng, n_qubits):
    dim = 2**n_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


class TestPartialTrace:
    def test_bell_reduction(self):
        phi = bell_state("phi+").projector().matrix
        for q in (0, 1):
            red = _partial_trace_mat(phi, [q])
            assert np.allclose(red, np.eye(2) / 2)

    def test_keep_everything(self):
        rho = random_density(np.random.default_rng(0), 2)
        out = _partial_trace_mat(rho.matrix, [0, 1])
        assert np.allclose(out, rho.matrix)

    def test_product_state(self):
        rho = ket("01").projector().matrix
        out = _partial_trace_mat(rho, [0])
        assert np.allclose(out, ket("0").projector().matrix)

    def test_empty_keep_is_degenerate_scalar(self):
        out = _partial_trace_mat(bell_state("phi+").projector().matrix, [])
        assert out.shape == (1, 1)
        assert np.allclose(out, [[1.0]])

    def test_recovers_tensor_factors(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = random_density(rng, 1).matrix
            b = random_density(rng, 2).matrix
            joint = np.kron(a, b)
            assert np.abs(_partial_trace_mat(joint, [0]) - a).max() < 1e-14
            assert np.abs(_partial_trace_mat(joint, [1, 2]) - b).max() < 1e-14


class TestApplyGate:
    def test_cnot_flips_target(self):
        out = _apply_gate_mat(ket("10").projector().matrix, GatePlacement("cnot", (0, 1)))
        assert np.allclose(out, ket("11").projector().matrix)

    def test_cnot_on_mixed_is_identity(self):
        out = _apply_gate_mat(np.eye(4) / 4, GatePlacement("cnot", (0, 1)))
        assert np.allclose(out, np.eye(4) / 4)

    def test_x_maps_phi_to_psi(self):
        out = _apply_gate_mat(bell_state("phi+").projector().matrix, GatePlacement("x", (0,)))
        assert np.allclose(out, bell_state("psi+").projector().matrix)

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        for gate in (GatePlacement("cnot", (2, 0)), GatePlacement("h", (1,)),
                     GatePlacement("y", (2,)), GatePlacement("z", (0,))):
            out = _apply_gate_mat(rho.matrix, gate)
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert np.allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho.matrix), atol=1e-10
            )

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            _apply_gate_mat(np.eye(4) / 4, GatePlacement("cnot", (0, 5)))


def traces(blocks):
    return [float(np.trace(block).real) for block in blocks]


class TestMeasureBranch:
    def test_deterministic_z(self):
        zero, one = _measured_blocks(ket("00").projector().matrix, 0, "z")
        assert traces([zero, one]) == pytest.approx([1.0, 0.0])
        assert np.allclose(zero, ket("0").projector().matrix)

    def test_x_basis_plus_state(self):
        plus = PureState(np.array([1, 1]) / np.sqrt(2))
        blocks = _measured_blocks(plus.projector().matrix, 0, "x")
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
        phi = bell_state("phi+")
        assert bell_diag_coeffs(phi.projector()).phi_plus == pytest.approx(1.0)

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
        assert uhlmann_fidelity(ket("0").projector(), ket("1").projector()) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_pure_vs_mixed(self):
        mixed = DensityOperator(np.eye(2) / 2)
        assert uhlmann_fidelity(ket("0").projector(), mixed) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a, b = random_density(rng, 2), random_density(rng, 2)
        assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) < 1e-8

    def test_pure_pure_matches_overlap(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            psi, chi = random_pure(rng, 2), random_pure(rng, 2)
            expected = abs(np.vdot(psi.vector, chi.vector)) ** 2
            got = uhlmann_fidelity(psi.projector(), chi.projector())
            assert got == pytest.approx(expected, abs=1e-8)

    def test_rejects_non_psd(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        bad = DensityOperator(mat)
        with pytest.raises(ValueError, match="positive"):
            uhlmann_fidelity(bad, DensityOperator(np.eye(2) / 2))


class TestBellDiagCoeffs:
    def test_phi_plus(self):
        c = bell_diag_coeffs(bell_state("phi+").projector())
        assert c.as_tuple() == pytest.approx((1, 0, 0, 0), abs=1e-12)
        assert c.remainder_norm < 1e-12

    def test_maximally_mixed(self):
        c = bell_diag_coeffs(DensityOperator(np.eye(4) / 4))
        assert c.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_computational_dephasing(self):
        mat = 0.5 * np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        c = bell_diag_coeffs(DensityOperator(mat))
        assert c.as_tuple() == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-12)
        assert c.remainder_norm < 1e-12

    def test_remainder_detects_non_bell_diagonal(self):
        c = bell_diag_coeffs(ket("00").projector())
        assert c.remainder_norm > 0.1


class TestValidation:
    def test_ghz_state(self):
        v = ghz_state(3).vector
        assert v[0] == pytest.approx(1 / np.sqrt(2))
        assert v[-1] == pytest.approx(1 / np.sqrt(2))
        assert np.abs(v[1:-1]).max() == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(3) / 3)

    def test_gate_placement_checks(self):
        with pytest.raises(ValueError):
            GatePlacement("cnot", (1, 1))
        with pytest.raises(ValueError):
            GatePlacement("x", (0, 1))
        with pytest.raises(ValueError):
            GatePlacement("swap", (0, 1))
