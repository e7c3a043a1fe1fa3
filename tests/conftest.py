import numpy as np
import pytest

from repeater_keyrate.closedform import _TILDE_BELL
from repeater_keyrate.decode import decode_circuit, decode_one_faulty
from repeater_keyrate.qstate import DensityOperator, frame_state


def _deviation(a, b):
    return float(np.abs(a - b).max())


@pytest.fixture(scope="session")
def decoding_map_deviations():
    """Largest entry deviations of the decoding map from its closed forms:
    |Phi6> to Phi+, the dephasing D to diag(1/2, 0, 0, 1/2), I/64 to I/4,
    and one-faulty decoding of |Phi6> and D to rho_tilde_prime, the
    frame state of ``_TILDE_BELL``."""
    phi6 = DensityOperator(frame_state(np.eye(64)[0]))
    deph = DensityOperator(frame_state([0.5, 0.5] + [0.0] * 62))
    mixed = DensityOperator(np.eye(64) / 64)
    tilde = frame_state(_TILDE_BELL)
    return (
        _deviation(decode_circuit(phi6).matrix, frame_state(np.eye(4)[0])),
        _deviation(decode_circuit(deph).matrix, 0.5 * np.diag([1.0, 0.0, 0.0, 1.0])),
        _deviation(decode_circuit(mixed).matrix, np.eye(4) / 4),
        max(_deviation(decode_one_faulty(state).matrix, tilde) for state in (phi6, deph)),
    )
