import numpy as np
import pytest

from repeater_keyrate import rates
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


def _geometric_max(u, num_pairs, p0):
    """Maxima of ``num_pairs`` geometric waits, one per uniform u in [0, 1), by
    the inverse of their CDF (1 - q^k)^n, q = 1 - p0: max(1, ceil(ln(1 - u^(1/n))
    / ln q)), with 1 - u^(1/n) = -expm1(ln(u) / n) exact for u near 1."""
    with np.errstate(divide="ignore"):
        tail = np.log(-np.expm1(np.log(u) / num_pairs))
    return np.maximum(1.0, np.ceil(tail / np.log1p(-p0)))


@pytest.fixture(scope="session")
def geometric_max():
    """The sampling reference of z_n: one uniform per maximum of n geometric waits."""
    return _geometric_max


@pytest.fixture(scope="session")
def monte_carlo_z():
    """Distance of :func:`rates.z_n` from the mean of ``trials`` sampled maxima
    of ``num_pairs`` geometric waits, in standard errors."""

    def sigmas(num_pairs, p0, trials, rng):
        waits = _geometric_max(rng.random(trials), num_pairs, p0)
        se = float(waits.std(ddof=1) / np.sqrt(trials))
        return abs(float(waits.mean()) - rates.z_n(num_pairs, p0)) / se

    return sigmas
