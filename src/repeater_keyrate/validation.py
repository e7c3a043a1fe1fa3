"""Self-checks behind the ``validate`` CLI subcommand and the test suite.

Each invariant is one function that takes its parameter grid and returns
the observed deviation; :func:`run_checks` and the tests call the same
functions, each with its own grid and tolerance.  :func:`run_checks`
reports each check's name, the tolerance it enforces and the observed
value, so a failing run points directly at the broken invariant.  The
default set covers the closed-form identities, counting, waiting-time
statistics and the first-order-noise fidelity check; ``full`` adds the
slow full-register equivalences (minutes, ~1 GB of scratch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import decode, encgen, encswap, rates
from .qstate import DensityOperator, bell_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: str
    observed: str
    passed: bool


def counting_deviation() -> tuple[tuple[int, int, int, int], float]:
    """Error-pattern counts (raw, admissible, permuted, distinct) and the
    largest deviation of the correctable states' Gram matrix from 1."""
    counts = encswap.enumerate_combos()
    states = encswap.correctable_states()
    gram = (states.left.conj() @ states.left.T) * (states.right.conj() @ states.right.T)
    off = float(np.abs(gram - np.eye(len(states))).max())
    return (
        (counts.raw_count, counts.admissible_count, counts.paper_permutation_count, len(states)),
        off,
    )


def decoding_map_deviations() -> tuple[float, float, float, float]:
    """Largest entry deviations of the decoding map from its closed forms:
    |Phi6> to Phi+, the dephasing D to diag(1/2, 0, 0, 1/2), I/64 to I/4,
    and one-faulty decoding of |Phi6> and D to rho_tilde_prime."""
    phi6 = encgen.encoded_bell_state().projector()
    phi2 = bell_state("phi+").vector
    dev1 = float(np.abs(decode.decode_circuit(phi6).matrix - np.outer(phi2, phi2.conj())).max())

    deph = np.zeros((64, 64), dtype=complex)
    deph[0, 0] = deph[63, 63] = 0.5
    dev2 = float(
        np.abs(
            decode.decode_circuit(DensityOperator(deph)).matrix
            - 0.5 * np.diag([1.0, 0.0, 0.0, 1.0])
        ).max()
    )
    dev3 = float(
        np.abs(
            decode.decode_circuit(DensityOperator(np.eye(64, dtype=complex) / 64)).matrix
            - np.eye(4) / 4
        ).max()
    )
    tilde = decode.rho_tilde_prime().matrix
    dev4 = max(
        float(np.abs(decode.decode_one_faulty(phi6).matrix - tilde).max()),
        float(np.abs(decode.decode_one_faulty(DensityOperator(deph)).matrix - tilde).max()),
    )
    return dev1, dev2, dev3, dev4


def ghz_prep_deviation(betas: Sequence[float]) -> float:
    """Largest entry deviation of the closed-form GHZ preparation from its
    circuit simulation over ``betas``."""
    return max(
        float(np.abs(encgen.ghz_prep(b).matrix - encgen.ghz_prep_circuit(b).matrix).max())
        for b in betas
    )


def perfect_decode_deviation(
    betas: Sequence[float], f0s: Sequence[float], stations: Sequence[int]
) -> float:
    """Largest entry deviation of the closed form :func:`decode.decode_perfect`
    from the decoding circuit applied to the swapped state, over the grid."""
    worst = 0.0
    for beta in betas:
        for f0 in f0s:
            for r in stations:
                closed = decode.decode_perfect(beta, f0, r).matrix
                circuit = decode.decode_circuit(encswap.swapped_state_nonideal(beta, f0, r)).matrix
                worst = max(worst, float(np.abs(closed - circuit).max()))
    return worst


def monte_carlo_z(num_pairs: int, p0: float, trials: int, rng: np.random.Generator) -> float:
    """Distance of :func:`rates.z_n` from the mean of ``trials`` sampled
    maxima of ``num_pairs`` geometric waits, in standard errors."""
    waits = rng.geometric(p0, size=(trials, num_pairs)).max(axis=1)
    mean = float(waits.mean())
    se = float(waits.std(ddof=1) / np.sqrt(trials))
    return abs(mean - rates.z_n(num_pairs, p0)) / se


def first_order_fidelity(betas: Sequence[float], f0s: Sequence[float]) -> float:
    """Smallest Uhlmann fidelity between the first-order and the exact-noise
    decode at r = 1 over the grid."""
    worst = 1.0
    for beta in betas:
        for f0 in f0s:
            worst = min(worst, decode.validate_first_order_vs_exact(beta, f0, 1))
    return worst


def encoded_pair_register_deviation(beta: float, f0: float) -> float:
    """Largest entry deviation of the factorized encoded pair from the
    full 12-qubit register simulation."""
    fast = encgen.encoded_pair(beta, f0).matrix
    direct = encgen.encoded_pair_direct(beta, f0).matrix
    return float(np.abs(fast - direct).max())


def swap_register_deviation(beta: float, f0: float) -> float:
    """Absolute difference between :func:`encswap.swap_success_prob` and the
    sum of the 64 correctable-state overlaps with the 4096-dim rho (x) rho."""
    pair = encgen.encoded_pair(beta, f0)
    states = encswap.correctable_states()
    big = np.kron(pair.matrix, pair.matrix)
    direct_ps = 0.0
    for i in range(len(states)):
        vec = states.full_vector(i)
        direct_ps += float(np.vdot(vec, big @ vec).real)
    return abs(direct_ps - encswap.swap_success_prob(pair))


def measured_mixed_register_deviation() -> float:
    """Largest entry deviation from I/64 of the maximally mixed 12-qubit
    register after the encoding circuit's measurements and corrections."""
    circuit = encgen.teleported_cnot_sequence()
    mixed = np.eye(4096, dtype=complex) / 4096.0
    measured = encgen._apply_measurement_rules(mixed, circuit.measurements)
    return float(np.abs(measured - np.eye(64) / 64.0).max())


def _check(name: str, tolerance: str, observed: float | str, passed: bool) -> CheckResult:
    if isinstance(observed, float):
        observed = f"{observed:.6g}"
    return CheckResult(name, tolerance, observed, bool(passed))


def _counting_checks() -> list[CheckResult]:
    counts, off = counting_deviation()
    return [
        _check(
            "error-pattern counts (raw/admissible/permuted/distinct)",
            "exact 216/160/960/64",
            "/".join(str(c) for c in counts),
            counts == (216, 160, 960, 64),
        ),
        _check("correctable-state orthogonality", "max off-diagonal < 1e-9", off, off < 1e-9),
    ]


def _decode_property_checks() -> list[CheckResult]:
    dev1, dev2, dev3, dev4 = decoding_map_deviations()
    return [
        _check("decoding of ideal encoded pair", "<= 1e-12", dev1, dev1 <= 1e-12),
        _check("decoding of computational dephasing", "<= 1e-12", dev2, dev2 <= 1e-12),
        _check("decoding of maximally mixed state", "<= 1e-12", dev3, dev3 <= 1e-12),
        _check("one-faulty decode fixed point", "<= 1e-10", dev4, dev4 <= 1e-10),
    ]


def _closed_form_checks() -> list[CheckResult]:
    dev_ghz = ghz_prep_deviation((0.0, 0.01, 0.05, 0.1))
    dev_dec = perfect_decode_deviation((0.0, 0.005, 0.01), (0.95, 0.99, 1.0), (1, 3))
    return [
        _check("GHZ preparation closed form vs circuit", "<= 1e-12", dev_ghz, dev_ghz <= 1e-12),
        _check("perfect-decode closed form vs circuit", "<= 1e-10", dev_dec, dev_dec <= 1e-10),
    ]


def _waiting_time_checks(seed: int, trials: int) -> list[CheckResult]:
    exact_2 = rates.z_n(2, 0.5)
    dev = abs(exact_2 - (4.0 - 4.0 / 3.0))
    out = [_check("z_n(2, 0.5) closed value", "<= 1e-12", dev, dev <= 1e-12)]
    for num_pairs, p0 in ((3, 0.37), (6, 0.37), (12, 0.2)):
        sigmas = monte_carlo_z(num_pairs, p0, trials, np.random.default_rng(seed))
        out.append(
            _check(
                f"z_n({num_pairs}, {p0}) vs Monte Carlo ({trials} trials, seed {seed})",
                "within 3 standard errors",
                f"{sigmas:.2f} sigma",
                sigmas <= 3.0,
            )
        )
    return out


def _fidelity_checks() -> list[CheckResult]:
    worst = first_order_fidelity((1e-3, 5e-3, 1e-2), (0.98, 0.99, 1.0))
    return [
        _check(
            "first-order vs exact-noise decode (Uhlmann, r=1 grid)",
            ">= 0.99",
            worst,
            worst >= 0.99,
        )
    ]


def _pipeline_sanity_checks() -> list[CheckResult]:
    p_s = encswap.swap_success_prob(encgen.encoded_pair(0.0, 1.0))
    rf = rates.secret_fraction_for(0.0, 1.0, 1)
    out = [
        _check("ideal swap success", "|p_s - 1| <= 1e-12", abs(p_s - 1.0), abs(p_s - 1.0) <= 1e-12),
        _check("ideal secret fraction", "|r_inf - 1| <= 1e-12", abs(rf - 1.0), abs(rf - 1.0) <= 1e-12),
    ]
    worst_trace, worst_eig, worst_offbell = 0.0, 0.0, 0.0
    for beta, f0, n in ((0.005, 0.98, 1), (0.01, 0.99, 3), (0.008, 0.98, 7)):
        pair = encgen.encoded_pair(beta, f0)
        fin = decode.final_state(beta, f0, n)
        for op in (pair, fin):
            worst_trace = max(worst_trace, abs(float(np.trace(op.matrix).real) - 1.0))
            worst_eig = max(worst_eig, max(0.0, -float(np.linalg.eigvalsh(op.matrix)[0])))
        from .qstate import bell_diag_coeffs

        worst_offbell = max(worst_offbell, bell_diag_coeffs(fin).remainder_norm)
    out.extend(
        [
            _check("pipeline trace preservation", "<= 1e-10", worst_trace, worst_trace <= 1e-10),
            _check("pipeline positivity", "min eig >= -1e-9", worst_eig, worst_eig <= 1e-9),
            _check("final state Bell diagonal", "<= 1e-10", worst_offbell, worst_offbell <= 1e-10),
        ]
    )
    return out


def _full_register_checks() -> list[CheckResult]:
    dev = encoded_pair_register_deviation(0.01, 0.99)
    dev_ps = swap_register_deviation(0.01, 0.99)
    dev_mix = measured_mixed_register_deviation()
    return [
        _check(
            "encoded pair: factorized vs full-register simulation",
            "<= 1e-12",
            dev,
            dev <= 1e-12,
        ),
        _check("swap success: factorized vs 4096-dim overlap", "<= 1e-10", dev_ps, dev_ps <= 1e-10),
        _check(
            "measured maximally mixed register", "== 1/64 within 1e-14", dev_mix, dev_mix <= 1e-14
        ),
    ]


def run_checks(seed: int = 42, trials: int = 10**6, full: bool = False) -> list[CheckResult]:
    checks: list[CheckResult] = []
    checks.extend(_counting_checks())
    checks.extend(_decode_property_checks())
    checks.extend(_closed_form_checks())
    checks.extend(_waiting_time_checks(seed, trials))
    checks.extend(_fidelity_checks())
    checks.extend(_pipeline_sanity_checks())
    if full:
        checks.extend(_full_register_checks())
    return checks
