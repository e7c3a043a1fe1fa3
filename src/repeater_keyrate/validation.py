"""Self-checks behind the ``validate`` CLI subcommand and the test suite.

Each invariant is one function that takes its parameter grid and returns
the observed deviation; :func:`run_checks` and the tests call the same
functions, each with its own grid and tolerance.  :func:`run_checks`
reports each check's name, the tolerance it enforces and the observed
value, so a failing run points directly at the broken invariant.  The
default set (9 checks, ~0.4 s) is the correctable states' Gram matrix;
the GHZ preparation, the perfect decode, the N = 0 decode rows and p_s
against their circuits or the dense pair; z_n on every branch against its
exact alternating binomial form in rationals; the first-order-noise
fidelity; the ideal secret fraction; and the weight vectors behind the
dense pipeline states, nonnegative and summing to 1.
A mutation audit (``tools/mutants.py``) removed the checks whose every kill
another check also made.  ``full`` adds the slow full-register
equivalences, its first-order mixture measured once (~4.5 s at a ~0.7 GB
peak RSS on 2 cores).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import closedform, decode, encgen, encswap, frames, rates
from .qstate import bell_diag_coeffs, frame_state, frame_weights_of


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: str
    observed: str
    passed: bool


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def counting_deviation() -> tuple[tuple[int, int, int, int], float]:
    """Error-pattern counts (raw, admissible, permuted, distinct) and the
    largest deviation of the correctable states' Gram matrix from 1."""
    admissible = len(frames._admissible_combos())
    left, right, _ = encswap.correctable_states()
    gram = (left.conj() @ left.T) * (right.conj() @ right.T)
    off = _deviation(gram, np.eye(len(left)))
    return (len(frames.ERROR_PAIR_LABELS) ** 3, admissible, 6 * admissible, len(left)), off


def ghz_prep_deviation(betas: Sequence[float]) -> float:
    """Largest entry deviation of the closed-form GHZ preparation from its
    circuit simulation over ``betas``."""
    return max(_deviation(encgen.ghz_prep(b).matrix, encgen.ghz_prep_circuit(b).matrix)
               for b in betas)


def perfect_decode_deviation(
    betas: Sequence[float], f0s: Sequence[float], stations: Sequence[int]
) -> float:
    """Largest entry deviation of the closed form :func:`decode.decode_perfect`
    from the decoding circuit applied to the swapped state, over the grid."""
    return max(
        _deviation(decode.decode_perfect(beta, f0, r).matrix,
                       decode.decode_circuit(encswap.swapped_state_nonideal(beta, f0, r)).matrix)
        for beta, f0, r in itertools.product(betas, f0s, stations)
    )


def pair_decode_deviation(betas: Sequence[float], f0s: Sequence[float]) -> float:
    """Largest entry deviation of the stored N = 0 decodes of the rate path
    (:func:`closedform.pair_decode_closed_form`) from the perfect and the
    one-faulty decoding circuit applied to the dense encoded pair, over the grid."""
    worst = 0.0
    for beta, f0 in itertools.product(betas, f0s):
        pair = encgen.encoded_pair(beta, f0)
        perfect, faulty = closedform.pair_decode_closed_form(beta, f0)
        worst = max(worst, _deviation(decode.decode_circuit(pair).matrix, frame_state(perfect)),
                    _deviation(decode.decode_one_faulty(pair).matrix, frame_state(faulty)))
    return worst


def swap_closed_form_deviation(betas: Sequence[float], f0s: Sequence[float]) -> float:
    """Largest relative difference of the closed-form p_s the rate path uses
    from :func:`encswap.swap_success_prob` of the dense encoded pair, in both
    chain conventions, over the grid."""
    worst = 0.0
    for beta, f0, trivial in itertools.product(betas, f0s, (False, True)):
        dense = encswap.swap_success_prob(encgen.encoded_pair(beta, f0), phase_trivial_only=trivial)
        closed = closedform.swap_success_closed_form(beta, f0, phase_trivial_only=trivial)
        worst = max(worst, abs(closed - dense) / dense)
    return worst


def z_n_deviation(points: Sequence[tuple[int, float]]) -> float:
    """Largest relative difference of :func:`rates.z_n` from the exact
    alternating binomial form sum_{j=1}^{n} (-1)^(j+1) C(n, j) / (1 - q^j),
    q = 1 - P0, evaluated in rationals, over the (n, P0) points; a z_n that
    is not finite is infinitely far."""
    worst = 0.0
    for n, p0 in points:
        q = 1 - Fraction(p0)
        exact = sum((-1) ** (j + 1) * math.comb(n, j) / (1 - q**j) for j in range(1, n + 1))
        z = rates.z_n(n, p0)
        error = abs(Fraction(z) - exact) / exact if math.isfinite(z) else math.inf
        worst = max(worst, float(error))
    return worst


def first_order_fidelity(betas: Sequence[float], f0s: Sequence[float]) -> float:
    """Smallest Uhlmann fidelity between the first-order and the exact-noise
    decode at r = 1 over the grid."""
    worst = 1.0
    for beta in betas:
        for f0 in f0s:
            worst = min(worst, decode.validate_first_order_vs_exact(beta, f0, 1))
    return worst


def weight_deviations(points: Sequence[tuple[float, float, int]]) -> tuple[float, float]:
    """Largest |sum - 1| and smallest entry of the weight vectors behind the
    dense pipeline states at each (beta, F0, r): the encoded pair's 64 frame
    weights, the swapped state's frame weights and the decoded pair's Bell
    coefficients.  Each state is the :func:`frame_state` of its vector, so
    its trace is the sum and its eigenvalues are the entries.  A NaN
    anywhere comes out as NaN, which fails every bound."""
    vectors = [vector for beta, f0, r in points
               for vector in (
                   frames.frame_weights(beta, f0),
                   frame_weights_of(encswap.swapped_state_nonideal(beta, f0, r).matrix),
                   bell_diag_coeffs(decode.final_state(beta, f0, r))[:4])]
    sums = np.array([math.fsum(vector) for vector in vectors])
    return float(np.abs(sums - 1.0).max()), float(np.concatenate(vectors).min())


def encoded_pair_register_deviation(beta: float, f0: float) -> float:
    """Largest entry deviation of the encoded pair built from its Pauli
    frames from the full 12-qubit register simulation."""
    return _deviation(encgen.encoded_pair(beta, f0).matrix,
                          encgen.encoded_pair_direct(beta, f0).matrix)


def swap_register_deviation(beta: float, f0: float) -> float:
    """Absolute difference between :func:`encswap.swap_success_prob` and the
    sum of the 64 correctable-state overlaps with the 4096-dim rho (x) rho."""
    pair = encgen.encoded_pair(beta, f0)
    # complex once, as the correctable states are; else each product upcasts it
    big = np.kron(pair.matrix.astype(complex), pair.matrix)
    direct_ps = 0.0
    for left, right in zip(*encswap.correctable_states()[:2]):
        vec = np.kron(left, right)
        direct_ps += float(np.vdot(vec, big @ vec).real)
    return abs(direct_ps - encswap.swap_success_prob(pair))


def measured_mixed_register_deviation() -> float:
    """Largest entry deviation from I/64 of the maximally mixed 12-qubit
    register after the encoding circuit's measurements and corrections."""
    mixed = np.eye(4096) / 4096.0
    return _deviation(encgen._apply_measurement_rules(mixed), np.eye(64) / 64.0)


# the test that each tolerance text names before its bound
_TESTS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "within": operator.le}


def _check(name: str, tolerance: str, observed, shown: str | None = None) -> CheckResult:
    """``observed`` (a tuple, one value per test) tested against each "<test> <bound>"
    of ``tolerance``, so the bounds printed are the bounds enforced; ``shown``
    (default: the values to 6 digits, joined by ", ") is what is printed."""
    tests = re.findall(r"(<=|<|>=|within) ([^\s,]+)", tolerance)
    values = observed if isinstance(observed, tuple) else (observed,)
    if shown is None:
        shown = ", ".join(f"{value:.6g}" for value in values)
    passed = all(_TESTS[test](value, float(bound))
                 for (test, bound), value in zip(tests, values, strict=True))
    return CheckResult(name, tolerance, shown, bool(passed))


def _counting_checks() -> list[CheckResult]:
    return [_check("correctable-state orthogonality", "max off-diagonal < 1e-9",
                   counting_deviation()[1])]


def _closed_form_checks() -> list[CheckResult]:
    dev_ghz = ghz_prep_deviation((0.0, 0.01, 0.05, 0.1))
    dev_dec = perfect_decode_deviation((0.0, 0.005, 0.01), (0.95, 0.99, 1.0), (1, 3))
    unit_grid = (0.0, 0.01, 0.3, 0.7, 0.99, 1.0)  # both ends of [0, 1]
    dev_pair = pair_decode_deviation(unit_grid, unit_grid)
    # beta and F0 over [0, 1], where every Bernstein entry of the stored tables weighs in
    dev_ps = swap_closed_form_deviation((0.0, 0.005, 0.01, 0.05, 0.3, 0.7, 1.0),
                                        (0.0, 0.3, 0.7, 0.9, 0.95, 0.99, 1.0))
    return [
        _check("GHZ preparation closed form vs circuit", "<= 1e-12", dev_ghz),
        _check("perfect-decode closed form vs circuit", "<= 1e-10", dev_dec),
        _check("N = 0 decode closed form vs circuits", "<= 1e-12", dev_pair),
        _check("closed-form p_s vs dense pair", "<= 1e-13 relative", dev_ps),
    ]


# (n, P0) on every branch of z_n: P0 = 1, n = 1, the n = 2 and n = 3 closed
# forms, the tail sum, and the proven asymptote with H_n summed directly
_Z_N_POINTS = ((6, 1.0), (1, 0.37), (2, 0.5), (3, 0.5), (3, 1e-6), (6, 0.37), (24, 0.37),
               (24, 1e-3))


def _waiting_time_checks() -> list[CheckResult]:
    return [_check("z_n vs exact rational alternating sum, every branch", "<= 1e-14 relative",
                   z_n_deviation(_Z_N_POINTS))]


def _fidelity_checks() -> list[CheckResult]:
    worst = first_order_fidelity((1e-3, 5e-3, 1e-2), (0.98, 0.99, 1.0))
    return [_check("first-order vs exact-noise decode (Uhlmann, r=1 grid)", ">= 0.99", worst)]


def _pipeline_checks() -> list[CheckResult]:
    rf = rates.secret_fraction_for(0.0, 1.0, 1)
    sum_dev, lowest = weight_deviations(((0.005, 0.98, 1), (0.01, 0.99, 3), (0.008, 0.98, 7)))
    # the longest name sets the name column; at 55 characters it keeps the column's width
    return [_check("ideal secret fraction", "|r_inf - 1| <= 1e-12", abs(rf - 1.0)),
            _check("pipeline weights (encoded/swapped/decoded): >= 0, sum 1",
                   "|sum - 1| <= 1e-10, min >= -1e-9", (sum_dev, lowest))]


def _full_register_checks() -> list[CheckResult]:
    dev = encoded_pair_register_deviation(0.01, 0.99)
    dev_ps = swap_register_deviation(0.01, 0.99)
    dev_mix = measured_mixed_register_deviation()
    return [
        _check("encoded pair: Pauli frames vs full-register simulation", "<= 1e-12", dev),
        _check("swap success: factorized vs 4096-dim overlap", "<= 1e-10", dev_ps),
        _check("measured maximally mixed register", "== 1/64 within 1e-14", dev_mix),
    ]


def run_checks(full: bool = False) -> list[CheckResult]:
    checks: list[CheckResult] = []
    checks.extend(_counting_checks())
    checks.extend(_closed_form_checks())
    checks.extend(_waiting_time_checks())
    checks.extend(_fidelity_checks())
    checks.extend(_pipeline_checks())
    if full:
        checks.extend(_full_register_checks())
    return checks
