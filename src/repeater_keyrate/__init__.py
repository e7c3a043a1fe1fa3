"""Key rates, thresholds and resource costs for an encoded quantum repeater.

The package simulates a repeater chain whose elementary links carry Bell
pairs encoded in the three-qubit repetition code: exact density-operator
numerics for the noisy encoded-pair generation, closed forms for the
encoded connection and decoding, six-state secret fractions, waiting-time
statistics and the memory-cost function, plus a CLI for sweeps and
threshold searches.

The rate pipeline and its closed forms need the stdlib alone and are
imported here.  The dense simulation, which needs numpy, is imported on
first use of one of its names (:func:`__getattr__`).
"""

import importlib

__version__ = "0.1.0"

from .closedform import (
    BellDiagCoeffs,
    chain_success_prob,
    final_bell_coeffs,
    swap_success_closed_form,
)
from .rates import (
    CostReport,
    NoThresholdError,
    RateReport,
    RepeaterParams,
    cost_coefficient,
    error_rates,
    key_rate,
    min_cost_over_nesting,
    optimize_over_stations,
    secret_fraction_six_state,
    threshold_fidelity,
    threshold_gate_quality,
    transmission_prob,
    z_n,
)

# name -> module of the dense layer, loaded when the name is first read
_DENSE = {
    **dict.fromkeys(("depolarizing_gate", "source_state"), "channels"),
    **dict.fromkeys((
        "decode_circuit", "decode_one_faulty", "decode_perfect", "final_state",
        "rho_tilde_prime", "validate_first_order_vs_exact",
    ), "decode"),
    **dict.fromkeys((
        "encoded_bell_state", "encoded_pair", "encoded_pair_direct", "ghz_prep",
        "ghz_prep_circuit", "teleported_cnot_sequence",
    ), "encgen"),
    **dict.fromkeys((
        "ComboCounts", "CorrectableStateSet", "ErrorPair", "PauliCombo", "correctable_states",
        "enumerate_combos", "rho_s", "swap_success_prob", "swapped_state_nonideal",
    ), "encswap"),
    **dict.fromkeys((
        "DensityOperator", "GatePlacement", "GateSequence", "PureState", "bell_diag_coeffs",
        "bell_state", "ghz_state", "ket", "overlap", "uhlmann_fidelity",
    ), "qstate"),
}


def __getattr__(name: str):
    if name not in _DENSE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DENSE[name]}", __name__), name)
    globals()[name] = value
    return value
