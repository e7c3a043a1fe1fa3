"""Key rates, thresholds and resource costs for an encoded quantum repeater.

The package simulates a repeater chain whose elementary links carry Bell
pairs encoded in the three-qubit repetition code: exact density-operator
numerics for the noisy encoded-pair generation, closed forms for the
encoded connection and decoding, six-state secret fractions, waiting-time
statistics and the memory-cost function, plus a CLI for sweeps and
threshold searches.
"""

__version__ = "0.1.0"

from .channels import (
    concat_first_order,
    depolarizing_gate,
    source_state,
)
from .decode import (
    ModelBreakdownError,
    decode_circuit,
    decode_nonideal,
    decode_one_faulty,
    decode_perfect,
    final_state,
    rho_tilde_prime,
    validate_first_order_vs_exact,
)
from .encgen import (
    EncodingCircuit,
    encoded_bell_state,
    encoded_pair,
    encoded_pair_direct,
    ghz_prep,
    ghz_prep_circuit,
    teleported_cnot_sequence,
)
from .encswap import (
    ComboCounts,
    CorrectableStateSet,
    ErrorPair,
    PauliCombo,
    chain_success_prob,
    correctable_states,
    enumerate_combos,
    rho_s,
    swap_success_prob,
    swapped_state_nonideal,
)
from .qstate import (
    BellDiagCoeffs,
    DensityOperator,
    GatePlacement,
    GateSequence,
    PureState,
    apply_gate,
    bell_diag_coeffs,
    bell_state,
    ghz_state,
    ket,
    maximally_mixed,
    overlap,
    uhlmann_fidelity,
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
    repeater_rate_qec,
    secret_fraction_six_state,
    threshold_fidelity,
    threshold_gate_quality,
    transmission_prob,
    z_n,
)
