"""Key rates, thresholds and resource costs for an encoded quantum repeater.

The package simulates a repeater chain whose elementary links carry Bell
pairs encoded in the three-qubit repetition code: Pauli-frame closed
forms for the noisy encoded-pair generation, the encoded connection and
decoding, six-state secret fractions, waiting-time statistics and the
memory-cost function, a CLI for sweeps and threshold searches, and the
dense density-operator simulation that validates the closed forms.

The rate pipeline and the closed forms of p_s and P_r need the stdlib
alone and are imported here; the swapped and decoded chain state
(``closedform.ChainState``) is imported from its module.  The dense
simulation, which needs numpy and validates the closed forms, is imported
from its own modules (``repeater_keyrate.qstate``, ``channels``,
``encgen``, ``encswap``, ``decode`` and ``validation``), and so is the
record of a Bell-diagonal pair that ``qstate.bell_diag_coeffs`` builds.  So
is the stdlib Pauli-frame core of the encoded pair
(``repeater_keyrate.frames``), which the rate path never imports: its p_s
and its N = 0 decode are stored tables that the tests rebuild from the
frames.  What only an opt-in input needs loads on first use, not here: the
N = 0 decode rows (``repeater_keyrate.repeaterless``) on the first level
scored at N = 0, and the CLI's config reader and help screen
(``repeater_keyrate.cliextra``) when a config file is named or help is
asked for.
"""

__version__ = "0.1.0"

from .closedform import chain_success_prob, swap_success_closed_form
from .rates import (
    CostReport,
    NoThresholdError,
    RateReport,
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
