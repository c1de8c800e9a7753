"""Catalysis-assisted entanglement distribution over repeater chains.

Schmidt-spectrum majorization algebra, optimal catalyst construction,
analytic timing and rate models for an N-edge chain with auxiliary-path
catalyst supply, and Monte Carlo simulators validating the analytics.
"""

from .catalysis import (
    CatalystSpec,
    ConcentrationProblem,
    catalysis_probability,
    copies_for_catalyst,
    efficiency_ratio,
    in_catalysis_window,
    initial_spectrum,
    intermediate_state,
    locc_probability,
    n_star,
    optimal_catalyst,
    optimal_two_qubit_catalyst,
    search_catalyst,
    search_catalysts,
    target_spectrum,
)
from .errors import (
    CatalysisWindowError,
    InvalidInputError,
    NumericFailureError,
    ResourceLimitError,
)
from .network import (
    AUX_RICH,
    FINITE_AUX,
    NO_AUX,
    AuxConfig,
    AuxPath,
    EdgeParams,
    SweepRow,
    TimingBreakdown,
    alpha_from_transmittivities,
    edge_catalyst,
    rate_catalytic,
    rate_slotted,
    sweep_rates,
    t_catalyst,
    t_edge_cycle,
    t_primary,
    waiting_factor,
    waiting_factor_small_p,
    write_sweep_csv,
)
from .simulate import (
    SimConfig,
    SimResult,
    run_simulation,
    simulate_abstract,
    simulate_detailed,
    validate_waiting_factor,
)
from .spectra import (
    SchmidtVector,
    can_convert_deterministically,
    conversion_probability,
    make_schmidt,
    monotones,
    tensor_product,
    two_qubit_state,
)

__version__ = "0.1.0"
