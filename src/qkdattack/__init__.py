"""Security analysis of decoy-state BB84 without phase randomization.

Computes the believed key-rate lower bound of the communicating parties,
the key-rate upper bound imposed by an unambiguous-state-discrimination
plus photon-number-splitting attack, the transmission-loss regions where
the attack succeeds, and Monte Carlo validation of the analytic model.
"""
from .analysis import (
    EmptyRegionError,
    InfeasibleBracketError,
    NoBracketError,
    SuccessRegion,
    SweepRow,
    evaluate_point,
    find_crossover,
    success_region,
    sweep,
)
from .attack import (
    AttackSolution,
    UsdPerformance,
    YieldPlan,
    attack_gains,
    key_rate_upper,
    optimize_yields,
    solve_yield_lp,
    yields_from_plan,
)
from .coherent import (
    SourceConfig,
    build_usd_povm,
    coherent_vector,
    failure_probability,
    poisson_pmf,
    usd_success_linear_optics,
    usd_success_optimal,
)
from .decoy import (
    ChannelParams,
    DecoyEstimates,
    EstimateUndefined,
    GainStats,
    believed_rate,
    binary_entropy,
    key_rate_lower,
    normal_gains,
    observed_gains,
    one_decoy_e1_upper,
    one_decoy_estimates,
    one_decoy_y1_lower,
    total_loss_db,
)
from .montecarlo import (
    StateKind,
    TrialConfig,
    UsdOutcome,
    ingest_stability_series,
    read_stability_csv,
    run_trials,
    sample_pulses,
)

__version__ = "0.1.0"
