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
    optimize_yields,
)
from .coherent import (
    SourceConfig,
    build_usd_povm,
    coherent_vector,
    failure_probability,
    usd_success_linear_optics,
    usd_success_optimal,
)
from .decoy import (
    ChannelParams,
    total_loss_db,
)
from .montecarlo import (
    TrialConfig,
    ingest_stability_series,
    run_trials,
)

__version__ = "0.1.0"
