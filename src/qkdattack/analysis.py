"""Loss sweeps, crossover root-finding, and attack-success regions.

Evaluates the believed key-rate lower bound and the attack-imposed upper
bound across overall transmission loss, locates where they cross, and
extracts the loss window in which the attack succeeds (bounds reproduce the
expected statistics, the believed rate exceeds the attacked bound, and the
believed rate is positive so the parties do not abort).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

from .attack import DEFAULT_N_TRUNC, UsdPerformance, optimize_yields
from .coherent import SourceConfig
from .decoy import ChannelParams, believed_rate

#: Root-finding resolution in dB.
RESOLUTION_DB = 0.01

#: Grid quantum for sweep losses; keeps refined grids exactly aligned.
_MICRO_DB = 1e-6


class NoBracketError(ValueError):
    """The crossover bracket does not straddle a sign change."""


class InfeasibleBracketError(ValueError):
    """A crossover bracket endpoint has no feasible attack."""


class EmptyRegionError(ValueError):
    """No attack-success point exists in the swept range."""


@dataclass(frozen=True)
class SweepRow:
    """Bounds and flags at one loss point.

    r_upper is None when the attack cannot reproduce the expected
    statistics (infeasible); q_mu_gain is the receiver's observed signal
    gain entering the believed rate.
    """

    loss_db: float
    eta: float
    q_mu_gain: float
    r_lower: float
    r_upper: float | None
    feasible: bool
    attack_success: bool

    def __post_init__(self):
        if self.attack_success:
            if not (self.feasible and self.r_upper is not None
                    and self.r_lower > self.r_upper and self.r_lower > 0):
                raise ValueError("attack_success requires feasible, "
                                 "r_lower > r_upper and r_lower > 0")


@dataclass(frozen=True)
class SuccessRegion:
    """Loss window of successful attack, endpoints at 0.01 dB resolution.

    upper_db is None when success persists to the end of the swept range.
    upper_mechanism names what terminates the region from above:
    "bound_recross" (upper bound climbs back over the believed rate),
    "rate_abort" (believed rate drops to zero or below), or "infeasible".
    """

    lower_db: float
    upper_db: float | None = None
    upper_mechanism: str | None = None

    def __post_init__(self):
        if self.upper_db is not None and not self.lower_db < self.upper_db:
            raise ValueError("require lower_db < upper_db")


def evaluate_point(
    cfg: SourceConfig,
    usd: UsdPerformance,
    ch: ChannelParams,
    n_trunc: int = DEFAULT_N_TRUNC,
    enforce_errors: bool = False,
) -> SweepRow:
    """Both bounds and the success verdict at one channel point."""
    r_low, gains, _ = believed_rate(cfg, ch)
    sol = optimize_yields(cfg, usd, ch, n_trunc=n_trunc, enforce_errors=enforce_errors)
    success = (
        sol.feasible and sol.rate_upper is not None
        and r_low > sol.rate_upper and r_low > 0.0
    )
    return SweepRow(
        loss_db=ch.loss_db,
        eta=ch.eta,
        q_mu_gain=gains.q_mu_gain,
        r_lower=r_low,
        r_upper=sol.rate_upper,
        feasible=sol.feasible,
        attack_success=success,
    )


def loss_grid(loss_start_db: float, loss_end_db: float, step_db: float) -> range:
    """Sweep losses start, start + step, ... up to and including end.

    The range holds integer units of 1e-6 dB (loss = units * 1e-6), so
    refined grids share points exactly. An empty range, a step below or
    off that quantum, or a value not finite in those units raises ValueError.
    """
    if loss_start_db > loss_end_db:
        raise ValueError(
            f"loss_start_db must be <= loss_end_db, got "
            f"{loss_start_db} > {loss_end_db}"
        )
    if step_db <= 0:
        raise ValueError(f"step_db must be positive, got {step_db}")
    if step_db < _MICRO_DB:
        raise ValueError(f"step_db must be at least {_MICRO_DB} dB, got {step_db}")
    given = {"loss_start_db": loss_start_db, "loss_end_db": loss_end_db, "step_db": step_db}
    for name, value in given.items():
        if not math.isfinite(value / _MICRO_DB):
            raise ValueError(f"{name} must be finite in {_MICRO_DB} dB units, got {value}")
    start_u, end_u, step_u = (round(v / _MICRO_DB) for v in given.values())
    if abs(step_u * _MICRO_DB - step_db) > 1e-9 * step_db:
        raise ValueError(f"step_db must be a multiple of {_MICRO_DB} dB, got {step_db}")
    return range(start_u, end_u + 1, step_u)


def sweep(
    cfg: SourceConfig,
    usd: UsdPerformance,
    ch_base: ChannelParams,
    loss_start_db: float,
    loss_end_db: float,
    step_db: float,
    n_trunc: int = DEFAULT_N_TRUNC,
    enforce_errors: bool = False,
) -> list[SweepRow]:
    """Evaluate both bounds on loss_grid(loss_start_db, loss_end_db, step_db).

    Rows are ordered by loss. ch_base supplies the background and
    misalignment parameters; its eta is replaced per point. Per-point
    evaluation is pure, so rows depend only on their own loss value. A
    point whose evaluation fails becomes an infeasible row (r_lower NaN)
    instead of aborting the sweep; a source without a decoy intensity
    (nu = 0) fails at every point, so it raises ValueError before the loop.
    """
    grid = loss_grid(loss_start_db, loss_end_db, step_db)
    if cfg.nu <= 0.0:
        raise ValueError(f"sweep needs a decoy intensity nu > 0, got {cfg.nu}")
    point = _evaluator(cfg, usd, ch_base, n_trunc, enforce_errors)
    rows = []
    for units in grid:
        loss = units * _MICRO_DB
        try:
            row = point(loss)
        except (ValueError, RuntimeError, ArithmeticError):
            row = SweepRow(
                loss_db=loss, eta=ch_base.at_loss_db(loss).eta, q_mu_gain=float("nan"),
                r_lower=float("nan"), r_upper=None,
                feasible=False, attack_success=False,
            )
        rows.append(row)
    return rows


def find_crossover(
    cfg: SourceConfig,
    usd: UsdPerformance,
    ch_base: ChannelParams,
    bracket_lo_db: float,
    bracket_hi_db: float,
    n_trunc: int = DEFAULT_N_TRUNC,
    enforce_errors: bool = False,
) -> float:
    """Loss where the believed rate crosses the attacked upper bound.

    Bisects r_lower - r_upper to 0.01 dB inside the given bracket. Both
    endpoints must be feasible (InfeasibleBracketError otherwise) and the
    gap must change sign across them (NoBracketError otherwise).
    """
    if not bracket_lo_db < bracket_hi_db:
        raise ValueError("bracket_lo_db must be below bracket_hi_db")
    point = _evaluator(cfg, usd, ch_base, n_trunc, enforce_errors)
    lo_row, hi_row = point(bracket_lo_db), point(bracket_hi_db)
    bad = [L for L, r in ((bracket_lo_db, lo_row), (bracket_hi_db, hi_row))
           if not r.feasible]
    if bad:
        raise InfeasibleBracketError(
            f"no feasible attack at bracket endpoint(s) {bad} dB"
        )
    g_lo, g_hi = (r.r_lower - r.r_upper for r in (lo_row, hi_row))
    if (g_lo > 0) == (g_hi > 0):
        raise NoBracketError(
            f"r_lower - r_upper has the same sign at {bracket_lo_db} dB "
            f"({g_lo:.3e}) and {bracket_hi_db} dB ({g_hi:.3e})"
        )
    # an infeasible point has no attainable upper bound, so it sits on the
    # attack-failing side of the crossing (gap effectively -inf)
    crossover, _ = _bisect(
        point, lambda r: r.feasible and r.r_lower - r.r_upper > 0,
        bracket_lo_db, bracket_hi_db, hi_row,
    )
    return crossover


def _evaluator(cfg, usd, ch_base, n_trunc, enforce_errors):
    """point(loss): evaluate_point at that loss, labelled with it, not its eta round trip."""
    return lambda loss: replace(evaluate_point(
        cfg, usd, ch_base.at_loss_db(loss), n_trunc=n_trunc, enforce_errors=enforce_errors
    ), loss_db=loss)


def _bisect(point, flag, lo: float, hi: float, hi_row: SweepRow) -> tuple[float, SweepRow]:
    """Boundary of flag(point(loss)), which holds at lo exactly when not at hi.

    hi_row is point(hi). Returns (midpoint, row at the final hi); the final
    endpoints keep the flags the initial ones had.
    """
    lo_flag = not flag(hi_row)
    while hi - lo > RESOLUTION_DB:
        mid = 0.5 * (lo + hi)
        row = point(mid)
        if flag(row) == lo_flag:
            lo = mid
        else:
            hi, hi_row = mid, row
    return 0.5 * (lo + hi), hi_row


def success_region(
    cfg: SourceConfig,
    usd: UsdPerformance,
    ch_base: ChannelParams,
    sweep_range: tuple[float, float, float],
    n_trunc: int = DEFAULT_N_TRUNC,
    enforce_errors: bool = False,
) -> SuccessRegion:
    """Loss window where the attack succeeds, endpoints at 0.01 dB.

    Scans the range at the given step, then bisects the success predicate
    at each boundary of the first success window found. EmptyRegionError
    is raised when no grid point succeeds.
    """
    start, end, step = sweep_range
    rows = sweep(
        cfg, usd, ch_base, start, end, step,
        n_trunc=n_trunc, enforce_errors=enforce_errors,
    )
    flags = [r.attack_success for r in rows]
    if not any(flags):
        raise EmptyRegionError(
            f"no attack-success point in [{start}, {end}] dB at step {step}"
        )

    point = _evaluator(cfg, usd, ch_base, n_trunc, enforce_errors)
    succeeds = attrgetter("attack_success")
    first = flags.index(True)
    if first == 0:
        lower = rows[0].loss_db
    else:
        lower, _ = _bisect(
            point, succeeds, rows[first - 1].loss_db, rows[first].loss_db, rows[first]
        )

    after = next((j for j in range(first + 1, len(rows)) if not flags[j]), None)
    if after is None:
        return SuccessRegion(lower_db=lower, upper_db=None, upper_mechanism=None)
    upper, failing = _bisect(
        point, succeeds, rows[after - 1].loss_db, rows[after].loss_db, rows[after]
    )

    # classify what breaks the success predicate just above the endpoint
    if not failing.feasible:
        mechanism = "infeasible"
    elif failing.r_lower <= 0.0:
        mechanism = "rate_abort"
    else:
        mechanism = "bound_recross"
    return SuccessRegion(lower_db=lower, upper_db=upper, upper_mechanism=mechanism)
