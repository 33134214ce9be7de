"""Loss sweeps, crossover root-finding, and attack-success regions.

Evaluates the believed key-rate lower bound and the attack-imposed upper
bound across overall transmission loss, locates where they cross, and
extracts the loss window in which the attack succeeds (bounds reproduce the
expected statistics, the believed rate exceeds the attacked bound, and the
believed rate is positive so the parties do not abort).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .attack import (DEFAULT_N_TRUNC, GAIN_CEILING_MARGIN, TRUNC_TAIL_TOL, UsdPerformance,
                     _yield_lp, key_rate_upper, optimize_yields)
from .coherent import SourceConfig, _poisson_weights
from .decoy import ChannelParams, believed_rate, normal_gains

#: Root-finding resolution in dB.
RESOLUTION_DB = 0.01

#: Grid quantum for sweep losses; keeps refined grids exactly aligned.
_MICRO_DB = 1e-6

#: Within this relative margin of a tie |R_l - R_u| HiGHS decides a region or
#: crossover probe: there the exact R_u and HiGHS's agree to about 1e-5.
_TIE_BAND = 1e-4


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


def _yield_geometry(mu: float, nu: float, usd: UsdPerformance, n_trunc: int):
    """(free zonotope, full zonotope, [g_a g_b]) of the gains the yield columns reach.

    Per setting: no loss enters it. A column adds [0, 1] * (its coefficients in
    attack._yield_lp's gain rows). Those the objective Y_1^s costs, Z_1^mu and Z_1^nu with
    generators g_a and g_b, are not free. A zonotope is (vertices counterclockwise from the
    origin, two normal bounds, support values), both with margin GAIN_CEILING_MARGIN, the
    solver's own. None when n_trunc < 1, q_mu or q_nu is 0 or the truncation tail exceeds
    TRUNC_TAIL_TOL: such points reach optimize_yields, which alone raises or warns of it."""
    tail = _poisson_weights(mu, n_trunc)[1] if n_trunc >= 1 else math.inf
    if tail > TRUNC_TAIL_TOL or not usd.q_mu * usd.q_nu > 0.0:
        return None
    rows, c, _ = _yield_lp(mu, nu, usd.q_mu, usd.q_nu, usd.xi_mu, usd.xi_nu, n_trunc)
    g = rows[:2].T.copy()  # one generator a row, columns Z^mu then Z^nu
    used = (g > 0.0).any(axis=1)
    free = used & (c == 0.0)

    def zonotope(mask):
        # the generators by rising slope, then the same negated, walk the boundary
        rising = g[mask][np.argsort(np.arctan2(g[mask, 1], g[mask, 0]), kind="stable")]
        edges = np.concatenate([rising, -rising])
        vertices = np.cumsum(edges, axis=0) - edges
        # outward edge normals n, then the axes; over the box p * [1 - m, 1 + m]
        # n reaches at most (n + m|n|) p and at least (n - m|n|) p
        n = np.concatenate([edges[:, ::-1] * [1.0, -1.0], np.eye(2)])
        m = GAIN_CEILING_MARGIN * np.abs(n)
        return vertices, n + m, n - m, (n @ vertices.T).max(axis=1)

    return zonotope(free), zonotope(used), g[[0, n_trunc]].T


def _side(zonotope, p: np.ndarray) -> int:
    """1 if the box p * [1 - m, 1 + m] of the zonotope's margin m lies inside it, -1
    if one of its normals separates them (so they are disjoint), else 0."""
    _, most, least, support = zonotope
    return 1 if (most @ p < support).all() else -1 if (least @ p > support).any() else 0


def _clip(poly: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Part of a convex polygon (vertices in order) where s, affine, given at them, is <= 0."""
    s_next, after = np.concatenate([s[1:], s[:1]]), np.concatenate([poly[1:], poly[:1]])
    cross = np.sign(s) * np.sign(s_next) < 0.0
    t = (s / np.where(cross, s - s_next, 1.0))[:, None]
    return np.stack([poly, poly + t * (after - poly)], 1)[np.stack([s <= 0.0, cross], 1)]


def evaluate_point(
    cfg: SourceConfig,
    usd: UsdPerformance,
    ch: ChannelParams,
    n_trunc: int = DEFAULT_N_TRUNC,
    enforce_errors: bool = False,
) -> SweepRow:
    """Both bounds and the success verdict at one channel point, labelled ch.loss_db.

    The one row of an _evaluator built for the setting: the setting's yield geometry decides
    infeasible and R^u = 0 points from the point's normal gains; a positive R^u, and every
    point left undecided, come from optimize_yields."""
    return _evaluator(cfg, usd, n_trunc, enforce_errors)(ch, ch.loss_db)


def _evaluator(cfg, usd, n_trunc, enforce_errors, flags_only=False):
    """row(ch, loss_db): evaluate_point's row at channel point ch, labelled loss_db.

    Per setting, once: the yield geometry, P_1^mu, the largest signal gain of the free
    zonotope Z', and whether the USD is ideal and its (u, v) square needs clipping. Measured USD
    with errors enforced gets no geometry, as its error rows bind. Per point: R_l and the
    normal gains T. T in Z' costs nothing; outside the full zonotope no plan reaches it.
    Between, P_1^mu Y1_s = g_a,x u + g_b,x v is least at a vertex of {u, v in [0, 1]: T -
    u g_a - v g_b in Z'}; for ideal USD it is Q_mu - q_mu sum_{i>=2} P_i^mu. HiGHS gives a
    printed row's positive R^u and decides near either boundary, for a gain not finite or
    Q_mu <= 0, and where g_a and g_b are free or near parallel. Q_nu = 0 < Q_mu lies inside
    no zonotope. A flags_only row takes a positive R^u from the geometry away from a tie:
    its flags are evaluate_point's; its r_upper, printed only in NoBracketError, may not be."""
    ideal = usd.xi_mu == usd.xi_nu == 1.0
    clip = 0.5 < usd.xi_mu < 1.0 and usd.xi_nu > 0.5
    geometry = None if enforce_errors and not ideal else _yield_geometry(
        cfg.mu, cfg.nu, usd, n_trunc)
    if geometry is not None:
        (free, full, costly), p_1 = geometry, _poisson_weights(cfg.mu, n_trunc)[0][0]
        reach = free[0][:, 0].max() if ideal else math.nan  # nan ends in None

    def exact(ch):
        """(feasible, Y1_s) from the geometry at ch, or None to leave it to HiGHS."""
        target = normal_gains(cfg, ch)
        t = np.array([target.q_mu_gain, target.q_nu_gain])
        if t[0] <= 0.0 or not all(np.isfinite(t)):
            return None
        zero = _side(free, t)
        if zero >= 0:
            return (True, 0.0) if zero else None
        feasible = _side(full, t)
        if feasible <= 0:
            return (False, None) if feasible else None
        cost = t[0] - reach
        if clip:
            uv = np.linalg.solve(costly, (t - free[0]).T).T
            for axis in (0, 1):
                uv = _clip(uv, -uv[:, axis])
                uv = _clip(uv, uv[:, axis] - 1.0)
            cost = np.min(uv @ costly[0], initial=math.inf)
        y1s = float(cost / p_1)
        return (True, y1s) if 0.0 < y1s <= 1.0 else None

    def row(ch, loss_db):
        r_low, gains, _ = believed_rate(cfg, ch)
        feasible, y1s = geometry and exact(ch) or (None, None)
        r_up = None if y1s is None else key_rate_upper(cfg, y1s)
        # HiGHS meets the unit-scaled signal-gain row to 1e-7, moving its R_u by that share of Q_mu
        if feasible is None or y1s and (not flags_only or abs(r_low - r_up) <= (
                _TIE_BAND * max(abs(r_low), r_up) + GAIN_CEILING_MARGIN * gains.q_mu_gain)):
            sol = optimize_yields(cfg, usd, ch, n_trunc=n_trunc, enforce_errors=enforce_errors)
            feasible, r_up = sol.feasible, sol.rate_upper
        success = feasible and r_up is not None and r_low > r_up and r_low > 0.0
        return SweepRow(
            loss_db=loss_db,
            eta=ch.eta,
            q_mu_gain=gains.q_mu_gain,
            r_lower=r_low,
            r_upper=r_up,
            feasible=feasible,
            attack_success=success,
        )

    return row


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
    point whose evaluation fails raises its error, as evaluate_point does.
    """
    losses = [units * _MICRO_DB for units in loss_grid(loss_start_db, loss_end_db, step_db)]
    row = _evaluator(cfg, usd, n_trunc, enforce_errors)
    return [row(ch_base.at_loss_db(loss), loss) for loss in losses]


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
    gap must change sign across them (NoBracketError otherwise). Every row
    it reads, endpoints included, is a search row (_evaluator's flags_only); the
    two gaps in NoBracketError's message come from those rows.
    """
    if not bracket_lo_db < bracket_hi_db:
        raise ValueError("bracket_lo_db must be below bracket_hi_db")
    row = _evaluator(cfg, usd, n_trunc, enforce_errors, flags_only=True)
    at_lo, at_hi = (row(ch_base.at_loss_db(L), L) for L in (bracket_lo_db, bracket_hi_db))
    bad = [r.loss_db for r in (at_lo, at_hi) if not r.feasible]
    if bad:
        raise InfeasibleBracketError(
            f"no feasible attack at bracket endpoint(s) {bad} dB"
        )
    g_lo, g_hi = (r.r_lower - r.r_upper for r in (at_lo, at_hi))
    if (g_lo > 0) == (g_hi > 0):
        raise NoBracketError(
            f"r_lower - r_upper has the same sign at {bracket_lo_db} dB "
            f"({g_lo:.3e}) and {bracket_hi_db} dB ({g_hi:.3e})"
        )
    # an infeasible point has no attainable upper bound, so it sits on the
    # attack-failing side of the crossing (gap effectively -inf)
    crossover, _ = _bisect(
        row, ch_base, lambda r: r.feasible and r.r_lower - r.r_upper > 0,
        bracket_lo_db, bracket_hi_db, at_hi,
    )
    return crossover


def _bisect(row, ch_base, flag, lo: float, hi: float, at_hi) -> tuple[float, SweepRow]:
    """Boundary of flag(row(ch_base at loss, loss)), which holds at lo exactly when not at hi.

    at_hi is the SweepRow at hi. Returns (midpoint, row at the final hi); the final
    endpoints keep the flags the initial ones had.
    """
    lo_flag = not flag(at_hi)
    while hi - lo > RESOLUTION_DB:
        mid = 0.5 * (lo + hi)
        at_mid = row(ch_base.at_loss_db(mid), mid)
        if flag(at_mid) == lo_flag:
            lo = mid
        else:
            hi, at_hi = mid, at_mid
    return 0.5 * (lo + hi), at_hi


def success_region(
    cfg: SourceConfig,
    usd: UsdPerformance,
    ch_base: ChannelParams,
    sweep_range: tuple[float, float, float],
    n_trunc: int = DEFAULT_N_TRUNC,
    enforce_errors: bool = False,
) -> SuccessRegion:
    """Loss window where the attack succeeds, endpoints at 0.01 dB.

    Scans loss_grid(*sweep_range), then bisects the success predicate at
    each boundary of the first success window found, all on _evaluator's
    flags_only rows. EmptyRegionError is raised when no grid point
    succeeds, and a point's failure propagates.
    """
    start, end, step = sweep_range
    losses = [units * _MICRO_DB for units in loss_grid(start, end, step)]
    row = _evaluator(cfg, usd, n_trunc, enforce_errors, flags_only=True)
    rows = [row(ch_base.at_loss_db(loss), loss) for loss in losses]
    flags = [r.attack_success for r in rows]
    if not any(flags):
        raise EmptyRegionError(
            f"no attack-success point in [{start}, {end}] dB at step {step}"
        )

    succeeds = attrgetter("attack_success")
    first = flags.index(True)
    if first == 0:
        lower = rows[0].loss_db
    else:
        lower, _ = _bisect(
            row, ch_base, succeeds, rows[first - 1].loss_db, rows[first].loss_db, rows[first]
        )

    after = next((j for j in range(first + 1, len(rows)) if not flags[j]), None)
    if after is None:
        return SuccessRegion(lower_db=lower, upper_db=None, upper_mechanism=None)
    upper, failing = _bisect(
        row, ch_base, succeeds, rows[after - 1].loss_db, rows[after].loss_db, rows[after]
    )

    # classify what breaks the success predicate just above the endpoint
    if not failing.feasible:
        mechanism = "infeasible"
    elif failing.r_lower <= 0.0:
        mechanism = "rate_abort"
    else:
        mechanism = "bound_recross"
    return SuccessRegion(lower_db=lower, upper_db=upper, upper_mechanism=mechanism)
