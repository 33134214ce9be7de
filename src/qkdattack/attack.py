"""Interceptor-side model: conditional yields, statistics-preserving
constraints, and the key-rate upper bound.

The attacker discriminates signal from decoy on each pulse (succeeding with
probability q_mu / q_nu and, given success, naming the right state with
probability xi_mu / xi_nu), measures the photon number, and forwards over a
lossless link with a per-photon-number yield of her choosing. Choosing the
yields to reproduce the normal channel's detection statistics while
minimizing the single-photon signal yield is a linear program; its optimum
gives the key-rate upper bound R^u = Y1_s * mu * e^(-mu).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linprog

from .coherent import (
    SourceConfig,
    _poisson_weights,
    usd_success_optimal,
)
from .decoy import ChannelParams, GainStats, normal_gains

#: Photon-number truncation default; Poisson tail for means <= 1 is < 1e-18.
DEFAULT_N_TRUNC = 20

#: Truncation tail mass above which optimize_yields warns.
TRUNC_TAIL_TOL = 1e-12

#: Relative shortfall of a gain row's ceiling below its target beyond which
#: solve_yield_lp reports infeasible without calling the solver. It is 10x
#: HiGHS's primal feasibility tolerance (1e-7) on the unit right-hand-side
#: rows the solver sees, so HiGHS cannot accept such a point either.
GAIN_CEILING_MARGIN = 1e-6


@dataclass(frozen=True)
class UsdPerformance:
    """Discrimination quality of the attacker's USD measurement.

    q_mu / q_nu: conclusive-outcome probability given a signal / decoy pulse.
    xi_mu / xi_nu: probability the conclusive outcome names the sent state.
    """

    q_mu: float
    q_nu: float
    xi_mu: float = 1.0
    xi_nu: float = 1.0

    def __post_init__(self):
        for name in ("q_mu", "q_nu", "xi_mu", "xi_nu"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    def validate_against(self, cfg: SourceConfig) -> None:
        """Check the success probabilities against the optimal-USD ceiling.

        A 1% relative allowance tolerates probabilities quoted to a few
        significant figures.
        """
        cap = usd_success_optimal(cfg)
        for name, v in (("q_mu", self.q_mu), ("q_nu", self.q_nu)):
            if v > cap * 1.01 + 1e-12:
                raise ValueError(
                    f"{name}={v} exceeds the optimal USD ceiling {cap:.6g} "
                    f"for this source"
                )


@dataclass(frozen=True)
class YieldPlan:
    """Attacker's per-photon-number forwarding yields.

    z_mu[i-1] / z_nu[i-1] is the yield for an i-photon pulse after a
    conclusive signal / decoy outcome, i = 1..n_trunc. Vacuum outcomes and
    inconclusive outcomes are never forwarded (those yields are
    structurally zero and not stored).
    """

    n_trunc: int
    z_mu: np.ndarray
    z_nu: np.ndarray

    def __post_init__(self):
        z_mu = np.asarray(self.z_mu, dtype=float)
        z_nu = np.asarray(self.z_nu, dtype=float)
        if self.n_trunc < 1:
            raise ValueError(f"n_trunc must be >= 1, got {self.n_trunc}")
        if z_mu.shape != (self.n_trunc,) or z_nu.shape != (self.n_trunc,):
            raise ValueError(
                f"yield vectors must have shape ({self.n_trunc},), got "
                f"{z_mu.shape} and {z_nu.shape}"
            )
        if np.any(z_mu < 0) or np.any(z_mu > 1) or np.any(z_nu < 0) or np.any(z_nu > 1):
            raise ValueError("all yields must lie in [0, 1]")
        object.__setattr__(self, "z_mu", z_mu)
        object.__setattr__(self, "z_nu", z_nu)


@dataclass(frozen=True)
class AttackSolution:
    """Outcome of the yield LP, and of the optimization built on it.

    z is the raw stacked [z_mu, z_nu] before clamping and objective its
    Y_1^s; solve_yield_lp fills only these. optimize_yields adds the
    clamped plan, its Y_1^s, R^u and the constraint residuals. When the
    statistics cannot be reproduced, feasible is False and the remaining
    fields are empty; that is a normal outcome, not an error.
    """

    feasible: bool
    z: np.ndarray | None = None
    objective: float | None = None
    plan: YieldPlan | None = None
    y1_signal: float | None = None
    rate_upper: float | None = None
    constraint_residuals: dict[str, float] = field(default_factory=dict)


def _plan_yields(usd: UsdPerformance, plan: YieldPlan) -> tuple[np.ndarray, np.ndarray]:
    """Receiver-visible yields Y_i^s, Y_i^d implied by a plan, i = 1..n_trunc.

    Y_i^s = q_mu [xi_mu Z_i^mu + (1 - xi_mu) Z_i^nu]
    Y_i^d = q_nu [xi_nu Z_i^nu + (1 - xi_nu) Z_i^mu]
    """
    return (
        usd.q_mu * (usd.xi_mu * plan.z_mu + (1.0 - usd.xi_mu) * plan.z_nu),
        usd.q_nu * (usd.xi_nu * plan.z_nu + (1.0 - usd.xi_nu) * plan.z_mu),
    )


def attack_gains(cfg: SourceConfig, usd: UsdPerformance, plan: YieldPlan) -> GainStats:
    """Detection statistics the receiver sees under the attack.

    Gains are the Poisson-weighted sums of the plan-implied yields over
    i = 1..n_trunc. Error products count only misidentified forwardings,
    each wrong with probability 1/2:
    E_mu Q_mu = sum_i (1/2) q_mu (1 - xi_mu) Z_i^nu P_i^mu, and symmetrically
    for the decoy intensity.
    """
    p_mu, _ = _poisson_weights(cfg.mu, plan.n_trunc)
    p_nu, _ = _poisson_weights(cfg.nu, plan.n_trunc)
    y_s, y_d = _plan_yields(usd, plan)
    return GainStats(
        q_mu_gain=float(p_mu @ y_s),
        q_nu_gain=float(p_nu @ y_d),
        emu_qmu=float(0.5 * usd.q_mu * (1.0 - usd.xi_mu) * (p_mu @ plan.z_nu)),
        enu_qnu=float(0.5 * usd.q_nu * (1.0 - usd.xi_nu) * (p_nu @ plan.z_mu)),
    )


def solve_yield_lp(
    mu: float,
    nu: float,
    q_mu: float,
    q_nu: float,
    xi_mu: float,
    xi_nu: float,
    n_trunc: int,
    target_mu: float,
    target_nu: float,
    error_budget_mu: float | None = None,
    error_budget_nu: float | None = None,
) -> AttackSolution:
    """Minimize the single-photon signal yield subject to gain equalities.

    Variables are Z_i^mu, Z_i^nu in [0, 1] for i = 1..n_trunc. The gain
    equalities pin the Poisson-weighted yields to target_mu and target_nu;
    when error budgets are given, the misidentification error products are
    additionally constrained below them. Rows are rescaled to unit right
    hand side before calling the solver (raw coefficients span many orders
    of magnitude at high loss).

    The objective is Y_1^s = q_mu [xi_mu Z_1^mu + (1 - xi_mu) Z_1^nu].

    A gain row can reach at most the sum of its positive coefficients over
    the yield box. When that ceiling falls short of a positive target by
    more than GAIN_CEILING_MARGIN, the point is reported infeasible without
    calling the solver.
    """
    # rows: signal / decoy intensity; columns: Z^mu / Z^nu
    mix = np.array([[q_mu * xi_mu, q_mu * (1.0 - xi_mu)],
                    [q_nu * (1.0 - xi_nu), q_nu * xi_nu]])
    tables, b = [mix], [target_mu, target_nu]
    if error_budget_mu is not None or error_budget_nu is not None:
        if error_budget_mu is None or error_budget_nu is None:
            raise ValueError("error budgets must be given for both intensities")
        # only misidentified forwardings err, each with probability 1/2
        tables.append([[0.0, 0.5 * q_mu * (1.0 - xi_mu)],
                       [0.5 * q_nu * (1.0 - xi_nu), 0.0]])
        b += [error_budget_mu, error_budget_nu]
    p = np.array([_poisson_weights(mu, n_trunc)[0], _poisson_weights(nu, n_trunc)[0]])
    a = (np.array(tables)[..., None] * p[:, None, :]).reshape(len(b), 2 * n_trunc)
    b = np.array(b)
    c = np.zeros(2 * n_trunc)
    c[[0, n_trunc]] = mix[0]  # Y_1^s
    s = np.where(b > 0, b, 1.0)
    a_s, b_s = a / s[:, None], b / s

    ceiling = np.clip(a[:2], 0.0, None).sum(axis=1)
    short = (b[:2] > 0.0) & (ceiling < b[:2] * (1.0 - GAIN_CEILING_MARGIN))
    # non-finite inputs still go to linprog, which rejects them with ValueError
    if short.any() and all(np.isfinite(x).all() for x in (c, a_s, b_s)):
        return AttackSolution(feasible=False)

    res = linprog(c, A_ub=a_s[2:], b_ub=b_s[2:], A_eq=a_s[:2], b_eq=b_s[:2],
                  bounds=[(0.0, 1.0)] * (2 * n_trunc), method="highs")
    if res.status == 2:
        return AttackSolution(feasible=False)
    if not res.success:
        raise RuntimeError(f"yield LP solver failed (status {res.status}): {res.message}")
    return AttackSolution(feasible=True, z=res.x.copy(), objective=float(c @ res.x))


def optimize_yields(
    cfg: SourceConfig,
    usd: UsdPerformance,
    ch: ChannelParams,
    n_trunc: int = DEFAULT_N_TRUNC,
    enforce_errors: bool = False,
) -> AttackSolution:
    """Best statistics-preserving attack at one channel point.

    Solves the yield LP against the normal-channel gains of
    decoy.normal_gains, optionally also enforcing its error products as
    budgets, and reports the optimal plan with its Y_1^s and R^u.
    Infeasibility (the attacker cannot reproduce the expected statistics at
    this loss) is reported via feasible=False.
    """
    _, tail = _poisson_weights(cfg.mu, n_trunc)
    if tail > TRUNC_TAIL_TOL:
        warnings.warn(
            f"photon-number truncation {n_trunc} leaves Poisson tail "
            f"{tail:.3e} > {TRUNC_TAIL_TOL:.1e} for mean {cfg.mu}",
            stacklevel=2,
        )
    target = normal_gains(cfg, ch)
    sol = solve_yield_lp(
        cfg.mu, cfg.nu, usd.q_mu, usd.q_nu, usd.xi_mu, usd.xi_nu,
        n_trunc, target.q_mu_gain, target.q_nu_gain,
        *((target.emu_qmu, target.enu_qnu) if enforce_errors else (None, None)),
    )
    if not sol.feasible:
        return sol

    plan = YieldPlan(
        n_trunc,
        np.clip(sol.z[:n_trunc], 0.0, 1.0),
        np.clip(sol.z[n_trunc:], 0.0, 1.0),
    )
    achieved = attack_gains(cfg, usd, plan)
    residuals = {
        "gain_eq": max(
            abs(achieved.q_mu_gain - target.q_mu_gain),
            abs(achieved.q_nu_gain - target.q_nu_gain),
        ),
        "z_bounds": max(0.0, float(np.max(sol.z) - 1.0), float(-np.min(sol.z))),
    }
    if enforce_errors:
        residuals["error_ineq"] = max(
            achieved.emu_qmu - target.emu_qmu, achieved.enu_qnu - target.enu_qnu
        )
    y1s = _plan_yields(usd, plan)[0][0]
    return replace(
        sol, plan=plan, y1_signal=float(y1s),
        rate_upper=key_rate_upper(cfg, float(y1s)), constraint_residuals=residuals,
    )


def key_rate_upper(cfg: SourceConfig, y1_signal: float) -> float:
    """Key-rate upper bound under the attack, R^u = Y1_s * mu * e^(-mu)."""
    if not 0.0 <= y1_signal <= 1.0:
        raise ValueError(f"y1_signal must be in [0, 1], got {y1_signal}")
    return y1_signal * cfg.mu * math.exp(-cfg.mu)
