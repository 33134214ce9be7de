"""Exactness of the gain-ceiling infeasibility screen and the Poisson memo.

solve_yield_lp answers some points without HiGHS, and the Poisson weights
behind it are memoized per (mean, n_trunc). Both must leave every answer
bit-identical to building the LP from scratch and handing it to linprog.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.optimize import linprog

from qkdattack import attack
from qkdattack.analysis import evaluate_point, sweep
from qkdattack.attack import (
    UsdPerformance,
    key_rate_upper,
    optimize_yields,
    solve_yield_lp,
)
from qkdattack.coherent import SourceConfig, _poisson_weights
from qkdattack.decoy import ChannelParams, normal_gains

N_TRUNC = 20
REF = SourceConfig(mu=0.5, nu=0.1)
TABLE_USD = UsdPerformance(q_mu=1.18e-3, q_nu=1.16e-3, xi_mu=0.9690, xi_nu=0.9837)

def unscreened_lp(mu, nu, q_mu, q_nu, xi_mu, xi_nu, n, t_mu, t_nu, budgets=None):
    """The yield LP straight through linprog: no memo, no screen.

    Returns (z, objective), or None when HiGHS reports infeasibility.
    """
    i = np.arange(1, n + 1)
    p_mu = stats.poisson.pmf(i, mu)
    p_nu = stats.poisson.pmf(i, nu)
    c = np.zeros(2 * n)
    c[0] = q_mu * xi_mu
    c[n] = q_mu * (1.0 - xi_mu)
    a_eq = np.zeros((2, 2 * n))
    a_eq[0, :n] = q_mu * xi_mu * p_mu
    a_eq[0, n:] = q_mu * (1.0 - xi_mu) * p_mu
    a_eq[1, :n] = q_nu * (1.0 - xi_nu) * p_nu
    a_eq[1, n:] = q_nu * xi_nu * p_nu
    b_eq = np.array([t_mu, t_nu])

    def scaled(a, b):
        s = np.where(b > 0, b, 1.0)
        return a / s[:, None], b / s

    a_eq, b_eq = scaled(a_eq, b_eq)
    a_ub = b_ub = None
    if budgets is not None:
        a_ub = np.zeros((2, 2 * n))
        a_ub[0, n:] = 0.5 * q_mu * (1.0 - xi_mu) * p_mu
        a_ub[1, :n] = 0.5 * q_nu * (1.0 - xi_nu) * p_nu
        a_ub, b_ub = scaled(a_ub, np.array(budgets))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, 1.0)] * (2 * n), method="highs")
    if res.status == 2:
        return None
    assert res.success, res.message
    return res.x, float(c @ res.x)


def ceiling_eta(mean, q, n):
    """Transmittance whose normal gain 1 - e^(-eta*mean) equals the row ceiling.

    xi splits a row between z_mu and z_nu, so every row's ceiling is
    q * sum_i P_i(mean).
    """
    ceiling = q * float(np.sum(stats.poisson.pmf(np.arange(1, n + 1), mean)))
    return -math.log1p(-ceiling) / mean


@st.composite
def lp_points(draw):
    """A source/USD setting and a transmittance near or far from a gain ceiling."""
    mu = draw(st.floats(0.05, 1.0))
    nu = mu * draw(st.floats(0.05, 0.95))
    # q_nu close to q_mu and xi near 1, as for a real USD, keep feasible points common
    q_mu = draw(st.floats(1e-4, 0.3))
    usd = UsdPerformance(
        q_mu=q_mu, q_nu=q_mu * draw(st.floats(0.9, 1.0)),
        xi_mu=draw(st.floats(0.9, 1.0)), xi_nu=draw(st.floats(0.9, 1.0)),
    )
    # straddle the transmittance where the first gain row reaches its
    # ceiling, within 1e-5 relative or far from it
    eta_star = min(ceiling_eta(mu, usd.q_mu, N_TRUNC), ceiling_eta(nu, usd.q_nu, N_TRUNC))
    rel = draw(st.sampled_from([(-1e-5, 1e-5), (-0.9, -1e-5), (1e-5, 4.0)])
               .flatmap(lambda span: st.floats(*span)))
    eta = min(1.0, eta_star * (1.0 + rel))
    ch = ChannelParams(eta=eta, y0=draw(st.floats(0.0, 1e-5)), e_d=draw(st.floats(0.0, 0.05)))
    return SourceConfig(mu=mu, nu=nu), usd, ch, draw(st.booleans())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lp_points())
def test_screen_matches_unscreened_linprog(point):
    cfg, usd, ch, enforce_errors = point
    t = normal_gains(cfg, ch)
    t_mu, t_nu = t.q_mu_gain, t.q_nu_gain
    budgets = (t.emu_qmu, t.enu_qnu) if enforce_errors else None
    args = (cfg.mu, cfg.nu, usd.q_mu, usd.q_nu, usd.xi_mu, usd.xi_nu, N_TRUNC, t_mu, t_nu)
    ref = unscreened_lp(*args, budgets=budgets)

    lp = solve_yield_lp(*args, *(budgets or (None, None)))
    sol = optimize_yields(cfg, usd, ch, n_trunc=N_TRUNC, enforce_errors=enforce_errors)
    assert lp.feasible == sol.feasible == (ref is not None)
    if ref is None:
        assert sol.rate_upper is None and sol.plan is None
        return
    z, objective = ref
    assert repr(lp.z.tolist()) == repr(z.tolist())
    assert repr(lp.objective) == repr(objective)
    z_mu = np.clip(z[:N_TRUNC], 0.0, 1.0)
    z_nu = np.clip(z[N_TRUNC:], 0.0, 1.0)
    y1s = usd.q_mu * (usd.xi_mu * z_mu[0] + (1.0 - usd.xi_mu) * z_nu[0])
    assert repr(sol.rate_upper) == repr(key_rate_upper(cfg, float(y1s)))
    assert repr(sol.plan.z_mu.tolist()) == repr(z_mu.tolist())
    assert repr(sol.plan.z_nu.tolist()) == repr(z_nu.tolist())


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(lp_points())
def test_sweep_rows_match_cold_point_evaluation(point):
    cfg, usd, ch, enforce_errors = point
    centre = -10.0 * math.log10(ch.eta)
    rows = sweep(cfg, usd, ch, max(0.0, centre - 1.0), centre + 1.0, 0.25,
                 n_trunc=N_TRUNC, enforce_errors=enforce_errors)
    _poisson_weights.cache_clear()
    for row in rows:
        cold = evaluate_point(cfg, usd, ch.at_loss_db(row.loss_db),
                              n_trunc=N_TRUNC, enforce_errors=enforce_errors)
        assert repr(replace(cold, loss_db=row.loss_db)) == repr(row)


class TestScreen:
    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(attack, "linprog", counting)
        return calls

    def test_low_loss_skips_the_solver(self, solver_calls):
        ch = ChannelParams.from_loss_db(0.0, y0=1e-7, e_d=0.02)
        assert not optimize_yields(REF, TABLE_USD, ch, enforce_errors=True).feasible
        assert solver_calls == []
        ch = ChannelParams.from_loss_db(40.0, y0=1e-7, e_d=0.02)
        assert optimize_yields(REF, TABLE_USD, ch).feasible
        assert solver_calls == [1]

    def test_targets_within_the_margin_reach_the_solver(self, solver_calls):
        p_mu, _ = _poisson_weights(REF.mu, N_TRUNC)
        ceiling = TABLE_USD.q_mu * float(p_mu.sum())
        for factor in (1.0, 1.0 + 0.5 * attack.GAIN_CEILING_MARGIN):
            solve_yield_lp(REF.mu, REF.nu, TABLE_USD.q_mu, TABLE_USD.q_nu,
                           TABLE_USD.xi_mu, TABLE_USD.xi_nu, N_TRUNC,
                           ceiling * factor, 1e-6)
        assert solver_calls == [1, 1]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf / inf
    @pytest.mark.parametrize("target", [0.0, -1e-3, math.nan, math.inf])
    def test_unscreened_targets(self, solver_calls, target):
        args = (REF.mu, REF.nu, TABLE_USD.q_mu, TABLE_USD.q_nu,
                TABLE_USD.xi_mu, TABLE_USD.xi_nu, N_TRUNC, target, 1e-6)
        if math.isfinite(target):
            # with Y_mu pinned at or below 0 no yield can reach the nu target
            assert not solve_yield_lp(*args).feasible
        else:
            with pytest.raises(ValueError):  # linprog rejects non-finite input
                solve_yield_lp(*args)
        assert solver_calls == [1]


def test_poisson_weights_are_read_only_and_exact():
    pmf, tail = _poisson_weights(0.5, N_TRUNC)
    assert not pmf.flags.writeable
    assert repr(pmf.tolist()) == repr(stats.poisson.pmf(np.arange(1, N_TRUNC + 1), 0.5).tolist())
    assert repr(tail) == repr(float(stats.poisson.sf(N_TRUNC, 0.5)))
    assert _poisson_weights(0.5, N_TRUNC)[0] is pmf
