"""The zero-rate certificate of evaluate_point against the LP solver.

Where the normal-channel gains lie inside the zonotope of the zero-cost
yield columns, evaluate_point answers R^u = 0 without calling
optimize_yields; where they lie outside the zonotope of all columns, it
answers infeasible. Every row must equal the one built from believed_rate
and optimize_yields, bit for bit; for ideal USD the rows decided without the
solver must also satisfy the photon-number-splitting fill, or lie beyond the
gain ceiling, in exact rational arithmetic. A zero decoy gain is decided by
the geometry, whose infeasibility proof is checked in exact arithmetic too;
the solver agrees, since a zero target fixes the yields that feed it.
"""
import math
import pathlib
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import qkdattack.analysis as analysis
from qkdattack import attack
from qkdattack.analysis import SweepRow, evaluate_point, sweep
from qkdattack.attack import UsdPerformance, optimize_yields
from qkdattack.coherent import SourceConfig, _poisson_weights, usd_success_optimal
from qkdattack.decoy import ChannelParams, believed_rate, normal_gains

from test_lp_screen import ceiling_eta

sys.path.insert(0, str(pathlib.Path(__file__).parent / "golden"))
from make_golden import CASES, _usd  # noqa: E402

N_TRUNC = 20
REF = SourceConfig(mu=0.5, nu=0.1)
TABLE_USD = UsdPerformance(q_mu=1.18e-3, q_nu=1.16e-3, xi_mu=0.9690, xi_nu=0.9837)
BASE = ChannelParams.from_loss_db(40.0, y0=1e-7, e_d=0.02)


def reference_row(cfg, usd, ch, enforce_errors) -> SweepRow:
    """evaluate_point's row, with every point solved by optimize_yields."""
    r_low, gains, _ = believed_rate(cfg, ch)
    sol = optimize_yields(cfg, usd, ch, n_trunc=N_TRUNC, enforce_errors=enforce_errors)
    success = sol.feasible and r_low > sol.rate_upper and r_low > 0.0
    return SweepRow(ch.loss_db, ch.eta, gains.q_mu_gain, r_low, sol.rate_upper,
                    sol.feasible, success)


def outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def zero_cost_generators(cfg, usd) -> np.ndarray:
    """(signal gain, decoy gain) per unit yield of each zero-cost column."""
    p_mu, p_nu = (stats.poisson.pmf(np.arange(1, N_TRUNC + 1), m) for m in (cfg.mu, cfg.nu))
    z_mu = np.stack([usd.q_mu * usd.xi_mu * p_mu, usd.q_nu * (1 - usd.xi_nu) * p_nu], 1)
    z_nu = np.stack([usd.q_mu * (1 - usd.xi_mu) * p_mu, usd.q_nu * usd.xi_nu * p_nu], 1)
    # Z_1^mu costs when xi_mu > 0, Z_1^nu when xi_mu < 1
    return np.concatenate([z_mu[usd.xi_mu > 0.0:], z_nu[usd.xi_mu < 1.0:]])


def in_zonotope(g, point) -> bool:
    """point in sum_j [0, 1] g_j, by its support function on the edge normals."""
    normals = np.concatenate([g[:, ::-1] * [-1.0, 1.0], g[:, ::-1] * [1.0, -1.0]])
    return bool(np.all(normals @ point <= np.clip(normals @ g.T, 0.0, None).sum(1)))


def zero_rate_eta(cfg, usd) -> float | None:
    """Transmittance where the normal gains leave the zero-cost zonotope, if they do."""
    g = zero_cost_generators(cfg, usd)

    def inside(eta):
        return in_zonotope(g, -np.expm1(-eta * np.array([cfg.mu, cfg.nu])))

    lo, hi = 1e-12, 1.0
    if not inside(lo) or inside(hi):
        return None
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


@st.composite
def zero_rate_points(draw):
    """An ideal or measured setting at a loss near or far from a zonotope edge."""
    mu = draw(st.floats(0.1, 1.0))
    cfg = SourceConfig(mu=mu, nu=mu * draw(st.floats(0.05, 0.9)))
    q_mu = draw(st.floats(1e-4, 0.3))
    q_nu = q_mu * draw(st.floats(0.9, 1.0))
    # ideal USD (xi = 1, every conclusive outcome names the right state) or measured
    xi = st.one_of(st.just(1.0), st.floats(0.9, 1.0))
    usd = UsdPerformance(q_mu, q_nu, draw(xi), draw(xi))
    # straddle the zero-rate edge, else the gain ceiling where the attack turns feasible
    edge = zero_rate_eta(cfg, usd)
    if edge is None or draw(st.sampled_from([False, False, True])):
        edge = min(ceiling_eta(cfg.mu, usd.q_mu, N_TRUNC), ceiling_eta(cfg.nu, usd.q_nu, N_TRUNC))
    side = draw(st.sampled_from([-1.0, -1.0, 1.0])) * draw(st.sampled_from([1e-8, 1e-6, 0.9]))
    eta = min(1.0, edge * (1.0 + side * draw(st.floats(0.0, 1.0))))
    ch = ChannelParams(eta=eta, y0=draw(st.floats(0.0, 1e-6)), e_d=draw(st.floats(0.0, 0.05)))
    return cfg, usd, ch, draw(st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(zero_rate_points())
# gains 1.66e-9 relative inside the free zonotope's upper chain, within
# HiGHS's tolerance: the solver's R^u there is 1.94e-13, not 0
@example((SourceConfig(mu=0.25, nu=0.015625), UsdPerformance(1e-4, 1e-4, 0.9375, 1.0),
          ChannelParams(eta=7.73159469515483e-07), False))
def test_rows_match_the_solver(point):
    cfg, usd, ch, enforce_errors = point
    got = outcome(evaluate_point, cfg, usd, ch, N_TRUNC, enforce_errors)
    assert got == outcome(reference_row, cfg, usd, ch, enforce_errors)


@pytest.fixture
def solver_calls(monkeypatch):
    """Channel of every optimize_yields call evaluate_point makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return optimize_yields(*args, **kwargs)

    monkeypatch.setattr(analysis, "optimize_yields", counting)
    return calls


@pytest.mark.parametrize("phase", [0.0, math.pi])
@pytest.mark.parametrize("enforce_errors", [False, True])
def test_certified_ideal_points_hold_the_fill_exactly(phase, enforce_errors, solver_calls):
    # ideal USD decouples the LP: the single-photon signal yield is zero
    # exactly when the multi-photon pulses alone carry the signal gain,
    # A = Q_mu / q_mu <= sum_{i>=2} P_i^mu, and the decoy gain is reachable,
    # Q_nu / q_nu <= sum_i P_i^nu; no plan exists exactly when a gain lies
    # above its all-yields-1 ceiling, Q_alpha / q_alpha > sum_i P_i^alpha. A
    # row decided without the solver meets its verdict's condition strictly
    cfg = SourceConfig(mu=0.5, nu=0.1, theta_s=phase)
    q = usd_success_optimal(cfg)
    usd = UsdPerformance(q, q)
    rows = sweep(cfg, usd, BASE, 0.0, 60.0, 0.25, enforce_errors=enforce_errors)
    p_mu, p_nu = (list(map(Fraction, _poisson_weights(m, N_TRUNC)[0])) for m in (cfg.mu, cfg.nu))
    solved = {ch.eta for ch in solver_calls}
    certified = [r for r in rows if r.eta not in solved and r.feasible]
    infeasible = [r for r in rows if r.eta not in solved and not r.feasible]
    assert len(certified) > len(rows) // 4 and len(infeasible) > len(rows) // 20
    for row in certified:
        gains = normal_gains(cfg, BASE.at_loss_db(row.loss_db))
        assert Fraction(gains.q_mu_gain) / Fraction(usd.q_mu) < sum(p_mu[1:])
        assert Fraction(gains.q_nu_gain) / Fraction(usd.q_nu) < sum(p_nu)
        assert row.r_upper == 0.0
    for row in infeasible:
        gains = normal_gains(cfg, BASE.at_loss_db(row.loss_db))
        assert (Fraction(gains.q_mu_gain) / Fraction(usd.q_mu) > sum(p_mu)
                or Fraction(gains.q_nu_gain) / Fraction(usd.q_nu) > sum(p_nu))
        assert row.r_upper is None


def test_default_sweep_skips_the_solver_past_the_onset(solver_calls):
    # every point past the Y1_s = 0 onset (42.7 dB) is certified with R^u = 0
    rows = sweep(REF, TABLE_USD, BASE, 40.0, 50.0, 0.5)
    assert len(solver_calls) == sum(r.loss_db < 42.7 for r in rows)
    assert all(r.r_upper == 0.0 for r in rows if r.loss_db > 42.7)


class TestSolverFallback:
    def test_no_discrimination_reaches_the_solver(self, solver_calls):
        row = evaluate_point(REF, UsdPerformance(0.0, 0.0), BASE)
        assert not row.feasible and row.r_upper is None and len(solver_calls) == 1

    @pytest.fixture
    def targets(self, monkeypatch):
        """Replace the normal gains both evaluate_point and optimize_yields read."""
        def patch(q_mu, q_nu):
            fake = SimpleNamespace(q_mu_gain=q_mu, q_nu_gain=q_nu, emu_qmu=0.0, enu_qnu=0.0)
            for module in (analysis, attack):
                monkeypatch.setattr(module, "normal_gains", lambda cfg, ch: fake)
        return patch

    @pytest.mark.parametrize("q_mu,q_nu", [(0.0, 1e-6), (-1e-3, 1e-6)])
    def test_non_positive_targets_reach_the_solver(self, q_mu, q_nu, targets, solver_calls):
        targets(q_mu, q_nu)
        for usd in (TABLE_USD, UsdPerformance(0.01, 0.01)):
            row = evaluate_point(REF, usd, BASE, N_TRUNC, False)
            assert repr(row) == repr(reference_row(REF, usd, BASE, False))
            assert q_mu >= 0.0 or not row.feasible
        assert len(solver_calls) == 2

    def test_zero_decoy_gain_is_decided_by_the_geometry(self, targets, solver_calls):
        # Q_nu = 0 < Q_mu, as at 158 dB with nu = 0.001
        targets(1e-6, 0.0)
        # measured USD: every column that moves a gain moves the decoy gain, so
        # Q_nu = 0 pins all of them to 0, and the signal gain the rest can
        # reach is exactly 0 < Q_mu: no plan exists
        rows, _, _ = attack._yield_lp(REF.mu, REF.nu, TABLE_USD.q_mu, TABLE_USD.q_nu,
                                      TABLE_USD.xi_mu, TABLE_USD.xi_nu, N_TRUNC)
        reach = sum(Fraction(a) for a, b in zip(rows[0], rows[1]) if Fraction(b) == 0)
        assert reach == 0 < Fraction(1e-6)
        row = evaluate_point(REF, TABLE_USD, BASE, N_TRUNC, False)
        assert (row.feasible, row.r_upper, solver_calls) == (False, None, [])
        assert repr(row) == repr(reference_row(REF, TABLE_USD, BASE, False))
        # ideal USD: the decoys' columns move no signal gain, so (Q_mu, 0)
        # lies on the free zonotope's bottom edge, which HiGHS decides
        ideal = UsdPerformance(0.01, 0.01)
        row = evaluate_point(REF, ideal, BASE, N_TRUNC, False)
        assert repr(row) == repr(reference_row(REF, ideal, BASE, False))
        assert len(solver_calls) == 1

    @pytest.mark.parametrize("case", [c for c in CASES if c[0] != "measured"],
                             ids=lambda c: f"{c[0]} {c[1]!r}")
    def test_feasibility_edge_takes_the_solvers_margin(self, case, targets, solver_calls):
        # ideal USD leaves the zonotope of all columns through the signal-gain
        # ceiling solve_yield_lp screens: HiGHS decides gains within
        # GAIN_CEILING_MARGIN beyond it, the geometry those beyond that
        kind, phase, mu, nu, loss, errors = case[:6]
        cfg = SourceConfig(mu=mu, nu=nu, theta_s=phase)
        usd = _usd(kind, cfg, phase)
        ceiling = attack._yield_lp(mu, nu, usd.q_mu, usd.q_nu, usd.xi_mu, usd.xi_nu, N_TRUNC)[2]
        gains = normal_gains(cfg, BASE.at_loss_db(loss))
        edge = ceiling[0] / gains.q_mu_gain  # scales the gains onto the signal ceiling
        assert gains.q_nu_gain * edge < ceiling[1]
        for factor, solved in ((0.5, 1), (2.0, 0)):
            scale = edge * (1.0 + factor * attack.GAIN_CEILING_MARGIN)
            targets(gains.q_mu_gain * scale, gains.q_nu_gain * scale)
            row = evaluate_point(cfg, usd, BASE, N_TRUNC, errors)
            assert repr(row) == repr(reference_row(cfg, usd, BASE, errors))
            assert not row.feasible and len(solver_calls) == solved
            solver_calls.clear()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf / inf
    @pytest.mark.parametrize("q_mu,q_nu", [(math.nan, 1e-6), (1e-6, math.nan),
                                           (math.inf, 1e-6), (1e-6, math.inf)])
    def test_non_finite_targets_reach_the_solver(self, q_mu, q_nu, targets, solver_calls):
        targets(q_mu, q_nu)
        with pytest.raises(ValueError):  # linprog rejects non-finite input
            evaluate_point(REF, UsdPerformance(0.01, 0.01), BASE)
        assert len(solver_calls) == 1

    def test_truncation_warning_comes_from_one_place(self, solver_calls):
        # a truncation optimize_yields warns about is never certified, so the
        # warning keeps its one call site
        with pytest.warns(UserWarning, match="photon-number truncation 5"):
            rows = sweep(REF, TABLE_USD, BASE, 44.0, 46.0, 1.0, n_trunc=5)
        assert len(solver_calls) == len(rows) == 3
