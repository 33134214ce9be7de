"""Tests for the yield model, the statistics-preserving LP, and R^u."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qkdattack import attack
from qkdattack.attack import (
    AttackSolution,
    UsdPerformance,
    YieldPlan,
    attack_gains,
    key_rate_upper,
    optimize_yields,
    solve_yield_lp,
)
from qkdattack.coherent import SourceConfig, poisson_tail
from qkdattack.decoy import ChannelParams, normal_gains
from grid_oracle import grid_best_objective
from reference_formulas import attack_gains_ref

REF = SourceConfig(mu=0.5, nu=0.1)
TABLE_USD = UsdPerformance(q_mu=1.18e-3, q_nu=1.16e-3, xi_mu=0.9690, xi_nu=0.9837)


def reference_channel(loss_db):
    return ChannelParams.from_loss_db(loss_db, y0=1e-7, e_d=0.02)


class TestUsdPerformance:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            UsdPerformance(q_mu=1.2, q_nu=0.1)
        with pytest.raises(ValueError):
            UsdPerformance(q_mu=0.1, q_nu=0.1, xi_mu=-0.1)

    def test_ceiling_validation(self):
        UsdPerformance(q_mu=0.0375, q_nu=0.0375).validate_against(REF)
        TABLE_USD.validate_against(REF)
        with pytest.raises(ValueError, match=r"^q_mu=0\.05 exceeds the optimal USD ceiling"):
            UsdPerformance(q_mu=0.05, q_nu=0.0375).validate_against(REF)


class TestYieldPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            YieldPlan(3, np.array([0.5, 0.5]), np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            YieldPlan(2, np.array([0.5, 1.2]), np.array([0.5, 0.5]))


class TestYieldsFromPlan:
    def test_zero_plan(self):
        y_s, y_d = attack._plan_yields(TABLE_USD, YieldPlan(5, np.zeros(5), np.zeros(5)))
        assert not y_s.any() and not y_d.any()

    def test_perfect_discrimination_decouples(self):
        usd = UsdPerformance(q_mu=0.3, q_nu=0.2, xi_mu=1.0, xi_nu=1.0)
        plan = YieldPlan(3, np.ones(3), np.zeros(3))
        y_s, y_d = attack._plan_yields(usd, plan)
        assert_allclose(y_s, 0.3)
        assert_allclose(y_d, 0.0)

    def test_accuracy_terms_sum(self):
        # equal single-photon yields make the accuracy split irrelevant
        plan = YieldPlan(3, np.full(3, 0.5), np.full(3, 0.5))
        y_s, _ = attack._plan_yields(TABLE_USD, plan)
        assert_allclose(y_s[0], 1.18e-3 * 0.5, rtol=1e-12)


class TestAttackGains:
    def test_maximal_forwarding(self):
        usd = UsdPerformance(q_mu=0.3, q_nu=0.2, xi_mu=1.0, xi_nu=1.0)
        n = 20
        plan = YieldPlan(n, np.ones(n), np.ones(n))
        g = attack_gains(REF, usd, plan)
        tail = poisson_tail(REF.mu, n)
        assert_allclose(g.q_mu_gain, 0.3 * (1 - math.exp(-0.5) - tail), rtol=1e-12)
        assert g.emu_qmu == 0.0

    def test_zero_plan(self):
        g = attack_gains(REF, TABLE_USD, YieldPlan(10, np.zeros(10), np.zeros(10)))
        assert g.q_mu_gain == 0.0 and g.q_nu_gain == 0.0
        assert g.emu_qmu == 0.0 and g.enu_qnu == 0.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            nu = rng.uniform(0.05, 0.3)
            cfg = SourceConfig(mu=nu + rng.uniform(0.1, 0.6), nu=nu)
            usd = UsdPerformance(
                q_mu=rng.uniform(0, 1), q_nu=rng.uniform(0, 1),
                xi_mu=rng.uniform(0.5, 1), xi_nu=rng.uniform(0.5, 1),
            )
            plan = YieldPlan(3, rng.uniform(0, 1, 3), rng.uniform(0, 1, 3))
            g = attack_gains(cfg, usd, plan)
            ref = attack_gains_ref(
                cfg.mu, cfg.nu, usd.q_mu, usd.q_nu, usd.xi_mu, usd.xi_nu,
                plan.z_mu, plan.z_nu,
            )
            assert_allclose(
                [g.q_mu_gain, g.q_nu_gain, g.emu_qmu, g.enu_qnu], ref, rtol=1e-12
            )

    def test_error_product_below_gain(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            usd = UsdPerformance(
                q_mu=rng.uniform(0, 1), q_nu=rng.uniform(0, 1),
                xi_mu=rng.uniform(0, 1), xi_nu=rng.uniform(0, 1),
            )
            plan = YieldPlan(5, rng.uniform(0, 1, 5), rng.uniform(0, 1, 5))
            g = attack_gains(REF, usd, plan)
            assert g.emu_qmu <= g.q_mu_gain + 1e-15
            assert g.enu_qnu <= g.q_nu_gain + 1e-15


class TestOptimizeYields:
    def test_infeasible_at_zero_loss(self):
        sol = optimize_yields(REF, TABLE_USD, reference_channel(0.0))
        assert not sol.feasible
        assert sol.plan is None and sol.rate_upper is None

    def test_feasible_solution_contract(self):
        sol = optimize_yields(REF, TABLE_USD, reference_channel(38.0))
        assert sol.feasible
        assert sol.constraint_residuals["gain_eq"] <= 1e-9
        assert sol.constraint_residuals["z_bounds"] <= 1e-12
        g = attack_gains(REF, TABLE_USD, sol.plan)
        t = normal_gains(REF, reference_channel(38.0))
        assert_allclose([g.q_mu_gain, g.q_nu_gain], [t.q_mu_gain, t.q_nu_gain], atol=1e-9)
        assert_allclose(sol.rate_upper, key_rate_upper(REF, sol.y1_signal), rtol=1e-12)

    def test_error_constraints_never_lower_objective(self):
        for loss in (37.0, 40.0, 44.0):
            ch = reference_channel(loss)
            free = optimize_yields(REF, TABLE_USD, ch, enforce_errors=False)
            tied = optimize_yields(REF, TABLE_USD, ch, enforce_errors=True)
            assert free.feasible and tied.feasible
            assert tied.y1_signal >= free.y1_signal - 1e-12
            assert tied.constraint_residuals["error_ineq"] <= 1e-12

    def test_feasibility_monotone_in_loss(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            usd = UsdPerformance(
                q_mu=rng.uniform(1e-3, 0.05), q_nu=rng.uniform(1e-3, 0.05),
                xi_mu=rng.uniform(0.9, 1.0), xi_nu=rng.uniform(0.9, 1.0),
            )
            flags = [
                optimize_yields(REF, usd, reference_channel(loss)).feasible
                for loss in np.arange(5.0, 50.0, 2.5)
            ]
            # once feasible, stays feasible at higher loss
            assert flags == sorted(flags)

    def test_infeasible_result_is_empty(self):
        ch = reference_channel(0.0)
        t = normal_gains(REF, ch)
        lp = solve_yield_lp(REF.mu, REF.nu, TABLE_USD.q_mu, TABLE_USD.q_nu,
                            TABLE_USD.xi_mu, TABLE_USD.xi_nu, 20, t.q_mu_gain, t.q_nu_gain)
        for sol in (lp, optimize_yields(REF, TABLE_USD, ch)):
            assert sol == AttackSolution(feasible=False)  # every later field empty

    def test_zero_capacity_attacker_infeasible(self):
        usd = UsdPerformance(q_mu=0.0, q_nu=0.0)
        sol = optimize_yields(REF, usd, reference_channel(40.0))
        assert not sol.feasible

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="truncation"):
            optimize_yields(REF, TABLE_USD, reference_channel(40.0), n_trunc=3)


class TestLpLayer:
    def test_raw_solution_within_box(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            t_mu = rng.uniform(1e-6, 1e-4)
            t_nu = rng.uniform(1e-7, 1e-5)
            sol = solve_yield_lp(
                0.5, 0.1, 1.18e-3, 1.16e-3, 0.969, 0.9837, 20, t_mu, t_nu
            )
            assert sol.feasible
            assert np.all(sol.z >= -1e-12) and np.all(sol.z <= 1 + 1e-12)

    def test_relabeling_symmetry_at_equal_intensities(self):
        # with equal artificial intensities, perfect identification, and
        # equal success probabilities, the two variable blocks are mirror
        # images: the minimized first-label yield depends only on the
        # first-label target, and swapping the labels together with the
        # targets lands on the mirrored optimum
        q, xi = 0.4, 1.0
        # targets beyond the multiphoton capacity, so single photons must
        # carry part of the gain and the optimum is strictly positive
        t_a, t_b = 0.09, 0.05

        def opt(first, second):
            sol = solve_yield_lp(0.3, 0.3, q, q, xi, xi, 8, first, second)
            assert sol.feasible
            return sol.objective

        direct = opt(t_a, t_b)
        swapped = opt(t_b, t_a)
        assert_allclose(direct, opt(t_a, t_a), rtol=1e-10)
        assert_allclose(swapped, opt(t_b, t_b), rtol=1e-10)
        assert 0.0 < swapped < direct

    def test_grid_oracle_equivalence_small(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            draw = _random_grid_instance(rng)
            _check_against_grid(draw)


def _random_grid_instance(rng, pitch=0.05):
    """Random truncation-3 instance whose targets come from a grid plan."""
    grid = np.round(np.arange(0.0, 1.0 + pitch / 2, pitch), 12)
    mu = rng.uniform(0.35, 0.7)
    nu = rng.uniform(0.08, 0.25)
    q_mu = rng.uniform(0.3, 0.9)
    q_nu = rng.uniform(0.3, 0.9)
    xi_mu = rng.uniform(0.8, 1.0)
    xi_nu = rng.uniform(0.8, 1.0)
    z_mu = rng.choice(grid, 3)
    z_nu = rng.choice(grid, 3)
    t_mu, t_nu, _, _ = attack_gains_ref(mu, nu, q_mu, q_nu, xi_mu, xi_nu, z_mu, z_nu)
    exact_obj = q_mu * (xi_mu * z_mu[0] + (1 - xi_mu) * z_nu[0])
    return dict(
        mu=mu, nu=nu, q_mu=q_mu, q_nu=q_nu, xi_mu=xi_mu, xi_nu=xi_nu,
        target_mu=t_mu, target_nu=t_nu,
    ), exact_obj, pitch


def _check_against_grid(instance):
    draw, exact_obj, pitch = instance
    lp = solve_yield_lp(
        draw["mu"], draw["nu"], draw["q_mu"], draw["q_nu"],
        draw["xi_mu"], draw["xi_nu"], 3, draw["target_mu"], draw["target_nu"],
    )
    assert lp.feasible
    best = grid_best_objective(pitch=pitch, **draw)
    assert best is not None
    # never beaten by a grid point that satisfies the constraints exactly
    # (the generating plan is one), and within two grid pitches of
    # objective movement from the best slack-feasible grid point
    assert lp.objective <= exact_obj + 1e-9
    assert abs(lp.objective - best) <= 2 * pitch * draw["q_mu"]


class TestKeyRateUpper:
    def test_zero_yield(self):
        assert key_rate_upper(REF, 0.0) == 0.0

    def test_unit_yield(self):
        assert_allclose(key_rate_upper(REF, 1.0), 0.3032653298563167, rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            key_rate_upper(REF, 1.5)
