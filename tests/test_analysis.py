"""Tests for loss sweeps, crossover finding, and success regions."""
import math

import numpy as np
import pytest

from qkdattack.analysis import (
    RESOLUTION_DB,
    EmptyRegionError,
    InfeasibleBracketError,
    NoBracketError,
    SuccessRegion,
    SweepRow,
    evaluate_point,
    find_crossover,
    loss_grid,
    success_region,
    sweep,
)
from qkdattack.attack import UsdPerformance
from qkdattack.coherent import SourceConfig
from qkdattack.decoy import ChannelParams, believed_rate

REF = SourceConfig(mu=0.5, nu=0.1)
TABLE_USD = UsdPerformance(q_mu=1.18e-3, q_nu=1.16e-3, xi_mu=0.9690, xi_nu=0.9837)
BASE = ChannelParams.from_loss_db(40.0, y0=1e-7, e_d=0.02)


class TestSweep:
    def test_single_point_at_zero_loss(self):
        rows = sweep(REF, TABLE_USD, BASE, 0.0, 0.0, 0.1)
        assert len(rows) == 1
        assert not rows[0].feasible
        assert rows[0].r_upper is None
        assert not rows[0].attack_success

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sweep(REF, TABLE_USD, BASE, 40.0, 30.0, 0.1)
        with pytest.raises(ValueError):
            sweep(REF, TABLE_USD, BASE, 30.0, 40.0, 0.0)

    def test_rejects_step_below_grid_quantum(self):
        with pytest.raises(ValueError, match="step_db must be at least 1e-06 dB"):
            sweep(REF, TABLE_USD, BASE, 36.0, 36.000003, 1e-9)

    @pytest.mark.parametrize("step", [1.5e-6, 0.1000005])
    def test_rejects_step_off_grid_quantum(self, step):
        with pytest.raises(ValueError, match=r"^step_db must be a multiple of 1e-06 dB"):
            sweep(REF, TABLE_USD, BASE, 36.0, 36.00001, step)

    @pytest.mark.parametrize("step", [1e-6, 2.5e-5, 0.1, 0.25, 0.5, 10.0, 0.123457])
    def test_accepts_multiples_of_grid_quantum(self, step):
        rows = sweep(REF, TABLE_USD, BASE, 0.0, 0.0, step)
        assert len(rows) == 1

    @pytest.mark.parametrize("start,end,step", [
        (0.0, 60.0, 1e308), (1e308, 1e308, 0.5), (0.0, 1e308, 0.5),
    ])
    def test_rejects_values_beyond_grid_units(self, start, end, step):
        with pytest.raises(ValueError, match="must be finite in 1e-06 dB units"):
            sweep(REF, TABLE_USD, BASE, start, end, step)

    def test_grid_in_quantum_units(self):
        assert loss_grid(35.0, 38.0, 0.5) == range(35_000_000, 38_000_001, 500_000)
        assert loss_grid(36.0, 36.0, 0.1) == range(36_000_000, 36_000_001, 100_000)

    def test_rows_ordered_and_labeled(self):
        rows = sweep(REF, TABLE_USD, BASE, 35.0, 38.0, 0.5)
        losses = [r.loss_db for r in rows]
        assert losses == sorted(losses)
        assert losses[0] == 35.0 and losses[-1] == 38.0
        for r in rows:
            assert r.eta == pytest.approx(10 ** (-r.loss_db / 10), rel=1e-12)

    def test_success_turns_on_near_reference_threshold(self):
        rows = sweep(REF, TABLE_USD, BASE, 35.0, 38.0, 0.25)
        flips = [r.loss_db for r in rows if r.attack_success]
        assert flips, "expected success inside the swept window"
        assert 36.0 <= flips[0] <= 36.75

    def test_full_reference_sweep(self):
        rows = sweep(REF, TABLE_USD, BASE, 30.0, 45.0, 0.1)
        assert len(rows) == 151
        first_success = next(r.loss_db for r in rows if r.attack_success)
        assert abs(first_success - 36.3) <= 0.5
        # success is contiguous once it starts in this window
        started = [r.attack_success for r in rows]
        assert started[started.index(True):] == [True] * started.count(True)
        # the attack cannot reproduce the statistics at the low-loss end
        assert not rows[0].feasible

    def test_zero_capacity_attacker(self):
        dud = UsdPerformance(q_mu=0.0, q_nu=0.0)
        rows = sweep(REF, dud, BASE, 20.0, 60.0, 10.0)
        assert all(not r.feasible for r in rows)
        assert all(not r.attack_success for r in rows)

    def test_refined_grid_shares_points_bitwise(self):
        coarse = sweep(REF, TABLE_USD, BASE, 36.0, 38.0, 1.0)
        fine = sweep(REF, TABLE_USD, BASE, 36.0, 38.0, 0.1)
        shared = {r.loss_db: r for r in fine}
        for row in coarse:
            assert shared[row.loss_db] == row

    def test_success_row_invariant_enforced(self):
        with pytest.raises(ValueError):
            SweepRow(
                loss_db=40.0, eta=1e-4, q_mu_gain=1e-4,
                r_lower=1e-6, r_upper=2e-6, feasible=True, attack_success=True,
            )

    def test_point_failures_become_rows(self, monkeypatch):
        import qkdattack.analysis as analysis_mod

        real = analysis_mod.optimize_yields

        def flaky(cfg, usd, ch, **kwargs):
            if abs(ch.loss_db - 37.0) < 1e-6:
                raise RuntimeError("solver hiccup")
            return real(cfg, usd, ch, **kwargs)

        monkeypatch.setattr(analysis_mod, "optimize_yields", flaky)
        rows = sweep(REF, TABLE_USD, BASE, 36.0, 38.0, 1.0)
        assert len(rows) == 3
        broken = rows[1]
        assert broken.loss_db == 37.0
        assert not broken.feasible and not broken.attack_success
        assert math.isnan(broken.r_lower)
        assert rows[0].feasible and rows[2].feasible


    def test_zero_decoy_intensity_raises(self):
        with pytest.raises(ValueError, match="nu > 0"):
            sweep(SourceConfig(mu=0.5, nu=0.0), TABLE_USD, BASE, 36.0, 38.0, 1.0)


class TestFindCrossover:
    def test_reference_threshold(self):
        loss = find_crossover(REF, TABLE_USD, BASE, 33.0, 44.0)
        assert abs(loss - 36.3) <= 0.5

    def test_bracket_independence(self):
        a = find_crossover(REF, TABLE_USD, BASE, 33.0, 44.0)
        b = find_crossover(REF, TABLE_USD, BASE, 35.0, 40.0)
        assert abs(a - b) <= 0.02

    def test_bounds_nearly_equal_at_quoted_threshold(self):
        # at the quoted 36.3 dB threshold the two bounds agree far more
        # closely than they do half a decibel to either side
        def gap(loss):
            row = evaluate_point(REF, TABLE_USD, BASE.at_loss_db(loss))
            assert row.feasible
            return row.r_lower - row.r_upper

        at = abs(gap(36.3))
        assert at < abs(gap(35.8)) and at < abs(gap(36.8))
        assert at < 0.1 * abs(gap(35.8))

    def test_no_bracket(self):
        with pytest.raises(NoBracketError):
            find_crossover(REF, TABLE_USD, BASE, 38.0, 44.0)

    def test_infeasible_endpoint_distinct(self):
        with pytest.raises(InfeasibleBracketError):
            find_crossover(REF, TABLE_USD, BASE, 10.0, 44.0)

    def test_rejects_inverted_bracket(self):
        with pytest.raises(ValueError):
            find_crossover(REF, TABLE_USD, BASE, 44.0, 33.0)


class TestSuccessRegion:
    def test_empty_region_for_zero_capacity(self):
        dud = UsdPerformance(q_mu=0.0, q_nu=0.0)
        with pytest.raises(EmptyRegionError):
            success_region(REF, dud, BASE, (30.0, 50.0, 5.0))

    def test_region_without_error_constraints(self):
        region = success_region(
            REF, TABLE_USD, BASE, (33.0, 52.0, 0.5), enforce_errors=False
        )
        assert abs(region.lower_db - 36.3) <= 0.5
        assert region.upper_db is not None
        assert region.upper_mechanism == "rate_abort"
        # upper endpoint is where the believed rate crosses zero
        rl_below, _, _ = believed_rate(REF, BASE.at_loss_db(region.upper_db - 0.02))
        rl_above, _, _ = believed_rate(REF, BASE.at_loss_db(region.upper_db + 0.02))
        assert rl_below > 0 >= rl_above

    def test_endpoints_sit_on_fine_scan_transitions(self):
        region = success_region(
            REF, TABLE_USD, BASE, (33.0, 52.0, 0.5), enforce_errors=True
        )
        assert region.upper_mechanism == "bound_recross"
        for endpoint in (region.lower_db, region.upper_db):
            losses = np.arange(endpoint - 0.05, endpoint + 0.0501, 0.01)
            flags = [
                evaluate_point(
                    REF, TABLE_USD, BASE.at_loss_db(float(loss)), enforce_errors=True
                ).attack_success
                for loss in losses
            ]
            assert flags[0] != flags[-1]

    def test_unbounded_within_range(self):
        region = success_region(
            REF, TABLE_USD, BASE, (35.0, 42.0, 0.5), enforce_errors=False
        )
        assert region.upper_db is None
        assert region.upper_mechanism is None

    def test_region_invariant(self):
        with pytest.raises(ValueError):
            SuccessRegion(lower_db=40.0, upper_db=39.0)

    def test_bisection_starts_from_sweep_flags(self, monkeypatch):
        import qkdattack.analysis as analysis_mod

        real = analysis_mod.optimize_yields
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis_mod, "optimize_yields", counting)
        region = success_region(REF, TABLE_USD, BASE, (33.0, 52.0, 1.0))
        assert 33.0 < region.lower_db < region.upper_db < 52.0
        steps = math.ceil(math.log2(1.0 / RESOLUTION_DB))  # halvings of a 1 dB bracket
        # 20 grid points and the bisection steps of both endpoints: the
        # bracket ends are known from the sweep and are not evaluated again,
        # and the upper mechanism comes from the last bisection row
        assert len(calls) == 20 + 2 * steps

    @pytest.mark.parametrize("start,enforce,mechanism", [
        (48.0, True, "bound_recross"), (48.7, False, "rate_abort"),
    ])
    def test_mechanism_of_unbisected_upper_end(self, start, enforce, mechanism, monkeypatch):
        # a grid finer than RESOLUTION_DB brackets the upper end without a
        # bisection step, so the mechanism comes from the failing sweep row
        import qkdattack.analysis as analysis_mod

        grid = (start, start + 0.1, RESOLUTION_DB / 2)
        rows = sweep(REF, TABLE_USD, BASE, *grid, enforce_errors=enforce)
        first = next(i for i, r in enumerate(rows) if r.attack_success)
        failing = next(r for r in rows[first:] if not r.attack_success)
        real, calls = analysis_mod.optimize_yields, []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis_mod, "optimize_yields", counting)
        region = success_region(REF, TABLE_USD, BASE, grid, enforce_errors=enforce)
        assert len(calls) == len(rows) and first == 0
        fresh = evaluate_point(REF, TABLE_USD, BASE.at_loss_db(failing.loss_db),
                               enforce_errors=enforce)
        assert fresh.feasible and not fresh.attack_success
        expected = "rate_abort" if fresh.r_lower <= 0.0 else "bound_recross"
        assert region.upper_mechanism == expected == mechanism

    def test_mechanism_from_row_above_boundary_not_bracket_end(self):
        # the 49 dB bracket end has already aborted (r_lower < 0), but just
        # above the 48.05 dB boundary the upper bound recrosses first
        grid = (47.0, 49.0, 2.0)
        end = sweep(REF, TABLE_USD, BASE, *grid, enforce_errors=True)[-1]
        assert end.feasible and end.r_lower < 0
        region = success_region(REF, TABLE_USD, BASE, grid, enforce_errors=True)
        assert region.upper_db == pytest.approx(48.05, abs=RESOLUTION_DB)
        assert region.upper_mechanism == "bound_recross"
