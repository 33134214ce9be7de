"""Tests for the Monte Carlo attack pipeline and stability-series ingestion."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats as scipy_stats

from qkdattack import montecarlo
from qkdattack.attack import UsdPerformance, YieldPlan, optimize_yields
from qkdattack.coherent import SourceConfig, usd_success_optimal
from qkdattack.decoy import ChannelParams
from qkdattack.montecarlo import (
    EmpiricalStats,
    StateKind,
    TrialConfig,
    UsdOutcome,
    expected_gains,
    ingest_stability_series,
    read_stability_csv,
    run_trials,
    sample_pulses,
)

REF = SourceConfig(mu=0.5, nu=0.1)
TABLE_USD = UsdPerformance(q_mu=1.18e-3, q_nu=1.16e-3, xi_mu=0.9690, xi_nu=0.9837)
# optimal USD at relative phase pi: about 28% of pulses are conclusive, against
# about 0.1% for TABLE_USD
PI_SOURCE = SourceConfig(mu=0.5, nu=0.2, theta_s=math.pi)
PI_USD = UsdPerformance(q_mu=usd_success_optimal(PI_SOURCE), q_nu=usd_success_optimal(PI_SOURCE))
HALF_PLAN = YieldPlan(20, np.full(20, 0.5), np.full(20, 0.4))


@pytest.fixture(scope="module")
def optimized_plan():
    ch = ChannelParams.from_loss_db(38.0, y0=1e-7, e_d=0.02)
    sol = optimize_yields(REF, TABLE_USD, ch)
    assert sol.feasible
    return sol.plan


def _trial(plan, n=100_000, seed=1):
    return TrialConfig(n_pulses=n, seed=seed, cfg=REF, usd=TABLE_USD, plan=plan)


def _stats_from_arrays(tc):
    """EmpiricalStats counted pulse by pulse from sample_pulses arrays."""
    arr = sample_pulses(tc)
    sig = arr["state"] == StateKind.SIGNAL
    concl = arr["outcome"] != UsdOutcome.FAIL
    correct = arr["outcome"] == arr["state"]
    fields = {}
    for name, hits, trials in (
        ("q_mu", sig & concl, sig), ("q_nu", ~sig & concl, ~sig),
        ("xi_mu", sig & correct, sig & concl), ("xi_nu", ~sig & correct, ~sig & concl),
        ("gain_mu", sig & arr["forwarded"], sig), ("gain_nu", ~sig & arr["forwarded"], ~sig),
    ):
        k, n = int(np.sum(hits)), int(np.sum(trials))
        fields[f"{name}_hat"] = k / n
        fields[f"{name}_se"] = math.sqrt(k / n * (1.0 - k / n) / n)
    return EmpiricalStats(**fields, n_pulses=tc.n_pulses,
                          n_signal=int(np.sum(sig)), n_decoy=int(np.sum(~sig)))


class TestSampling:
    def test_zero_capacity_attacker(self, optimized_plan):
        dud = UsdPerformance(q_mu=0.0, q_nu=0.0)
        tc = TrialConfig(n_pulses=50_000, seed=3, cfg=REF, usd=dud,
                         plan=optimized_plan)
        stats = run_trials(tc)
        assert stats.q_mu_hat == 0.0 and stats.q_nu_hat == 0.0
        assert stats.gain_mu_hat == 0.0 and stats.gain_nu_hat == 0.0
        assert math.isnan(stats.xi_mu_hat)

    def test_determinism_bit_identical(self, optimized_plan):
        tc = _trial(optimized_plan, seed=99)
        assert run_trials(tc) == run_trials(tc)

    @pytest.mark.parametrize("make_trial", [
        lambda plan: _trial(plan, seed=5),
        lambda plan: TrialConfig(n_pulses=100_000, seed=5, cfg=PI_SOURCE, usd=PI_USD,
                                 plan=HALF_PLAN),
    ], ids=["table_usd", "optimal_usd_pi"])
    def test_block_partition_invariance(self, optimized_plan, make_trial):
        tc = make_trial(optimized_plan)
        whole = run_trials(tc, block_size=1 << 20)
        chunked = run_trials(tc, block_size=777)
        assert whole == chunked

    def test_cpu_count_does_not_change_stats(self, monkeypatch):
        tc = TrialConfig(n_pulses=50_000, seed=37, cfg=PI_SOURCE, usd=PI_USD, plan=HALF_PLAN)
        results = []
        for cpus in (1, 2, 16):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
            results.append(run_trials(tc, block_size=4096))
        assert results[0] == results[1] == results[2] == _stats_from_arrays(tc)

    def test_stream_is_pulse_addressed(self, optimized_plan):
        tc = _trial(optimized_plan, n=10_000, seed=11)
        full = sample_pulses(tc)
        part = sample_pulses(tc, start=4_000, count=3_000)
        for key in full:
            assert np.array_equal(full[key][4_000:7_000], part[key])

    def test_never_forwards_inconclusive(self, optimized_plan):
        # forwarding requires a conclusive outcome, vacuum never forwards
        tc = _trial(YieldPlan(3, np.ones(3), np.ones(3)), n=200_000, seed=13)
        arr = sample_pulses(tc)
        fwd = arr["forwarded"]
        assert not np.any(fwd & (arr["outcome"] == UsdOutcome.FAIL))
        assert not np.any(fwd & (arr["photon"] == 0))

    def test_equiprobable_state_choice(self, optimized_plan):
        stats = run_trials(_trial(optimized_plan, n=200_000, seed=17))
        assert stats.n_signal + stats.n_decoy == 200_000
        assert abs(stats.n_signal - 100_000) < 5 * math.sqrt(200_000 * 0.25)

    def test_phase_independent_of_outcome(self, optimized_plan):
        arr = sample_pulses(_trial(optimized_plan, n=400_000, seed=7))
        table = np.zeros((4, 3), dtype=int)
        for ph in range(4):
            for oc in range(3):
                table[ph, oc] = int(np.sum(
                    (arr["phase_index"] == ph) & (arr["outcome"] == oc)
                ))
        assert table.sum() == 400_000
        p = scipy_stats.chi2_contingency(table).pvalue
        assert p > 1e-3

    @pytest.mark.parametrize("cfg, usd", [
        (REF, UsdPerformance(q_mu=0.3, q_nu=0.25, xi_mu=0.8, xi_nu=0.7)),
        (PI_SOURCE, PI_USD),
    ], ids=["xi_below_one", "optimal_usd_pi"])
    def test_tally_matches_sampled_arrays(self, cfg, usd):
        # yields strictly inside (0, 1) reach every (state, outcome,
        # forwarded) cell except the never-forwarded inconclusive ones and,
        # when xi = 1, the misidentified ones
        tc = TrialConfig(n_pulses=20_000, seed=31, cfg=cfg, usd=usd, plan=HALF_PLAN)
        stats = run_trials(tc, block_size=777)
        arr = sample_pulses(tc)
        state, outcome, fwd = arr["state"], arr["outcome"], arr["forwarded"]
        for s in StateKind:
            for o in UsdOutcome:
                for f in (False, True):
                    n = int(np.sum((state == s) & (outcome == o) & (fwd == f)))
                    xi = usd.xi_mu if s == StateKind.SIGNAL else usd.xi_nu
                    misidentified = o != UsdOutcome.FAIL and o != s
                    empty = (o == UsdOutcome.FAIL and f) or (misidentified and xi == 1.0)
                    assert (n == 0) == empty, (s, o, f)
        sig = state == StateKind.SIGNAL
        n_sig, n_dec = int(np.sum(sig)), int(np.sum(~sig))
        concl = outcome != UsdOutcome.FAIL
        assert (stats.n_signal, stats.n_decoy) == (n_sig, n_dec)
        assert stats.q_mu_hat == int(np.sum(sig & concl)) / n_sig
        assert stats.q_nu_hat == int(np.sum(~sig & concl)) / n_dec
        assert stats.xi_mu_hat == (int(np.sum(sig & (outcome == UsdOutcome.SIGNAL)))
                                   / int(np.sum(sig & concl)))
        assert stats.xi_nu_hat == (int(np.sum(~sig & (outcome == UsdOutcome.DECOY)))
                                   / int(np.sum(~sig & concl)))
        assert stats.gain_mu_hat == int(np.sum(sig & fwd)) / n_sig
        assert stats.gain_nu_hat == int(np.sum(~sig & fwd)) / n_dec


class TestStatisticalConsistency:
    def test_gains_match_analytics_at_reference_point(self, optimized_plan):
        tc = _trial(optimized_plan, n=1_000_000, seed=20240817)
        stats = run_trials(tc)
        expected = expected_gains(tc)
        for hat, ref, n in (
            (stats.gain_mu_hat, expected.q_mu_gain, stats.n_signal),
            (stats.gain_nu_hat, expected.q_nu_gain, stats.n_decoy),
        ):
            se = math.sqrt(ref * (1 - ref) / n)
            assert abs(hat - ref) <= 5 * se

    def test_all_ones_plan_approaches_conclusive_gain(self):
        usd = UsdPerformance(q_mu=0.5, q_nu=0.4, xi_mu=1.0, xi_nu=1.0)
        plan = YieldPlan(20, np.ones(20), np.ones(20))
        tc = TrialConfig(n_pulses=400_000, seed=29, cfg=REF, usd=usd, plan=plan)
        stats = run_trials(tc)
        for hat, q, alpha, n in (
            (stats.gain_mu_hat, 0.5, REF.mu, stats.n_signal),
            (stats.gain_nu_hat, 0.4, REF.nu, stats.n_decoy),
        ):
            ref = q * (1 - math.exp(-alpha))
            se = math.sqrt(ref * (1 - ref) / n)
            assert abs(hat - ref) <= 5 * se

    def test_success_rate_converges_binomially(self, optimized_plan):
        zs = []
        for seed in range(30):
            tc = _trial(optimized_plan, n=100_000, seed=seed)
            stats = run_trials(tc)
            se = math.sqrt(TABLE_USD.q_mu * (1 - TABLE_USD.q_mu) / stats.n_signal)
            zs.append((stats.q_mu_hat - TABLE_USD.q_mu) / se)
        p = scipy_stats.kstest(np.array(zs), "norm").pvalue
        assert p > 1e-3

    def test_accuracy_estimates_in_range(self, optimized_plan):
        stats = run_trials(_trial(optimized_plan, n=500_000, seed=31))
        for value in (stats.xi_mu_hat, stats.xi_nu_hat):
            assert 0.9 <= value <= 1.0


class TestStabilitySeries:
    def test_constant_series(self):
        rows = [(t, 1.18e-3, 1.16e-3, 0.969, 0.9837) for t in range(10)]
        summary = ingest_stability_series(rows)
        assert summary.n_rows == 10
        assert all(s == 0.0 for s in summary.stds.values())
        assert summary.flagged == ()

    def test_two_row_sample_std(self):
        rows = [(0, 0.1, 0.2, 0.9, 0.9), (1, 0.2, 0.2, 0.9, 0.9)]
        summary = ingest_stability_series(rows)
        assert_allclose(summary.means["q_mu"], 0.15, rtol=1e-12)
        # textbook two-point sample deviation |a-b|/sqrt(2)
        assert_allclose(summary.stds["q_mu"], 0.1 / math.sqrt(2), rtol=1e-12)

    def test_generator_estimator_round_trip(self):
        rng = np.random.default_rng(101)
        n = 748
        target_std = 4.3e-5
        series = np.clip(rng.normal(1.18e-3, target_std, n), 0.0, 1.0)
        rows = [
            (t, float(series[t]), 1.16e-3, 0.969, 0.9837) for t in range(n)
        ]
        summary = ingest_stability_series(rows)
        assert abs(summary.stds["q_mu"] - target_std) <= 0.2 * target_std

    def test_flags_above_threshold(self):
        rows = [(0, 0.1, 0.2, 0.9, 0.9), (1, 0.3, 0.2, 0.9, 0.9)]
        summary = ingest_stability_series(rows, deviation_threshold=0.05)
        assert summary.flagged == ("q_mu",)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="at least 2"):
            ingest_stability_series([(0, 0.1, 0.1, 0.9, 0.9)])

    def test_rejects_malformed_rows_with_index(self):
        rows = [(0, 0.1, 0.1, 0.9, 0.9), (1, 0.1, 0.1, 0.9)]
        with pytest.raises(ValueError, match="row 1"):
            ingest_stability_series(rows)
        rows = [(0, 0.1, 0.1, 0.9, 0.9), (1, 0.1, 1.1, 0.9, 0.9)]
        with pytest.raises(ValueError, match="row 1.*q_nu"):
            ingest_stability_series(rows)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "stability.csv"
        path.write_text(
            "t,q_mu,q_nu,xi_mu,xi_nu\n"
            "0,0.00118,0.00116,0.969,0.9837\n"
            "1,0.00119,0.00115,0.970,0.9836\n"
        )
        rows = read_stability_csv(path)
        assert len(rows) == 2
        summary = ingest_stability_series(rows)
        assert summary.n_rows == 2

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b,c,d\n0,1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            read_stability_csv(path)
