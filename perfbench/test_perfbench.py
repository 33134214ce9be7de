"""Self-tests of the benchmark: deterministic inputs, metric names, checkers.

Run from the repository root: python3 -m pytest -q perfbench
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from qkdattack import analysis, montecarlo  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer values measured outside the spans
EXTRA = dict.fromkeys(("qkdattack.import_s", "qkdattack.import_scipy_stats_s",
                       "qkdattack.import_scipy_optimize_s", "montecarlo.draw_floor_s",
                       "montecarlo.bytes_drawn", "trace.overhead_frac"), 0.0)


def _inputs(wl_cls, seed):
    wl = wl_cls(seed, str(ROOT))
    return repr([wl.round(r) for r in range(2)])


@pytest.mark.parametrize("wl_cls", workloads.WORKLOADS.values(), ids=workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(wl_cls):
    assert _inputs(wl_cls, 7) == _inputs(wl_cls, 7)
    assert _inputs(wl_cls, 7) != _inputs(wl_cls, 8)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_names_match_benchmark_json():
    wl = workloads.McValidate(1, str(ROOT))
    ops = [workloads.Op("trial", {}, seconds=0.5, work=10, latency=True)]
    metrics, _ = workloads.end_to_end(wl, ops, [(1.0, 0.01), (1.2, 0.01)])
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == \
        {k: unit for k, (_, unit) in metrics.items()}


def test_traced_layer_names_match_benchmark_json():
    wl = workloads.LossScan(3, str(ROOT))
    _, setting, _ = wl.round(0)[0]
    spans = tracer.Tracer()
    spans.install()
    try:
        analysis.sweep(setting.source, setting.usd, setting.channel, 35.0, 36.0, 0.5)
    finally:
        spans.uninstall()
    assert analysis.optimize_yields.__name__ == "optimize_yields"
    metrics = tracer.layer_metrics(spans.snapshot(), EXTRA)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        {k: m["unit"] for k, m in metrics.items()}
    assert metrics["analysis.grid_points"]["value"] == 3
    # the sweep reached the LP through analysis' own binding of optimize_yields
    assert metrics["attack.highs_calls"]["value"] == 3
    assert metrics["decoy.believed_rate_calls"]["value"] == 3


def test_removed_name_is_unmeasured(monkeypatch):
    from qkdattack import attack

    monkeypatch.delattr(attack, "solve_yield_lp")
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    metrics = tracer.layer_metrics(spans.snapshot(), EXTRA)
    assert metrics["attack.lp_calls"]["value"] == tracer.UNMEASURED
    assert metrics["attack.highs_calls"]["value"] == 0


def _failed_share(wl, ops):
    metrics, _ = workloads.end_to_end(wl, ops, [(1.0, 0.01)])
    return 1.0 - metrics["ok_frac"][0]


@pytest.fixture(scope="module")
def loss_scan_ops():
    wl = workloads.LossScan(5, str(ROOT))
    _, setting, end = wl.round(0)[1]  # measured USD, errors enforced
    return wl, wl.execute((1, setting, end))


def test_loss_scan_outputs_pass(loss_scan_ops):
    wl, ops = loss_scan_ops
    wl.check(ops)
    assert [op.failures for op in ops] == [[], []]


@pytest.mark.parametrize("field,change", [
    ("r_lower", lambda v: v * 1.001),
    ("r_upper", lambda v: None if v is None else v * 1.001),
    ("feasible", lambda v: not v),
])
def test_loss_scan_sweep_checker_catches(loss_scan_ops, field, change):
    wl, (sweep, _) = loss_scan_ops
    bad = dataclasses.replace(sweep, failures=[], output=[
        dataclasses.replace(r, **{field: change(getattr(r, field))},
                            attack_success=False) for r in sweep.output])
    wl.check([bad])
    assert bad.failures
    assert _failed_share(wl, [bad]) == 1.0


@pytest.mark.parametrize("shift", [(0.5, 0.0), (0.0, -0.5)])
def test_loss_scan_window_checker_catches(loss_scan_ops, shift):
    wl, (_, window) = loss_scan_ops
    region, crossover = window.output
    bad_region = dataclasses.replace(region, lower_db=region.lower_db + shift[0])
    bad = dataclasses.replace(window, failures=[],
                              output=(bad_region, crossover + shift[1]))
    wl.check([bad])
    assert bad.failures


@pytest.fixture(scope="module")
def mc_op():
    wl = workloads.McValidate(5, str(ROOT))
    (op,) = wl.execute(wl.round(0)[0])
    return wl, op


def test_mc_outputs_pass(mc_op):
    wl, op = mc_op
    wl.check([op])
    assert op.failures == []


def test_mc_checker_catches_wrong_gain(mc_op):
    wl, op = mc_op
    sol, tc, stats = op.output
    wrong = dataclasses.replace(stats, gain_mu_hat=stats.gain_mu_hat + 10 * stats.gain_mu_se + 1e-6)
    bad = dataclasses.replace(op, failures=[], output=(sol, tc, wrong))
    wl.check([bad])
    assert any("gain_mu_hat" in f for f in bad.failures)
    assert _failed_share(wl, [bad]) == 1.0


def test_mc_checker_catches_block_dependence(mc_op, monkeypatch):
    wl, op = mc_op
    real = montecarlo.run_trials

    def block_dependent(tc, block_size=1 << 16):
        stats = real(tc, block_size)
        if block_size == workloads.MC_PREFIX_BLOCK:
            stats = dataclasses.replace(stats, n_signal=stats.n_signal + 1)
        return stats

    monkeypatch.setattr(montecarlo, "run_trials", block_dependent)
    bad = dataclasses.replace(op, failures=[])
    wl.check([bad])
    assert any("block sizes" in f for f in bad.failures)


def _cli_op(inv, code, stdout):
    return workloads.Op("invocation", {}, item=inv, seconds=1.0, work=1, latency=True,
                        output=(code, stdout, ""))


def test_cli_checker():
    wl = workloads.CliCold(5, str(ROOT))
    inv = next(inv for _, inv in wl.round(0) if inv["cmd"] == "usd")
    right = workloads.cli_expected("usd", inv["values"])
    good = [_cli_op(inv, 0, right), _cli_op(inv, 0, right)]
    wl.check(good)
    assert [op.failures for op in good] == [[], []]
    for bad in ([_cli_op(inv, 0, right.replace("p_f", "p_g"))],
                [_cli_op(inv, 1, right)],
                [_cli_op(inv, 0, right), _cli_op(inv, 0, right + " ")]):
        wl.check(bad)
        assert bad[-1].failures
        assert _failed_share(wl, bad) > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loss_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
