"""Tests for the command line: config handling, outputs, exit codes."""
import dataclasses
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qkdattack import analysis, attack, cli, montecarlo
from qkdattack.cli import CONFIG_ENV_VAR, ConfigError, UsageError, parse_config
from qkdattack.defaults import DEFAULT_CONFIG

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


class TestParseConfig:
    def test_empty_config_applies_defaults(self):
        rc = parse_config()
        assert rc.source.mu == 0.5 and rc.source.nu == 0.1
        assert rc.channel.y0 == 1e-7 and rc.channel.e_d == 0.02
        assert rc.channel.loss_db == pytest.approx(40.0, rel=1e-12)
        with pytest.raises(ConfigError, match="unknown field") as err:
            parse_config(overrides=["channel.detector_efficiency=0.05"])
        assert err.value.path == "channel.detector_efficiency"
        assert rc.usd.q_mu == 1.18e-3 and rc.usd.xi_nu == 0.9837
        assert rc.solver == {"n_trunc": 20, "enforce_errors": False}
        assert rc.sweep == (30.0, 50.0, 0.1)

    def test_mu_below_nu_names_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides=["source.mu=0.05"])
        assert err.value.path == "source.mu"

    def test_loss_and_eta_exclusive(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides=["channel.eta=0.001", "channel.loss_db=30"])
        assert "loss_db" in str(err.value)

    def test_eta_alone_accepted(self):
        rc = parse_config(overrides=["channel.eta=0.001"])
        assert rc.channel.eta == 0.001

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides=["channel.losss_db=30"])
        assert err.value.path == "channel.losss_db"

    def test_ideal_selector_excludes_explicit_values(self):
        with pytest.raises(ConfigError):
            parse_config(overrides=["usd.ideal=optimal", "usd.q_mu=0.01"])

    def test_ideal_optimal_uses_source_probability(self):
        rc = parse_config(overrides=["usd.ideal=optimal"])
        assert rc.usd.q_mu == pytest.approx(0.03747631095186965, rel=1e-12)
        assert rc.usd.xi_mu == 1.0
        rc_pi = parse_config(
            overrides=["usd.ideal=optimal", f"source.theta_d={math.pi}"]
        )
        assert rc_pi.usd.q_mu == pytest.approx(0.2303376746869097, rel=1e-12)

    def test_ideal_linear_optics(self):
        rc = parse_config(overrides=["usd.ideal=linear_optics"])
        assert rc.usd.q_mu == pytest.approx(0.018738155475934826, rel=1e-12)

    def test_rejects_super_physical_usd(self):
        with pytest.raises(ConfigError):
            parse_config(overrides=["usd.q_mu=0.5"])

    def test_config_file_and_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"channel": {"loss_db": 38.0}}))
        rc = parse_config(str(path))
        assert rc.channel.loss_db == pytest.approx(38.0, rel=1e-12)
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        rc_env = parse_config()
        assert rc_env.channel.loss_db == pytest.approx(38.0, rel=1e-12)

    def test_bad_json_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(UsageError):
            parse_config(str(path))

    def test_set_value_types(self):
        rc = parse_config(overrides=[
            "solver.enforce_errors=true", "mc.n_pulses=500", "mc.seed=42",
        ])
        assert rc.solver["enforce_errors"] is True
        assert rc.mc == {"n_pulses": 500, "seed": 42}

    def test_malformed_set(self):
        with pytest.raises(UsageError):
            parse_config(overrides=["solver.enforce_errors"])
        with pytest.raises(UsageError):
            parse_config(overrides=["enforce_errors=true"])


class TestCommands:
    def test_usd_defaults(self, capsys):
        assert cli.main(["usd"]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert abs(float(out["q_opt"]) - 0.0375) < 5e-5
        assert abs(float(out["q_max"]) - 0.0187) < 5e-5
        assert abs(float(out["p_f"]) + float(out["q_opt"]) - 1.0) < 1e-12

    def test_bounds_at_success_point(self, capsys):
        assert cli.main(["bounds", "--set", "channel.loss_db=38"]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert out["feasible"] == "true" and out["attack_success"] == "true"
        assert float(out["r_lower"]) > float(out["r_upper"]) > 0

    def test_sweep_csv_and_determinism(self, tmp_path):
        args = [
            "sweep", "--set", "sweep.start_db=36", "--set", "sweep.end_db=37",
            "--set", "sweep.step_db=0.5",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0] == "loss_db,eta,q_mu_gain,r_lower,r_upper,feasible,attack_success"
        assert len(lines) == 4

    def test_sweep_empty_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = cli.main([
            "sweep", "--set", "sweep.start_db=40", "--set", "sweep.end_db=30",
            "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_sweep_infeasible_rows_have_empty_upper(self, capsys):
        assert cli.main([
            "sweep", "--set", "sweep.start_db=0", "--set", "sweep.end_db=1",
            "--set", "sweep.step_db=1",
        ]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[4] == "" and fields[5] == "false"

    def test_crossover_ideal_pi_phase(self, capsys):
        code = cli.main([
            "crossover",
            "--set", "usd.ideal=optimal",
            "--set", f"source.theta_d={math.pi}",
            "--set", "sweep.start_db=8", "--set", "sweep.end_db=20",
        ])
        assert code == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert abs(float(out["crossover_db"]) - 13.3) <= 0.5

    def test_crossover_without_bracket_is_computation_error(self, capsys):
        code = cli.main([
            "crossover", "--set", "sweep.start_db=38", "--set", "sweep.end_db=44",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_region_zero_capacity_is_computation_error(self, capsys):
        code = cli.main([
            "region", "--set", "usd.q_mu=0", "--set", "usd.q_nu=0",
        ])
        assert code == 2

    def test_simulate_writes_deterministic_json(self, tmp_path):
        args = [
            "simulate", "--set", "mc.n_pulses=50000", "--set", "channel.loss_db=38",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["n_pulses"] == 50000
        assert set(payload["residuals_se"]) == {"q_mu", "q_nu", "gain_mu", "gain_nu"}

    def test_simulate_infeasible_point_is_computation_error(self, capsys):
        code = cli.main(["simulate", "--set", "channel.loss_db=0"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "--set", "source.mu=1000", "--set", "source.nu=1"],
        ["sweep", "--set", "source.mu=1000", "--set", "source.nu=1", "--set", "sweep.step_db=5"],
        ["region", "--set", "source.mu=1000", "--set", "source.nu=1"],
        ["crossover", "--set", "source.mu=1000", "--set", "source.nu=1"],
    ], ids=["bounds_overflow", "sweep_overflow", "region_overflow", "crossover_overflow"])
    def test_unevaluable_point_is_computation_error(self, argv, capsys, tmp_path):
        # every command that evaluates the point exits 2 with its cause
        out = tmp_path / "never.txt"
        assert cli.main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "e^mu" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_library_warning_is_one_stderr_line(self, capsys):
        argv = ["bounds", "--set", "solver.n_trunc=5", "--set", "channel.loss_db=37"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("loss_db 37.0\n")
        assert captured.err.startswith("warning: photon-number truncation 5 ")
        assert captured.err.count("\n") == 1
        assert "UserWarning" not in captured.err and ".py" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--set", "channel.y0=0.9", "--set", "channel.loss_db=0"],
        ["crossover", "--set", "channel.y0=0.9",
         "--set", "sweep.start_db=0", "--set", "sweep.end_db=2"],
        ["sweep", "--set", "channel.y0=0.9",
         "--set", "sweep.start_db=0", "--set", "sweep.end_db=2"],
    ], ids=["bounds_gain_above_one", "crossover_gain_above_one", "sweep_gain_above_one"])
    def test_background_pushing_gain_above_one_is_usage_error(self, argv, capsys, tmp_path):
        # at the configured loss or anywhere in the sweep range, not as NaN rows
        out = tmp_path / "never.txt"
        assert cli.main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: channel.y0: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command", ["bounds", "sweep", "crossover", "region", "simulate"]
    )
    def test_zero_decoy_intensity_is_usage_error(self, command, capsys):
        assert cli.main([command, "--set", "source.nu=0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: source.nu: ")

    def test_zero_decoy_intensity_allowed_for_usd(self, capsys):
        assert cli.main(["usd", "--set", "source.nu=0"]) == 0
        assert "q_opt" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["usd"],  # fits the stream buffer: the pipe breaks at the final flush
        ["sweep", "--set", "sweep.start_db=36", "--set", "sweep.end_db=46",
         "--set", "sweep.step_db=0.05"],  # overflows it: breaks mid-write
    ], ids=["flush", "write"])
    def test_closed_stdout_exits_cleanly(self, argv):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)  # the reader is gone before the first byte, as with `| head -0`
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qkdattack.cli", *argv],
                stdout=write_fd, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_fd)
        assert proc.returncode == 0
        assert proc.stderr == b""


def test_config_sections_are_library_keywords():
    # the commands pass the solver section as keywords and mc as TrialConfig fields;
    # the keyword defaults are the config defaults, so library and CLI agree
    for func in (analysis.evaluate_point, analysis.sweep, analysis.find_crossover,
                 analysis.success_region, attack.optimize_yields):
        params = inspect.signature(func).parameters
        assert DEFAULT_CONFIG["solver"].keys() <= params.keys(), func.__name__
        for key, value in DEFAULT_CONFIG["solver"].items():
            assert params[key].default == value, (func.__name__, key)
    fields = {f.name for f in dataclasses.fields(montecarlo.TrialConfig)}
    assert DEFAULT_CONFIG["mc"].keys() <= fields


def _invalid_field_values():
    """(field, --set text) pairs of a wrong type, or not finite, per schema field."""
    kinds = {f"{section}.{name}": type(value)
             for section, fields in DEFAULT_CONFIG.items() for name, value in fields.items()}
    kinds.update({"channel.eta": float, "usd.ideal": str})
    for path, kind in kinds.items():
        if kind is str:
            yield path, "5"
        elif kind is bool:
            yield path, "1"
            yield path, '"true"'
        else:
            yield from ((path, text) for text in ("abc", "true", "NaN", "Infinity", "-Infinity"))


def _assert_usage_error(argv, capsys, path):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}")


class TestInvalidInput:
    @pytest.mark.parametrize("path,text", list(_invalid_field_values()))
    def test_field_type_and_finiteness(self, path, text, capsys):
        _assert_usage_error(["usd", "--set", f"{path}={text}"], capsys, f"{path}: ")

    @pytest.mark.parametrize("argv,path", [
        (["sweep", "--set", "sweep.start_db=-1", "--set", "sweep.end_db=1",
          "--set", "sweep.step_db=1"], "sweep.start_db: "),
        (["crossover", "--set", "sweep.end_db=4000"], "sweep.end_db: "),
        (["usd", "--set", "channel.loss_db=-10000"], "channel: "),
        (["simulate", "--set", "mc.seed=-1"], "mc.seed: "),
        (["sweep", "--set", "sweep.start_db=36", "--set", "sweep.end_db=36.000003",
          "--set", "sweep.step_db=1e-9"], "sweep.step_db: "),
        (["sweep", "--set", "sweep.start_db=36", "--set", "sweep.end_db=36.00001",
          "--set", "sweep.step_db=0.0000015"], "sweep.step_db: "),
    ])
    def test_ranges(self, argv, path, capsys, tmp_path):
        out = tmp_path / "never.txt"
        _assert_usage_error(argv + ["--out", str(out)], capsys, path)
        assert not out.exists()

    def test_overflowing_loss_names_the_loss(self, capsys):
        assert cli.main(["usd", "--set", "channel.loss_db=-4000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: channel: ") and "loss_db=-4000" in err
        assert "Numerical result out of range" not in err

    def test_step_too_large_for_grid_names_the_step(self, capsys):
        _assert_usage_error(["sweep", "--set", "sweep.step_db=1e308"], capsys, "sweep.step_db: ")

    @pytest.mark.parametrize("config,path", [
        ({"source": 5}, "source: "),
        ({"mc": None}, "mc: "),
        ([1], "config root"),
    ])
    @pytest.mark.parametrize("overrides", [[], ["--set", "mc.seed=3"]])
    def test_sections_must_be_objects(self, config, path, overrides, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        _assert_usage_error(["usd", "--config", str(cfg)] + overrides, capsys, path)

    def test_unwritable_out(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.txt"
        _assert_usage_error(["usd", "--out", str(out)], capsys, f"cannot write {out}: ")


def _readme_console_examples():
    """(command, expected_stdout) pairs from the README console blocks."""
    text = README.read_text()
    examples = []
    for block in re.findall(r"```console\n(.*?)```", text, flags=re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            assert lines[i].startswith("$ qkdattack"), lines[i]
            argv = shlex.split(lines[i][2:])[1:]
            i += 1
            expected = []
            while i < len(lines) and not lines[i].startswith("$ "):
                expected.append(lines[i])
                i += 1
            examples.append((argv, "\n".join(expected)))
    return examples


@pytest.mark.parametrize(
    "argv,expected", _readme_console_examples(),
    ids=[" ".join(e[0][:1] + e[0][1:3]) for e in _readme_console_examples()],
)
def test_readme_examples(argv, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert out == expected
    if "--out" in argv:
        assert Path(argv[argv.index("--out") + 1]).exists()


def test_readme_library_example():
    # the README's only python block, checked against its console examples
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {}
    exec(block, namespace)
    row, region = namespace["row"], namespace["region"]
    assert (row.r_lower, row.r_upper) == (6.941258019580538e-06, 1.1212664646704118e-06)
    assert row.attack_success
    assert round(namespace["loss"], 2) == 36.31
    assert (round(region.lower_db, 2), round(region.upper_db, 2)) == (36.32, 48.05)
    assert region.upper_mechanism == "bound_recross"
