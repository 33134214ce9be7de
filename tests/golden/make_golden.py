"""Regenerate the golden corpus in tests/golden/.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

It writes four files, each as text, so a failing diff shows which digit
moved. A change that moves a byte regenerates the corpus and shows the diff.

- run_trials.txt: the EmpiricalStats repr of each case in CASES at three
  block sizes. Each case is one USD kind at relative phase 0 or pi, with
  its yield plan taken from optimize_yields at a loss where the attack is
  feasible. The inputs are stored as plain numbers (the plan's yields as
  float.hex), so test_golden.py replays run_trials without solving an LP.
- cli.txt: exit code, stdout, stderr and --out file of cli.main(argv), run
  in process, for each argv in CLI_CASES.
- analysis.txt: the repr of success_region over a 0-52 dB, 1 dB scan and
  of find_crossover over a stored bracket, for each case in CASES; then the
  same over each LOSS_SCAN setting's own scan and bracket, and for each
  EDGE_CASES setting.
- demos.txt: stdout and written CSV files of each script in DEMOS, run in
  process in an empty directory. usd_discrimination is left out: it prints
  round-off of about 1e-16 from LAPACK, which varies between builds.

cli.txt, analysis.txt and demos.txt depend on the LP solver's bits, so they
record the Python, numpy and scipy versions; test_golden.py compares them
exactly only when numpy and scipy match.

The fifth file, census.txt, is census.py's output, with the same header: one
line per setting of the benchmark's loss_scan. census.py writes it, not this
script, and CI compares it in exact mode; it takes about 40 s a run. The
sixth, census_deep.txt, is census.py --deep's output: one line per loss_scan
round that a 20 s benchmark run reaches beyond census.txt's, also compared
in exact mode; it takes about 2.5 min a run on 2 cores.
"""
import contextlib
import io
import math
import os
import pathlib
import platform
import runpy
import shlex
import tempfile

import numpy as np
import scipy

from qkdattack import cli
from qkdattack.analysis import find_crossover, success_region, sweep
from qkdattack.attack import UsdPerformance, optimize_yields
from qkdattack.coherent import SourceConfig, usd_success_linear_optics, usd_success_optimal
from qkdattack.decoy import ChannelParams
from qkdattack.montecarlo import TrialConfig, run_trials

HERE = pathlib.Path(__file__).parent
N_PULSES = 200_000
BLOCKS = (1 << 14, 7919, 1 << 20)
CEILINGS = {"optimal": usd_success_optimal, "linear_optics": usd_success_linear_optics}
Y0, E_D = 1e-7, 0.02
REGION_SCAN = (0.0, 52.0, 1.0)

# (USD kind, relative phase, mu, nu, loss dB, enforce_errors, seed); measured
# USD has xi < 1, the ideal kinds identify perfectly at their ceiling
CASES = (
    ("measured", 0.0, 0.5, 0.1, 38.0, False, 101),
    ("measured", math.pi, 0.48, 0.15, 36.0, True, 102),
    ("optimal", 0.0, 0.5, 0.12, 24.0, False, 103),
    ("optimal", math.pi, 0.55, 0.2, 14.0, True, 104),
    ("linear_optics", 0.0, 0.45, 0.11, 26.0, True, 105),
    ("linear_optics", math.pi, 0.52, 0.16, 16.0, False, 106),
)
MEASURED = {0.0: (1.18e-3, 1.16e-3, 0.969, 0.9837),
            math.pi: (1.25e-3, 1.22e-3, 0.975, 0.985)}

# The benchmark's loss_scan settings for seed 1, round 0, one per family, as
# (mu, nu, theta_s, (q_mu, q_nu, xi_mu, xi_nu), y0, e_d, enforce_errors,
# end_db, bracket). The scan runs from 0 dB to end_db at 1 dB; the bracket
# runs from the first feasible to the last success row of the setting's
# 0.5 dB sweep over the same range.
LOSS_SCAN = (
    (0.4551, 0.1204, 0.0, (0.0012265, 0.0012158, 0.968, 0.9794),
     1.318e-07, 0.0215, False, 51.5, (30.5, 49.0)),
    (0.4046, 0.1429, math.pi, (0.0013091, 0.0012811, 0.9762, 0.9845),
     1.335e-07, 0.0207, True, 53.0, (30.0, 50.5)),
    (0.5163, 0.1299, 0.0, (0.031554583997249086, 0.031554583997249086, 1.0, 1.0),
     5.369e-08, 0.0185, False, 56.0, (16.5, 53.5)),
    (0.4986, 0.1177, math.pi, (0.24057989944432956, 0.24057989944432956, 1.0, 1.0),
     1.782e-07, 0.0194, True, 50.0, (7.5, 47.5)),
    (0.4163, 0.1507, 0.0, (0.00818910380283977, 0.00818910380283977, 1.0, 1.0),
     1.412e-07, 0.0188, True, 53.5, (22.0, 51.0)),
    (0.5497, 0.1862, math.pi, (0.14551397248842457, 0.14551397248842457, 1.0, 1.0),
     1.123e-07, 0.0183, False, 53.5, (9.5, 51.0)),
    # measured USD with errors enforced; its window ends by bound_recross
    (0.4595, 0.1123, 0.0, (0.0012301, 0.0012042, 0.9748, 0.9778),
     6.696e-08, 0.0225, True, 53.0, (30.5, 50.5)),
    (0.4836, 0.1804, math.pi, (0.0010749, 0.0010501, 0.9706, 0.9861),
     1.867e-07, 0.018, False, 52.0, (31.0, 49.5)),
)

# Windows whose ends the settings above do not reach, as (name, (mu, nu,
# theta_s), (q_mu, q_nu, xi_mu, xi_nu), (y0, e_d), enforce_errors, bracket)
# over REGION_SCAN.
EDGE_CASES = (
    # measured USD, gains only, with q_nu far below q_mu: the attack already
    # succeeds where it turns feasible, so that onset is the lower end
    ("feasibility onset", (0.426, 0.125, 0.0), (0.0114, 0.001725, 0.9975, 0.9023),
     (1e-7, 0.02), False, (29.0, 52.0)),
    # ideal USD at a high background with errors enforced: the rate aborts
    # at 42.4 dB, well before the other settings' windows close
    # (optimal USD, q at its ceiling)
    ("ideal early rate_abort", (0.5, 0.3, 0.0),
     (0.0063307087754438385, 0.0063307087754438385, 1.0, 1.0), (1e-6, 0.02), True, (27.75, 29.5)),
)

_PI = repr(math.pi)
# Command lines of cli.txt. README invocations are pinned by test_cli's
# test_readme_examples; --help and argparse's own messages vary by Python
# version, so neither is here.
CLI_CASES = (
    # every command at the defaults; the default crossover bracket starts
    # at an infeasible point, so it exits 2
    "usd", "bounds", "sweep", "crossover", "region", "simulate",
    # ideal USD
    "bounds --set usd.ideal=optimal --set channel.loss_db=25",
    "sweep --set usd.ideal=linear_optics --set sweep.step_db=1",
    f"region --set usd.ideal=optimal --set source.theta_d={_PI} "
    "--set sweep.start_db=5 --set sweep.end_db=25 --set sweep.step_db=1",
    "crossover --set usd.ideal=linear_optics --set sweep.start_db=20 --set sweep.end_db=30",
    # ideal USD with errors enforced
    "region --set usd.ideal=optimal --set solver.enforce_errors=true "
    "--set sweep.start_db=5 --set sweep.step_db=0.5",
    "crossover --set usd.ideal=optimal --set solver.enforce_errors=true "
    "--set sweep.start_db=20 --set sweep.end_db=30",
    # simulate variants, with and without --out
    "simulate --set solver.enforce_errors=true --set channel.loss_db=38",
    "simulate --set mc.n_pulses=300000 --out sim.json",
    "sweep --set sweep.start_db=36 --set sweep.end_db=37 --set sweep.step_db=0.5 --out s.csv",
    # a photon-number truncation the library warns about
    "bounds --set solver.n_trunc=5 --set channel.loss_db=37",
    "region --set solver.n_trunc=5 --set sweep.step_db=1",
    # a point the attack cannot reach, at a zero loss
    "bounds --set channel.loss_db=0",
    "simulate --set channel.loss_db=0",
    # far past the window, where the single-photon signal yield is zero
    "bounds --set channel.loss_db=120",
    # a loss where the decoy gain is exactly 0 and the signal gain 1.1e-16:
    # measured USD has no plan, so simulate exits 2; ideal USD reaches the
    # solver, which fixes its decoy yields at 0
    "bounds --set channel.loss_db=158 --set source.nu=0.001",
    "bounds --set channel.loss_db=158 --set source.nu=0.001 --set usd.ideal=optimal",
    "simulate --set channel.loss_db=158 --set source.nu=0.001",
    # measured USD with errors enforced, where the printed R^u is 5.5% above
    # the exact optimum (loss_scan seed 7, round 9, setting 78)
    "bounds --set source.mu=0.4689 --set source.nu=0.1239 --set usd.q_mu=0.0011157 "
    "--set usd.q_nu=0.001092 --set usd.xi_mu=0.9798 --set usd.xi_nu=0.9859 "
    "--set channel.y0=6.735e-08 --set channel.e_d=0.0178 --set solver.enforce_errors=true "
    "--set channel.loss_db=50.5",
    # 0.01 dB across the loss where the single-photon signal yield reaches
    # zero, for the defaults and for ideal USD with errors enforced
    "sweep --set sweep.start_db=42.6 --set sweep.end_db=42.8 --set sweep.step_db=0.01",
    "sweep --set usd.ideal=optimal --set solver.enforce_errors=true "
    "--set sweep.start_db=21.6 --set sweep.end_db=21.8 --set sweep.step_db=0.01",
    # a background rate that pushes an observed gain above 1
    "bounds --set channel.y0=0.9 --set channel.loss_db=0",
    "sweep --set channel.y0=0.9 --set sweep.start_db=0 --set sweep.end_db=2",
    # an intensity whose one-decoy estimate overflows
    "bounds --set source.mu=1000 --set source.nu=1",
    "sweep --set source.mu=1000 --set source.nu=1 --set sweep.step_db=5",
    "region --set source.mu=1000 --set source.nu=1",
    # no decoy intensity
    "bounds --set source.nu=0",
    "usd --set source.nu=0",
    # sweep ranges
    "sweep --set sweep.step_db=0",
    "sweep --set sweep.step_db=1e308",
    "sweep --set sweep.start_db=60",
    # malformed configuration
    "usd --set foo.x=1",
    "bounds --set channel.eta=0.001 --set channel.loss_db=30",
    # no success point in the region scan
    "region --set usd.q_mu=0 --set usd.q_nu=0",
    # a crossover bracket with no sign change
    "crossover --set sweep.start_db=38 --set sweep.end_db=44",
)


# Scripts under demos/ whose output demos.txt holds.
DEMOS = ("key_rate_bounds", "attack_success_region", "monte_carlo_check")
DEMO_DIR = HERE.parents[1] / "demos"


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _usd(kind, cfg, phase):
    if kind == "measured":
        return UsdPerformance(*MEASURED[phase])
    q = CEILINGS[kind](cfg)
    return UsdPerformance(q_mu=q, q_nu=q)


def _stream(name: str, text: str) -> list[str]:
    lines = [f"{name}| {line}" for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append(f"{name}\\ no newline at end")
    return lines


def cli_entry(command: str) -> str:
    """The corpus entry of one command line, run in the current directory."""
    argv = shlex.split(command)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = [f"argv {command}", f"exit {code}", *_stream("stdout", out.getvalue()),
             *_stream("stderr", err.getvalue())]
    if "--out" in argv:
        path = pathlib.Path(argv[argv.index("--out") + 1])
        if path.exists():
            lines += _stream(f"file {path}", path.read_text())
    return "\n".join(lines)


def demo_entry(name: str) -> str:
    """The corpus entry of one demo script, run in process in the current directory,
    which holds no other files."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    lines = [f"demo {name}", *_stream("stdout", out.getvalue())]
    for path in sorted(pathlib.Path().iterdir()):
        lines += _stream(f"file {path}", path.read_text())
    return "\n".join(lines)


@contextlib.contextmanager
def _scratch_dir():
    """Run the body in a new empty directory, where written files land."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            yield
        finally:
            os.chdir(home)


def analysis_results(case: str) -> list[str]:
    """The region and crossover lines of an analysis.txt entry, from its inputs.

    An entry's scan line, when it has one, replaces the header's REGION_SCAN.
    """
    rows = {line.split(" ", 1)[0]: line.split()[1:] for line in case.splitlines()}
    cfg = SourceConfig(*map(float, rows["source"]))
    usd = UsdPerformance(*map(float, rows["usd"]))
    y0, e_d = map(float, rows["channel"])
    ch = ChannelParams.from_loss_db(40.0, y0=y0, e_d=e_d)  # each point replaces the loss
    errors = rows["errors"] == ["True"]
    lo, hi = map(float, rows["bracket"])
    scan = tuple(map(float, rows["scan"])) if "scan" in rows else REGION_SCAN
    region = success_region(cfg, usd, ch, scan, enforce_errors=errors)
    loss = find_crossover(cfg, usd, ch, lo, hi, enforce_errors=errors)
    return [f"region {region!r}", f"crossover {loss!r}"]


def _bracket(cfg, usd, ch, errors) -> tuple[float, float]:
    """A crossover bracket off the region scan's grid around its first sign change."""
    rows = sweep(cfg, usd, ch, *REGION_SCAN, enforce_errors=errors)
    a, b = next((a, b) for a, b in zip(rows, rows[1:]) if a.feasible and b.feasible
                and (a.r_lower > a.r_upper) != (b.r_lower > b.r_upper))
    return a.loss_db - 0.25, b.loss_db + 0.5


def _header(**extra) -> list[str]:
    return [f"{name} {version}" for name, version in {**versions(), **extra}.items()]


def make_run_trials() -> str:
    lines = [f"numpy {np.__version__}", f"pulses {N_PULSES}"]
    for kind, phase, mu, nu, loss_db, errors, seed in CASES:
        cfg = SourceConfig(mu=mu, nu=nu, theta_s=phase)
        usd = _usd(kind, cfg, phase)
        sol = optimize_yields(cfg, usd, ChannelParams.from_loss_db(loss_db, y0=Y0, e_d=E_D),
                              enforce_errors=errors)
        if not sol.feasible:
            raise SystemExit(f"{kind} at phase {phase}: no feasible plan at {loss_db} dB")
        tc = TrialConfig(n_pulses=N_PULSES, seed=seed, cfg=cfg, usd=usd, plan=sol.plan)
        lines += [
            "",
            f"case {kind} {phase!r}",
            f"source {mu!r} {nu!r} {phase!r}",
            f"usd {usd.q_mu!r} {usd.q_nu!r} {usd.xi_mu!r} {usd.xi_nu!r}",
            f"seed {seed}",
            "z_mu " + " ".join(float(z).hex() for z in sol.plan.z_mu),
            "z_nu " + " ".join(float(z).hex() for z in sol.plan.z_nu),
        ]
        lines += [f"block {b} {run_trials(tc, block_size=b)!r}" for b in BLOCKS]
    return "\n".join(lines) + "\n"


def make_cli() -> str:
    with _scratch_dir():  # where --out files land
        entries = [cli_entry(command) for command in CLI_CASES]
    return "\n\n".join(["\n".join(_header()), *entries]) + "\n"


def make_demos() -> str:
    entries = []
    for name in DEMOS:
        with _scratch_dir():
            entries.append(demo_entry(name))
    return "\n\n".join(["\n".join(_header()), *entries]) + "\n"


def _numbers(key: str, values) -> str:
    return " ".join([key, *map(repr, values)])


def _analysis_entry(name, source, usd, channel, errors, bracket, scan=None) -> str:
    """An analysis.txt entry: its inputs as plain numbers, then its results."""
    lines = [f"case {name}", _numbers("source", source), _numbers("usd", usd),
             _numbers("channel", channel), f"errors {errors}", _numbers("bracket", bracket)]
    if scan is not None:
        lines.append(_numbers("scan", scan))
    inputs = "\n".join(lines)
    return "\n".join([inputs, *analysis_results(inputs)])


def make_analysis() -> str:
    entries = ["\n".join(_header(scan=" ".join(map(repr, REGION_SCAN))))]
    for kind, phase, mu, nu, _, errors, _ in CASES:
        cfg = SourceConfig(mu=mu, nu=nu, theta_s=phase)
        usd = _usd(kind, cfg, phase)
        bracket = _bracket(cfg, usd, ChannelParams.from_loss_db(40.0, y0=Y0, e_d=E_D), errors)
        entries.append(_analysis_entry(
            f"{kind} {phase!r}", (mu, nu, phase), (usd.q_mu, usd.q_nu, usd.xi_mu, usd.xi_nu),
            (Y0, E_D), errors, bracket,
        ))
    for i, (mu, nu, phase, usd, y0, e_d, errors, end, bracket) in enumerate(LOSS_SCAN):
        entries.append(_analysis_entry(
            f"loss_scan seed 1 setting {i}", (mu, nu, phase), usd, (y0, e_d), errors, bracket,
            scan=(0.0, end, 1.0),
        ))
    for name, source, usd, channel, errors, bracket in EDGE_CASES:
        entries.append(_analysis_entry(name, source, usd, channel, errors, bracket))
    return "\n\n".join(entries) + "\n"


def main():
    os.environ.pop(cli.CONFIG_ENV_VAR, None)
    for name, make in (("run_trials.txt", make_run_trials), ("cli.txt", make_cli),
                       ("analysis.txt", make_analysis), ("demos.txt", make_demos)):
        (HERE / name).write_text(make())


if __name__ == "__main__":
    main()
