"""The golden corpus made by make_golden.py, replayed on this tree.

run_trials.txt holds Monte Carlo statistics, whose bits depend only on
numpy; every case must match it exactly at every block size, and a failure
names both numpy versions.

cli.txt, analysis.txt and demos.txt depend on the LP solver too. Their
headers record the Python, numpy and scipy versions. When numpy and scipy
match the running ones, every entry must match byte for byte. Otherwise
the test warns that it runs in tolerant mode: text, exit codes, booleans,
integers and numbers printed to at most two decimals must still match
exactly, and other numbers to 1e-6 relative. No entry is ever skipped.
"""
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from make_golden import analysis_results, cli_entry, demo_entry, versions
from qkdattack.attack import UsdPerformance, YieldPlan
from qkdattack.cli import CONFIG_ENV_VAR
from qkdattack.coherent import SourceConfig
from qkdattack.montecarlo import TrialConfig, run_trials

HERE = pathlib.Path(__file__).parent
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _corpus(name: str) -> tuple[dict[str, str], list[str]]:
    """(header fields, entries) of a corpus file."""
    header, *entries = (HERE / name).read_text().rstrip("\n").split("\n\n")
    return dict(line.split(" ", 1) for line in header.splitlines()), entries


FIELDS, CASES = _corpus("run_trials.txt")
CLI_HEADER, CLI_ENTRIES = _corpus("cli.txt")
ANALYSIS_HEADER, ANALYSIS_ENTRIES = _corpus("analysis.txt")
DEMO_HEADER, DEMO_ENTRIES = _corpus("demos.txt")


def _first_line(entry: str, prefix: str) -> str:
    return entry.split("\n", 1)[0][len(prefix):]


def _loose(number: str) -> bool:
    """True for a number printed with an exponent or more than two decimals."""
    mantissa, exponent, _ = number.lower().partition("e")
    return bool(exponent) or len(mantissa.partition(".")[2]) > 2


def _assert_matches(name: str, header: dict[str, str], want: str, got: str):
    running = versions()
    built = ", ".join(f"{k} {header[k]}" for k in running)
    here = ", ".join(f"{k} {v}" for k, v in running.items())
    if all(header[k] == running[k] for k in ("numpy", "scipy")):
        assert got == want, f"{name}, exact mode: corpus {built}; running {here}"
        return
    warnings.warn(f"{name} compared in tolerant mode: corpus {built}; running {here}")
    assert _NUMBER.split(got) == _NUMBER.split(want), f"{name}: text differs"
    moved = [(w, g) for w, g in zip(_NUMBER.findall(want), _NUMBER.findall(got))
             if w != g and not (_loose(w) and math.isclose(float(w), float(g), rel_tol=1e-6))]
    assert not moved, f"{name}, tolerant mode: numbers moved {moved}"


def _replay(case: str) -> tuple[list[str], list[str]]:
    """(corpus block lines, the same lines from this tree's run_trials)."""
    lines = case.splitlines()
    rows = {line.split(" ", 1)[0]: line.split()[1:] for line in lines}
    z_mu = np.array([float.fromhex(z) for z in rows["z_mu"]])
    z_nu = np.array([float.fromhex(z) for z in rows["z_nu"]])
    tc = TrialConfig(
        n_pulses=int(FIELDS["pulses"]), seed=int(rows["seed"][0]),
        cfg=SourceConfig(*map(float, rows["source"])),
        usd=UsdPerformance(*map(float, rows["usd"])),
        plan=YieldPlan(len(z_mu), z_mu, z_nu),
    )
    want = [line for line in lines if line.startswith("block ")]
    got = []
    for line in want:
        block = int(line.split()[1])
        got.append(f"block {block} {run_trials(tc, block_size=block)!r}")
    return want, got


@pytest.mark.parametrize("case", CASES, ids=[_first_line(c, "case ") for c in CASES])
def test_run_trials_matches_corpus(case):
    want, got = _replay(case)
    assert len(want) == 3
    assert got == want, f"corpus numpy {FIELDS['numpy']}, running numpy {np.__version__}"


@pytest.mark.parametrize("entry", CLI_ENTRIES, ids=[_first_line(e, "argv ") for e in CLI_ENTRIES])
def test_cli_matches_corpus(entry, monkeypatch, tmp_path):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)  # where --out files land
    _assert_matches("cli.txt", CLI_HEADER, entry, cli_entry(_first_line(entry, "argv ")))


@pytest.mark.parametrize("entry", ANALYSIS_ENTRIES,
                         ids=[_first_line(e, "case ") for e in ANALYSIS_ENTRIES])
def test_analysis_matches_corpus(entry):
    inputs = entry.split("\nregion ", 1)[0]
    got = "\n".join([inputs, *analysis_results(inputs)])
    _assert_matches("analysis.txt", ANALYSIS_HEADER, entry, got)


@pytest.mark.parametrize("entry", DEMO_ENTRIES, ids=[_first_line(e, "demo ") for e in DEMO_ENTRIES])
def test_demos_match_corpus(entry, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # an empty directory for the files a demo writes
    _assert_matches("demos.txt", DEMO_HEADER, entry, demo_entry(_first_line(entry, "demo ")))
