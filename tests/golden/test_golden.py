"""run_trials replayed against the golden corpus made by make_run_trials.py.

Every case's EmpiricalStats repr must match the corpus exactly at every
block size. The corpus records the numpy version it was made with, and a
failure names both versions; the comparison is exact either way.
"""
import pathlib

import numpy as np
import pytest

from qkdattack.attack import UsdPerformance, YieldPlan
from qkdattack.coherent import SourceConfig
from qkdattack.montecarlo import TrialConfig, run_trials

CORPUS = pathlib.Path(__file__).with_name("run_trials.txt")
HEADER, *CASES = CORPUS.read_text().strip().split("\n\n")
FIELDS = dict(line.split(" ", 1) for line in HEADER.splitlines())


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


@pytest.mark.parametrize("case", CASES, ids=[c.split("\n", 1)[0][5:] for c in CASES])
def test_run_trials_matches_corpus(case):
    want, got = _replay(case)
    assert len(want) == 3
    assert got == want, f"corpus numpy {FIELDS['numpy']}, running numpy {np.__version__}"
