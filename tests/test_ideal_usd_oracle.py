"""The package's ideal-USD answers against the closed form of ideal_usd_oracle.

The oracle pins the README's crossovers (21.2 dB for optimal USD, 13.3 dB at
relative phase pi) without the package's LP. find_crossover must land on the
oracle's root within its 0.01 dB resolution, and every sweep row must carry
the oracle's feasibility and R^u = 0 verdicts, apart from rows within 1e-5
relative of an onset, where float round-off may decide either way.
"""
import math
import pathlib
import sys

import pytest

import ideal_usd_oracle as oracle
from qkdattack.analysis import RESOLUTION_DB, find_crossover, sweep
from qkdattack.attack import UsdPerformance
from qkdattack.coherent import SourceConfig, usd_success_linear_optics, usd_success_optimal
from qkdattack.decoy import ChannelParams

sys.path.insert(0, str(pathlib.Path(__file__).parent / "golden"))
from make_golden import CASES, E_D, Y0  # noqa: E402

BASE = ChannelParams(1.0, Y0, E_D)

# (relative phase, linear optics, crossover in dB to the digits the analytic
# root is quoted to, find_crossover's bracket)
CROSSOVERS = [
    (0.0, False, 21.2486, (17.0, 30.0)),
    (math.pi, False, 13.2898, (8.0, 20.0)),
    (0.0, True, 24.2666, (20.0, 30.0)),
]


def ideal(phase, linear_optics, mu=0.5, nu=0.1):
    """(source, its ideal USD at the ceiling, the oracle's q) at relative phase `phase`."""
    cfg = SourceConfig(mu=mu, nu=nu, theta_d=phase)
    q = (usd_success_linear_optics if linear_optics else usd_success_optimal)(cfg)
    return cfg, UsdPerformance(q, q), oracle.usd_success(mu, nu, phase, linear_optics)


def test_readme_crossovers():
    roots = [oracle.crossover(0.5, 0.1, ideal(phase, lo)[2], Y0, E_D)
             for phase, lo, _, _ in CROSSOVERS]
    assert [round(r, 4) for r in roots] == [want for _, _, want, _ in CROSSOVERS]
    assert [round(r, 1) for r in roots[:2]] == [21.2, 13.3]


@pytest.mark.parametrize("phase,linear_optics,_,bracket", CROSSOVERS)
def test_find_crossover_lands_on_the_oracle_root(phase, linear_optics, _, bracket):
    cfg, usd, q = ideal(phase, linear_optics)
    root = oracle.crossover(cfg.mu, cfg.nu, q, Y0, E_D)
    assert abs(find_crossover(cfg, usd, BASE, *bracket) - root) <= RESOLUTION_DB


# the crossover settings gains-only, and each ideal corpus case with its own errors flag
SWEEPS = [(0.5, 0.1, phase, lo, False) for phase, lo, _, _ in CROSSOVERS] + [
    (mu, nu, phase, kind == "linear_optics", errors)
    for kind, phase, mu, nu, _, errors, _ in CASES if kind != "measured"]


@pytest.mark.parametrize("mu,nu,phase,linear_optics,enforce_errors", SWEEPS)
def test_sweep_rows_take_the_oracle_verdicts(mu, nu, phase, linear_optics, enforce_errors):
    cfg, usd, q = ideal(phase, linear_optics, mu, nu)
    edges = oracle.onsets(mu, nu, q)
    rows = sweep(cfg, usd, BASE, 0.0, 52.0, 0.25, enforce_errors=enforce_errors)
    checked = 0
    for row in rows:
        if any(abs(row.eta / edge - 1.0) <= 1e-5 for edge in edges):
            continue
        r_upper = oracle.attacked_rate(mu, nu, q, row.eta)
        assert row.feasible == (r_upper is not None), row
        if row.feasible:
            assert (row.r_upper == 0.0) == (r_upper == 0.0), row
        checked += 1
    # a band far narrower than the step holds at most one row per onset
    assert checked >= len(rows) - len(edges) and any(r.r_upper for r in rows)
