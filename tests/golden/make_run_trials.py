"""Regenerate the run_trials golden corpus, tests/golden/run_trials.txt.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_run_trials.py

Each case is one USD kind at relative phase 0 or pi, with its yield plan
taken from optimize_yields at a loss where the attack is feasible. The
corpus stores the inputs as plain numbers (the plan's yields as float.hex),
so test_golden.py replays run_trials without solving an LP, and the
EmpiricalStats repr at each block size as text, so a failing diff shows
which digit moved. A change that moves a byte regenerates the corpus and
shows the diff.
"""
import math
import pathlib

import numpy as np

from qkdattack.attack import UsdPerformance, optimize_yields
from qkdattack.coherent import SourceConfig, usd_success_linear_optics, usd_success_optimal
from qkdattack.decoy import ChannelParams
from qkdattack.montecarlo import TrialConfig, run_trials

CORPUS = pathlib.Path(__file__).with_name("run_trials.txt")
N_PULSES = 200_000
BLOCKS = (1 << 14, 7919, 1 << 20)
CEILINGS = {"optimal": usd_success_optimal, "linear_optics": usd_success_linear_optics}

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


def _usd(kind, cfg, phase):
    if kind == "measured":
        return UsdPerformance(*MEASURED[phase])
    q = CEILINGS[kind](cfg)
    return UsdPerformance(q_mu=q, q_nu=q)


def main():
    lines = [f"numpy {np.__version__}", f"pulses {N_PULSES}"]
    for kind, phase, mu, nu, loss_db, errors, seed in CASES:
        cfg = SourceConfig(mu=mu, nu=nu, theta_s=phase)
        usd = _usd(kind, cfg, phase)
        sol = optimize_yields(cfg, usd, ChannelParams.from_loss_db(loss_db, y0=1e-7, e_d=0.02),
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
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
