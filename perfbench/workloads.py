"""The benchmark's workloads: seeded inputs, timed calls and output checks.

Every input is derived from (workload, seed, index) alone, so the same seed
gives the same inputs however far a run gets. Inputs come in rounds that
cycle once through a fixed list of families; a run executes whole rounds,
so every run measures the same mix. Each workload is closed-loop with one
client: the next call starts when the previous one returns.

loss_scan    per source setting, in process: a dense analysis.sweep from
             0 dB past the loss where R_l <= 0, then success_region and
             find_crossover on the same setting.
mc_validate  one optimize_yields and one run_trials of MC_PULSES per trial.
cli_cold     fresh-interpreter invocations of the six subcommands, one at a
             time, plus one repeat per round.

Checks run after the timed section, against the independent oracle in
oracle.py, and never inside a timing. Timings are wall seconds divided by
the machine's slowness measured around them (see slowness()).
"""
from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

import oracle
import tracer
import qkdattack as qa
from qkdattack import analysis, attack, coherent, montecarlo

N_TRUNC = 20

# loss_scan grids, dB: a dense sweep and the coarser scan success_region refines
SWEEP_STEP_DB = 0.5
REGION_STEP_DB = 1.0
PAST_ZERO_DB = 2.0  # the grid ends this far past the first loss with R_l <= 0
MIN_RATE_ZERO_DB = 46.0  # settings whose R_l dies earlier are redrawn (draw_values)

# (USD kind, relative phase, enforce_errors); "measured" is a measured-like
# USD with xi < 1, the ideal kinds identify perfectly at their ceiling
FAMILIES = (
    ("measured", 0.0, False),
    ("measured", math.pi, True),
    ("optimal", 0.0, False),
    ("optimal", math.pi, True),
    ("linear_optics", 0.0, True),
    ("linear_optics", math.pi, False),
    ("measured", 0.0, True),
    ("measured", math.pi, False),
)

# mc_validate: FAMILIES' first six, each at a loss drawn from a range where
# the attack is feasible
MC_PULSES = 2_000_000
MC_LOSS_DB = ((33.0, 40.0), (33.0, 40.0), (19.0, 28.0), (10.0, 18.0),
              (22.0, 30.0), (13.0, 20.0))
MC_PREFIX = 100_000  # pulses re-run with MC_PREFIX_BLOCK for the bit-identity check
MC_PREFIX_BLOCK = 7919
Z_MAX = 6.0  # largest accepted |z| of an empirical rate against its plan value

CLI_COMMANDS = ("usd", "bounds", "crossover", "region", "sweep", "simulate")
CLI_PULSES = 100_000

# relative and absolute tolerances against the oracle
R_LOWER_TOL = (1e-8, 1e-15)
R_UPPER_TOL = (1e-6, 1e-15)
SAMPLED_ROWS = 12  # seeded sample of each sweep's rows checked with the LP oracle
PROBE_DB = 0.01  # window endpoints are probed this far on each side

# nominal time of the reference kernel, about its time on an idle 2-core
# Xeon; its measured time over this is the machine's slowness at that moment
REFERENCE_S = 0.015


def bench_env(root: str) -> dict:
    """Environment of the package's child processes: ./src, no user config."""
    env = {k: v for k, v in os.environ.items() if k != "QKDATTACK_CONFIG"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


@dataclass
class Op:
    """One attempted operation: a sweep, a window, a trial or an invocation."""

    kind: str
    inputs: dict
    item: object = None  # the generated input the op ran on
    seconds: float | None = None  # timed part; None when it raised
    work: int = 0  # units counted by work_per_s (rows, pulses, invocations)
    latency: bool = False  # whether seconds is an op_s sample
    slowness: float = 1.0  # reference kernel slowness measured around the op
    output: object = None
    failures: list = field(default_factory=list)


def _attempt(op: Op, fn):
    """Time fn() into op; a raised exception becomes a failure of op."""
    t0 = time.perf_counter()
    try:
        op.output = fn()
    except Exception as exc:  # any raise is a failed operation, recorded with its inputs
        op.failures.append(f"raised {type(exc).__name__}: {exc}")
        return False
    op.seconds = time.perf_counter() - t0
    return True


# ---------------------------------------------------------------- settings

@dataclass(frozen=True)
class Setting:
    kind: str
    source: qa.SourceConfig
    usd: qa.UsdPerformance
    channel: qa.ChannelParams
    enforce_errors: bool

    @property
    def usd_tuple(self):
        u = self.usd
        return (u.q_mu, u.q_nu, u.xi_mu, u.xi_nu)

    def oracle_verdict(self, loss_db):
        s, c = self.source, self.channel
        return oracle.verdict(s.mu, s.nu, self.usd_tuple, c.y0, c.e_d, loss_db,
                              self.enforce_errors)

    def describe(self) -> dict:
        s, c = self.source, self.channel
        return {"usd_kind": self.kind, "mu": s.mu, "nu": s.nu,
                "relative_phase": s.relative_phase, "q_mu": self.usd.q_mu,
                "q_nu": self.usd.q_nu, "xi_mu": self.usd.xi_mu,
                "xi_nu": self.usd.xi_nu, "y0": c.y0, "e_d": c.e_d,
                "enforce_errors": self.enforce_errors}


def draw_values(rng: random.Random, kind: str, phase: float) -> dict:
    """Plain numbers of one source/USD/channel setting, rounded for argv.

    Source and channel are redrawn until the closed-form R_l stays positive
    up to MIN_RATE_ZERO_DB: a one-decoy estimate that fails earlier leaves
    no success window to find, whatever the attack.
    """
    while True:
        mu = round(rng.uniform(0.40, 0.55), 4)
        nu = round(mu * rng.uniform(0.22, 0.38), 4)
        v = {"mu": mu, "nu": nu, "theta_s": phase, "kind": kind,
             "y0": float(f"{10 ** rng.uniform(-7.3, -6.7):.3e}"),
             "e_d": round(rng.uniform(0.015, 0.025), 4)}
        if rate_zero_db(mu, nu, v["y0"], v["e_d"]) >= MIN_RATE_ZERO_DB:
            break
    if kind == "measured":
        # misidentification errors (1 - xi) / 2 stay below the misalignment
        # e_d, as in the reference setup (0.0155 < 0.02); beyond that, with
        # errors enforced, the attack turns feasible only where it already
        # succeeds and there is no crossing to find
        q_mu = rng.uniform(1.0e-3, 1.4e-3)
        v.update(q_mu=float(f"{q_mu:.4e}"),
                 q_nu=float(f"{q_mu * rng.uniform(0.97, 1.0):.4e}"),
                 xi_mu=round(1.0 - 2.0 * v["e_d"] * rng.uniform(0.5, 0.85), 4),
                 xi_nu=round(1.0 - 2.0 * v["e_d"] * rng.uniform(0.3, 0.6), 4))
    else:
        q = oracle.usd_success(mu, nu, phase, kind)
        v.update(q_mu=q, q_nu=q, xi_mu=1.0, xi_nu=1.0)
    return v


def make_setting(v: dict, enforce_errors: bool) -> Setting:
    return Setting(
        kind=v["kind"],
        source=qa.SourceConfig(mu=v["mu"], nu=v["nu"], theta_s=v["theta_s"]),
        usd=qa.UsdPerformance(v["q_mu"], v["q_nu"], v["xi_mu"], v["xi_nu"]),
        channel=qa.ChannelParams(eta=1.0, y0=v["y0"], e_d=v["e_d"]),
        enforce_errors=enforce_errors,
    )


def rate_zero_db(mu, nu, y0, e_d) -> float:
    """First loss on the sweep grid where the closed-form R_l is <= 0."""
    grid = np.arange(0.0, 80.0 + SWEEP_STEP_DB / 2, SWEEP_STEP_DB)
    nonpositive = np.nonzero(oracle.believed_rate(mu, nu, y0, e_d, grid) <= 0)[0]
    return float(grid[nonpositive[0]]) if len(nonpositive) else float(grid[-1])


# ---------------------------------------------------------------- reference kernel
#
# The machine's speed drifts from second to second when it is shared. Each
# timed op and setup sample is bracketed by a reference kernel, and timings
# are divided by the kernel's slowness. The kernel runs no qkdattack code,
# so a change to the package does not move it.

def slowness() -> float:
    """Time of a fixed mix of interpreter, numpy and HiGHS work over REFERENCE_S."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    Generator(Philox(key=acc)).random((80_000, 8))
    for loss_db in (33.0, 38.0):
        oracle.attacked_rate(0.5, 0.1, (1.18e-3, 1.16e-3, 0.969, 0.9837), 1e-7, 0.02,
                             loss_db, True)
    return (time.perf_counter() - t0) / REFERENCE_S


def bracketed(calls):
    """Run each call between slowness measurements: [(result, mean slowness)]."""
    out = []
    before = slowness()
    for call in calls:
        result = call()
        after = slowness()
        out.append((result, 0.5 * (before + after)))
        before = after
    return out


# ---------------------------------------------------------------- workloads

class Workload:
    """Base of the workloads: rounds of inputs, one timed call per op, checks after."""

    name = ""
    in_process = True
    trace_rounds = 1  # rounds replayed by a traced run
    setup_repeats = 5  # setup_s samples per run
    aliases: dict = {}  # end-to-end metric -> the workload's own name for it

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def round(self, r: int) -> list:
        raise NotImplementedError

    def execute(self, item) -> list[Op]:
        raise NotImplementedError

    def check_op(self, op: Op, seen: dict) -> None:
        """Append to op.failures what is wrong with its output; seen is shared by a run."""
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Check every op that returned; a check that raises fails its op."""
        seen = {}
        for op in ops:
            if op.output is None:
                continue
            try:
                self.check_op(op, seen)
            except Exception as exc:  # a broken answer can break the check itself
                op.failures.append(f"check raised {type(exc).__name__}: {exc}")

    def warm_up(self) -> None:
        """One call into each layer the workload uses."""

    def setup(self) -> None:
        """Everything before the first timed call: inputs, then warm-up."""
        self.round(0)
        self.warm_up()

    def setup_once(self) -> float:
        """Wall time of a fresh interpreter up to the end of setup()."""
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
               "--workload", self.name, "--seed", str(self.seed), "--setup-only"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=self.root, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or ready != "ready":
                raise RuntimeError(f"setup run failed: {ready!r}")
        return seconds

    def setup_samples(self) -> list[tuple[float, float]]:
        """setup_s samples as (wall seconds, slowness around the sample)."""
        return bracketed([self.setup_once] * self.setup_repeats)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def mc_trials(self, ops) -> list[tuple[int, int]]:
        """(seed, pulses) of every Monte Carlo trial the ops ran."""
        return []

    def properties(self, ops) -> dict:
        """Measured properties of the inputs the ops ran on."""
        return {}

    def named_metrics(self, ops) -> dict:
        """Workload-specific metrics beyond the aliases, for the run description."""
        return {}


class LossScan(Workload):
    name = "loss_scan"
    trace_rounds = 2
    aliases = {"work_per_s": "sweep_points_per_s"}

    def round(self, r):
        items = []
        for f, (kind, phase, errors) in enumerate(FAMILIES):
            index = r * len(FAMILIES) + f
            v = draw_values(_rng(self.name, self.seed, index), kind, phase)
            end = rate_zero_db(v["mu"], v["nu"], v["y0"], v["e_d"]) + PAST_ZERO_DB
            items.append((index, make_setting(v, errors), end))
        return items

    def warm_up(self):
        _, s, _ = self.round(0)[0]
        analysis.evaluate_point(s.source, s.usd, s.channel.at_loss_db(35.0),
                                n_trunc=N_TRUNC, enforce_errors=s.enforce_errors)

    def execute(self, item):
        index, s, end = item
        args = (s.source, s.usd, s.channel)
        kw = {"n_trunc": N_TRUNC, "enforce_errors": s.enforce_errors}
        inputs = {"setting": index, "end_db": end, **s.describe()}
        sweep = Op("sweep", inputs, item=s)
        if _attempt(sweep, lambda: analysis.sweep(*args, 0.0, end, SWEEP_STEP_DB, **kw)):
            sweep.work = len(sweep.output)
        window = Op("window", inputs, item=s, latency=True)
        rows = sweep.output or []
        feasible = [r.loss_db for r in rows if r.feasible]
        succeeding = [r.loss_db for r in rows if r.attack_success]
        if not (feasible and succeeding and feasible[0] < succeeding[0]):
            # the bracket comes from the sweep; without it there is no window call
            window.failures.append("sweep gives no feasible, failing row below a success row")
            return [sweep, window]
        bracket = (feasible[0], succeeding[-1])
        window.inputs = {**inputs, "bracket_db": bracket}
        _attempt(window, lambda: (
            analysis.success_region(*args, (0.0, end, REGION_STEP_DB), **kw),
            analysis.find_crossover(*args, *bracket, **kw),
        ))
        return [sweep, window]

    def check_op(self, op, seen):
        if op.kind == "sweep":
            self._check_sweep(op, op.item)
        else:
            self._check_window(op, op.item)

    def _check_sweep(self, op, s: Setting):
        rows = op.output
        want = np.arange(0.0, op.inputs["end_db"] + 1e-9, SWEEP_STEP_DB)
        if len(rows) != len(want) or any(abs(r.loss_db - w) > 1e-6 for r, w in zip(rows, want)):
            op.failures.append(f"grid has {len(rows)} rows, expected {len(want)}")
            return
        r_low = oracle.believed_rate(s.source.mu, s.source.nu, s.channel.y0,
                                     s.channel.e_d, want)
        for row, ref in zip(rows, r_low):
            if not oracle.close(row.r_lower, ref, *R_LOWER_TOL):
                op.failures.append(f"{row.loss_db} dB: r_lower {row.r_lower!r} vs oracle {ref!r}")
        rng = _rng("loss_scan-sample", self.seed, op.inputs["setting"])
        picked = set(rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows))))
        onset = next((i for i, r in enumerate(rows) if r.feasible), None)
        if onset:
            picked |= {onset - 1, onset}  # the feasibility boundary
        for i in sorted(picked):
            row = rows[i]
            feasible, _, r_up, success = s.oracle_verdict(row.loss_db)
            if feasible != row.feasible:
                op.failures.append(f"{row.loss_db} dB: feasible {row.feasible} vs oracle {feasible}")
            elif feasible and not oracle.close(row.r_upper, r_up, *R_UPPER_TOL):
                op.failures.append(f"{row.loss_db} dB: r_upper {row.r_upper!r} vs oracle {r_up!r}")
            elif success != row.attack_success:
                op.failures.append(f"{row.loss_db} dB: attack_success {row.attack_success} vs oracle {success}")

    def _check_window(self, op, s: Setting):
        region, crossover = op.output
        kw = {"n_trunc": N_TRUNC, "enforce_errors": s.enforce_errors}

        def probe(loss, expect, what):
            ours = analysis.evaluate_point(s.source, s.usd, s.channel.at_loss_db(loss), **kw)
            ref = s.oracle_verdict(loss)
            if ours.attack_success != expect or ref[3] != expect:
                op.failures.append(
                    f"{what} at {loss:.4f} dB: success {ours.attack_success} "
                    f"(oracle {ref[3]}), expected {expect}")
            return ref

        if region.lower_db > 0.0:
            probe(region.lower_db - PROBE_DB, False, "below region.lower_db")
        probe(region.lower_db + PROBE_DB, True, "above region.lower_db")
        if region.upper_db is not None:
            probe(region.upper_db - PROBE_DB, True, "below region.upper_db")
            feasible, r_low, _, _ = probe(region.upper_db + PROBE_DB, False, "above region.upper_db")
            mechanism = ("infeasible" if not feasible
                         else "rate_abort" if r_low <= 0.0 else "bound_recross")
            # where R_l reaches 0 within PROBE_DB above upper_db, the bound has
            # crossed too (R_u >= 0 >= R_l), so both names fit that resolution
            recross_at_abort = (mechanism == "rate_abort"
                                and region.upper_mechanism == "bound_recross"
                                and s.oracle_verdict(region.upper_db)[1] > 0.0)
            if region.upper_mechanism != mechanism and not recross_at_abort:
                op.failures.append(f"upper_mechanism {region.upper_mechanism} vs oracle {mechanism}")
        for loss, positive in ((crossover - PROBE_DB, False), (crossover + PROBE_DB, True)):
            feasible, r_low, r_up, _ = s.oracle_verdict(loss)
            if (feasible and r_low - r_up > 0) != positive:
                op.failures.append(f"crossover {crossover!r}: oracle gap at {loss:.4f} dB "
                                   f"has the wrong sign (feasible {feasible})")

    def properties(self, ops):
        sweeps = [op for op in ops if op.kind == "sweep" and op.output]
        rows = [r for op in sweeps for r in op.output]
        return {
            "settings": len(sweeps),
            "calls_per_setting": 3,
            "rows_per_sweep_mean": len(rows) / max(len(sweeps), 1),
            "infeasible_row_share": sum(not r.feasible for r in rows) / max(len(rows), 1),
            "success_row_share": sum(r.attack_success for r in rows) / max(len(rows), 1),
            "enforce_errors_share": sum(op.inputs["enforce_errors"] for op in sweeps) / max(len(sweeps), 1),
            "sweep_step_db": SWEEP_STEP_DB,
            "region_step_db": REGION_STEP_DB,
        }

    def named_metrics(self, ops):
        windows = [op.seconds for op in ops if op.kind == "window" and op.seconds is not None]
        return {"windows_per_s": (len(windows) / max(sum(windows), 1e-12), "1/s")}


class McValidate(Workload):
    name = "mc_validate"
    trace_rounds = 4
    aliases = {"work_per_s": "mc_pulses_per_s"}

    def round(self, r):
        items = []
        for f, (lo, hi) in enumerate(MC_LOSS_DB):
            index = r * len(MC_LOSS_DB) + f
            rng = _rng(self.name, self.seed, index)
            kind, phase, errors = FAMILIES[f]
            s = make_setting(draw_values(rng, kind, phase), errors)
            for _ in range(50):
                loss = round(rng.uniform(lo, hi), 2)
                if s.oracle_verdict(loss)[0]:
                    break
            else:
                raise RuntimeError(f"no feasible loss drawn for trial {index}")
            items.append((index, s, loss, rng.randrange(2 ** 31)))
        return items

    def warm_up(self):
        _, s, loss, trial_seed = self.round(0)[0]
        sol = attack.optimize_yields(s.source, s.usd, s.channel.at_loss_db(loss),
                                     n_trunc=N_TRUNC, enforce_errors=s.enforce_errors)
        montecarlo.run_trials(montecarlo.TrialConfig(
            n_pulses=1000, seed=trial_seed, cfg=s.source, usd=s.usd, plan=sol.plan))

    def execute(self, item):
        index, s, loss, trial_seed = item
        op = Op("trial", {"trial": index, "loss_db": loss, "trial_seed": trial_seed,
                          "n_pulses": MC_PULSES, **s.describe()},
                item=s, latency=True)
        try:
            sol = attack.optimize_yields(s.source, s.usd, s.channel.at_loss_db(loss),
                                         n_trunc=N_TRUNC, enforce_errors=s.enforce_errors)
            tc = montecarlo.TrialConfig(n_pulses=MC_PULSES, seed=trial_seed,
                                        cfg=s.source, usd=s.usd, plan=sol.plan)
        except Exception as exc:  # any raise is a failed operation
            op.failures.append(f"raised {type(exc).__name__}: {exc}")
            return [op]
        if _attempt(op, lambda: montecarlo.run_trials(tc)):
            op.output = (sol, tc, op.output)
            op.work = MC_PULSES
        return [op]

    def check_op(self, op, seen):
        op.failures.extend(check_trial(op.item, *op.output, op.inputs["loss_db"]))

    def mc_trials(self, ops):
        return [(op.inputs["trial_seed"], MC_PULSES) for op in ops if op.output is not None]

    def properties(self, ops):
        losses = [op.inputs["loss_db"] for op in ops]
        return {"trials": len(ops), "pulses_per_trial": MC_PULSES,
                "loss_db_min": min(losses, default=None),
                "loss_db_max": max(losses, default=None),
                "enforce_errors_share": sum(op.inputs["enforce_errors"] for op in ops) / max(len(ops), 1)}


def _z_failure(name, hat, p, n) -> str | None:
    """Binomial z-test of an empirical rate hat over n trials against p."""
    if n == 0:
        return None
    var = p * (1.0 - p) / n
    if var == 0.0:
        return None if hat == p else f"{name} {hat!r} but the plan gives exactly {p!r}"
    z = (hat - p) / math.sqrt(var)
    return None if abs(z) <= Z_MAX else f"{name} {hat!r} vs plan {p!r}: z = {z:.2f}"


def check_trial(s: Setting, sol, tc, stats, loss_db) -> list[str]:
    """Monte Carlo answer against the plan, by plain math, and block invariance."""
    out = []
    mu, nu = s.source.mu, s.source.nu
    q_mu, q_nu, xi_mu, xi_nu = s.usd_tuple
    z_mu, z_nu = np.asarray(sol.plan.z_mu), np.asarray(sol.plan.z_nu)
    p_mu, p_nu = oracle.poisson(mu, len(z_mu)), oracle.poisson(nu, len(z_nu))
    gain_mu = float(np.sum(p_mu * q_mu * (xi_mu * z_mu + (1 - xi_mu) * z_nu)))
    gain_nu = float(np.sum(p_nu * q_nu * (xi_nu * z_nu + (1 - xi_nu) * z_mu)))
    eta = 10.0 ** (-loss_db / 10.0)
    for name, got, want in (("plan gain_mu", gain_mu, 1 - math.exp(-eta * mu)),
                            ("plan gain_nu", gain_nu, 1 - math.exp(-eta * nu))):
        if not oracle.close(got, want, *R_UPPER_TOL):
            out.append(f"{name} {got!r} does not reproduce the channel gain {want!r}")
    _, r_up = oracle.attacked_rate(mu, nu, s.usd_tuple, s.channel.y0, s.channel.e_d,
                                   loss_db, s.enforce_errors)
    if r_up is None or not oracle.close(sol.rate_upper, r_up, *R_UPPER_TOL):
        out.append(f"plan rate_upper {sol.rate_upper!r} vs oracle {r_up!r}")
    n_sig, n_dec = stats.n_signal, stats.n_decoy
    if n_sig + n_dec != tc.n_pulses:
        out.append(f"n_signal + n_decoy = {n_sig + n_dec}, not {tc.n_pulses}")
    conclusive_sig = round(stats.q_mu_hat * n_sig)
    conclusive_dec = round(stats.q_nu_hat * n_dec)
    for failure in (
        _z_failure("n_signal share", n_sig / tc.n_pulses, 0.5, tc.n_pulses),
        _z_failure("q_mu_hat", stats.q_mu_hat, q_mu, n_sig),
        _z_failure("q_nu_hat", stats.q_nu_hat, q_nu, n_dec),
        _z_failure("xi_mu_hat", stats.xi_mu_hat, xi_mu, conclusive_sig),
        _z_failure("xi_nu_hat", stats.xi_nu_hat, xi_nu, conclusive_dec),
        _z_failure("gain_mu_hat", stats.gain_mu_hat, gain_mu, n_sig),
        _z_failure("gain_nu_hat", stats.gain_nu_hat, gain_nu, n_dec),
    ):
        if failure:
            out.append(failure)
    prefix = montecarlo.TrialConfig(n_pulses=min(MC_PREFIX, tc.n_pulses), seed=tc.seed,
                                    cfg=tc.cfg, usd=tc.usd, plan=tc.plan)
    whole = montecarlo.run_trials(prefix)
    blocked = montecarlo.run_trials(prefix, block_size=MC_PREFIX_BLOCK)
    if repr(whole) != repr(blocked):
        out.append(f"first {prefix.n_pulses} pulses differ between block sizes")
    return out


# ---------------------------------------------------------------- cli_cold

def _fmt(value) -> str:
    """The CLI's formatting of one value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


class CliCold(Workload):
    name = "cli_cold"
    in_process = False
    setup_repeats = 25  # each sample takes milliseconds
    aliases = {"work_per_s": "invocations_per_s", "op_s.p50": "cli_s.p50",
               "op_s.tail": "cli_s.tail"}

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.traced = False
        self.child_snapshots = []
        self.env = bench_env(root)

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        items = [self._invocation(rng, cmd) for cmd in CLI_COMMANDS]
        items.append(items[r % len(CLI_COMMANDS)])  # a repeat must print the same bytes
        return [(r * (len(CLI_COMMANDS) + 1) + i, item) for i, item in enumerate(items)]

    def _invocation(self, rng, cmd) -> dict:
        """Seeded --set values for one command, redrawn until the oracle says
        the command has an answer (a crossing, a window, a feasible plan)."""
        for _ in range(50):
            kind, phase, _ = FAMILIES[rng.randrange(len(FAMILIES))]
            if cmd in ("crossover", "region", "simulate"):
                kind = "measured"
            v = draw_values(rng, kind, phase)
            v["enforce_errors"] = rng.random() < 0.5
            v["loss_db"] = round(rng.uniform(5.0, 50.0), 2)
            s = make_setting(v, v["enforce_errors"])
            if cmd == "crossover":
                v.update(start_db=round(rng.uniform(31.5, 34.0), 2),
                         end_db=round(rng.uniform(41.0, 45.0), 2), step_db=0.1)
                f_lo, rl_lo, ru_lo, _ = s.oracle_verdict(v["start_db"])
                f_hi, rl_hi, ru_hi, _ = s.oracle_verdict(v["end_db"])
                ok = f_lo and f_hi and rl_lo < ru_lo and rl_hi > ru_hi
            elif cmd == "region":
                v.update(start_db=round(rng.uniform(30.0, 33.0), 1),
                         end_db=round(rng.uniform(49.0, 52.0), 1), step_db=0.5)
                ok = s.oracle_verdict(v["start_db"] + 0.5 * round((42.0 - v["start_db"]) / 0.5))[3]
            elif cmd == "simulate":
                v.update(loss_db=round(rng.uniform(33.0, 42.0), 2), n_pulses=CLI_PULSES,
                         mc_seed=rng.randrange(2 ** 31))
                ok = s.oracle_verdict(v["loss_db"])[0]
            else:
                start = round(rng.uniform(20.0, 44.0), 1)
                v.update(start_db=start, end_db=start + 2.0, step_db=0.5)
                ok = True
            if ok:
                return {"cmd": cmd, "values": v, "argv": [cmd] + _cli_sets(v)}
        raise RuntimeError(f"no answerable {cmd} invocation drawn")

    def setup(self):
        self.round(0)

    def setup_once(self):
        t0 = time.perf_counter()
        self.round(0)
        return time.perf_counter() - t0

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def execute(self, item):
        index, inv = item
        op = Op("invocation", {"invocation": index, "argv": inv["argv"]}, item=inv,
                latency=True)
        here = os.path.dirname(os.path.abspath(__file__))
        if self.traced:
            cmd = [sys.executable, os.path.join(here, "cli_child.py")]
        else:  # what the installed console script runs
            cmd = [sys.executable, "-c", "import sys; from qkdattack.cli import main; sys.exit(main())"]
        if _attempt(op, lambda: subprocess.run(
                cmd + inv["argv"], cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=150)):
            op.work = 1
            proc = op.output
            stderr = proc.stderr
            if self.traced:
                head, marker, snap = stderr.rpartition(tracer.CHILD_MARKER)
                if marker:
                    stderr = head
                    self.child_snapshots.append(json.loads(snap))
            op.output = (proc.returncode, proc.stdout, stderr)
        return [op]

    def check_op(self, op, seen):
        code, stdout, stderr = op.output
        if code != 0:
            op.failures.append(f"exit code {code}: {stderr.strip()[-300:]}")
            return
        key = tuple(op.item["argv"])
        if key in seen:
            if stdout != seen[key]:
                op.failures.append("repeated invocation printed different bytes")
            return
        seen[key] = stdout
        want = cli_expected(op.item["cmd"], op.item["values"])
        if stdout != want:
            op.failures.append(f"stdout differs from the library answer:\n{stdout}!=\n{want}")

    def mc_trials(self, ops):
        return [(op.item["values"]["mc_seed"], CLI_PULSES) for op in ops
                if op.output is not None and op.item["cmd"] == "simulate"]

    def properties(self, ops):
        counts = {}
        for op in ops:
            counts[op.inputs["argv"][0]] = counts.get(op.inputs["argv"][0], 0) + 1
        return {"invocations": len(ops), "by_command": counts,
                "simulate_pulses": CLI_PULSES}


def _cli_sets(v) -> list[str]:
    """--set arguments pinning every config field the command reads."""
    sets = {
        "source.mu": v["mu"], "source.nu": v["nu"], "source.theta_s": v["theta_s"],
        "source.theta_d": 0.0, "channel.loss_db": v["loss_db"], "channel.y0": v["y0"],
        "channel.e_d": v["e_d"], "solver.n_trunc": N_TRUNC,
        "solver.enforce_errors": "true" if v["enforce_errors"] else "false",
    }
    if v["kind"] == "measured":
        sets.update({f"usd.{k}": v[k] for k in ("q_mu", "q_nu", "xi_mu", "xi_nu")})
    else:
        sets["usd.ideal"] = v["kind"]
    for key in ("start_db", "end_db", "step_db"):
        if key in v:
            sets[f"sweep.{key}"] = v[key]
    if "n_pulses" in v:
        sets.update({"mc.n_pulses": v["n_pulses"], "mc.seed": v["mc_seed"]})
    out = []
    for key, value in sets.items():
        out += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
    return out


def cli_expected(cmd: str, v: dict) -> str:
    """The library's answer to one CLI invocation, formatted as the CLI prints it."""
    source = qa.SourceConfig(mu=v["mu"], nu=v["nu"], theta_s=v["theta_s"], theta_d=0.0)
    if v["kind"] == "measured":
        usd = qa.UsdPerformance(v["q_mu"], v["q_nu"], v["xi_mu"], v["xi_nu"])
    else:
        q = (coherent.usd_success_optimal(source) if v["kind"] == "optimal"
             else coherent.usd_success_linear_optics(source))
        usd = qa.UsdPerformance(q, q, 1.0, 1.0)
    channel = qa.ChannelParams(eta=10.0 ** (-v["loss_db"] / 10.0), y0=v["y0"], e_d=v["e_d"])
    kw = {"n_trunc": N_TRUNC, "enforce_errors": v["enforce_errors"]}

    def kv(pairs):
        return "".join(f"{k} {val}\n" for k, val in pairs)

    if cmd == "usd":
        return kv([("p_f", _fmt(coherent.failure_probability(source))),
                   ("q_opt", _fmt(coherent.usd_success_optimal(source))),
                   ("q_max", _fmt(coherent.usd_success_linear_optics(source)))])
    if cmd == "bounds":
        row = analysis.evaluate_point(source, usd, channel, **kw)
        return kv([("loss_db", _fmt(row.loss_db)), ("eta", _fmt(row.eta)),
                   ("r_lower", _fmt(row.r_lower)), ("r_upper", _fmt(row.r_upper)),
                   ("feasible", _fmt(row.feasible)),
                   ("attack_success", _fmt(row.attack_success))])
    if cmd == "crossover":
        loss = analysis.find_crossover(source, usd, channel, v["start_db"], v["end_db"], **kw)
        return kv([("crossover_db", f"{loss:.2f}")])
    if cmd == "region":
        reg = analysis.success_region(
            source, usd, channel, (v["start_db"], v["end_db"], v["step_db"]), **kw)
        return kv([("lower_db", f"{reg.lower_db:.2f}"),
                   ("upper_db", "" if reg.upper_db is None else f"{reg.upper_db:.2f}"),
                   ("upper_mechanism", reg.upper_mechanism or "")])
    if cmd == "sweep":
        rows = analysis.sweep(source, usd, channel, v["start_db"], v["end_db"],
                              v["step_db"], **kw)
        lines = ["loss_db,eta,q_mu_gain,r_lower,r_upper,feasible,attack_success"]
        lines += [",".join(_fmt(x) for x in (r.loss_db, r.eta, r.q_mu_gain, r.r_lower,
                                              r.r_upper, r.feasible, r.attack_success))
                  for r in rows]
        return "\n".join(lines) + "\n"
    sol = attack.optimize_yields(source, usd, channel, **kw)
    tc = montecarlo.TrialConfig(n_pulses=v["n_pulses"], seed=v["mc_seed"], cfg=source,
                                usd=usd, plan=sol.plan)
    st = montecarlo.run_trials(tc)
    exp = montecarlo.expected_gains(tc)

    def residual(hat, se, ref):
        return None if se == 0 or math.isnan(se) else (hat - ref) / se

    names = ("q_mu", "q_nu", "xi_mu", "xi_nu", "gain_mu", "gain_nu")
    empirical = {}
    for n in names:
        empirical[f"{n}_hat"] = getattr(st, f"{n}_hat")
        empirical[f"{n}_se"] = getattr(st, f"{n}_se")
    empirical.update(n_signal=st.n_signal, n_decoy=st.n_decoy)
    payload = {
        "loss_db": channel.loss_db, "n_pulses": v["n_pulses"], "seed": v["mc_seed"],
        "empirical": empirical,
        "analytic": {"q_mu": usd.q_mu, "q_nu": usd.q_nu,
                     "gain_mu": exp.q_mu_gain, "gain_nu": exp.q_nu_gain},
        "residuals_se": {
            "q_mu": residual(st.q_mu_hat, st.q_mu_se, usd.q_mu),
            "q_nu": residual(st.q_nu_hat, st.q_nu_se, usd.q_nu),
            "gain_mu": residual(st.gain_mu_hat, st.gain_mu_se, exp.q_mu_gain),
            "gain_nu": residual(st.gain_nu_hat, st.gain_nu_se, exp.q_nu_gain),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


WORKLOADS = {w.name: w for w in (LossScan, McValidate, CliCold)}


# ---------------------------------------------------------------- running

def run_rounds(wl: Workload, seconds: float = math.inf, rounds: int | None = None):
    """Whole rounds until `seconds` have passed or `rounds` are done.

    Items run between measurements of the reference kernel. Returns
    (ops, rounds run).
    """
    ops, r = [], 0
    t0 = time.perf_counter()
    while True:
        calls = [lambda item=item: wl.execute(item) for item in wl.round(r)]
        for item_ops, item_slowness in bracketed(calls):
            for op in item_ops:
                op.slowness = item_slowness
            ops.extend(item_ops)
        r += 1
        if r == rounds or time.perf_counter() - t0 >= seconds:
            return ops, r


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    Below 21 samples no percentile above the median has ten beyond it, and
    the median stands in for the tail.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def draw_floor_s(trials) -> float:
    """Time of bare Philox draws of the trials' shape, in 2^16-pulse chunks."""
    total = 0.0
    for trial_seed, n in trials:
        t0 = time.perf_counter()
        gen = Generator(Philox(key=trial_seed))
        for start in range(0, n, 1 << 16):
            gen.random((min(1 << 16, n - start), 8))
        total += time.perf_counter() - t0
    return total


def timing_metrics(ops, setup, normalized: bool) -> dict:
    """setup_s, work_per_s and op_s percentiles, in wall or normalized seconds.

    Normalized seconds are wall seconds over the slowness measured around
    them: the time on a machine that runs the reference kernel in
    REFERENCE_S. Throughput is the median over ops of each op's rate.
    """
    def secs(op):
        return op.seconds / op.slowness if normalized else op.seconds

    done = [op for op in ops if op.seconds is not None]
    rates = [op.work / secs(op) for op in done if op.work]
    latencies = [secs(op) for op in done if op.latency]
    nan = float("nan")
    return {
        "setup_s": (statistics.median(
            t / slow if normalized else t for t, slow in setup), "s"),
        "work_per_s": (statistics.median(rates) if rates else nan, "1/s"),
        "op_s.p50": (statistics.median(latencies) if latencies else nan, "s"),
        "op_s.tail": (tail(latencies)[0] if latencies else nan, "s"),
    }


def end_to_end(wl: Workload, ops, setup) -> tuple[dict, dict]:
    """(metrics, sample counts) of an untraced run."""
    latencies = [op.seconds for op in ops if op.seconds is not None and op.latency]
    failed = sum(bool(op.failures) for op in ops)
    metrics = {
        **timing_metrics(ops, setup, normalized=True),
        "ok_frac": (1.0 - failed / max(len(ops), 1), "fraction"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": len(setup), "op_s": len(latencies),
        "op_s.tail_percentile": tail(latencies)[1] if latencies else None,
        "work_per_s": sum(1 for op in ops if op.work),
        "slowness_median": statistics.median(op.slowness for op in ops),
        "setup_slowness_median": statistics.median(x for _, x in setup),
    }
    return metrics, samples
