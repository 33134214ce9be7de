"""Monte Carlo realization of the intercept-and-forward attack pipeline.

Samples the full per-pulse chain (state choice, BB84 phase, discrimination
outcome, photon number, forwarding decision) to validate the analytic gain
and error formulas, and ingests discrimination-stability time series of the
shape produced by long measurement runs.

Randomness comes from a counter-based generator (Philox) keyed by the trial
seed, with a fixed number of draw slots per pulse, so pulse p always sees
the same random values no matter how trials are partitioned into blocks.
run_trials runs its blocks on threads across the usable CPUs; its statistics
are bit-identical for any block size, CPU count and thread schedule.
"""
from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from numpy.random import Generator, Philox

from .attack import UsdPerformance, YieldPlan, attack_gains
from .coherent import SourceConfig
from .decoy import GainStats

# Eight uniform draws are reserved per pulse (five used); Philox emits four
# doubles per counter step, so a block starting at pulse p resumes the
# serial stream after advance(2 * p).
_DRAWS_PER_PULSE = 8
_SLOT_STATE, _SLOT_PHASE, _SLOT_OUTCOME, _SLOT_PHOTON, _SLOT_FORWARD = range(5)

_DEFAULT_BLOCK = 1 << 14  # each block in flight holds a 1 MB draw array


class UsdOutcome(IntEnum):
    """Conclusive-signal, conclusive-decoy, or inconclusive outcome."""

    SIGNAL = 0
    DECOY = 1
    FAIL = 2


@dataclass(frozen=True)
class TrialConfig:
    """Inputs of one reproducible trial batch."""

    n_pulses: int
    seed: int
    cfg: SourceConfig
    usd: UsdPerformance
    plan: YieldPlan

    def __post_init__(self):
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")


@dataclass(frozen=True)
class EmpiricalStats:
    """Per-trial estimates with binomial standard errors.

    Conditional accuracy estimates (xi) are NaN when no conclusive outcome
    was observed for that state.
    """

    q_mu_hat: float
    q_mu_se: float
    q_nu_hat: float
    q_nu_se: float
    xi_mu_hat: float
    xi_mu_se: float
    xi_nu_hat: float
    xi_nu_se: float
    gain_mu_hat: float
    gain_mu_se: float
    gain_nu_hat: float
    gain_nu_se: float
    n_pulses: int
    n_signal: int
    n_decoy: int


def _poisson_cdf(mean: float, min_len: int) -> np.ndarray:
    """CDF table long enough that the residual tail is below 1e-15.

    Kept apart from coherent.poisson_pmf, which rounds differently: these
    bits choose the sampled photon counts.
    """
    k = max(min_len, 8)
    while True:
        n = np.arange(k + 1)
        pmf = np.exp(-mean + n * np.log(mean) - np.cumsum(np.log(np.maximum(n, 1)))) \
            if mean > 0 else np.where(n == 0, 1.0, 0.0)
        cdf = np.cumsum(pmf)
        if 1.0 - cdf[-1] < 1e-15:
            return cdf
        k *= 2


def _sampler(tc: TrialConfig):
    """(draw, forward): the per-pulse rules, with tables built once per trial.

    z_table[outcome, photon] is the forwarding probability: 0 for vacuum,
    inconclusive and beyond-truncation pulses (searchsorted returns at most
    len(cdf), so every count has a column).
    """
    n = tc.plan.n_trunc
    cdfs = (_poisson_cdf(tc.cfg.mu, n + 1), _poisson_cdf(tc.cfg.nu, n + 1))
    z_table = np.zeros((3, max(map(len, cdfs)) + 1))
    z_table[UsdOutcome.SIGNAL, 1:n + 1] = tc.plan.z_mu
    z_table[UsdOutcome.DECOY, 1:n + 1] = tc.plan.z_nu
    usd = tc.usd
    t_first = np.array([usd.q_mu * usd.xi_mu, usd.q_nu * (1.0 - usd.xi_nu)])
    t_both = np.array([usd.q_mu, usd.q_nu])

    def draw(start: int, count: int):
        """Draws u, sent state and USD outcome of pulses [start, start + count)."""
        u = Generator(Philox(key=tc.seed).advance(2 * start)).random((count, _DRAWS_PER_PULSE))
        state = (u[:, _SLOT_STATE] >= 0.5).view(np.uint8)
        u_out = u[:, _SLOT_OUTCOME]
        # conclusive-signal below t_first, conclusive-decoy below t_both >= t_first
        outcome = (u_out >= t_first[state]).view(np.uint8)
        outcome += u_out >= t_both[state]
        return u, state, outcome

    def forward(u, state, outcome, rows):
        """Photon counts and forwarding decisions of the pulses u[rows]."""
        u_ph = u[rows, _SLOT_PHOTON]
        photon = np.where(state[rows], np.searchsorted(cdfs[1], u_ph, side="right"),
                          np.searchsorted(cdfs[0], u_ph, side="right"))
        return photon, u[rows, _SLOT_FORWARD] < z_table[outcome[rows], photon]

    return draw, forward


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def sample_pulses(tc: TrialConfig, start: int = 0, count: int | None = None) -> dict:
    """Sample pulses [start, start + count) of the trial as arrays.

    Returns a dict with int arrays "state" (0 signal, 1 decoy),
    "phase_index", "photon", "outcome" (a UsdOutcome) and a bool array
    "forwarded". The draw for pulse p depends
    only on (seed, p), so any partition of the pulse range reproduces the
    same values.
    """
    if count is None:
        count = tc.n_pulses - start
    if not (0 <= start and start + count <= tc.n_pulses):
        raise ValueError("pulse range outside the trial")
    draw, forward = _sampler(tc)
    u, state, outcome = draw(start, count)
    photon, forwarded = forward(u, state, outcome, slice(None))
    return {
        "state": state.astype(np.int64),
        "phase_index": np.minimum((u[:, _SLOT_PHASE] * 4).astype(np.int64), 3),
        "photon": photon,
        "outcome": outcome.astype(np.int64),
        "forwarded": forwarded,
    }


def run_trials(tc: TrialConfig, block_size: int = _DEFAULT_BLOCK) -> EmpiricalStats:
    """Accumulate empirical discrimination and gain statistics.

    Blocks of block_size pulses run on threads across the CPUs this process
    may use. The same seed reproduces the same statistics bit for bit, for
    any block_size, CPU count and thread schedule.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    draw, forward = _sampler(tc)

    def block_tally(start: int) -> np.ndarray:
        u, state, outcome = draw(start, min(block_size, tc.n_pulses - start))
        cell = (state * 3 + outcome) * 2
        # only conclusive pulses can be forwarded: the FAIL row of z_table is 0
        concl = np.flatnonzero(outcome != UsdOutcome.FAIL)
        cell[concl] += forward(u, state, outcome, concl)[1]
        return np.bincount(cell, minlength=12)

    starts = range(0, tc.n_pulses, block_size)
    with ThreadPoolExecutor(min(_usable_cpus(), len(starts))) as pool:
        tally = sum(pool.map(block_tally, starts))
    t = tally.reshape(2, 3, 2)  # [state, outcome, forwarded]
    # per sent state, as Python ints; a correct outcome names the sent state
    n_sig, n_dec = t.sum(axis=(1, 2)).tolist()
    concl_sig, concl_dec = t[:, :UsdOutcome.FAIL].sum(axis=(1, 2)).tolist()
    correct_sig, correct_dec = t[[0, 1], [0, 1]].sum(axis=1).tolist()
    fwd_sig, fwd_dec = t[:, :, 1].sum(axis=1).tolist()

    estimates = {}
    for name, hits, trials in (
        ("q_mu", concl_sig, n_sig), ("q_nu", concl_dec, n_dec),
        ("xi_mu", correct_sig, concl_sig), ("xi_nu", correct_dec, concl_dec),
        ("gain_mu", fwd_sig, n_sig), ("gain_nu", fwd_dec, n_dec),
    ):
        p = hits / trials if trials else float("nan")
        se = math.sqrt(p * (1.0 - p) / trials) if trials else float("nan")
        estimates[f"{name}_hat"], estimates[f"{name}_se"] = p, se
    return EmpiricalStats(
        **estimates, n_pulses=tc.n_pulses, n_signal=n_sig, n_decoy=n_dec
    )


def expected_gains(tc: TrialConfig) -> GainStats:
    """Analytic statistics the trial should reproduce."""
    return attack_gains(tc.cfg, tc.usd, tc.plan)


_STABILITY_COLUMNS = ("q_mu", "q_nu", "xi_mu", "xi_nu")
_STABILITY_HEADER = ("t",) + _STABILITY_COLUMNS


@dataclass(frozen=True)
class StabilitySummary:
    """Mean, sample standard deviation, and threshold flags per column."""

    means: dict[str, float]
    stds: dict[str, float]
    flagged: tuple[str, ...]
    n_rows: int


def ingest_stability_series(rows, deviation_threshold: float | None = None) -> StabilitySummary:
    """Summarize a (t, q_mu, q_nu, xi_mu, xi_nu) stability time series.

    Needs at least two rows; every probability column must lie in [0, 1]
    (malformed rows are rejected with their index). Columns whose sample
    standard deviation exceeds deviation_threshold are flagged.
    """
    data = []
    for idx, row in enumerate(rows):
        try:
            values = [float(v) for v in row]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"row {idx}: non-numeric entry ({exc})") from None
        if len(values) != len(_STABILITY_HEADER):
            raise ValueError(
                f"row {idx}: expected {len(_STABILITY_HEADER)} columns, got {len(values)}"
            )
        for name, v in zip(_STABILITY_COLUMNS, values[1:]):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"row {idx}: {name}={v} outside [0, 1]")
        data.append(values)
    if len(data) < 2:
        raise ValueError(f"need at least 2 rows, got {len(data)}")

    table = np.asarray(data)[:, 1:]
    means = table.mean(axis=0)
    stds = table.std(axis=0, ddof=1)
    # a constant column has zero sample deviation exactly, not summation noise
    stds[table.max(axis=0) == table.min(axis=0)] = 0.0
    flagged = tuple(
        name for name, s in zip(_STABILITY_COLUMNS, stds)
        if deviation_threshold is not None and s > deviation_threshold
    )
    return StabilitySummary(
        means=dict(zip(_STABILITY_COLUMNS, means.tolist())),
        stds=dict(zip(_STABILITY_COLUMNS, stds.tolist())),
        flagged=flagged,
        n_rows=len(data),
    )


def read_stability_csv(path) -> list[tuple[float, ...]]:
    """Read a stability series CSV with header t,q_mu,q_nu,xi_mu,xi_nu."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != _STABILITY_HEADER:
            raise ValueError(
                f"expected header {','.join(_STABILITY_HEADER)}, got {header}"
            )
        rows = []
        for idx, row in enumerate(reader):
            if not row:
                continue
            try:
                rows.append(tuple(float(v) for v in row))
            except ValueError as exc:
                raise ValueError(f"row {idx}: {exc}") from None
    return rows
