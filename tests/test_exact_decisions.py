"""Rows, region and crossover probes decided from the exact yield LP optimum.

Every row comes from an analysis._evaluator, built once per setting, and
takes its infeasible and R^u = 0 verdicts from the setting's yield geometry;
a printed row with a positive R^u keeps HiGHS's bits, and must equal an
all-HiGHS row, which a setting without geometry gives. evaluate_point and
sweep print rows; success_region and find_crossover search, and read only a
row's flags. Every row a search reads, find_crossover's bracket endpoints
included, takes R^u from the geometry wherever it decides the point and R_l
is clear of a tie, and HiGHS's R^u elsewhere. Every such row must carry the
flags evaluate_point gives, and every window must be the one an all-HiGHS
run finds.
"""
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qkdattack.analysis as analysis
from qkdattack.analysis import evaluate_point, find_crossover, success_region, sweep
from qkdattack.attack import UsdPerformance, key_rate_upper, optimize_yields
from qkdattack.coherent import SourceConfig, _poisson_weights, usd_success_optimal
from qkdattack.decoy import ChannelParams, normal_gains

from test_zero_rate import in_zonotope, zero_rate_eta

sys.path.insert(0, str(pathlib.Path(__file__).parent / "golden"))
from make_golden import CASES, E_D, Y0, _usd, analysis_results  # noqa: E402

N_TRUNC = 20
REF = SourceConfig(mu=0.5, nu=0.1)
TABLE_USD = UsdPerformance(q_mu=1.18e-3, q_nu=1.16e-3, xi_mu=0.9690, xi_nu=0.9837)
BASE = ChannelParams.from_loss_db(40.0, y0=1e-7, e_d=0.02)
# the analysis.txt entries of make_golden's CASES, which follow its header
GOLDEN = (pathlib.Path(__file__).parent / "golden" / "analysis.txt").read_text().split("\n\n")


def feasible_eta(cfg, usd) -> float | None:
    """Transmittance where the normal gains enter the zonotope of all yield columns."""
    p_mu, p_nu = (_poisson_weights(m, N_TRUNC)[0] for m in (cfg.mu, cfg.nu))
    g = np.concatenate([
        np.stack([usd.q_mu * usd.xi_mu * p_mu, usd.q_nu * (1 - usd.xi_nu) * p_nu], 1),
        np.stack([usd.q_mu * (1 - usd.xi_mu) * p_mu, usd.q_nu * usd.xi_nu * p_nu], 1),
    ])

    def inside(eta):
        return in_zonotope(g, -np.expm1(-eta * np.array([cfg.mu, cfg.nu])))

    lo, hi = 1e-12, 1.0
    if not inside(lo) or inside(hi):
        return None
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def loss_db(eta: float) -> float:
    return -10.0 * math.log10(eta)


def search_row(cfg, usd, ch, enforce_errors):
    """(flags-only row at ch, the geometry's verdict there).

    The verdict is (feasible, Y1_s) as the yield geometry decides the point,
    or None where it leaves the point to HiGHS. The row turns the geometry's
    Y1_s into R^u through analysis's own key_rate_upper, and reaches
    optimize_yields only where the geometry leaves the point or R_l is at a
    tie with that R^u.
    """
    exact, solved = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "key_rate_upper",
                   lambda c, y: exact.append(y) or key_rate_upper(c, y))
        mp.setattr(analysis, "optimize_yields",
                   lambda *a, **k: solved.append(1) or optimize_yields(*a, **k))
        row = analysis._evaluator(cfg, usd, N_TRUNC, enforce_errors, flags_only=True)(
            ch, ch.loss_db)
    return row, (True, exact[0]) if exact else None if solved else (False, None)


def all_solver(monkeypatch):
    """Every setting without yield geometry, so HiGHS decides every point."""
    monkeypatch.setattr(analysis, "_yield_geometry", lambda *args: None)


@st.composite
def probes(draw):
    """A setting the exact path covers, at a loss near one of its edges."""
    mu = draw(st.floats(0.2, 0.8))
    cfg = SourceConfig(mu=mu, nu=mu * draw(st.floats(0.1, 0.6)),
                       theta_s=draw(st.sampled_from([0.0, math.pi])))
    shape = draw(st.sampled_from(["ideal", "ideal, errors enforced", "measured"]))
    if shape == "measured":
        q_mu = draw(st.floats(5e-4, 0.05))
        usd = UsdPerformance(q_mu, q_mu * draw(st.floats(0.1, 1.0)),
                             draw(st.floats(0.9, 0.999)), draw(st.floats(0.9, 0.999)))
    else:
        q = usd_success_optimal(cfg) * draw(st.sampled_from([0.5, 1.0]))
        usd = UsdPerformance(q, q)
    base = ChannelParams(eta=1.0, y0=draw(st.floats(0.0, 1e-6)), e_d=draw(st.floats(0.0, 0.03)))
    errors = shape == "ideal, errors enforced"
    edges = [e for e in (feasible_eta(cfg, usd), zero_rate_eta(cfg, usd)) if e is not None]
    edge = loss_db(draw(st.sampled_from(edges))) if edges else 40.0
    if len(edges) == 2 and draw(st.booleans()):
        # the crossover, where the bisections spend their last probes
        try:
            edge = find_crossover(cfg, usd, base, loss_db(edges[0]) + 1e-3, loss_db(edges[1]),
                                  N_TRUNC, errors)
        except ValueError:
            pass
    offset = draw(st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2, 0.5])) * draw(st.floats(0.1, 1.0))
    offset *= draw(st.sampled_from([-1.0, 1.0]))
    return cfg, usd, base, errors, max(0.0, edge + offset)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(probes())
# the crossovers of the corpus's measured gains-only, ideal with errors
# enforced, and window-opens-at-feasibility cases, and the default ideal
# setting's Y1_s = 0 onset
@example((REF, TABLE_USD, BASE, False, 36.30712890625))
@example((SourceConfig(0.5, 0.3), UsdPerformance(0.0063307087754438385, 0.0063307087754438385),
          ChannelParams(1.0, 1e-6, 0.02), True, 28.59423828125))
@example((SourceConfig(0.426, 0.125), UsdPerformance(0.0114, 0.001725, 0.9975, 0.9023),
          BASE, False, 28.30859375))
@example((REF, UsdPerformance(*[usd_success_optimal(REF)] * 2), BASE, True, 21.7))
def test_flag_rows_match_evaluate_point(probe):
    cfg, usd, base, errors, loss = probe
    ch = base.at_loss_db(loss)
    row, exact = search_row(cfg, usd, ch, errors)
    ref = evaluate_point(cfg, usd, ch, N_TRUNC, errors)
    assert (row.feasible, row.attack_success, row.r_lower) == (
        ref.feasible, ref.attack_success, ref.r_lower)
    if exact and exact[1]:
        # the exact optimum and HiGHS's agree within half the 1e-4 tie band
        assert ref.r_upper == pytest.approx(key_rate_upper(cfg, exact[1]), rel=0.5e-4)
    if exact and exact[1] and row.r_upper == key_rate_upper(cfg, exact[1]):
        # decided from the exact R^u, so HiGHS's R^u is no tie with R_l either
        assert abs(ref.r_lower - ref.r_upper) > 0.5e-4 * max(abs(ref.r_lower), ref.r_upper)


@pytest.mark.parametrize("phase", [0.0, math.pi])
@pytest.mark.parametrize("enforce_errors", [False, True])
def test_ideal_closed_form_in_exact_arithmetic(phase, enforce_errors):
    # ideal USD: P_1^mu Y1_s = Q_mu - q_mu sum_{i>=2} P_i^mu, the
    # photon-number-splitting fill, wherever it is positive and reachable
    cfg = SourceConfig(mu=0.5, nu=0.1, theta_s=phase)
    q = usd_success_optimal(cfg)
    usd = UsdPerformance(q, q)
    p_mu = list(map(Fraction, _poisson_weights(cfg.mu, N_TRUNC)[0]))
    band = 0
    for loss in np.arange(0.0, 60.0, 0.25):
        ch = BASE.at_loss_db(float(loss))
        _, exact = search_row(cfg, usd, ch, enforce_errors)
        if not (exact and exact[1]):
            continue
        gain = Fraction(normal_gains(cfg, ch).q_mu_gain)
        want = (gain - Fraction(q) * sum(p_mu[1:])) / p_mu[0]
        assert want > 0 and abs(Fraction(exact[1]) - want) * p_mu[0] <= gain * Fraction(1, 10**13)
        band += 1
    assert band > 10


@pytest.mark.parametrize("entry", GOLDEN[1:1 + len(CASES)], ids=lambda e: e.splitlines()[0])
def test_windows_equal_all_solver_windows(entry, monkeypatch):
    exact = analysis_results(entry)
    all_solver(monkeypatch)
    assert exact == analysis_results(entry)


@pytest.mark.parametrize("case,enforce_errors", [
    pytest.param(case, errors, id=f"{case[0]} {case[1]!r} errors {errors}")
    for case in CASES for errors in sorted({False, case[5]})
])
def test_printed_rows_equal_all_solver_rows(case, enforce_errors, monkeypatch):
    kind, phase, mu, nu = case[:4]
    cfg = SourceConfig(mu=mu, nu=nu, theta_s=phase)
    usd, base = _usd(kind, cfg, phase), ChannelParams(1.0, Y0, E_D)
    solved = []
    monkeypatch.setattr(analysis, "optimize_yields",
                        lambda *a, **k: solved.append(a[2].eta) or optimize_yields(*a, **k))
    rows = sweep(cfg, usd, base, 0.0, 52.0, 0.5, N_TRUNC, enforce_errors)
    verdicts = [search_row(cfg, usd, base.at_loss_db(r.loss_db), enforce_errors)[1]
                for r in rows]
    # HiGHS runs only where the geometry leaves the point undecided or R^u > 0
    assert [r.eta in solved for r in rows] == [v is None or bool(v[1]) for v in verdicts]
    assert len(solved) == len(set(solved))
    if kind == "measured" and enforce_errors:  # its error rows bind, so HiGHS decides
        assert verdicts == [None] * len(rows)
    else:
        assert (False, None) in verdicts and (True, 0.0) in verdicts
    # and 1e-5 dB apart across each edge, where the geometry's margins decide
    edges = [round(loss_db(e), 4) for e in (feasible_eta(cfg, usd), zero_rate_eta(cfg, usd)) if e]
    ranges = [(0.0, 52.0, 0.5), *((e - 1e-4, e + 1e-4, 1e-5) for e in edges)]
    printed = [rows] + [sweep(cfg, usd, base, *r, N_TRUNC, enforce_errors) for r in ranges[1:]]
    all_solver(monkeypatch)
    assert repr(printed) == repr([sweep(cfg, usd, base, *r, N_TRUNC, enforce_errors)
                                  for r in ranges])


def test_measured_usd_with_errors_enforced_stays_on_the_solver(monkeypatch):
    # its error rows bind, so every probe of both windows reaches HiGHS
    probes, solved = [], []
    real_rate = analysis.believed_rate
    monkeypatch.setattr(analysis, "believed_rate",
                        lambda cfg, ch: probes.append(1) or real_rate(cfg, ch))
    monkeypatch.setattr(analysis, "optimize_yields",
                        lambda *a, **k: solved.append(1) or optimize_yields(*a, **k))
    success_region(REF, TABLE_USD, BASE, (33.0, 52.0, 1.0), enforce_errors=True)
    find_crossover(REF, TABLE_USD, BASE, 35.0, 40.0, enforce_errors=True)
    assert len(probes) == len(solved) > 20
    for loss in range(30, 60):
        ch = BASE.at_loss_db(float(loss))
        assert search_row(REF, TABLE_USD, ch, True)[1] is None


@pytest.mark.parametrize("usd,enforce_errors,bracket,builds", [
    pytest.param(TABLE_USD, False, (33.0, 44.0), 1, id="measured"),
    pytest.param(UsdPerformance(*[usd_success_optimal(REF)] * 2), True, (20.0, 30.0), 1,
                 id="ideal-errors"),
    # its error rows bind, so it has no geometry to build
    pytest.param(TABLE_USD, True, (35.0, 40.0), 0, id="measured-errors"),
])
def test_each_call_builds_the_setting_geometry_once(usd, enforce_errors, bracket, builds,
                                                    monkeypatch):
    built = []
    real = analysis._yield_geometry
    monkeypatch.setattr(analysis, "_yield_geometry", lambda *a: built.append(a) or real(*a))
    kw = {"enforce_errors": enforce_errors}
    assert len(sweep(REF, usd, BASE, 30.0, 50.0, 0.1, **kw)) == 201
    assert len(built) == builds
    success_region(REF, usd, BASE, (0.0, 52.0, 0.5), **kw)
    assert len(built) == 2 * builds
    find_crossover(REF, usd, BASE, *bracket, **kw)
    assert len(built) == 3 * builds
    evaluate_point(REF, usd, BASE, **kw)
    assert len(built) == 4 * builds
    # arguments are checked before the setting is built
    with pytest.raises(ValueError, match="loss_start_db must be <= loss_end_db"):
        sweep(REF, usd, BASE, 50.0, 30.0, 0.5, **kw)
    with pytest.raises(ValueError, match="step_db must be positive"):
        success_region(REF, usd, BASE, (0.0, 52.0, 0.0), **kw)
    with pytest.raises(ValueError, match="bracket_lo_db must be below bracket_hi_db"):
        find_crossover(REF, usd, BASE, *bracket[::-1], **kw)
    assert len(built) == 4 * builds


def test_a_points_own_error_comes_before_a_truncation_below_one():
    # nu = 0 fails the one-decoy estimate at every point; building the
    # setting leaves a truncation below 1 to optimize_yields
    with pytest.raises(ValueError, match="one-decoy estimate needs 0 < nu < mu"):
        evaluate_point(SourceConfig(mu=0.5, nu=0.0), TABLE_USD, BASE, n_trunc=0)


# crossover brackets of the README, the key_rate_bounds demo and cli.txt;
# the ids name (usd, enforce_errors) only
@pytest.mark.parametrize("usd,enforce_errors,bracket", [
    pytest.param(TABLE_USD, False, (33.0, 44.0), id="usd0-False"),
    pytest.param(UsdPerformance(*[usd_success_optimal(REF)] * 2), False, (17.0, 30.0),
                 id="usd1-False"),
    pytest.param(UsdPerformance(*[usd_success_optimal(REF)] * 2), True, (20.0, 30.0),
                 id="usd2-True"),
])
def test_windows_away_from_ties_skip_the_solver(usd, enforce_errors, bracket, monkeypatch):
    # no scan, bisection or crossover probe of these windows, bracket
    # endpoints included, lies at a tie or within a margin of a zonotope's
    # edge, so the exact verdict answers every one
    probes, solved = [], []
    real_rate = analysis.believed_rate
    monkeypatch.setattr(analysis, "believed_rate",
                        lambda cfg, ch: probes.append(1) or real_rate(cfg, ch))
    monkeypatch.setattr(analysis, "optimize_yields",
                        lambda *a, **k: solved.append(1) or optimize_yields(*a, **k))
    success_region(REF, usd, BASE, (0.0, 52.0, 0.5), enforce_errors=enforce_errors)
    assert len(probes) > 100 and not solved
    scanned = len(probes)
    find_crossover(REF, usd, BASE, *bracket, enforce_errors=enforce_errors)
    assert len(probes) >= scanned + 12 and not solved  # two endpoints, ten midpoints or more
