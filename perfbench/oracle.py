"""Independent reference answers for the benchmark's output checks.

Written straight from the closed-form expressions of the model, without
importing qkdattack: the one-decoy believed rate R_l, and the
statistics-preserving yield LP whose optimum gives R_u, solved by calling
scipy.optimize.linprog directly. Variables are interleaved per photon
number (Z_1^mu, Z_1^nu, Z_2^mu, ...), unlike the package's stacked layout.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

E0 = 0.5  # error rate of a background count


def poisson(mean: float, n_max: int) -> np.ndarray:
    """P(i) = mean^i e^-mean / i! for i = 1..n_max."""
    return np.array([
        math.exp(i * math.log(mean) - mean - math.lgamma(i + 1))
        for i in range(1, n_max + 1)
    ])


def _entropy(e):
    e = np.asarray(e, dtype=float)
    inner = (e > 0) & (e < 1)
    x = np.where(inner, e, 0.5)
    return np.where(inner, -x * np.log2(x) - (1 - x) * np.log2(1 - x), 0.0)


def believed_rate(mu, nu, y0, e_d, loss_db):
    """Closed-form one-decoy R_l at one loss or an array of losses (dB)."""
    eta = 10.0 ** (-np.asarray(loss_db, dtype=float) / 10.0)
    q_mu = y0 + 1.0 - np.exp(-eta * mu)
    q_nu = y0 + 1.0 - np.exp(-eta * nu)
    eq_mu = E0 * y0 + e_d * (1.0 - np.exp(-eta * mu))
    y1 = mu / (mu * nu - nu * nu) * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - eq_mu * math.exp(mu) * (mu * mu - nu * nu) / (E0 * mu * mu)
    )
    y1 = np.clip(y1, 0.0, 1.0)
    safe_y1 = np.where(y1 > 0, y1, 1.0)
    e1 = np.clip(eq_mu * math.exp(mu) / (safe_y1 * mu), 0.0, 0.5)
    signal = np.where(y1 > 0, y1 * mu * math.exp(-mu) * (1.0 - _entropy(e1)), 0.0)
    r = -q_mu * _entropy(np.minimum(eq_mu / q_mu, 1.0)) + signal
    return float(r) if r.ndim == 0 else r


def attacked_rate(mu, nu, usd, y0, e_d, loss_db, enforce_errors, n_trunc=20):
    """R_u at one loss: (feasible, r_upper or None).

    usd is (q_mu, q_nu, xi_mu, xi_nu). Minimizes the single-photon signal
    yield q_mu [xi_mu Z_1^mu + (1 - xi_mu) Z_1^nu] over yields in [0, 1]
    that reproduce the background-free gains 1 - e^(-eta*alpha), with the
    misidentification error products at most e0*y0 + e_d*(1 - e^(-eta*alpha))
    when enforce_errors is set. Each row is divided by its right-hand side.
    """
    q_mu, q_nu, xi_mu, xi_nu = usd
    eta = 10.0 ** (-loss_db / 10.0)
    g_mu = 1.0 - math.exp(-eta * mu)
    g_nu = 1.0 - math.exp(-eta * nu)
    p_mu, p_nu = poisson(mu, n_trunc), poisson(nu, n_trunc)
    n_var = 2 * n_trunc
    zm, zn = slice(0, n_var, 2), slice(1, n_var, 2)

    gain_rows = np.zeros((2, n_var))
    gain_rows[0, zm] = q_mu * xi_mu * p_mu / g_mu
    gain_rows[0, zn] = q_mu * (1 - xi_mu) * p_mu / g_mu
    gain_rows[1, zn] = q_nu * xi_nu * p_nu / g_nu
    gain_rows[1, zm] = q_nu * (1 - xi_nu) * p_nu / g_nu
    err_rows = None
    if enforce_errors:
        b_mu = E0 * y0 + e_d * g_mu
        b_nu = E0 * y0 + e_d * g_nu
        err_rows = np.zeros((2, n_var))
        err_rows[0, zn] = E0 * q_mu * (1 - xi_mu) * p_mu / b_mu
        err_rows[1, zm] = E0 * q_nu * (1 - xi_nu) * p_nu / b_nu
    cost = np.zeros(n_var)
    cost[0] = q_mu * xi_mu
    cost[1] = q_mu * (1 - xi_mu)
    res = linprog(
        cost, A_eq=gain_rows, b_eq=np.ones(2),
        A_ub=err_rows, b_ub=None if err_rows is None else np.ones(2),
        bounds=(0.0, 1.0), method="highs",
    )
    if res.status == 2:
        return False, None
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return True, float(cost @ res.x) * mu * math.exp(-mu)


def verdict(mu, nu, usd, y0, e_d, loss_db, enforce_errors):
    """(feasible, r_lower, r_upper, success) at one loss."""
    r_low = believed_rate(mu, nu, y0, e_d, loss_db)
    feasible, r_up = attacked_rate(mu, nu, usd, y0, e_d, loss_db, enforce_errors)
    success = feasible and r_low > r_up and r_low > 0.0
    return feasible, r_low, r_up, success


def close(a: float, b: float, rel: float, abs_: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def usd_success(mu: float, nu: float, rel_phase: float, kind: str) -> float:
    """Ideal USD success probability: "optimal" 1 - p_f, "linear_optics" half that.

    p_f = exp(-(1/2) |sqrt(mu/2) - sqrt(nu/2) e^{-i phase}|^2) is the overlap
    of the reference-bin states.
    """
    p_f = math.exp(-0.5 * ((mu + nu) / 2.0 - math.sqrt(mu * nu) * math.cos(rel_phase)))
    return (1.0 - p_f) if kind == "optimal" else (1.0 - p_f) / 2.0
