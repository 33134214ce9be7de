"""Independent closed form of the attack with ideal USD, as a test oracle.

With ideal USD (xi_mu = xi_nu = 1: every conclusive outcome names the sent
state) the yield LP decouples into one row per intensity, and its answer has
a closed form in the normal-channel gains Q_alpha = 1 - e^(-eta alpha):

- feasible exactly when Q_alpha <= q_alpha sum_{i<=n} P_i^alpha for both
  intensities, every yield set to 1 reaching the gain;
- the least single-photon signal yield fills the multi-photon pulses first,
  P_1^mu Y1_s = Q_mu - q_mu sum_{i>=2} P_i^mu, and is 0 when that is not
  positive; R^u = Y1_s mu e^(-mu).

The believed rate R_l is reference_formulas' one-decoy pipeline. Written with
the standard library only, apart from the package's code paths.
"""
import math

from reference_formulas import e1_bound_ref, poisson_ref, rate_lower_ref, y1_bound_ref

#: Photon-number truncation of the package's yield LP.
N_TRUNC = 20


def usd_success(mu, nu, phase, linear_optics=False):
    """Optimal USD success probability of the reference-bin states sqrt(mu/2)
    and sqrt(nu/2) e^(-i phase), 1 - e^(-|a - b|^2 / 2); half that for linear optics."""
    q = 1.0 - math.exp(-0.5 * ((mu + nu) / 2.0 - math.sqrt(mu * nu) * math.cos(phase)))
    return q / 2.0 if linear_optics else q


def eta_at(loss_db):
    return 10.0 ** (-loss_db / 10.0)


def loss_at(eta):
    return -10.0 * math.log10(eta)


def _weights(mean, first):
    return math.fsum(poisson_ref(mean, i) for i in range(first, N_TRUNC + 1))


def onsets(mu, nu, q):
    """(eta_f, eta_0): the attack is feasible exactly for eta <= eta_f, and
    R^u = 0 exactly for eta <= eta_0, from Q_alpha = 1 - e^(-eta alpha)."""
    eta_f = min(-math.log1p(-q * _weights(m, 1)) / m for m in (mu, nu))
    return eta_f, -math.log1p(-q * _weights(mu, 2)) / mu


def attacked_rate(mu, nu, q, eta):
    """R^u of the decoupled yield LP at transmittance eta, None if infeasible."""
    q_mu, q_nu = (-math.expm1(-eta * m) for m in (mu, nu))
    if q_mu > q * _weights(mu, 1) or q_nu > q * _weights(nu, 1):
        return None
    y1s = max(0.0, q_mu - q * _weights(mu, 2)) / poisson_ref(mu, 1)
    return y1s * mu * math.exp(-mu)


def believed_rate(mu, nu, eta, y0, e_d):
    """R_l from the observed gains, background counts included."""
    q_mu, q_nu = (y0 - math.expm1(-eta * m) for m in (mu, nu))
    emu_qmu = 0.5 * y0 - e_d * math.expm1(-eta * mu)
    y1 = min(max(y1_bound_ref(mu, nu, q_mu, q_nu, emu_qmu), 0.0), 1.0)
    e1 = min(max(e1_bound_ref(mu, emu_qmu, y1), 0.0), 0.5) if y1 > 0.0 else 0.5
    return rate_lower_ref(mu, q_mu, emu_qmu / q_mu, y1, e1)


def crossover(mu, nu, q, y0, e_d):
    """Loss in dB where R_l - R^u turns positive, bisected between the
    feasibility onset (R^u above R_l) and the loss where R^u reaches 0. An
    infeasible point counts as R^u above R_l, as it does for find_crossover."""
    low, high = onsets(mu, nu, q)[::-1]  # transmittances, R_l - R^u > 0 at low

    def gap(eta):
        r_upper = attacked_rate(mu, nu, q, eta)
        return -math.inf if r_upper is None else believed_rate(mu, nu, eta, y0, e_d) - r_upper

    if not gap(high) < 0.0 < gap(low):
        raise ValueError(f"R_l - R^u does not change sign across eta [{low}, {high}]")
    for _ in range(100):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if gap(mid) > 0.0 else (low, mid)
    return loss_at(0.5 * (low + high))
