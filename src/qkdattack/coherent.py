"""Coherent-state mathematics for signal/decoy discrimination.

Overlaps of weak coherent states, unambiguous-state-discrimination (USD)
success probabilities (optimal and the linear-optics interferometric
ceiling), the USD POVM realized on a truncated Fock space, and Poisson
photon-number statistics.

All probabilities are fractions, phases are radians, and intensities are
mean photon numbers. The USD acts on the reference time bin of a
phase-encoding pulse pair, which carries half the pulse intensity, so the
discriminated amplitudes are sqrt(mu/2) and sqrt(nu/2).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

TWO_PI = 2.0 * math.pi

#: Poisson tail mass allowed beyond the Fock cutoff when building operators.
POVM_TAIL_TOL = 1e-10

#: Default Fock cutoff; ample for intensities up to ~1 photon per time bin.
DEFAULT_CUTOFF = 40


@dataclass(frozen=True)
class SourceConfig:
    """Signal/decoy coherent-state ensemble emitted by the transmitter.

    Attributes
    ----------
    mu : float
        Mean photon number of the signal state, > 0.
    nu : float
        Mean photon number of the decoy state, >= 0 and < mu.
    theta_s, theta_d : float
        Optical phases of signal and decoy pulses (radians); stored
        reduced modulo 2*pi.
    """

    mu: float
    nu: float = 0.0
    theta_s: float = 0.0
    theta_d: float = 0.0

    def __post_init__(self):
        if not (self.mu > self.nu >= 0.0):
            raise ValueError(
                f"require mu > nu >= 0, got mu={self.mu}, nu={self.nu}"
            )
        object.__setattr__(self, "theta_s", self.theta_s % TWO_PI)
        object.__setattr__(self, "theta_d", self.theta_d % TWO_PI)

    @property
    def relative_phase(self) -> float:
        """Signal-minus-decoy phase difference, reduced to [0, 2*pi)."""
        return (self.theta_s - self.theta_d) % TWO_PI


@dataclass(frozen=True)
class CoherentVector:
    """Truncated Fock expansion of a coherent state |alpha>.

    coeffs[n] = exp(-|alpha|^2 / 2) * alpha^n / sqrt(n!) for n = 0..cutoff.
    The squared norm falls short of 1 only by the Poisson tail mass beyond
    the cutoff for mean |alpha|^2.
    """

    amplitude: complex
    cutoff: int
    coeffs: np.ndarray


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the truncated Fock space {|0>, ..., |cutoff>}."""

    cutoff: int
    entries: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def expectation(self, state: CoherentVector) -> float:
        """Real expectation value <state|A|state>."""
        if state.cutoff != self.cutoff:
            raise ValueError("state and operator cutoffs differ")
        return float(np.vdot(state.coeffs, self.entries @ state.coeffs).real)


def failure_probability(cfg: SourceConfig) -> float:
    """Inconclusive-outcome probability of the optimal USD measurement.

    Equals the overlap magnitude of the two reference-bin states,
    p_f = exp(-(1/2) |sqrt(mu/2) e^{i theta_s} - sqrt(nu/2) e^{i theta_d}|^2),
    in (0, 1], with 1 exactly when the states coincide.
    """
    return math.exp(-0.5 * (
        (cfg.mu + cfg.nu) / 2.0
        - math.sqrt(cfg.mu * cfg.nu) * math.cos(cfg.theta_s - cfg.theta_d)
    ))


def usd_success_optimal(cfg: SourceConfig) -> float:
    """Success probability of the optimal USD, q_opt = 1 - p_f."""
    return 1.0 - failure_probability(cfg)


def usd_success_linear_optics(cfg: SourceConfig) -> float:
    """Success ceiling of the interferometric linear-optics USD.

    q_max = (1 - exp(-[(mu+nu)/4 - (sqrt(mu*nu)/2) cos(theta_s-theta_d)])) / 2,
    which in this model is q_opt / 2 at every relative phase.
    """
    return usd_success_optimal(cfg) / 2.0


def poisson_pmf(mean: float, i) -> float | np.ndarray:
    """Poisson photon-number probability mean^i e^{-mean} / i!.

    Accepts a scalar or array of counts; evaluated in log space internally
    so large counts do not overflow. This is the expression
    scipy.stats.poisson.pmf evaluates, so the values are the same bits.
    """
    if mean < 0:
        raise ValueError(f"mean must be non-negative, got {mean}")
    out = np.exp(special.xlogy(i, mean) - special.gammaln(np.add(i, 1)) - mean)
    return float(out) if np.isscalar(i) else out


def poisson_tail(mean: float, cutoff: int) -> float:
    """Poisson mass beyond the cutoff, P(X > cutoff) for X ~ Poisson(mean).

    The same call scipy.stats.poisson.sf makes, so the same bits.
    """
    return float(special.pdtrc(cutoff, mean))


@functools.lru_cache(maxsize=256)
def _poisson_weights(mean: float, n_trunc: int) -> tuple[np.ndarray, float]:
    """Poisson pmf at i = 1..n_trunc (read-only) and the mass beyond n_trunc.

    Memoized per (mean, n_trunc): a loss sweep reuses one source setting at
    every point. Built from poisson_pmf and poisson_tail, so the values are
    the same bits those return. A truncation below 1 is a ValueError.
    """
    if n_trunc < 1:
        raise ValueError(f"n_trunc must be >= 1, got {n_trunc}")
    pmf = poisson_pmf(mean, np.arange(1, n_trunc + 1))
    pmf.setflags(write=False)
    return pmf, poisson_tail(mean, n_trunc)


def min_cutoff_for_tail(mean: float) -> int:
    """Smallest cutoff whose Poisson tail mass is below POVM_TAIL_TOL."""
    c = 1
    while poisson_tail(mean, c) >= POVM_TAIL_TOL:
        c += 1
    return c


def coherent_vector(alpha: complex, cutoff: int) -> CoherentVector:
    """Fock coefficients of |alpha> up to the given photon-number cutoff: the roots of
    poisson_pmf at mean |alpha|^2 (the vacuum exactly at alpha = 0), with alpha's phases."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    n = np.arange(cutoff + 1)
    alpha = complex(alpha)
    coeffs = np.sqrt(poisson_pmf(abs(alpha) ** 2, n)) * np.exp(1j * n * np.angle(alpha))
    return CoherentVector(amplitude=alpha, cutoff=cutoff, coeffs=coeffs)


def _projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def build_usd_povm(
    cfg: SourceConfig, cutoff: int = DEFAULT_CUTOFF
) -> tuple[FockOperator, FockOperator, FockOperator]:
    """USD POVM (E_mu, E_nu, E_f) on the truncated Fock space.

    E_mu and E_nu are scaled projectors onto the components of each state
    orthogonal to the other, normalized by 1 / ((1+p_f)(1-p_f^2)); the
    inconclusive element is the completion E_f = I - E_mu - E_nu, so the
    three sum to the identity exactly. A conclusive outcome never names
    the wrong state: <other|E_alpha|other> = 0 up to truncation error.

    The cutoff must keep the Poisson tail of both reference-bin states
    below POVM_TAIL_TOL; a ValueError reporting the required cutoff is
    raised otherwise.
    """
    amp_s = math.sqrt(cfg.mu / 2.0) * complex(math.cos(cfg.theta_s), math.sin(cfg.theta_s))
    amp_d = math.sqrt(cfg.nu / 2.0) * complex(math.cos(cfg.theta_d), math.sin(cfg.theta_d))
    worst = max(abs(amp_s) ** 2, abs(amp_d) ** 2)
    if poisson_tail(worst, cutoff) >= POVM_TAIL_TOL:
        raise ValueError(
            "cutoff %d leaves Poisson tail %.3e >= %.1e; need cutoff >= %d"
            % (cutoff, poisson_tail(worst, cutoff), POVM_TAIL_TOL,
               min_cutoff_for_tail(worst))
        )

    ket_s = coherent_vector(amp_s, cutoff).coeffs
    ket_d = coherent_vector(amp_d, cutoff).coeffs
    # complex overlap <d|s>; |<d|s>| = p_f
    ov_ds = math.exp(-(abs(amp_s) ** 2 + abs(amp_d) ** 2) / 2.0) \
        * np.exp(np.conj(amp_d) * amp_s)
    p_f = failure_probability(cfg)
    norm = 1.0 / ((1.0 + p_f) * (1.0 - p_f**2))

    e_mu = norm * _projector(ket_s - ov_ds * ket_d)
    e_nu = norm * _projector(ket_d - np.conj(ov_ds) * ket_s)
    e_f = np.eye(cutoff + 1, dtype=complex) - e_mu - e_nu
    return (
        FockOperator(cutoff, e_mu),
        FockOperator(cutoff, e_nu),
        FockOperator(cutoff, e_f),
    )
