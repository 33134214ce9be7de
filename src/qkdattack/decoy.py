"""Normal-channel statistics and the one-decoy believed key rate.

What the receiving side sees on an unattacked lossy channel, the one-decoy
post-processing estimates (single-photon yield lower bound, single-photon
error upper bound), and the key-rate lower bound the communicating parties
compute from those estimates.

Losses are expressed either as the overall transmittance eta (channel times
detector efficiency) or as overall loss in dB, eta = 10^(-loss_db/10).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .coherent import SourceConfig


#: Error rate of a background count: a random click is wrong half the time.
E0 = 0.5


@dataclass(frozen=True)
class ChannelParams:
    """Normal-channel model parameters.

    Attributes
    ----------
    eta : float
        Overall efficiency in (0, 1], channel transmittance times detector
        efficiency.
    y0 : float
        Background count rate per pulse (dark counts plus stray light). A
        background count errs with probability E0 = 1/2.
    e_d : float
        Misalignment error probability, in [0, 1/2].
    """

    eta: float
    y0: float = 0.0
    e_d: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 <= self.y0 < 1.0:
            raise ValueError(f"y0 must be in [0, 1), got {self.y0}")
        if not 0.0 <= self.e_d <= 0.5:
            raise ValueError(f"e_d must be in [0, 1/2], got {self.e_d}")

    @property
    def loss_db(self) -> float:
        """Overall loss in dB, -10 log10(eta), and +0.0 (not -0.0) at eta = 1."""
        return 0.0 - 10.0 * math.log10(self.eta)

    @classmethod
    def from_loss_db(cls, loss_db: float, y0: float = 0.0, e_d: float = 0.0) -> "ChannelParams":
        return cls(eta=_eta(loss_db), y0=y0, e_d=e_d)

    def at_loss_db(self, loss_db: float) -> "ChannelParams":
        """Copy of these parameters at a different overall loss."""
        return replace(self, eta=_eta(loss_db))


def _eta(loss_db: float) -> float:
    """eta = 10^(-loss_db/10); a loss too negative for a float is a ValueError."""
    try:
        return 10.0 ** (-loss_db / 10.0)
    except OverflowError:
        raise ValueError(
            f"eta must be in (0, 1], got 10^{-loss_db / 10.0} for loss_db={loss_db}"
        ) from None


def total_loss_db(channel_loss_db: float, detector_efficiency: float) -> float:
    """Overall loss composed from channel loss and detector efficiency."""
    if not 0.0 < detector_efficiency <= 1.0:
        raise ValueError(
            f"detector_efficiency must be in (0, 1], got {detector_efficiency}"
        )
    return channel_loss_db - 10.0 * math.log10(detector_efficiency)


@dataclass(frozen=True)
class GainStats:
    """Per-pulse detection statistics for the two intensities.

    q_mu_gain / q_nu_gain are the gains Q_mu, Q_nu; emu_qmu / enu_qnu are the
    error-weighted gains E_mu*Q_mu, E_nu*Q_nu. Measured statistics satisfy
    E*Q <= Q; the background-free transmission gains of normal_gains may
    fall below their background-inclusive error products at extreme loss,
    so that ordering is not enforced here.
    """

    q_mu_gain: float
    q_nu_gain: float
    emu_qmu: float
    enu_qnu: float

    def __post_init__(self):
        for name, v in (
            ("q_mu_gain", self.q_mu_gain), ("q_nu_gain", self.q_nu_gain),
            ("emu_qmu", self.emu_qmu), ("enu_qnu", self.enu_qnu),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    @property
    def qber_mu(self) -> float:
        """E_mu = (E_mu Q_mu) / Q_mu; 0 when there are no detections."""
        return self.emu_qmu / self.q_mu_gain if self.q_mu_gain > 0 else 0.0


@dataclass(frozen=True)
class DecoyEstimates:
    """One-decoy estimates: Y1 lower bound and e1 upper bound, both clamped."""

    y1_lower: float
    e1_upper: float

    def __post_init__(self):
        if not 0.0 <= self.y1_lower <= 1.0 or not 0.0 <= self.e1_upper <= 1.0:
            raise ValueError("estimates must lie in [0, 1] after clamping")


def _gains(cfg: SourceConfig, ch: ChannelParams, background: float) -> GainStats:
    """Gains Q_alpha = background + 1 - e^(-eta*alpha); E*Q always has E0*Y0."""
    return GainStats(
        q_mu_gain=background + 1.0 - math.exp(-ch.eta * cfg.mu),
        q_nu_gain=background + 1.0 - math.exp(-ch.eta * cfg.nu),
        emu_qmu=E0 * ch.y0 + ch.e_d * (1.0 - math.exp(-ch.eta * cfg.mu)),
        enu_qnu=E0 * ch.y0 + ch.e_d * (1.0 - math.exp(-ch.eta * cfg.nu)),
    )


def normal_gains(cfg: SourceConfig, ch: ChannelParams) -> GainStats:
    """Transmission gains of the normal channel, Q_alpha = 1 - e^(-eta*alpha).

    Background counts enter the error products but not the gains; these are
    the targets an attacker must reproduce. See observed_gains for the
    receiver's measured statistics including background counts.
    """
    return _gains(cfg, ch, 0.0)


def observed_gains(cfg: SourceConfig, ch: ChannelParams) -> GainStats:
    """Receiver-side measured gains, Q_alpha = Y0 + 1 - e^(-eta*alpha).

    Background counts fire regardless of what arrives, so the statistics the
    communicating parties actually post-process include them.
    """
    return _gains(cfg, ch, ch.y0)


def binary_entropy(e: float) -> float:
    """Binary Shannon entropy H(e) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def one_decoy_y1_lower(cfg: SourceConfig, g: GainStats) -> float:
    """One-decoy lower bound on the single-photon yield Y1, clamped to [0, 1].

    Y1 >= mu/(mu*nu - nu^2) * (Q_nu e^nu - Q_mu e^mu nu^2/mu^2
          - E_mu Q_mu e^mu (mu^2 - nu^2) / (E0 mu^2)).
    """
    mu, nu = cfg.mu, cfg.nu
    if nu <= 0.0 or nu >= mu:
        raise ValueError(
            f"one-decoy estimate needs 0 < nu < mu, got mu={mu}, nu={nu}"
        )
    try:
        e_mu = math.exp(mu)
    except OverflowError:
        raise ValueError(
            f"one-decoy estimate overflows: e^mu for mu={mu} exceeds the float range"
        ) from None
    raw = mu / (mu * nu - nu**2) * (
        g.q_nu_gain * math.exp(nu)
        - g.q_mu_gain * e_mu * nu**2 / mu**2
        - g.emu_qmu * e_mu * (mu**2 - nu**2) / (E0 * mu**2)
    )
    return min(max(raw, 0.0), 1.0)


def one_decoy_e1_upper(
    cfg: SourceConfig, g: GainStats, y1_lower: float
) -> tuple[float, float]:
    """One-decoy upper bound on the single-photon error rate e1.

    Returns (clamped, raw): the raw bound E_mu Q_mu e^mu / (y1_lower * mu)
    and its value clamped to [0, 1/2] for entropy evaluation.
    """
    if y1_lower <= 0.0:
        raise ValueError(
            "e1 upper bound undefined for y1_lower = 0; the single-photon "
            "term of the key rate is 0 there"
        )
    raw = g.emu_qmu * math.exp(cfg.mu) / (y1_lower * cfg.mu)
    return min(max(raw, 0.0), 0.5), raw


def one_decoy_estimates(cfg: SourceConfig, g: GainStats) -> DecoyEstimates:
    """Both one-decoy estimates; e1 is reported as 1/2 when Y1 bounds to 0."""
    y1 = one_decoy_y1_lower(cfg, g)
    if y1 <= 0.0:
        return DecoyEstimates(y1_lower=0.0, e1_upper=0.5)
    e1, _ = one_decoy_e1_upper(cfg, g, y1)
    return DecoyEstimates(y1_lower=y1, e1_upper=e1)


def key_rate_lower(cfg: SourceConfig, g: GainStats, d: DecoyEstimates) -> float:
    """Believed key-rate lower bound in bits per pulse (sift factor 1).

    R^l = -Q_mu H(E_mu) + Y1 mu e^(-mu) (1 - H(e1)). Returned raw; a
    negative value means the parties would abort, and callers that need the
    abort behaviour apply max(R^l, 0) themselves.
    """
    cost = -g.q_mu_gain * binary_entropy(min(g.qber_mu, 1.0))
    if d.y1_lower <= 0.0:
        return cost
    gain = d.y1_lower * cfg.mu * math.exp(-cfg.mu) * (1.0 - binary_entropy(d.e1_upper))
    return cost + gain


def believed_rate(
    cfg: SourceConfig, ch: ChannelParams
) -> tuple[float, GainStats, DecoyEstimates]:
    """Full defender pipeline at one channel point.

    Computes the receiver's observed statistics (background counts included),
    runs the one-decoy estimates on them, and returns (R^l, gains, estimates).
    """
    g = observed_gains(cfg, ch)
    d = one_decoy_estimates(cfg, g)
    return key_rate_lower(cfg, g, d), g, d
