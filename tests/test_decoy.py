"""Tests for the channel model and one-decoy believed-rate pipeline."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qkdattack.coherent import SourceConfig
from qkdattack.decoy import (
    ChannelParams,
    DecoyEstimates,
    GainStats,
    believed_rate,
    binary_entropy,
    key_rate_lower,
    normal_gains,
    observed_gains,
    one_decoy_e1_upper,
    one_decoy_estimates,
    one_decoy_y1_lower,
    total_loss_db,
)
from reference_formulas import e1_bound_ref, entropy_ref, rate_lower_ref, y1_bound_ref

REF = SourceConfig(mu=0.5, nu=0.1)
ZERO_GAINS = GainStats(0.0, 0.0, 0.0, 0.0)


def reference_channel(loss_db: float) -> ChannelParams:
    return ChannelParams.from_loss_db(loss_db, y0=1e-7, e_d=0.02)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(eta=0.0)
        with pytest.raises(ValueError):
            ChannelParams(eta=1.5)
        with pytest.raises(ValueError):
            ChannelParams(eta=0.5, e_d=0.6)
        with pytest.raises(TypeError):
            ChannelParams(eta=0.5, e0=0.4)

    @pytest.mark.parametrize("build", [
        ChannelParams.from_loss_db, ChannelParams(eta=0.5).at_loss_db,
    ], ids=["from_loss_db", "at_loss_db"])
    def test_overflowing_loss_is_value_error(self, build):
        with pytest.raises(ValueError, match=r"for loss_db=-4000\.0$"):
            build(-4000.0)
        with pytest.raises(ValueError, match=r"^eta must be in \(0, 1\], got 1\.2589"):
            build(-1.0)

    def test_loss_round_trip(self):
        ch = ChannelParams.from_loss_db(36.3)
        assert_allclose(ch.loss_db, 36.3, rtol=1e-12)
        assert_allclose(ch.eta, 10 ** -3.63, rtol=1e-12)

    def test_loss_db_is_positive_zero_at_unit_eta(self):
        assert math.copysign(1.0, ChannelParams(eta=1.0).loss_db) == 1.0
        etas = [1.0 - 2.0 ** -53, 0.5, 10 ** -3.63, 1e-12, 5e-324]
        etas += list(np.random.default_rng(3).uniform(1e-9, 1.0, 200))
        for eta in etas:
            want = -10.0 * math.log10(eta)
            assert ChannelParams(eta=eta).loss_db.hex() == want.hex()

    def test_total_loss_composition(self):
        # 5% detector efficiency adds about 13.01 dB
        assert_allclose(total_loss_db(23.29, 0.05), 23.29 + 10 * math.log10(20), rtol=1e-12)
        with pytest.raises(ValueError):
            total_loss_db(10.0, 0.0)


class TestNormalGains:
    def test_vanishing_transmission_limit(self):
        g = normal_gains(REF, ChannelParams(eta=1e-15, y0=1e-7, e_d=0.02))
        assert g.q_mu_gain == pytest.approx(0.0, abs=1e-14)
        assert g.emu_qmu == pytest.approx(0.5 * 1e-7, rel=1e-6)

    def test_unit_efficiency_noiseless(self):
        g = normal_gains(REF, ChannelParams(eta=1.0))
        assert_allclose(g.q_mu_gain, 0.39346934, atol=1e-8)
        assert g.emu_qmu == 0.0

    def test_reference_loss_point(self):
        g = normal_gains(REF, reference_channel(36.3))
        # frozen high-precision evaluation of 1 - exp(-0.5 * 10**-3.63)
        assert_allclose(g.q_mu_gain, 1.1720457177345034e-4, rtol=1e-12)

    def test_observed_error_product_below_gain(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ch = ChannelParams.from_loss_db(
                rng.uniform(0, 70), y0=10 ** rng.uniform(-9, -1),
                e_d=rng.uniform(0, 0.5),
            )
            g = observed_gains(REF, ch)
            assert g.emu_qmu <= g.q_mu_gain
            assert g.enu_qnu <= g.q_nu_gain

    def test_observed_gains_add_background(self):
        ch = reference_channel(40.0)
        g_n = normal_gains(REF, ch)
        g_o = observed_gains(REF, ch)
        assert_allclose(g_o.q_mu_gain - g_n.q_mu_gain, ch.y0, rtol=1e-9)
        assert_allclose(g_o.q_nu_gain - g_n.q_nu_gain, ch.y0, rtol=1e-9)
        assert g_o.emu_qmu == g_n.emu_qmu

    @pytest.mark.parametrize("loss_db", [5.0, 20.0, 35.0, 50.0])
    def test_decoy_gain_below_signal_gain(self, loss_db):
        g = normal_gains(REF, reference_channel(loss_db))
        assert g.q_nu_gain < g.q_mu_gain


class TestBinaryEntropy:
    def test_reference_points(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert_allclose(binary_entropy(0.02), 0.14144054, atol=1e-8)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for e in rng.uniform(0, 1, 50):
            assert_allclose(binary_entropy(e), entropy_ref(e), rtol=1e-12)


def _random_regular_gains(rng):
    """Gain stats in the regime where no clamp is active."""
    loss = rng.uniform(15.0, 42.0)
    y0 = 10 ** rng.uniform(-8, -6.5)
    e_d = rng.uniform(0.005, 0.04)
    ch = ChannelParams.from_loss_db(loss, y0=y0, e_d=e_d)
    return observed_gains(REF, ch)


class TestOneDecoyY1:
    def test_zero_gains_clamp_to_zero(self):
        assert one_decoy_y1_lower(REF, ZERO_GAINS) == 0.0

    def test_rejects_degenerate_decoy(self):
        g = normal_gains(REF, reference_channel(30.0))
        with pytest.raises(ValueError):
            one_decoy_y1_lower(SourceConfig(mu=0.5, nu=0.0), g)

    def test_overflowing_intensity_names_mu(self):
        g = GainStats(0.5, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="mu=1000"):
            one_decoy_y1_lower(SourceConfig(mu=1000.0, nu=1.0), g)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = _random_regular_gains(rng)
            expected = y1_bound_ref(REF.mu, REF.nu, g.q_mu_gain, g.q_nu_gain, g.emu_qmu)
            assert 0 < expected < 1
            assert_allclose(one_decoy_y1_lower(REF, g), expected, rtol=1e-12)

    def test_bound_below_exact_single_photon_yield(self):
        # noiseless channel: exact yields are Y_i = 1 - (1-eta)^i, whose
        # Poisson mixture is the modeled gain, so the estimate must sit at
        # or below Y_1 = eta
        for eta in (1e-2, 1e-4, 1e-6):
            ch = ChannelParams(eta=eta)
            g = normal_gains(REF, ch)
            y1 = one_decoy_y1_lower(REF, g)
            assert y1 <= eta * (1 + 1e-9)

    def test_bound_tightens_as_decoy_weakens(self):
        eta = 1e-4
        ratios = []
        for nu in (0.2, 0.1, 0.02, 0.004):
            cfg = SourceConfig(mu=0.5, nu=nu)
            g = normal_gains(cfg, ChannelParams(eta=eta))
            ratios.append(one_decoy_y1_lower(cfg, g) / eta)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.99

    def test_clamped_into_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            q_mu = rng.uniform(0, 1)
            q_nu = rng.uniform(0, 1)
            g = GainStats(
                q_mu_gain=q_mu,
                q_nu_gain=q_nu,
                emu_qmu=rng.uniform(0, q_mu),
                enu_qnu=rng.uniform(0, q_nu),
            )
            assert 0.0 <= one_decoy_y1_lower(REF, g) <= 1.0


class TestOneDecoyE1:
    def test_error_free_channel(self):
        g = GainStats(0.1, 0.02, 0.0, 0.0)
        clamped, raw = one_decoy_e1_upper(REF, g, y1_lower=0.05)
        assert clamped == 0.0 and raw == 0.0

    def test_saturates_at_half(self):
        g = GainStats(0.1, 0.02, 0.01, 0.002)
        clamped, raw = one_decoy_e1_upper(REF, g, y1_lower=1e-6)
        assert raw > 1.0
        assert clamped == 0.5

    def test_undefined_for_zero_yield(self):
        g = GainStats(0.1, 0.02, 0.01, 0.002)
        with pytest.raises(ValueError, match="undefined for y1_lower = 0"):
            one_decoy_e1_upper(REF, g, y1_lower=0.0)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            g = _random_regular_gains(rng)
            y1 = one_decoy_y1_lower(REF, g)
            expected = e1_bound_ref(REF.mu, g.emu_qmu, y1)
            assert 0 < expected < 0.5
            clamped, raw = one_decoy_e1_upper(REF, g, y1)
            assert_allclose(raw, expected, rtol=1e-12)
            assert clamped == raw


class TestKeyRateLower:
    def test_pure_cost_term(self):
        g = GainStats(0.2, 0.05, 0.1, 0.02)  # QBER exactly 1/2
        rate = key_rate_lower(REF, g, DecoyEstimates(y1_lower=0.0, e1_upper=0.5))
        assert_allclose(rate, -0.2, rtol=1e-12)

    def test_no_signal_no_rate(self):
        rate = key_rate_lower(REF, ZERO_GAINS, one_decoy_estimates(REF, ZERO_GAINS))
        assert rate == 0.0

    def test_positive_at_moderate_loss(self):
        rate, _, _ = believed_rate(REF, reference_channel(30.0))
        assert rate > 0.0

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = _random_regular_gains(rng)
            d = one_decoy_estimates(REF, g)
            expected = rate_lower_ref(
                REF.mu, g.q_mu_gain, g.emu_qmu / g.q_mu_gain, d.y1_lower, d.e1_upper
            )
            assert_allclose(key_rate_lower(REF, g, d), expected, rtol=1e-12)

    def test_noiseless_channel_reduces_to_yield_term(self):
        ch = ChannelParams(eta=1e-4)
        g = observed_gains(REF, ch)
        d = one_decoy_estimates(REF, g)
        assert d.e1_upper == 0.0
        rate = key_rate_lower(REF, g, d)
        assert_allclose(rate, d.y1_lower * REF.mu * math.exp(-REF.mu), rtol=1e-12)

    def test_monotone_non_increasing_in_loss(self):
        rates = []
        for loss in np.arange(5.0, 55.0, 0.5):
            rate, _, _ = believed_rate(REF, reference_channel(float(loss)))
            rates.append(rate)
        assert all(b <= a + 1e-18 for a, b in zip(rates, rates[1:]))
