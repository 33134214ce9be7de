"""Tests for coherent-state overlaps, USD probabilities, and the POVM."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import qkdattack
from qkdattack.coherent import (
    SourceConfig,
    build_usd_povm,
    coherent_vector,
    failure_probability,
    min_cutoff_for_tail,
    poisson_pmf,
    poisson_tail,
    usd_success_linear_optics,
    usd_success_optimal,
)

REF = SourceConfig(mu=0.5, nu=0.1)
REF_PI = SourceConfig(mu=0.5, nu=0.1, theta_s=0.0, theta_d=math.pi)


class TestSourceConfig:
    def test_rejects_nu_above_mu(self):
        with pytest.raises(ValueError):
            SourceConfig(mu=0.1, nu=0.5)
        with pytest.raises(ValueError):
            SourceConfig(mu=0.5, nu=0.5)

    def test_phases_reduced_modulo_two_pi(self):
        cfg = SourceConfig(mu=0.5, nu=0.1, theta_s=5 * math.pi, theta_d=-math.pi / 2)
        assert_allclose(cfg.theta_s, math.pi, rtol=1e-12)
        assert_allclose(cfg.theta_d, 1.5 * math.pi, rtol=1e-12)


class TestUsdProbabilities:
    def test_success_zero_phase(self):
        assert abs(usd_success_optimal(REF) - 0.0375) < 5e-5
        assert abs(usd_success_linear_optics(REF) - 0.0187) < 5e-5

    def test_success_pi_phase(self):
        assert abs(usd_success_optimal(REF_PI) - 0.230) < 5e-4

    def test_identical_states_are_indistinguishable(self):
        # equal intensities are excluded by the type, approach the limit
        for x in (0.1, 0.5):
            cfg = SourceConfig(mu=x, nu=x * (1 - 1e-12))
            assert failure_probability(cfg) == pytest.approx(1.0, abs=1e-9)
            assert usd_success_optimal(cfg) == pytest.approx(0.0, abs=1e-9)
            assert usd_success_linear_optics(cfg) == pytest.approx(0.0, abs=1e-9)

    def test_failure_probability_closed_form(self):
        assert failure_probability(REF) == pytest.approx(1 - 0.0375, abs=5e-5)
        assert failure_probability(REF_PI) == pytest.approx(1 - 0.230, abs=5e-4)

    def test_linear_optics_is_half_of_optimal_at_zero_phase(self):
        assert usd_success_linear_optics(REF) == pytest.approx(
            usd_success_optimal(REF) / 2, rel=1e-14
        )

    def test_linear_optics_below_optimal(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            nu = rng.uniform(0.0, 0.8)
            mu = nu + rng.uniform(1e-6, 0.8)
            cfg = SourceConfig(mu=mu, nu=nu, theta_d=rng.uniform(0, 2 * math.pi))
            q_opt = usd_success_optimal(cfg)
            q_max = usd_success_linear_optics(cfg)
            assert q_max < q_opt or q_opt == 0.0

    def test_success_monotone_in_state_distance(self):
        rng = np.random.default_rng(7)
        configs = []
        for _ in range(100):
            nu = rng.uniform(0.0, 0.9)
            mu = nu + rng.uniform(1e-6, 0.9)
            cfg = SourceConfig(mu=mu, nu=nu, theta_d=rng.uniform(0, 2 * math.pi))
            dist = abs(
                math.sqrt(cfg.mu) - math.sqrt(cfg.nu) * np.exp(1j * cfg.relative_phase)
            )
            configs.append((dist, usd_success_optimal(cfg)))
        configs.sort()
        dists, succ = zip(*configs)
        assert all(b >= a - 1e-15 for a, b in zip(succ, succ[1:]))

    def test_phase_extremes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nu = rng.uniform(0.01, 0.5)
            mu = nu + rng.uniform(0.05, 0.5)
            grid = np.linspace(0, 2 * math.pi, 97, endpoint=False)
            values = [
                usd_success_optimal(SourceConfig(mu=mu, nu=nu, theta_d=-d))
                for d in grid
            ]
            lo = usd_success_optimal(SourceConfig(mu=mu, nu=nu))
            hi = usd_success_optimal(SourceConfig(mu=mu, nu=nu, theta_d=math.pi))
            assert all(lo - 1e-15 <= v <= hi + 1e-15 for v in values)


class TestPoisson:
    def test_vacuum_source(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_reference_values(self):
        # exp(-1/2) and (1/2) exp(-1/2) to double precision
        assert_allclose(poisson_pmf(0.5, 0), 0.6065306597126334, rtol=1e-12)
        assert_allclose(poisson_pmf(0.5, 1), 0.3032653298563167, rtol=1e-12)

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            poisson_pmf(-0.1, 0)

    def test_large_count_no_overflow(self):
        # log-space evaluation: factorial(300) would overflow a float
        v = poisson_pmf(0.5, 300)
        assert v == 0.0 or 0.0 < v < 1e-300

    @pytest.mark.parametrize("mean", [0.0, 0.05, 0.1, 0.5, 1.0, 4.0, 20.0])
    def test_mass_sums_to_one_minus_tail(self, mean):
        n = 60
        total = float(np.sum(poisson_pmf(mean, np.arange(n + 1))))
        assert total <= 1.0 + 1e-12
        assert abs((1.0 - total) - poisson_tail(mean, n)) < 1e-12

    def test_min_cutoff_is_minimal(self):
        for mean in (0.05, 0.25, 1.0, 3.0):
            c = min_cutoff_for_tail(mean)
            assert poisson_tail(mean, c) < 1e-10
            assert poisson_tail(mean, c - 1) >= 1e-10

    @pytest.mark.parametrize("mean", [0.0, 1e-9, 0.05, 0.1, 0.25, 0.5, 1.0, 4.0, 20.0])
    def test_bits_match_scipy_stats(self, mean):
        k = np.arange(61)
        assert poisson_pmf(mean, k).tobytes() == stats.poisson.pmf(k, mean).tobytes()
        for i in (0, 1, 20, 60):
            assert repr(poisson_pmf(mean, i)) == repr(float(stats.poisson.pmf(i, mean)))
            assert repr(poisson_tail(mean, i)) == repr(float(stats.poisson.sf(i, mean)))

    def test_package_import_leaves_scipy_stats_unloaded(self):
        src = str(Path(qkdattack.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, qkdattack, qkdattack.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestCoherentVector:
    def test_vacuum(self):
        v = coherent_vector(0.0, 8)
        expected = np.zeros(9)
        expected[0] = 1.0
        assert_allclose(v.coeffs, expected)

    def test_norm_close_to_one(self):
        v = coherent_vector(math.sqrt(0.25), 40)
        assert abs(np.vdot(v.coeffs, v.coeffs).real - 1.0) < 1e-12

    def test_coefficient_ratio(self):
        v = coherent_vector(math.sqrt(0.25), 40)
        assert_allclose(v.coeffs[1] / v.coeffs[0], math.sqrt(0.25), rtol=1e-12)

    def test_rejects_cutoff_below_one(self):
        with pytest.raises(ValueError):
            coherent_vector(0.5, 0)

    def test_complex_amplitude_phases(self):
        alpha = 0.4 * np.exp(1j * 1.2)
        v = coherent_vector(alpha, 30)
        assert_allclose(v.coeffs[2], math.exp(-abs(alpha) ** 2 / 2) * alpha**2 / math.sqrt(2), rtol=1e-12)


class TestUsdPovm:
    def setup_method(self):
        self.e_mu, self.e_nu, self.e_f = build_usd_povm(REF, cutoff=40)
        self.ket_s = coherent_vector(math.sqrt(REF.mu / 2), 40)
        self.ket_d = coherent_vector(math.sqrt(REF.nu / 2), 40)

    def test_signal_success_probability(self):
        assert abs(self.e_mu.expectation(self.ket_s) - 0.0375) < 5e-5
        assert self.e_mu.expectation(self.ket_s) == pytest.approx(
            usd_success_optimal(REF), abs=1e-6
        )

    def test_decoy_success_probability(self):
        assert self.e_nu.expectation(self.ket_d) == pytest.approx(
            usd_success_optimal(REF), abs=1e-8
        )

    def test_unambiguous(self):
        assert abs(self.e_mu.expectation(self.ket_d)) < 1e-8
        assert abs(self.e_nu.expectation(self.ket_s)) < 1e-8

    def test_completeness_exact(self):
        total = self.e_mu.entries + self.e_nu.entries + self.e_f.entries
        assert_allclose(total, np.eye(41), atol=1e-14)

    def test_hermitian_and_psd(self):
        for op in (self.e_mu, self.e_nu, self.e_f):
            assert np.max(np.abs(op.entries - op.entries.conj().T)) < 1e-10
            assert op.min_eigenvalue() >= -1e-8

    def test_nonzero_relative_phase_still_unambiguous(self):
        e_mu, e_nu, e_f = build_usd_povm(REF_PI, cutoff=40)
        amp_s = math.sqrt(REF_PI.mu / 2)
        amp_d = math.sqrt(REF_PI.nu / 2) * np.exp(1j * REF_PI.theta_d)
        ket_s = coherent_vector(amp_s, 40)
        ket_d = coherent_vector(amp_d, 40)
        assert e_mu.expectation(ket_s) == pytest.approx(
            usd_success_optimal(REF_PI), abs=1e-8
        )
        assert abs(e_mu.expectation(ket_d)) < 1e-8
        assert e_f.min_eigenvalue() >= -1e-8

    def test_rejects_insufficient_cutoff(self):
        with pytest.raises(ValueError, match="need cutoff >= 8"):
            build_usd_povm(REF, cutoff=3)
