"""Cori-like utilization profiles (paper §II-A)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.workloads.cori import (
    CORI_PROFILES,
    UtilizationProfile,
    rack_demand_quantile,
    sample_node_utilization,
)


class TestProfileFit:
    def test_memory_capacity_quantile(self):
        # "three quarters of the time, Haswell nodes use less than
        # 17.4% of memory capacity".
        profile = CORI_PROFILES["memory_capacity"]
        assert profile.quantile(0.75) == pytest.approx(0.174, rel=1e-6)

    def test_nic_quantile(self):
        # "three quarters of the time 1.25% of available NIC bandwidth".
        profile = CORI_PROFILES["nic_bandwidth"]
        assert profile.quantile(0.75) == pytest.approx(0.0125, rel=1e-6)

    def test_cores_median(self):
        # "half of the time, Cori nodes use no more than half of their
        # compute cores".
        profile = CORI_PROFILES["cores"]
        assert profile.quantile(0.50) == pytest.approx(0.50, rel=1e-6)

    def test_sampled_quantiles_match_fit(self):
        profile = CORI_PROFILES["memory_capacity"]
        samples = profile.sample(200_000, np.random.default_rng(0))
        assert np.quantile(samples, 0.75) == pytest.approx(0.174, abs=0.01)

    def test_samples_bounded(self):
        for profile in CORI_PROFILES.values():
            samples = profile.sample(10_000, np.random.default_rng(1))
            assert samples.min() >= 0.0
            assert samples.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UtilizationProfile("bad", 0.9, 0.5, 0.5, 0.9)  # q1 > q2
        with pytest.raises(ValueError):
            UtilizationProfile("bad", 0.5, 0.9, 0.9, 0.5)  # v1 > v2


class TestNormalQuantileParity:
    """``scipy.special.ndtri`` stands in for ``scipy.stats.norm.ppf``
    bit for bit, so seeded Cori streams are unchanged."""

    @pytest.mark.parametrize("name", sorted(CORI_PROFILES))
    def test_fit_and_quantiles_equal_norm_ppf(self, name):
        profile = CORI_PROFILES[name]
        z1, z2 = stats.norm.ppf(profile.q1), stats.norm.ppf(profile.q2)
        sigma = (math.log(profile.v2) - math.log(profile.v1)) / (z2 - z1)
        mu = math.log(profile.v1) - z1 * sigma
        assert profile.lognormal_params == (mu, sigma)
        for q in (0.5, 0.75, 0.95, 0.99, 0.995, 0.001, 0.3):
            expected = min(1.0, math.exp(mu + sigma * stats.norm.ppf(q)))
            assert profile.quantile(q) == expected

    def test_fit_is_computed_once(self):
        profile = UtilizationProfile("x", 0.5, 0.1, 0.9, 0.4)
        assert profile.lognormal_params is profile.lognormal_params


class TestSampling:
    def test_sample_node_utilization(self):
        arr = sample_node_utilization("memory_capacity", 128,
                                      np.random.default_rng(2))
        assert arr.shape == (128,)

    def test_unknown_resource(self):
        with pytest.raises(KeyError):
            sample_node_utilization("gpu_tensor_cores", 10)


class TestPoolingConcentration:
    def test_aggregate_concentrates_below_per_node_tail(self):
        """The statistical-multiplexing effect behind §VI-E: the 99th
        percentile of rack-mean demand sits far below the per-node
        99th percentile."""
        profile = CORI_PROFILES["memory_capacity"]
        per_node_tail = profile.quantile(0.99)
        rack_tail = rack_demand_quantile("memory_capacity", n_nodes=128,
                                         quantile=0.99, n_snapshots=300)
        assert rack_tail < per_node_tail / 2

    def test_rack_quantile_sane(self):
        q = rack_demand_quantile("memory_capacity", n_snapshots=200)
        assert 0.0 < q < 0.5

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            rack_demand_quantile("memory_capacity", quantile=1.5)
