"""Statistics helpers."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.analysis.stats import mean_ci, pearson, quantiles, summarize


class TestPearson:
    def test_perfect_positive(self):
        x = [1, 2, 3, 4]
        assert pearson(x, [2, 4, 6, 8]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.random(100)
        y = x * 0.5 + rng.random(100)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pearson([1], [2])


class TestSummaries:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["mean"] == 2.0
        assert s["max"] == 3.0
        assert s["min"] == 1.0
        assert s["n"] == 3

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_quantiles(self):
        q = quantiles(range(101), qs=(0.5, 0.99))
        assert q[0.5] == 50.0
        assert q[0.99] == pytest.approx(99.0)

    def test_quantiles_empty_rejected(self):
        with pytest.raises(ValueError):
            quantiles([])


class TestMeanCI:
    def test_normal_approx_95(self):
        # n=4, mean=2.5, sample std=sqrt(5/3): half = 1.96*s/2.
        ci = mean_ci([1.0, 2.0, 3.0, 4.0])
        s = np.std([1.0, 2.0, 3.0, 4.0], ddof=1)
        assert ci["n"] == 4.0
        assert ci["mean"] == 2.5
        assert ci["half_width"] == pytest.approx(1.959964 * s / 2.0,
                                                 rel=1e-5)
        assert ci["ci_low"] == pytest.approx(2.5 - ci["half_width"])
        assert ci["ci_high"] == pytest.approx(2.5 + ci["half_width"])

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.999])
    def test_z_equals_norm_ppf(self, confidence):
        ci = mean_ci([1.0, 2.0, 4.0], confidence=confidence)
        z = float(stats.norm.ppf(0.5 + confidence / 2.0))
        assert ci["half_width"] == z * ci["std"] / math.sqrt(3)

    def test_single_observation_zero_width(self):
        ci = mean_ci([3.0])
        assert ci["mean"] == 3.0
        assert ci["half_width"] == 0.0
        assert ci["ci_low"] == ci["ci_high"] == 3.0

    def test_wider_confidence_widens_interval(self):
        values = [1.0, 2.0, 3.0]
        assert (mean_ci(values, confidence=0.99)["half_width"]
                > mean_ci(values, confidence=0.90)["half_width"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([1.0, 2.0], confidence=1.0)
