"""Bandwidth satisfaction analysis (paper §VI-A)."""

import math

import pytest
from scipy import stats

from repro.core.bandwidth import (
    awgr_bandwidth_analysis,
    direct_bandwidth_sufficiency,
    gpu_bandwidth_budget,
)
from repro.workloads.cori import CORI_PROFILES


class TestDirectSufficiency:
    def test_cpu_memory_125gbps_covers_99_5(self):
        # §VI-A: "the 125 Gbps direct bandwidth ... suffices over 99.5%
        # of the time between CPUs and main memory".
        suff = direct_bandwidth_sufficiency(direct_gbps=125.0,
                                            peak_gbps=204.8 * 8)
        assert suff.p_sufficient > 0.985

    def test_single_wavelength_covers_97(self):
        # "the bandwidth of a single AWGR wavelength of 25 Gbps
        # suffices 97% of the time".
        suff = direct_bandwidth_sufficiency(direct_gbps=125.0,
                                            peak_gbps=204.8 * 8)
        assert suff.p_single_wavelength > 0.90

    def test_nic_memory_virtually_always(self):
        suff = direct_bandwidth_sufficiency(direct_gbps=125.0,
                                            peak_gbps=200.0,
                                            resource="nic_bandwidth")
        assert suff.p_sufficient > 0.99

    @pytest.mark.parametrize("resource", sorted(CORI_PROFILES))
    def test_probabilities_equal_norm_cdf(self, resource):
        # ``scipy.special.ndtr`` stands in for ``scipy.stats.norm.cdf``
        # bit for bit.
        mu, sigma = CORI_PROFILES[resource].lognormal_params
        suff = direct_bandwidth_sufficiency(resource=resource)
        for got, gbps in ((suff.p_sufficient, 125.0),
                          (suff.p_single_wavelength, 25.0)):
            z = (math.log(gbps / 1638.4) - mu) / sigma
            assert got == min(1.0, float(stats.norm.cdf(z)))

    def test_more_bandwidth_higher_probability(self):
        lo = direct_bandwidth_sufficiency(direct_gbps=25.0,
                                          peak_gbps=204.8 * 8)
        hi = direct_bandwidth_sufficiency(direct_gbps=125.0,
                                          peak_gbps=204.8 * 8)
        assert hi.p_sufficient > lo.p_sufficient


class TestGPUBudget:
    def test_paper_arithmetic(self):
        budget = gpu_bandwidth_budget()
        # "a single GPU can use a total of 125 x 512 = 8000 GBps".
        assert budget.indirect_total_gbyte_s == pytest.approx(8000.0)
        # "leaves 8000 - 1555.2 = 6444.8 GBps unused per GPU".
        assert budget.after_hbm_gbyte_s == pytest.approx(6444.8)
        # "12 NVLink links of 25 GBps per each of the three GPU equals
        # 900 GBps" ... "leaves 6444.8 - 900 = 5544.8 GBps per GPU".
        assert budget.gpu_gpu_demand_gbyte_s == pytest.approx(900.0)
        assert budget.after_gpu_gpu_gbyte_s == pytest.approx(5544.8)
        assert budget.satisfied

    def test_insufficient_budget_detected(self):
        budget = gpu_bandwidth_budget(direct_pair_gbps=25.0)
        assert not budget.satisfied


class TestFullAnalysis:
    def test_case_a_satisfies_everything(self):
        # The §VI-A conclusion: "case (A) with AWGRs more than
        # satisfies bandwidth demands".
        report = awgr_bandwidth_analysis()
        assert report.guaranteed_pair_gbps == 125.0
        assert report.all_satisfied

    def test_report_structure(self):
        report = awgr_bandwidth_analysis()
        assert report.cpu_memory.traffic_class == "memory_bandwidth"
        assert report.nic_memory.traffic_class == "nic_bandwidth"
