"""Episodes: samplers, envelopes, flow generation."""

import numpy as np
import pytest

from repro.scenarios.episodes import (
    EPISODE_KINDS,
    Episode,
    envelope_value,
    sample_count,
)
from tests.oracles.episodes import ScalarEpisode
from tests.oracles.flows import to_flows


def flows_of(episode, epoch, n_epochs, n_nodes, rng):
    """One epoch of ``episode``'s flows, as objects."""
    return to_flows(episode.generate_batch(epoch, n_epochs, n_nodes, rng))


class TestSampleCount:
    def test_plain_int_is_fixed(self):
        rng = np.random.default_rng(0)
        assert sample_count(7, rng) == 7

    def test_fixed_dict(self):
        rng = np.random.default_rng(0)
        assert sample_count({"dist": "fixed", "value": 3}, rng) == 3

    def test_poisson_mean(self):
        rng = np.random.default_rng(1)
        draws = [sample_count({"dist": "poisson", "mean": 10}, rng)
                 for _ in range(2000)]
        assert 9.5 < np.mean(draws) < 10.5

    def test_lognormal_median(self):
        rng = np.random.default_rng(2)
        draws = [sample_count({"dist": "lognormal", "median": 8,
                               "sigma": 0.5}, rng)
                 for _ in range(2000)]
        assert 7 <= np.median(draws) <= 9

    def test_pareto_heavy_tail(self):
        rng = np.random.default_rng(3)
        draws = [sample_count({"dist": "pareto", "minimum": 5,
                               "alpha": 1.5}, rng)
                 for _ in range(2000)]
        assert min(draws) >= 5
        # Heavy tail: the max dwarfs the median.
        assert max(draws) > 5 * np.median(draws)

    def test_negative_fixed_rejected(self):
        with pytest.raises(ValueError):
            sample_count(-1, np.random.default_rng(0))

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError):
            sample_count({"dist": "cauchy"}, np.random.default_rng(0))


class TestEnvelope:
    def test_none_is_unity(self):
        assert envelope_value(None, 3, 10) == 1.0

    def test_constant(self):
        assert envelope_value({"kind": "constant", "value": 0.4},
                              0, 10) == 0.4

    def test_ramp_endpoints(self):
        spec = {"kind": "ramp", "start": 0.0, "end": 1.0}
        assert envelope_value(spec, 0, 11) == 0.0
        assert envelope_value(spec, 10, 11) == 1.0
        assert envelope_value(spec, 5, 11) == pytest.approx(0.5)

    def test_diurnal_trough_and_peak(self):
        spec = {"kind": "diurnal", "period": 24, "low": 0.2,
                "high": 1.0}
        assert envelope_value(spec, 0, 24) == pytest.approx(0.2)
        assert envelope_value(spec, 12, 24) == pytest.approx(1.0)
        # Periodic.
        assert envelope_value(spec, 24, 48) == pytest.approx(0.2)

    def test_burst_duty_cycle(self):
        spec = {"kind": "burst", "period": 4, "duty": 0.5,
                "low": 0.0, "high": 1.0}
        values = [envelope_value(spec, t, 8) for t in range(8)]
        assert values == [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            envelope_value({"kind": "square"}, 0, 10)


class TestEpisode:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Episode(kind="chaos")

    def test_activity_window(self):
        ep = Episode(kind="uniform", start=2, duration=3)
        assert [ep.active(e) for e in range(7)] == [
            False, False, True, True, True, False, False]

    def test_open_ended_runs_to_scenario_end(self):
        ep = Episode(kind="uniform", start=1)
        assert ep.active(1_000_000)

    def test_inactive_epoch_emits_nothing(self):
        ep = Episode(kind="uniform", start=5, flows=4)
        assert flows_of(ep, 0, 10, 8, np.random.default_rng(0)) == []

    def test_uniform_generation_count_and_bounds(self):
        ep = Episode(kind="uniform", flows=12, gbps=10.0)
        flows = flows_of(ep, 0, 10, 8, np.random.default_rng(0))
        assert len(flows) == 12
        assert all(0 <= f.src < 8 and 0 <= f.dst < 8 for f in flows)
        assert all(f.gbps == 10.0 for f in flows)

    def test_hotspot_targets_param(self):
        ep = Episode(kind="hotspot", flows=6, params={"hotspot": 3})
        flows = flows_of(ep, 0, 10, 8, np.random.default_rng(0))
        assert all(f.dst == 3 for f in flows)

    def test_envelope_scales_count(self):
        ep = Episode(kind="uniform", flows=10,
                     envelope={"kind": "constant", "value": 0.5})
        flows = flows_of(ep, 0, 10, 8, np.random.default_rng(0))
        assert len(flows) == 5

    def test_zero_intensity_emits_nothing(self):
        ep = Episode(kind="collective",
                     envelope={"kind": "constant", "value": 0.0})
        assert flows_of(ep, 0, 10, 8, np.random.default_rng(0)) == []

    def test_collective_ring_over_nodes(self):
        ep = Episode(kind="collective", gbps=50.0,
                     params={"nodes": [0, 1, 2]})
        flows = flows_of(ep, 0, 10, 8, np.random.default_rng(0))
        assert [(f.src, f.dst) for f in flows] == [(0, 1), (1, 2),
                                                   (2, 0)]
        assert all(f.gbps == 50.0 for f in flows)

    def test_collective_envelope_scales_gbps(self):
        ep = Episode(kind="collective", gbps=50.0,
                     envelope={"kind": "constant", "value": 0.5},
                     params={"nodes": [0, 1]})
        flows = flows_of(ep, 0, 10, 8, np.random.default_rng(0))
        assert all(f.gbps == 25.0 for f in flows)

    def test_cpu_mem_defaults_split_rack(self):
        ep = Episode(kind="cpu-mem")
        flows = flows_of(ep, 0, 10, 8, np.random.default_rng(0))
        assert len(flows) == 4
        assert all(f.src < 4 <= f.dst for f in flows)

    def test_cori_replay_resamples_per_epoch(self):
        ep = Episode(kind="cori-replay",
                     params={"peak_gbps": 1000.0})
        rng = np.random.default_rng(0)
        a = flows_of(ep, 0, 10, 8, rng)
        b = flows_of(ep, 1, 10, 8, rng)
        assert [f.gbps for f in a] != [f.gbps for f in b]
        # Lower-half nodes stream to the upper half's memory.
        assert all(f.src < 4 <= f.dst for f in a)

    def test_two_node_rack_pairs_cleanly(self):
        # Default node split on the smallest legal rack must not
        # self-pair.
        for kind in ("cpu-mem", "gpu-hbm", "cori-replay"):
            flows = flows_of(Episode(kind=kind), 0, 4, 2,
                             np.random.default_rng(0))
            assert flows
            assert all(f.src != f.dst for f in flows)

    def test_full_rack_node_set_rejected_clearly(self):
        ep = Episode(kind="gpu-hbm",
                     params={"nodes": list(range(8))})
        with pytest.raises(ValueError, match="no peer nodes"):
            flows_of(ep, 0, 4, 8, np.random.default_rng(0))

    def test_every_kind_generates(self):
        rng = np.random.default_rng(0)
        for kind in EPISODE_KINDS:
            batch = Episode(kind=kind, flows=4).generate_batch(
                0, 10, 8, rng)
            assert len(batch)
            assert np.all(batch.src != batch.dst)


class TestGenerateBatchTwin:
    """``generate_batch`` against ``ScalarEpisode.generate``, the
    per-flow loops it replaced (SIM006): the same flows, bit for bit,
    and the same generator state afterwards, for every episode kind."""

    EPISODES = [
        ScalarEpisode(kind="uniform",
                      flows={"dist": "poisson", "mean": 12}, gbps=20.0),
        ScalarEpisode(kind="hotspot", flows=9, params={"hotspot": 3}),
        ScalarEpisode(kind="cpu-mem", duration=8,
                      envelope={"kind": "ramp", "start": 0.2,
                                "end": 1.0}),
        ScalarEpisode(kind="gpu-hbm", params={"nodes": [0, 1, 2]},
                      envelope={"kind": "diurnal", "period": 6}),
        ScalarEpisode(kind="collective", params={"nodes": [1, 3, 5]},
                      envelope={"kind": "burst", "period": 3,
                                "low": 0.5}),
        ScalarEpisode(kind="cori-replay", params={"peak_gbps": 900.0},
                      envelope={"kind": "ramp", "start": 0.3,
                                "end": 0.9}),
    ]

    def test_every_kind_is_covered(self):
        assert sorted(e.kind for e in self.EPISODES) == sorted(
            EPISODE_KINDS)

    @pytest.mark.parametrize("episode", EPISODES,
                             ids=[e.kind for e in EPISODES])
    def test_same_flows_and_rng_stream(self, episode):
        for epoch in (0, 3, 7):
            rng_a = np.random.default_rng(42)
            rng_b = np.random.default_rng(42)
            flows = episode.generate(epoch, 16, 8, rng_a)
            batch = episode.generate_batch(epoch, 16, 8, rng_b)
            assert flows == to_flows(batch)
            assert (rng_a.bit_generator.state
                    == rng_b.bit_generator.state)

    def test_inactive_epoch_is_empty_in_both(self):
        episode = ScalarEpisode(kind="uniform", start=5, duration=2,
                                flows=4)
        rng = np.random.default_rng(0)
        assert episode.generate(0, 16, 8, rng) == []
        assert len(episode.generate_batch(0, 16, 8, rng)) == 0
