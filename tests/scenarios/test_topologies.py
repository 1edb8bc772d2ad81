"""Topology contenders: full mesh and dragonfly behavior, plus
scalar-vs-batched bit-identity against their per-flow oracles in
``tests/oracles/backends.py`` (the twin discipline SIM006 enforces for
:class:`FullMeshBackend` and :class:`DragonflyBackend`)."""

import numpy as np
import pytest

from repro.network.traffic import FlowBatch, hotspot_batch, uniform_batch
from repro.scenarios import ScenarioEvent
from repro.scenarios.topologies import (
    DragonflyBackend,
    FullMeshBackend,
)
from tests.oracles.backends import (
    ScalarDragonflyBackend,
    ScalarFullMeshBackend,
)
from tests.oracles.flows import Flow, from_flows


def make_twins(scalar_cls, backend_cls, **kwargs):
    """Twin backends: per-flow reference and vectorized hot path."""
    return scalar_cls(**kwargs), backend_cls(**kwargs)


def flows(*items: Flow) -> FlowBatch:
    """One epoch of hand-built flows."""
    return from_flows(list(items))


def assert_identical_epochs(scalar, batched, batches,
                            events=()) -> None:
    events = dict(events)
    for i, batch in enumerate(batches):
        for event in events.get(i, []):
            assert scalar.apply_event(event) == batched.apply_event(event)
        report_scalar = scalar.step(batch)
        report_batched = batched.step(batch)
        assert report_scalar.to_dict() == report_batched.to_dict(), (
            f"epoch {i} diverged")
        assert np.array_equal(np.asarray(report_scalar.slowdowns),
                              np.asarray(report_batched.slowdowns))
    assert scalar.snapshot() == batched.snapshot()


class TestFullMeshBehavior:
    def test_under_capacity_serves_everything_at_unity(self):
        backend = FullMeshBackend(n_nodes=8)
        report = backend.step(flows(Flow(1, 0, 25.0), Flow(2, 3, 25.0)))
        assert report.carried == 2
        assert report.slowdowns == [1.0, 1.0]
        assert report.extras["healthy_link_planes"] == 4

    def test_no_cross_pair_interference(self):
        # Pair (1, 0) is oversubscribed 2x; pair (2, 3) must not
        # notice — the mesh's defining property.
        backend = FullMeshBackend(n_nodes=8, links_per_pair=1,
                                  gbps_per_link=100.0)
        report = backend.step(
            flows(Flow(1, 0, 100.0), Flow(1, 0, 100.0), Flow(2, 3, 50.0)))
        assert report.slowdowns == [2.0, 2.0, 1.0]
        assert report.carried_gbps == pytest.approx(150.0)

    def test_fail_plane_shrinks_every_pair(self):
        backend = FullMeshBackend(n_nodes=6, links_per_pair=2,
                                  gbps_per_link=50.0)
        assert backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
        assert backend.healthy_link_planes == 1
        report = backend.step(flows(Flow(1, 0, 100.0)))
        assert report.slowdowns == [2.0]
        # Idempotent; repair restores.
        backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
        assert backend.healthy_link_planes == 1
        backend.apply_event(
            ScenarioEvent(epoch=0, action="repair_plane", value=0))
        assert backend.healthy_link_planes == 2

    def test_all_planes_failed_blocks_outright(self):
        backend = FullMeshBackend(n_nodes=4, links_per_pair=1)
        backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
        report = backend.step(flows(Flow(1, 0, 25.0)))
        assert report.blocked == 1
        assert report.carried == 0

    def test_out_of_range_plane_rejected(self):
        backend = FullMeshBackend(n_nodes=4, links_per_pair=2)
        with pytest.raises(ValueError, match="out of range"):
            backend.apply_event(
                ScenarioEvent(epoch=0, action="fail_plane", value=2))

    def test_unknown_event_unsupported(self):
        backend = FullMeshBackend(n_nodes=4)
        assert not backend.apply_event(
            ScenarioEvent(epoch=0, action="set_reconfig_time",
                          value=1.0))

    def test_power_scales_with_n_squared(self):
        p8 = FullMeshBackend(n_nodes=8).power_w()
        p16 = FullMeshBackend(n_nodes=16).power_w()
        assert p16 / p8 == pytest.approx((16 * 15) / (8 * 7))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="n_nodes"):
            FullMeshBackend(n_nodes=1)
        with pytest.raises(ValueError, match="links_per_pair"):
            FullMeshBackend(n_nodes=4, links_per_pair=0)
        with pytest.raises(ValueError, match="gbps_per_link"):
            FullMeshBackend(n_nodes=4, gbps_per_link=0.0)


class TestDragonflyBehavior:
    def test_intra_group_is_one_hop(self):
        # Nodes 0 and 1 share group 0 (8 nodes / 4 groups = size 2).
        backend = DragonflyBackend(n_nodes=8, n_groups=4)
        report = backend.step(flows(Flow(0, 1, 25.0)))
        assert report.slowdowns == [1.0]
        assert report.indirect == 0
        assert report.extras["routing"] == "minimal"

    def test_minimal_inter_group_is_two_hops(self):
        backend = DragonflyBackend(n_nodes=8, n_groups=4)
        report = backend.step(flows(Flow(0, 7, 25.0)))
        assert report.slowdowns == [2.0]
        assert report.indirect == 0

    def test_minimal_hotspot_contends_one_channel(self):
        # Group 0 -> group 1: 4 x 50 Gbps onto one 2 x 50 Gbps
        # channel => every flow gets half service, slowdown 4.0.
        backend = DragonflyBackend(n_nodes=8, n_groups=4,
                                   global_links=2,
                                   gbps_per_global_link=50.0)
        report = backend.step(flows(Flow(0, 2, 50.0), Flow(0, 3, 50.0),
                                    Flow(1, 2, 50.0), Flow(1, 3, 50.0)))
        assert report.slowdowns == [4.0] * 4
        assert report.carried_gbps == pytest.approx(100.0)

    def test_valiant_spreads_and_reports_indirect(self):
        backend = DragonflyBackend(n_nodes=16, n_groups=4,
                                   routing="valiant", rng_seed=1)
        report = backend.step(
            flows(*(Flow(src, 12 + src % 4, 25.0) for src in range(8))))
        assert report.extras["routing"] == "valiant"
        # With 4 groups the draw detours ~half the flows; seed 1 must
        # produce at least one detour (3 hops) and count it indirect.
        assert report.indirect > 0
        assert max(report.slowdowns) >= 3.0

    def test_fail_plane_halves_global_capacity(self):
        backend = DragonflyBackend(n_nodes=8, n_groups=4,
                                   global_links=2,
                                   gbps_per_global_link=50.0)
        assert backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
        assert backend.healthy_global_links == 1
        report = backend.step(flows(Flow(0, 7, 100.0)))
        assert report.slowdowns == [4.0]  # 2 hops / 0.5 service
        with pytest.raises(ValueError, match="out of range"):
            backend.apply_event(
                ScenarioEvent(epoch=0, action="fail_plane", value=5))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="n_groups"):
            DragonflyBackend(n_nodes=4, n_groups=9)
        with pytest.raises(ValueError, match="routing"):
            DragonflyBackend(n_nodes=8, routing="adaptive")
        with pytest.raises(ValueError, match="global_links"):
            DragonflyBackend(n_nodes=8, global_links=0)

    def test_power_is_sub_quadratic_in_nodes(self):
        # Doubling nodes at fixed group count must cost the dragonfly
        # less than the mesh's N² growth.
        d8 = DragonflyBackend(n_nodes=8, n_groups=4).power_w()
        d16 = DragonflyBackend(n_nodes=16, n_groups=4).power_w()
        m8 = FullMeshBackend(n_nodes=8).power_w()
        m16 = FullMeshBackend(n_nodes=16).power_w()
        assert d16 / d8 < m16 / m8


def mixed_workloads(seed: int, n_nodes: int, n_flows: int,
                    epochs: int, gbps: float):
    """Seeded epoch stream mixing uniform and hotspot batches."""
    rng = np.random.default_rng(seed)
    batches = []
    for epoch in range(epochs):
        if epoch % 3 == 2:
            batches.append(hotspot_batch(n_nodes, epoch % n_nodes,
                                         n_flows, gbps=gbps, rng=rng))
        else:
            batches.append(uniform_batch(n_nodes, n_flows, gbps=gbps,
                                         rng=rng))
    return batches


class TestFullMeshBitIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_oversubscribed(self, seed):
        scalar, batched = make_twins(ScalarFullMeshBackend,
                                     FullMeshBackend, n_nodes=10,
                                     links_per_pair=1,
                                     gbps_per_link=40.0)
        batches = mixed_workloads(600 + seed, n_nodes=10, n_flows=60,
                                  epochs=6, gbps=30.0)
        assert_identical_epochs(scalar, batched, batches)

    @pytest.mark.parametrize("seed", range(4))
    def test_plane_failure_and_repair(self, seed):
        scalar, batched = make_twins(ScalarFullMeshBackend,
                                     FullMeshBackend, n_nodes=8,
                                     links_per_pair=2,
                                     gbps_per_link=30.0)
        batches = mixed_workloads(700 + seed, n_nodes=8, n_flows=50,
                                  epochs=6, gbps=40.0)
        events = {
            1: [ScenarioEvent(epoch=1, action="fail_plane", value=0)],
            4: [ScenarioEvent(epoch=4, action="repair_plane", value=0)],
        }
        assert_identical_epochs(scalar, batched, batches, events)

    def test_empty_epoch(self):
        scalar, batched = make_twins(ScalarFullMeshBackend,
                                     FullMeshBackend, n_nodes=6)
        assert_identical_epochs(
            scalar, batched,
            [FlowBatch.empty(), uniform_batch(6, 10, rng=0),
             FlowBatch.empty()])


class TestDragonflyBitIdentity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("routing", ["minimal", "valiant"])
    def test_mixed_oversubscribed(self, routing, seed):
        scalar, batched = make_twins(ScalarDragonflyBackend,
                                     DragonflyBackend, n_nodes=12,
                                     n_groups=3, routing=routing,
                                     rng_seed=seed,
                                     gbps_per_global_link=20.0)
        batches = mixed_workloads(800 + seed, n_nodes=12, n_flows=60,
                                  epochs=6, gbps=30.0)
        assert_identical_epochs(scalar, batched, batches)

    @pytest.mark.parametrize("seed", range(4))
    def test_valiant_with_plane_failure(self, seed):
        # The Valiant RNG stream must stay aligned across the event.
        scalar, batched = make_twins(ScalarDragonflyBackend,
                                     DragonflyBackend, n_nodes=10,
                                     n_groups=5, routing="valiant",
                                     rng_seed=40 + seed,
                                     global_links=2,
                                     gbps_per_global_link=25.0)
        batches = mixed_workloads(900 + seed, n_nodes=10, n_flows=50,
                                  epochs=6, gbps=35.0)
        events = {
            1: [ScenarioEvent(epoch=1, action="fail_plane", value=1)],
            4: [ScenarioEvent(epoch=4, action="repair_plane", value=1)],
        }
        assert_identical_epochs(scalar, batched, batches, events)

    def test_empty_epoch(self):
        scalar, batched = make_twins(ScalarDragonflyBackend,
                                     DragonflyBackend, n_nodes=6,
                                     n_groups=3, routing="valiant")
        assert_identical_epochs(
            scalar, batched,
            [FlowBatch.empty(), uniform_batch(6, 10, rng=0),
             FlowBatch.empty()])

