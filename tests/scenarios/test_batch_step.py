"""Scalar-vs-batched backend equivalence (the PR 8 epoch hot path).

Mirror of :mod:`tests.network.test_batch_admission` one layer up: each
backend's vectorized ``step`` must be an *exact* replay of its
per-flow ``Scalar<Backend>`` oracle in ``tests/oracles/backends.py`` —
bit-identical :class:`~repro.scenarios.backends.EpochReport` streams
(including the raw slowdown samples and extras) across uniform,
hotspot, and failure-injected workloads, plus the registered
scenarios with their scripted events. These are seeded property-style
suites: each case loops over several seeds rather than one
hand-picked instance.
"""

import numpy as np
import pytest

from repro.network.traffic import FlowBatch, hotspot_batch, uniform_batch
from repro.scenarios.backends import (
    AWGRBackend,
    ElectronicBackend,
    WSSBackend,
)
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.scenario import ScenarioEvent
from tests.oracles.backends import (
    ScalarAWGRBackend,
    ScalarElectronicBackend,
    ScalarWSSBackend,
)


def make_twins(scalar_cls, backend_cls, **kwargs):
    """Twin backends: per-flow reference and vectorized hot path."""
    return scalar_cls(**kwargs), backend_cls(**kwargs)


def assert_identical_epochs(scalar, batched, batches,
                            events=()) -> None:
    """Step both paths through the same stream; require bit-identical
    reports (and bit-identical snapshots where state is shared)."""
    events = dict(events)
    for i, batch in enumerate(batches):
        for event in events.get(i, []):
            assert scalar.apply_event(event) == batched.apply_event(event)
        report_scalar = scalar.step(batch)
        report_batched = batched.step(batch)
        assert report_scalar.to_dict() == report_batched.to_dict(), (
            f"epoch {i} diverged")
        # Float equality above is bit-exact only if the samples are:
        # re-check the slowdown tails explicitly as arrays.
        assert np.array_equal(np.asarray(report_scalar.slowdowns),
                              np.asarray(report_batched.slowdowns))
    assert scalar.snapshot() == batched.snapshot()


def wss_workloads(seed: int, n_nodes: int, n_flows: int,
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


class TestWSSBitIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_light(self, seed):
        scalar, batched = make_twins(ScalarWSSBackend, WSSBackend,
                                     n_nodes=12, n_switches=3)
        batches = [uniform_batch(12, 40, gbps=5.0, rng=100 + seed)
                   for _ in range(4)]
        assert_identical_epochs(scalar, batched, batches)

    @pytest.mark.parametrize("seed", range(5))
    def test_hotspot_oversubscribed_with_lag(self, seed):
        # reconfig_period > 1 makes the scheduler serve stale
        # configurations, so flows see fractional service (and some
        # pairs see zero → blocked) — the interesting slowdown regime.
        scalar, batched = make_twins(ScalarWSSBackend, WSSBackend,
                                     n_nodes=10, n_switches=2,
                                     wavelengths_per_port=4,
                                     reconfig_period=3)
        batches = wss_workloads(200 + seed, n_nodes=10, n_flows=60,
                                epochs=6, gbps=30.0)
        assert_identical_epochs(scalar, batched, batches)
        assert batched.fabric.reconfig_time_s > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_switch_failure_and_repair(self, seed):
        scalar, batched = make_twins(ScalarWSSBackend, WSSBackend,
                                     n_nodes=8, n_switches=3,
                                     wavelengths_per_port=2,
                                     reconfig_period=2)
        batches = wss_workloads(300 + seed, n_nodes=8, n_flows=50,
                                epochs=6, gbps=40.0)
        events = {
            1: [ScenarioEvent(epoch=1, action="fail_plane", value=0)],
            3: [ScenarioEvent(epoch=3, action="set_reconfig_period",
                              value=1)],
            4: [ScenarioEvent(epoch=4, action="repair_plane", value=0)],
        }
        assert_identical_epochs(scalar, batched, batches, events)

    def test_empty_epoch(self):
        scalar, batched = make_twins(ScalarWSSBackend, WSSBackend,
                                     n_nodes=6)
        assert_identical_epochs(
            scalar, batched,
            [FlowBatch.empty(), uniform_batch(6, 10, rng=0),
             FlowBatch.empty()])


class TestElectronicBitIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_within_caps(self, seed):
        scalar, batched = make_twins(ScalarElectronicBackend,
                                     ElectronicBackend, n_nodes=12)
        batches = [uniform_batch(12, 40, gbps=5.0, rng=400 + seed)
                   for _ in range(4)]
        assert_identical_epochs(scalar, batched, batches)

    @pytest.mark.parametrize("seed", range(5))
    def test_hotspot_saturates_lanes(self, seed):
        # One lane per endpoint + hotspot traffic drives the ingress
        # cap well below demand, so shares are fractional and the
        # 1/share slowdowns are non-trivial floats.
        scalar, batched = make_twins(ScalarElectronicBackend,
                                     ElectronicBackend, n_nodes=10,
                                     lanes_per_endpoint=1)
        batches = wss_workloads(500 + seed, n_nodes=10, n_flows=80,
                                epochs=5, gbps=17.3)
        assert_identical_epochs(scalar, batched, batches)
        assert any(s > 1.0 for s in batched.step(
            uniform_batch(10, 80, gbps=17.3, rng=seed)).slowdowns)

    def test_empty_epoch(self):
        scalar, batched = make_twins(ScalarElectronicBackend,
                                     ElectronicBackend, n_nodes=6)
        assert_identical_epochs(
            scalar, batched,
            [FlowBatch.empty(), uniform_batch(6, 10, rng=0)])


class TestScenarioEpochLoopBitIdentity:
    """Full ScenarioRunner loops — generation → events → admission →
    report — must match between the object path and the batch path on
    every backend and registered scenario."""

    SCENARIOS = ("demo", "diurnal_cori", "reconfig_lag")

    @staticmethod
    def run_pair(name: str, scalar_cls, backend_cls, seed: int,
                 **kwargs):
        scenario = get_scenario(name)
        scalar, batched = make_twins(scalar_cls, backend_cls,
                                     n_nodes=scenario.n_nodes, **kwargs)
        report_scalar = ScenarioRunner(scenario, scalar).run(seed=seed)
        report_batched = ScenarioRunner(scenario, batched).run(seed=seed)
        return report_scalar, report_batched

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_awgr(self, name, seed):
        a, b = self.run_pair(name, ScalarAWGRBackend, AWGRBackend, seed,
                             rng_seed=seed)
        assert [e.to_dict() for e in a.epochs] == \
            [e.to_dict() for e in b.epochs]
        assert a.as_dict() == b.as_dict()

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_wss(self, name, seed):
        a, b = self.run_pair(name, ScalarWSSBackend, WSSBackend, seed)
        assert [e.to_dict() for e in a.epochs] == \
            [e.to_dict() for e in b.epochs]
        assert a.as_dict() == b.as_dict()

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_electronic(self, name, seed):
        a, b = self.run_pair(name, ScalarElectronicBackend,
                             ElectronicBackend, seed)
        assert [e.to_dict() for e in a.epochs] == \
            [e.to_dict() for e in b.epochs]
        assert a.as_dict() == b.as_dict()

