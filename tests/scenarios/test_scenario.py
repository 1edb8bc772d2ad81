"""Scenario model: composition, events, JSON round trip."""

import numpy as np
import pytest

from repro.scaleout import canonical_json
from repro.scenarios import (
    Episode,
    Scenario,
    ScenarioEvent,
    ScenarioRunner,
    available_backends,
    make_backend,
)
from tests.oracles.flows import to_flows


def small_scenario(**overrides):
    kwargs = dict(
        name="test",
        n_nodes=8,
        n_epochs=4,
        episodes=(
            Episode(kind="uniform", flows=5),
            Episode(kind="hotspot", start=2, flows=3,
                    params={"hotspot": 1}),
        ),
        events=(ScenarioEvent(epoch=2, action="fail_plane", value=0),))
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestValidation:
    def test_needs_episodes(self):
        with pytest.raises(ValueError):
            small_scenario(episodes=())

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            small_scenario(n_nodes=1)

    def test_needs_epochs(self):
        with pytest.raises(ValueError):
            small_scenario(n_epochs=0)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ScenarioEvent(epoch=-1, action="fail_plane")
        with pytest.raises(ValueError):
            ScenarioEvent(epoch=0, action="")


class TestEpisodeNodesInRack:
    """A node outside ``[0, n_nodes)`` is a config error when the
    scenario is built, not a failure (or, through numpy's negative
    indexing, a silent wrap to node ``n - 1``) when an epoch runs."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("kind,params,node", [
        ("gpu-hbm", {"nodes": [-1, 0]}, -1),
        ("gpu-hbm", {"nodes": [0, 9]}, 9),
        ("cpu-mem", {"nodes": [0], "memory_nodes": [1, 4]}, 4),
        ("hotspot", {"hotspot": 4}, 4),
    ])
    def test_rejected_before_any_epoch_on_every_backend(
            self, backend, kind, params, node):
        config = {"name": "bad-nodes", "n_nodes": 4, "n_epochs": 2,
                  "episodes": [{"kind": "uniform", "flows": 2},
                               {"kind": kind, "params": params}]}
        with pytest.raises(ValueError,
                           match=rf"episode 1 \({kind}\) names node "
                                 rf"{node},"):
            ScenarioRunner(Scenario.from_config(config),
                           make_backend(backend, 4)).run(seed=0)


class TestComposition:
    def test_batch_concatenates_active_episodes(self):
        scenario = small_scenario()
        rng = np.random.default_rng(0)
        early = scenario.flow_batch(0, rng)
        late = scenario.flow_batch(2, rng)
        assert len(early) == 5           # only the uniform episode
        assert len(late) == 8            # uniform + hotspot

    def test_batches_covers_every_epoch(self):
        scenario = small_scenario()
        assert [len(scenario.flow_batch_at(epoch, base_seed=0))
                for epoch in range(4)] == [5, 5, 8, 8]

    def test_batches_accepts_int_seed_reproducibly(self):
        a = [to_flows(small_scenario().flow_batch_at(e, base_seed=3))
             for e in range(4)]
        b = [to_flows(small_scenario().flow_batch_at(e, base_seed=3))
             for e in range(4)]
        assert a == b

    def test_events_at(self):
        scenario = small_scenario()
        assert scenario.events_at(0) == []
        assert len(scenario.events_at(2)) == 1

    def test_with_epochs(self):
        assert small_scenario().with_epochs(9).n_epochs == 9


class TestRoundTrip:
    def test_to_from_config_identity(self):
        scenario = small_scenario()
        clone = Scenario.from_config(scenario.to_config())
        assert clone == scenario

    def test_config_is_cache_hashable(self):
        # The sweep engine requires JSON-stable configs; this is what
        # lets scenarios ride inside ExperimentSpec grids.
        payload = canonical_json(small_scenario().to_config())
        assert "uniform" in payload

    def test_from_config_accepts_json_lists(self):
        import json
        config = json.loads(canonical_json(small_scenario().to_config()))
        clone = Scenario.from_config(config)
        assert clone.n_nodes == 8
        assert len(clone.episodes) == 2
        assert clone.events[0].action == "fail_plane"
