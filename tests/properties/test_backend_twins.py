"""Every registered backend against its per-flow oracle, over
generated scenarios.

The seeded twin suites (``tests/scenarios/test_batch_step.py``,
``tests/scenarios/test_topologies.py``) pin hand-picked workloads.
This harness draws the workload instead: a small scenario mixing
every episode kind, a valid script of plane and reconfiguration
events, and backend parameters. Each backend built by the registry
and its ``tests/oracles/backends.py`` twin step the same
``flow_batch_at`` stream; every epoch's ``EpochReport.to_dict()``
must be equal, and so must the snapshots of the state both keep.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.electronic import ELECTRONIC_CATALOG
from repro.scenarios import (
    Episode,
    Scenario,
    ScenarioEvent,
    available_backends,
    backend_info,
    make_backend,
)
from repro.scenarios.episodes import EPISODE_KINDS
from repro.scenarios.topologies import ROUTING_MODES
from tests.oracles.backends import SCALAR_BACKENDS, scalar_twin

ENVELOPES = (None, {"kind": "ramp", "start": 0.2, "end": 1.0},
             {"kind": "burst", "period": 2, "duty": 0.5, "low": 0.0,
              "high": 1.5})


def test_every_registered_backend_has_an_oracle():
    assert sorted(SCALAR_BACKENDS) == sorted(available_backends())
    for name, oracle in SCALAR_BACKENDS.items():
        assert issubclass(oracle, backend_info(name).cls)


@st.composite
def episodes(draw, n_nodes: int) -> Episode:
    kind = draw(st.sampled_from(EPISODE_KINDS))
    return Episode(
        kind=kind,
        start=draw(st.integers(0, 2)),
        flows=draw(st.one_of(
            st.integers(0, 12),
            st.builds(lambda mean: {"dist": "poisson", "mean": mean},
                      st.integers(1, 10)))),
        gbps=draw(st.floats(1.0, 200.0)),
        envelope=draw(st.sampled_from(ENVELOPES)),
        params=({"hotspot": draw(st.integers(0, n_nodes - 1))}
                if kind == "hotspot" else {}))


def backend_params(name: str, n_nodes: int):
    """(constructor overrides, how many planes events may name) for
    one backend."""
    seed = st.integers(0, 2**32 - 1)
    if name == "awgr":
        return st.fixed_dictionaries({
            "planes": st.integers(1, 4),
            "flows_per_wavelength": st.integers(1, 4),
            "state_update_period": st.integers(1, 4),
            "duration_slots": st.integers(1, 3),
            "track_state": st.booleans(),
            "rng_seed": seed,
        }).map(lambda p: (p, p["planes"]))
    if name == "wss":
        return st.fixed_dictionaries({
            "n_switches": st.integers(1, 4),
            "wavelengths_per_port": st.integers(1, 8),
            "reconfig_period": st.integers(1, 3),
        }).map(lambda p: (p, p["n_switches"]))
    if name == "electronic":
        return st.fixed_dictionaries({
            "technology": st.sampled_from(sorted(ELECTRONIC_CATALOG)),
            "lanes_per_endpoint": st.integers(1, 8),
        }).map(lambda p: (p, 1))
    if name == "full_mesh":
        return st.fixed_dictionaries({
            "links_per_pair": st.integers(1, 4),
            "gbps_per_link": st.floats(10.0, 200.0),
        }).map(lambda p: (p, p["links_per_pair"]))
    if name == "dragonfly":
        return st.fixed_dictionaries({
            "n_groups": st.integers(1, n_nodes),
            "global_links": st.integers(1, 3),
            "gbps_per_global_link": st.floats(10.0, 100.0),
            "intra_gbps": st.floats(10.0, 200.0),
            "routing": st.sampled_from(ROUTING_MODES),
            "rng_seed": seed,
        }).map(lambda p: (p, p["global_links"]))
    raise AssertionError(f"no parameter strategy for backend {name!r}")


def valid_script(name: str, planes: int, drawn) -> tuple:
    """The drawn events a run can apply: an AWGR keeps one plane and
    a WSS bank one switch (a repair never grows the bank past its
    provisioned size); everything else takes any in-range plane."""
    failed: set = set()
    switches = planes
    script = []
    for event in drawn:
        if event.action == "fail_plane":
            if name == "awgr":
                if (event.value not in failed
                        and len(failed) + 1 >= planes):
                    continue
                failed.add(event.value)
            elif name == "wss":
                if switches <= 1:
                    continue
                switches -= 1
        elif event.action == "repair_plane":
            failed.discard(event.value)
            switches = min(switches + 1, planes)
        script.append(event)
    return tuple(script)


@st.composite
def twin_cases(draw, name: str):
    n_nodes = draw(st.integers(2, 16))
    n_epochs = draw(st.integers(1, 6))
    params, planes = draw(backend_params(name, n_nodes))
    values = {
        "fail_plane": st.integers(0, planes - 1),
        "repair_plane": st.integers(0, planes - 1),
        "set_reconfig_period": st.integers(1, 3),
        "set_reconfig_time": st.floats(0.0, 0.5),
    }
    drawn = draw(st.lists(
        st.sampled_from(sorted(values)).flatmap(
            lambda action: st.builds(
                ScenarioEvent, epoch=st.integers(0, n_epochs - 1),
                action=st.just(action), value=values[action])),
        max_size=6))
    scenario = Scenario(
        name="twin-probe", n_nodes=n_nodes, n_epochs=n_epochs,
        episodes=tuple(draw(st.lists(episodes(n_nodes), min_size=1,
                                     max_size=3))),
        events=valid_script(
            name, planes, sorted(drawn, key=lambda e: e.epoch)))
    return scenario, params, draw(st.integers(0, 2**32 - 1))


def shared_state(snapshot: dict) -> dict:
    """A snapshot minus the AWGR simulator's token buckets: the oracle
    keeps its in-flight flows in a store of its own."""
    if "sim" not in snapshot:
        return snapshot
    sim = {k: v for k, v in snapshot["sim"].items() if k != "buckets"}
    return {**snapshot, "sim": sim}


@pytest.mark.parametrize("name", sorted(SCALAR_BACKENDS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_backend_matches_its_oracle(name, data):
    scenario, params, seed = data.draw(twin_cases(name))
    backend = make_backend(name, scenario.n_nodes, seed=seed, **params)
    oracle = scalar_twin(backend)
    for epoch in range(scenario.n_epochs):
        for event in scenario.events_at(epoch):
            assert oracle.apply_event(event) == backend.apply_event(event)
        batch = scenario.flow_batch_at(epoch, base_seed=seed)
        assert (oracle.step(batch).to_dict()
                == backend.step(batch).to_dict()), f"epoch {epoch}"
        assert (shared_state(oracle.snapshot())
                == shared_state(backend.snapshot())), f"epoch {epoch}"
