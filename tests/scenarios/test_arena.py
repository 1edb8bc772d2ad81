"""One-pass arena == M independent runs (the tentpole invariant)."""

import json

import pytest

from repro.scenarios import (
    ScenarioRunner,
    available_backends,
    make_backend,
)
from repro.scenarios.arena import run_arena
from repro.scenarios.library import get_scenario

SEED = 5

#: diurnal_cori raced for 16 epochs, so its noon plane failure (epoch
#: 12) fires inside the race.
CORI_EPOCHS = 16
CORI_SEED = 7


@pytest.fixture(scope="module")
def arena():
    """One full-field race over the demo scenario, shared by the
    equivalence assertions below."""
    return run_arena(get_scenario("demo"), seed=SEED)


@pytest.fixture(scope="module")
def cori_arena():
    """One full-field race over diurnal_cori through its plane
    failure."""
    scenario = get_scenario("diurnal_cori").with_epochs(CORI_EPOCHS)
    return scenario, run_arena(scenario, seed=CORI_SEED)


def assert_matches_solo(arena, scenario, name, seed):
    """Backend ``name``'s raced stream equals its solo run."""
    solo = ScenarioRunner(
        scenario,
        make_backend(name, scenario.n_nodes, seed=seed),
    ).run(seed=seed)
    raced = arena.reports[name]
    assert ([e.to_dict() for e in raced.epochs]
            == [e.to_dict() for e in solo.epochs])
    assert raced.as_dict() == solo.as_dict()


class TestOnePassEquivalence:
    def test_races_every_registered_backend(self, arena):
        assert arena.backends == available_backends()

    @pytest.mark.parametrize("name", available_backends())
    def test_bit_identical_to_independent_run(self, arena, name):
        """The load-bearing claim: sharing one generated batch per
        epoch across contenders changes nothing — each backend's
        report stream is bit-identical to its own solo
        ScenarioRunner run."""
        assert_matches_solo(arena, get_scenario("demo"), name, SEED)

    @pytest.mark.parametrize("name", available_backends())
    def test_bit_identical_through_a_plane_failure(self, cori_arena,
                                                   name):
        scenario, arena = cori_arena
        assert_matches_solo(arena, scenario, name, CORI_SEED)

    def test_events_applied_per_capability(self, arena):
        # demo scripts one fail_plane event: honoured by plane-aware
        # backends, counted as ignored by the electronic comparator.
        assert arena.reports["awgr"].events_applied == 1
        assert arena.reports["full_mesh"].events_applied == 1
        assert arena.reports["electronic"].events_applied == 0
        assert arena.reports["electronic"].events_ignored == 1


class TestArenaReport:
    def test_as_dict_is_json_stable(self, arena):
        payload = arena.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["scenario"] == "demo"
        assert payload["seed"] == SEED
        assert len(payload["rows"]) == len(arena.backends)

    def test_rows_carry_power_and_efficiency(self, arena):
        for row in arena.rows():
            assert row["power_w"] is None or row["power_w"] > 0
            if row["power_w"]:
                assert row["gbps_per_watt"] == pytest.approx(
                    row["carried_gbps"] / row["power_w"])

    def test_frontiers_are_ordered(self, arena):
        iso_perf = arena.iso_performance()
        powers = [r["iso_power_w"] for r in iso_perf
                  if r["iso_power_w"] is not None]
        assert powers == sorted(powers)
        iso_power = arena.iso_power()
        carried = [r["iso_carried_gbps"] for r in iso_power]
        assert carried == sorted(carried, reverse=True)
        # Both frontiers cover every powered contender.
        assert len(iso_perf) == len(arena.frontier_points())
        assert len(iso_power) == len(arena.frontier_points())


class TestArenaOptions:
    def test_subset_race_preserves_order(self):
        arena = run_arena(get_scenario("demo"),
                          backends=("electronic", "awgr"), seed=1)
        assert arena.backends == ("electronic", "awgr")

    def test_backend_params_forwarded(self):
        arena = run_arena(
            get_scenario("demo"), backends=("full_mesh",), seed=1,
            backend_params={"full_mesh": {"links_per_pair": 2}})
        first = arena.reports["full_mesh"].epochs[0]
        assert first.extras["healthy_link_planes"] == 2

    def test_empty_race_rejected(self):
        with pytest.raises(ValueError, match="no backends"):
            run_arena(get_scenario("demo"), backends=())

    def test_duplicate_contender_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_arena(get_scenario("demo"),
                      backends=("awgr", "awgr"))

    def test_unknown_contender_lists_known(self):
        with pytest.raises(KeyError, match="awgr"):
            run_arena(get_scenario("demo"), backends=("quantum",))

    def test_params_for_unraced_backend_rejected(self):
        with pytest.raises(ValueError, match="not in the race"):
            run_arena(get_scenario("demo"), backends=("awgr",),
                      backend_params={"wss": {"n_switches": 2}})
