"""Fork semantics: bit-identical prefixes, divergent futures, and a
child that shares only the parent's prefix payloads, which nothing
writes into."""

import json
import tracemalloc

import pytest

from repro.scenarios import (
    Episode,
    Scenario,
    ScenarioEvent,
    ScenarioRunner,
    make_backend,
)
from repro.service import (ServiceClient, ServiceError, ServiceGateway,
                           SessionPool)
from repro.service.sessions import Session, json_roundtrip


def fork_scenario(n_epochs=16, events=(), name="forksvc"):
    return Scenario(
        name=name, n_nodes=8, n_epochs=n_epochs,
        episodes=(Episode(kind="uniform",
                          flows={"dist": "poisson", "mean": 6}),),
        events=tuple(events))


def completed_session(scenario, seed=0, checkpoint_epochs=4,
                      session_id="parent"):
    session = Session.create(session_id, scenario, base_seed=seed,
                             checkpoint_epochs=checkpoint_epochs)
    session.advance(scenario.n_epochs)
    return session


def canon(payload):
    return json.dumps(payload, sort_keys=True)


class TestForkDeterminism:
    def test_identical_events_give_bit_identical_streams(self):
        """Fork at N, replay both to N+M with identical events: the
        child's whole stream equals the parent's."""
        scenario = fork_scenario(n_epochs=16)
        parent = completed_session(scenario, seed=7)
        for at_epoch in (0, 3, 4, 11, 16):  # on and off checkpoints
            child = parent.fork(f"c{at_epoch}", at_epoch)
            child.advance(scenario.n_epochs)
            assert canon(child.reports) == canon(parent.reports), (
                f"fork at {at_epoch} drifted")

    def test_divergent_child_keeps_exact_prefix(self):
        scenario = fork_scenario(n_epochs=16)
        parent = completed_session(scenario, seed=3)
        child = parent.fork(
            "child", 6,
            events=(ScenarioEvent(epoch=8, action="fail_plane",
                                  value=2),))
        child.advance(scenario.n_epochs)
        assert canon(child.reports[:6]) == canon(parent.reports[:6])
        assert canon(child.reports[8:]) != canon(parent.reports[8:])
        healthy = [r["extras"]["healthy_planes"]
                   for r in child.reports]
        assert healthy[7] == 5 and healthy[8] == 4

    def test_divergence_does_not_perturb_parent(self):
        """No shared mutable state: running a divergent child leaves
        the parent's record, checkpoints, and future byte-for-byte
        untouched."""
        scenario = fork_scenario(n_epochs=16)
        parent = Session.create("parent", scenario, base_seed=5,
                                checkpoint_epochs=4)
        parent.advance(8)  # fork mid-run, parent still has a future
        before = canon(parent.to_dict())
        child = parent.fork(
            "child", 8,
            events=(ScenarioEvent(epoch=9, action="fail_plane",
                                  value=1),))
        child.advance(scenario.n_epochs)
        assert canon(parent.to_dict()) == before
        parent.advance(scenario.n_epochs)
        unforked = completed_session(scenario, seed=5,
                                     session_id="control")
        assert canon(parent.reports) == canon(unforked.reports)

    def test_child_horizon_override(self):
        scenario = fork_scenario(n_epochs=10)
        parent = completed_session(scenario, seed=1)
        child = parent.fork("longer", 10, n_epochs=20)
        child.advance(20)
        assert child.state == "completed"
        assert child.cursor == 20
        assert canon(child.reports[:10]) == canon(parent.reports)
        # The extension equals an uninterrupted 20-epoch run.
        long_run = ScenarioRunner(
            scenario.with_epochs(20),
            make_backend("awgr", 8, seed=1)).run(seed=1)
        assert canon(child.reports) == canon(
            [e.to_dict() for e in long_run.epochs])

    def test_fork_validation(self):
        parent = completed_session(fork_scenario(n_epochs=8))
        with pytest.raises(ValueError, match="precedes"):
            parent.fork("bad", 4,
                        events=(ScenarioEvent(epoch=2,
                                              action="fail_plane",
                                              value=0),))
        with pytest.raises(ValueError, match="before the fork"):
            parent.fork("bad", 6, n_epochs=4)
        with pytest.raises(ValueError, match="computed range"):
            parent.fork("bad", 99)


class TestForkSharesPrefix:
    def test_prefix_payloads_are_the_parents_objects(self):
        parent = completed_session(fork_scenario(n_epochs=16))
        child = parent.fork("child", 6)
        assert child.reports is not parent.reports
        assert len(child.reports) == 6
        assert all(mine is theirs for mine, theirs
                   in zip(child.reports, parent.reports))
        assert child.event_counts == parent.event_counts[:6]
        assert not any(mine is theirs for mine, theirs
                       in zip(child.event_counts, parent.event_counts))

    def test_parent_record_survives_child_advance_recover_suspend(self):
        scenario = fork_scenario(n_epochs=16)
        parent = Session.create("parent", scenario, base_seed=4,
                                checkpoint_epochs=4)
        parent.advance(10)
        before = canon(parent.to_dict())
        child = parent.fork(
            "child", 6,
            events=(ScenarioEvent(epoch=7, action="fail_plane",
                                  value=0),))
        child.advance(1)
        assert child.recover() == 1  # back to the fork point
        assert child.cursor == 6
        child.advance(4)
        child.suspend_snapshot()
        resumed = Session.from_record(json_roundtrip(child.to_dict()))
        resumed.advance(scenario.n_epochs)
        assert canon(parent.to_dict()) == before
        assert canon(resumed.reports[:6]) == canon(parent.reports[:6])
        control = parent.fork(
            "control", 6,
            events=(ScenarioEvent(epoch=7, action="fail_plane",
                                  value=0),))
        control.advance(scenario.n_epochs)
        assert canon(resumed.reports) == canon(control.reports)

    def test_fork_retains_far_less_than_a_copied_prefix(self):
        """A fork near the end of a 200-epoch session holds references
        to the prefix, not a copy of it: it retains under a third of
        what one JSON copy of the prefix does."""
        parent = completed_session(fork_scenario(n_epochs=200),
                                   checkpoint_epochs=16)
        parent.fork("warm-up", 197)  # first-call caches stay out
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            copied = json_roundtrip({"reports": parent.reports[:197]})
            copy_bytes = tracemalloc.get_traced_memory()[0] - start
            del copied
            start = tracemalloc.get_traced_memory()[0]
            child = parent.fork("child", 197)
            fork_bytes = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert child.cursor == 197
        assert fork_bytes < copy_bytes / 3, (fork_bytes, copy_bytes)


class TestForkOverHTTP:
    def test_fork_lineage_and_divergence_end_to_end(self):
        scenario = fork_scenario(n_epochs=14)
        gateway = ServiceGateway(SessionPool(workers=2,
                                             slice_epochs=2))
        gateway.start()
        try:
            client = ServiceClient(gateway.url)
            parent_id = client.submit(scenario.to_config(),
                                      base_seed=9,
                                      checkpoint_epochs=4)["id"]
            parent_epochs = client.stream_epochs(parent_id)
            child = client.fork(
                parent_id, at_epoch=5,
                events=[{"epoch": 7, "action": "fail_plane",
                         "value": 1}])
            assert child["parent"] == parent_id
            assert child["forked_at"] == 5
            assert child["cursor"] == 5
            child_epochs = client.epochs(child["id"])["epochs"]
            deadline_states = ("completed", "failed")
            detail = client.wait(child["id"], states=deadline_states)
            assert detail["state"] == "completed"
            child_epochs = client.epochs(child["id"])["epochs"]
            assert canon(child_epochs[:5]) == canon(parent_epochs[:5])
            assert canon(child_epochs[7:]) != canon(parent_epochs[7:])
            # Parent record untouched by the child's divergence.
            again = client.epochs(parent_id)["epochs"]
            assert canon(again) == canon(parent_epochs)
        finally:
            gateway.stop()

    def test_fork_with_rejected_event_is_400(self):
        # The backend rejects plane 99 only when the event is applied:
        # the fork route dry-runs the child's events, so no child is
        # created and no worker retries it.
        pool = SessionPool(workers=1, slice_epochs=4)
        gateway = ServiceGateway(pool)
        gateway.start()
        try:
            client = ServiceClient(gateway.url)
            parent_id = client.submit("demo", n_epochs=8)["id"]
            assert client.wait(parent_id)["state"] == "completed"
            before = pool.list_ids()
            with pytest.raises(ServiceError) as err:
                client.fork(parent_id, at_epoch=4,
                            events=[{"epoch": 5, "action": "fail_plane",
                                     "value": 99}])
            assert err.value.status == 400
            assert "epoch 5 (fail_plane 99)" in str(err.value)
            assert pool.list_ids() == before
            assert client.metrics()["recoveries_total"] == 0
        finally:
            gateway.stop()
