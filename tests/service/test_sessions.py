"""Session lifecycle: advance, checkpoint, recover, serialize."""

import json

import pytest

from repro.experiments import ResultCache
from repro.scenarios import (
    Episode,
    Scenario,
    ScenarioEvent,
    ScenarioRunner,
    make_backend,
)
from repro.scenarios.runner import CHECKPOINT_FORMAT
from repro.service.sessions import Session, SessionStore


def service_scenario(n_epochs=12, events=(), name="svc"):
    return Scenario(
        name=name, n_nodes=8, n_epochs=n_epochs,
        episodes=(Episode(kind="uniform",
                          flows={"dist": "poisson", "mean": 6}),),
        events=tuple(events))


def reference_payloads(scenario, seed=0, backend="awgr"):
    report = ScenarioRunner(
        scenario,
        make_backend(backend, scenario.n_nodes, seed=seed)).run(
            seed=seed)
    return [e.to_dict() for e in report.epochs]


class TestAdvance:
    def test_slices_match_monolithic(self):
        scenario = service_scenario()
        session = Session.create("s1", scenario, base_seed=4,
                                 checkpoint_epochs=4)
        while session.remaining:
            session.advance(3)
        assert session.state == "completed"
        assert session.reports == reference_payloads(scenario, seed=4)

    def test_reports_are_json_pure(self):
        session = Session.create("s1", service_scenario(n_epochs=3))
        session.advance(3)
        assert json.loads(json.dumps(session.reports)) == (
            session.reports)

    def test_checkpoint_cadence(self):
        session = Session.create("s1", service_scenario(n_epochs=10),
                                 checkpoint_epochs=4)
        session.advance(10)
        # Every 4th epoch and the horizon; a fresh backend is epoch 0.
        assert sorted(session.checkpoints) == [4, 8, 10]

    def test_events_counted_per_epoch(self):
        events = [ScenarioEvent(epoch=1, action="fail_plane", value=0),
                  ScenarioEvent(epoch=2, action="repair_plane",
                                value=0)]
        session = Session.create(
            "s1", service_scenario(n_epochs=4, events=events))
        session.advance(4)
        assert session.events_applied == 2
        assert [c[0] for c in session.event_counts] == [0, 1, 1, 0]

    def test_horizon_completes_and_detaches(self):
        session = Session.create("s1", service_scenario(n_epochs=2))
        session.advance(5)
        assert session.state == "completed"
        assert session._backend is None


class TestRecover:
    def test_rolls_back_to_checkpoint_and_replays_exactly(self):
        scenario = service_scenario(n_epochs=12)
        session = Session.create("s1", scenario, base_seed=1,
                                 checkpoint_epochs=4)
        session.advance(7)  # cursor 7, checkpoints {4}
        reference = [dict(r) for r in session.reports]
        dropped = session.recover()
        assert dropped == 3
        assert session.cursor == 4
        assert len(session.reports) == 4
        session.advance(12)
        assert session.reports[:7] == reference
        assert session.reports == reference_payloads(scenario, seed=1)

    def test_event_totals_rolled_back(self):
        events = [ScenarioEvent(epoch=5, action="fail_plane", value=0)]
        session = Session.create(
            "s1", service_scenario(n_epochs=8, events=events),
            checkpoint_epochs=4)
        session.advance(6)
        assert session.events_applied == 1
        session.recover()
        assert session.events_applied == 0
        session.advance(8)
        assert session.events_applied == 1


class TestSerialization:
    def test_record_roundtrip_through_json(self):
        scenario = service_scenario(
            events=[ScenarioEvent(epoch=1, action="fail_plane",
                                  value=0)])
        session = Session.create("s1", scenario, base_seed=2,
                                 checkpoint_epochs=4)
        session.advance(5)
        record = json.loads(json.dumps(session.to_dict()))
        clone = Session.from_record(record)
        assert clone.cursor == session.cursor
        assert clone.reports == session.reports
        assert clone.checkpoints == session.checkpoints
        assert clone.scenario == session.scenario

    def test_resumed_clone_finishes_identically(self):
        scenario = service_scenario(n_epochs=10)
        session = Session.create("s1", scenario, base_seed=6,
                                 checkpoint_epochs=2)
        session.advance(4)
        session.suspend_snapshot()
        clone = Session.from_record(
            json.loads(json.dumps(session.to_dict())))
        clone.state = "queued"
        clone.advance(10)
        assert clone.reports == reference_payloads(scenario, seed=6)

    def test_format_mismatch_rejected(self):
        session = Session.create("s1", service_scenario())
        record = session.to_dict()
        record["format"] = CHECKPOINT_FORMAT + 1
        with pytest.raises(ValueError, match="format"):
            Session.from_record(record)

    def test_suspend_mid_slice_snapshots_cursor(self):
        session = Session.create("s1", service_scenario(),
                                 checkpoint_epochs=100)
        session.advance(3)
        session.suspend_snapshot()
        assert session.state == "suspended"
        assert 3 in session.checkpoints
        assert session._backend is None

    def test_suspend_before_any_epoch_needs_no_snapshot(self):
        # A fresh backend is the epoch-0 state: a session suspended
        # before it ran stores no snapshot and still resumes exactly.
        scenario = service_scenario(n_epochs=6)
        session = Session.create("s1", scenario, base_seed=2)
        session.suspend_snapshot()
        record = json.loads(json.dumps(session.to_dict()))
        assert record["checkpoints"] == {}
        clone = Session.from_record(record)
        clone.state = "queued"
        clone.advance(6)
        assert clone.reports == reference_payloads(scenario, seed=2)

    def test_suspend_completed_rejected(self):
        session = Session.create("s1", service_scenario(n_epochs=1))
        session.advance(1)
        with pytest.raises(ValueError, match="completed"):
            session.suspend_snapshot()


class TestSnapshotAt:
    """The fork point's snapshot: the only checkpoint a fork child
    starts with."""

    def test_between_checkpoints_rebuilds_exactly(self):
        scenario = service_scenario(n_epochs=12)
        session = Session.create("s1", scenario, base_seed=3,
                                 checkpoint_epochs=4)
        session.advance(12)
        # Epoch 6 was never checkpointed; the child's checkpoint is
        # rebuilt from epoch 4 and must equal a direct run paused at 6.
        child = session.fork("c1", 6)
        backend = make_backend("awgr", scenario.n_nodes, seed=3)
        ScenarioRunner(scenario, backend).step_epochs(0, 6, seed=3)
        assert child.checkpoints == {6: backend.snapshot()}

    def test_beyond_cursor_rejected(self):
        session = Session.create("s1", service_scenario())
        session.advance(2)
        with pytest.raises(ValueError, match="computed range"):
            session.fork("c1", 5)


class TestSessionStore:
    def test_save_load_delete_list(self, tmp_path):
        store = SessionStore(ResultCache(tmp_path))
        session = Session.create("alpha", service_scenario())
        session.advance(2)
        session.suspend_snapshot()
        store.save(session)
        assert store.list_ids() == ["alpha"]
        record = store.load("alpha")
        assert record["cursor"] == 2
        assert Session.from_record(record).reports == session.reports
        assert store.delete("alpha") is True
        assert store.delete("alpha") is False
        assert store.load("alpha") is None
        assert store.list_ids() == []

    def test_save_overwrites(self, tmp_path):
        store = SessionStore(ResultCache(tmp_path))
        session = Session.create("alpha", service_scenario())
        session.advance(1)
        session.suspend_snapshot()
        store.save(session)
        session.state = "queued"
        session.advance(2)
        session.suspend_snapshot()
        store.save(session)
        assert store.load("alpha")["cursor"] == 3
        assert store.list_ids() == ["alpha"]
