"""Fault injection on the session checkpoint path: a snapshot that
fails mid-slice, a store write cut off before its rename, a truncated
session record and an unwritable store."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import ResultCache
from repro.scenarios import (
    AWGRBackend,
    Episode,
    Scenario,
    ScenarioRunner,
    make_backend,
)
from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceGateway,
    SessionPool,
    SessionStore,
)
from repro.service.sessions import Session, SessionKey

SRC = Path(__file__).resolve().parents[2] / "src"


def fault_scenario(n_epochs=12, name="faults"):
    return Scenario(
        name=name, n_nodes=8, n_epochs=n_epochs,
        episodes=(Episode(kind="uniform",
                          flows={"dist": "poisson", "mean": 5}),))


def reference_payloads(scenario, seed):
    report = ScenarioRunner(
        scenario, make_backend("awgr", scenario.n_nodes, seed=seed)
    ).run(seed=seed)
    return [e.to_dict() for e in report.epochs]


def status_of(call) -> int:
    """The HTTP status a client call was answered with."""
    try:
        call()
    except ServiceError as exc:
        return exc.status
    return 200


@pytest.fixture
def served(tmp_path):
    root = tmp_path / "sessions"
    pool = SessionPool(workers=1, slice_epochs=2,
                       store=SessionStore(ResultCache(root)))
    gateway = ServiceGateway(pool)
    gateway.start()
    yield ServiceClient(gateway.url), pool, root
    gateway.stop()


def test_snapshot_failure_in_a_slice_costs_one_recovery(monkeypatch):
    # The checkpoint at epoch 2 falls inside the first 4-epoch slice.
    scenario = fault_scenario()
    snapshot = AWGRBackend.snapshot
    failed = []

    def flaky(backend):
        if not failed:
            failed.append(backend)
            raise RuntimeError("snapshot lost")
        return snapshot(backend)

    monkeypatch.setattr(AWGRBackend, "snapshot", flaky)
    pool = SessionPool(workers=1, slice_epochs=4)
    session = pool.submit(scenario, base_seed=4, checkpoint_epochs=2)
    pool.start()
    try:
        assert session.wait_for(lambda s: s.done, timeout=30)
    finally:
        pool.shutdown()
    assert failed
    assert session.state == "completed"
    assert session.recoveries == 1
    assert pool.metrics()["recoveries_total"] == 1
    assert session.reports == reference_payloads(scenario, seed=4)


def test_crash_before_the_rename_keeps_the_previous_record(tmp_path):
    store = SessionStore(ResultCache(tmp_path))
    session = Session.create("alpha", fault_scenario(), base_seed=1)
    session.advance(2)
    session.suspend_snapshot()
    store.save(session)
    before = store.load("alpha")
    # A second save of the advanced session dies after writing its
    # temp file and before renaming it over the record.
    crash = textwrap.dedent(f"""
        import os
        from repro.experiments import ResultCache
        from repro.service.sessions import Session, SessionStore
        store = SessionStore(ResultCache({str(tmp_path)!r}))
        session = Session.from_record(store.load("alpha"))
        session.state = "queued"
        session.advance(3)
        session.suspend_snapshot()
        os.replace = lambda *args: os._exit(3)
        store.save(session)
    """)
    result = subprocess.run(
        [sys.executable, "-c", crash], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 3, result.stderr
    assert len(list(tmp_path.glob("*.tmp"))) == 1
    assert store.load("alpha") == before
    assert store.list_ids() == ["alpha"]


def test_truncated_record_is_unknown_not_an_error(served):
    client, pool, _ = served
    scenario = fault_scenario(n_epochs=400)
    session_id = client.submit(scenario.to_config())["id"]
    assert pool.get(session_id).wait_for(lambda s: s.cursor >= 2,
                                         timeout=30)
    client.suspend(session_id)
    path = pool.store.cache.path_for(SessionKey(session_id))
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    statuses = [status_of(lambda: client.resume(session_id)),
                status_of(lambda: client.session(session_id)),
                status_of(client.sessions), status_of(client.metrics)]
    assert statuses == [404, 404, 200, 200]
    assert session_id not in [s["id"] for s in client.sessions()]


def test_unwritable_store_at_suspend(served):
    client, pool, root = served
    scenario = fault_scenario(n_epochs=400)
    session_id = client.submit(scenario.to_config(), base_seed=3)["id"]
    session = pool.get(session_id)
    assert session.wait_for(lambda s: s.cursor >= 2, timeout=30)
    # The tests run as root, so a chmod would not stop the writes: a
    # file where the store directory was does.
    shutil.rmtree(root)
    root.write_text("not a directory")
    with pytest.raises(ServiceError) as err:
        client.suspend(session_id)
    assert err.value.status == 500
    assert "NotADirectoryError" in str(err.value)
    assert pool.sessions[session_id] is session
    assert client.session(session_id)["state"] == "suspended"
    client.resume(session_id)
    assert client.wait(session_id)["state"] == "completed"
    assert (client.epochs(session_id)["epochs"]
            == reference_payloads(scenario, seed=3))
