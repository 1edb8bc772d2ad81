"""Gateway e2e: the full HTTP surface against live ephemeral ports."""

import json
import os
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import ResultCache
from repro.scenarios import (
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


def wire_scenario(n_epochs=20, name="wire"):
    return Scenario(
        name=name, n_nodes=8, n_epochs=n_epochs,
        episodes=(Episode(kind="uniform",
                          flows={"dist": "poisson", "mean": 5}),))


def reference_payloads(scenario, seed=0, backend="awgr"):
    report = ScenarioRunner(
        scenario,
        make_backend(backend, scenario.n_nodes, seed=seed)).run(
            seed=seed)
    return [e.to_dict() for e in report.epochs]


@pytest.fixture
def service(tmp_path):
    store = SessionStore(ResultCache(tmp_path / "sessions"))
    pool = SessionPool(workers=2, slice_epochs=2, store=store)
    gateway = ServiceGateway(pool)
    gateway.start()
    yield ServiceClient(gateway.url), gateway
    gateway.stop()


class TestEndpoints:
    def test_healthz_and_metrics(self, service):
        client, _ = service
        assert client.healthz()["status"] == "ok"
        metrics = client.metrics()
        assert metrics["workers"] == 2
        assert set(metrics["sessions_by_state"]) == {
            "queued", "running", "suspended", "completed", "failed"}

    def test_submit_stream_and_aggregates(self, service):
        client, _ = service
        scenario = wire_scenario()
        summary = client.submit(scenario.to_config(), base_seed=5)
        session_id = summary["id"]
        assert summary["state"] == "queued"
        assert summary["n_epochs"] == 20
        epochs = client.stream_epochs(session_id)
        assert epochs == reference_payloads(scenario, seed=5)
        detail = client.session(session_id)
        assert detail["state"] == "completed"
        assert detail["cursor"] == 20
        assert detail["aggregates"]["epochs"] == 20
        assert detail["aggregates"]["scenario"] == "wire"
        rows = client.sessions()
        assert [r["id"] for r in rows] == [session_id]

    def test_submit_by_name_with_epoch_override(self, service):
        client, _ = service
        summary = client.submit("demo", n_epochs=4)
        detail = client.wait(summary["id"])
        assert detail["cursor"] == 4

    def test_incremental_epoch_poll(self, service):
        client, _ = service
        scenario = wire_scenario(n_epochs=10)
        session_id = client.submit(scenario.to_config())["id"]
        client.wait(session_id)
        full = client.epochs(session_id)
        assert [e["epoch"] for e in full["epochs"]] == list(range(10))
        tail = client.epochs(session_id, since=7)
        assert [e["epoch"] for e in tail["epochs"]] == [7, 8, 9]
        assert tail["cursor"] == 10
        assert tail["state"] == "completed"

    def test_stream_since_resumes_mid_stream(self, service):
        client, _ = service
        scenario = wire_scenario(n_epochs=12)
        session_id = client.submit(scenario.to_config())["id"]
        head = client.stream_epochs(session_id, max_epochs=5)
        tail = client.stream_epochs(session_id, since=5)
        assert [e["epoch"] for e in head + tail] == list(range(12))

    def test_sse_frames_shape(self, service):
        client, _ = service
        scenario = wire_scenario(n_epochs=3)
        session_id = client.submit(scenario.to_config())["id"]
        events = list(client.stream(session_id))
        kinds = [e[0] for e in events]
        assert kinds == ["epoch", "epoch", "epoch", "end"]
        assert [e[1] for e in events[:3]] == [0, 1, 2]
        assert events[-1][2]["state"] == "completed"

    def test_delete(self, service):
        client, _ = service
        session_id = client.submit(wire_scenario(4).to_config())["id"]
        client.wait(session_id)
        assert client.delete(session_id)["deleted"] == session_id
        with pytest.raises(ServiceError) as err:
            client.session(session_id)
        assert err.value.status == 404


class TestConcurrentSessions:
    @pytest.mark.parametrize("n_sessions", [1, 8, 32])
    def test_every_session_streams_its_full_horizon(self, n_sessions):
        """``n_sessions`` clients at once on a 4-worker gateway: every
        session completes, and each stream equals a direct
        ScenarioRunner run of its seed."""
        scenario = wire_scenario(n_epochs=12)
        gateway = ServiceGateway(SessionPool(workers=4, slice_epochs=4))
        gateway.start()

        def drive(seed):
            client = ServiceClient(gateway.url, timeout=120.0)
            session_id = client.submit(scenario.to_config(),
                                       base_seed=seed)["id"]
            epochs = client.stream_epochs(session_id)
            return epochs, client.session(session_id)["state"]

        seeds = range(17, 17 + n_sessions)
        try:
            with ThreadPoolExecutor(max_workers=n_sessions) as clients:
                streams = list(clients.map(drive, seeds, timeout=300.0))
        finally:
            gateway.stop()
        for seed, (epochs, state) in zip(seeds, streams):
            assert state == "completed"
            assert epochs == reference_payloads(scenario, seed=seed)


def inline(**changes):
    """An inline ``wire_scenario`` config with fields replaced."""
    return {**wire_scenario(3).to_config(), **changes}


#: Submit bodies no session can be built from: a backend that cannot
#: be built with the seed or params, an event it rejects, a bad
#: checkpoint cadence or horizon, and scenario configs that build no
#: scenario.
REJECTED_SUBMITS = {
    "negative-seed": {"scenario": "demo", "base_seed": -1},
    "zero-planes": {"scenario": "demo", "backend_params": {"planes": 0}},
    "string-planes": {"scenario": "demo",
                      "backend_params": {"planes": "x"}},
    "zero-switches": {"scenario": "demo", "backend": "wss",
                      "backend_params": {"n_switches": 0}},
    "event-fails-plane-99": {"scenario": inline(events=[
        {"epoch": 1, "action": "fail_plane", "value": 99}])},
    "zero-checkpoint-epochs": {"scenario": "demo",
                               "checkpoint_epochs": 0},
    "zero-epochs": {"scenario": "demo", "n_epochs": 0},
    "negative-epochs": {"scenario": "demo", "n_epochs": -5},
    "one-node": {"scenario": inline(n_nodes=1)},
    "unknown-episode-kind": {"scenario": inline(
        episodes=[{"kind": "chaos"}])},
    "unknown-episode-field": {"scenario": inline(
        episodes=[{"kind": "uniform", "burstiness": 2}])},
}


class TestErrors:
    @pytest.mark.parametrize("body", REJECTED_SUBMITS.values(),
                             ids=REJECTED_SUBMITS.keys())
    def test_unbuildable_submit_400_creates_no_session(self, service,
                                                       body):
        client, gateway = service
        before = gateway.pool.list_ids()
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/sessions", body)
        assert err.value.status == 400
        assert gateway.pool.list_ids() == before
        assert client.metrics()["recoveries_total"] == 0

    def test_unknown_session_404(self, service):
        client, _ = service
        for call in (lambda: client.session("nope"),
                     lambda: client.suspend("nope"),
                     lambda: client.resume("nope"),
                     lambda: client.delete("nope"),
                     lambda: client.fork("nope", at_epoch=0)):
            with pytest.raises(ServiceError) as err:
                call()
            assert err.value.status == 404

    def test_bad_submit_400(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/sessions", {"no_scenario": 1})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/sessions",
                            {"scenario": "demo", "typo_field": 1})
        assert err.value.status == 400
        assert "typo_field" in str(err.value)

    def test_unknown_backend_400(self, service):
        """Unknown backend names bounce at the boundary with the
        registry's name list, instead of failing the session in a
        worker."""
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.submit("demo", backend="quantum")
        assert err.value.status == 400
        assert "quantum" in str(err.value)
        assert "awgr" in str(err.value)

    def test_unknown_backend_param_400_creates_no_session(self,
                                                         service):
        """A constructor keyword the backend lacks bounces at submit
        instead of raising TypeError in a worker; a real one is
        still accepted."""
        client, gateway = service
        with pytest.raises(ServiceError) as err:
            client.submit(wire_scenario(3).to_config(),
                          backend_params={"batch_admission": False})
        assert err.value.status == 400
        assert "batch_admission" in str(err.value)
        assert client.sessions() == []
        request = urllib.request.Request(
            gateway.url + "/sessions", method="POST",
            data=json.dumps({"scenario": wire_scenario(3).to_config(),
                             "backend_params": {"planes": 3}}).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 201
            session_id = json.loads(response.read())["id"]
        client.wait(session_id)
        assert [s["id"] for s in client.sessions()] == [session_id]

    def test_registry_backend_session(self, service):
        """A registry-only contender (no hand-written service shim)
        runs to completion over the wire."""
        client, _ = service
        scenario = wire_scenario(6, name="mesh-wire")
        summary = client.submit(scenario.to_config(),
                                backend="full_mesh", base_seed=3)
        epochs = client.stream_epochs(summary["id"])
        assert epochs == reference_payloads(scenario, seed=3,
                                            backend="full_mesh")

    def test_unknown_scenario_name_400(self, service):
        """A bad registered-scenario name is a client error with the
        lookup's message, not a dropped connection."""
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.submit("no_such_scenario")
        assert err.value.status == 400
        assert "no_such_scenario" in str(err.value)

    def test_unknown_route_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/frobnicate")
        assert err.value.status == 404

    def test_suspend_completed_409(self, service):
        client, _ = service
        session_id = client.submit(wire_scenario(3).to_config())["id"]
        client.wait(session_id)
        with pytest.raises(ServiceError) as err:
            client.suspend(session_id)
        assert err.value.status == 409


class TestSuspendResumeOverHTTP:
    def test_fresh_pool_resume_stream_is_byte_identical(self,
                                                        tmp_path):
        """The acceptance criterion: suspend over HTTP, stand up a
        brand-new pool+gateway on the same store, resume over HTTP,
        and the full epoch stream is byte-identical to an
        uninterrupted monolithic run."""
        scenario = wire_scenario(n_epochs=120, name="migratory")
        store_dir = tmp_path / "sessions"

        first = ServiceGateway(SessionPool(
            workers=2, slice_epochs=2,
            store=SessionStore(ResultCache(store_dir))))
        first.start()
        client = ServiceClient(first.url)
        session_id = client.submit(scenario.to_config(), base_seed=11,
                                   checkpoint_epochs=4)["id"]
        # Let it make real progress, then park it mid-run.
        head = client.stream_epochs(session_id, max_epochs=6)
        suspended = client.suspend(session_id)
        assert suspended["state"] == "suspended"
        cursor = suspended["cursor"]
        assert 0 < cursor < 120
        first.stop()

        second = ServiceGateway(SessionPool(
            workers=2, slice_epochs=2,
            store=SessionStore(ResultCache(store_dir))))
        second.start()
        client2 = ServiceClient(second.url)
        listed = client2.sessions()
        assert [s["id"] for s in listed] == [session_id]
        assert listed[0]["state"] == "suspended"
        resumed = client2.resume(session_id)
        assert resumed["cursor"] == cursor
        remaining = client2.stream_epochs(session_id, since=cursor)
        everything = client2.epochs(session_id)["epochs"]
        second.stop()

        expected = reference_payloads(scenario, seed=11)
        canon = lambda payload: json.dumps(payload, sort_keys=True)
        assert canon(everything) == canon(expected)
        assert canon(remaining) == canon(expected[cursor:])
        assert canon(head) == canon(expected[:6])


@pytest.mark.slow
class TestFreshProcessResume:
    def test_resume_in_a_separate_os_process(self, tmp_path):
        """Same as above but across real OS processes: a `repro
        serve` subprocess hosts the suspend, a second one hosts the
        resume, sharing only the store directory."""
        store = tmp_path / "sessions"
        scenario = wire_scenario(n_epochs=120, name="migratory")

        def spawn():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port",
                 "0", "--workers", "2", "--slice-epochs", "2",
                 "--store-dir", str(store)],
                stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": "src"})
            banner = proc.stdout.readline()
            url = [w for w in banner.split()
                   if w.startswith("http://")][0]
            return proc, ServiceClient(url)

        proc1, client1 = spawn()
        try:
            session_id = client1.submit(scenario.to_config(),
                                        base_seed=13,
                                        checkpoint_epochs=4)["id"]
            client1.stream_epochs(session_id, max_epochs=5)
            cursor = client1.suspend(session_id)["cursor"]
            client1.shutdown()
            assert proc1.wait(timeout=30) == 0
        finally:
            if proc1.poll() is None:
                proc1.kill()

        proc2, client2 = spawn()
        try:
            client2.resume(session_id)
            everything = client2.epochs(session_id)["epochs"]
            deadline = time.monotonic() + 60
            while (len(everything) < 120
                   and time.monotonic() < deadline):
                time.sleep(0.1)
                everything = client2.epochs(session_id)["epochs"]
            client2.shutdown()
            assert proc2.wait(timeout=30) == 0
        finally:
            if proc2.poll() is None:
                proc2.kill()

        expected = reference_payloads(scenario, seed=13)
        assert (json.dumps(everything, sort_keys=True)
                == json.dumps(expected, sort_keys=True))
        assert cursor < 120


class TestShutdownEndpoint:
    def test_shutdown_stops_the_listener(self, tmp_path):
        pool = SessionPool(workers=1)
        gateway = ServiceGateway(pool)
        gateway.start()
        client = ServiceClient(gateway.url)
        assert client.shutdown()["status"] == "shutting down"
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                urllib.request.urlopen(gateway.url + "/healthz",
                                       timeout=1).read()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("listener still answering after /shutdown")
        gateway.stop()  # idempotent cleanup
