"""SessionPool: fair multiplexing, crash recovery, suspend/resume."""

import threading

import pytest

from repro.checks.runtime import armed, get_sanitizer
from repro.experiments import ResultCache
from repro.scenarios import Episode, Scenario
from repro.service import SessionNotFound, SessionPool, SessionStore
from repro.service.sessions import Session


def pool_scenario(n_epochs=8, name="poolsvc"):
    return Scenario(
        name=name, n_nodes=8, n_epochs=n_epochs,
        episodes=(Episode(kind="uniform",
                          flows={"dist": "poisson", "mean": 4}),))


def wait_all_done(pool, timeout=60.0):
    deadline = threading.Event()
    for session in list(pool.sessions.values()):
        assert session.wait_for(lambda s: s.done, timeout=timeout), (
            f"{session.session_id} stuck in {session.state} at "
            f"{session.cursor}")
    deadline.set()


def reference_session(scenario, seed=0):
    session = Session.create("ref", scenario, base_seed=seed)
    session.advance(scenario.n_epochs)
    return session


class TestScheduling:
    def test_single_worker_rounds_are_exact_permutations(
            self, monkeypatch):
        """With one worker the recorded slice order IS the FIFO pop
        order: every scheduling round runs each live session exactly
        once before any session runs twice."""
        pool = SessionPool(workers=1, slice_epochs=2)
        pops = []
        advance = Session.advance

        def record(session, max_epochs):
            pops.append(session.session_id)
            return advance(session, max_epochs)

        monkeypatch.setattr(Session, "advance", record)
        scenario = pool_scenario(n_epochs=6)  # 3 slices per session
        ids = [pool.submit(scenario, base_seed=i).session_id
               for i in range(8)]
        pool.start()
        wait_all_done(pool)
        pool.shutdown()
        assert len(pops) == 8 * 3
        for round_index in range(3):
            window = pops[round_index * 8:(round_index + 1) * 8]
            assert sorted(window) == sorted(ids), (
                f"round {round_index} starved "
                f"{set(ids) - set(window)}")

    def test_32_sessions_over_4_workers_never_starve(self, monkeypatch):
        """The acceptance-criterion load: 32 sessions multiplexed on
        4 workers. FIFO requeue means no session waits more than one
        full round (plus in-flight jitter of at most workers-1
        slices) between two of its slices, and every session gets
        the same slice count."""
        workers = 4
        pool = SessionPool(workers=workers, slice_epochs=2)
        pops = []
        pop_lock = threading.Lock()
        advance = Session.advance

        def record(session, max_epochs):
            with pop_lock:
                pops.append(session.session_id)
            return advance(session, max_epochs)

        monkeypatch.setattr(Session, "advance", record)
        scenario = pool_scenario(n_epochs=8)  # 4 slices per session
        ids = [pool.submit(scenario, base_seed=i).session_id
               for i in range(32)]
        pool.start()
        wait_all_done(pool)
        pool.shutdown()
        assert len(pops) == 32 * 4
        # FIFO bounds the *queue wait* to one round; the pop-to-pop
        # gap additionally spans the session's own slice execution,
        # during which the other workers keep popping (~3/4 of a
        # round at 4 workers), plus recording jitter. Three rounds is
        # comfortably past the structural ~2-round steady state while
        # still catching any real starvation.
        for session_id in ids:
            at = [i for i, sid in enumerate(pops)
                  if sid == session_id]
            assert len(at) == 4  # exact equal share of slices
            assert at[0] < 3 * 32
            gaps = [b - a for a, b in zip(at, at[1:])]
            assert max(gaps) <= 3 * 32, (
                f"{session_id} starved for {max(gaps)} pops")
        # Everyone finished: per-session slice counters agree.
        assert {pool.get(sid).slices for sid in ids} == {4}

    def test_metrics_report_fleet_state(self):
        pool = SessionPool(workers=4, slice_epochs=2)
        scenario = pool_scenario(n_epochs=6)
        for i in range(8):
            pool.submit(scenario, base_seed=i)
        queued = pool.metrics()
        assert queued["sessions_by_state"]["queued"] == 8
        assert queued["queue_depth"] == 8
        pool.start()
        wait_all_done(pool)
        pool.shutdown()
        done = pool.metrics()
        assert done["sessions_by_state"]["completed"] == 8
        assert done["epochs_total"] == 8 * 6
        assert done["epochs_per_s"] > 0
        assert done["max_slice_spread"] == 0  # none active anymore
        assert done["queue_depth"] == 0

    def test_results_match_unpooled_run(self):
        pool = SessionPool(workers=3, slice_epochs=2)
        scenario = pool_scenario(n_epochs=7)
        ids = [pool.submit(scenario, base_seed=seed).session_id
               for seed in (0, 5, 11)]
        pool.start()
        wait_all_done(pool)
        pool.shutdown()
        for session_id, seed in zip(ids, (0, 5, 11)):
            expected = reference_session(scenario, seed=seed)
            assert pool.get(session_id).reports == expected.reports

    def test_submit_accepts_name_and_config(self):
        pool = SessionPool(workers=1)
        by_name = pool.submit("demo", n_epochs=3)
        assert by_name.scenario.name == "demo"
        assert by_name.n_epochs == 3
        config = pool_scenario().to_config()
        by_config = pool.submit(config)
        assert by_config.scenario.name == "poolsvc"
        assert by_name.session_id != by_config.session_id


class TestCrashRecovery:
    def test_worker_death_mid_slice_reruns_from_checkpoint(
            self, monkeypatch):
        """A slice that makes partial progress then dies is rolled
        back to the last checkpoint and re-run bit-identically."""
        pool = SessionPool(workers=2, slice_epochs=2)
        scenario = pool_scenario(n_epochs=8)
        crashed = threading.Event()
        advance = Session.advance

        def die_once_mid_slice(session, max_epochs):
            if session.session_id == "victim" and not crashed.is_set():
                crashed.set()
                advance(session, 1)  # partial progress...
                raise RuntimeError("worker died mid-slice")
            return advance(session, max_epochs)

        monkeypatch.setattr(Session, "advance", die_once_mid_slice)
        pool.submit(scenario, base_seed=3, checkpoint_epochs=2,
                    session_id="victim")
        pool.submit(scenario, base_seed=4, session_id="bystander")
        pool.start()
        wait_all_done(pool)
        pool.shutdown()
        assert crashed.is_set()
        victim = pool.get("victim")
        assert victim.state == "completed"
        assert victim.recoveries == 1
        expected = reference_session(scenario, seed=3)
        assert victim.reports == expected.reports
        assert pool.metrics()["recoveries_total"] == 1
        assert pool.metrics()["epochs_total"] == 2 * 8

    def test_retries_exhausted_marks_failed(self, monkeypatch):
        pool = SessionPool(workers=1, slice_epochs=2)

        def always_die(session, max_epochs):
            raise RuntimeError("unlucky host")

        monkeypatch.setattr(Session, "advance", always_die)
        session = pool.submit(pool_scenario(), session_id="doomed")
        pool.start()
        assert session.wait_for(lambda s: s.done, timeout=30.0)
        pool.shutdown()
        assert session.state == "failed"
        assert "unlucky host" in session.error
        assert pool.metrics()["sessions_by_state"]["failed"] == 1


class TestSuspendResume:
    def test_roundtrip_through_store(self, tmp_path):
        store = SessionStore(ResultCache(tmp_path))
        pool = SessionPool(workers=2, slice_epochs=2, store=store)
        scenario = pool_scenario(n_epochs=120)
        session = pool.submit(scenario, base_seed=7,
                              checkpoint_epochs=2,
                              session_id="parked")
        pool.start()
        assert session.wait_for(lambda s: s.cursor >= 2, timeout=30.0)
        suspended = pool.suspend("parked")
        assert suspended.state == "suspended"
        assert "parked" not in pool.sessions  # store owns it now
        assert store.load("parked")["state"] == "suspended"
        assert "parked" in pool.list_ids()
        resumed = pool.resume("parked")
        assert resumed.wait_for(lambda s: s.done, timeout=30.0)
        pool.shutdown()
        expected = reference_session(scenario, seed=7)
        assert resumed.reports == expected.reports

    def test_storeless_suspend_stays_in_memory(self):
        pool = SessionPool(workers=1, slice_epochs=2)
        session = pool.submit(pool_scenario(n_epochs=120),
                              session_id="mem")
        pool.start()
        assert session.wait_for(lambda s: s.cursor >= 2, timeout=30.0)
        pool.suspend("mem")
        assert pool.get("mem").state == "suspended"
        resumed = pool.resume("mem")
        assert resumed.wait_for(lambda s: s.done, timeout=60.0)
        pool.shutdown()
        expected = reference_session(pool_scenario(n_epochs=120))
        assert resumed.reports == expected.reports

    def test_resume_on_fresh_pool_is_bit_identical(self, tmp_path):
        """The acceptance-criterion core: suspend here, resume on a
        brand-new pool over the same store, remaining stream exact."""
        scenario = pool_scenario(n_epochs=120)
        first = SessionPool(workers=2, slice_epochs=2,
                            store=SessionStore(ResultCache(tmp_path)))
        session = first.submit(scenario, base_seed=9,
                               checkpoint_epochs=2,
                               session_id="migrant")
        first.start()
        assert session.wait_for(lambda s: s.cursor >= 3, timeout=30.0)
        first.suspend("migrant")
        first.shutdown()
        second = SessionPool(workers=2, slice_epochs=2,
                             store=SessionStore(ResultCache(tmp_path)))
        second.start()
        resumed = second.resume("migrant")
        assert resumed.wait_for(lambda s: s.done, timeout=30.0)
        second.shutdown()
        expected = reference_session(scenario, seed=9)
        assert resumed.state == "completed"
        assert resumed.reports == expected.reports

    def test_resume_unknown_and_unsuspended_rejected(self, tmp_path):
        pool = SessionPool(
            workers=1, store=SessionStore(ResultCache(tmp_path)))
        with pytest.raises(SessionNotFound):
            pool.resume("ghost")
        live = pool.submit(pool_scenario(), session_id="busy")
        with pytest.raises(ValueError, match="not suspended"):
            pool.resume("busy")
        assert live.state == "queued"

    def test_delete_removes_live_and_stored(self, tmp_path):
        store = SessionStore(ResultCache(tmp_path))
        pool = SessionPool(workers=1, store=store)
        pool.submit(pool_scenario(), session_id="gone")
        assert pool.delete("gone") is True
        assert pool.delete("gone") is False
        with pytest.raises(SessionNotFound):
            pool.get("gone")


class TestClaimId:
    def test_claiming_reads_no_stored_record(self, tmp_path, monkeypatch):
        """submit and fork ask the store about each candidate id alone
        (one stat), never list it: an id with a stored record is
        still skipped."""
        store = SessionStore(ResultCache(tmp_path))
        for session_id in ("s0001", "s0003", "other"):
            store.save(Session.create(session_id, pool_scenario()))
        listed = []
        list_ids = SessionStore.list_ids

        def spy(self):
            listed.append(True)
            return list_ids(self)

        monkeypatch.setattr(SessionStore, "list_ids", spy)
        pool = SessionPool(workers=1, store=store)
        first = pool.submit(pool_scenario())
        child = pool.fork(first.session_id, 0)
        second = pool.submit(pool_scenario())
        assert (first.session_id, child.session_id,
                second.session_id) == ("s0002", "s0004", "s0005")
        assert listed == []


class TestRequeueRace:
    """suspend() or delete() landing after a worker's slice and before
    the worker is back at the queue. The worker used to requeue the
    claimed id; popping it back for a session no longer live ended the
    worker thread, so a one-worker pool advanced nothing after it.

    Events force the order: a post-slice move of the victim to
    "queued" made through ``_set_state`` waits until the verb has
    raised its flag, and the worker's next pop waits until the verb
    has returned. Under ``REPRO_SANITIZE=1`` this also exercises the
    worker's pool lock -> session lock nesting."""

    @pytest.mark.parametrize("verb", ["suspend", "delete"])
    def test_claim_after_a_slice_keeps_the_worker(
            self, verb, tmp_path, monkeypatch):
        sanitizer = get_sanitizer()
        sanitizer.reset()
        pool = SessionPool(workers=1, slice_epochs=2,
                           store=SessionStore(ResultCache(tmp_path)))
        victim = pool.submit(pool_scenario(n_epochs=8),
                             session_id="victim")
        sliced = threading.Event()    # the victim's slice is over
        claiming = threading.Event()  # the verb raised its flag
        claimed = threading.Event()   # the verb returned
        slices = []
        advance = Session.advance
        set_state = Session._set_state
        wait_for = Session.wait_for
        pop_next = SessionPool._pop_next

        def advancing(session, max_epochs):
            slices.append(session.session_id)
            return advance(session, max_epochs)

        def parking(session, state, error=None):
            if session is victim and state == "queued" and slices:
                sliced.set()
                claiming.wait(timeout=10)
            set_state(session, state, error)

        def waiting(session, predicate, timeout=None):
            if session is victim:
                claiming.set()  # suspend() waits right after the flag
            return wait_for(session, predicate, timeout)

        def popping(self):
            if slices and not claimed.is_set():
                sliced.set()
                claimed.wait(timeout=10)
            return pop_next(self)

        def claim():
            getattr(pool, verb)("victim")
            claiming.set()
            claimed.set()

        monkeypatch.setattr(Session, "advance", advancing)
        monkeypatch.setattr(Session, "_set_state", parking)
        monkeypatch.setattr(Session, "wait_for", waiting)
        monkeypatch.setattr(SessionPool, "_pop_next", popping)
        pool.start()
        try:
            assert sliced.wait(timeout=30)
            claimer = threading.Thread(target=claim)
            claimer.start()
            assert claimed.wait(timeout=30)
            claimer.join(timeout=30)
            assert not claimer.is_alive()
            later = pool.submit(pool_scenario(n_epochs=4),
                                session_id="later")
            assert later.wait_for(lambda s: s.done, timeout=30), (
                f"later session stuck in {later.state}")
            assert pool._threads[0].is_alive()
        finally:
            pool.shutdown()
        assert later.state == "completed"
        assert slices.count("victim") == 1
        if verb == "suspend":
            assert pool.get("victim").state == "suspended"
            assert pool.get("victim").cursor == 2
        else:
            with pytest.raises(SessionNotFound):
                pool.get("victim")
        sanitizer.assert_clean()
        if armed():
            assert ("SessionPool._lock",
                    "Session.updated") in sanitizer.edges
