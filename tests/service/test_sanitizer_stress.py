"""Sanitizer-armed pool stress: 32 sessions over 4 workers with
suspend/resume/fork churn, under ``REPRO_SANITIZE=1``.

The runtime sanitizer (:mod:`repro.checks.runtime`) records every
lock-order edge and guarded-attribute access the service layer makes;
a single inversion or unguarded access anywhere in the run fails the
final ``assert_clean()``. CI runs this file as its own step with the
environment armed from the start; run locally it arms itself via
monkeypatch before any pool (and therefore any lock) is built.
"""

import pytest

from repro.checks.runtime import get_sanitizer
from repro.experiments import ResultCache
from repro.scenarios import Episode, Scenario
from repro.service import SessionPool, SessionStore
from repro.service.sessions import Session


@pytest.fixture
def armed_sanitizer(monkeypatch):
    # Must arm before the pool exists: new_condition() reads the
    # environment when the lock is created.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitizer = get_sanitizer()
    sanitizer.reset()
    yield sanitizer
    sanitizer.reset()


def stress_scenario(seed_name, n_epochs=12):
    return Scenario(
        name=f"sanstress-{seed_name}", n_nodes=8, n_epochs=n_epochs,
        episodes=(Episode(kind="uniform",
                          flows={"dist": "poisson", "mean": 4}),))


def wait_done(session, timeout=120.0):
    assert session.wait_for(lambda s: s.done, timeout=timeout), (
        f"{session.session_id} stuck in {session.state} at "
        f"{session.cursor}")


class TestSanitizedPool:
    def test_32_sessions_4_workers_zero_violations(
            self, armed_sanitizer, tmp_path):
        pool = SessionPool(workers=4, slice_epochs=2,
                           store=SessionStore(ResultCache(tmp_path)))
        sessions = [pool.submit(stress_scenario(i), base_seed=i,
                                checkpoint_epochs=4)
                    for i in range(32)]
        pool.start()
        try:
            # Churn while the fleet runs: park/revive the low third,
            # branch a few mid-flight, drop one outright.
            for session in sessions[:10]:
                try:
                    pool.suspend(session.session_id, timeout=30.0)
                    pool.resume(session.session_id)
                except ValueError:
                    pass  # finished before the suspend landed
            for session in sessions[10:14]:
                try:
                    pool.fork(session.session_id, at_epoch=0)
                except ValueError:
                    pass
            pool.delete(sessions[14].session_id)
            for session_id in pool.list_ids():
                try:
                    session = pool.get(session_id)
                except KeyError:
                    continue
                if session.state == "suspended":
                    continue
                wait_done(session)
        finally:
            pool.shutdown()
        # The acceptance criterion: a full churned run records not a
        # single lock-discipline violation.
        armed_sanitizer.assert_clean()
        # And the run actually exercised the discipline: both service
        # locks appeared, in the one sanctioned order.
        assert ("SessionPool._lock",
                "Session.updated") in armed_sanitizer.edges

    def test_fault_injected_recovery_stays_clean(
            self, armed_sanitizer, monkeypatch):
        pool = SessionPool(workers=2, slice_epochs=2)
        hits = []
        advance = Session.advance

        def crash_once(session, max_epochs):
            if session.session_id.endswith("1") and not hits:
                hits.append(session.session_id)
                raise RuntimeError("injected worker crash")
            return advance(session, max_epochs)

        monkeypatch.setattr(Session, "advance", crash_once)
        sessions = [pool.submit(stress_scenario(f"crash{i}"),
                                base_seed=i, checkpoint_epochs=2)
                    for i in range(4)]
        pool.start()
        try:
            for session in sessions:
                wait_done(session)
        finally:
            pool.shutdown()
        assert hits, "fault hook never fired"
        armed_sanitizer.assert_clean()
