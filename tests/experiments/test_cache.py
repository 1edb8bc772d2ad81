"""ResultCache: unbounded store, version guard, clear races, and the
content hash that names every entry."""

import json
from pathlib import Path

from repro.experiments import get_experiment
from repro.experiments.cache import ResultCache
from repro.experiments.spec import ExperimentSpec
from repro.scenarios import ShardedScenarioRunner, get_scenario
from repro.service.sessions import SessionKey


def factory(config, seed):
    return {"value": config["x"]}


def metrics(result):
    return result


def tasks(n):
    spec = ExperimentSpec(name="cache_test", factory=factory,
                          metrics=metrics,
                          grid={"x": tuple(range(n))})
    return spec.tasks()


class TestUnbounded:
    def test_store_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for task in tasks(10):
            cache.store(task, {"value": 1})
        assert len(cache) == 10


class TestVersionGuard:
    """Regression: ``load`` trusted the truncated path hash to keep
    spec versions apart and never checked the stored ``version``
    field the docstring promised."""

    def test_tampered_version_field_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = tasks(1)[0]
        path = cache.store(task, {"value": 9})
        entry = json.loads(path.read_text())
        assert entry["version"] == task.version
        entry["version"] = task.version + 1  # hash-collision stand-in
        path.write_text(json.dumps(entry))
        assert cache.load(task) is None

    def test_missing_version_field_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = tasks(1)[0]
        path = cache.store(task, {"value": 9})
        entry = json.loads(path.read_text())
        del entry["version"]
        path.write_text(json.dumps(entry))
        assert cache.load(task) is None

    def test_matching_version_still_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = tasks(1)[0]
        cache.store(task, {"value": 9})
        assert cache.load(task) == {"value": 9}


class TestClearRace:
    def test_clear_tolerates_concurrently_removed_files(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        for i, task in enumerate(tasks(3)):
            cache.store(task, {"value": i})
        real_unlink = Path.unlink
        lost = []

        def racing_unlink(self, missing_ok=False):
            # Another process (a concurrent clear) beat us to the
            # first entry.
            if not lost:
                lost.append(self)
                real_unlink(self)
                raise FileNotFoundError(str(self))
            return real_unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        assert cache.clear() == 2  # the two we actually removed
        assert len(cache) == 0


class TestPinnedKeyHashes:
    """Sweep tasks, replay chunks and service sessions share one
    content hash. These digests name files already on disk (sweep
    results, chunk checkpoints, suspended sessions), so a change to
    the hash would orphan every one of them."""

    def test_session_key(self):
        assert SessionKey("s0001").config_hash == (
            "b400f27cabae6e827e4b04cc0a74d920"
            "3aababd5bcc14b473ca125cdac6fffba")

    def test_chunk_key(self):
        runner = ShardedScenarioRunner(get_scenario("week_cori"), "awgr")
        assert runner.chunk_key(0, 1440).config_hash == (
            "0adaf71c9240e12b517170e85ea829d4"
            "af5cff12c1d067f26cb8e47e6c53a6fd")

    def test_sweep_task(self):
        task = get_experiment("fig8_latency_sensitivity").tasks()[0]
        assert task.config_hash == (
            "51db931ba85a6fb6e4fa5591bcaa7dc0"
            "1e88fcd0b901e654a24d745e4638a175")
