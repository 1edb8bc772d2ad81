"""ResultCache: unbounded store, version guard, clear races."""

import json
from pathlib import Path

from repro.experiments.cache import ResultCache
from repro.experiments.spec import ExperimentSpec


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
