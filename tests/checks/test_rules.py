"""Per-rule fixture tests: each rule fires on its bad-example file
and stays quiet on its good-example file."""

from pathlib import Path

import pytest

from repro.checks.engine import check_file, check_source
from repro.checks.rules import PROJECT_RULES, RULES

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = [
    ("SIM001", "sim001"),
    ("SIM002", "sim002"),
    ("SIM003", "sim003"),
    ("SIM004", "sim004"),
    ("SIM005", "sim005"),
    ("SIM006", "sim006"),
    ("PY001", "py001"),
]


def check_fixture(stem: str, rule: str):
    report = check_file(FIXTURES / f"{stem}.py", rules=[rule])
    assert not report.errors, report.errors
    return report.findings


@pytest.mark.parametrize("rule,stem", RULE_FIXTURES)
class TestFixturePairs:
    def test_bad_example_triggers(self, rule, stem):
        findings = check_fixture(f"{stem}_bad", rule)
        assert findings, f"{rule} stayed quiet on {stem}_bad.py"
        assert all(f.rule == rule for f in findings)

    def test_good_example_passes(self, rule, stem):
        assert check_fixture(f"{stem}_good", rule) == []


def test_every_registered_rule_has_a_fixture_pair():
    assert (sorted({**RULES, **PROJECT_RULES})
            == sorted(r for r, _ in RULE_FIXTURES))


class TestSIM001Details:
    def test_flags_each_uncovered_attr_and_drifted_key(self):
        keys = {f.key for f in check_fixture("sim001_bad", "SIM001")}
        assert keys == {
            "MissingAttr._inflight",
            "MissingCounter._now",  # mutated by step(), init is just 0
            "KeyDrift.key:missing",  # read by restore, never written
            "KeyDrift.key:orphan",  # written by snapshot, never read
        }

    def test_markers_exempt_config_and_derived(self):
        # sim001_good relies on `# repro-check: config` / `derived`
        # for _table and _cache; stripping the markers must re-flag.
        source = (FIXTURES / "sim001_good.py").read_text()
        stripped = source.replace("  # repro-check: config", "")
        stripped = stripped.replace("  # repro-check: derived", "")
        findings = check_source(stripped, "sim001_good.py",
                                rules=["SIM001"])
        assert {f.key for f in findings.findings} == {
            "Complete._table", "Complete._cache"}


class TestSIM002Details:
    def test_flags_every_entropy_class(self):
        messages = [f.message
                    for f in check_fixture("sim002_bad", "SIM002")]
        for needle in ("np.random.rand", "np.random.seed",
                       "default_rng", "random.shuffle", "time.time",
                       "datetime.now"):
            assert any(needle in m for m in messages), needle


class TestSIM003Details:
    def test_flags_surface_and_pair_violations(self):
        keys = {f.key for f in check_fixture("sim003_bad", "SIM003")}
        assert keys == {
            "HalfBackend.name",
            "HalfBackend.restore:missing",
            "HalfBackend.step:signature",
            "HalfBackend.pair",
            "LonelySnapshot.pair",
        }

    def test_protocol_definitions_exempt(self):
        # sim003_good defines a partial Protocol — zero findings means
        # the Protocol exemption held.
        assert check_fixture("sim003_good", "SIM003") == []


class TestSIM004Details:
    def test_flags_each_unstable_construct(self):
        messages = [f.message
                    for f in check_fixture("sim004_bad", "SIM004")]
        assert len(messages) == 9
        for needle in ("set()", "tuple value", "ndarray",
                       "numpy scalar", "non-string dict key",
                       "int() dict key"):
            assert any(needle in m for m in messages), needle

    def test_flags_every_bare_ndarray_field(self):
        # BareArrayBatch annotates src / gbps (class body) and codes
        # (annotated self-assignment) as ndarrays and returns all
        # three bare from to_dict() — each must be named.
        messages = [f.message
                    for f in check_fixture("sim004_bad", "SIM004")]
        for attr in ("self.src", "self.gbps", "self.codes"):
            assert any(f"{attr} serialized bare" in m
                       for m in messages), attr

    def test_tolist_serialization_is_stable(self):
        # sim004_good's ArrayBatch serializes the same ndarray fields
        # via .tolist(); the pair test already asserts zero findings,
        # this documents that the batch idiom is the reason.
        source = (FIXTURES / "sim004_good.py").read_text()
        assert ".tolist()" in source


class TestPY001Details:
    def test_names_every_offending_parameter(self):
        keys = {f.key for f in check_fixture("py001_bad", "PY001")}
        assert keys == {"accumulate.acc", "merge.base", "merge.tags",
                        "build.rows"}


class TestSIM005Details:
    def test_flags_each_discipline_breach(self):
        keys = {f.key for f in check_fixture("sim005_bad", "SIM005")}
        assert keys == {
            "LeakyQueue.clear.depth:write",
            "LeakyQueue._drain_loop.depth:read",
            "LeakyQueue.wait_once:wait:self._leaky_lock",
            "LeakyQueue.poke:notify:self._leaky_lock",
            "lock-order-cycle:"
            "PingSide._ping_lock->PongSide._pong_lock",
        }

    def test_caller_held_inference_covers_private_helpers(self):
        # sim005_good's _reset() writes the guarded attr with no lock
        # in sight; it stays clean only because every call site holds
        # the lock. Adding an unguarded call site must re-flag it.
        source = (FIXTURES / "sim005_good.py").read_text()
        patched = source.replace(
            "    def _drain_loop(self):",
            "    def sneak(self):\n"
            "        self._reset()\n\n"
            "    def _drain_loop(self):")
        findings = check_source(patched, "sim005_good.py",
                                rules=["SIM005"]).findings
        assert any(f.key == "TidyQueue._reset.depth:write"
                   for f in findings)

    def test_cross_object_write_requires_owning_lock(self):
        source = """
import threading

class Owner:
    def __init__(self):
        self._owner_lock = threading.Lock()
        self.jobs_live = 0

    def bump(self):
        with self._owner_lock:
            self.jobs_live += 1

class Driver:
    def poke(self, owner):
        owner.jobs_live = 0

    def poke_locked(self, owner):
        with owner._owner_lock:
            owner.jobs_live = 0
"""
        keys = {f.key for f in
                check_source(source, "mod.py",
                             rules=["SIM005"]).findings}
        assert keys == {"Driver.poke.owner.jobs_live:xwrite"}


class TestSIM006Details:
    def test_missing_oracle_keys(self):
        keys = {f.key for f in check_fixture("sim006_bad", "SIM006")}
        assert keys == {"BatchOnlyFabric.offer_batch:oracle",
                        "BulkOnlyRouter.route_tokens:oracle"}

    SRC = '''
class Fabric:
    def offer(self, flow):
        return flow

    def offer_batch(self, flows):
        return [self.offer(f) for f in flows]
'''
    TWIN_TEST = '''
from fabric import Fabric

def test_offer_batch_matches_offer():
    fabric = Fabric()
    assert fabric.offer_batch([1]) == [fabric.offer(1)]
'''
    OTHER_TEST = '''
from fabric import Fabric

def test_scalar_only():
    assert Fabric().offer(1) == 1
'''

    def test_twin_test_evidence_satisfies(self):
        report = check_source(
            self.SRC, "src/fabric.py",
            rules=["SIM006"],
            index_sources={"tests/test_fabric.py": self.TWIN_TEST})
        assert report.findings == []

    def test_missing_twin_test_flagged(self):
        report = check_source(
            self.SRC, "src/fabric.py",
            rules=["SIM006"],
            index_sources={"tests/test_fabric.py": self.OTHER_TEST})
        assert [f.key for f in report.findings] == [
            "Fabric.offer_batch:twin-test"]

    def test_no_test_modules_means_no_twin_test_check(self):
        # Single-file runs can't see the test tree; only the missing-
        # oracle half of the rule may fire.
        report = check_source(self.SRC, "src/fabric.py",
                              rules=["SIM006"])
        assert report.findings == []


class TestSIM006MovedOracles:
    """Oracles production no longer runs live in ``Scalar<Class>``
    classes under ``tests/oracles/``."""

    ROUTER = '''
class Router:
    def route_tokens(self, src, dst):
        return (0, 1, ())
'''
    ORACLE = '''
from router import Router

class ScalarRouter(Router):
    def route_flow(self, src, dst):
        return self.route_tokens(src, dst)
'''
    TWIN_TEST = '''
from router import Router
from tests.oracles.router import ScalarRouter

def test_twins():
    assert ScalarRouter().route_flow(0, 1) == Router().route_tokens(0, 1)
'''
    BACKEND = '''
from typing import Protocol

class Fabric(Protocol):
    def step(self, batch): ...
    def apply_event(self, event): ...

class Mesh:
    name = "mesh"

    def step(self, batch):
        return batch

    def apply_event(self, event):
        return False
'''
    BACKEND_ORACLE = '''
from mesh import Mesh

class ScalarMesh(Mesh):
    def step(self, flows):
        return list(flows)
'''
    BACKEND_TEST = '''
from mesh import Mesh
from tests.oracles.mesh import ScalarMesh

def test_twins():
    assert ScalarMesh().step([1]) == Mesh().step([1])
'''

    def keys(self, source, path, index):
        return [f.key for f in check_source(
            source, path, rules=["SIM006"], index_sources=index).findings]

    def test_scalar_class_under_tests_oracles_is_the_oracle(self):
        assert self.keys(self.ROUTER, "src/router.py", {
            "tests/oracles/router.py": self.ORACLE,
            "tests/test_router.py": self.TWIN_TEST}) == []

    def test_scalar_class_elsewhere_does_not_count(self):
        assert self.keys(self.ROUTER, "src/router.py", {
            "tests/helpers/router.py": self.ORACLE,
            "tests/test_router.py": self.TWIN_TEST}) == [
            "Router.route_tokens:oracle"]

    def test_twin_test_must_name_the_scalar_class(self):
        other = self.TWIN_TEST.replace("ScalarRouter().route_flow",
                                       "Router().route_tokens")
        other = other.replace(
            "from tests.oracles.router import ScalarRouter\n", "")
        assert self.keys(self.ROUTER, "src/router.py", {
            "tests/oracles/router.py": self.ORACLE,
            "tests/test_router.py": other}) == [
            "Router.route_tokens:twin-test"]

    def test_backend_step_needs_its_scalar_twin(self):
        # The protocol definition is exempt; the backend is not.
        assert self.keys(self.BACKEND, "src/mesh.py", {
            "tests/test_mesh.py": self.BACKEND_TEST}) == [
            "Mesh.step:oracle"]
        assert self.keys(self.BACKEND, "src/mesh.py", {
            "tests/oracles/mesh.py": self.BACKEND_ORACLE,
            "tests/test_mesh.py": self.BACKEND_TEST}) == []

    def test_backend_step_twin_test_flagged(self):
        assert self.keys(self.BACKEND, "src/mesh.py", {
            "tests/oracles/mesh.py": self.BACKEND_ORACLE,
            "tests/test_other.py": "def test_x():\n    pass\n"}) == [
            "Mesh.step:twin-test"]

    def test_no_index_leaves_backends_alone(self):
        assert self.keys(self.BACKEND, "src/mesh.py", {}) == []
