"""The checker's own gate over the real source tree.

These tests are the in-suite mirror of the CI step: ``src/repro``
must stay clean, every file must parse, and — the acceptance
criterion for SIM001 — deleting any single key from
``AWGRNetworkSimulator.snapshot()``'s return dict must trip the rule.
"""

import ast
import functools
from pathlib import Path

import pytest

import repro
from repro.checks.engine import check_source, run_checks
from repro.scenarios import available_backends, backend_info

REPO = Path(__file__).resolve().parents[2]
SRC = Path(repro.__file__).resolve().parent
SIMULATOR = SRC / "network" / "simulator.py"
ORACLES = REPO / "tests" / "oracles"


def test_src_repro_parses_and_is_clean():
    # Only the oracles production no longer runs are indexed:
    # IndirectRouter.route_tokens, AWGRNetworkSimulator.offer_batch
    # and every backend's step find theirs under tests/oracles/.
    report = run_checks([SRC], index_paths=[ORACLES])
    assert report.errors == []
    assert report.findings == []


def _snapshot_dict(tree: ast.Module) -> ast.Dict:
    for node in ast.walk(tree):
        if (isinstance(node, ast.ClassDef)
                and node.name == "AWGRNetworkSimulator"):
            for stmt in node.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "snapshot"):
                    for sub in ast.walk(stmt):
                        if (isinstance(sub, ast.Return)
                                and isinstance(sub.value, ast.Dict)):
                            return sub.value
    raise AssertionError("AWGRNetworkSimulator.snapshot() return dict "
                         "not found")


SNAPSHOT_KEYS = [k.value for k in _snapshot_dict(
    ast.parse(SIMULATOR.read_text())).keys]


def test_snapshot_keys_are_the_documented_six():
    assert sorted(SNAPSHOT_KEYS) == sorted(
        ["config", "now", "allocator", "state", "router", "buckets"])


@pytest.mark.parametrize("key", SNAPSHOT_KEYS)
def test_deleting_any_snapshot_key_fails_sim001(key):
    tree = ast.parse(SIMULATOR.read_text())
    snapshot = _snapshot_dict(tree)
    index = [k.value for k in snapshot.keys].index(key)
    del snapshot.keys[index]
    del snapshot.values[index]
    report = check_source(ast.unparse(tree), "simulator.py",
                          rules=["SIM001"])
    assert report.errors == []
    assert any(f.key == f"AWGRNetworkSimulator.key:{key}"
               for f in report.findings), (
        f"SIM001 stayed quiet after deleting snapshot key {key!r}")


TESTS = REPO / "tests"


def test_src_repro_clean_with_test_tree_indexed():
    # The CI gate proper: project rules see the test tree, so
    # SIM006's twin-test evidence half runs too.
    report = run_checks([SRC], index_paths=[TESTS])
    assert report.errors == []
    assert report.findings == []
    assert report.indexed > 0


def _check_with_tests_minus(src_file: Path, dropped: Path):
    """SIM006 over ``src_file`` with the test modules and the oracles
    indexed, minus the ``dropped`` file."""
    index = {}
    for path in sorted([*TESTS.rglob("test_*.py"),
                        *ORACLES.glob("*.py")]):
        if path == dropped:
            continue
        index[str(path.relative_to(REPO))] = path.read_text()
    return check_source(src_file.read_text(),
                        str(src_file.relative_to(REPO.resolve())),
                        rules=["SIM006"], index_sources=index)


@functools.cache
def _sim006_keys(src_file: Path, dropped: Path | None = None
                 ) -> frozenset:
    """Finding keys of :func:`_check_with_tests_minus`; the clean runs
    are shared between the tests below."""
    return frozenset(f.key for f in _check_with_tests_minus(
        src_file, dropped=dropped).findings)


@pytest.mark.parametrize("src_file,twin_test,expect_key", [
    (SRC / "network" / "routing.py",
     TESTS / "network" / "test_routing.py",
     "IndirectRouter.route_tokens:twin-test"),
    (SRC / "scenarios" / "episodes.py",
     TESTS / "scenarios" / "test_episodes.py",
     "Episode.generate_batch:twin-test"),
    (SIMULATOR, TESTS / "network" / "test_batch_admission.py",
     "AWGRNetworkSimulator.offer_batch:twin-test"),
])
def test_deleting_a_twin_test_fails_sim006(src_file, twin_test,
                                           expect_key):
    # Acceptance criterion: the twin tests are load-bearing. With the
    # full test tree indexed the file is clean; removing the one
    # module holding the twin evidence must trip SIM006.
    assert _sim006_keys(src_file) == frozenset()
    assert expect_key in _sim006_keys(src_file, twin_test), (
        f"SIM006 stayed quiet with {twin_test.name} deleted")


BACKENDS = SRC / "scenarios" / "backends.py"
TOPOLOGIES = SRC / "scenarios" / "topologies.py"


def _every_backend(suffix: str) -> frozenset:
    return frozenset(f"{backend_info(name).cls.__name__}.step:{suffix}"
                     for name in available_backends())


def test_backend_twin_tests_cover_every_backend():
    # The seeded backend twin modules carry every registered backend's
    # twin-test evidence: without them each backend's step is flagged.
    assert _sim006_keys(BACKENDS) == _sim006_keys(TOPOLOGIES) == set()
    assert (_sim006_keys(BACKENDS,
                         TESTS / "scenarios" / "test_batch_step.py")
            | _sim006_keys(TOPOLOGIES,
                           TESTS / "scenarios" / "test_topologies.py")
            ) == _every_backend("twin-test")


@pytest.mark.parametrize("oracle,src_files,expect_keys", [
    ("backends.py", (BACKENDS, TOPOLOGIES), _every_backend("oracle")),
    ("simulator.py", (SIMULATOR,),
     {"AWGRNetworkSimulator.offer_batch:oracle"}),
    ("routing.py", (SRC / "network" / "routing.py",),
     {"IndirectRouter.route_tokens:oracle"}),
    ("episodes.py", (SRC / "scenarios" / "episodes.py",),
     {"Episode.generate_batch:oracle"}),
])
def test_deleting_an_oracle_module_fails_sim006(oracle, src_files,
                                                expect_keys):
    # The oracles production no longer runs are load-bearing too:
    # without their tests/oracles/ module SIM006 reports them missing.
    keys = set()
    for src_file in src_files:
        assert _sim006_keys(src_file) == frozenset()
        keys |= _sim006_keys(src_file, ORACLES / oracle)
    assert keys == expect_keys
