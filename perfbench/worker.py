"""One library workload in a fresh process.

    python3 perfbench/worker.py --workload rack_awgr --seed 1 \\
        --seconds 5 --size full --out result.json [--trace] [--setup-only]

Prints ``ready`` on stdout the moment the first timed epoch is ready
(the end of set-up), writes its result to ``--out`` and exits. Only
public callables of ``repro.scenarios`` and ``repro.experiments`` are
timed. ``src`` must be on ``PYTHONPATH``.

Untraced runs repeat their fixed unit of work, with fresh state each
time, until ``--seconds`` of it have been measured. A traced run
(``--trace``) does one unit with the span wrappers installed and
takes them off again before its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext

from checks import Gate, digest, load_pinned
from layers import ARENA_BACKENDS
from rackmix import rack_mix
from tracer import EpochClock, Patches, SetupDone, Tracer, clock, \
    install_simulation

#: Workload sizes. ``full`` is what the benchmark measures; ``toy`` is
#: the self-test's few-second version of the same code paths.
SIZES = {
    "full": {"rack_nodes": 350, "rack_epochs": 100,
             "service_nodes": 64, "service_epochs": 480,
             "service_fork_epochs": 40,
             "week_days": 3, "day_epochs": 1440},
    "toy": {"rack_nodes": 8, "rack_epochs": 12,
            "service_nodes": 8, "service_epochs": 40,
            "service_fork_epochs": 6,
            "week_days": 2, "day_epochs": 12},
}

#: Seed whose streams are pinned in ``pinned.json``.
DEFAULT_SEED = 0


class Run:
    """State shared by the units of one worker process."""

    def __init__(self, args) -> None:
        self.args = args
        self.size = SIZES[args.size]
        self.tracer = Tracer("worker") if args.trace else None
        self.patches = Patches()
        self.gate = Gate()
        self.pinned = load_pinned()
        self.ready_at: float | None = None
        self.result: dict = {"workload": args.workload,
                             "seed": args.seed, "units": 0,
                             "epochs": 0, "epoch_s": 0.0,
                             "epoch_ms": [], "phase_s": [],
                             "checkpoint_mb": [], "checkpoint_s": []}

    def span(self, layer: str):
        return self.tracer.span(layer) if self.tracer else nullcontext()

    def ready(self) -> None:
        if self.ready_at is None:
            self.ready_at = clock()
            print("ready", flush=True)
            if self.args.setup_only:
                raise SetupDone

    def record(self, phase: tuple[float, float], epoch_ms: list,
               epoch_s: float) -> None:
        """Book one unit's timings."""
        result = self.result
        result["units"] += 1
        result["phase_s"].append(phase[1] - phase[0])
        result["window"] = phase
        result["epoch_ms"].extend(epoch_ms)
        result["epochs"] += len(epoch_ms)
        result["epoch_s"] += epoch_s

    def check(self, stream: str, payloads: list[dict]) -> list[str]:
        """Invariants, plus the pinned stream at the default seed.

        Every workload has an ``awgr`` stream; the self-test's
        ``--perturb`` corrupts one of its epochs before the check.
        """
        if self.args.perturb is not None and stream == "awgr":
            payloads[self.args.perturb]["carried"] += 1
        digests = self.gate.epochs(stream, payloads)
        key = f"{self.args.workload}/{self.args.size}/{stream}"
        if self.args.seed == DEFAULT_SEED and key in self.pinned:
            self.gate.equal(stream, digests, self.pinned[key])
        self.result.setdefault("digests", {})[stream] = digests
        return digests


# -- workloads -------------------------------------------------------------------

def rack_scenario(run: Run):
    from repro.scenarios.scenario import Scenario

    payload = rack_mix(run.size["rack_nodes"], run.size["rack_epochs"])
    scenario = Scenario.from_config(json.loads(json.dumps(payload)))
    if json.loads(json.dumps(scenario.to_config())) != payload:
        raise RuntimeError("rack_mix does not round-trip through "
                           "Scenario.from_config")
    return scenario


def rack_awgr(run: Run, scenario) -> None:
    """Library stepping at 350 MCMs, one carry-style checkpoint round
    trip at mid-run; the second half runs on the restored backend."""
    from repro.scenarios.registry import make_backend
    from repro.scenarios.runner import ScenarioRunner

    seed = run.args.seed
    n_nodes, n_epochs = scenario.n_nodes, scenario.n_epochs
    half = n_epochs // 2
    original = make_backend("awgr", n_nodes, seed=seed)
    run.ready()
    runner = ScenarioRunner(scenario, original)
    report = None
    epoch_ms = []

    def step(epoch):
        nonlocal report
        start = clock()
        report = runner.step_epochs(epoch, epoch + 1, seed=seed,
                                    report=report)
        epoch_ms.append((clock() - start) * 1e3)

    lo = clock()
    for epoch in range(half):
        step(epoch)
    start = clock()
    snapshot = original.snapshot()
    with run.span("checkpoint.encode"):
        text = json.dumps(snapshot)
    del snapshot
    with run.span("checkpoint.decode"):
        state = json.loads(text)
    with run.span("checkpoint.build"):
        restored = make_backend("awgr", n_nodes, seed=seed)
    restored.restore(state)
    del state
    run.result["checkpoint_s"].append(clock() - start)
    run.result["checkpoint_mb"].append(len(text) / 1e6)
    if run.tracer:
        run.tracer.count("checkpoint.bytes", len(text))
    del text
    runner = ScenarioRunner(scenario, restored)
    for epoch in range(half, n_epochs):
        step(epoch)
    report.as_dict()
    hi = clock()
    run.record((lo, hi), epoch_ms, sum(epoch_ms) / 1e3)
    run.patches.undo()
    run.result["slowdown_samples"] = len(report.slowdowns)

    payloads = [e.to_dict() for e in report.epochs]
    digests = run.check("awgr", payloads)
    # The uninterrupted stream: the original backend, never
    # snapshotted, steps the second half too.
    reference = ScenarioRunner(scenario, original).step_epochs(
        half, n_epochs, seed=seed)
    run.gate.equal("awgr", digests[half:],
                   [digest(e.to_dict()) for e in reference.epochs], half)


def rack_arena(run: Run, scenario) -> None:
    """Fig. 12-style bake-off: every contender on one shared stream."""
    from repro.scenarios import arena

    epoch_clock = EpochClock(run.ready)
    epoch_clock.install(run.patches)
    result = arena.run_arena(scenario, backends=ARENA_BACKENDS,
                             seed=run.args.seed)
    end = clock()
    result.as_dict()
    hi = clock()
    marks = epoch_clock.marks + [end]
    epoch_ms = [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
    run.record((marks[0], hi), epoch_ms, end - marks[0])
    run.patches.undo()
    run.result["slowdown_samples"] = sum(
        len(r.slowdowns) for r in result.reports.values())
    for name in ARENA_BACKENDS:
        run.check(name, [e.to_dict() for e in result.reports[name].epochs])


def week_scenario(run: Run):
    from repro.scenarios.library import get_scenario, week_cori_scenario

    days, day = run.size["week_days"], run.size["day_epochs"]
    if run.args.size == "full":
        return get_scenario("week_cori").with_epochs(days * day)
    return week_cori_scenario(n_nodes=8, days=days, epochs_per_day=day)


def week_replay(run: Run, scenario) -> None:
    """The registered week_cori through the carry-mode sharded tier,
    one chunk per simulated day, into a fresh result cache."""
    from repro.experiments.cache import ResultCache
    from repro.scenarios import sharding

    cache_dir = tempfile.mkdtemp(prefix="week-", dir=run.args.scratch)
    try:
        runner = sharding.ShardedScenarioRunner(
            scenario, backend="awgr",
            chunk_epochs=run.size["day_epochs"], boundary="carry",
            cache=ResultCache(cache_dir), base_seed=DEFAULT_SEED)
        epoch_clock = EpochClock(run.ready)
        epoch_clock.install(run.patches)
        lo = clock()
        result = runner.run()
        end = clock()
        report = result.report()
        report.as_dict()
        hi = clock()
        marks = epoch_clock.marks + [end]
        epoch_ms = [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
        run.record((lo, hi), epoch_ms, end - lo)
        run.patches.undo()
        run.result["checkpoint_mb"].append(sum(
            entry.stat().st_size for entry in os.scandir(cache_dir))
            / 1e6)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    run.result["slowdown_samples"] = len(report.slowdowns)
    last = result.payloads[max(result.payloads)]
    stale = last["snapshot"]["sim"]["router"]["stale_mispredictions"]
    run.result["stale_mispredictions"] = stale
    if stale <= 0:
        run.gate.fail(("week", "stale"), "week replay never walked the "
                      "stale-state fallback (stale_mispredictions == 0)")
    run.check("awgr", [e.to_dict() for e in report.epochs])


WORKLOADS = {
    "rack_awgr": (rack_scenario, rack_awgr),
    "rack_arena": (rack_scenario, rack_arena),
    "week_replay": (week_scenario, week_replay),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--perturb", type=int, default=None,
                        help="self-test: corrupt this epoch's payload")
    args = parser.parse_args(argv)

    start = clock()
    run = Run(args)
    build_scenario, unit = WORKLOADS[args.workload]
    with run.span("setup.import"):
        import repro  # noqa: F401
        import repro.experiments  # noqa: F401
        import repro.scenarios  # noqa: F401
    imported = clock()
    if run.tracer:
        install_simulation(run.tracer, run.patches)
    with run.span("setup.build"):
        scenario = build_scenario(run)
    try:
        while True:
            unit(run, scenario)
            measured = sum(run.result["phase_s"])
            if args.trace or measured >= args.seconds:
                break
    except SetupDone:
        return 0
    finally:
        run.patches.undo()
    result = run.result
    result["import_s"] = imported - start
    result["build_s"] = run.ready_at - imported
    result["epochs_per_s"] = result["epochs"] / result["epoch_s"]
    result["gate"] = run.gate.summary()
    if run.tracer:
        result["trace"] = run.tracer.dump()
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
