"""Rack-scale benchmark of the photonic-rack simulator.

    python3 perfbench/run.py --workload rack_awgr --seed 1 --seconds 5 \\
        --trace 0

Run from the repository root; without ``--workload`` it runs all four,
one after another. Each workload goes through public entry
points of ``repro`` only, in fresh processes:

* ``rack_awgr`` -- the paper's 350-MCM rack as a library: the shared
  ``rack_mix`` scenario stepped one epoch at a time on the default
  AWGR backend, with one carry-style checkpoint round trip at mid-run.
  Piggyback broadcast and the 131 MB checkpoint dominate.
* ``rack_arena`` -- the Fig. 12-style bake-off: ``run_arena`` races
  all five backends over the same 350-MCM scenario. The only workload
  that runs the WSS scheduler; it never checkpoints.
* ``service_http`` -- ``repro serve --workers 1`` driven over HTTP by
  two clients with 64-MCM inline sessions: SSE streaming, one
  suspend/resume each, one what-if fork each. The only workload
  through ``repro.service`` and the session store.
* ``week_replay`` -- the registered 16-node ``week_cori`` (first three
  days) through the carry-mode sharded tier: nightly checkpoint bursts
  saturate the I/O node and walk the router's stale-state fallback.

``--trace 0`` measures untraced: a run repeats its workload's fixed
unit of work until ``--seconds`` of it are measured, and set-up is
measured in two fresh processes. The last stdout line is one JSON
object whose metrics are the bounded end-to-end metrics
(``END_TO_END``). The table above it prints all thirteen end-to-end
metrics of the benchmark, n/a where the workload has no such
operation. ``--trace 1`` runs the workload once untraced and once with
span wrappers installed; it reports the per-layer metrics, writes a
Chrome trace (opens in Perfetto) and a per-layer table whose rows plus
``unattributed`` add up to the traced wall time.

Every simulated stream is checked bit for bit: against the pinned
digests at seed 0 (``pinned.json``), against a library run of the same
inputs, and against the report invariants. A mismatch counts toward
``error_rate`` and makes the command exit 1. Records with the
environment, raw samples, median and IQR of every metric are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from checks import PINNED, Gate, load_pinned  # noqa: E402
from layers import PER_LAYER, Trace, layer_metrics  # noqa: E402
from tracer import Patches, Tracer, clock, install_client  # noqa: E402
from worker import DEFAULT_SEED, SIZES  # noqa: E402

import service  # noqa: E402

WORKLOADS = ("rack_awgr", "rack_arena", "service_http", "week_replay")

#: The end-to-end metrics every workload has and that stay steady on
#: a noisy 2-core VM; BENCHMARK.json bounds these. The median epoch
#: time is left out: rack epochs alternate between two cost levels
#: (flows stay resident two epochs), so the median falls between
#: them, and week epochs are ~1 ms, where host noise dominates.
END_TO_END = {"setup_s": "s", "epochs_per_s": "epochs/s",
              "epoch_ms_p90": "ms", "peak_rss_mb": "MB"}

#: All end-to-end metrics the command prints, per workload.
REPORTED = {"setup_s": "s", "epochs_per_s": "epochs/s",
            "epoch_ms_p50": "ms", "epoch_ms_p90": "ms",
            "checkpoint_mb": "MB", "checkpoint_s": "s", "ttfe_ms": "ms",
            "frame_gap_ms_p50": "ms", "frame_gap_ms_p99": "ms",
            "suspend_s": "s", "resume_s": "s", "peak_rss_mb": "MB",
            "error_rate": "fraction"}

#: Fresh processes whose set-up time is measured per untraced run.
SETUP_SAMPLES = 2

#: A run must finish within 180 s; processes still alive after this
#: many seconds from the start of the workload's run are killed and
#: the run fails.
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    """A process of the run failed; no result is printed."""


def summary(samples: list) -> dict:
    """Raw samples with their median and interquartile range."""
    samples = [float(x) for x in samples]
    iqr = 0.0
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        iqr = q3 - q1
    return {"samples": samples, "median": statistics.median(samples),
            "iqr": iqr}


def metric(value: float, samples: list) -> dict:
    return {"value": float(value), **summary(samples)}


# -- processes -----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def launch(cmd: list[str], token: str, deadline: float):
    """Start a process; return it, the seconds until it printed a line
    containing ``token``, and that line. The process is killed at
    ``deadline`` (a ``clock()`` time) if still alive."""
    start = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(deadline - start, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    proc.watchdog = watchdog
    for line in proc.stdout:
        if token in line:
            return proc, clock() - start, line
    finish(proc)
    raise RunFailed(f"{cmd[1]} exited with {proc.returncode} before "
                    "it was ready")


def finish(proc) -> float:
    """Wait for a process; return its peak RSS in MB."""
    proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return usage.ru_maxrss / 1024


# -- library workloads -----------------------------------------------------------

def run_worker(args, scratch: Path, *extra: str) -> tuple[dict, float,
                                                            float]:
    handle, out = tempfile.mkstemp(prefix="worker-", suffix=".json",
                                   dir=scratch)
    os.close(handle)
    out = Path(out)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--out", str(out),
           "--scratch", str(scratch), *extra]
    if args.perturb is not None:
        cmd += ["--perturb", str(args.perturb)]
    proc, setup_s, _ = launch(cmd, "ready", args.deadline)
    rss = finish(proc)
    if "--setup-only" in extra:
        if proc.returncode != 0:
            raise RunFailed(f"set-up process exited {proc.returncode}")
        return {}, setup_s, rss
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}")
    return json.loads(out.read_text()), setup_s, rss


def library(args, gate: Gate, scratch: Path) -> tuple[dict, dict]:
    seconds = ["--seconds", str(args.seconds)]
    if args.trace:
        base, _, _ = run_worker(args, scratch, "--seconds", "0")
        traced, _, _ = run_worker(args, scratch, "--trace")
        for result in (base, traced):
            gate.merge(result["gate"])
        lo, hi = traced["window"]
        trace = Trace([traced["trace"]])
        return layer_report(args, trace, (lo, hi), traced["epochs"], {
            "import_s": traced["import_s"],
            "build_s": traced["build_s"],
            "overhead_frac": traced["phase_s"][0] / base["phase_s"][0]
            - 1,
            "slowdown_samples": traced["slowdown_samples"]}), {
            "units": 1, "epochs": traced["epochs"],
            "digests": traced["digests"]}
    setup = [run_worker(args, scratch, *seconds, "--setup-only")[1]
             for _ in range(SETUP_SAMPLES - 1)]
    result, setup_s, rss = run_worker(args, scratch, *seconds)
    setup.append(setup_s)
    gate.merge(result["gate"])
    epoch_ms = result["epoch_ms"]
    p50, p90 = np.percentile(epoch_ms, [50, 90])
    metrics = {
        "setup_s": metric(statistics.median(setup), setup),
        "epochs_per_s": metric(result["epochs_per_s"],
                               [result["epochs_per_s"]]),
        "epoch_ms_p50": metric(p50, epoch_ms),
        "epoch_ms_p90": metric(p90, epoch_ms),
        "peak_rss_mb": metric(rss, [rss]),
    }
    for name in ("checkpoint_mb", "checkpoint_s"):
        if result[name]:
            metrics[name] = metric(statistics.median(result[name]),
                                   result[name])
    if "stale_mispredictions" in result:
        metrics["stale_mispredictions"] = metric(
            result["stale_mispredictions"],
            [result["stale_mispredictions"]])
    return metrics, {"units": result["units"], "epochs": result["epochs"],
                     "digests": result["digests"]}


# -- service workload ------------------------------------------------------------

def server_cmd(store_dir: Path, spans: Path | None) -> list[str]:
    serve = ["serve", "--workers", "1", "--port", "0",
             "--store-dir", str(store_dir)]
    if spans is None:
        return [sys.executable, "-m", "repro", *serve]
    return [sys.executable, str(HERE / "serve.py"), "--out", str(spans),
            "--", *serve]


def start_server(cmd, deadline: float):
    proc, setup_s, line = launch(cmd, "listening on http://", deadline)
    return proc, setup_s, re.search(r"http://\S+", line).group(0)


def stop_server(proc, url: str) -> float:
    from repro.service.client import ServiceClient

    try:
        ServiceClient(url, timeout=10).shutdown()
    except (OSError, RuntimeError):
        proc.kill()
    return finish(proc)


def service_units(args, gate: Gate, scratch: Path, spans: Path | None,
                  once: bool):
    """Launch a server, drive units until ``--seconds`` are measured
    (or once), stop it; return the units, set-up time, RSS, /metrics."""
    from repro.experiments.cache import ResultCache
    from repro.service.client import ServiceClient

    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
    proc, setup_s, url = start_server(server_cmd(store_dir, spans),
                                      args.deadline)
    units = []
    try:
        while True:
            units.append(service.drive(url, ResultCache(store_dir),
                                       args.seed, SIZES[args.size],
                                       gate))
            if once or sum(u["wall_s"] for u in units) >= args.seconds:
                break
        fleet = ServiceClient(url).metrics()
        gate.request(True, "metrics")
    finally:
        rss = stop_server(proc, url)
    if proc.returncode != 0:
        raise RunFailed(f"server exited {proc.returncode}")
    pinned = None
    if args.seed == DEFAULT_SEED:
        prefix = f"service_http/{args.size}/"
        pinned = {key[len(prefix):]: digests
                  for key, digests in load_pinned().items()
                  if key.startswith(prefix)}
    for unit in units:
        if args.perturb is not None:
            unit["clients"][0].parent[args.perturb]["carried"] += 1
        unit["digests"] = service.check(unit, gate, pinned)
    return units, setup_s, rss, fleet


def http(args, gate: Gate, scratch: Path) -> tuple[dict, dict]:
    if args.trace:
        base = service_units(args, gate, scratch, None, once=True)[0][0]
        spans = scratch / "server-spans.json"
        tracer = Tracer("client")
        patches = Patches()
        install_client(tracer, patches)
        try:
            units, _, _, fleet = service_units(args, gate, scratch,
                                               spans, once=True)
        finally:
            patches.undo()
        unit = units[0]
        server = json.loads(spans.read_text())
        trace = Trace([server, tracer.dump()])
        lo, hi = unit["window"]
        trace.clip(lo, hi)
        return layer_report(args, trace, (lo, hi), unit["epochs"], {
            "import_s": server["samples"]["setup.import_s"][0],
            "build_s": server["samples"]["setup.build_s"][0],
            "overhead_frac": unit["wall_s"] / base["wall_s"] - 1,
            "stall_ms": unit["stall_ms"],
            "recoveries": fleet["recoveries_total"],
            "http_unattributed_ms": service.http_unattributed_ms(
                unit, trace),
            "slowdown_samples": sum(
                len(p["slowdowns"]) for c in unit["clients"]
                for p in c.parent.values())}), {
            "units": 1, "epochs": unit["epochs"],
            "digests": unit["digests"]}
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
        proc, setup_s, url = start_server(server_cmd(store_dir, None),
                                          args.deadline)
        setup.append(setup_s)
        stop_server(proc, url)
    units, setup_s, rss, _ = service_units(args, gate, scratch, None,
                                           once=False)
    setup.append(setup_s)
    gap_ms = [(now - before) * 1e3 for unit in units
              for _, _, before, now in unit["frame_gaps"]]
    epochs = sum(u["epochs"] for u in units)
    rate = epochs / sum(u["wall_s"] for u in units)

    def pooled(key):
        values = [v for unit in units for v in unit[key]]
        return metric(statistics.median(values), values)

    p50, p90, p99 = np.percentile(gap_ms, [50, 90, 99])
    metrics = {
        "setup_s": metric(statistics.median(setup), setup),
        "epochs_per_s": metric(rate, [rate]),
        "epoch_ms_p50": metric(p50, gap_ms),
        "epoch_ms_p90": metric(p90, gap_ms),
        "peak_rss_mb": metric(rss, [rss]),
        "checkpoint_mb": pooled("record_mb"),
        "ttfe_ms": pooled("ttfe_ms"),
        "frame_gap_ms_p50": metric(p50, gap_ms),
        "frame_gap_ms_p99": metric(p99, gap_ms),
        "suspend_s": pooled("suspend_s"),
        "resume_s": pooled("resume_s"),
    }
    return metrics, {"units": len(units), "epochs": epochs,
                     "frame_gaps": len(gap_ms),
                     "digests": units[0]["digests"]}


# -- traced runs -------------------------------------------------------------------

def layer_report(args, trace: Trace, window, epochs: int,
                 extra: dict) -> dict:
    """Per-layer metrics of one traced unit; writes the Chrome trace
    and the per-layer table."""
    lo, hi = window
    trace.clip(lo, hi)
    rows = trace.table(lo, hi, epochs)
    extra["unattributed_frac"] = rows[-1]["share"]
    values = layer_metrics(trace, epochs, extra)
    trace.chrome(OUT / f"{args.workload}.trace.json", origin=lo)
    wall_ms = (hi - lo) * 1e3
    lines = [f"{args.workload}: traced wall {wall_ms:.1f} ms over "
             f"{epochs} epochs (seed {args.seed})",
             f"{'layer':40s} {'calls':>8s} {'self ms':>11s} "
             f"{'attrib ms':>11s} {'ms/epoch':>9s} {'share':>7s}"]
    for row in rows:
        lines.append(f"{row['layer']:40s} {row['calls']:8d} "
                     f"{row['self_ms']:11.2f} {row['attributed_ms']:11.2f} "
                     f"{row['ms_per_epoch']:9.3f} {row['share']:7.1%}")
    lines.append(f"{'total':40s} {'':8s} {'':11s} "
                 f"{sum(r['attributed_ms'] for r in rows):11.2f}")
    if trace.missing:
        lines.append("not traced (missing from the program): "
                     + ", ".join(sorted(set(trace.missing))))
    (OUT / f"{args.workload}.layers.txt").write_text("\n".join(lines)
                                                     + "\n")
    print("\n".join(lines))
    return {"metrics": {name: metric(values[name], [values[name]])
                        for name in PER_LAYER},
            "table": rows, "wall_ms": wall_ms,
            "missing": sorted(set(trace.missing))}


# -- command ---------------------------------------------------------------------

def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "git_sha": sha}


def measure(args) -> dict:
    """One run of one workload; the record written to ``out/``."""
    args.deadline = clock() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    gate = Gate()
    try:
        measured = http if args.workload == "service_http" else library
        metrics, run = measured(args, gate, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        metrics = {"metrics": {**metrics, "error_rate": metric(
            gate.error_rate, [gate.error_rate])}}
    digests = run.pop("digests")
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "environment": environment(),
            "run": {"seconds": args.seconds, "size": args.size, **run},
            **metrics, "correct": gate.failed == 0, **gate.summary(),
            "digests": digests}


def report(record: dict) -> dict:
    """Print the human-readable table; return the last-line metrics."""
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"({record['run']})")
    metrics = record["metrics"]
    units = PER_LAYER if record["trace"] else REPORTED
    for name, unit in units.items():
        value = (f"{metrics[name]['value']:.6g}" if name in metrics
                 else "n/a")
        print(f"  {name:40s} {value:>14s} {unit}")
    for reason in record["reasons"]:
        print(f"  FAILED: {reason}")
    names = PER_LAYER if record["trace"] else END_TO_END
    return {name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in names.items()}


def pin() -> None:
    """Rewrite ``pinned.json`` from seed-0 runs at both sizes."""
    PINNED.unlink(missing_ok=True)
    pinned = {}
    for size in SIZES:
        for workload in WORKLOADS:
            record = measure(argparse.Namespace(
                workload=workload, seed=DEFAULT_SEED, seconds=0.0,
                trace=0, size=size, perturb=None))
            if not record["correct"]:
                raise RunFailed(f"cannot pin a failing run: "
                                f"{record['reasons']}")
            for stream, digests in record["digests"].items():
                pinned[f"{workload}/{size}/{stream}"] = digests
            print(f"pinned {workload} at {size} size", flush=True)
    PINNED.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(digests)}"
        for key, digests in sorted(pinned.items())) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: every workload, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="toy: the self-test's 8-MCM version")
    parser.add_argument("--perturb", type=int, default=None,
                        help="self-test: corrupt this epoch's payload")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pinned.json from seed-0 runs")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0
    code = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        try:
            record = measure(args)
        except RuntimeError as exc:
            print(f"{workload}: run failed: {exc}", file=sys.stderr)
            return 1
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
        metrics = report(record)
        print(json.dumps({"correct": record["correct"],
                          "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": metrics}),
              flush=True)
        code = code or (0 if record["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
