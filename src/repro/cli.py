"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro table1           # Table I link technologies
    python -m repro table3           # MCM packing
    python -m repro fig6 --latency 35
    python -m repro fig12
    python -m repro isoperf --empirical
    python -m repro all              # everything, in paper order

Every subcommand prints the same rows the corresponding
``benchmarks/bench_*.py`` module asserts against.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.report import render_kv, render_table


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.photonics.links import table1_rows
    print(render_table(table1_rows(args.escape),
                       title=f"Table I ({args.escape} TB/s escape)"))


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.photonics.switches import table2_rows
    print(render_table(table2_rows(), title="Table II"))


def _cmd_table3(args: argparse.Namespace) -> None:
    from repro.rack.mcm import table3_rows
    print(render_table(table3_rows(), title="Table III"))


def _cmd_table4(args: argparse.Namespace) -> None:
    from repro.photonics.switches import table4_rows
    print(render_table(table4_rows(), title="Table IV"))


def _cmd_fig5(args: argparse.Namespace) -> None:
    from repro.rack.design import plan_awgr_fabric, plan_wss_fabric
    awgr = plan_awgr_fabric()
    wss = plan_wss_fabric()
    print(render_kv({
        "AWGR planes": awgr.planes,
        "min direct wavelengths/pair": awgr.min_direct_wavelengths(),
        "guaranteed pair Gbps": awgr.guaranteed_pair_gbps(),
        "WSS switches": wss.n_switches,
        "min direct WSS paths/pair": wss.min_direct_paths(),
    }, title="Fig. 5 connectivity"))


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.core.slowdown import run_cpu_study, suite_summary
    results = run_cpu_study(args.latency)
    rows = [{"suite": s.suite, "input": s.input_size, "core": s.core,
             "mean": s.mean_slowdown, "max": s.max_slowdown}
            for s in suite_summary(results)]
    print(render_table(rows, title=f"Fig. 6 @ {args.latency} ns"))


def _cmd_fig7(args: argparse.Namespace) -> None:
    from repro.analysis.stats import pearson
    from repro.core.slowdown import run_cpu_study
    from repro.workloads.cpu_suites import (
        parsec_benchmarks,
        rodinia_cpu_benchmarks,
    )
    benches = parsec_benchmarks("large") + rodinia_cpu_benchmarks()
    results = run_cpu_study(args.latency, benchmarks=benches)
    rows = [{"benchmark": r.name, "core": r.core, "slowdown": r.slowdown,
             "llc_miss_rate": r.llc_miss_rate}
            for r in results if r.core == "inorder"]
    print(render_table(sorted(rows, key=lambda r: -r["slowdown"]),
                       title=f"Fig. 7 @ {args.latency} ns"))
    sel = [r for r in results if r.core == "inorder"]
    r = pearson([x.slowdown for x in sel], [x.llc_miss_rate for x in sel])
    print(f"\nPearson(slowdown, LLC miss rate) = {r:.3f}")


def _cmd_fig8(args: argparse.Namespace) -> None:
    from repro.core.slowdown import run_cpu_study
    rows = []
    for ns in (25.0, 30.0, 35.0):
        results = run_cpu_study(ns)
        for core in ("inorder", "ooo"):
            sel = [r.slowdown for r in results if r.core == core]
            rows.append({"extra_ns": ns, "core": core,
                         "mean": float(np.mean(sel)),
                         "max": float(np.max(sel))})
    print(render_table(rows, title="Fig. 8 latency sensitivity"))


def _cmd_fig9(args: argparse.Namespace) -> None:
    from repro.core.slowdown import run_gpu_study
    rows = [{"application": g.name, "slowdown": g.slowdown,
             "llc_miss_rate": g.llc_miss_rate}
            for g in run_gpu_study(args.latency)]
    print(render_table(sorted(rows, key=lambda r: -r["slowdown"]),
                       title=f"Fig. 9 @ {args.latency} ns"))
    print(f"\nmean = {np.mean([r['slowdown'] for r in rows]):.4f} "
          "(paper 0.0535)")


def _cmd_fig11(args: argparse.Namespace) -> None:
    from repro.core.slowdown import cpu_gpu_rodinia_comparison
    rows = [{"benchmark": r.benchmark, "inorder": r.inorder,
             "ooo": r.ooo, "gpu": r.gpu}
            for r in cpu_gpu_rodinia_comparison(args.latency)]
    print(render_table(rows, title=f"Fig. 11 @ {args.latency} ns"))


def _cmd_fig12(args: argparse.Namespace) -> None:
    from repro.core.comparison import electronic_vs_photonic
    _, summaries = electronic_vs_photonic()
    rows = [{"core": s.core, "mean_speedup": s.mean_speedup,
             "max_speedup": s.max_speedup, "n": s.n} for s in summaries]
    print(render_table(rows, title="Fig. 12 photonic vs electronic"))


def _cmd_power(args: argparse.Namespace) -> None:
    from repro.core.power import rack_power_overhead
    result = rack_power_overhead()
    print(render_kv({
        "photonic W": result.photonic_w,
        "compute W": result.compute_w,
        "overhead": result.overhead_fraction,
    }, title="Power overhead (§VI-C)"))


def _cmd_bandwidth(args: argparse.Namespace) -> None:
    from repro.core.bandwidth import awgr_bandwidth_analysis
    report = awgr_bandwidth_analysis()
    print(render_kv({
        "direct pair Gbps": report.guaranteed_pair_gbps,
        "P(cpu-mem ok)": report.cpu_memory.p_sufficient,
        "P(nic-mem ok)": report.nic_memory.p_sufficient,
        "GPU headroom GB/s": report.gpu_budget.after_gpu_gpu_gbyte_s,
        "all satisfied": report.all_satisfied,
    }, title="Bandwidth analysis (§VI-A)"))


def _cmd_isoperf(args: argparse.Namespace) -> None:
    from repro.core.isoperf import iso_performance_comparison
    kwargs = {}
    if args.empirical:
        kwargs = {"memory_reduction": None, "nic_reduction": None}
    result = iso_performance_comparison(**kwargs)
    print(render_kv({
        "baseline modules": result.baseline_total,
        "disaggregated modules": result.disaggregated_total,
        "reduction": result.module_reduction,
        "memory pooling factor": result.memory_reduction,
        "nic pooling factor": result.nic_reduction,
    }, title="Iso-performance (§VI-E)"))


def _cmd_linkbudget(args: argparse.Namespace) -> None:
    from repro.photonics.linkbudget import fabric_feasibility
    print(render_table(fabric_feasibility(),
                       title="Optical link budget per switch family"))


def _cmd_claims(args: argparse.Namespace) -> None:
    from repro.paper import validate_all, validate_structural
    results = (validate_structural() if args.fast else validate_all())
    print(render_table([r.as_row() for r in results],
                       title="Paper-claims ledger"))
    failed = [r for r in results if not r.ok]
    print(f"\n{len(results) - len(failed)}/{len(results)} claims "
          "within tolerance")
    if failed:
        raise SystemExit(1)


def _cmd_sweep(args: argparse.Namespace) -> None:
    from repro.analysis.report import render_sweep, render_table
    from repro.experiments import (
        EXPERIMENTS,
        ResultCache,
        SweepRunner,
        default_workers,
        get_experiment,
    )
    if args.list or not args.experiment:
        rows = [{"experiment": spec.name, "tasks": len(spec),
                 "description": spec.description}
                for spec in EXPERIMENTS.values()]
        print(render_table(rows, title="Registered sweeps"))
        if not args.experiment and not args.list:
            raise SystemExit("sweep: name an experiment or use --list")
        return
    try:
        spec = get_experiment(args.experiment)
    except KeyError as exc:
        raise SystemExit(f"sweep: {exc.args[0]}") from None
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    workers = (args.workers if args.workers is not None
               else default_workers())
    if workers < 1:
        raise SystemExit("sweep: --workers must be >= 1")
    shard_index = shard_count = None
    if args.shard is not None:
        try:
            index_s, count_s = args.shard.split("/", 1)
            shard_index, shard_count = int(index_s), int(count_s)
        except ValueError:
            raise SystemExit("sweep: --shard must look like I/N "
                             "(e.g. 0/4)") from None
        if not 0 <= shard_index < shard_count:
            raise SystemExit("sweep: --shard index must be in [0, N)")
        if cache is None:
            raise SystemExit("sweep: sharding needs the shared result "
                             "cache (drop --no-cache)")
    runner = SweepRunner(workers=workers, cache=cache,
                         shard_index=shard_index, shard_count=shard_count)
    result = runner.run(spec, force=args.force)
    print(render_sweep(result))
    if result.n_failed:
        for failure in result.failures():
            print(f"\nFAILED {failure.config}:\n{failure.error}")
        raise SystemExit(1)


def _cmd_scenario(args: argparse.Namespace) -> None:
    from repro.analysis.report import render_kv, render_table
    from repro.scenarios import (
        SCENARIOS,
        ScenarioRunner,
        ShardedScenarioRunner,
        demo_scenario,
        get_scenario,
        make_backend,
        run_replicated,
    )
    if args.list or (not args.scenario and not args.demo):
        rows = [{"scenario": s.name, "nodes": s.n_nodes,
                 "epochs": s.n_epochs, "events": len(s.events),
                 "description": s.description}
                for s in SCENARIOS.values()]
        print(render_table(rows, title="Registered scenarios"))
        if not args.scenario and not args.demo and not args.list:
            raise SystemExit(
                "scenario: name a scenario or use --demo / --list")
        return
    if args.demo:
        scenario = demo_scenario()
    else:
        try:
            scenario = get_scenario(args.scenario)
        except KeyError as exc:
            raise SystemExit(f"scenario: {exc.args[0]}") from None
    if args.epochs is not None:
        if args.epochs < 1:
            raise SystemExit("scenario: --epochs must be >= 1")
        scenario = scenario.with_epochs(args.epochs)
    title = f"Scenario '{scenario.name}' on {args.backend}"
    if args.shards is not None:
        if args.repeats > 1:
            raise SystemExit("scenario: --repeats and --shards are "
                             "mutually exclusive")
        from repro.experiments import ResultCache
        try:
            runner = ShardedScenarioRunner(
                scenario, backend=args.backend,
                chunk_epochs=args.chunk_epochs, boundary=args.boundary,
                shards=args.shards,
                shard_index=args.shard_index, base_seed=args.seed,
                workers=args.workers)
        except ValueError as exc:
            raise SystemExit(f"scenario: {exc}") from None
        # The cache creates its directory, so it comes only once the
        # runner has accepted the arguments.
        runner.cache = ResultCache(args.cache_dir)
        result = runner.run(resume=args.resume)
        print(render_table(
            result.rows(),
            title=f"{title} — {args.shards}-shard chunk replay "
                  f"({args.boundary} boundaries)"))
        print()
        print(result.summary())
        if result.complete:
            print()
            print(render_kv(result.report().as_dict(),
                            title="Aggregate"))
        if result.n_failed:
            for chunk in result.chunks:
                if chunk.state == "failed":
                    print(f"\nFAILED chunk {chunk.index} "
                          f"[{chunk.start}, {chunk.stop}): "
                          f"{chunk.error}")
            raise SystemExit(1)
        return
    if args.repeats > 1:
        metrics = run_replicated(
            scenario,
            lambda seed: make_backend(args.backend, scenario.n_nodes,
                                      seed=seed),
            repeats=args.repeats, base_seed=args.seed)
        rows = [{"metric": name, **ci}
                for name, ci in metrics.items()]
        print(render_table(
            rows, title=f"{title} — {args.repeats} seeds, "
                        "mean and 95% CI"))
        return
    backend = make_backend(args.backend, scenario.n_nodes,
                           seed=args.seed)
    report = ScenarioRunner(scenario, backend).run(seed=args.seed)
    print(render_table(report.rows(), title=f"{title} — per-epoch"))
    print()
    print(render_kv(report.as_dict(), title="Aggregate"))


def _cmd_arena(args: argparse.Namespace) -> None:
    from repro.analysis.report import render_table
    from repro.scenarios import (
        SCENARIOS,
        available_backends,
        backend_info,
        demo_scenario,
        get_scenario,
        run_arena,
    )
    if args.list or (not args.scenario and not args.demo):
        rows = [{"backend": name,
                 "class": backend_info(name).cls.__name__,
                 **backend_info(name).capabilities(),
                 "description": backend_info(name).description}
                for name in available_backends()]
        print(render_table(rows, title="Registered backends"))
        if not args.scenario and not args.demo and not args.list:
            raise SystemExit(
                "arena: name a scenario or use --demo / --list")
        return
    if args.demo:
        scenario = demo_scenario()
    else:
        try:
            scenario = get_scenario(args.scenario)
        except KeyError as exc:
            raise SystemExit(f"arena: {exc.args[0]}") from None
    if args.epochs is not None:
        if args.epochs < 1:
            raise SystemExit("arena: --epochs must be >= 1")
        scenario = scenario.with_epochs(args.epochs)
    backends = None
    if args.backends:
        backends = tuple(part.strip()
                         for part in args.backends.split(",")
                         if part.strip())
    try:
        arena = run_arena(scenario, backends=backends, seed=args.seed)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"arena: {exc.args[0]}") from None
    print(render_table(
        arena.rows(),
        title=f"Arena '{scenario.name}' — {len(arena.backends)} "
              f"backends, {scenario.n_epochs} epochs, one pass"))
    print()
    print(render_table(
        arena.iso_performance(),
        title="Iso-performance frontier (power to match the "
              "fastest)"))
    print()
    print(render_table(
        arena.iso_power(),
        title="Iso-power frontier (bandwidth inside the leanest "
              "budget)"))


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.experiments import ResultCache
    from repro.service import ServiceGateway, SessionPool, SessionStore
    store = None
    if args.store_dir:
        store = SessionStore(ResultCache(args.store_dir))
    if args.workers < 1:
        raise SystemExit("serve: --workers must be >= 1")
    if args.slice_epochs < 1:
        raise SystemExit("serve: --slice-epochs must be >= 1")
    pool = SessionPool(workers=args.workers,
                       slice_epochs=args.slice_epochs, store=store)
    gateway = ServiceGateway(pool, host=args.host, port=args.port,
                             verbose=args.verbose)
    print(f"repro service listening on {gateway.url} "
          f"({args.workers} workers, {args.slice_epochs}-epoch "
          "slices)", flush=True)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        pass


def _cmd_submit(args: argparse.Namespace) -> None:
    from urllib.error import URLError

    from repro.analysis.report import render_kv, render_table
    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        summary = client.submit(args.scenario, backend=args.backend,
                                base_seed=args.seed,
                                n_epochs=args.epochs)
    except URLError as exc:
        raise SystemExit(f"submit: cannot reach {args.url} "
                         f"({exc.reason}) — is `repro serve` "
                         "running?") from None
    except ServiceError as exc:
        raise SystemExit(f"submit: {exc}") from None
    session_id = summary["id"]
    print(f"submitted session {session_id} "
          f"({summary['scenario']} on {summary['backend']}, "
          f"{summary['n_epochs']} epochs)")
    if args.detach:
        return
    rows = []
    for event, epoch, data in client.stream(session_id):
        if event == "epoch":
            rows.append({"epoch": epoch,
                         "carried_gbps": data["carried_gbps"],
                         "blocked": data["blocked"],
                         "indirect": data["indirect"]})
        else:
            print(f"session parked: {data['state']}")
    if rows:
        print(render_table(rows, title=f"Session {session_id} epochs"))
    detail = client.session(session_id)
    print()
    print(render_kv(detail["aggregates"], title="Aggregate"))


def _cmd_check(args: argparse.Namespace) -> None:
    from pathlib import Path

    from repro.checks.engine import run_checks
    from repro.checks.report import render_rules, render_text

    if args.list_rules:
        print(render_rules())
        return
    # Repo-root invocation checks the source tree; elsewhere, the
    # package itself. Project rules (SIM005/SIM006) resolve names and
    # twin-test evidence across the whole repo, so the tests/ tree of
    # the repo holding that source joins the index.
    source = Path("src/repro")
    if not source.is_dir():
        source = Path(__file__).resolve().parent
    tests_dir = source.resolve().parent.parent / "tests"
    if not tests_dir.is_dir():
        raise SystemExit(
            f"check: no test tree to index at {tests_dir}: SIM005 and "
            "SIM006 find thread seeds, twin tests and oracles there; "
            "run from a checkout that holds src/repro and tests/")
    rules = [r.upper() for r in args.select] if args.select else None
    try:
        report = run_checks(args.paths or [source], rules=rules,
                            index_paths=[tests_dir])
    except KeyError as exc:
        raise SystemExit(f"check: {exc.args[0]}") from None
    print(render_text(report))
    if report.findings or report.errors:
        raise SystemExit(1)


_COMMANDS = {
    "table1": (_cmd_table1, "Table I link technologies"),
    "table2": (_cmd_table2, "Table II switch catalog"),
    "table3": (_cmd_table3, "Table III MCM packing"),
    "table4": (_cmd_table4, "Table IV study switch configs"),
    "fig5": (_cmd_fig5, "Fig. 5 fabric connectivity"),
    "fig6": (_cmd_fig6, "Fig. 6 CPU slowdown"),
    "fig7": (_cmd_fig7, "Fig. 7 LLC-miss correlation"),
    "fig8": (_cmd_fig8, "Fig. 8 latency sensitivity"),
    "fig9": (_cmd_fig9, "Fig. 9 GPU slowdown"),
    "fig11": (_cmd_fig11, "Fig. 11 CPU vs GPU"),
    "fig12": (_cmd_fig12, "Fig. 12 electronic comparison"),
    "power": (_cmd_power, "§VI-C power overhead"),
    "bandwidth": (_cmd_bandwidth, "§VI-A bandwidth analysis"),
    "isoperf": (_cmd_isoperf, "§VI-E iso-performance"),
    "linkbudget": (_cmd_linkbudget, "optical link budget check"),
    "claims": (_cmd_claims, "validate the paper-claims ledger"),
    "sweep": (_cmd_sweep, "run a registered parameter sweep (cached, "
                          "parallel)"),
    "scenario": (_cmd_scenario, "drive a fabric through a time-varying "
                                "workload scenario"),
    "arena": (_cmd_arena, "race one scenario through many backends in "
                          "a single pass and report iso-perf / "
                          "iso-power frontiers"),
    "check": (_cmd_check, "run the AST invariant linter (snapshot "
                          "completeness, determinism, protocol "
                          "conformance)"),
    "serve": (_cmd_serve, "run the fabric-sim service gateway "
                          "(sessions, SSE epoch streams, "
                          "suspend/resume/fork)"),
    "submit": (_cmd_submit, "submit a scenario to a running service "
                            "and stream its epochs"),
}

#: Order used by `repro all` (paper order).
_ALL_ORDER = ("table1", "table2", "table3", "table4", "fig5",
              "bandwidth", "fig6", "fig7", "fig8", "fig9", "fig11",
              "power", "fig12", "isoperf", "linkbudget")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    # One source of truth for backend names: argparse choices/help
    # derive from the plugin registry, so a newly registered backend
    # is immediately drivable from every subcommand.
    from repro.scenarios.registry import available_backends
    backend_choices = available_backends()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from 'Efficient Intra-Rack "
                    "Resource Disaggregation for HPC Using Co-Packaged "
                    "DWDM Photonics' (CLUSTER 2023).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in ("fig6", "fig7", "fig9", "fig11"):
            p.add_argument("--latency", type=float, default=35.0,
                           help="extra LLC<->memory latency in ns")
        if name == "table1":
            p.add_argument("--escape", type=float, default=2.0,
                           help="escape bandwidth target in TB/s")
        if name == "isoperf":
            p.add_argument("--empirical", action="store_true",
                           help="derive pooling factors from the "
                                "utilization model instead of the "
                                "paper's 4x/2x")
        if name == "claims":
            p.add_argument("--fast", action="store_true",
                           help="structural claims only (skip the "
                                "slowdown studies)")
        if name == "sweep":
            p.add_argument("experiment", nargs="?",
                           help="registered experiment name "
                                "(see --list)")
            p.add_argument("--list", action="store_true",
                           help="list registered sweeps and exit")
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes (default: CPU "
                                "count minus one, capped at 8)")
            p.add_argument("--cache-dir", default=".repro-cache",
                           help="result cache directory "
                                "(default: .repro-cache)")
            p.add_argument("--no-cache", action="store_true",
                           help="disable the result cache")
            p.add_argument("--force", action="store_true",
                           help="ignore cached results but refresh "
                                "them")
            p.add_argument("--shard", default=None, metavar="I/N",
                           help="run only this machine's stable-hash "
                                "slice of the grid (e.g. 0/4); point "
                                "all N invocations at one --cache-dir "
                                "and they converge on the full sweep")
        if name == "scenario":
            p.add_argument("scenario", nargs="?",
                           help="registered scenario name "
                                "(see --list)")
            p.add_argument("--backend", default="awgr",
                           choices=backend_choices,
                           help="registered fabric backend to drive "
                                "(default: awgr)")
            p.add_argument("--epochs", type=int, default=None,
                           help="override the scenario's epoch count")
            p.add_argument("--seed", type=int, default=0,
                           help="base RNG seed (default: 0)")
            p.add_argument("--repeats", type=int, default=1,
                           help="run N seeds and report mean with a "
                                "95%% CI (default: 1)")
            p.add_argument("--demo", action="store_true",
                           help="run the small built-in demo scenario")
            p.add_argument("--list", action="store_true",
                           help="list registered scenarios and exit")
            p.add_argument("--shards", type=int, default=None,
                           help="run as a chunked, checkpointed "
                                "replay split across N shards")
            p.add_argument("--shard-index", type=int, default=None,
                           help="with --shards: run only this shard's "
                                "chunks (omit to drive every chunk "
                                "from this process)")
            p.add_argument("--chunk-epochs", type=int, default=1440,
                           help="epochs per checkpointed chunk "
                                "(default: 1440, one day of 1-minute "
                                "epochs)")
            p.add_argument("--boundary", default="carry",
                           choices=("reset", "carry"),
                           help="chunk-boundary mode: carry (default; "
                                "restore the previous chunk's "
                                "backend snapshot — bit-identical to "
                                "a monolithic run, chunks pipeline "
                                "in order) or reset (fresh backend "
                                "per chunk, any shard computes any "
                                "chunk)")
            p.add_argument("--workers", type=int, default=1,
                           help="process-pool width for this "
                                "process's chunks; needs --boundary "
                                "reset (default: 1)")
            p.add_argument("--cache-dir", default=".repro-cache",
                           help="chunk checkpoint directory, shared "
                                "by all shards (default: "
                                ".repro-cache)")
            p.add_argument("--resume", action="store_true",
                           help="load chunk checkpoints already in "
                                "the cache instead of recomputing "
                                "them (interrupted-run resume / "
                                "multi-shard assembly)")
        if name == "arena":
            p.add_argument("scenario", nargs="?",
                           help="registered scenario name "
                                "(see --list)")
            p.add_argument("--backends", default=None,
                           help="comma-separated contenders in race "
                                "order (default: every registered "
                                f"backend: {','.join(backend_choices)})")
            p.add_argument("--epochs", type=int, default=None,
                           help="override the scenario's epoch count")
            p.add_argument("--seed", type=int, default=0,
                           help="base RNG seed (default: 0)")
            p.add_argument("--demo", action="store_true",
                           help="race the small built-in demo "
                                "scenario")
            p.add_argument("--list", action="store_true",
                           help="list registered backends with their "
                                "capability flags and exit")
        if name == "serve":
            p.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
            p.add_argument("--port", type=int, default=8177,
                           help="bind port; 0 picks an ephemeral one "
                                "(default: 8177)")
            p.add_argument("--workers", type=int, default=4,
                           help="session worker threads (default: 4)")
            p.add_argument("--slice-epochs", type=int, default=4,
                           help="epochs per scheduling slice "
                                "(default: 4)")
            p.add_argument("--store-dir", default=".repro-sessions",
                           help="suspended-session store directory; "
                                "empty string disables durability "
                                "(default: .repro-sessions)")
            p.add_argument("--verbose", action="store_true",
                           help="log every HTTP request")
        if name == "submit":
            p.add_argument("scenario", nargs="?", default="demo",
                           help="registered scenario name to submit "
                                "(default: demo)")
            p.add_argument("--url", default="http://127.0.0.1:8177",
                           help="gateway base URL (default: "
                                "http://127.0.0.1:8177)")
            p.add_argument("--backend", default="awgr",
                           choices=backend_choices,
                           help="registered fabric backend "
                                "(default: awgr)")
            p.add_argument("--seed", type=int, default=0,
                           help="base RNG seed (default: 0)")
            p.add_argument("--epochs", type=int, default=None,
                           help="override the scenario's epoch count")
            p.add_argument("--detach", action="store_true",
                           help="submit and exit without streaming")
        if name == "check":
            p.add_argument("paths", nargs="*",
                           help="files or directories to check "
                                "(default: src/repro)")
            p.add_argument("--select", action="append", metavar="RULE",
                           default=None,
                           help="check only this rule (repeatable)")
            p.add_argument("--list-rules", action="store_true",
                           help="print the rule catalog and exit")
    sub.add_parser("all", help="run every experiment in paper order")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "all":
        for name in _ALL_ORDER:
            handler, _ = _COMMANDS[name]
            defaults = build_parser().parse_args([name])
            handler(defaults)
            print()
        return 0
    handler, _ = _COMMANDS[args.command]
    handler(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
