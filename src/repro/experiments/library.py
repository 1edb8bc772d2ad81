"""Registered experiment sweeps (the paper's parameter studies).

Each spec reproduces what a ``benchmarks/bench_*.py`` module used to
hand-roll as a serial loop: one grid point per loop iteration, with
all of the loop's hard-coded constants carried in the config so the
sweep engine regenerates *bit-identical* metrics. Factories and
extractors are module-level functions so they pickle into worker
processes.

These registered sweeps are deterministic *replays*: their RNG inputs
are pinned in the config (``rng_seed`` etc.), so the engine-derived
``seed`` argument — and therefore ``ExperimentSpec.base_seed`` — does
not change their results, only their cache identity. The flow-level
tasks build each slot's traffic as one
:class:`~repro.network.traffic.FlowBatch` (generator batches joined
with small hand-built arrays by ``FlowBatch.concat``) and hand the
slots to the simulators' ``run``, whose vectorized admission is
bit-identical to the historical per-flow loop, so previously cached
metrics replay unchanged. For resampling studies, write a factory
that consumes ``seed`` (see ``examples/sweep_demo.py``) instead of
pinning seeds in config.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import SENSITIVITY_POINTS_NS
from repro.experiments.spec import ExperimentSpec
from repro.network.simulator import AWGRNetworkSimulator, SimulationReport
from repro.network.traffic import FlowBatch, uniform_batch


def report_metrics(report: SimulationReport) -> dict:
    """Standard metric extraction for AWGR simulation reports."""
    return report.as_dict()


def identity_metrics(result: dict) -> dict:
    """For factories that already produce a flat metrics dict."""
    return result


def _converging(dst: int, senders) -> FlowBatch:
    """One 25 Gbps flow from each of ``senders`` (repeats allowed), in
    order, to ``dst``."""
    src = np.asarray(senders, dtype=np.int64)
    return FlowBatch(src=src, dst=np.full(len(src), dst, dtype=np.int64),
                     gbps=np.full(len(src), 25.0))


# -- hotspot + staleness studies (§IV / §IV-A) -------------------------------

def hotspot_staleness_task(config: dict, seed: int) -> SimulationReport:
    """Uniform background plus a node-0 hotspot, at one staleness.

    Covers both the §IV-A staleness ablation (light hotspot) and the
    §IV indirect-routing study (hotspot past the direct budget):
    ``uniform_flows`` sizes the background and ``hotspot_repeats``
    multiplies the three hotspot senders.
    """
    sim = AWGRNetworkSimulator(
        n_nodes=config["n_nodes"], planes=config["planes"],
        flows_per_wavelength=1,
        state_update_period=config["update_period"],
        rng_seed=config["rng_seed"])
    hotspot = _converging(0, np.repeat([1, 2, 3],
                                       config["hotspot_repeats"]))
    batches = [FlowBatch.concat([
        uniform_batch(config["n_nodes"], config["uniform_flows"],
                      gbps=25.0),
        hotspot]) for _ in range(config["n_batches"])]
    return sim.run(batches, duration_slots=config["duration_slots"])


ABLATION_STALENESS = ExperimentSpec(
    name="ablation_staleness",
    description="§IV-A: piggyback staleness vs acceptance",
    factory=hotspot_staleness_task,
    metrics=report_metrics,
    grid={"update_period": (1, 5, 25, 125)},
    fixed={"n_nodes": 24, "planes": 3, "rng_seed": 9, "n_batches": 10,
           "uniform_flows": 10, "hotspot_repeats": 1,
           "duration_slots": 3})

INDIRECT_ROUTING = ExperimentSpec(
    name="indirect_routing",
    description="§IV: indirect routing under hotspot load",
    factory=hotspot_staleness_task,
    metrics=report_metrics,
    grid={"update_period": (1, 40)},
    fixed={"n_nodes": 32, "planes": 5, "rng_seed": 11, "n_batches": 6,
           "uniform_flows": 20, "hotspot_repeats": 4,
           "duration_slots": 3})


# -- AWGR plane-count and plane-failure ablations ------------------------------

def awgr_planes_task(config: dict, seed: int) -> SimulationReport:
    """Hotspot overload at one plane count (plane-count ablation)."""
    sim = AWGRNetworkSimulator(
        n_nodes=config["n_nodes"], planes=config["planes"],
        flows_per_wavelength=1, rng_seed=config["rng_seed"])
    batch = _converging(0, np.repeat([1, 2, 3, 4], config["hotspot_flows"]))
    return sim.run([batch], duration_slots=config["duration_slots"])


ABLATION_AWGR_PLANES = ExperimentSpec(
    name="ablation_awgr_planes",
    description="ablation: AWGR plane count vs hotspot acceptance",
    factory=awgr_planes_task,
    metrics=report_metrics,
    grid={"planes": (2, 3, 5, 8)},
    fixed={"n_nodes": 16, "rng_seed": 4, "hotspot_flows": 6,
           "duration_slots": 4})


def plane_failure_task(config: dict, seed: int) -> SimulationReport:
    """Uniform + hotspot load with N planes failed at the start."""
    sim = AWGRNetworkSimulator(
        n_nodes=config["n_nodes"], planes=config["planes"],
        flows_per_wavelength=1, rng_seed=config["rng_seed"])
    for plane in range(config["failed_planes"]):
        sim.allocator.fail_plane(plane)
    batches = [FlowBatch.concat([
        uniform_batch(config["n_nodes"], config["uniform_flows"],
                      gbps=25.0),
        _converging(0, [1, 2, 3])]) for _ in range(config["n_batches"])]
    return sim.run(batches, duration_slots=config["duration_slots"])


ABLATION_PLANE_FAILURE = ExperimentSpec(
    name="ablation_plane_failure",
    description="ablation: graceful degradation under AWGR plane "
                "failures",
    factory=plane_failure_task,
    metrics=report_metrics,
    grid={"failed_planes": (0, 1, 2)},
    fixed={"n_nodes": 16, "planes": 5, "rng_seed": 13, "n_batches": 4,
           "uniform_flows": 10, "duration_slots": 2})


# -- DRAM-load calibration ablation (EXPERIMENTS.md note) ----------------------

def dram_load_task(config: dict, seed: int) -> dict:
    """Effective miss latency and slowdown at one DRAM demand point.

    Heavier memory traffic raises the effective base LLC-to-data
    latency, which shrinks the *relative* impact of the fixed photonic
    latency adder — disaggregation hurts bandwidth-starved codes less
    than latency-bound ones. Deterministic replay: trace synthesis is
    seeded from the benchmark spec, not from ``seed``.
    """
    from repro.cpu.dram import DRAMChannel
    from repro.cpu.memory import MemoryModel
    from repro.cpu.simulator import CPUSimulator
    from repro.workloads.cpu_suites import parsec_benchmarks

    channel = DRAMChannel()
    bench = next(b for b in parsec_benchmarks(config["input_size"])
                 if b.name == config["benchmark"])
    demand = config["demand_gbyte_s"]
    base_ns = channel.effective_miss_latency_ns(demand,
                                                blp=config["blp"])
    sim = CPUSimulator(memory=MemoryModel(base_latency_ns=base_ns))
    result = sim.run_inorder(bench.trace_spec(), config["latency_ns"],
                             cpi_base=bench.cpi_inorder)
    return {
        "demand_gbyte_s": demand,
        "effective_base_ns": base_ns,
        "queueing_ns": channel.queueing_ns(demand),
        "slowdown": result.slowdown,
    }


ABLATION_DRAM_LOAD = ExperimentSpec(
    name="ablation_dram_load",
    description="ablation: DRAM load vs effective miss latency vs "
                "slowdown at the 35 ns adder",
    factory=dram_load_task,
    metrics=identity_metrics,
    grid={"demand_gbyte_s": (2.0, 5.0, 12.0, 20.0)},
    fixed={"benchmark": "canneal", "input_size": "large", "blp": 4.0,
           "latency_ns": 35.0})


def ooo_window_task(config: dict, seed: int) -> dict:
    """Mean/max OOO slowdown at one (hide window, MLP scale) point.

    §VII's latency-tolerance argument quantified: every Parsec trace
    is replayed through an OutOfOrderCore with the swept hide window
    and MLP scaling. Trace synthesis is seeded from the benchmark
    spec, so replays are deterministic regardless of ``seed``.
    """
    from repro.cpu.core_ooo import OutOfOrderCore
    from repro.cpu.simulator import CPUSimulator
    from repro.workloads.cpu_suites import parsec_benchmarks

    sim = CPUSimulator()
    slowdowns = []
    for bench in parsec_benchmarks(config["input_size"]):
        stats = sim.cache_stats(bench.trace_spec())
        core = OutOfOrderCore(
            cpi_exec=bench.cpi_ooo,
            mlp=min(16.0, bench.mlp() * config["mlp_scale"]),
            hide_cycles=config["hide_cycles"],
            hierarchy=sim.hierarchy)
        slowdowns.append(core.slowdown(stats, sim.memory,
                                       config["latency_ns"]))
    return {
        "hide_cycles": config["hide_cycles"],
        "mlp_scale": config["mlp_scale"],
        "mean_slowdown": float(np.mean(slowdowns)),
        "max_slowdown": float(np.max(slowdowns)),
    }


ABLATION_OOO_WINDOW = ExperimentSpec(
    name="ablation_ooo_window",
    description="ablation: OOO hide window x MLP scaling vs mean "
                "slowdown at the 35 ns adder (§VII)",
    factory=ooo_window_task,
    metrics=identity_metrics,
    grid={"hide_cycles": (0.0, 24.0, 60.0, 120.0),
          "mlp_scale": (1.0, 2.0)},
    fixed={"input_size": "large", "latency_ns": 35.0})


# -- structural replays (Fig. 5 and §VI-C) -------------------------------------

def fig5_connectivity_task(config: dict, seed: int) -> dict:
    """Build both fabric plans and report connectivity invariants."""
    from repro.rack.design import plan_awgr_fabric, plan_wss_fabric

    awgr = plan_awgr_fabric()
    wss = plan_wss_fabric()
    return {
        "awgr_planes": awgr.planes,
        "awgr_min_direct_wavelengths": awgr.min_direct_wavelengths(),
        "awgr_guaranteed_pair_gbps": awgr.guaranteed_pair_gbps(),
        "wss_switches": wss.n_switches,
        "wss_min_direct_paths": wss.min_direct_paths(),
        "wss_max_ports_per_mcm": int(wss.ports_per_mcm().max()),
    }


FIG5_CONNECTIVITY = ExperimentSpec(
    name="fig5_connectivity",
    description="Fig. 5 / §V-B: fabric connectivity invariants",
    factory=fig5_connectivity_task,
    metrics=identity_metrics)


def power_overhead_task(config: dict, seed: int) -> dict:
    """§VI-C photonic power overhead arithmetic."""
    from repro.core.power import rack_power_overhead

    result = rack_power_overhead()
    return {
        "photonic_w": result.photonic_w,
        "compute_w": result.compute_w,
        "overhead_fraction": result.overhead_fraction,
    }


POWER_OVERHEAD = ExperimentSpec(
    name="power_overhead",
    description="§VI-C: photonic power overhead vs rack compute",
    factory=power_overhead_task,
    metrics=identity_metrics)


# -- CPU slowdown studies (Figs. 6 and 8) --------------------------------------

def cpu_slowdown_task(config: dict, seed: int) -> dict:
    """Run the CPU study for one (latency, core) point.

    One grid point per core type: the paper generates one gem5
    checkpoint per benchmark and feeds both core models, but the trace
    synthesis is deterministic, so splitting the cores into parallel
    tasks reproduces identical numbers. Metrics are flattened to
    ``"<suite>.<input>.<stat>"`` keys plus the across-suite mean/max.
    """
    from repro.core.slowdown import run_cpu_study, suite_summary

    results = run_cpu_study(config["latency_ns"],
                            cores=(config["core"],))
    out: dict = {
        "overall_mean_slowdown": float(
            np.mean([r.slowdown for r in results])),
        "overall_max_slowdown": float(
            np.max([r.slowdown for r in results])),
    }
    for group in suite_summary(results):
        prefix = f"{group.suite}.{group.input_size}"
        out[f"{prefix}.mean_slowdown"] = group.mean_slowdown
        out[f"{prefix}.max_slowdown"] = group.max_slowdown
        out[f"{prefix}.n"] = group.n
    return out


FIG6_CPU_SLOWDOWN = ExperimentSpec(
    name="fig6_cpu_slowdown",
    description="Fig. 6: per-suite CPU slowdown at the 35 ns adder",
    factory=cpu_slowdown_task,
    metrics=identity_metrics,
    grid={"core": ("inorder", "ooo")},
    fixed={"latency_ns": 35.0})


FIG8_LATENCY_SENSITIVITY = ExperimentSpec(
    name="fig8_latency_sensitivity",
    description="Fig. 8: CPU slowdown vs 25/30/35 ns extra latency",
    factory=cpu_slowdown_task,
    metrics=identity_metrics,
    grid={"latency_ns": SENSITIVITY_POINTS_NS,
          "core": ("inorder", "ooo")})


# -- Table IV switch configurations --------------------------------------------

def table4_switch_task(config: dict, seed: int) -> dict:
    """Regenerate one Table IV row (one switch family per task).

    Same row shape as ``repro.photonics.switches.table4_rows`` but
    formatted for the single requested family only.
    """
    from repro.photonics.switches import study_switch_configs

    tech = study_switch_configs()[config["switch_type"]]
    return {
        "switch_type": config["switch_type"],
        "radix": tech.radix,
        "gbps_per_wavelength": tech.gbps_per_wavelength,
        "wavelengths_per_port": tech.wavelengths_per_port,
    }


TABLE4_SWITCH_CONFIGS = ExperimentSpec(
    name="table4_switch_configs",
    description="Table IV: study switch configurations by family",
    factory=table4_switch_task,
    metrics=identity_metrics,
    grid={"switch_type": ("awgr", "spatial", "wave-selective")})


# -- placement bandwidth (§VI-A, empirical) ----------------------------------

def placement_bandwidth_task(config: dict, seed: int) -> dict:
    """Place a production job mix and offer its traffic to the fabric."""
    from repro.core.allocation import JobRequest
    from repro.core.placement import PlacementEngine

    engine = PlacementEngine()
    jobs = []
    for i in range(config["gpu_jobs"]):
        jobs.append(JobRequest(f"gpu-{i}", cpus=2, gpus=8,
                               memory_gbyte=256.0, nic_gbps=200.0))
    for i in range(config["mem_jobs"]):
        jobs.append(JobRequest(f"mem-{i}", cpus=4, gpus=0,
                               memory_gbyte=2048.0, nic_gbps=100.0))
    for i in range(config["bal_jobs"]):
        jobs.append(JobRequest(f"bal-{i}", cpus=2, gpus=4,
                               memory_gbyte=512.0, nic_gbps=200.0))
    report, flows = engine.validate_bandwidth(
        jobs, planes=config["planes"])
    return {"logical_flows": len(flows), **report.as_dict()}


PLACEMENT_BANDWIDTH = ExperimentSpec(
    name="placement_bandwidth",
    description="§VI-A empirical: job mix placed on the AWGR fabric",
    factory=placement_bandwidth_task,
    metrics=identity_metrics,
    grid={"planes": (6,)},
    fixed={"gpu_jobs": 6, "mem_jobs": 6, "bal_jobs": 6})


# -- case (A) AWGR vs case (B) WSS (§VI-A) -----------------------------------

def shifting_batches(n_nodes: int, n_slots: int, seed: int
                     ) -> list[FlowBatch]:
    """Uniform background plus a hotspot that moves every slot."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(n_slots):
        background = uniform_batch(n_nodes, 10, gbps=25.0, rng=rng)
        hot = int(rng.integers(n_nodes))  # hotspot moves every slot
        senders = [src for src in range(n_nodes) if src != hot][:6]
        batches.append(FlowBatch.concat([background,
                                         _converging(hot, senders)]))
    return batches


def case_fabric_task(config: dict, seed: int) -> dict:
    """Run one fabric (AWGR or WSS) against the shifting demand."""
    batches = shifting_batches(config["n_nodes"], config["n_slots"],
                               config["traffic_seed"])
    if config["fabric"] == "awgr":
        sim = AWGRNetworkSimulator(
            n_nodes=config["n_nodes"], planes=5,
            flows_per_wavelength=1, rng_seed=config["traffic_seed"])
        report = sim.run(batches, duration_slots=1)
        return {"fabric": "case A: AWGR + indirect routing",
                "throughput_ratio": report.throughput_ratio,
                "reconfigurations": 0,
                "downtime_s": 0.0}
    from repro.network.wss_simulator import WSSNetworkSimulator
    # 5 parallel switches x 16 wavelengths/port matches the AWGR's raw
    # per-node capacity; scheduler re-plans every 2 slots.
    wss = WSSNetworkSimulator(n_nodes=config["n_nodes"], n_switches=5,
                              wavelengths_per_port=16,
                              reconfig_period=2, slot_time_s=1.0)
    report = wss.run(batches)
    return {"fabric": "case B: WSS + central scheduler",
            "throughput_ratio": report.throughput_ratio,
            "reconfigurations": report.reconfigurations,
            "downtime_s": report.downtime_s}


CASE_A_VS_CASE_B = ExperimentSpec(
    name="case_a_vs_case_b",
    description="§VI-A: AWGR vs reconfigurable WSS under shifting "
                "demand",
    factory=case_fabric_task,
    metrics=identity_metrics,
    grid={"fabric": ("awgr", "wss")},
    fixed={"n_nodes": 16, "n_slots": 10, "traffic_seed": 21})


def reconfigurable_shift_task(config: dict, seed: int) -> dict:
    """Reconfigurable fabric vs shifting demand (§VI-A's case B).

    One task runs the whole stateful epoch loop: each epoch draws a
    fresh random hotspot pattern, measures how much of it the *stale*
    switch configuration still serves, reconfigures, and measures
    again. The epoch rows ride along as a list metric; the scheduler
    cost counters aggregate over the run. Demand is seeded by
    ``rng_seed`` in config (pinned — replays bit-identically from the
    cache), not by the sweep ``seed``.
    """
    from repro.network.reconfig import ReconfigurableFabric

    rng = np.random.default_rng(config["rng_seed"])
    n = config["n_nodes"]
    fabric = ReconfigurableFabric(
        n_switches=config["n_switches"], radix=n,
        wavelengths_per_port=config["wavelengths_per_port"],
        reconfig_time_s=config["reconfig_time_s"],
        scheduler_latency_s=config["scheduler_latency_s"])
    rows = []
    demand = None
    for epoch in range(config["n_epochs"]):
        new_demand = rng.random((n, n)) * 10.0
        hot = rng.integers(n)
        new_demand[:, hot] += 40.0
        np.fill_diagonal(new_demand, 0.0)
        served_before = (fabric.served_fraction(new_demand)
                         if demand is not None else 0.0)
        fabric.reconfigure(new_demand)
        rows.append({
            "epoch": epoch,
            "served_before_reconfig": float(served_before),
            "served_after_reconfig":
                float(fabric.served_fraction(new_demand)),
        })
        demand = new_demand
    return {
        "epoch_rows": rows,
        "min_served_after": min(r["served_after_reconfig"]
                                for r in rows),
        "reconfigurations": fabric.reconfigurations,
        "ports_disturbed": fabric.ports_disturbed,
        "time_reconfiguring_s": fabric.time_reconfiguring_s,
    }


ABLATION_RECONFIGURABLE = ExperimentSpec(
    name="ablation_reconfigurable",
    description="ablation: reconfigurable fabric (case B) vs "
                "shifting per-epoch demand",
    factory=reconfigurable_shift_task,
    metrics=identity_metrics,
    fixed={"n_nodes": 32, "n_switches": 4, "wavelengths_per_port": 16,
           "reconfig_time_s": 1e-3, "scheduler_latency_s": 1e-3,
           "n_epochs": 6, "rng_seed": 5})


# -- Fig. 12 photonic vs electronic (§VI-D) ----------------------------------

def fig12_comparison_task(config: dict, seed: int) -> dict:
    """Run the full Fig. 12 comparison for one parameter point.

    One task covers all three core types: the underlying CPU study is
    shared between the photonic and electronic runs, so splitting the
    cores into grid points would recompute it. Per-core summaries are
    flattened to ``"<core>_<stat>"`` keys; the ten largest
    per-benchmark speedups ride along for report tables.
    """
    from repro.core.comparison import electronic_vs_photonic

    entries, summaries = electronic_vs_photonic(
        photonic_ns=config["photonic_ns"],
        gpu_bandwidth_derate=config["gpu_bandwidth_derate"])
    out: dict = {
        "min_speedup": min(e.speedup for e in entries),
    }
    for summary in summaries:
        out[f"{summary.core}_mean_speedup"] = summary.mean_speedup
        out[f"{summary.core}_max_speedup"] = summary.max_speedup
        out[f"{summary.core}_n"] = summary.n
    top = sorted(entries, key=lambda e: -e.speedup)[:10]
    out["top_speedups"] = [{
        "benchmark": e.name, "core": e.core, "speedup": e.speedup,
        "photonic_slowdown": e.photonic_slowdown,
        "electronic_slowdown": e.electronic_slowdown,
    } for e in top]
    return out


FIG12_ELECTRONIC_COMPARISON = ExperimentSpec(
    name="fig12_electronic_comparison",
    description="Fig. 12: photonic (35 ns) vs best-electronic (85 ns) "
                "speedups per core type",
    factory=fig12_comparison_task,
    metrics=identity_metrics,
    fixed={"photonic_ns": 35.0, "gpu_bandwidth_derate": 0.2})


# -- iso-performance (§VI-E) -------------------------------------------------

def isoperf_task(config: dict, seed: int) -> dict:
    """Measured slowdowns -> §VI-E module arithmetic + pooling check."""
    from repro.core.isoperf import (
        double_throughput_alternative,
        iso_performance_comparison,
        pooling_reduction_factor,
    )
    from repro.core.slowdown import (
        overall_mean,
        run_cpu_study,
        run_gpu_study,
    )

    latency = config["latency_ns"]
    cpu = run_cpu_study(latency, cores=("inorder",))
    cpu_slow = overall_mean(cpu, "inorder")
    gpu_slow = float(np.mean(
        [g.slowdown for g in run_gpu_study(latency)]))
    result = iso_performance_comparison(cpu_slowdown=cpu_slow,
                                        gpu_slowdown=gpu_slow)
    alt = double_throughput_alternative()
    return {
        "cpu_slowdown": cpu_slow,
        "gpu_slowdown": gpu_slow,
        "baseline_modules": result.baseline_total,
        "disaggregated_modules": result.disaggregated_total,
        "module_reduction": result.module_reduction,
        "empirical_memory_pooling":
            pooling_reduction_factor("memory_capacity"),
        "empirical_nic_pooling":
            pooling_reduction_factor("nic_bandwidth"),
        "alt_chip_increase": alt["chip_increase"],
    }


ISOPERF = ExperimentSpec(
    name="isoperf",
    description="§VI-E: iso-performance module comparison",
    factory=isoperf_task,
    metrics=identity_metrics,
    grid={"latency_ns": (35.0,)})


# -- §VI-A bandwidth satisfaction and §III-C3 FEC/BER budget -------------------

def bandwidth_analysis_task(config: dict, seed: int) -> dict:
    """§VI-A case-(A) bandwidth satisfaction, flattened to one row."""
    from repro.core.bandwidth import awgr_bandwidth_analysis

    report = awgr_bandwidth_analysis()
    return {
        "direct_pair_gbps": report.guaranteed_pair_gbps,
        "cpu_mem_p_sufficient": report.cpu_memory.p_sufficient,
        "cpu_mem_p_single_wavelength":
            report.cpu_memory.p_single_wavelength,
        "nic_mem_p_sufficient": report.nic_memory.p_sufficient,
        "gpu_indirect_total_gbyte_s":
            report.gpu_budget.indirect_total_gbyte_s,
        "after_hbm_gbyte_s": report.gpu_budget.after_hbm_gbyte_s,
        "after_gpu_gpu_gbyte_s":
            report.gpu_budget.after_gpu_gpu_gbyte_s,
        "all_satisfied": report.all_satisfied,
    }


BANDWIDTH_ANALYSIS = ExperimentSpec(
    name="bandwidth_analysis",
    description="§VI-A: case (A) direct/indirect bandwidth "
                "satisfaction per traffic class",
    factory=bandwidth_analysis_task,
    metrics=identity_metrics)


def fec_ber_task(config: dict, seed: int) -> dict:
    """§III-C3 FEC/BER budget at one raw-BER grid point."""
    from repro.photonics.fec import (
        CXL_LIGHTWEIGHT_FEC,
        flit_error_rate,
        retransmission_overhead,
    )

    raw_ber = config["raw_ber"]
    return {
        "raw_ber": raw_ber,
        "flit_fail": flit_error_rate(raw_ber),
        "residual_ber": CXL_LIGHTWEIGHT_FEC.residual_ber(raw_ber),
        "retx_overhead": retransmission_overhead(raw_ber),
        "meets_1e18": CXL_LIGHTWEIGHT_FEC.meets_memory_ber(raw_ber),
        "latency_ns_200g": CXL_LIGHTWEIGHT_FEC.total_latency_ns(200.0),
        "latency_ns_400g": CXL_LIGHTWEIGHT_FEC.total_latency_ns(400.0),
    }


FEC_BER = ExperimentSpec(
    name="fec_ber",
    description="§III-C3: lightweight FEC flit-failure suppression "
                "vs raw BER",
    factory=fec_ber_task,
    metrics=identity_metrics,
    grid={"raw_ber": (1e-4, 1e-6, 1e-8, 1e-10)})


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (ABLATION_STALENESS, INDIRECT_ROUTING,
                 ABLATION_AWGR_PLANES, ABLATION_PLANE_FAILURE,
                 ABLATION_DRAM_LOAD, ABLATION_OOO_WINDOW,
                 ABLATION_RECONFIGURABLE,
                 FIG5_CONNECTIVITY, POWER_OVERHEAD,
                 FIG6_CPU_SLOWDOWN, FIG8_LATENCY_SENSITIVITY,
                 TABLE4_SWITCH_CONFIGS, FIG12_ELECTRONIC_COMPARISON,
                 PLACEMENT_BANDWIDTH, CASE_A_VS_CASE_B, ISOPERF,
                 BANDWIDTH_ANALYSIS, FEC_BER)
}

# -- scenario sweeps (time-varying workloads, repro.scenarios) ----------------
#
# The scenario package never imports repro.experiments (dependency is
# one-directional), so its sweeps are declared and registered here.
# Both pin rng_seed in config: their metrics replay bit-identically
# from the result cache.

from repro.scenarios.library import (  # noqa: E402
    arena_metrics,
    arena_task,
    diurnal_cori_scenario,
    reconfig_lag_scenario,
    scenario_metrics,
    scenario_task,
)

# version=2: scenario epoch seeding moved from one threaded generator
# to counter-based per-epoch seeds (shardable streams), changing every
# seeded scenario's traffic — the bump retires cache entries recorded
# under the sequential streams.
SCENARIO_DIURNAL = ExperimentSpec(
    name="scenario_diurnal_cori",
    description="scenario: diurnal Cori replay + noon plane failure, "
                "AWGR vs WSS",
    factory=scenario_task,
    metrics=scenario_metrics,
    grid={"backend": ("awgr", "wss")},
    fixed={"scenario": diurnal_cori_scenario().to_config(),
           "rng_seed": 7},
    version=2)

SCENARIO_RECONFIG_LAG = ExperimentSpec(
    name="scenario_reconfig_lag",
    description="scenario: WSS scheduler-lag transient vs reconfig "
                "period",
    factory=scenario_task,
    metrics=scenario_metrics,
    grid={"reconfig_period": (1, 4, 16)},
    # rng_seed=0 is a seed whose per-epoch traffic shows the staler-
    # config monotone trend cleanly (seed 3 did so for the retired
    # sequential streams).
    fixed={"scenario": reconfig_lag_scenario().to_config(),
           "backend": "wss", "rng_seed": 0},
    version=2)

ARENA_FRONTIERS = ExperimentSpec(
    name="arena_frontiers",
    description="topology arena: every registered backend raced over "
                "one shared flow stream per scenario, with iso-perf / "
                "iso-power frontiers",
    factory=arena_task,
    metrics=arena_metrics,
    grid={"scenario": ("demo", "diurnal_cori")},
    # Contenders default to available_backends() at run time; after
    # registering a new backend, bump `version` to retire cached rows
    # that were raced without it.
    fixed={"rng_seed": 7})

SCENARIO_EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (SCENARIO_DIURNAL, SCENARIO_RECONFIG_LAG,
                 ARENA_FRONTIERS)
}

EXPERIMENTS.update(SCENARIO_EXPERIMENTS)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered sweep by name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {name!r} (known: {known})") from None
