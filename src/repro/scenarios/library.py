"""Registered scenarios and their sweep-engine task functions.

Scenario *builders* compose the episode/event vocabulary into the
dynamic workloads the ROADMAP asks for; the :data:`SCENARIOS` registry
names the canonical instances the CLI serves. :func:`scenario_task` /
:func:`scenario_metrics` are the module-level factory pair the sweep
engine fans out over worker processes — the
:class:`~repro.experiments.spec.ExperimentSpec` grids built on them
are registered in :mod:`repro.experiments.library` (which imports this
module; this package deliberately never imports ``repro.experiments``
so the dependency stays one-directional).
"""

from __future__ import annotations

from repro.scenarios.arena import run_arena
from repro.scenarios.episodes import Episode
from repro.scenarios.registry import make_backend
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.scenario import Scenario, ScenarioEvent

#: Flat config keys forwarded to the backend constructor by
#: :func:`scenario_task` (so sweep grids get clean columns).
BACKEND_PARAM_KEYS = ("planes", "flows_per_wavelength",
                      "state_update_period", "duration_slots",
                      "n_switches", "wavelengths_per_port",
                      "reconfig_period", "slot_time_s",
                      "technology", "lanes_per_endpoint",
                      "links_per_pair", "gbps_per_link",
                      "n_groups", "intra_gbps", "global_links",
                      "gbps_per_global_link", "routing")


# -- scenario builders ---------------------------------------------------------

def demo_scenario(n_nodes: int = 8, n_epochs: int = 6) -> Scenario:
    """Small, fast scenario for smoke tests and the CLI ``--demo``."""
    return Scenario(
        name="demo",
        n_nodes=n_nodes,
        n_epochs=n_epochs,
        description="uniform background + a bursty hotspot + a "
                    "mid-run plane failure",
        episodes=(
            Episode(kind="uniform", flows={"dist": "poisson", "mean": 6},
                    gbps=25.0),
            Episode(kind="hotspot", start=1,
                    flows={"dist": "pareto", "minimum": 2, "alpha": 1.5},
                    gbps=25.0,
                    envelope={"kind": "burst", "period": 3, "duty": 0.4},
                    params={"hotspot": 0}),
        ),
        events=(
            # Epoch 1, not midway: the CI smoke step truncates the
            # demo to 3 epochs and must still exercise apply_event.
            ScenarioEvent(epoch=1, action="fail_plane", value=0),
        ))


def diurnal_cori_scenario(n_nodes: int = 16, n_epochs: int = 24,
                          failure_epoch: int = 12,
                          repair_epoch: int = 20) -> Scenario:
    """Diurnal Cori replay with a mid-run AWGR plane failure.

    One epoch is one hour: CPU->memory demand replays the §II-A Cori
    memory-bandwidth profile against a *pooled* memory subset (the
    disaggregation premise — several CPUs share each memory module)
    under a day-shaped envelope; diurnal uniform chatter rides
    underneath; a checkpoint burst converges on one I/O node late
    morning and a GPU collective occupies the afternoon. A fabric
    plane dies at ``failure_epoch`` (noon — peak load, mid-checkpoint,
    the worst case) and is repaired at ``repair_epoch``.
    """
    cpu_nodes = list(range(n_nodes // 2))
    mem_nodes = list(range(n_nodes // 2, n_nodes - n_nodes // 4))
    gpu_nodes = cpu_nodes[:4]
    io_node = n_nodes - 1
    return Scenario(
        name="diurnal_cori",
        n_nodes=n_nodes,
        n_epochs=n_epochs,
        description="diurnal Cori memory-bandwidth replay + checkpoint "
                    "and collective bursts, with a plane failure at "
                    "noon",
        episodes=(
            Episode(kind="cori-replay",
                    envelope={"kind": "diurnal", "period": 24,
                              "low": 0.15, "high": 1.0},
                    params={"nodes": cpu_nodes,
                            "memory_nodes": mem_nodes,
                            "resource": "memory_bandwidth",
                            "peak_gbps": 1096.0}),
            Episode(kind="uniform",
                    flows={"dist": "poisson", "mean": 10},
                    gbps=25.0,
                    envelope={"kind": "diurnal", "period": 24,
                              "low": 0.3, "high": 1.0}),
            Episode(kind="hotspot", start=10, duration=4,
                    flows={"dist": "pareto", "minimum": 18,
                           "alpha": 1.6},
                    gbps=25.0, params={"hotspot": io_node}),
            Episode(kind="collective", start=13, duration=6,
                    gbps=75.0,
                    params={"nodes": gpu_nodes}),
        ),
        events=(
            ScenarioEvent(epoch=failure_epoch, action="fail_plane",
                          value=0),
            ScenarioEvent(epoch=repair_epoch, action="repair_plane",
                          value=0),
        ))


def reconfig_lag_scenario(n_nodes: int = 12,
                          n_epochs: int = 12) -> Scenario:
    """Reconfiguration-lag transient for the WSS backend.

    Steady uniform load plus a hotspot that switches on mid-run; at the
    same epoch the centralized scheduler's reconfiguration slows to a
    50 ms lag, modeling a controller under stress — the §IV-B overhead
    source the paper charges against case (B). Sweeping the backend's
    ``reconfig_period`` over this scenario trades per-slot downtime
    (frequent reconfiguration) against stale configurations (rare
    reconfiguration) around the demand shift.
    """
    return Scenario(
        name="reconfig_lag",
        n_nodes=n_nodes,
        n_epochs=n_epochs,
        description="demand shift meets a slowed central scheduler",
        episodes=(
            Episode(kind="uniform",
                    flows={"dist": "poisson", "mean": 8},
                    gbps=25.0),
            Episode(kind="hotspot", start=n_epochs // 2,
                    flows=6, gbps=25.0, params={"hotspot": 1}),
        ),
        events=(
            ScenarioEvent(epoch=n_epochs // 2,
                          action="set_reconfig_time", value=0.05),
        ))


def week_cori_scenario(n_nodes: int = 16, days: int = 7,
                       epochs_per_day: int = 1440) -> Scenario:
    """Week-scale diurnal Cori replay at 1-minute epochs.

    The sharded runner's flagship workload: seven diurnal cycles of
    the §II-A Cori memory-bandwidth replay plus uniform chatter, a
    nightly checkpoint burst toward the I/O node, and a mid-week
    plane-failure transient (fails Wednesday noon, repaired eight
    hours later). At 10080 epochs this is meant to be driven through
    :class:`~repro.scenarios.sharding.ShardedScenarioRunner` with
    per-day chunks (``chunk_epochs=1440``), one checkpoint per
    simulated day.
    """
    n_epochs = days * epochs_per_day
    cpu_nodes = list(range(n_nodes // 2))
    mem_nodes = list(range(n_nodes // 2, n_nodes - n_nodes // 4))
    io_node = n_nodes - 1
    noon_wednesday = 3 * epochs_per_day + epochs_per_day // 2
    repair = noon_wednesday + epochs_per_day // 3
    return Scenario(
        name="week_cori",
        n_nodes=n_nodes,
        n_epochs=n_epochs,
        description=f"{days}-day diurnal Cori replay at 1-minute "
                    "epochs with a mid-week plane failure (run "
                    "sharded, per-day checkpoints)",
        episodes=(
            Episode(kind="cori-replay",
                    envelope={"kind": "diurnal",
                              "period": epochs_per_day,
                              "low": 0.15, "high": 1.0},
                    params={"nodes": cpu_nodes,
                            "memory_nodes": mem_nodes,
                            "resource": "memory_bandwidth",
                            "peak_gbps": 1096.0}),
            Episode(kind="uniform",
                    flows={"dist": "poisson", "mean": 6},
                    gbps=25.0,
                    envelope={"kind": "diurnal",
                              "period": epochs_per_day,
                              "low": 0.3, "high": 1.0}),
            # Nightly checkpoint: a burst converging on the I/O node
            # for the first ~5% of every day (phase 0 = midnight).
            Episode(kind="hotspot",
                    flows={"dist": "pareto", "minimum": 12,
                           "alpha": 1.6},
                    gbps=25.0,
                    envelope={"kind": "burst",
                              "period": epochs_per_day,
                              "duty": 0.05},
                    params={"hotspot": io_node}),
        ),
        events=(
            ScenarioEvent(epoch=noon_wednesday, action="fail_plane",
                          value=0),
            ScenarioEvent(epoch=repair, action="repair_plane",
                          value=0),
        ))


#: Canonical instances served by ``repro scenario`` and the tests.
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (demo_scenario(), diurnal_cori_scenario(),
              reconfig_lag_scenario(), week_cori_scenario())
}


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown scenario {name!r} (known: {known})") from None


# -- sweep-engine bindings -----------------------------------------------------

def scenario_task(config: dict, seed: int):
    """Sweep factory: one (scenario, backend) run to a ScenarioReport.

    ``config["scenario"]`` is a :meth:`Scenario.to_config` dict (or a
    registered scenario name), ``config["backend"]`` any name in
    :func:`~repro.scenarios.registry.available_backends`; flat
    backend-parameter
    keys (:data:`BACKEND_PARAM_KEYS`) pass through to the constructor.
    ``config["rng_seed"]`` pins the run for bit-identical replays;
    omit it to let the engine-derived ``seed`` resample per task (the
    ``repeated()`` multi-seed path).
    """
    described = config["scenario"]
    scenario = (get_scenario(described) if isinstance(described, str)
                else Scenario.from_config(described))
    if "n_epochs" in config:
        scenario = scenario.with_epochs(int(config["n_epochs"]))
    run_seed = int(config.get("rng_seed", seed))
    params = {k: config[k] for k in BACKEND_PARAM_KEYS if k in config}
    backend = make_backend(config["backend"], scenario.n_nodes,
                           seed=run_seed, **params)
    return ScenarioRunner(scenario, backend).run(seed=run_seed)


def scenario_metrics(report) -> dict:
    """Aggregate-metrics extraction for scenario sweep tasks."""
    return report.as_dict()


def arena_task(config: dict, seed: int):
    """Sweep factory: one one-pass arena race to an ArenaReport.

    ``config["scenario"]`` is a registered name or a
    :meth:`Scenario.to_config` dict; ``config["backends"]`` an
    optional list (or comma-joined string) of contenders, defaulting
    to every registered backend; ``config["rng_seed"]`` pins the run
    (falling back to the engine-derived ``seed``); ``n_epochs``
    trims the race.
    """
    described = config["scenario"]
    scenario = (get_scenario(described) if isinstance(described, str)
                else Scenario.from_config(described))
    if "n_epochs" in config:
        scenario = scenario.with_epochs(int(config["n_epochs"]))
    backends = config.get("backends")
    if isinstance(backends, str):
        backends = tuple(part.strip() for part in backends.split(",")
                         if part.strip())
    return run_arena(scenario, backends=backends,
                     seed=int(config.get("rng_seed", seed)))


def arena_metrics(arena) -> dict:
    """Flattened arena metrics (per-backend columns + frontiers)."""
    out: dict = {"scenario": arena.scenario,
                 "backends": list(arena.backends)}
    for row in arena.rows():
        name = row["fabric"]
        for key in ("carried_gbps", "throughput_ratio",
                    "slowdown_p99", "power_w", "gbps_per_watt"):
            out[f"{name}_{key}"] = row[key]
    iso_perf = arena.iso_performance()
    iso_power = arena.iso_power()
    out["iso_perf_winner"] = iso_perf[0]["backend"]
    out["iso_power_winner"] = iso_power[0]["backend"]
    out["iso_performance"] = iso_perf
    out["iso_power"] = iso_power
    return out
