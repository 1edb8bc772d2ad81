"""Time-varying scenario engine for the fabric simulators.

The static ``flow_batches`` the simulators were built around cannot
express how a disaggregated rack behaves under *production* load —
time-varying utilization (§II-A Cori profiles), failure transients, or
reconfiguration lag. This package turns composable workload
descriptions into dynamic, per-epoch flow batches and drives any
fabric through them:

* :class:`~repro.scenarios.episodes.Episode` — one phase of traffic
  (uniform, hotspot, cpu-mem, gpu-hbm, collective, cori-replay) with
  an intensity envelope (constant / ramp / diurnal / burst) and
  heavy-tailed flow-count samplers (fixed / Poisson / lognormal /
  Pareto);
* :class:`~repro.scenarios.scenario.Scenario` — episodes plus scripted
  :class:`~repro.scenarios.scenario.ScenarioEvent` interventions
  (plane failure/repair, reconfiguration lag) on a discrete epoch
  clock, JSON round-trippable for cache-stable sweep configs;
* :class:`~repro.scenarios.backends.FabricBackend` — the
  ``step(flows) -> EpochReport`` protocol adapting
  ``AWGRNetworkSimulator``, the WSS fabric, and the electronic
  comparator behind one interface, with the topology contenders
  (:mod:`repro.scenarios.topologies`: full mesh, dragonfly) joining
  through the :mod:`repro.scenarios.registry` plugin registry;
* :mod:`repro.scenarios.arena` — one-pass bake-off: one scenario's
  flow stream through every registered backend, with iso-performance
  / iso-power frontiers per scenario;
* :class:`~repro.scenarios.runner.ScenarioRunner` — plays a scenario
  against a backend, streaming per-epoch metrics (accepted / blocked
  Gbps, indirect-route fraction, p50/p99 per-flow slowdown) and
  aggregating them for :mod:`repro.analysis`;
* :mod:`repro.scenarios.library` — registered scenarios (diurnal Cori
  replay with a noon plane failure, reconfiguration-lag transients)
  and their :class:`~repro.experiments.spec.ExperimentSpec` bindings,
  so ``repro sweep`` and the result cache work unchanged.

Entry points: ``python -m repro scenario`` and
``examples/scenario_demo.py``.
"""

# Import order matters: the registry must exist before the backend
# modules self-register, and every backend module must have run before
# BACKENDS is derived below. Any entry path sees the full registry
# because importing a submodule always executes this package
# __init__ first.
from repro.scenarios.registry import (
    BackendInfo,
    available_backends,
    backend_info,
    make_backend,
    register_backend,
)
from repro.scenarios.backends import (
    AWGRBackend,
    ElectronicBackend,
    EpochReport,
    FabricBackend,
    WSSBackend,
)
from repro.scenarios.topologies import (
    DragonflyBackend,
    FullMeshBackend,
)
from repro.scenarios.arena import (
    ArenaReport,
    run_arena,
)
from repro.scenarios.episodes import (
    EPISODE_KINDS,
    Episode,
    envelope_value,
    sample_count,
)
from repro.scenarios.library import (
    SCENARIOS,
    arena_metrics,
    arena_task,
    demo_scenario,
    diurnal_cori_scenario,
    get_scenario,
    reconfig_lag_scenario,
    scenario_metrics,
    scenario_task,
    week_cori_scenario,
)
from repro.scenarios.runner import (
    ScenarioReport,
    ScenarioRunner,
    run_replicated,
)
from repro.scenarios.scenario import (
    Scenario,
    ScenarioEvent,
    derive_epoch_seed,
)
from repro.scenarios.sharding import (
    BOUNDARY_MODES,
    ChunkKey,
    ChunkStatus,
    ShardedScenarioResult,
    ShardedScenarioRunner,
    chunk_backend_seed,
    chunk_ranges,
    execute_chunk,
)

#: Names of every backend registered at import time, sorted. Kept as
#: a tuple for parametrized tests; :func:`available_backends` is the
#: live view (it also sees backends registered later).
BACKENDS = available_backends()

__all__ = [
    "ArenaReport",
    "AWGRBackend",
    "BACKENDS",
    "BackendInfo",
    "BOUNDARY_MODES",
    "ChunkKey",
    "ChunkStatus",
    "DragonflyBackend",
    "ElectronicBackend",
    "EPISODE_KINDS",
    "Episode",
    "EpochReport",
    "FabricBackend",
    "FullMeshBackend",
    "SCENARIOS",
    "Scenario",
    "ScenarioEvent",
    "ScenarioReport",
    "ScenarioRunner",
    "ShardedScenarioResult",
    "ShardedScenarioRunner",
    "WSSBackend",
    "arena_metrics",
    "arena_task",
    "available_backends",
    "backend_info",
    "chunk_backend_seed",
    "chunk_ranges",
    "demo_scenario",
    "derive_epoch_seed",
    "diurnal_cori_scenario",
    "envelope_value",
    "execute_chunk",
    "get_scenario",
    "make_backend",
    "reconfig_lag_scenario",
    "register_backend",
    "run_arena",
    "run_replicated",
    "sample_count",
    "scenario_metrics",
    "scenario_task",
    "week_cori_scenario",
]
