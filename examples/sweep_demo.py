"""Experiment-sweep engine walkthrough.

Three progressively fancier uses of ``repro.experiments``:

1. replay a *registered* sweep (the §IV-A staleness ablation) exactly
   as ``repro sweep ablation_staleness`` and the benchmark harness do;
2. declare a *custom* sweep — a 2-D grid over fabric planes x piggyback
   staleness with per-task seeds drawn by the engine — and fan it out
   over worker processes;
3. re-run the same sweep against a JSON result cache and watch every
   task come back instantly, then aggregate rows with the report
   helpers.

Run:  python examples/sweep_demo.py
"""

import tempfile

import numpy as np

from repro.analysis.report import aggregate_rows, render_sweep, render_table
from repro.experiments import (
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    get_experiment,
)
from repro.network.simulator import AWGRNetworkSimulator
from repro.network.traffic import uniform_batch


def seeded_hotspot_task(config, seed):
    """One grid point: seeded uniform traffic over a small fabric.

    The engine derives ``seed`` from the spec + config, so every grid
    point gets its own reproducible traffic sample — no global RNG.
    """
    sim = AWGRNetworkSimulator(
        n_nodes=16, planes=config["planes"], flows_per_wavelength=1,
        state_update_period=config["update_period"], rng_seed=seed)
    rng = np.random.default_rng(seed)
    batches = [uniform_batch(16, config["flows_per_slot"], rng=rng)
               for _ in range(8)]
    return sim.run(batches, duration_slots=2)


def extract(report):
    return report.as_dict()


CUSTOM = ExperimentSpec(
    name="demo_planes_x_staleness",
    description="demo: planes x staleness on seeded uniform traffic",
    factory=seeded_hotspot_task,
    metrics=extract,
    grid={"planes": (1, 2, 3), "update_period": (1, 25)},
    fixed={"flows_per_slot": 60})


def main() -> None:
    # 1. A registered sweep, exactly as `repro sweep` runs it.
    registered = SweepRunner(workers=1).run(
        get_experiment("ablation_staleness")).raise_on_failure()
    print(render_sweep(registered,
                       columns=["update_period", "acceptance_ratio",
                                "double_indirect",
                                "stale_mispredictions"]))

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        runner = SweepRunner(workers=2, cache=cache)

        # 2. Custom 2-D grid, fanned out over two worker processes.
        print()
        first = runner.run(CUSTOM).raise_on_failure()
        print(render_sweep(first,
                           columns=["planes", "update_period",
                                    "acceptance_ratio",
                                    "indirect_fraction", "blocked"]))

        # 3. Same sweep again: pure cache replay, identical rows.
        second = runner.run(CUSTOM)
        print(f"\nreplay: {second.summary()}")
        assert second.rows() == first.rows()
        assert second.n_cached == len(CUSTOM)

        print()
        print(render_table(
            aggregate_rows(second.rows(), by="planes",
                           metrics=["acceptance_ratio"]),
            title="Acceptance vs planes (mean over staleness axis)"))

    print("\nReading: more planes buy acceptance under the same "
          "offered load, while staleness barely moves it — the same "
          "insensitivity the §IV-A ablation shows. Cached re-runs "
          "make iterating on grids like this free.")


if __name__ == "__main__":
    main()
