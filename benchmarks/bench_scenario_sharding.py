"""Chunk-resume speedup — checkpointed week-scale scenario replay.

Measures what the sharded scenario runner's per-chunk checkpointing
buys: a diurnal-Cori replay is run cold (every chunk computed), then
"interrupted" after only the even chunks (shard 0 of 2) and resumed —
the resume loads shard 0's checkpoints and computes only the missing
chunks, and a final fully-warm replay assembles the whole horizon from
cache without simulating a single epoch. All three paths must produce
bit-identical aggregates; the recorded speedup is only meaningful
because the chunk decomposition is exact under per-epoch seeding.

As a script this writes ``BENCH_scenario_sharding.json`` (CI
regenerates it in ``--quick`` mode and fails if a fully-warm resume
ever recomputes a chunk or aggregates drift):

    PYTHONPATH=src python benchmarks/bench_scenario_sharding.py
    PYTHONPATH=src python benchmarks/bench_scenario_sharding.py \
        --quick --out BENCH_scenario_sharding.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path


def run_suite(quick: bool = False) -> dict:
    """Cold / interrupted / resumed / warm replay of one scenario."""
    from repro.experiments import ResultCache
    from repro.scenarios import (
        ShardedScenarioRunner,
        week_cori_scenario,
    )

    if quick:
        # Two "days" of 30-minute epochs: same shape, CI-sized.
        scenario = week_cori_scenario(days=2,
                                      epochs_per_day=48)
        chunk_epochs = 48
    else:
        # The real thing: a 7-day replay at 1-minute epochs with
        # per-day checkpoints (10080 epochs, 7 chunks).
        scenario = week_cori_scenario()
        chunk_epochs = 1440

    def runner(cache, **kwargs):
        return ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=chunk_epochs,
            boundary="reset", base_seed=11, cache=cache, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold = runner(cache).run(resume=False)
        cold_aggregates = cold.report().as_dict()

        # "Interrupt": pretend the run died after shard 0's chunks;
        # start over from the checkpoints.
        interrupted_cache = ResultCache(Path(tmp) / "interrupted")
        partial = runner(interrupted_cache, shards=2,
                         shard_index=0).run()
        assert not partial.complete
        resumed = runner(interrupted_cache).run(resume=True)
        assert resumed.n_cached == partial.n_computed
        assert resumed.report().as_dict() == cold_aggregates

        # Fully warm: every chunk loads, nothing simulates.
        warm = runner(cache).run(resume=True)
        assert warm.n_computed == 0, "warm resume recomputed chunks"
        assert warm.report().as_dict() == cold_aggregates

    n_chunks = len(cold.chunks)
    return {
        "scenario": scenario.name,
        "n_epochs": scenario.n_epochs,
        "chunk_epochs": chunk_epochs,
        "n_chunks": n_chunks,
        "cold_s": cold.wall_s,
        "resume_after_interrupt_s": resumed.wall_s,
        "resume_recomputed_chunks": resumed.n_computed,
        "warm_s": warm.wall_s,
        "resume_speedup": cold.wall_s / max(resumed.wall_s, 1e-9),
        "warm_speedup": cold.wall_s / max(warm.wall_s, 1e-9),
        "throughput_ratio": cold_aggregates["throughput_ratio"],
        "carried_gbps": cold_aggregates["carried_gbps"],
    }


def test_chunk_resume_speedup():
    """Quick-mode run: exact chunk decomposition, zero-recompute warm
    resume, and a recorded resume speedup.

    Timed manually (wall clock per phase) rather than through the
    pytest-benchmark fixture because the cold/resumed/warm comparison
    *is* the benchmark.
    """
    from conftest import emit

    from repro.analysis.report import render_kv

    record = run_suite(quick=True)
    emit("Scenario sharding — chunk-resume speedup",
         render_kv(record))
    # run_suite already asserted bit-identical aggregates across the
    # cold, interrupted+resumed, and fully-warm paths.
    assert record["resume_recomputed_chunks"] < record["n_chunks"]
    assert record["warm_speedup"] >= 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized horizon (2 scaled days)")
    parser.add_argument("--out", default=None,
                        help="write the JSON record here")
    args = parser.parse_args(argv)
    record = run_suite(quick=args.quick)
    print(json.dumps(record, indent=1))
    # A fully-warm resume must never be slower than recomputing the
    # whole horizon: if it is, checkpoint load cost exceeds simulation
    # cost and the chunk granularity is broken.
    if record["warm_speedup"] < 1.0:
        print("FAIL: warm resume slower than cold replay",
              file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
