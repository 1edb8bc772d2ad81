"""Sharded scenario execution: per-epoch seed invariance, chunked
equivalence, checkpointing, interrupt + resume, and carry-mode
(snapshot-carried) chunk boundaries."""

import pytest

from repro.experiments import ResultCache
from repro.experiments.cache import decode_metrics, encode_metrics
from repro.scenarios import (
    BACKENDS,
    SCENARIOS,
    Episode,
    EpochReport,
    Scenario,
    ScenarioEvent,
    ScenarioRunner,
    ShardedScenarioRunner,
    chunk_backend_seed,
    chunk_ranges,
    derive_epoch_seed,
    execute_chunk,
    make_backend,
)
from tests.oracles.flows import to_flows


def small_scenario(n_epochs=6):
    return Scenario(
        name="shardable", n_nodes=8, n_epochs=n_epochs,
        episodes=(
            Episode(kind="uniform",
                    flows={"dist": "poisson", "mean": 6}),
            Episode(kind="hotspot", start=2,
                    flows={"dist": "pareto", "minimum": 3,
                           "alpha": 1.5},
                    params={"hotspot": 1}),
        ),
        events=(
            ScenarioEvent(epoch=1, action="fail_plane", value=0),
            ScenarioEvent(epoch=4, action="repair_plane", value=0),
        ))


class TestDeriveEpochSeed:
    def test_deterministic(self):
        assert (derive_epoch_seed("s", 3, 7)
                == derive_epoch_seed("s", 3, 7))

    def test_distinct_across_epochs_names_seeds_streams(self):
        seeds = {derive_epoch_seed("s", e, 0) for e in range(64)}
        assert len(seeds) == 64
        assert (derive_epoch_seed("s", 0, 0)
                != derive_epoch_seed("t", 0, 0))
        assert (derive_epoch_seed("s", 0, 0)
                != derive_epoch_seed("s", 0, 1))
        assert (derive_epoch_seed("s", 0, 0)
                != derive_epoch_seed("s", 0, 0, stream="backend"))

    def test_accepts_scenario_or_name(self):
        scenario = small_scenario()
        assert (derive_epoch_seed(scenario, 2, 5)
                == derive_epoch_seed("shardable", 2, 5))

    def test_chunk0_backend_seed_is_the_base_seed(self):
        # Keeps a single-chunk replay bit-identical to the plain
        # `repro scenario --seed N` run, which builds its backend
        # with seed=N.
        assert chunk_backend_seed("s", 0, 11) == 11
        assert chunk_backend_seed("s", 720, 11) != 11
        assert (chunk_backend_seed("s", 720, 11)
                == chunk_backend_seed("s", 720, 11))


class TestShardInvariance:
    """Satellite acceptance: epoch batches for ``[k, n)`` must be
    bit-identical whether or not epochs ``[0, k)`` were generated
    first, across all registered scenarios."""

    def test_registered_scenarios_generate_suffixes_independently(self):
        for scenario in SCENARIOS.values():
            n = min(scenario.n_epochs, 8)
            k = n // 2
            full = [to_flows(scenario.flow_batch_at(epoch, base_seed=3))
                    for epoch in range(n)]
            suffix = [to_flows(scenario.flow_batch_at(epoch, base_seed=3))
                      for epoch in range(k, n)]
            assert suffix == full[k:], scenario.name

    def test_single_epoch_matches_any_order(self):
        scenario = small_scenario()
        later = to_flows(scenario.flow_batch_at(4, base_seed=9))
        scenario.flow_batch_at(0, base_seed=9)  # draws change nothing
        scenario.flow_batch_at(2, base_seed=9)
        assert to_flows(scenario.flow_batch_at(4, base_seed=9)) == later

    def test_range_validation(self):
        # Regression: execute_chunk used to simulate epochs past the
        # horizon, or return an empty chunk for an inverted range.
        config = small_scenario(4).to_config()
        for start, stop in ((2, 9), (3, 1)):
            with pytest.raises(ValueError, match="epoch range"):
                execute_chunk(config, "awgr", {}, start, stop,
                              base_seed=0, boundary="reset")


class TestChunkRanges:
    def test_even_and_ragged_splits(self):
        assert chunk_ranges(6, 2) == [(0, 2), (2, 4), (4, 6)]
        assert chunk_ranges(7, 3) == [(0, 3), (3, 6), (6, 7)]
        assert chunk_ranges(3, 10) == [(0, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_ranges(0, 2)
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)


class TestEpochReportRoundTrip:
    def test_to_from_dict_through_cache_json(self):
        report = EpochReport(epoch=3, offered=5, carried=4, blocked=1,
                             indirect=2, offered_gbps=125.0,
                             carried_gbps=100.0,
                             slowdowns=[1.0, 2.0, 2.0, 3.0],
                             extras={"healthy_planes": 4})
        decoded = EpochReport.from_dict(
            decode_metrics(encode_metrics(report.to_dict())))
        assert decoded == report


class TestChunkedEquivalence:
    def test_single_chunk_matches_monolithic_per_epoch_run(self):
        # Exactly the `repro scenario X --seed 5` backend: chunk 0
        # uses base_seed directly, so --shards over one chunk must
        # reproduce the plain run bit for bit.
        scenario = small_scenario()
        backend = make_backend("awgr", scenario.n_nodes, seed=5)
        mono = ScenarioRunner(scenario, backend).run(seed=5)
        sharded = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=scenario.n_epochs,
            base_seed=5).run()
        merged = sharded.report()
        assert merged.as_dict() == mono.as_dict()
        assert merged.rows() == mono.rows()

    def test_shard_count_never_changes_aggregates(self, tmp_path):
        scenario = small_scenario()
        single = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=2, boundary="reset",
            base_seed=1).run()
        cache = ResultCache(tmp_path)
        for index in range(3):  # three "machines", one shared cache
            ShardedScenarioRunner(
                scenario, "awgr", chunk_epochs=2, boundary="reset",
                shards=3, shard_index=index, base_seed=1,
                cache=cache).run()
        assembled = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=2, boundary="reset",
            shards=3, base_seed=1, cache=cache).run(resume=True)
        assert assembled.n_cached == len(assembled.chunks)
        assert (assembled.report().as_dict()
                == single.report().as_dict())
        assert assembled.report().rows() == single.report().rows()

    def test_pool_workers_match_inline(self):
        scenario = small_scenario()
        inline = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=2, boundary="reset",
            base_seed=1).run()
        pooled = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=2, boundary="reset",
            base_seed=1, workers=2).run()
        assert pooled.report().as_dict() == inline.report().as_dict()

    def test_event_totals_match_monolithic(self):
        # fail at 1 / repair at 4 land in different chunks; the
        # repair chunk replays the failure for state but must not
        # recount it.
        scenario = small_scenario()
        sharded = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=2, boundary="reset",
            base_seed=0).run()
        merged = sharded.report()
        assert merged.events_applied == 2
        assert merged.events_ignored == 0
        healthy = [e.extras["healthy_planes"] for e in merged.epochs]
        assert healthy == [5, 4, 4, 4, 5, 5]


class TestInterruptResume:
    def test_partial_shard_then_resume_recomputes_only_the_rest(
            self, tmp_path):
        scenario = small_scenario()
        cache = ResultCache(tmp_path)
        kwargs = dict(chunk_epochs=2, boundary="reset", shards=2,
                      base_seed=4, cache=cache)
        # "Interrupt": only shard 0 ever ran before the crash.
        first = ShardedScenarioRunner(
            scenario, "awgr", shard_index=0, **kwargs).run()
        assert first.n_computed == 2 and first.n_pending == 1
        assert not first.complete
        with pytest.raises(RuntimeError, match="incomplete"):
            first.report()
        # Resume from the checkpoints: shard 0's chunks load, only
        # the missing chunk is computed.
        resumed = ShardedScenarioRunner(
            scenario, "awgr", **kwargs).run(resume=True)
        assert resumed.n_cached == 2 and resumed.n_computed == 1
        fresh = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=2, boundary="reset",
            base_seed=4).run()
        assert resumed.report().as_dict() == fresh.report().as_dict()

    def test_resume_false_recomputes_and_refreshes(self, tmp_path):
        scenario = small_scenario()
        cache = ResultCache(tmp_path)
        runner = ShardedScenarioRunner(scenario, "awgr",
                                       chunk_epochs=3, base_seed=0,
                                       cache=cache)
        runner.run()
        refreshed = runner.run(resume=False)
        assert refreshed.n_computed == len(refreshed.chunks)
        assert refreshed.n_cached == 0

    def test_chunk_size_is_part_of_the_checkpoint_identity(
            self, tmp_path):
        scenario = small_scenario()
        cache = ResultCache(tmp_path)
        ShardedScenarioRunner(scenario, "awgr", chunk_epochs=2,
                              base_seed=0, cache=cache).run()
        other = ShardedScenarioRunner(scenario, "awgr", chunk_epochs=3,
                                      base_seed=0, cache=cache
                                      ).run(resume=True)
        assert other.n_cached == 0  # no cross-granularity reuse

    def test_failed_chunk_recorded_not_raised(self, tmp_path):
        scenario = small_scenario()
        # Failing the last WSS switch raises inside the backend; the
        # runner must record the chunk failure and keep going.
        result = ShardedScenarioRunner(
            scenario, "wss", backend_params={"n_switches": 1},
            chunk_epochs=2, base_seed=0).run()
        assert result.n_failed >= 1
        assert not result.complete
        failed = [c for c in result.chunks if c.state == "failed"]
        assert "RuntimeError" in failed[0].error


def sustained_scenario(n_epochs=9):
    """Capacity-bound load whose in-flight flows cross boundaries.

    The 125 Gbps hotspot flows occupy 5 sub-slots for 2 epochs each,
    so a reset boundary (which drops them) visibly changes the next
    chunk's admission — the probe that separates carry from reset.
    """
    return Scenario(
        name="sustained", n_nodes=10, n_epochs=n_epochs,
        episodes=(
            Episode(kind="uniform",
                    flows={"dist": "poisson", "mean": 12}, gbps=25.0),
            Episode(kind="hotspot", flows=6, gbps=125.0,
                    params={"hotspot": 0}),
        ),
        events=(
            ScenarioEvent(epoch=2, action="fail_plane", value=0),
            ScenarioEvent(epoch=6, action="repair_plane", value=0),
        ))


def flapping_plane_scenario(n_epochs=48):
    """A saturating hotspot under an event-dense failure script.

    The 125 Gbps hotspot flows take one whole plane of their pair's
    direct budget and stay resident across epochs, and plane 0 fails
    every four epochs and is repaired two epochs later, so every chunk
    boundary cuts through in-flight flows and a failed plane.
    """
    events = []
    for epoch in range(0, n_epochs, 4):
        events.append(ScenarioEvent(epoch=epoch, action="fail_plane",
                                    value=0))
        if epoch + 2 < n_epochs:
            events.append(ScenarioEvent(epoch=epoch + 2,
                                        action="repair_plane", value=0))
    return Scenario(
        name="flapping_plane", n_nodes=12, n_epochs=n_epochs,
        episodes=(
            Episode(kind="uniform",
                    flows={"dist": "poisson", "mean": 16}, gbps=25.0),
            Episode(kind="hotspot", flows=8, gbps=125.0,
                    params={"hotspot": 0}),
        ),
        events=tuple(events))


class TestCarryBoundaries:
    """Tentpole acceptance: carry-mode chunked replays are bit-exact."""

    def test_carry_matches_monolithic_all_scenarios_and_backends(self):
        # The full acceptance matrix: every registered scenario x
        # every backend, chunked with carried snapshots, must merge
        # to the monolithic run bit for bit (aggregates AND rows).
        for scenario in SCENARIOS.values():
            trimmed = scenario.with_epochs(min(scenario.n_epochs, 8))
            for backend in BACKENDS:
                mono = ScenarioRunner(
                    trimmed,
                    make_backend(backend, trimmed.n_nodes, seed=3),
                ).run(seed=3)
                merged = ShardedScenarioRunner(
                    trimmed, backend, chunk_epochs=3,
                    boundary="carry", base_seed=3).run().report()
                assert merged.as_dict() == mono.as_dict(), \
                    (scenario.name, backend)
                assert merged.rows() == mono.rows(), \
                    (scenario.name, backend)

    def test_carry_exact_where_reset_drifts(self):
        # Under sustained load, reset-mode boundaries drop in-flight
        # flows and the merged aggregates drift from the monolithic
        # run; carry mode must not.
        for scenario, chunk_epochs, seed in (
                (sustained_scenario(), 3, 0),
                (flapping_plane_scenario(), 8, 13)):
            mono = ScenarioRunner(
                scenario,
                make_backend("awgr", scenario.n_nodes, seed=seed),
            ).run(seed=seed)
            carry, reset = (
                ShardedScenarioRunner(
                    scenario, "awgr", chunk_epochs=chunk_epochs,
                    boundary=boundary, base_seed=seed).run().report()
                for boundary in ("carry", "reset"))
            assert carry.as_dict() == mono.as_dict(), scenario.name
            assert carry.rows() == mono.rows(), scenario.name
            # The drift carry mode exists to remove.
            assert reset.as_dict() != mono.as_dict(), scenario.name

    def test_carry_chunk_size_invariance(self):
        scenario = sustained_scenario()
        reports = [
            ShardedScenarioRunner(
                scenario, "awgr", chunk_epochs=chunk,
                boundary="carry", base_seed=5).run().report().as_dict()
            for chunk in (1, 2, 4, scenario.n_epochs)]
        assert all(r == reports[0] for r in reports[1:])

    def test_carry_pipelines_across_shards_via_shared_cache(
            self, tmp_path):
        # A shard can only compute a chunk once its predecessor's
        # checkpoint exists: alternating shard passes over one cache
        # converge on the full replay, bit-identical to monolithic.
        scenario = sustained_scenario()
        cache = ResultCache(tmp_path)
        kwargs = dict(chunk_epochs=2, boundary="carry", base_seed=1,
                      cache=cache)
        first = ShardedScenarioRunner(scenario, "awgr", shards=2,
                                      shard_index=0, **kwargs).run()
        # Owns chunks 0, 2, 4 but can only run chunk 0: chunk 1's
        # snapshot does not exist yet.
        assert first.n_computed == 1
        assert first.chunks[0].state == "computed"
        assert all(c.state == "pending" for c in first.chunks[1:])
        for _ in range(len(first.chunks)):
            for index in range(2):
                ShardedScenarioRunner(scenario, "awgr", shards=2,
                                      shard_index=index,
                                      **kwargs).run(resume=True)
        assembled = ShardedScenarioRunner(
            scenario, "awgr", shards=2, **kwargs).run(resume=True)
        assert assembled.complete
        assert assembled.n_cached == len(assembled.chunks)
        mono = ScenarioRunner(
            scenario, make_backend("awgr", scenario.n_nodes, seed=1),
        ).run(seed=1)
        assert assembled.report().as_dict() == mono.as_dict()

    def test_carry_resume_restores_last_checkpointed_snapshot(
            self, tmp_path):
        # "Interrupt" after the first chunk; the resume pass must
        # restore its snapshot rather than recompute it, and still
        # match an uninterrupted carry run.
        scenario = sustained_scenario()
        cache = ResultCache(tmp_path)
        kwargs = dict(chunk_epochs=4, boundary="carry", base_seed=2,
                      cache=cache)
        partial = ShardedScenarioRunner(scenario, "awgr", shards=3,
                                        shard_index=0, **kwargs).run()
        assert partial.n_computed == 1 and not partial.complete
        resumed = ShardedScenarioRunner(scenario, "awgr",
                                        **kwargs).run(resume=True)
        assert resumed.n_cached == 1
        assert resumed.n_computed == len(resumed.chunks) - 1
        uninterrupted = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=4, boundary="carry",
            base_seed=2).run()
        assert (resumed.report().as_dict()
                == uninterrupted.report().as_dict())

    def test_truncated_checkpoint_recomputes_only_that_chunk(
            self, tmp_path):
        # A torn carry checkpoint reads as a miss: resume recomputes
        # just that chunk from its predecessor's snapshot, and the
        # next chunk's intact checkpoint still loads.
        scenario = sustained_scenario()
        cache = ResultCache(tmp_path)
        runner = ShardedScenarioRunner(scenario, "awgr", chunk_epochs=3,
                                       boundary="carry", base_seed=2,
                                       cache=cache)
        runner.run()
        path = cache.path_for(runner.chunk_key(3, 6))
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        resumed = runner.run(resume=True)
        assert [c.state for c in resumed.chunks] == [
            "cached", "computed", "cached"]
        mono = ScenarioRunner(
            scenario, make_backend("awgr", scenario.n_nodes, seed=2),
        ).run(seed=2)
        assert resumed.report().as_dict() == mono.as_dict()
        assert resumed.report().rows() == mono.rows()

    def test_carry_and_reset_checkpoints_never_mix(self, tmp_path):
        scenario = sustained_scenario()
        cache = ResultCache(tmp_path)
        ShardedScenarioRunner(scenario, "awgr", chunk_epochs=3,
                              boundary="carry", base_seed=0,
                              cache=cache).run()
        reset = ShardedScenarioRunner(scenario, "awgr", chunk_epochs=3,
                                      boundary="reset", base_seed=0,
                                      cache=cache).run(resume=True)
        assert reset.n_cached == 0  # no cross-mode reuse

    def test_carry_failed_chunk_blocks_successors(self):
        # Failing the last WSS switch raises at epoch 1, inside chunk
        # 0; every later chunk must stay pending (its predecessor
        # snapshot is gone), never continue from wrong state.
        scenario = small_scenario()
        result = ShardedScenarioRunner(
            scenario, "wss", backend_params={"n_switches": 1},
            chunk_epochs=2, boundary="carry", base_seed=0).run()
        states = [c.state for c in result.chunks]
        assert states[0] == "failed"
        assert all(s == "pending" for s in states[1:])
        assert not result.complete

    def test_carry_chunk_without_snapshot_rejected(self):
        scenario = small_scenario()
        with pytest.raises(ValueError, match="snapshot"):
            execute_chunk(scenario.to_config(), "awgr", {}, 2, 4,
                          base_seed=0, boundary="carry")

    def test_unknown_boundary_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            ShardedScenarioRunner(small_scenario(), boundary="merge")
        with pytest.raises(ValueError, match="boundary"):
            execute_chunk(small_scenario().to_config(), "awgr", {},
                          0, 2, base_seed=0, boundary="merge")


class TestEventsReplayed:
    """Satellite: replay counters count *applied* events only."""

    def test_ignored_events_do_not_count_as_replayed(self):
        # The electronic backend supports no events: replaying the
        # pre-chunk script applies nothing, so events_replayed must be
        # 0 (the old code counted every scripted event).
        scenario = small_scenario()
        payload = execute_chunk(scenario.to_config(), "electronic",
                                {}, 4, 6, base_seed=0, boundary="reset")
        assert payload["events_replayed"] == 0
        # The AWGR backend applies both the failure and the repair.
        payload = execute_chunk(scenario.to_config(), "awgr", {},
                                5, 6, base_seed=0, boundary="reset")
        assert payload["events_replayed"] == 2

    def test_rows_surface_replay_cost(self):
        scenario = small_scenario()
        result = ShardedScenarioRunner(scenario, "awgr",
                                       chunk_epochs=2, boundary="reset",
                                       base_seed=0).run()
        rows = result.rows()
        # fail_plane@1 precedes chunks 1 and 2; repair_plane@4 fires
        # *inside* chunk 2, so it is applied there, not replayed.
        assert [r["events_replayed"] for r in rows] == [0, 1, 1]
        carry_rows = ShardedScenarioRunner(
            scenario, "awgr", chunk_epochs=2, boundary="carry",
            base_seed=0).run().rows()
        assert [r["events_replayed"] for r in carry_rows] == [0, 0, 0]


class TestValidation:
    def test_shard_index_range(self):
        with pytest.raises(ValueError):
            ShardedScenarioRunner(small_scenario(), shards=2,
                                  shard_index=2)

    def test_workers_positive(self):
        with pytest.raises(ValueError):
            ShardedScenarioRunner(small_scenario(), workers=0)

    def test_carry_rejects_a_pool(self):
        # Carry chunks chain through snapshots and run inline; a pool
        # width there used to be accepted and silently ignored.
        with pytest.raises(ValueError, match='boundary="reset"'):
            ShardedScenarioRunner(small_scenario(), boundary="carry",
                                  workers=2)
        ShardedScenarioRunner(small_scenario(), boundary="reset",
                              workers=2)

    def test_execute_chunk_needs_a_boundary(self):
        with pytest.raises(TypeError, match="boundary"):
            execute_chunk(small_scenario().to_config(), "awgr", {}, 0, 2,
                          0)


class TestErrorContext:
    """Satellite: chunk failures name the scenario and chunk/epochs.

    A bare config-mismatch ValueError from ``restore`` used to print
    only the two config dicts; week-scale sweeps need to know *which*
    scenario and chunk rejected the carried snapshot.
    """

    def test_restore_mismatch_names_scenario_and_epochs(self):
        scenario = small_scenario()
        foreign = make_backend("awgr", 4, seed=0).snapshot()
        with pytest.raises(ValueError) as excinfo:
            execute_chunk(scenario.to_config(), "awgr", {}, 2, 4,
                          base_seed=0, boundary="carry",
                          snapshot=foreign)
        message = str(excinfo.value)
        assert "scenario 'shardable'" in message
        assert "epochs [2, 4)" in message
        assert "cannot restore the carried snapshot" in message
        # The underlying mismatch diagnostic still names the fields.
        assert "differing fields" in message
        assert "n_nodes" in message

    def test_mismatch_message_lists_only_differing_fields(self):
        mine = make_backend("awgr", 8, seed=0)
        foreign = make_backend("awgr", 4, seed=0).snapshot()
        with pytest.raises(ValueError, match=r"differing fields"):
            mine.restore(foreign)
        try:
            mine.restore(foreign)
        except ValueError as exc:
            fields = str(exc).split("differing fields: ")[1]
            fields = fields.split("]")[0]
            assert "n_nodes" in fields
            assert "n_planes" not in fields  # equal in both configs

    def test_carry_chunk_error_names_chunk_and_scenario(self):
        # Failing the only WSS switch raises inside the backend; the
        # recorded error must locate the chunk, not just repeat the
        # exception text.
        result = ShardedScenarioRunner(
            small_scenario(), "wss", backend_params={"n_switches": 1},
            chunk_epochs=2, boundary="carry", base_seed=0).run()
        failed = [c for c in result.chunks if c.state == "failed"]
        assert failed[0].error.startswith(
            f"chunk {failed[0].index} of scenario 'shardable': ")

    def test_reset_chunk_error_names_chunk_and_scenario(self):
        result = ShardedScenarioRunner(
            small_scenario(), "wss", backend_params={"n_switches": 1},
            chunk_epochs=2, boundary="reset", base_seed=0).run()
        failed = [c for c in result.chunks if c.state == "failed"]
        assert failed[0].error.startswith(
            f"chunk {failed[0].index} of scenario 'shardable': ")
