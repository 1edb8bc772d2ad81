"""Command-line interface."""

import pytest

from repro.cli import _ALL_ORDER, _COMMANDS, build_parser, main


class TestParser:
    def test_every_command_registered(self):
        parser = build_parser()
        for name in _COMMANDS:
            args = parser.parse_args([name] + (
                [] if name not in ("fig6", "fig7", "fig9", "fig11")
                else []))
            assert args.command == name

    def test_all_order_covers_known_commands(self):
        assert set(_ALL_ORDER) <= set(_COMMANDS)

    def test_latency_flag(self):
        args = build_parser().parse_args(["fig6", "--latency", "25"])
        assert args.latency == 25.0

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestExecution:
    @pytest.mark.parametrize("command", [
        "table1", "table2", "table3", "table4", "fig5", "power",
        "bandwidth", "isoperf", "linkbudget"])
    def test_fast_commands_run(self, command, capsys):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 2

    def test_table3_output_content(self, capsys):
        main(["table3"])
        out = capsys.readouterr().out
        assert "350" in out
        assert "ddr4" in out

    def test_fig9_with_latency(self, capsys):
        assert main(["fig9", "--latency", "25"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9 @ 25.0 ns" in out

    def test_isoperf_empirical(self, capsys):
        assert main(["isoperf", "--empirical"]) == 0
        out = capsys.readouterr().out
        assert "pooling factor" in out


class TestSweep:
    def test_list_shows_registered_experiments(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ablation_staleness" in out
        assert "case_a_vs_case_b" in out

    def test_missing_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit, match="ablation_staleness"):
            main(["sweep", "nope", "--no-cache"])

    def test_zero_workers_errors(self):
        with pytest.raises(SystemExit, match="workers"):
            main(["sweep", "indirect_routing", "--workers", "0",
                  "--no-cache"])

    def test_sweep_runs_and_second_invocation_is_cached(
            self, capsys, tmp_path):
        argv = ["sweep", "ablation_staleness", "--workers", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cached, 4 run" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "4 cached, 0 run" in second
        # identical rows either way (ignore the timing line)
        strip = lambda s: [ln for ln in s.splitlines()
                           if " tasks (" not in ln]
        assert strip(first) == strip(second)

    def test_no_cache_always_recomputes(self, capsys, tmp_path):
        argv = ["sweep", "indirect_routing", "--no-cache"]
        assert main(argv) == 0
        assert "0 cached, 2 run" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 cached, 2 run" in capsys.readouterr().out

    def test_shards_converge_through_one_cache(self, capsys, tmp_path):
        strip = lambda s: [ln for ln in s.splitlines()
                           if " tasks (" not in ln]
        base = ["sweep", "ablation_staleness", "--workers", "1"]
        assert main(base + ["--no-cache"]) == 0
        plain = capsys.readouterr().out
        cache = ["--cache-dir", str(tmp_path)]
        for shard in ("0/2", "1/2"):
            assert main(base + cache + ["--shard", shard]) == 0
        capsys.readouterr()
        assert main(base + cache) == 0
        assembled = capsys.readouterr().out
        assert "4 cached, 0 run" in assembled
        assert strip(assembled) == strip(plain)

    def test_shard_needs_the_cache(self):
        with pytest.raises(SystemExit, match="sweep: sharding needs"):
            main(["sweep", "indirect_routing", "--shard", "0/2",
                  "--no-cache"])

    def test_malformed_shard_errors(self, tmp_path):
        for shard, message in (("0-2", "sweep: --shard must look like"),
                               ("x/2", "sweep: --shard must look like"),
                               ("2/2", r"sweep: --shard index must be")):
            with pytest.raises(SystemExit, match=message):
                main(["sweep", "indirect_routing", "--shard", shard,
                      "--cache-dir", str(tmp_path)])

    def test_executor_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "indirect_routing", "--no-cache",
                  "--executor", "inline"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "--executor" in capsys.readouterr().err

    def test_list_includes_scenario_sweeps(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "scenario_diurnal_cori" in out
        assert "ablation_awgr_planes" in out
        assert "power_overhead" in out


class TestScenario:
    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "diurnal_cori" in out
        assert "reconfig_lag" in out

    def test_missing_scenario_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario"])

    def test_unknown_scenario_errors(self):
        with pytest.raises(SystemExit, match="diurnal_cori"):
            main(["scenario", "nope"])

    def test_demo_runs_with_epoch_override(self, capsys):
        assert main(["scenario", "--demo", "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-epoch" in out
        assert "Aggregate" in out
        # One header + separator + three epoch rows.
        assert "epoch" in out

    def test_bad_epochs_errors(self):
        with pytest.raises(SystemExit, match="epochs"):
            main(["scenario", "--demo", "--epochs", "0"])

    def test_diurnal_on_both_backends(self, capsys):
        # The acceptance-criterion path: the diurnal Cori replay with
        # its mid-run plane failure runs end-to-end on AWGR and WSS
        # via the CLI.
        for backend in ("awgr", "wss"):
            assert main(["scenario", "diurnal_cori",
                         "--backend", backend]) == 0
            out = capsys.readouterr().out
            assert "diurnal_cori" in out
            assert "indirect_fraction" in out
            assert "events_applied" in out

    def test_carry_chunks_reject_a_pool(self, tmp_path):
        # Carry is the default boundary; its chunks run inline, so a
        # pool width is an error rather than silently ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "--demo", "--shards", "1", "--workers", "2",
                  "--chunk-epochs", "2", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code.startswith("scenario: ")
        assert 'boundary="reset"' in excinfo.value.code

    @pytest.mark.parametrize("flags", [
        ["--shards", "0"],
        ["--shards", "2", "--shard-index", "2"],
        ["--shards", "1", "--chunk-epochs", "0"],
        ["--shards", "1", "--workers", "0"],
        ["--shards", "1", "--workers", "2"],
    ])
    def test_rejected_sharding_creates_no_cache(self, tmp_path, flags):
        # The runner judges the arguments before the cache exists, so
        # a rejected invocation leaves no checkpoint directory behind.
        cache_dir = tmp_path / "chunks"
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "--demo", *flags,
                  "--cache-dir", str(cache_dir)])
        assert isinstance(excinfo.value.code, str)  # exit status 1
        assert excinfo.value.code.startswith("scenario: ")
        assert not cache_dir.exists()

    def test_repeats_reports_ci(self, capsys):
        assert main(["scenario", "--demo", "--epochs", "2",
                     "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert "ci_low" in out
        assert "ci_high" in out
