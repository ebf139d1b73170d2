"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main, parse_model
from repro.config import DLRM3


class TestParseModel:
    def test_accepts_shorthand_and_paper_names(self):
        assert parse_model("DLRM3") is DLRM3
        assert parse_model("DLRM(3)") is DLRM3
        assert parse_model("3") is DLRM3
        assert parse_model("dlrm3") is DLRM3

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            parse_model("DLRM9")


class TestListBackends:
    def test_lists_the_builtin_backends(self, capsys):
        assert main(["list-backends"]) == 0
        out = capsys.readouterr().out
        for name in ("cpu", "cpu-gpu", "centaur"):
            assert name in out
        assert "CPU-only" in out and "Centaur" in out


class TestRun:
    def test_prints_latency_and_energy_summary(self, capsys):
        assert main(["run", "--backend", "centaur", "--model", "DLRM3", "--batch", "64"]) == 0
        out = capsys.readouterr().out
        assert "Centaur | DLRM(3) | batch 64" in out
        assert "end-to-end latency" in out
        assert "energy / batch" in out
        for stage in ("IDX", "EMB", "DNF", "MLP", "Other"):
            assert stage in out
        assert "vs CPU-only" in out

    def test_baseline_can_be_disabled(self, capsys):
        assert main(
            ["run", "--backend", "cpu", "--model", "1", "--batch", "4", "--baseline", ""]
        ) == 0
        out = capsys.readouterr().out
        assert "CPU-only | DLRM(1) | batch 4" in out
        assert "vs " not in out

    def test_unknown_backend_fails_cleanly(self, capsys):
        assert main(["run", "--backend", "tpu", "--model", "DLRM1"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_unknown_model_fails_cleanly(self, capsys):
        assert main(["run", "--backend", "cpu", "--model", "DLRM9"]) == 2
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_prints_a_grid(self, capsys):
        assert main(
            [
                "sweep",
                "--backends", "cpu", "centaur",
                "--models", "DLRM1",
                "--batches", "1", "16",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Experiment grid" in out
        assert out.count("DLRM(1)") == 4  # 2 backends x 2 batches

    def test_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        assert main(
            [
                "sweep",
                "--backends", "centaur",
                "--models", "DLRM1",
                "--batches", "4",
                "--csv", str(target),
            ]
        ) == 0
        assert "wrote 1 design points" in capsys.readouterr().out
        lines = target.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("centaur,Centaur,DLRM(1),4")


class TestServe:
    def test_single_device_report(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--workload", "poisson:20000",
                "--requests", "2000",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "workload: poisson @ 20,000 QPS" in out
        assert "CPU-only x1" in out
        assert "p99 (ms)" in out

    def test_requires_exactly_one_bound(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
            ]
        ) == 2
        assert "exactly one of --duration / --requests" in capsys.readouterr().err

    def test_autoscaled_serving_prints_timeline(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--workload", "diurnal:trough=4000,peak=40000,period=0.2",
                "--duration", "0.2",
                "--autoscale", "util:target=0.7,cooldown=0.02",
                "--max-replicas", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "CPU-only autoscaled (target-utilization)" in out
        assert "Autoscale timeline" in out
        assert "replica-seconds=" in out
        assert "completions" in out

    def test_autoscale_honours_initial_replicas(self, capsys):
        # --replicas seeds the elastic fleet at time zero instead of being
        # silently ignored.
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--workload", "poisson:20000",
                "--requests", "1000",
                "--autoscale", "schedule:0=3",
                "--replicas", "3",
                "--max-replicas", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Autoscale timeline" in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--min-replicas", "3"), ("--max-replicas", "4"), ("--control-interval", "0.02")],
    )
    def test_autoscale_sizing_flags_need_autoscale(self, capsys, flag, value):
        # Without --autoscale these flags used to be dropped silently, even
        # under --faults, where the static fleet is sized by --replicas.
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM1",
                "--workload", "poisson:20000",
                "--requests", "500",
                "--faults", "crash:at=0.01,restart=0.005",
                "--replicas", "2",
                flag, value,
            ]
        ) == 2
        err = capsys.readouterr().err
        assert flag in err and "--autoscale" in err

    def test_total_outage_renders_an_empty_row_and_the_incidents(self, capsys):
        # A crash at time zero kills the only replica before anything is
        # served: the whole stream is shed and nothing completes.
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM1",
                "--workload", "poisson:20000",
                "--requests", "200",
                "--faults", "crash:at=0",
            ]
        ) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "(chaos)" in line)
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells == ["CPU-only x1 (chaos)", "0", "-", "-", "-", "-", "0", "0"]
        assert "Incident timeline" in out
        assert "shed=200" in out
        # Nothing completed before, during or after the crash: no window
        # attained anything, so none reads a vacuous 100%.
        incident = next(line for line in out.splitlines() if line.startswith("| crash"))
        cells = [cell.strip() for cell in incident.strip("|").split("|")]
        assert cells[6:9] == ["-", "-", "-"]
        assert "worst SLA during=-," in out

    def test_total_outage_renders_an_empty_autoscale_timeline(self, capsys):
        # The same outage on an elastic fleet: every timeline window shows
        # zero replicas with an empty bar, zero completions and no
        # attainment instead of a traceback.
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM1",
                "--workload", "poisson:20000",
                "--requests", "200",
                "--autoscale", "schedule:0=1",
                "--faults", "crash:at=0",
            ]
        ) == 0
        out = capsys.readouterr().out
        timeline = out.split("Autoscale timeline", 1)[1].split("Incident timeline", 1)[0]
        rows = [line for line in timeline.splitlines() if line.startswith("|  ")]
        assert len(rows) == 12
        for row in rows:
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            assert cells[1:] == ["0", "", "0", "-"]
        assert "shed=200" in out

    def test_sharded_serving_report(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "centaur",
                "--model", "DLRM2",
                "--workload", "poisson:20000",
                "--trace", "zipf:1.05",
                "--requests", "1500",
                "--shards", "4:row",
                "--cache", "lru:rows=4096",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Sharded serving of DLRM(2)" in out
        assert "hit rate %" in out
        assert "x-shard MB" in out
        assert "Centaur x4 row shards, cache lru:rows=4096" in out

    def test_shards_spec_carries_the_strategy(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "centaur",
                "--model", "DLRM2",
                "--requests", "800",
                "--shards", "2:greedy",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Centaur x2 greedy shards, cache off" in out

    def test_bad_shards_spec_fails_cleanly(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "centaur",
                "--model", "DLRM2",
                "--requests", "800",
                "--shards", "2:warp",
            ]
        ) == 2
        assert "unknown sharding strategy" in capsys.readouterr().err

    def test_cache_alone_enables_the_sharded_path(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--trace", "hotcold:frac=0.05,weight=0.9",
                "--requests", "1000",
                "--cache", "lfu:rows=2048",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Sharded serving" in out

    def test_shards_conflict_with_autoscale(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--requests", "500",
                "--shards", "2",
                "--autoscale", "schedule:0=2",
            ]
        ) == 2
        assert "--shards/--cache" in capsys.readouterr().err

    def test_cache_off_spelling_stays_on_the_plain_path(self, capsys):
        # 'off' is a documented no-cache spelling: it must neither reroute
        # a plain serve through the sharded path nor conflict with
        # --autoscale.
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--requests", "800",
                "--cache", "off",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "CPU-only x1" in out
        assert "Sharded serving" not in out
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--requests", "800",
                "--cache", "off",
                "--autoscale", "schedule:0=2",
                "--max-replicas", "2",
            ]
        ) == 0

    def test_bad_cache_spec_fails_cleanly(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--requests", "500",
                "--cache", "mru:rows=4",
            ]
        ) == 2

    def test_updates_scenario_prints_the_freshness_report(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "centaur",
                "--model", "DLRM2",
                "--workload", "poisson:20000",
                "--trace", "zipf:1.05",
                "--requests", "800",
                "--shards", "2",
                "--cache", "lru:rows=4096",
                "--updates", "model-push-storm",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "update scenario 'model-push-storm'" in out
        assert "Cache freshness of DLRM(2)" in out
        assert "invalidate" in out
        assert "invalidated" in out

    def test_updates_spec_with_shared_cache_tier(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "centaur",
                "--model", "DLRM2",
                "--trace", "zipf:1.05",
                "--requests", "600",
                "--cache", "lru:rows=2048",
                "--shared-cache", "lru:rows=8192",
                "--updates", "write-through:rate=8000,rows=16",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Cache freshness" in out
        assert "write-through" in out

    def test_updates_alone_enable_the_sharded_path(self, capsys):
        # --updates without --shards/--cache still routes through the
        # sharded group (cache off: pushes are counted, nothing to drop).
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--trace", "zipf:1.05",
                "--requests", "400",
                "--updates", "invalidate:rate=8000,rows=16",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Sharded serving" in out
        assert "Cache freshness" in out

    def test_bad_update_spec_fails_cleanly(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--requests", "100",
                "--updates", "drop:rate=5",
            ]
        ) == 2
        assert "unknown update mode" in capsys.readouterr().err

    def test_updates_conflict_with_autoscale(self, capsys):
        assert main(
            [
                "serve",
                "--backend", "cpu",
                "--model", "DLRM2",
                "--requests", "100",
                "--updates", "invalidate:rate=100",
                "--autoscale", "schedule:0=2",
            ]
        ) == 2
        assert "--shards/--cache" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, spec, message",
        [
            ("--autoscale", "warp-speed", "unknown autoscaler kind 'warp-speed'"),
            # One key=value grammar, one error style, across all four flags.
            ("--autoscale", "queue:high", "queue spec parameters must be key=value, got 'high'"),
            ("--autoscale", "util:tgt=0.5", "unknown util parameter 'tgt'"),
            ("--autoscale", "ewma:alpha=big", "ewma parameter 'alpha' is not a number: 'big'"),
            ("--autoscale", "schedule:0=1,0=2", "duplicate schedule parameter '0'"),
            ("--faults", "crash:at", "crash spec parameters must be key=value, got 'at'"),
            ("--faults", "brownout:at=0.1,for=0.1,heat=3", "unknown brownout parameter 'heat'"),
            ("--faults", "crash:at=soon", "crash parameter 'at' is not a number: 'soon'"),
            ("--updates", "invalidate:speed=3", "unknown update parameter 'speed'"),
            ("--updates", "invalidate:rows=many", "update parameter 'rows' is not a number: 'many'"),
            ("--workload", "bursty:40000", "bursty spec parameters must be key=value, got '40000'"),
            ("--workload", "diurnal:peek=3", "unknown diurnal parameter 'peek'"),
            ("--workload", "diurnal:peak=tall", "diurnal parameter 'peak' is not a number: 'tall'"),
            ("--workload", "poisson:rate=fast", "poisson parameter 'rate' is not a number: 'fast'"),
            ("--trace", "fractal", "unknown trace model 'fractal'; known: uniform, zipf, hotcold"),
            ("--trace", "zipf:steep", "zipf parameter 'alpha' is not a number: 'steep'"),
            ("--cache", "mru:rows=64", "unknown cache policy 'mru'; known: lru, lfu (or off)"),
            ("--cache", "lru:pages=64", "unknown cache parameter 'pages'"),
            ("--shared-cache", "lfu:rows=lots", "cache parameter 'rows' is not a number: 'lots'"),
            ("--shards", "two", "shard count is not a number: 'two'"),
            ("--shards", "2:diagonal", "unknown sharding strategy 'diagonal'; known: table, row, greedy"),
            ("--faults", "brownout:at=0.1,for=0.1,lat=3", "unknown brownout parameter 'lat'"),
            ("--faults", "explode:at=0.1", "unknown fault kind 'explode'; known: crash,"),
            # One whole-number rule: a non-whole value for each integer parameter.
            ("--faults", "crash:at=0.1,replica=1.5", "crash parameter 'replica' must be a whole number, got '1.5'"),
            ("--faults", "shard-loss:at=0.2,shard=0.7", "shard-loss parameter 'shard' must be a whole number, got '0.7'"),
            ("--faults", "poisson:kind=crash,rate=9,until=0.1,seed=7.5", "poisson parameter 'seed' must be a whole number, got '7.5'"),
            ("--updates", "invalidate:rate=10,rows=2.9", "update parameter 'rows' must be a whole number, got '2.9'"),
            ("--autoscale", "queue:step=1.5", "queue parameter 'step' must be a whole number, got '1.5'"),
            ("--autoscale", "schedule:0=1,0.5=2.5", "schedule parameter '0.5' must be a whole number, got '2.5'"),
            ("--cache", "lru:rows=4096.5", "cache parameter 'rows' must be a whole number, got '4096.5'"),
            ("--shared-cache", "lfu:bytes=1e-3", "cache parameter 'bytes' must be a whole number, got '1e-3'"),
            ("--shards", "2.5:row", "shard count must be a whole number, got '2.5'"),
        ],
    )
    def test_malformed_spec_fails_cleanly(self, capsys, flag, spec, message):
        argv = ["serve", "--backend", "cpu", "--model", "DLRM2", "--requests", "500"]
        assert main([*argv, flag, spec]) == 2
        assert message in capsys.readouterr().err


class TestPlan:
    def test_plans_the_minimal_fleet(self, capsys):
        assert main(
            [
                "plan",
                "--backends", "cpu", "centaur",
                "--model", "DLRM2",
                "--workload", "poisson:60000",
                "--requests", "4000",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Capacity plan" in out
        assert "recommended:" in out
        assert "cpu" in out and "centaur" in out

    def test_infeasible_plan_exits_nonzero(self, capsys):
        assert main(
            [
                "plan",
                "--backends", "cpu",
                "--model", "DLRM2",
                "--workload", "poisson:500000",
                "--requests", "2000",
                "--sla", "0.0001",
                "--max-replicas", "2",
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert "recommended: none" in out

    def test_requires_exactly_one_bound(self, capsys):
        assert main(["plan", "--model", "DLRM2"]) == 2
        assert "exactly one of --duration / --requests" in capsys.readouterr().err
