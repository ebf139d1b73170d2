"""Self-test of the benchmark harness.

Run with ``pytest bench`` from the repository root.  Every run uses the
``--smoke`` sizes, so the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types

import run
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_result(result: dict, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_describes_the_harness():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracer.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(bound < bounds["setup_s"] for name, bound in bounds.items() if name != "setup_s")


def test_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [w["name"] for w in BENCHMARK["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]) and len(metric["unit"]) <= 16
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_result_line(capsys):
    status = run.main(["--workload", "serve-static", "--smoke", "--seconds", "0", "--reps", "2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    check_result(result, run.END_TO_END)
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_layer_and_closes(tmp_path):
    path = tmp_path / "trace.json"
    measurement = run.measure(
        run.WORKLOADS["shard-zipf-lru"], 0, 0, 1, smoke=True, trace_path=path
    )
    assert measurement.failed == 0 and measurement.traced is not None
    result = {"correct": True, "attempted": measurement.attempted, "failed": 0,
              "metrics": run.metrics_of(measurement, trace=True)}
    check_result(result, dict(tracer.PER_LAYER))
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["trace.closure_error"] < 0.01
    assert metrics["trace.untraced_hooks"] == 0
    assert metrics["sharding.cache.lookup.calls"] > 0
    assert metrics["sharding.cache.lookup.rows"] == metrics["workloads.traces.draw.rows"]
    assert metrics["experiment.cache.calls"] == 0
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["workload"] == "shard-zipf-lru" and record["spans"]
    assert record["metrics"] == measurement.traced["layers"]


def test_digest_is_equal_across_invocations():
    workload = run.WORKLOADS["shard-push-lfu"]
    first = run.measure(workload, 3, 0, 2, smoke=True)
    second = run.measure(workload, 3, 0, 1, smoke=True)
    assert first.failed == second.failed == 0
    assert first.digest is not None and first.digest == second.digest


def test_failing_argv_is_counted_not_raised(tmp_path, monkeypatch, capsys):
    broken = dataclasses.replace(
        run.WORKLOADS["serve-static"],
        command=("serve", "--backend", "no-such-backend", "--model", "DLRM2"),
    )
    measurement = run.measure(broken, 0, 0, 2, smoke=True)
    assert measurement.attempted == 2 and measurement.failed == 2
    assert measurement.samples["work_per_s"] == []

    # A traced repetition that fails (here: its trace file cannot be
    # written) is counted too, and the result line is still printed.
    (tmp_path / "not-a-directory").write_text("", encoding="utf-8")
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path / "not-a-directory")
    status = run.main(["--workload", "serve-static", "--smoke", "--seconds", "0",
                       "--reps", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    check_result(result, dict(tracer.PER_LAYER))
    assert not result["correct"] and result["attempted"] == 2 and result["failed"] == 1
    assert all(metric["value"] == 0 for metric in result["metrics"].values())


def test_self_time_closes_over_nested_spans():
    spans = tracer.Tracer()

    def leaf():
        return sum(range(20_000))

    def middle():
        return leaf() + leaf()

    leaf = spans.wrap("leaf", leaf)
    middle = spans.wrap("middle", middle)
    root = spans.wrap("root", lambda: middle() + leaf())
    root()
    summary = spans.summary()
    assert summary["leaf"]["calls"] == 3 and summary["middle"]["calls"] == 1
    total = sum(entry["self_s"] for entry in summary.values())
    assert abs(total - summary["root"]["total_s"]) < 1e-9
    assert [span[2] for span in spans.spans] == ["leaf", "leaf", "middle", "leaf", "root"]


def test_renamed_targets_and_stale_counters_do_not_crash(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Cache:
        def lookup(self, rows):
            return len(rows)

    module.Cache = Cache
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    spans = tracer.Tracer()
    spans.install((
        tracer.Hook("gone.method", "fake_layer", "Cache.no_such_method"),
        tracer.Hook("gone.module", "no_such_module", "anything"),
        tracer.Hook("fake.lookup", "fake_layer", "Cache.lookup", counters=("rows",),
                    count=lambda args, result, before: {"rows": len(args[5])}),
    ))
    assert Cache().lookup([1, 2]) == 2
    assert spans.untraced == [
        "fake_layer:Cache.no_such_method",
        "no_such_module:anything",
        "fake.lookup counters",
    ]
    assert spans.summary()["fake.lookup"]["calls"] == 1


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve-static", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
