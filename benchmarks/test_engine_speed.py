"""Engine speed-trajectory benchmark and perf gate.

Measures simulated requests/sec (and peak RSS) of the event engine on a
constant-latency device model — pure engine + serving-loop cost, no device
pricing — across the queue implementations (binary heap vs calendar) and
event pooling on/off, at 100k and 1M requests (5M opt-in via
``REPRO_BENCH_5M=1``).

Every measurement runs in its own subprocess
(:mod:`benchmarks._engine_speed_worker`), which also reports a machine
calibration score (heap ops/sec) taken right before the run.  The gate
compares *calibration-normalized* throughput against the committed
``BENCH_engine.json`` trajectory and fails on a >20% regression, so the
check tracks engine changes rather than runner hardware; raw throughput
clearing the floor also passes, so a faster runner can never fail it.  A
fresh artifact is always written to ``benchmarks/BENCH_engine.fresh.json``
(gitignored; uploaded by CI) so the committed trajectory can be refreshed by
copying it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.utils.tables import TextTable

REPO_ROOT = pathlib.Path(__file__).parent.parent
WORKER = pathlib.Path(__file__).parent / "_engine_speed_worker.py"
#: The committed perf trajectory this suite gates against.
BASELINE_PATH = REPO_ROOT / "BENCH_engine.json"
#: Fresh measurements land here (gitignored; CI uploads it as an artifact).
FRESH_PATH = pathlib.Path(__file__).parent / "BENCH_engine.fresh.json"

#: Allowed calibration-normalized throughput regression before the gate fails.
TOLERANCE = 0.20

#: Default measurement plan: the full queue x pooling grid at 100k requests
#: plus the default configuration at the 1M trajectory point.
DEFAULT_PLAN = [
    ("heap", True, 100_000, 3),
    ("heap", False, 100_000, 3),
    ("calendar", True, 100_000, 3),
    ("calendar", False, 100_000, 3),
    ("heap", True, 1_000_000, 2),
]


def _measure(queue: str, pool: bool, requests: int, reps: int) -> dict:
    """Run one engine configuration in a fresh subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(WORKER), queue, str(int(pool)), str(requests), str(reps)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=False,
    )
    assert result.returncode == 0, (
        f"engine-speed worker failed for queue={queue} pool={pool} "
        f"requests={requests}:\n{result.stderr}"
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _render(points: list, title: str) -> str:
    table = TextTable(
        ["queue", "pooled", "requests", "reqs/sec", "peak RSS (MiB)"],
        title=title,
    )
    for point in points:
        rss = point.get("peak_rss_bytes")
        table.add_row(
            [
                point["queue"],
                "yes" if point["pool"] else "no",
                point["requests"],
                point["reqs_per_sec"],
                rss / (1 << 20) if rss else "n/a",
            ]
        )
    return table.render()


def _write_fresh(points: list) -> None:
    existing = []
    if FRESH_PATH.exists():
        existing = json.loads(FRESH_PATH.read_text(encoding="utf-8")).get("points", [])
    keys = {(p["queue"], p["pool"], p["requests"]) for p in points}
    merged = [
        p for p in existing if (p["queue"], p["pool"], p["requests"]) not in keys
    ] + points
    FRESH_PATH.write_text(
        json.dumps({"schema": "engine-speed/v1", "points": merged}, indent=2) + "\n",
        encoding="utf-8",
    )


def _gate(points: list) -> None:
    """Fail when neither normalized nor raw throughput clears the floor.

    The floor is ``1 - TOLERANCE`` of the committed throughput.  Raw
    throughput at or above it passes on its own: on a machine faster than
    the baseline's, the calibration scale is below 1 and can only pull a
    healthy point under the floor (the grid gate uses the same rule).
    """
    assert BASELINE_PATH.exists(), (
        "BENCH_engine.json is missing from the repo root; the perf gate "
        "has no trajectory to compare against"
    )
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    committed = {
        (p["queue"], p["pool"], p["requests"]): p for p in baseline["points"]
    }
    failures = []
    for point in points:
        reference = committed.get((point["queue"], point["pool"], point["requests"]))
        if reference is None:
            continue
        # Normalize to the baseline machine's speed: both runs carry a heap
        # ops/sec calibration taken in-process right before measuring.
        scale = reference["calibration_ops_per_s"] / point["calibration_ops_per_s"]
        normalized = point["reqs_per_sec"] * scale
        floor = (1.0 - TOLERANCE) * reference["reqs_per_sec"]
        if max(normalized, point["reqs_per_sec"]) < floor:
            failures.append(
                f"queue={point['queue']} pool={point['pool']} "
                f"requests={point['requests']}: normalized {normalized:,.0f} "
                f"req/s < floor {floor:,.0f} (committed "
                f"{reference['reqs_per_sec']:,.0f}, raw {point['reqs_per_sec']:,.0f}, "
                f"calibration scale {scale:.2f})"
            )
    assert not failures, "engine throughput regressed >20%:\n" + "\n".join(failures)


def _committed_point(queue: str, pool: bool, requests: int) -> dict:
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    return next(
        point
        for point in baseline["points"]
        if (point["queue"], point["pool"], point["requests"]) == (queue, pool, requests)
    )


def test_gate_passes_a_faster_box_on_raw_throughput():
    """Calibration scale 0.6 with raw throughput above the floor: the
    normalized figure alone would fail a healthy run."""
    reference = _committed_point("heap", True, 1_000_000)
    floor = (1.0 - TOLERANCE) * reference["reqs_per_sec"]
    point = dict(
        reference,
        reqs_per_sec=1.05 * floor,
        calibration_ops_per_s=reference["calibration_ops_per_s"] / 0.6,
    )
    assert point["reqs_per_sec"] * 0.6 < floor
    _gate([point])


def test_gate_still_fails_a_real_regression():
    reference = _committed_point("heap", True, 1_000_000)
    floor = (1.0 - TOLERANCE) * reference["reqs_per_sec"]
    point = dict(reference, reqs_per_sec=0.9 * floor)
    with pytest.raises(AssertionError, match="regressed"):
        _gate([point])
    faster_box = dict(point, calibration_ops_per_s=reference["calibration_ops_per_s"] / 0.6)
    with pytest.raises(AssertionError, match="regressed"):
        _gate([faster_box])


@pytest.mark.perf
def test_engine_speed_trajectory(rss_probe):
    """Queue/pooling grid at 100k + the gated 1M trajectory point."""
    points = [_measure(*plan) for plan in DEFAULT_PLAN]
    print()
    print(_render(points, "Engine speed (simulated requests/sec)"))
    _write_fresh(points)
    _gate(points)


@pytest.mark.perf
@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_5M") != "1",
    reason="5M-request point is opt-in (REPRO_BENCH_5M=1); ~30s per config",
)
def test_engine_speed_5m(rss_probe):
    """The deep-queue 5M point, heap vs calendar (opt-in)."""
    points = [
        _measure("heap", True, 5_000_000, 1),
        _measure("calendar", True, 5_000_000, 1),
    ]
    print()
    print(_render(points, "Engine speed at 5M requests"))
    _write_fresh(points)
    _gate(points)
