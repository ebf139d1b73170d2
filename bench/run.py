"""End-to-end benchmark of the simulator, driven through its command line.

Usage, from the repository root::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--reps N]
                         [--trace [0|1]] [--smoke]

Each repetition runs one workload's ``repro`` CLI call in a fresh worker
process (``bench/worker.py``), one at a time, with BLAS threads pinned to
one.  Repetitions continue until ``--seconds`` have passed and at least
``--reps`` have run; every end-to-end metric is the median over the
repetitions that succeeded.  A repetition fails on a non-zero exit, a
timeout, or CLI output whose SHA-256 differs from the committed digest
(``bench/digests.json``) or from the other repetitions.  Failures are
counted, never raised.

Host times are reported at a nominal host speed: each phase's time is
divided by the host *slowdown* the worker sampled while it ran (see
``bench/worker.py``).  On a shared machine the speed of one core drifts by
up to 2x within a second; the raw figures are printed beside the scaled
ones.

``--trace 1`` adds one instrumented repetition and reports the per-layer
metrics of ``bench/tracer.py`` instead; the full trace is written to
``bench/out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic
from typing import Dict, List, Optional, Tuple

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Where ``--trace 1`` writes ``trace-<workload>.json``.
TRACE_DIR = BENCH / "out"

#: Seed of the committed digests; warm-up calls always run at this seed.
DIGEST_SEED = 0
#: A single CLI call that takes longer than this counts as failed.
CALL_TIMEOUT_S = 120.0
#: Wall-clock budget of one invocation per workload (the harness must exit
#: well inside three minutes even when a call hangs).
RUN_BUDGET_S = 170.0
#: Upper bound on repetitions per invocation, whatever ``--seconds`` says.
MAX_REPS = 50
#: Design points per batch size of the sweep: 3 backends x 6 models.
SWEEP_POINTS_PER_BATCH = 18

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed beside the end-to-end metrics, never part of the result line.
UNSCALED = {
    "raw_work_per_s": "1/s",
    "raw_setup_s": "s",
    "host_slowdown": "x",
}


@dataclass(frozen=True)
class Workload:
    """One CLI invocation the benchmark times.

    Serving workloads are sized in requests and take the run's seed; the
    sweep is sized in batch sizes ``1..size`` and is seed-independent.
    The warm-up call always runs at :data:`DIGEST_SEED`, so its committed
    digest checks every repetition whatever the seed.  ``warmup_size`` and
    ``warmup_command`` (default: ``command``) let it reach the code paths
    the workload exists for.
    """

    name: str
    command: Tuple[str, ...]
    size: int
    smoke_size: int
    warmup_size: int = 64
    warmup_command: Optional[Tuple[str, ...]] = None

    @property
    def is_sweep(self) -> bool:
        return self.command[0] == "sweep"

    def argv(self, size: int, seed: int) -> List[str]:
        return self._argv(self.command, size, seed)

    def warmup_argv(self) -> List[str]:
        return self._argv(self.warmup_command or self.command, self.warmup_size, DIGEST_SEED)

    def _argv(self, command: Tuple[str, ...], size: int, seed: int) -> List[str]:
        if self.is_sweep:
            return [*command, "--batches", *map(str, range(1, size + 1))]
        return [*command, "--requests", str(size), "--seed", str(seed)]

    def work(self, size: int) -> int:
        """Simulated requests, or priced design points, of one call."""
        return size * SWEEP_POINTS_PER_BATCH if self.is_sweep else size


_SHARDED = ("serve", "--backend", "centaur", "--model", "DLRM2",
            "--workload", "poisson:30000", "--trace", "zipf:1.05")
_PUSHES = ("--updates", "invalidate:rate=30000,rows=256", "--jobs", "1")

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "serve-static",
            ("serve", "--backend", "centaur", "--model", "DLRM2",
             "--workload", "poisson:80000", "--replicas", "4", "--jobs", "1"),
            size=187_500,
            smoke_size=2_000,
        ),
        Workload(
            "fleet-chaos",
            ("serve", "--backend", "cpu", "--model", "DLRM2",
             "--workload", "diurnal:trough=5000,peak=60000,period=2",
             "--autoscale", "util:target=0.7", "--min-replicas", "2",
             "--max-replicas", "16", "--faults", "region-failover", "--jobs", "1"),
            size=125_000,
            smoke_size=2_000,
            # Past the crash at 60 ms, its re-dispatch and shedding, both
            # restarts at 110 ms and the first scale-out at about 0.4 s.
            warmup_size=8_000,
        ),
        Workload(
            "shard-zipf-lru",
            (*_SHARDED, "--shards", "4:row", "--cache", "lru:rows=4096", "--jobs", "1"),
            size=1_250,
            smoke_size=40,
        ),
        Workload(
            "shard-push-lfu",
            (*_SHARDED, "--shards", "2:row", "--cache", "lfu:rows=65536", *_PUSHES),
            size=375,
            smoke_size=20,
            # 65,536-row caches start evicting only after about 310 requests;
            # 8,192-row ones already evict in the warm-up's 64.
            warmup_command=(*_SHARDED, "--shards", "2:row", "--cache", "lfu:rows=8192",
                            *_PUSHES),
        ),
        Workload(
            "sweep-dense",
            ("sweep", "--backends", "cpu", "cpu-gpu", "centaur",
             "--models", "DLRM1", "DLRM2", "DLRM3", "DLRM4", "DLRM5", "DLRM6",
             "--jobs", "1"),
            size=512,
            smoke_size=4,
            warmup_size=1,
        ),
    )
}


def load_digests() -> Dict[str, Dict[str, str]]:
    path = BENCH / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class Measurement:
    """What one invocation measured for one workload."""

    workload: str
    argv: List[str]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per-repetition end-to-end values of the repetitions that succeeded.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    digest: Optional[str] = None
    digest_source: str = "repetitions"
    warmup_digest: Optional[str] = None
    #: Worker output of the traced repetition (``--trace 1`` only).
    traced: Optional[dict] = None
    versions: Dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])


def run_worker(job: dict, timeout: float) -> Tuple[Optional[dict], Optional[str]]:
    """Run one repetition; returns (worker result, None) or (None, error)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **WORKER_ENV)
    command = [sys.executable, str(BENCH / "worker.py"), json.dumps(job)]
    try:
        process = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if process.returncode != 0:
        tail = process.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"exit status {process.returncode}: {tail[0]}"
    try:
        return json.loads(process.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "worker printed no result"


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    reps: int,
    smoke: bool = False,
    trace_path: Optional[Path] = None,
) -> Measurement:
    """Time ``workload`` for ``seconds`` (at least ``reps`` repetitions)."""
    size = workload.smoke_size if smoke else workload.size
    argv = workload.argv(size, seed)
    job = {"argv": argv, "warmup": workload.warmup_argv()}
    digests = load_digests()
    expected_warmup = digests.get("warmup", {}).get(workload.name)
    expected = None
    if not smoke and (workload.is_sweep or seed == DIGEST_SEED):
        expected = digests.get("measured", {}).get(workload.name)
    measurement = Measurement(workload.name, argv)
    started = monotonic()

    def attempt(spec: dict) -> Optional[dict]:
        measurement.attempted += 1
        timeout = max(1.0, min(CALL_TIMEOUT_S, RUN_BUDGET_S - (monotonic() - started)))
        result, error = run_worker(spec, timeout)
        if error is None and expected_warmup and result["warmup_digest"] != expected_warmup:
            error = "warm-up output differs from the committed digest"
        if error is not None:
            measurement.failures.append(error)
            return None
        return result

    results = []
    while measurement.attempted < MAX_REPS and (
        measurement.attempted < reps or monotonic() - started < seconds
    ):
        result = attempt(job)
        if result is not None:
            results.append(result)
    if results:
        measurement.digest = expected or Counter(r["digest"] for r in results).most_common(1)[0][0]
        measurement.digest_source = "committed" if expected else "repetitions"
    good = []
    for result in results:
        if result["digest"] == measurement.digest:
            good.append(result)
        else:
            measurement.failures.append(
                f"output digest {result['digest'][:12]} differs from "
                f"the {measurement.digest_source} {measurement.digest[:12]}"
            )
    work = workload.work(size)
    samples = measurement.samples = {name: [] for name in (*END_TO_END, *UNSCALED)}
    for result in good:
        slowdown = result["call_slowdown"]
        samples["work_per_s"].append(work * slowdown / result["call_s"])
        samples["setup_s"].append(
            result["import_s"] / result["import_slowdown"]
            + result["warmup_s"] / result["warmup_slowdown"]
        )
        samples["peak_rss_mb"].append(result["peak_rss_kb"] * 1024 / 1e6)
        samples["raw_work_per_s"].append(work / result["call_s"])
        samples["raw_setup_s"].append(result["import_s"] + result["warmup_s"])
        samples["host_slowdown"].append(slowdown)
    if good:
        measurement.versions = {"python": good[0]["python"], "numpy": good[0]["numpy"]}
        measurement.warmup_digest = good[0]["warmup_digest"]
    if trace_path is not None and good:
        traced_job = dict(
            job,
            trace={
                "path": str(trace_path),
                "untraced_call_s": statistics.median(
                    r["call_s"] / r["call_slowdown"] for r in good
                ),
                "meta": {"workload": workload.name, "seed": seed, "argv": argv,
                         "provenance": provenance(measurement.versions)},
            },
        )
        traced = attempt(traced_job)
        if traced is not None and traced["digest"] != measurement.digest:
            measurement.failures.append("traced output differs from the untraced output")
        elif traced is not None:
            measurement.traced = traced
    return measurement


def provenance(versions: Dict[str, str]) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never look for a repository above the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def metrics_of(measurement: Measurement, trace: bool) -> Dict[str, dict]:
    """The result-line metrics: per-layer when traced, end-to-end otherwise.

    When the traced repetition failed, every per-layer metric reads 0.
    """
    if trace:
        layers = measurement.traced["layers"] if measurement.traced else {}
        return {
            name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER
        }
    return {
        name: {"value": measurement.median(name), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def print_report(measurement: Measurement) -> None:
    print(
        f"== {measurement.workload}: {measurement.attempted} runs, "
        f"{measurement.failed} failed"
    )
    print("   repro " + " ".join(measurement.argv[:24])
          + (" ..." if len(measurement.argv) > 24 else ""))
    for failure in measurement.failures:
        print(f"   FAILED: {failure}")
    if measurement.digest:
        print(f"   stdout sha256 {measurement.digest} ({measurement.digest_source})")
        print(f"   warm-up stdout sha256 {measurement.warmup_digest}")
    print(f"   {'metric':<16}{'unit':>6}{'median':>14}{'min':>14}{'max':>14}{'n':>4}")
    for name, unit in {**END_TO_END, **UNSCALED}.items():
        values = measurement.samples.get(name) or []
        if values:
            print(
                f"   {name:<16}{unit:>6}{statistics.median(values):>14.6g}"
                f"{min(values):>14.6g}{max(values):>14.6g}{len(values):>4}"
            )
    if measurement.traced is not None:
        hooks = measurement.traced["hooks"]
        wall = measurement.traced["layers"]["trace.wall_s"]
        print(f"   layer shares of the traced call ({wall:.3f} s wall; "
              f"cli.main self time is cli.other_s)")
        ranked = sorted(hooks.items(), key=lambda item: -item[1]["self_s"])
        for name, entry in ranked:
            if entry["calls"]:
                print(f"   {name:<28}{entry['self_s']:>10.4f} s{100 * entry['self_s'] / wall:>7.1f} %"
                      f"{int(entry['calls']):>10} calls")
        for target in measurement.traced["untraced"]:
            print(f"   untraced: {target}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DIGEST_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure each workload for this long (default 20)")
    parser.add_argument("--reps", type=int, default=3,
                        help="minimum repetitions per workload (default 3)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add a traced run and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny request counts, for testing the harness")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    measurements = []
    for name in names:
        trace_path = TRACE_DIR / f"trace-{name}.json" if args.trace else None
        measurement = measure(
            WORKLOADS[name], args.seed, args.seconds, args.reps, args.smoke, trace_path
        )
        print_report(measurement)
        if not measurement.samples["work_per_s"]:
            print(f"error: {name} produced no successful run", file=sys.stderr)
            return 1
        measurements.append(measurement)

    print("provenance: " + json.dumps(provenance(measurements[0].versions)))
    trace = bool(args.trace)
    if len(measurements) == 1:
        metrics = metrics_of(measurements[0], trace)
    else:
        metrics = {
            f"{m.workload}.{name}": value
            for m in measurements
            for name, value in metrics_of(m, trace).items()
        }
    failed = sum(m.failed for m in measurements)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(m.attempted for m in measurements),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
