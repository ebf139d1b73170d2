"""One benchmark repetition in a fresh process.

Usage: ``python bench/worker.py JOB`` with ``src`` on ``PYTHONPATH``, where
JOB is a JSON object:

* ``argv`` — arguments of the measured ``repro`` CLI call;
* ``warmup`` — arguments of the warm-up call (the same command, smaller);
* ``trace`` — optional ``{"path", "untraced_call_s", "meta"}``:
  instrument the measured call and write the trace file to ``path``;
  ``untraced_call_s`` is the untraced call time at nominal host speed.

The worker times ``import repro.cli`` and the warm-up call (together the
set-up), resets the process-wide ``ResultCache`` so the measured call
prices every design point itself, then runs the measured call with its
stdout captured.  It prints one JSON line with the timings, its peak RSS
and SHA-256 digests of both calls' stdout, and exits with the status of
the first CLI call that failed (0 when both succeeded).

Each phase also reports the host's *slowdown* while it ran.  A timer
signal interrupts the phase every :data:`SAMPLE_INTERVAL_S` to time a
short fixed reference loop; the slowdown is the harmonic mean of those
times over :data:`REFERENCE_NOMINAL_S`, and the samples' own time is
taken out of the phase's.  On a shared machine one core's speed drifts
within a second, so only samples taken during the phase follow it.  The
traced call is sampled just before and just after instead, so that no
sample lands in its spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Tuple

#: Iterations of one reference-loop sample.
REFERENCE_ITERATIONS = 10_000
#: The reference loop's time on an uncontended 2.1 GHz Xeon core; scaled
#: host times are what that core would have measured.
REFERENCE_NOMINAL_S = 0.00175
#: Wall-clock interval between reference samples while a phase runs.
SAMPLE_INTERVAL_S = 0.05


def _reference_s() -> float:
    """Duration of one run of a fixed interpreter-bound loop.

    The timed loop allocates no containers, so the simulator's heap and
    garbage-collector state do not change its speed; only the host does.
    """
    table = dict.fromkeys(range(1024), 0)
    start = perf_counter()
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 1023] += 1
        total += (i * 0.5) % 7.0
    return perf_counter() - start


def _timed(fn: Callable, *args, sample: bool = True) -> Tuple[Any, float, float]:
    """Run ``fn(*args)``; returns (result, seconds, host slowdown)."""
    samples = [_reference_s()]
    if sample:
        previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: samples.append(_reference_s())
        )
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = perf_counter()
    try:
        result = fn(*args)
    finally:
        elapsed = perf_counter() - start
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    elapsed -= sum(samples[1:])
    samples.append(_reference_s())
    return result, elapsed, statistics.harmonic_mean(samples) / REFERENCE_NOMINAL_S


def _call(main, argv, sample: bool = True):
    """Run one CLI call; returns (exit status, seconds, slowdown, stdout digest)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status, elapsed, slowdown = _timed(main, argv, sample=sample)
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    return status, elapsed, slowdown, digest


def main() -> int:
    job = json.loads(sys.argv[1])
    cli, import_s, import_slowdown = _timed(importlib.import_module, "repro.cli")
    status, warmup_s, warmup_slowdown, warmup_digest = _call(cli.main, job["warmup"])
    if status:
        return status
    from repro.experiment.cache import ResultCache, set_default_cache

    set_default_cache(ResultCache())

    trace = job.get("trace")
    run = cli.main
    if trace:
        import tracer

        spans = tracer.Tracer()
        spans.install()
        run = spans.wrap("cli.main", run)
    status, call_s, call_slowdown, digest = _call(run, job["argv"], sample=not trace)
    if status:
        return status

    import numpy

    result = {
        "import_s": import_s,
        "import_slowdown": import_slowdown,
        "warmup_s": warmup_s,
        "warmup_slowdown": warmup_slowdown,
        "call_s": call_s,
        "call_slowdown": call_slowdown,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "warmup_digest": warmup_digest,
        "digest": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if trace:
        summary = spans.summary()
        overhead_ratio = call_s / call_slowdown / trace["untraced_call_s"]
        result["layers"] = tracer.layer_metrics(
            summary, call_s, import_s, overhead_ratio, spans.untraced
        )
        result["hooks"] = summary
        result["untraced"] = spans.untraced
        path = Path(trace["path"])
        path.parent.mkdir(parents=True, exist_ok=True)
        record = dict(trace.get("meta", {}))
        record.update(
            metrics=result["layers"],
            hooks=summary,
            untraced=spans.untraced,
            spans_dropped=spans.spans_dropped,
            span_fields=["id", "parent", "name", "start_s", "end_s"],
            spans=spans.spans,
        )
        path.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
