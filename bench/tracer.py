"""Host-time span tracer that instruments ``repro`` from outside.

The traced benchmark run replaces selected methods and module functions of
the simulator with timing wrappers; nothing under ``src/`` changes.  Every
wrapped call is a span.  Spans nest on a stack, and a span's *self time*
is its duration minus the time its child spans cover, so the self times of
all spans sum to the duration of the outermost one (``cli.main``).

A hook whose target no longer exists (a refactor renamed it) is listed as
untraced instead of failing the run; its metrics read zero.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import itertools
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Per-call percentiles are reported only for hooks called at least this often.
PERCENTILE_MIN_CALLS = 1000

#: Spans kept in the trace file: the first this many, in end order.
MAX_SPANS = 20_000


@dataclass(frozen=True)
class Hook:
    """One instrumented target.

    Attributes:
        name: Span name, ``<module>.<hook>``; several hooks may share one.
        module: Module that defines the target.
        target: ``"Class.method"``, ``"function"``, or an fnmatch pattern
            in the last component (``"render_*"``, ``"FaultInjector.*"``).
        counters: Names of the counters ``count`` returns.
        count: ``(args, result, before) -> {counter: increment}``, evaluated
            after each call outside the span's own time.
        before: ``(args) -> state`` captured before each call for ``count``.
        items: For generator functions: the counter of items yielded.  Each
            ``next()`` on the returned iterator is then one span.
        subclasses: Also wrap overrides defined by loaded subclasses.
    """

    name: str
    module: str
    target: str
    counters: Tuple[str, ...] = ()
    count: Optional[Callable] = None
    before: Optional[Callable] = None
    items: Optional[str] = None
    subclasses: bool = False


#: What the traced run instruments, grouped by the layer each name reports.
HOOKS: Tuple[Hook, ...] = (
    # Hot-row cache and shard fan-out (the shard-* workloads).
    Hook(
        "sharding.cache.lookup", "repro.sharding.cache", "EmbeddingCache.lookup",
        counters=("rows", "hits"),
        count=lambda args, result, before: {
            "rows": len(args[2]), "hits": int(result.sum())
        },
    ),
    Hook(
        "sharding.cache.update", "repro.sharding.cache", "EmbeddingCache.apply_update",
        counters=("rows", "affected"),
        count=lambda args, result, before: {"rows": len(args[2]), "affected": result},
    ),
    Hook("sharding.plan.owner_of", "repro.sharding.plan", "ShardingPlan.owner_of",
         counters=("rows",), count=lambda args, result, before: {"rows": len(args[2])}),
    Hook("workloads.traces.draw", "repro.workloads.traces", "TraceModel.draw",
         counters=("rows",), count=lambda args, result, before: {"rows": args[3]},
         subclasses=True),
    Hook("serving.sharded.price", "repro.serving.sharded",
         "ShardedReplicaServer._execute_result"),
    Hook("workloads.updates", "repro.workloads.updates", "UpdateProcess.events",
         items="pushes"),
    # Event engine, replicas, batching and arrivals (every serve workload).
    Hook(
        "sim", "repro.sim.engine", "Simulator.run",
        counters=("events",),
        before=lambda args: args[0].events_fired,
        count=lambda args, result, before: {"events": args[0].events_fired - before},
    ),
    Hook("serving.replica.submit", "repro.serving.replica", "ReplicaServer.submit"),
    Hook("serving.replica.start", "repro.serving.replica", "ReplicaServer._maybe_start"),
    Hook("serving.replica.complete", "repro.serving.replica", "ReplicaServer._on_complete"),
    Hook("serving.batching", "repro.serving.batching", "BatchingPolicy.on_*",
         subclasses=True),
    Hook("workloads.arrivals", "repro.workloads.arrivals", "ArrivalProcess.arrivals",
         items="requests"),
    # Fleet routing, elasticity and chaos (fleet-chaos).
    Hook("serving.dispatch.select", "repro.serving.dispatch", "Dispatcher.select",
         subclasses=True),
    Hook("serving.autoscale.route", "repro.serving.autoscale", "_AutoscaleController.route"),
    Hook("serving.autoscale.tick", "repro.serving.autoscale",
         "_AutoscaleController._on_tick"),
    Hook("chaos.injector", "repro.chaos.injector", "FaultInjector.*"),
    # Device pricing and its memoization (sweep-dense, and set-up elsewhere).
    Hook(
        "experiment.cache", "repro.experiment.cache", "ResultCache.get_or_compute",
        counters=("hits",),
        before=lambda args: args[0].hits,
        count=lambda args, result, before: {"hits": args[0].hits - before},
    ),
    Hook("experiment.cache.key", "repro.experiment.cache", "ResultCache.key"),
    Hook("pricing.service", "repro.serving.replica", "ServiceModel.result"),
    Hook("backends.cpu.run", "repro.cpu.cpu_runner", "CPUOnlyRunner.run"),
    Hook("backends.cpu-gpu.run", "repro.gpu.gpu_runner", "CPUGPURunner.run"),
    Hook("backends.centaur.run", "repro.core.centaur", "CentaurRunner.run"),
    # Report building.
    Hook("analysis.render", "repro.analysis.report", "render_*"),
    Hook("analysis.percentiles", "repro.serving.metrics", "LatencyDistribution.__init__"),
    Hook("analysis.percentiles", "repro.serving.metrics", "LatencyDistribution.percentile*"),
    Hook("analysis.percentiles", "repro.serving.metrics",
         "LatencyDistribution.sla_attainment"),
)


class SpanStats:
    """Aggregate of every span of one name."""

    __slots__ = ("calls", "total_s", "self_s", "durations", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = array("d")
        self.counters: Dict[str, int] = {}

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "calls": self.calls, "total_s": self.total_s, "self_s": self.self_s
        }
        out.update(self.counters)
        if self.calls >= PERCENTILE_MIN_CALLS:
            ordered = sorted(self.durations)
            out["p50_us"] = 1e6 * ordered[(len(ordered) - 1) // 2]
            out["p99_us"] = 1e6 * ordered[int(0.99 * (len(ordered) - 1))]
        return out


class _TracedIterator:
    """Iterator whose every ``next()`` is one span (for generator hooks).

    Deliberately exposes nothing but the iterator protocol: the serving
    stack switches to one-at-a-time pulls for iterators that carry extra
    attributes such as ``exhausted``.
    """

    __slots__ = ("_next",)

    def __init__(self, next_item: Callable):
        self._next = next_item

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        return self._next()


class Tracer:
    """Installs hooks and aggregates their spans in memory."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {}
        #: Targets that could not be instrumented, as ``module:target``.
        self.untraced: List[str] = []
        #: Sampled spans: ``[id, parent id (0 = none), name, start_s, end_s]``.
        self.spans: List[list] = []
        self.spans_dropped = 0
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._origin = perf_counter()

    # -- instrumentation -------------------------------------------------
    def install(self, hooks: Tuple[Hook, ...] = HOOKS) -> None:
        for hook in hooks:
            self._stats_for(hook.name, hook.counters + ((hook.items,) if hook.items else ()))
            try:
                targets = list(_resolve(hook))
            except (ImportError, AttributeError):
                targets = []
            if not targets:
                self.untraced.append(f"{hook.module}:{hook.target}")
            for owner, attr, raw in targets:
                if isinstance(raw, (staticmethod, classmethod)):
                    setattr(owner, attr, type(raw)(self._wrap_hook(hook, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap_hook(hook, raw))

    def _wrap_hook(self, hook: Hook, fn: Callable) -> Callable:
        if hook.items is None:
            return self.wrap(hook.name, fn, hook.count, hook.before)
        counted = {hook.items: 1}

        def generate(*args, **kwargs):
            next_item = iter(fn(*args, **kwargs)).__next__
            return _TracedIterator(
                self.wrap(hook.name, next_item, lambda a, r, b: counted)
            )

        return generate

    def _stats_for(self, name: str, counters: Tuple[str, ...] = ()) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        for counter in counters:
            stats.counters.setdefault(counter, 0)
        return stats

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` timed as a span called ``name``."""
        stats = self._stats_for(name)
        counters = stats.counters
        stack = self._stack
        spans = self.spans
        ids = self._ids
        origin = self._origin
        tracer = self
        broken: List[bool] = []

        def disable_counters() -> None:
            # A counter that no longer fits the target's signature disables
            # itself instead of failing the run.
            broken.append(True)
            tracer.untraced.append(f"{name} counters")

        def traced(*args, **kwargs):
            state = None
            if before is not None and not broken:
                try:
                    state = before(args)
                except (AttributeError, IndexError, TypeError):
                    disable_counters()
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = 0
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                stats.durations.append(duration)
                if len(spans) < MAX_SPANS:
                    spans.append([frame[1], parent, name, start - origin, end - origin])
                else:
                    tracer.spans_dropped += 1
            if count is not None and not broken:
                try:
                    for counter, increment in count(args, result, state).items():
                        counters[counter] += increment
                except (AttributeError, IndexError, KeyError, TypeError):
                    disable_counters()
            return result

        return traced

    # -- results -----------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        return {name: stats.summary() for name, stats in self.stats.items()}


def _resolve(hook: Hook) -> Iterator[Tuple[object, str, object]]:
    """Yield ``(owner, attribute, raw object)`` for every matching target."""
    module = importlib.import_module(hook.module)
    owner_name, _, pattern = hook.target.rpartition(".")
    if owner_name:
        base = getattr(module, owner_name)
        owners = [base] + (_subclasses(base) if hook.subclasses else [])
    else:
        owners = [module]
    for owner in owners:
        for attr, raw in list(vars(owner).items()):
            if not fnmatch.fnmatchcase(attr, pattern):
                continue
            if attr.startswith("__") and attr != pattern:
                continue  # wildcards never match dunders
            if isinstance(raw, (staticmethod, classmethod)):
                yield owner, attr, raw
            elif inspect.isfunction(raw):
                if owner is module and raw.__module__ != module.__name__:
                    continue  # a name the module imported, not one it defines
                yield owner, attr, raw


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
def _span_names() -> List[str]:
    return list(dict.fromkeys(hook.name for hook in HOOKS))


def _hook_metric_names() -> List[Tuple[str, str]]:
    # Layer time is reported as ``share``, self time over the traced wall
    # time: a layer a workload never runs then reads 0 as a ratio, not as a
    # constant 0 s, and shares within one call do not drift with host speed.
    # Absolute seconds stay in the trace file.
    names: List[Tuple[str, str]] = []
    for span in _span_names():
        hooks = [hook for hook in HOOKS if hook.name == span]
        items = next((hook.items for hook in hooks if hook.items), None)
        names.append((f"{span}.{items or 'calls'}", "count"))
        for hook in hooks:
            names.extend((f"{span}.{counter}", "count") for counter in hook.counters)
        names.append((f"{span}.share", "ratio"))
    return list(dict.fromkeys(names))


#: Every per-layer metric a traced run reports, with its unit, in order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    _hook_metric_names()
    + [
        ("sharding.cache.lookup.hit_ratio", "ratio"),
        ("experiment.cache.misses", "count"),
        ("experiment.cache.hit_ratio", "ratio"),
        ("pricing.memo_hit_ratio", "ratio"),
        ("cli.import_s", "s"),
        ("cli.other_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.closure_error", "ratio"),
        ("trace.untraced_hooks", "count"),
    ]
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    summary: Dict[str, Dict[str, float]],
    wall_s: float,
    import_s: float,
    overhead_ratio: float,
    untraced: List[str],
) -> Dict[str, float]:
    """Flatten a traced run into the :data:`PER_LAYER` metrics.

    ``summary`` must include the root span ``cli.main``; ``wall_s`` is the
    root call's wall time measured outside the tracer, so the closure error
    checks that the layer self times account for all of it.
    ``overhead_ratio`` is the traced call time over the untraced median.
    """

    def stat(span: str, key: str = "calls") -> float:
        return summary.get(span, {}).get(key, 0)

    values: Dict[str, float] = {}
    for metric, _ in _hook_metric_names():
        span, _, key = metric.rpartition(".")
        if key == "share":
            values[metric] = _ratio(stat(span, "self_s"), wall_s)
        else:
            values[metric] = stat(span, key)
    cache_calls = stat("experiment.cache")
    pricing_calls = stat("pricing.service") + cache_calls
    backend_runs = sum(stat(name) for name in _span_names() if name.startswith("backends."))
    self_total = sum(entry["self_s"] for entry in summary.values())
    values.update(
        {
            "sharding.cache.lookup.hit_ratio": _ratio(
                stat("sharding.cache.lookup", "hits"), stat("sharding.cache.lookup", "rows")
            ),
            "experiment.cache.misses": cache_calls - stat("experiment.cache", "hits"),
            "experiment.cache.hit_ratio": _ratio(
                stat("experiment.cache", "hits"), cache_calls
            ),
            "pricing.memo_hit_ratio": max(
                0.0, _ratio(pricing_calls - backend_runs, pricing_calls)
            ),
            "cli.import_s": import_s,
            "cli.other_s": stat("cli.main", "self_s"),
            "trace.wall_s": wall_s,
            "trace.overhead_ratio": overhead_ratio,
            "trace.closure_error": _ratio(abs(self_total - wall_s), wall_s),
            "trace.untraced_hooks": len(untraced),
        }
    )
    return {name: values[name] for name, _ in PER_LAYER}
