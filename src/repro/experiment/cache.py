"""Memoizing result cache keyed on (backend, model, batch, system).

Every design point in the evaluation grid is a pure function of those four
coordinates, so the figures and tables that slice the same grid can share
one :class:`ResultCache` and compute each point exactly once.  A
process-wide default cache backs :class:`repro.experiment.Experiment`
unless a caller supplies (or disables) its own.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.backends.base import Backend
from repro.config.models import DLRMConfig
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.results import InferenceResult
from repro.version import __version__

#: One memoized design point: (backend name, model fingerprint, batch, system fingerprint).
CacheKey = Tuple[str, str, int, str]

#: Instance attribute a configuration's digest is stored under.
_FINGERPRINT_ATTR = "_repro_fingerprint"


def _fingerprint_dataclass(value) -> str:
    """Stable short hash of a (nested) frozen configuration dataclass.

    Computed once per instance and stored on it, the way
    :func:`functools.cached_property` stores its value, so every later key
    is one dict lookup instead of a deep hash of a 50-table model.  Equal
    instances compute equal digests; a :func:`dataclasses.replace` variant
    is a new instance and computes its own; a pickled copy carries it.
    """
    memo = vars(value)
    digest = memo.get(_FINGERPRINT_ATTR)
    if digest is None:
        payload = repr(dataclasses.asdict(value)).encode("utf-8")
        digest = memo[_FINGERPRINT_ATTR] = hashlib.sha256(payload).hexdigest()[:16]
    return digest


def system_fingerprint(system: SystemConfig) -> str:
    """Deterministic digest of every calibration constant in a platform.

    Two :class:`SystemConfig` instances with equal fields share a
    fingerprint, so a cache survives re-constructing the same platform;
    changing any constant (e.g. the link-bandwidth ablation) yields a new
    fingerprint and therefore fresh design points.
    """
    return _fingerprint_dataclass(system)


def model_fingerprint(model: DLRMConfig) -> str:
    """Deterministic digest of a model configuration.

    The name alone is not sufficient — sweeps synthesize model variants —
    so the digest covers the full table/MLP shape.
    """
    return f"{model.name}#{_fingerprint_dataclass(model)}"


class ResultCache:
    """Memoizes :class:`InferenceResult` objects across experiments.

    Tracks hit/miss/compute counters so tests (and the benchmark harness)
    can assert that a full figure regeneration computes each unique design
    point exactly once.

    Thread-safe: :meth:`get_or_compute` holds the cache lock across the
    whole lookup-or-compute, so concurrent threads racing on one key can
    never price it twice (threaded callers serialize on the device model).
    A cache lives in one process: :meth:`Experiment.run
    <repro.experiment.Experiment.run>` prices batch grids in-process at
    every ``jobs`` setting, so no worker ever prices into it.
    """

    def __init__(self) -> None:
        self._entries: Dict[CacheKey, InferenceResult] = {}
        self._compute_counts: Dict[CacheKey, int] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @staticmethod
    def key(
        backend_name: str, model: DLRMConfig, batch_size: int, system: SystemConfig
    ) -> CacheKey:
        """The cache coordinate of one design point."""
        return (
            backend_name,
            model_fingerprint(model),
            int(batch_size),
            system_fingerprint(system),
        )

    def get_or_compute(
        self,
        backend: Backend,
        model: DLRMConfig,
        batch_size: int,
        system: SystemConfig,
        *,
        backend_name: Optional[str] = None,
    ) -> InferenceResult:
        """Return the memoized result, computing it on first request.

        The returned object is shared by every caller of the same key (that
        sharing is the point of the cache) — treat it as immutable; in
        particular do not mutate ``result.extra``.
        """
        name = backend_name if backend_name is not None else backend.name
        key = self.key(name, model, batch_size, system)
        # The lock spans check *and* compute: releasing it between the two
        # is exactly the race that let two threads price one point twice.
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
            self._compute_counts[key] = self._compute_counts.get(key, 0) + 1
            result = backend.run(model, batch_size)
            self._entries[key] = result
            return result

    # ------------------------------------------------------------------
    def compute_counts(self) -> Dict[CacheKey, int]:
        """How many times each design point was actually computed."""
        with self._lock:
            return dict(self._compute_counts)

    def max_compute_count(self) -> int:
        """The worst duplication across all keys (1 = perfectly memoized)."""
        with self._lock:
            return max(self._compute_counts.values(), default=0)

    def clear(self) -> None:
        """Drop all entries and counters."""
        with self._lock:
            self._entries.clear()
            self._compute_counts.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def save(self, path: Union[str, pathlib.Path]) -> None:
        """Persist all entries as JSON, stamped with the code that priced them.

        The file is ``{"version", "cost_model", "entries"}``: the package
        version, the :func:`cost_model_stamp` of the registered backends,
        and the keys with their serialized results.
        """
        with self._lock:
            entries = [
                {"key": list(key), "result": result.to_dict()}
                for key, result in self._entries.items()
            ]
        payload = {**_stamp(), "entries": entries}
        pathlib.Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "ResultCache":
        """Rebuild a cache persisted by :meth:`save` (counters start fresh).

        Raises :class:`SimulationError` when the file was written by another
        package version or cost model, or predates the stamp: its results
        would silently outlive the code that priced them.
        """
        raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        expected = _stamp()
        found = (
            {field: raw.get(field) for field in expected}
            if isinstance(raw, dict)
            else "none (unstamped legacy format)"
        )
        if found != expected:
            raise SimulationError(
                f"result cache {str(path)!r} was written with stamp {found}, but "
                f"this code has stamp {expected}; delete it and re-price"
            )
        cache = cls()
        for entry in raw["entries"]:
            key = entry["key"]
            if len(key) != 4:
                raise SimulationError(f"malformed cache key {key!r}")
            cache._entries[(key[0], key[1], int(key[2]), key[3])] = (
                InferenceResult.from_dict(entry["result"])
            )
        return cache


#: The sources that price a design point: the backend registry, the device
#: and memory models, the configurations they read (with their units), and
#: the result record a cache file stores.
_PRICING_SOURCES = (
    "backends", "config", "core", "cpu", "gpu", "memsys", "utils", "results.py"
)


def _source_digest(root: pathlib.Path) -> str:
    """Digest of every pricing source file under package root ``root``.

    Files are hashed by package-relative path and content, in sorted
    order, so any edit to a calibration constant or to model logic, and any
    added, removed or renamed module, changes the digest.
    """
    digest = hashlib.sha256()
    for source in _PRICING_SOURCES:
        path = root / source
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            digest.update(file.relative_to(root).as_posix().encode("utf-8"))
            digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=1)
def cost_model_stamp() -> str:
    """Digest of the source code that prices the built-in backends.

    Changes whenever a runner's calibrated default (e.g. a fixed overhead
    or an efficiency curve) or its pricing logic changes, so persisted
    results priced by older code are refused rather than reused.  Read once
    per process: the running code is the code imported at start-up.
    """
    return _source_digest(pathlib.Path(__file__).resolve().parents[1])


def _stamp() -> Dict[str, str]:
    return {"version": __version__, "cost_model": cost_model_stamp()}


#: Process-wide cache shared by every Experiment that does not override it.
_DEFAULT_CACHE = ResultCache()
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_cache() -> ResultCache:
    """The process-wide cache used by :class:`Experiment` by default."""
    return _DEFAULT_CACHE


def set_default_cache(cache: ResultCache) -> ResultCache:
    """Replace the process-wide cache; returns the previous one."""
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        previous = _DEFAULT_CACHE
        _DEFAULT_CACHE = cache
    return previous


@contextmanager
def override_default_cache(cache: Optional[ResultCache] = None) -> Iterator[ResultCache]:
    """Temporarily swap the process-wide cache (fresh one by default).

    Lets tests measure cache effectiveness in isolation::

        with override_default_cache() as cache:
            figure14_centaur_breakdown(system)
            assert cache.max_compute_count() == 1
    """
    replacement = cache if cache is not None else ResultCache()
    previous = set_default_cache(replacement)
    try:
        yield replacement
    finally:
        set_default_cache(previous)
