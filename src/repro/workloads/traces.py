"""Sparse-index trace generation for DLRM inference.

A *trace* is the stream of sparse indices that an inference batch looks up
from each embedding table, expressed exactly like Caffe2's
``SparseLengthsSum`` operator in the paper's Fig. 2: a flat index array plus
a per-sample offset array.

The **trace models** (:class:`TraceModel` and friends) are stateless
index-distribution descriptions used by :class:`repro.workloads.Workload`.
A model only knows how to draw row IDs given an RNG, which is what lets a
workload split seeds explicitly and lets per-table overrides compose
(:class:`PerTableTrace`).  :func:`model_batch` draws a whole
:class:`DLRMBatch` from one model and one RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config.models import DLRMConfig, EmbeddingTableConfig
from repro.errors import TraceError


@dataclass(frozen=True)
class SparseTrace:
    """Lookup indices for one embedding table over one batch.

    Attributes:
        indices: Flat ``int64`` array of row IDs, concatenated over samples.
        offsets: ``int64`` array of length ``batch_size + 1``; sample ``i``
            owns ``indices[offsets[i]:offsets[i+1]]``.
        num_rows: Number of rows in the table the indices refer to.
    """

    indices: np.ndarray
    offsets: np.ndarray
    num_rows: int

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices)
        offsets = np.asarray(self.offsets)
        if indices.ndim != 1:
            raise TraceError(f"indices must be one-dimensional, got shape {indices.shape}")
        if offsets.ndim != 1 or len(offsets) < 2:
            raise TraceError(
                "offsets must be one-dimensional with at least two entries "
                f"(got shape {offsets.shape})"
            )
        if offsets[0] != 0 or offsets[-1] != len(indices):
            raise TraceError(
                "offsets must start at 0 and end at len(indices): "
                f"got first={offsets[0]}, last={offsets[-1]}, len={len(indices)}"
            )
        if np.any(np.diff(offsets) < 0):
            raise TraceError("offsets must be non-decreasing")
        if self.num_rows <= 0:
            raise TraceError(f"num_rows must be positive, got {self.num_rows}")
        if len(indices) and (indices.min() < 0 or indices.max() >= self.num_rows):
            raise TraceError(
                f"indices must lie in [0, {self.num_rows}), got range "
                f"[{indices.min()}, {indices.max()}]"
            )

    @property
    def batch_size(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_lookups(self) -> int:
        return int(len(self.indices))

    def lookups_for_sample(self, sample: int) -> np.ndarray:
        """Return the row IDs gathered for one sample."""
        if not 0 <= sample < self.batch_size:
            raise IndexError(f"sample {sample} out of range for batch {self.batch_size}")
        return self.indices[self.offsets[sample] : self.offsets[sample + 1]]

    def unique_rows(self) -> int:
        """Number of distinct rows touched by the whole batch."""
        if self.total_lookups == 0:
            return 0
        return int(len(np.unique(self.indices)))


@dataclass(frozen=True)
class DLRMBatch:
    """One inference batch: dense features plus one trace per embedding table."""

    dense_features: np.ndarray
    sparse_traces: Tuple[SparseTrace, ...]

    def __post_init__(self) -> None:
        dense = np.asarray(self.dense_features)
        if dense.ndim != 2:
            raise TraceError(
                f"dense_features must be [batch, features], got shape {dense.shape}"
            )
        for table_id, trace in enumerate(self.sparse_traces):
            if trace.batch_size != dense.shape[0]:
                raise TraceError(
                    f"trace for table {table_id} has batch size {trace.batch_size} "
                    f"but dense features have batch size {dense.shape[0]}"
                )

    @property
    def batch_size(self) -> int:
        return int(self.dense_features.shape[0])

    @property
    def num_tables(self) -> int:
        return len(self.sparse_traces)

    @property
    def total_lookups(self) -> int:
        return sum(trace.total_lookups for trace in self.sparse_traces)

    def embedding_bytes(self, embedding_dim: int, dtype_bytes: int = 4) -> int:
        """Useful bytes gathered from embedding tables for this batch."""
        return self.total_lookups * embedding_dim * dtype_bytes


# ----------------------------------------------------------------------
# Stateless trace models (the repro.workloads abstraction).
# ----------------------------------------------------------------------
class TraceModel:
    """A stateless distribution over the rows of an embedding table.

    Models draw row IDs given an explicit RNG — they hold no generator
    state of their own, so one model instance can parameterize any number
    of independently seeded streams.
    """

    #: Short machine-readable kind, used by the CLI catalog.
    kind: str = "abstract"

    def draw(
        self,
        rng: np.random.Generator,
        num_rows: int,
        count: int,
        table_index: Optional[int] = None,
    ) -> np.ndarray:
        """Draw ``count`` row IDs in ``[0, num_rows)`` as an int64 array."""
        raise NotImplementedError

    def draw_tables(
        self,
        rng: np.random.Generator,
        num_rows: Sequence[int],
        counts: Sequence[int],
        table_indices: Sequence[int],
    ) -> np.ndarray:
        """Draw ``counts[i]`` rows of table ``table_indices[i]`` for each table.

        Returns the per-table draws concatenated in table order, consuming
        ``rng`` exactly as one :meth:`draw` per table with a non-zero count.
        """
        drawn = [
            self.draw(rng, rows, count, index)
            for rows, count, index in zip(num_rows, counts, table_indices)
            if count
        ]
        return np.concatenate(drawn) if drawn else np.empty(0, dtype=np.int64)

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class UniformTrace(TraceModel):
    """Rows drawn uniformly at random — the paper's low-locality regime."""

    kind = "uniform"

    def draw(self, rng, num_rows, count, table_index=None):
        return rng.integers(0, num_rows, size=count, dtype=np.int64)


@dataclass(frozen=True)
class ZipfianTrace(TraceModel):
    """Rows drawn from a (truncated) Zipf distribution.

    Hot rows get low ranks; a fixed permutation derived from
    ``scatter_seed`` spreads them over the table so popular rows are not
    physically adjacent (which would overstate spatial locality).

    Attributes:
        alpha: Skew parameter; ``alpha -> 0`` approaches uniform and larger
            values concentrate traffic on a few hot rows.
        scatter_seed: Seed of the hot-row scattering permutation (part of
            the model description, not of the stream seed, so two streams
            with different seeds still agree on where the hot rows live).
    """

    alpha: float = 1.05
    scatter_seed: int = 0x5EED
    kind = "zipf"

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise TraceError(f"alpha must be positive, got {self.alpha}")

    def _tables(self, num_rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """The rank CDF and its int32 guide table (Chen and Asau, 1974).

        ``guide[b]`` is the first rank whose CDF reaches ``b / num_rows``,
        so a uniform in bucket ``b`` starts its search there.
        """
        key = (self.alpha, num_rows)
        cached = _ZIPF_CACHE.get(key)
        if cached is None:
            ranks = np.arange(1, num_rows + 1, dtype=np.float64)
            cdf = np.cumsum(ranks ** (-self.alpha))
            cdf /= cdf[-1]
            # Built a chunk of edges at a time: whole-table edge and index
            # arrays would add their transient to a serving run's peak RSS.
            guide = np.empty(num_rows + 1, dtype=np.int32)
            for start in range(0, num_rows + 1, _GUIDE_CHUNK):
                edges = np.arange(start, min(start + _GUIDE_CHUNK, num_rows + 1))
                edges = edges / num_rows
                guide[start : start + edges.size] = np.searchsorted(cdf, edges, side="left")
            cached = (cdf, guide)
            _cache_put(_ZIPF_CACHE, key, cached)
        return cached

    def draw(self, rng, num_rows, count, table_index=None):
        cdf, guide = self._tables(num_rows)
        uniform = rng.random(count)
        ranks = _guided_search(cdf, guide, uniform)
        return _scatter_permutation(self.scatter_seed, num_rows)[ranks]

    def draw_tables(self, rng, num_rows, counts, table_indices):
        # Tables of one size share the CDF and the scatter, and
        # ``rng.random(a + b)`` equals ``random(a)`` then ``random(b)``: one
        # draw per run of equal-size tables keeps the stream bit-identical.
        drawn = []
        for rows, run in groupby(zip(num_rows, counts), key=itemgetter(0)):
            total = sum(count for _, count in run)
            if total:
                drawn.append(self.draw(rng, rows, total))
        return np.concatenate(drawn) if drawn else np.empty(0, dtype=np.int64)

    def describe(self) -> str:
        return f"zipf(alpha={self.alpha})"


#: Zipf CDFs with their guide tables and hot-row scatter permutations are
#: pure functions of their keys but O(num_rows) each, so the process-global
#: caches are bounded: oldest entries are evicted FIFO once the cap is
#: reached (a sweep over many alphas/table sizes stays at a bounded
#: footprint).
_TRACE_CACHE_CAP = 32

_ZIPF_CACHE: Dict[Tuple[float, int], Tuple[np.ndarray, np.ndarray]] = {}
_SCATTER_CACHE: Dict[Tuple[int, int], np.ndarray] = {}

#: Forward steps a guided search takes before it bisects what remains.
_GUIDE_STEPS = 4
#: Guide entries built per chunk.
_GUIDE_CHUNK = 1 << 15


def _guided_search(cdf: np.ndarray, guide: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, uniform, side="left")`` via the guide table."""
    buckets = len(guide) - 1
    bucket = (uniform * buckets).astype(np.int64)
    # The product can round up past the true floor by one; the division
    # below is the one that built the guide, so the check is exact.
    bucket -= bucket / buckets > uniform
    ranks = guide[bucket]
    todo = np.flatnonzero(cdf[ranks] < uniform)
    for _ in range(_GUIDE_STEPS):
        if not todo.size:
            return ranks
        ranks[todo] += 1
        todo = todo[cdf[ranks[todo]] < uniform[todo]]
    # Wide buckets (the flat tail of a steep CDF) fall back to bisection.
    if todo.size:
        ranks[todo] = np.searchsorted(cdf, uniform[todo], side="left")
    return ranks


def _cache_put(cache: Dict, key, value) -> None:
    while len(cache) >= _TRACE_CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = value


def _scatter_permutation(scatter_seed: int, num_rows: int) -> np.ndarray:
    key = (scatter_seed, num_rows)
    cached = _SCATTER_CACHE.get(key)
    if cached is None:
        cached = np.random.default_rng(scatter_seed ^ num_rows).permutation(num_rows)
        _cache_put(_SCATTER_CACHE, key, cached)
    return cached


@dataclass(frozen=True)
class WorkingSetTrace(TraceModel):
    """A hot/cold working-set model: a small row set absorbs most traffic.

    A fraction ``hot_fraction`` of the table's rows (scattered by a fixed
    permutation) receives ``hot_weight`` of the lookups, uniformly within
    the hot set; the remaining traffic is uniform over the cold rows.  This
    is the two-level locality model production traces are usually summarized
    by, and it gives cache studies a directly interpretable knob.

    Attributes:
        hot_fraction: Fraction of rows in the hot set (``0 < f < 1``).
        hot_weight: Probability a lookup targets the hot set (``0 < w < 1``).
        scatter_seed: Seed of the hot-row placement permutation.
    """

    hot_fraction: float = 0.05
    hot_weight: float = 0.9
    scatter_seed: int = 0x5EED
    kind = "hotcold"

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction < 1.0:
            raise TraceError(
                f"hot_fraction must be in (0, 1), got {self.hot_fraction}"
            )
        if not 0.0 < self.hot_weight < 1.0:
            raise TraceError(f"hot_weight must be in (0, 1), got {self.hot_weight}")

    def draw(self, rng, num_rows, count, table_index=None):
        hot_rows = max(1, int(round(num_rows * self.hot_fraction)))
        cold_rows = num_rows - hot_rows
        is_hot = rng.random(count) < self.hot_weight
        draws = np.empty(count, dtype=np.int64)
        hot_count = int(is_hot.sum())
        draws[is_hot] = rng.integers(0, hot_rows, size=hot_count, dtype=np.int64)
        if cold_rows > 0:
            draws[~is_hot] = hot_rows + rng.integers(
                0, cold_rows, size=count - hot_count, dtype=np.int64
            )
        else:
            draws[~is_hot] = rng.integers(0, hot_rows, size=count - hot_count, dtype=np.int64)
        return _scatter_permutation(self.scatter_seed, num_rows)[draws]

    def describe(self) -> str:
        return (
            f"hot/cold ({self.hot_fraction:.0%} of rows take "
            f"{self.hot_weight:.0%} of lookups)"
        )


class PerTableTrace(TraceModel):
    """Per-table skew overrides around a default model.

    Args:
        default: Model applied to tables without an override.
        overrides: ``{table_index: TraceModel}`` exceptions — e.g. one
            user-history table that is far more skewed than the rest.
    """

    kind = "per-table"

    def __init__(self, default: TraceModel, overrides: Mapping[int, TraceModel]):
        if not isinstance(default, TraceModel):
            raise TraceError(f"default must be a TraceModel, got {default!r}")
        for index, model in overrides.items():
            if int(index) < 0:
                raise TraceError(f"table index must be non-negative, got {index}")
            if not isinstance(model, TraceModel):
                raise TraceError(f"override for table {index} is not a TraceModel")
        self.default = default
        self.overrides: Dict[int, TraceModel] = {int(i): m for i, m in overrides.items()}

    def model_for(self, table_index: Optional[int]) -> TraceModel:
        if table_index is None:
            return self.default
        return self.overrides.get(int(table_index), self.default)

    def draw(self, rng, num_rows, count, table_index=None):
        return self.model_for(table_index).draw(rng, num_rows, count, table_index)

    def describe(self) -> str:
        parts = ", ".join(
            f"table {index}: {model.describe()}"
            for index, model in sorted(self.overrides.items())
        )
        return f"{self.default.describe()} with overrides [{parts}]"


def table_trace(
    model: TraceModel,
    rng: np.random.Generator,
    table: EmbeddingTableConfig,
    batch_size: int,
    lookups_per_sample: Optional[int] = None,
    table_index: Optional[int] = None,
) -> SparseTrace:
    """Draw one table's :class:`SparseTrace` from a stateless trace model."""
    if batch_size <= 0:
        raise TraceError(f"batch_size must be positive, got {batch_size}")
    lookups = table.gathers if lookups_per_sample is None else lookups_per_sample
    if lookups < 0:
        raise TraceError(f"lookups_per_sample must be non-negative, got {lookups}")
    total = batch_size * lookups
    indices = model.draw(rng, table.num_rows, total, table_index).astype(np.int64)
    if lookups == 0:
        offsets = np.zeros(batch_size + 1, dtype=np.int64)
    else:
        offsets = np.arange(0, total + 1, lookups, dtype=np.int64)
    return SparseTrace(indices=indices, offsets=offsets, num_rows=table.num_rows)


def model_batch(
    trace_model: TraceModel,
    rng: np.random.Generator,
    model: DLRMConfig,
    batch_size: int,
) -> DLRMBatch:
    """Draw dense features and per-table traces for a whole model."""
    dense = rng.standard_normal((batch_size, model.num_dense_features)).astype(np.float32)
    traces = tuple(
        table_trace(trace_model, rng, table, batch_size, table_index=index)
        for index, table in enumerate(model.tables)
    )
    return DLRMBatch(dense_features=dense, sparse_traces=traces)


def concatenate_traces(traces: Sequence[SparseTrace]) -> SparseTrace:
    """Concatenate per-batch traces for the *same* table into one trace.

    Useful when modelling multiple inference requests back to back.
    """
    if not traces:
        raise TraceError("cannot concatenate an empty sequence of traces")
    num_rows = traces[0].num_rows
    if any(trace.num_rows != num_rows for trace in traces):
        raise TraceError("all traces must refer to tables with the same row count")
    indices: List[np.ndarray] = []
    offsets: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    running = 0
    for trace in traces:
        indices.append(trace.indices)
        offsets.append(trace.offsets[1:] + running)
        running += trace.total_lookups
    return SparseTrace(
        indices=np.concatenate(indices) if indices else np.zeros(0, dtype=np.int64),
        offsets=np.concatenate(offsets),
        num_rows=num_rows,
    )
