"""Sharded serving: one logical replica group spanning several device shards.

A sharded :class:`~repro.serving.fleet.Fleet` (a ``FleetSpec`` with
``shards`` or a cache or update tier set) serves a model whose embedding
tables are partitioned across ``shards`` device shards by a
:class:`~repro.sharding.plan.ShardingPlan`.  Each executed batch models the
paper's gather pipeline at fleet scale:

1. **Fan-out** — the batch's sparse lookups are drawn from the workload's
   trace model (so zipf / hot-cold skew shapes real row IDs) and routed to
   the shard owning each ``(table, row)``.
2. **Hot-row cache** — an optional per-shard
   :class:`~repro.sharding.cache.EmbeddingCache` intercepts lookups in
   front of the host-memory gather; hits skip the gather entirely.
3. **Per-shard gather** — each shard's host gather is priced from the
   existing runner cost model: the backend's ``EMB`` stage latency scaled
   by the shard's share of missed lookups.
4. **Fan-in** — non-coordinator shards ship their per-sample partial sums
   over a :class:`~repro.core.link.ChipletLink`; the straggler shard
   (gather + transfer) gates the embedding stage of the whole batch.

The fleet's replica part is a :class:`ShardGroup`: it builds one
:class:`ShardedReplicaServer` (a :class:`~repro.serving.replica.ReplicaServer`
with its own per-batch pricing hook) per stream, and an update stream or a
fault schedule arms a controller on the same event engine that carries
arrivals, batch closes and completions.  With one shard and no cache the
pricing hook returns the runner's result object untouched, so the run is
bit-identical to the unsharded pool path — the property the equivalence
tests pin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.serving.fleet import FleetSpec

import numpy as np

from repro.config.models import DTYPE_BYTES, DLRMConfig
from repro.config.system import SystemConfig
from repro.core.link import ChipletLink
from repro.errors import ConfigurationError, SimulationError
from repro.memsys.stats import CacheStats
from repro.results import InferenceResult, LatencyBreakdown
from repro.serving.batching import BatchingPolicy, default_batching
from repro.serving.cluster import ClusterReport, resolve_runner
from repro.serving.replica import Controller, DesignPointRunner, ReplicaServer, ServiceModel
from repro.sharding.cache import CacheConfig, EmbeddingCache, check_key_space
from repro.sharding.plan import ShardingPlan, make_plan
from repro.sim.engine import Simulator
from repro.workloads.traces import TraceModel, UniformTrace
from repro.workloads.updates import EmbeddingUpdate, UpdateProcess
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class ShardingStats:
    """Shard and cache accounting of one sharded serving run.

    Attributes:
        num_shards: Device shards in the group.
        strategy: Placement strategy of the plan.
        cache_policy: ``"lru"`` / ``"lfu"``, or ``None`` when cache-off.
        cache_capacity_rows: Per-shard cache capacity (``None`` cache-off).
        cache: Hit/miss counters merged over every shard's cache.
        evictions: Rows evicted summed over shards.
        per_shard_lookups: Lookups *owned* by each shard (hits + misses).
        per_shard_gathered: Lookups each shard gathered from host memory
            (misses only; equals owned when cache-off).
        cross_shard_bytes: Partial-sum bytes shipped between shards.
        cross_shard_transfer_s: Link time of those transfers, summed.
        gather_s_total: Straggler-gated embedding-stage seconds, summed
            over executed batches.
        batches: Executed batch segments.
        total_lookups: Lookups drawn over the whole run.
    """

    num_shards: int
    strategy: str
    cache_policy: Optional[str]
    cache_capacity_rows: Optional[int]
    cache: CacheStats
    evictions: int
    per_shard_lookups: Tuple[int, ...]
    per_shard_gathered: Tuple[int, ...]
    cross_shard_bytes: float
    cross_shard_transfer_s: float
    gather_s_total: float
    batches: int
    total_lookups: int
    #: Lookups served by the *wrong* shard under re-hash failover — the
    #: run's correctness loss (0 without shard faults).
    degraded_lookups: int = 0
    #: Lookups served by the replica copy under promote failover.
    promoted_lookups: int = 0
    # ------------------------------------------------------------------
    # Freshness accounting (all zero/None on read-only runs, keeping the
    # zero-update path's record bit-identical modulo these defaults).
    #: Freshness mode of the update stream (``None`` without updates).
    update_mode: Optional[str] = None
    #: Embedding pushes applied over the run.
    update_events: int = 0
    #: Rows those pushes rewrote (before cache routing).
    update_rows: int = 0
    #: Cached rows dropped by invalidation pushes, summed over tiers.
    update_invalidations: int = 0
    #: Cached rows refreshed in place by write-through pushes.
    update_refreshes: int = 0
    #: Hits served from rows updated behind the cache (``"ignore"`` mode).
    stale_hits: int = 0
    #: Gather seconds spent applying write-through refreshes, summed.
    update_apply_s_total: float = 0.0
    #: Hit/miss counters of the shared second tier (``None`` when off).
    shared_cache: Optional[CacheStats] = None
    #: Misses the shared tier absorbed before the host gather.
    shared_hits: int = 0
    #: Link seconds spent fetching those shared-tier lines.
    shared_transfer_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def stale_hit_rate(self) -> float:
        """Share of cache hits that served rows a push had updated."""
        if self.cache.hits == 0:
            return 0.0
        return self.stale_hits / self.cache.hits

    @property
    def mean_gather_s(self) -> float:
        """Mean embedding-stage latency per executed batch."""
        if self.batches == 0:
            return 0.0
        return self.gather_s_total / self.batches

    @property
    def lookup_imbalance(self) -> float:
        """Max-over-mean of per-shard owned lookups (1.0 is perfect)."""
        total = sum(self.per_shard_lookups)
        if total == 0:
            return 1.0
        mean = total / len(self.per_shard_lookups)
        return max(self.per_shard_lookups) / mean


class _ShardingAccounting:
    """Mutable counters a :class:`ShardedReplicaServer` fills while serving."""

    def __init__(self, num_shards: int):
        self.owned = np.zeros(num_shards, dtype=np.int64)
        self.gathered = np.zeros(num_shards, dtype=np.int64)
        self.cross_shard_bytes = 0.0
        self.cross_shard_transfer_s = 0.0
        self.gather_s_total = 0.0
        self.batches = 0
        self.update_apply_s_total = 0.0
        self.shared_hits = 0
        self.shared_transfer_s = 0.0


class ShardedReplicaServer(ReplicaServer):
    """A :class:`ReplicaServer` whose batches execute on a shard group.

    Overrides only the pricing hook: every executed segment draws its
    sparse lookups from the trace model, routes them through the plan and
    the per-shard caches, and re-prices the runner result's ``EMB`` stage
    with the straggler shard's gather + transfer time.  All other event
    semantics (batching, FIFO device queue, completion events) are
    inherited unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        service: ServiceModel,
        batching: BatchingPolicy,
        plan: ShardingPlan,
        link: Optional[ChipletLink],
        trace_model: TraceModel,
        trace_rng: np.random.Generator,
        caches: Optional[List[EmbeddingCache]] = None,
        shared_cache: Optional[EmbeddingCache] = None,
        update_mode: Optional[str] = None,
        name: str = "sharded-group",
    ):
        super().__init__(sim, service, batching, name=name)
        self.plan = plan
        self.link = link
        self.trace_model = trace_model
        self.trace_rng = trace_rng
        self.caches = caches
        self.shared_cache = shared_cache
        self.accounting = _ShardingAccounting(plan.num_shards)
        # Freshness state (all inert on read-only runs).
        self.update_mode = update_mode
        self.update_events = 0
        self.update_rows = 0
        self._updates_active = False
        self._pending_update_s = np.zeros(plan.num_shards)
        self._row_cost_s: Optional[float] = None
        # Fault-injection state (all inert on fault-free runs).
        self._lost_shards: Dict[int, str] = {}
        self._link_slowdown = 1.0
        self.degraded_lookups = 0
        self.promoted_lookups = 0

    # ------------------------------------------------------------------
    # Fault-injection hooks (driven by repro.chaos.FaultInjector)
    # ------------------------------------------------------------------
    def lose_shard(self, shard: int, failover: str) -> bool:
        """Take one shard offline; False when it is already lost.

        While lost, lookups the plan routes to the shard fail over per
        ``failover``: ``"promote"`` sends them to the surviving shard
        holding the replica copy (the next live shard, wrapping);
        ``"rehash"`` spreads them over all survivors by row id, serving
        *wrong* rows — counted as degraded lookups (correctness loss).
        """
        if shard in self._lost_shards:
            return False
        if len(self._lost_shards) + 1 >= self.plan.num_shards:
            raise SimulationError(
                f"cannot lose shard {shard}: it is the group's last "
                "surviving shard"
            )
        self._lost_shards[shard] = failover
        return True

    def restore_shard(
        self, shard: int, fresh_cache: Optional[EmbeddingCache] = None
    ) -> bool:
        """Bring a lost shard back, with a cold hot-row cache when given.

        The fresh cache inherits the old one's hit/miss counters so the
        run's cache statistics stay continuous; only the *contents* are
        lost to the restart.
        """
        if shard not in self._lost_shards:
            return False
        del self._lost_shards[shard]
        if fresh_cache is not None and self.caches is not None:
            cold = self.caches[shard]
            fresh_cache.stats = cold.stats
            fresh_cache.evictions = cold.evictions
            fresh_cache.update_evictions = cold.update_evictions
            fresh_cache.update_refreshes = cold.update_refreshes
            fresh_cache.stale_hits = cold.stale_hits
            self.caches[shard] = fresh_cache
        return True

    def set_link_slowdown(self, factor: float) -> None:
        """Scale cross-shard transfer time (link degradation window)."""
        self._link_slowdown = factor

    def price_refill(self, resident_rows: int) -> Tuple[float, float]:
        """Price re-warming ``resident_rows`` cache rows after a restart.

        A restored shard comes back with a cold hot-row cache; every row
        the old cache held will be re-gathered from host memory before the
        cache is warm again.  That traffic is priced through the backend's
        own EMB cost model — per-lookup gather seconds derived from the
        default model's batch-1 result — so refill cost is comparable to
        the serving numbers on the same backend.  Returns
        ``(refill_seconds, refill_joules)``.
        """
        if resident_rows <= 0:
            return 0.0, 0.0
        refill_s = self._row_gather_s() * resident_rows
        return refill_s, refill_s * self.service.result(1, None).power_watts

    def _remap_owners(self, owners: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Re-route lookups owned by lost shards to survivors."""
        owners = owners.copy()
        num_shards = self.plan.num_shards
        survivors = np.array(
            [s for s in range(num_shards) if s not in self._lost_shards],
            dtype=owners.dtype,
        )
        for shard, failover in self._lost_shards.items():
            mask = owners == shard
            count = int(np.count_nonzero(mask))
            if count == 0:
                continue
            if failover == "promote":
                # The replica copy lives on the next surviving shard
                # (wrapping), so the whole slice moves there.
                position = int(np.searchsorted(survivors, shard))
                owners[mask] = survivors[position % survivors.size]
                self.promoted_lookups += count
            else:
                owners[mask] = survivors[rows[mask] % survivors.size]
                self.degraded_lookups += count
        return owners

    # ------------------------------------------------------------------
    # Freshness hooks (driven by the update-stream event driver)
    # ------------------------------------------------------------------
    def _row_gather_s(self) -> float:
        """Per-lookup host-gather seconds of the backend's EMB cost model.

        Duck-typed runners may hand back a plain-dict breakdown whose
        ``.get("EMB")`` is None; dense-only breakdowns cost zero per row.
        """
        if self._row_cost_s is None:
            model = self.service.model_for(None)
            lookups = sum(table.gathers for table in model.tables)
            emb_s = self.service.result(1, None).breakdown.get("EMB") or 0.0
            self._row_cost_s = (
                emb_s / lookups if lookups > 0 and emb_s > 0.0 else 0.0
            )
        return self._row_cost_s

    def apply_update(self, update: EmbeddingUpdate) -> None:
        """Apply one embedding push to every cache tier at the current time.

        Rows route through the plan exactly like lookups do (pushes land
        on the owning shard's cache).  Write-through refreshes accrue the
        backend's per-row gather cost against the owning shard; the next
        executed batch pays it inside the straggler gate, modelling the
        refresh competing with reads for the shard's gather bandwidth.
        """
        self._updates_active = True
        self.update_events += 1
        rows = np.asarray(update.rows, dtype=np.int64)
        self.update_rows += int(rows.size)
        mode = self.update_mode or "invalidate"
        if self.caches is not None and rows.size:
            owners = self.plan.owner_of(update.table_index, rows)
            counts = np.bincount(owners, minlength=self.plan.num_shards)
            order = np.argsort(owners, kind="stable")
            sorted_rows = rows[order]
            ends = np.cumsum(counts)
            for shard in np.nonzero(counts)[0]:
                shard_rows = sorted_rows[ends[shard] - counts[shard] : ends[shard]]
                affected = self.caches[shard].apply_update(
                    update.table_index, shard_rows, mode
                )
                if mode == "write-through" and affected:
                    apply_s = affected * self._row_gather_s()
                    self._pending_update_s[int(shard)] += apply_s
                    self.accounting.update_apply_s_total += apply_s
        if self.shared_cache is not None and rows.size:
            # The shared tier is refreshed by the push pipeline itself, so
            # its write-through refreshes cost no serving-side gather time.
            self.shared_cache.apply_update(update.table_index, rows, mode)

    # ------------------------------------------------------------------
    def _execute_result(self, batch_size: int, model_name) -> InferenceResult:
        base = self.service.result(batch_size, model_name)
        accounting = self.accounting
        accounting.batches += 1
        model = self.service.model_for(model_name)
        if (
            self.plan.num_shards == 1
            and self.caches is None
            and self.shared_cache is None
        ):
            # Degenerate group: one shard owns everything and no cache
            # intercepts, so the unsharded result is returned *untouched*
            # (bit-identical to the plain cluster path).
            lookups = sum(batch_size * table.gathers for table in model.tables)
            accounting.owned[0] += lookups
            accounting.gathered[0] += lookups
            accounting.gather_s_total += base.breakdown.get("EMB")
            return base
        return self._priced_sharded(base, batch_size, model)

    def _route_batch(
        self, batch_size: int, model: DLRMConfig
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Draw one batch's lookups and route them through the cache tiers.

        Returns per-shard ``(owned, gathered, contributed_tables,
        shared_lines)``: lookups owned, lookups host-gathered, tables with
        any owned lookup, and shared-tier hits (``None`` when no lookup
        reached a shared tier).
        """
        plan = self.plan
        num_shards = plan.num_shards
        caches = self.caches
        shared = self.shared_cache
        # Draw every table in table order (the RNG stream is consumed
        # exactly as one draw per table), then route the whole batch at
        # once: rows stay in (table, draw) order, tagged with their table.
        counts = [batch_size * table.gathers for table in model.tables]
        rows = self.trace_model.draw_tables(
            self.trace_rng,
            [table.num_rows for table in model.tables],
            counts,
            range(len(counts)),
        )
        tables = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        owners = plan.owner_of(tables, rows)
        if self._lost_shards:
            owners = self._remap_owners(owners, rows)
        owned = np.bincount(owners, minlength=num_shards)
        num_tables = model.num_tables
        # A shard ships one partial sum per table it gathered any row of.
        contributed_tables = np.count_nonzero(
            np.bincount(owners * num_tables + tables, minlength=num_shards * num_tables)
            .reshape(num_shards, num_tables),
            axis=1,
        )
        shared_lines = None
        if caches is None and shared is None:
            gathered = owned.copy()
        else:
            # One stable argsort groups each shard's rows contiguously in
            # (table, draw) order: exactly the reference stream the shard's
            # cache would see from per-table probes, in one call per shard.
            # (The narrowest dtype holding every shard lets numpy radix-sort.)
            order = np.argsort(
                owners.astype(np.min_scalar_type(num_shards)), kind="stable"
            )
            sorted_rows = rows[order]
            sorted_tables = tables[order]
            if caches is not None:
                hits = np.empty(rows.size, dtype=bool)
                ends = np.cumsum(owned)
                for shard in np.nonzero(owned)[0]:
                    part = slice(ends[shard] - owned[shard], ends[shard])
                    hits[part] = caches[shard].lookup(
                        sorted_tables[part], sorted_rows[part]
                    )
                missed = ~hits
            else:
                missed = np.ones(rows.size, dtype=bool)
            miss_owners = owners[order][missed]
            gathered = np.bincount(miss_owners, minlength=num_shards)
            if shared is not None and miss_owners.size:
                # Local misses probe the shared tier next, in (table,
                # shard, draw) order -- the order per-table fan-out would
                # produce.  Its hits are fetched over the link instead of
                # host-gathered.
                miss_tables = sorted_tables[missed]
                shared_order = np.argsort(
                    miss_tables * num_shards + miss_owners, kind="stable"
                )
                shared_hits = shared.lookup(
                    miss_tables[shared_order], sorted_rows[missed][shared_order]
                )
                shared_lines = np.bincount(
                    miss_owners[shared_order][shared_hits], minlength=num_shards
                )
                gathered -= shared_lines
        return owned, gathered, contributed_tables, shared_lines

    def _priced_sharded(
        self, base: InferenceResult, batch_size: int, model: DLRMConfig
    ) -> InferenceResult:
        num_shards = self.plan.num_shards
        accounting = self.accounting
        owned, gathered, contributed_tables, shared_lines = self._route_batch(
            batch_size, model
        )
        total_lookups = int(owned.sum())
        emb_s = base.breakdown.get("EMB")
        row_bytes = model.embedding_dim * DTYPE_BYTES
        pending_s = self._pending_update_s if self._updates_active else None
        # The coordinator aggregates; pick the shard with the most owned
        # lookups (ties: lowest index) so the heaviest gather ships nothing.
        coordinator = int(np.argmax(owned)) if total_lookups else 0
        straggler_s = 0.0
        for shard in range(num_shards):
            apply_s = float(pending_s[shard]) if pending_s is not None else 0.0
            if owned[shard] == 0 and apply_s == 0.0:
                continue
            gather_s = (
                emb_s * (float(gathered[shard]) / total_lookups)
                if total_lookups
                else 0.0
            )
            fetch_s = 0.0
            if shared_lines is not None and shared_lines[shard]:
                # Shared-tier hits stream over the link at row granularity,
                # fully pipelined up to the link's outstanding-request cap.
                estimate = self.link.gather_stream(
                    int(shared_lines[shard]),
                    outstanding_requests=self.link.config.max_outstanding_requests,
                )
                fetch_s = estimate.latency_s
                if self._link_slowdown != 1.0:
                    fetch_s *= self._link_slowdown
                accounting.shared_hits += int(shared_lines[shard])
                accounting.shared_transfer_s += fetch_s
            transfer_s = 0.0
            if (
                shard != coordinator
                and self.link is not None
                and contributed_tables[shard] > 0
            ):
                transfer_bytes = batch_size * int(contributed_tables[shard]) * row_bytes
                estimate = self.link.bulk_transfer(transfer_bytes)
                transfer_s = estimate.latency_s
                if self._link_slowdown != 1.0:
                    transfer_s *= self._link_slowdown
                accounting.cross_shard_bytes += transfer_bytes
                accounting.cross_shard_transfer_s += transfer_s
            straggler_s = max(straggler_s, gather_s + fetch_s + transfer_s + apply_s)
        if pending_s is not None:
            # Pending write-through refreshes are consumed by this batch.
            pending_s[:] = 0.0

        accounting.owned += owned
        accounting.gathered += gathered
        accounting.gather_s_total += straggler_s

        # The straggler replaces the EMB stage in place (or is appended).
        return InferenceResult(
            design_point=base.design_point,
            model_name=base.model_name,
            batch_size=batch_size,
            breakdown=LatencyBreakdown({**base.breakdown.stages, "EMB": straggler_s}),
            embedding_traffic=base.embedding_traffic,
            mlp_traffic=base.mlp_traffic,
            power_watts=base.power_watts,
            extra=dict(base.extra),
        )

    # ------------------------------------------------------------------
    def sharding_stats(self) -> ShardingStats:
        """Freeze the run's shard/cache counters into a report record."""
        accounting = self.accounting
        cache_stats = CacheStats()
        evictions = 0
        update_invalidations = 0
        update_refreshes = 0
        stale_hits = 0
        if self.caches is not None:
            for cache in self.caches:
                cache_stats = cache_stats.merge(cache.stats)
                evictions += cache.evictions
                update_invalidations += cache.update_evictions
                update_refreshes += cache.update_refreshes
                stale_hits += cache.stale_hits
        if self.shared_cache is not None:
            update_invalidations += self.shared_cache.update_evictions
            update_refreshes += self.shared_cache.update_refreshes
            stale_hits += self.shared_cache.stale_hits
        first_cache = self.caches[0] if self.caches else None
        return ShardingStats(
            num_shards=self.plan.num_shards,
            strategy=self.plan.strategy,
            cache_policy=first_cache.policy if first_cache else None,
            cache_capacity_rows=first_cache.capacity_rows if first_cache else None,
            cache=cache_stats,
            evictions=evictions,
            per_shard_lookups=tuple(int(value) for value in accounting.owned),
            per_shard_gathered=tuple(int(value) for value in accounting.gathered),
            cross_shard_bytes=accounting.cross_shard_bytes,
            cross_shard_transfer_s=accounting.cross_shard_transfer_s,
            gather_s_total=accounting.gather_s_total,
            batches=accounting.batches,
            total_lookups=int(accounting.owned.sum()),
            degraded_lookups=self.degraded_lookups,
            promoted_lookups=self.promoted_lookups,
            update_mode=self.update_mode,
            update_events=self.update_events,
            update_rows=self.update_rows,
            update_invalidations=update_invalidations,
            update_refreshes=update_refreshes,
            stale_hits=stale_hits,
            update_apply_s_total=accounting.update_apply_s_total,
            shared_cache=(
                self.shared_cache.stats if self.shared_cache is not None else None
            ),
            shared_hits=accounting.shared_hits,
            shared_transfer_s=accounting.shared_transfer_s,
        )


class _UpdateDriver(Controller):
    """Feeds an update stream into the engine, one event outstanding.

    Exactly one ``update:push`` event is scheduled at a time; each firing
    applies the push to the shard group's cache tiers and pulls the next
    one.  The stream is infinite, so the driver stops pulling once the
    request stream is exhausted and the group has no work in flight (at
    most one trailing push fires after the final completion — it finds
    every batch done and schedules nothing further).  It reads
    ``stream.exhausted`` from the request-side stream driver, which turns
    True the moment the last arrival fires in simulated time.
    """

    def __init__(
        self,
        sim: Simulator,
        replica: ShardedReplicaServer,
        updates: Iterable[EmbeddingUpdate],
    ):
        self.sim = sim
        self.replica = replica
        self.updates = iter(updates)

    def arm(self) -> None:
        self._pump()

    def _pump(self) -> None:
        update = next(self.updates, None)
        if update is None:  # pragma: no cover - streams are infinite
            return
        self.sim.schedule_at(
            update.time_s, lambda: self._fire(update), label="update:push"
        )

    def _fire(self, update: EmbeddingUpdate) -> None:
        self.replica.apply_update(update)
        if not self.stream.exhausted or self.replica.outstanding > 0:
            self._pump()


class ShardGroup:
    """The replica part of a sharded :class:`~repro.serving.fleet.Fleet`.

    The group is one *logical* replica: requests join a single batching
    queue, every batch fans out to all owning shards and fans back in
    through the coordinator, and the straggler shard gates completion.  Of
    the fleet's recipe it reads ``shards`` (``None`` is one shard),
    ``strategy``, ``cache``, ``shared_cache``, ``updates`` and
    ``batching``.

    Args:
        runner: Design-point runner backing the shard devices, or a
            backend-registry name resolved against ``system``.
        model: Served DLRM configuration, partitioned by
            :func:`~repro.sharding.plan.make_plan`.
        spec: The fleet's recipe.  ``cache`` builds one
            :class:`~repro.sharding.cache.EmbeddingCache` per shard per
            stream; ``shared_cache`` a second tier shared across every
            shard, probed by local misses before the host gather and priced
            as row-granularity streams over the system link; ``updates``
            an :class:`~repro.workloads.updates.UpdateProcess` whose pushes
            ride the same event engine as arrivals (``None`` keeps the
            read-only path bit-identical).
        system: Hardware platform — prices the cross-shard link and
            resolves backend names; defaults to the runner's own system.
    """

    def __init__(
        self,
        runner: Union[DesignPointRunner, str],
        model: DLRMConfig,
        spec: "FleetSpec",
        system: Optional[SystemConfig],
    ):
        if isinstance(runner, (list, tuple)):
            raise ConfigurationError(
                "a shard group shards one backend; a mixed fleet serves unsharded"
            )
        self.runner = runner = resolve_runner(runner, system)
        self.model = model
        # Hot-row caches key rows by packed ints; reject models that overflow them.
        check_key_space(model)
        self.plan = make_plan(model, 1 if spec.shards is None else spec.shards, spec.strategy)
        for name, value, kind in (
            ("cache", spec.cache, CacheConfig),
            ("shared_cache", spec.shared_cache, CacheConfig),
            ("updates", spec.updates, UpdateProcess),
        ):
            if value is not None and not isinstance(value, kind):
                raise SimulationError(f"{name} must be {kind.__name__} or None, got {value!r}")
        self.cache_config = spec.cache
        self.shared_cache_config = spec.shared_cache
        self.updates = spec.updates
        self.batching = spec.batching if spec.batching is not None else default_batching()
        self.system = system if system is not None else getattr(runner, "system", None)
        if self.plan.num_shards > 1 and self.system is None:
            raise SimulationError(
                "a multi-shard group needs a system configuration to price "
                "cross-shard transfers"
            )
        if self.shared_cache_config is not None and self.system is None:
            raise SimulationError(
                "a shared cache tier needs a system configuration to price "
                "its link fetches"
            )
        # Shared runner-prediction cache, one per group (mirrors pools).
        self._service_cache: Dict = {}

    @property
    def design_point(self) -> str:
        return self.runner.design_point

    def workload_options(self, workload: Workload, seed: int) -> Dict[str, object]:
        """The workload's trace model shapes every batch's gathered rows
        (the path where zipf / hot-cold skew actually changes cache hit
        rates and shard traffic)."""
        if workload.mix is not None and tuple(workload.models) != (self.model,):
            # Checked up front: a mix naming any other model would otherwise
            # fail mid-run at batch pricing.
            names = ", ".join(repr(model.name) for model in workload.models)
            raise SimulationError(
                f"sharded groups serve a single model: the workload mix targets "
                f"model(s) {names} but the group shards {self.model.name!r}"
            )
        seeds = workload.seeds(seed)
        return {"trace": workload.trace, "trace_seed": seeds.trace, "update_seed": seeds.updates}

    def start(
        self,
        sim: Simulator,
        faults,
        trace: Optional[TraceModel] = None,
        trace_seed: Union[int, np.random.SeedSequence] = 0,
        update_seed: Union[int, np.random.SeedSequence] = 0,
    ):
        """Build one stream's group replica, its update driver and injector.

        ``trace`` shapes the row IDs every batch gathers (uniform by
        default) and ``trace_seed`` seeds the draw stream; ``update_seed``
        seeds the push stream (unused without one).
        """
        caches = None
        if self.cache_config is not None:
            caches = [
                self.cache_config.build(self.model)
                for _ in range(self.plan.num_shards)
            ]
        shared_cache = (
            self.shared_cache_config.build(self.model)
            if self.shared_cache_config is not None
            else None
        )
        replica = ShardedReplicaServer(
            sim,
            ServiceModel(self.runner, self.model, self._service_cache),
            self.batching,
            plan=self.plan,
            link=ChipletLink(self.system.link) if self.system is not None else None,
            trace_model=trace if trace is not None else UniformTrace(),
            trace_rng=np.random.default_rng(trace_seed),
            caches=caches,
            shared_cache=shared_cache,
            update_mode=self.updates.mode if self.updates is not None else None,
            name=f"{self.runner.design_point}:0",
        )
        controllers: List[Controller] = []
        if self.updates is not None:
            # Pushes and arrivals interleave on one event clock.
            events = self.updates.events(
                self.model, seed=update_seed, default_trace=replica.trace_model
            )
            controllers.append(_UpdateDriver(sim, replica, events))
        if faults is not None:
            # Imported lazily: repro.chaos builds on this package.
            from repro.chaos.injector import FaultInjector

            controllers.append(
                FaultInjector(
                    sim, faults, sharded=replica, cache_config=self.cache_config,
                    model=self.model,
                )
            )
        report = functools.partial(self._report, replica)
        return [replica], lambda arrival_s: replica, controllers, report

    def _report(self, replica, label: str, allow_empty: bool) -> ClusterReport:
        report = replica.build_report(label)
        return ClusterReport(
            design_point=self.design_point,
            model_name=label,
            num_replicas=self.plan.num_shards,
            per_replica=[report],
            latency=report.latency,
            dispatcher="shard-fan-out",
            sharding=replica.sharding_stats(),
        )
