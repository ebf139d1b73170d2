"""Statistics containers shared by the cache/DRAM simulators and analytic models."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.stats_utils import safe_divide


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (or one modelled access class)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    def record(self, hit: bool) -> None:
        self.accesses += 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def record_counts(self, hits: int, misses: int) -> None:
        """Record many accesses at once (``hits`` + ``misses`` of them)."""
        self.accesses += hits + misses
        self.hits += hits
        self.misses += misses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the element-wise sum of two counters."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
        )

    @property
    def hit_rate(self) -> float:
        return safe_divide(self.hits, self.accesses)

    @property
    def miss_rate(self) -> float:
        return safe_divide(self.misses, self.accesses)

    def validate(self) -> None:
        """Raise if the counters are inconsistent."""
        if self.hits + self.misses != self.accesses:
            raise ValueError(
                f"inconsistent cache stats: hits({self.hits}) + misses({self.misses}) "
                f"!= accesses({self.accesses})"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-compatible)."""
        return {"accesses": self.accesses, "hits": self.hits, "misses": self.misses}

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheStats":
        """Inverse of :meth:`to_dict`; raises ``KeyError`` on missing fields."""
        return cls(
            accesses=int(payload["accesses"]),
            hits=int(payload["hits"]),
            misses=int(payload["misses"]),
        )


@dataclass
class MemoryTrafficStats:
    """Byte-level traffic accounting for one execution phase.

    Attributes:
        useful_bytes: Bytes the algorithm actually needed (e.g. gathered
            embedding vectors) — the numerator of the paper's "effective
            memory throughput".
        transferred_bytes: Bytes moved over the memory interface (line
            granularity, so typically larger than ``useful_bytes``).
        llc: LLC-level hit/miss counters for this phase.
        instructions: Retired-instruction estimate for the phase (drives MPKI).
    """

    useful_bytes: float = 0.0
    transferred_bytes: float = 0.0
    llc: CacheStats = field(default_factory=CacheStats)
    instructions: float = 0.0

    @property
    def mpki(self) -> float:
        """LLC misses per thousand instructions."""
        return safe_divide(self.llc.misses * 1000.0, self.instructions)

    def effective_throughput(self, elapsed_seconds: float) -> float:
        """Useful bytes per second over an elapsed time."""
        return safe_divide(self.useful_bytes, elapsed_seconds)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-compatible)."""
        return {
            "useful_bytes": self.useful_bytes,
            "transferred_bytes": self.transferred_bytes,
            "llc": self.llc.to_dict(),
            "instructions": self.instructions,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MemoryTrafficStats":
        """Inverse of :meth:`to_dict`; raises ``KeyError`` on missing fields."""
        return cls(
            useful_bytes=float(payload["useful_bytes"]),
            transferred_bytes=float(payload["transferred_bytes"]),
            llc=CacheStats.from_dict(payload["llc"]),
            instructions=float(payload["instructions"]),
        )
