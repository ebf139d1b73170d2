"""CPU<->FPGA chiplet communication link model.

HARPv2 exposes two PCIe links and one UPI cache-coherent link between the
Xeon and the Arria 10, for an aggregate theoretical uni-directional bandwidth
of 28.8 GB/s; after protocol overheads roughly 17-18 GB/s is achievable, and
the paper's EB-Streamer reaches about 68% of that for irregular gathers.

The link model answers two kinds of questions:

* bulk transfers (index arrays, dense features, results): latency plus
  bytes over the effective bandwidth,
* gather streams (many independent cache-line-granularity reads): the
  sustained bandwidth is the smaller of a protocol-efficiency cap and the
  Little's-law bound set by how many requests can be kept in flight.

The "proposed architecture" of the paper's Fig. 8 adds a cache-bypassing
path provisioned at (or above) DRAM bandwidth; enabling it on the
:class:`~repro.config.system.LinkConfig` switches gather streams onto that
path, which the Section VII ablation benchmark exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import LinkConfig
from repro.errors import SimulationError


@dataclass(frozen=True)
class LinkTransferEstimate:
    """Latency decomposition of one transfer (bulk or gather stream)."""

    bytes_transferred: float
    latency_s: float
    fixed_s: float
    streaming_s: float
    sustained_bandwidth: float

    @property
    def achieved_bandwidth(self) -> float:
        if self.latency_s == 0:
            return 0.0
        return self.bytes_transferred / self.latency_s


@dataclass(frozen=True)
class ChipletLink:
    """Performance model of the package-level CPU<->FPGA interconnect.

    Stateless: every estimate is a pure function of the configuration and
    its arguments, so one link can price every transfer of a runner.
    """

    config: LinkConfig
    gather_efficiency: float = 0.68

    def __post_init__(self) -> None:
        if not 0.0 < self.gather_efficiency <= 1.0:
            raise SimulationError(
                f"gather_efficiency must be in (0, 1], got {self.gather_efficiency}"
            )

    # ------------------------------------------------------------------
    @property
    def effective_bandwidth(self) -> float:
        return self.config.effective_bandwidth

    @property
    def peak_gather_bandwidth(self) -> float:
        """Sustained gather bandwidth when fully pipelined (the ~11.9 GB/s point)."""
        return self.gather_efficiency * self._gather_path_bandwidth()

    def _gather_path_bandwidth(self) -> float:
        """Raw bandwidth of the path gathers use (bypass path when available)."""
        if self.config.cache_bypass_available and self.config.bypass_bandwidth:
            return self.config.bypass_bandwidth
        return self.config.effective_bandwidth

    # ------------------------------------------------------------------
    def bulk_transfer(self, num_bytes: float) -> LinkTransferEstimate:
        """A contiguous transfer (index array upload, dense features, results)."""
        if num_bytes < 0:
            raise SimulationError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return LinkTransferEstimate(0.0, 0.0, 0.0, 0.0, 0.0)
        streaming_s = num_bytes / self.config.effective_bandwidth
        fixed_s = self.config.latency_s
        return LinkTransferEstimate(
            bytes_transferred=float(num_bytes),
            latency_s=fixed_s + streaming_s,
            fixed_s=fixed_s,
            streaming_s=streaming_s,
            sustained_bandwidth=self.config.effective_bandwidth,
        )

    def gather_bandwidth(self, outstanding_requests: float) -> float:
        """Sustained bandwidth of a gather stream with bounded concurrency.

        Two bounds apply: the protocol-efficiency cap on the gather path, and
        Little's law over the in-flight cache-line requests and the link's
        round-trip latency.
        """
        if outstanding_requests <= 0:
            raise SimulationError(
                f"outstanding_requests must be positive, got {outstanding_requests}"
            )
        outstanding = min(outstanding_requests, self.config.max_outstanding_requests)
        little = outstanding * self.config.request_granularity_bytes / self.config.latency_s
        return min(self.peak_gather_bandwidth, little)

    def gather_stream(
        self, num_lines: int, outstanding_requests: float
    ) -> LinkTransferEstimate:
        """A stream of independent cache-line reads (embedding gathers)."""
        if num_lines < 0:
            raise SimulationError(f"num_lines must be non-negative, got {num_lines}")
        num_bytes = num_lines * self.config.request_granularity_bytes
        if num_lines == 0:
            return LinkTransferEstimate(0.0, 0.0, 0.0, 0.0, 0.0)
        bandwidth = self.gather_bandwidth(min(outstanding_requests, num_lines))
        streaming_s = num_bytes / bandwidth
        # One link round-trip of pipeline fill before the first line lands.
        fixed_s = self.config.latency_s
        return LinkTransferEstimate(
            bytes_transferred=float(num_bytes),
            latency_s=fixed_s + streaming_s,
            fixed_s=fixed_s,
            streaming_s=streaming_s,
            sustained_bandwidth=bandwidth,
        )
