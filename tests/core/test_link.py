"""Tests for the CPU<->FPGA chiplet link model."""

import dataclasses

import pytest

from repro.config.system import LinkConfig
from repro.core.link import ChipletLink
from repro.errors import SimulationError


@pytest.fixture()
def link():
    return ChipletLink(LinkConfig())


class TestBulkTransfer:
    def test_zero_bytes(self, link):
        assert link.bulk_transfer(0).latency_s == 0.0

    def test_latency_has_fixed_and_streaming_parts(self, link):
        estimate = link.bulk_transfer(1_000_000)
        assert estimate.latency_s == pytest.approx(estimate.fixed_s + estimate.streaming_s)
        assert estimate.fixed_s == pytest.approx(link.config.latency_s)

    def test_negative_rejected(self, link):
        with pytest.raises(SimulationError):
            link.bulk_transfer(-1)

    def test_transfers_leave_the_link_unchanged(self, link):
        first = link.bulk_transfer(4096)
        link.gather_stream(1_000, 64)
        assert link.bulk_transfer(4096) == first
        assert link == ChipletLink(LinkConfig())
        with pytest.raises(dataclasses.FrozenInstanceError):
            link.gather_efficiency = 0.5


class TestGatherBandwidth:
    def test_peak_gather_bandwidth_is_68_percent_of_effective(self, link):
        # Section VI-B: EB-Streamer achieves ~68% of the 17-18 GB/s effective link bw.
        assert link.peak_gather_bandwidth == pytest.approx(
            0.68 * link.config.effective_bandwidth
        )
        assert 11e9 < link.peak_gather_bandwidth < 12.5e9

    def test_bandwidth_limited_by_outstanding_requests(self, link):
        few = link.gather_bandwidth(4)
        many = link.gather_bandwidth(128)
        assert few < many
        assert many == pytest.approx(link.peak_gather_bandwidth)

    def test_outstanding_capped_by_config(self, link):
        assert link.gather_bandwidth(10_000) == link.gather_bandwidth(
            link.config.max_outstanding_requests
        )

    def test_rejects_non_positive_outstanding(self, link):
        with pytest.raises(SimulationError):
            link.gather_bandwidth(0)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(SimulationError):
            ChipletLink(LinkConfig(), gather_efficiency=0.0)


class TestGatherStream:
    def test_zero_lines(self, link):
        assert link.gather_stream(0, 16).latency_s == 0.0

    def test_stream_time_scales_with_lines(self, link):
        small = link.gather_stream(1_000, 128)
        large = link.gather_stream(10_000, 128)
        assert large.streaming_s == pytest.approx(10 * small.streaming_s)

    def test_achieved_bandwidth_below_gather_cap(self, link):
        estimate = link.gather_stream(100_000, 128)
        assert estimate.achieved_bandwidth <= link.peak_gather_bandwidth * (1 + 1e-9)

    def test_gathers_never_exceed_effective_link_bandwidth(self, link):
        estimate = link.gather_stream(1_000_000, 10_000)
        assert estimate.sustained_bandwidth < link.config.effective_bandwidth


class TestCacheBypassPath:
    def test_bypass_uses_higher_bandwidth(self):
        base = ChipletLink(LinkConfig())
        bypass = ChipletLink(LinkConfig().with_bypass(77e9))
        assert bypass.peak_gather_bandwidth > base.peak_gather_bandwidth
        assert bypass.peak_gather_bandwidth == pytest.approx(0.68 * 77e9)

    def test_bulk_transfers_still_use_coherent_path(self):
        bypass = ChipletLink(LinkConfig().with_bypass(77e9))
        estimate = bypass.bulk_transfer(1_000_000)
        assert estimate.sustained_bandwidth == pytest.approx(
            bypass.config.effective_bandwidth
        )
