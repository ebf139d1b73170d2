"""Tests for the shared result containers."""

import math

import pytest

from repro.errors import SimulationError
from repro.memsys.stats import CacheStats, MemoryTrafficStats
from repro.results import InferenceResult, LatencyBreakdown


def make_result(design="CPU-only", model="DLRM(1)", batch=4, stages=None, power=80.0):
    breakdown = LatencyBreakdown(stages or {"EMB": 3e-4, "MLP": 1e-4, "Other": 1e-5})
    return InferenceResult(
        design_point=design,
        model_name=model,
        batch_size=batch,
        breakdown=breakdown,
        embedding_traffic=MemoryTrafficStats(useful_bytes=1e6, llc=CacheStats()),
        power_watts=power,
    )


class TestLatencyBreakdown:
    def test_add_accumulates(self):
        breakdown = LatencyBreakdown()
        breakdown.add("EMB", 1e-3)
        breakdown.add("EMB", 2e-3)
        assert breakdown.get("EMB") == pytest.approx(3e-3)

    def test_total_and_fractions(self):
        breakdown = LatencyBreakdown({"A": 3.0, "B": 1.0})
        assert breakdown.total_seconds == pytest.approx(4.0)
        assert breakdown.fraction("A") == pytest.approx(0.75)
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)

    def test_missing_stage_is_zero(self):
        assert LatencyBreakdown().get("EMB") == 0.0
        assert LatencyBreakdown().fraction("EMB") == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(SimulationError):
            LatencyBreakdown({"EMB": -1.0})

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency_rejected(self, seconds):
        # NaN compares false both ways, so a "< 0" check alone lets it
        # through and every derived metric turns into NaN.
        with pytest.raises(SimulationError, match="finite"):
            LatencyBreakdown().add("EMB", seconds)
        with pytest.raises(SimulationError, match="finite"):
            LatencyBreakdown({"EMB": 1e-3, "MLP": seconds})
        breakdown = LatencyBreakdown({"EMB": 1e-3})
        with pytest.raises(SimulationError):
            breakdown.add("EMB", seconds)
        assert breakdown.get("EMB") == 1e-3

    def test_scaled(self):
        breakdown = LatencyBreakdown({"A": 2.0}).scaled(0.5)
        assert breakdown.get("A") == pytest.approx(1.0)
        with pytest.raises(SimulationError):
            LatencyBreakdown({"A": 2.0}).scaled(-1.0)

    def test_stages_returns_copy(self):
        breakdown = LatencyBreakdown({"A": 1.0})
        stages = breakdown.stages
        stages["A"] = 99.0
        assert breakdown.get("A") == 1.0


class TestInferenceResult:
    @pytest.mark.parametrize("power", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_power_rejected(self, power):
        with pytest.raises(SimulationError, match="power_watts"):
            make_result(power=power)

    def test_zero_latency_and_power_accepted(self):
        result = make_result(stages={"EMB": 0.0}, power=0.0)
        assert result.latency_seconds == 0.0
        assert result.energy_joules == 0.0

    def test_latency_and_throughput(self):
        result = make_result()
        assert result.latency_seconds == pytest.approx(4.1e-4)
        assert result.throughput_samples_per_second == pytest.approx(4 / 4.1e-4)

    def test_energy(self):
        result = make_result(power=100.0)
        assert result.energy_joules == pytest.approx(100.0 * 4.1e-4)
        assert result.energy_per_sample_joules == pytest.approx(result.energy_joules / 4)

    def test_effective_embedding_throughput(self):
        result = make_result(stages={"EMB": 1e-3, "MLP": 1e-3})
        assert result.effective_embedding_throughput == pytest.approx(1e6 / 1e-3)

    def test_effective_throughput_without_traffic_is_zero(self):
        result = make_result()
        result.embedding_traffic = None
        assert result.effective_embedding_throughput == 0.0

    def test_speedup_and_efficiency(self):
        slow = make_result(stages={"EMB": 4e-4}, power=80.0)
        fast = make_result(design="Centaur", stages={"EMB": 1e-4}, power=74.0)
        assert fast.speedup_over(slow) == pytest.approx(4.0)
        assert fast.energy_efficiency_over(slow) == pytest.approx(4.0 * 80.0 / 74.0)

    def test_comparisons_require_matching_workload(self):
        lhs = make_result(model="DLRM(1)")
        rhs = make_result(model="DLRM(2)")
        with pytest.raises(SimulationError):
            lhs.speedup_over(rhs)
        rhs = make_result(batch=8)
        with pytest.raises(SimulationError):
            lhs.energy_efficiency_over(rhs)

    def test_validation(self):
        with pytest.raises(SimulationError):
            make_result(batch=0)
        with pytest.raises(SimulationError):
            make_result(power=-1.0)


class TestSerialization:
    def test_latency_breakdown_round_trip(self):
        breakdown = LatencyBreakdown({"IDX": 1e-6, "EMB": 3e-4, "MLP": 1e-4})
        restored = LatencyBreakdown.from_dict(breakdown.to_dict())
        assert restored.stages == breakdown.stages
        assert restored.total_seconds == breakdown.total_seconds

    def test_traffic_stats_round_trip(self):
        traffic = MemoryTrafficStats(
            useful_bytes=1.5e6,
            transferred_bytes=2.5e6,
            llc=CacheStats(accesses=100, hits=40, misses=60),
            instructions=4.2e5,
        )
        restored = MemoryTrafficStats.from_dict(traffic.to_dict())
        assert restored == traffic
        assert restored.mpki == traffic.mpki

    def test_inference_result_round_trip_is_exact(self):
        result = make_result(design="Centaur", model="DLRM(4)", batch=32, power=74.0)
        result.extra["gather_bandwidth"] = 1.19e10
        restored = InferenceResult.from_dict(result.to_dict())
        assert restored.design_point == result.design_point
        assert restored.model_name == result.model_name
        assert restored.batch_size == result.batch_size
        assert restored.breakdown.stages == result.breakdown.stages
        assert restored.embedding_traffic == result.embedding_traffic
        assert restored.mlp_traffic is None
        assert restored.power_watts == result.power_watts
        assert restored.extra == result.extra
        # Derived metrics survive untouched (nothing is rounded).
        assert restored.latency_seconds == result.latency_seconds
        assert restored.energy_joules == result.energy_joules
        assert (
            restored.effective_embedding_throughput
            == result.effective_embedding_throughput
        )

    def test_round_trip_survives_json(self):
        import json

        result = make_result()
        payload = json.loads(json.dumps(result.to_dict()))
        restored = InferenceResult.from_dict(payload)
        assert restored.latency_seconds == result.latency_seconds
        assert restored.breakdown.stages == result.breakdown.stages

    def test_truncated_payload_raises_instead_of_zeroing(self):
        payload = make_result().to_dict()
        del payload["power_watts"]
        with pytest.raises(KeyError):
            InferenceResult.from_dict(payload)
        traffic_payload = MemoryTrafficStats(useful_bytes=1.0).to_dict()
        del traffic_payload["llc"]
        with pytest.raises(KeyError):
            MemoryTrafficStats.from_dict(traffic_payload)

    def test_real_runner_result_round_trips(self):
        from repro.backends import get_backend
        from repro.config import DLRM1, HARPV2_SYSTEM

        for name in ("cpu", "cpu-gpu", "centaur"):
            result = get_backend(name, HARPV2_SYSTEM).run(DLRM1, 16)
            restored = InferenceResult.from_dict(result.to_dict())
            assert restored.latency_seconds == result.latency_seconds
            assert restored.breakdown.stages == result.breakdown.stages
            assert restored.extra == result.extra
