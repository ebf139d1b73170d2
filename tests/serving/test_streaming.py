"""Streaming serving: laziness, equivalence with eager serving, multi-model.

The streaming driver pulls arrivals one event at a time, so memory is bound
by the in-flight work — not the stream length.  These tests pin:

* eager (sequence) and lazy (iterator) serving produce identical reports,
* a 1M-request run keeps peak resident requests bounded (satellite task),
* multi-model traffic mixes conserve requests and split batch segments,
* stream validation (out-of-order iterators fail loudly).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import pytest

from repro.config import DLRM2, DLRM4, HARPV2_SYSTEM
from repro.config.models import DLRMConfig
from repro.errors import SimulationError
from repro.results import InferenceResult, LatencyBreakdown
from repro.serving import FixedSizeBatching, Fleet, FleetSpec, TimeoutBatching
from repro.serving.replica import ReplicaServer, ServiceModel, drive_stream
from repro.sim.engine import Simulator
from repro.workloads import (
    ConstantRateArrivals,
    InferenceRequest,
    PoissonArrivals,
    TrafficMix,
    Workload,
)
from repro.workloads.arrivals import requests_from_times


@dataclass
class FlatRunner:
    """A constant-latency device: latency independent of model and batch."""

    latency_s: float = 1e-4
    design_point: str = "Flat"
    calls: int = 0

    def run(self, model: DLRMConfig, batch_size: int) -> InferenceResult:
        self.calls += 1
        return InferenceResult(
            design_point=self.design_point,
            model_name=model.name,
            batch_size=batch_size,
            breakdown=LatencyBreakdown({"Total": self.latency_s}),
            power_watts=10.0,
        )


class TestStreamingEquivalence:
    def test_lazy_iterator_matches_eager_sequence(self):
        """Same stream served eagerly and lazily: identical percentiles."""
        from repro import get_backend

        runner = get_backend("centaur", HARPV2_SYSTEM)
        process = PoissonArrivals(rate_qps=20_000.0)
        batching = TimeoutBatching(window_s=1e-3, max_batch_size=64)

        eager = Fleet(runner, DLRM2, FleetSpec(batching=batching)).serve(
            process.generate(num_requests=2_000, seed=5)
        )
        lazy = Fleet(runner, DLRM2, FleetSpec(batching=batching)).serve(
            requests_from_times(process.arrivals(num_requests=2_000, seed=5))
        )
        assert eager.completed_requests == lazy.completed_requests
        assert eager.latency.p99_s == lazy.latency.p99_s
        assert eager.average_batch_size == lazy.average_batch_size
        assert eager.energy_joules == lazy.energy_joules

    def test_cluster_lazy_matches_eager(self):
        from repro import get_backend

        runner = get_backend("cpu", HARPV2_SYSTEM)
        process = PoissonArrivals(rate_qps=40_000.0)
        eager_cluster = Fleet(runner, DLRM2, FleetSpec(replicas=3))
        lazy_cluster = Fleet(runner, DLRM2, FleetSpec(replicas=3))
        eager = eager_cluster.serve(process.generate(num_requests=1_500, seed=2))
        lazy = lazy_cluster.serve(
            requests_from_times(process.arrivals(num_requests=1_500, seed=2))
        )
        assert eager.completed_requests == lazy.completed_requests
        assert eager.latency.p99_s == lazy.latency.p99_s


class TestBoundedMemory:
    def test_million_request_run_has_bounded_peak(self):
        """Satellite: 1M requests stream through the engine with peak
        resident requests bounded by the in-flight work, not the stream."""
        total = 1_000_000
        batch_cap = 1_024
        runner = FlatRunner(latency_s=2e-5)
        sim = Simulator()
        replica = ReplicaServer(
            sim,
            ServiceModel(runner, DLRM2),
            FixedSizeBatching(batch_size=batch_cap),
        )
        # Offered load at ~20% of device capacity (1024 / 2e-5 = 51.2M QPS)
        # so the queue stays shallow and the peak reflects in-flight work.
        stream = requests_from_times(
            ConstantRateArrivals(rate_qps=10_000_000.0).arrivals(num_requests=total)
        )
        outcome = drive_stream(sim, [replica], stream, lambda request: replica)
        assert outcome.scheduled == total
        assert outcome.completed == total
        # In-flight = pending batch (< cap) + device queue + look-ahead; far
        # below the stream length and proportional to the queue the offered
        # load sustains, not to the total request count.
        assert outcome.peak_resident < total / 10
        assert replica.completed_count == total
        # The completion record: one boundary record per batch (incl. the
        # flushed tail) and one arrival time per request.
        assert len(replica.executed) == -(-total // batch_cap)
        assert sum(batch.batch_size for batch in replica.executed) == total


class TestMultiModelServing:
    def test_mix_conserves_and_prices_both_models(self):
        runner = FlatRunner()
        mix = TrafficMix.of((DLRM2, 0.5), (DLRM4, 0.5))
        workload = Workload(arrivals=PoissonArrivals(20_000.0), mix=mix)
        simulator = Fleet(runner, DLRM2)
        report = simulator.serve_workload(workload, num_requests=1_000, seed=0)
        assert report.completed_requests == 1_000
        assert report.model_name == mix.label
        priced = {model for model, _ in simulator.part._caches[id(runner)]}
        assert priced == {"DLRM(2)", "DLRM(4)"}

    def test_mixed_batches_split_into_per_model_segments(self):
        """A batch holding two models executes as two sequential segments."""
        runner = FlatRunner(latency_s=1e-4)
        sim = Simulator()
        service = ServiceModel(runner, DLRM2, extra_models=(DLRM4,))
        replica = ReplicaServer(sim, service, FixedSizeBatching(batch_size=4))
        requests = [
            InferenceRequest(0, 0.001, model_name="DLRM(2)"),
            InferenceRequest(1, 0.001, model_name="DLRM(4)"),
            InferenceRequest(2, 0.001, model_name="DLRM(2)"),
            InferenceRequest(3, 0.001, model_name="DLRM(4)"),
        ]
        drive_stream(sim, [replica], requests, lambda request: replica)
        # One closed batch of 4 -> two executed segments of 2, back to back.
        assert [batch.batch_size for batch in replica.executed] == [2, 2]
        first, second = replica.executed
        assert second.start_time_s == pytest.approx(first.finish_time_s)
        assert replica.completed_count == 4

    def test_unknown_model_fails_loudly(self):
        runner = FlatRunner()
        service = ServiceModel(runner, DLRM2)
        with pytest.raises(SimulationError, match="cannot price"):
            service.result(4, "DLRM(4)")

    def test_single_model_batches_stay_whole(self):
        """Untagged traffic must execute exactly as before (one segment)."""
        runner = FlatRunner()
        sim = Simulator()
        replica = ReplicaServer(
            sim, ServiceModel(runner, DLRM2), FixedSizeBatching(batch_size=4)
        )
        requests = [InferenceRequest(i, 0.001) for i in range(4)]
        drive_stream(sim, [replica], requests, lambda request: replica)
        assert [batch.batch_size for batch in replica.executed] == [4]


class TestArrivalTimes:
    """The serve path carries arrival times, not request objects."""

    @staticmethod
    def _record_submits(monkeypatch):
        """Record every submit's arguments, and the live request objects on
        every 200th call."""
        calls, live = [], []
        submit = ReplicaServer.submit

        def recording(self, *args):
            if len(calls) % 200 == 0:
                live.append(sum(isinstance(o, InferenceRequest) for o in gc.get_objects()))
            calls.append(args)
            return submit(self, *args)

        monkeypatch.setattr(ReplicaServer, "submit", recording)
        return calls, live

    def test_single_model_serve_builds_no_request_objects(self, monkeypatch):
        gc.collect()
        before = sum(isinstance(o, InferenceRequest) for o in gc.get_objects())
        calls, live = self._record_submits(monkeypatch)
        report = Fleet(FlatRunner(), DLRM2, FleetSpec(replicas=2)).serve_workload(
            Workload(arrivals=PoissonArrivals(20_000.0)), num_requests=1_000, seed=3
        )
        assert report.completed_requests == len(calls) == 1_000
        assert all(len(args) == 1 and type(args[0]) is float for args in calls)
        assert len(live) == 5 and set(live) == {before}

    def test_a_mix_tags_each_arrival_time_with_its_model(self, monkeypatch):
        calls, _ = self._record_submits(monkeypatch)
        workload = Workload(
            arrivals=PoissonArrivals(20_000.0), mix=TrafficMix.of((DLRM2, 0.5), (DLRM4, 0.5))
        )
        Fleet(FlatRunner(), DLRM2).serve_workload(workload, num_requests=300, seed=3)
        expected = workload.request_list(num_requests=300, seed=3)
        assert calls == [(r.arrival_time_s, r.model_name) for r in expected]


    @pytest.mark.parametrize("mix", [None, TrafficMix.of((DLRM2, 0.5), (DLRM4, 0.5))])
    def test_request_objects_serve_like_their_times(self, mix):
        """``Fleet.serve`` converts objects at its edge: the same stream
        served as objects and as times gives the same report."""
        from repro import get_backend

        runner = get_backend("cpu", HARPV2_SYSTEM)
        workload = Workload(arrivals=PoissonArrivals(30_000.0), mix=mix)
        spec = FleetSpec(replicas=2)
        by_times = Fleet(runner, DLRM2, spec).serve_workload(
            workload, num_requests=600, seed=3
        )
        by_objects = Fleet(runner, DLRM2, spec).serve(
            workload.request_list(num_requests=600, seed=3)[::-1],
            mix.label if mix is not None else None,
            extra_models=workload.models,
        )
        assert by_objects.model_name == by_times.model_name
        assert (by_objects.latency.samples_s == by_times.latency.samples_s).all()
        assert by_objects.total_energy_joules == by_times.total_energy_joules


class TestStreamValidation:
    def test_out_of_order_iterator_rejected(self):
        runner = FlatRunner()
        sim = Simulator()
        replica = ReplicaServer(
            sim, ServiceModel(runner, DLRM2), FixedSizeBatching(batch_size=2)
        )
        disordered = iter(
            [InferenceRequest(0, 0.5), InferenceRequest(1, 0.1)]
        )
        with pytest.raises(SimulationError, match="time-ordered"):
            drive_stream(sim, [replica], disordered, lambda request: replica)

    def test_empty_stream_rejected_by_frontends(self):
        from repro import get_backend

        runner = get_backend("centaur", HARPV2_SYSTEM)
        simulator = Fleet(runner, DLRM2)
        with pytest.raises(SimulationError, match="empty request stream"):
            simulator.serve(iter([]))
        with pytest.raises(SimulationError, match="empty request stream"):
            simulator.serve([])

    def test_stream_outcome_counters(self):
        runner = FlatRunner()
        sim = Simulator()
        replica = ReplicaServer(
            sim, ServiceModel(runner, DLRM2), FixedSizeBatching(batch_size=2)
        )
        requests = [InferenceRequest(i, 0.001 * (i + 1)) for i in range(6)]
        outcome = drive_stream(sim, [replica], requests, lambda request: replica)
        assert outcome.scheduled == 6
        assert outcome.completed == 6
        assert 1 <= outcome.peak_resident <= 6
