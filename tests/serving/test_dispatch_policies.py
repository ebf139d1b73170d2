"""Dispatcher-policy behaviour on mixed fleets.

Covers the policy-level contracts the per-dispatcher unit tests do not:
seeded power-of-two-choices determinism across repeated streams on one
cluster object, the divergence between queue-depth (JSQ) and
drain-time (least-loaded) routing on a mixed fleet, and backend-name
replica construction.
"""

import pytest

from repro.config import DLRM2, HARPV2_SYSTEM
from repro.core.centaur import CentaurRunner
from repro.cpu.cpu_runner import CPUOnlyRunner
from repro.errors import SimulationError
from repro.serving import (
    Fleet,
    FleetSpec,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoChoicesDispatcher,
    ReplicaSpec,
    TimeoutBatching,
)

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)


def mixed_fleet(dispatcher, num_cpu=3, num_centaur=1):
    """A deliberately lopsided fleet: several slow CPUs, one fast Centaur."""
    specs = [ReplicaSpec(CPUOnlyRunner(HARPV2_SYSTEM)) for _ in range(num_cpu)]
    specs += [ReplicaSpec(CentaurRunner(HARPV2_SYSTEM)) for _ in range(num_centaur)]
    return Fleet(specs, DLRM2, FleetSpec(dispatcher=dispatcher, batching=BATCHING))


def per_replica_counts(report):
    return tuple(
        (r.design_point, r.completed_requests) for r in report.per_replica
    )


class TestPowerOfTwoDeterminism:
    def test_same_seed_reproduces_the_exact_stream_outcome(self):
        report_a = mixed_fleet(PowerOfTwoChoicesDispatcher(seed=7)).serve_poisson(
            rate_qps=60_000, duration_s=0.05, seed=3
        )
        report_b = mixed_fleet(PowerOfTwoChoicesDispatcher(seed=7)).serve_poisson(
            rate_qps=60_000, duration_s=0.05, seed=3
        )
        assert per_replica_counts(report_a) == per_replica_counts(report_b)
        assert report_a.latency.samples_s.tolist() == report_b.latency.samples_s.tolist()

    def test_reset_restores_determinism_across_streams(self):
        cluster = mixed_fleet(PowerOfTwoChoicesDispatcher(seed=11))
        first = cluster.serve_poisson(rate_qps=60_000, duration_s=0.05, seed=3)
        second = cluster.serve_poisson(rate_qps=60_000, duration_s=0.05, seed=3)
        assert per_replica_counts(first) == per_replica_counts(second)

    def test_different_seeds_route_differently(self):
        outcomes = {
            per_replica_counts(
                mixed_fleet(PowerOfTwoChoicesDispatcher(seed=seed)).serve_poisson(
                    rate_qps=60_000, duration_s=0.05, seed=3
                )
            )
            for seed in range(4)
        }
        assert len(outcomes) > 1, "four seeds should not all route identically"

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError):
            PowerOfTwoChoicesDispatcher(seed=-1)


class TestJSQvsLeastLoadedDivergence:
    def test_policies_split_a_lopsided_fleet_differently(self):
        """JSQ counts requests; least-loaded weights them by device speed.

        On a fleet of slow CPUs plus one fast Centaur the two disagree:
        least-loaded keeps feeding the Centaur (its backlog drains faster),
        while JSQ evens out raw queue depths across all replicas.
        """
        jsq = mixed_fleet(JoinShortestQueueDispatcher()).serve_poisson(
            rate_qps=80_000, duration_s=0.05, seed=5
        )
        least = mixed_fleet(LeastLoadedDispatcher()).serve_poisson(
            rate_qps=80_000, duration_s=0.05, seed=5
        )

        def centaur_share(report):
            total = report.completed_requests
            centaur = sum(
                r.completed_requests
                for r in report.per_replica
                if r.design_point == "Centaur"
            )
            return centaur / total

        assert centaur_share(least) > centaur_share(jsq), (
            "least-loaded must route a larger share to the fast replica"
        )
        assert per_replica_counts(jsq) != per_replica_counts(least)

    def test_least_loaded_cuts_the_tail_on_the_lopsided_fleet(self):
        jsq = mixed_fleet(JoinShortestQueueDispatcher()).serve_poisson(
            rate_qps=80_000, duration_s=0.05, seed=5
        )
        least = mixed_fleet(LeastLoadedDispatcher()).serve_poisson(
            rate_qps=80_000, duration_s=0.05, seed=5
        )
        assert least.latency.p99_s <= jsq.latency.p99_s


class TestBackendNameConstruction:
    def test_backend_names_build_a_mixed_fleet(self):
        fleet = Fleet(
            ["cpu", "cpu", "centaur"],
            DLRM2,
            FleetSpec(dispatcher=LeastLoadedDispatcher(), batching=BATCHING),
            HARPV2_SYSTEM,
        )
        assert len(fleet.part.specs) == 3
        assert fleet.design_point == "CPU-only+Centaur"
        report = fleet.serve_poisson(rate_qps=40_000, duration_s=0.02, seed=1)
        assert report.completed_requests > 0

    def test_specs_accept_backend_names_with_system(self):
        fleet = Fleet(
            [ReplicaSpec("cpu"), ReplicaSpec("centaur")],
            DLRM2,
            FleetSpec(batching=BATCHING),
            HARPV2_SYSTEM,
        )
        assert fleet.design_point == "CPU-only+Centaur"
        # Same-name replicas share one resolved runner instance (and thus
        # one prediction cache), mirroring shared-runner clusters.
        shared = Fleet(["cpu", "cpu"], DLRM2, FleetSpec(batching=BATCHING), HARPV2_SYSTEM)
        assert shared.part.specs[0].runner is shared.part.specs[1].runner

    def test_backend_name_without_system_raises(self):
        with pytest.raises(SimulationError, match="system"):
            Fleet([ReplicaSpec("cpu")], DLRM2, FleetSpec(batching=BATCHING))

    def test_unknown_backend_name_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown backend"):
            Fleet(["tpu"], DLRM2, FleetSpec(batching=BATCHING), HARPV2_SYSTEM)
