"""Dispatcher behaviour when the replica fleet changes mid-stream.

Regression tests for two autoscaling-era bugs:

* ``RoundRobinDispatcher`` kept a monotonic counter and took the modulus at
  select time, so a fleet-size change skewed the rotation (skipping or
  double-hitting replicas).  The rotation is now anchored to the identity
  of the last-served replica.
* ``PowerOfTwoChoicesDispatcher`` consumed no randomness when only one
  replica was active, silently freezing its decision stream across a
  scale-to-one phase; every ``select`` now advances the RNG.
"""

import pytest

from repro.config import DLRM2, HARPV2_SYSTEM
from repro.core import CentaurRunner
from repro.serving import (
    Fleet,
    FleetSpec,
    PowerOfTwoChoicesDispatcher,
    RoundRobinDispatcher,
    ScheduledPolicy,
    TimeoutBatching,
)
from repro.workloads import PoissonArrivals, Workload

BATCHING = TimeoutBatching(window_s=1e-3, max_batch_size=32)


class FakeReplica:
    """The slice of replica state dispatchers inspect."""

    def __init__(self, outstanding: int = 0):
        self.outstanding = outstanding


def select_sequence(dispatcher, replicas, count, now=0.0):
    return [dispatcher.select(replicas, None, now) for _ in range(count)]


class TestRoundRobinUnderScaleEvents:
    def test_stable_fleet_keeps_the_legacy_rotation(self):
        dispatcher = RoundRobinDispatcher()
        replicas = [FakeReplica() for _ in range(3)]
        assert select_sequence(dispatcher, replicas, 7) == [0, 1, 2, 0, 1, 2, 0]

    def test_growth_continues_the_rotation_without_double_hits(self):
        dispatcher = RoundRobinDispatcher()
        replicas = [FakeReplica() for _ in range(3)]
        a, b, c = replicas
        assert select_sequence(dispatcher, replicas, 4) == [0, 1, 2, 0]
        # Fleet grows mid-stream; the old counter (4 % 4 == 0) would hit
        # the just-served replica ``a`` again.
        d = FakeReplica()
        grown = [a, b, c, d]
        follow = [grown[i] for i in select_sequence(dispatcher, grown, 4)]
        assert follow == [b, c, d, a]

    def test_shrink_of_the_last_served_replica_does_not_skip(self):
        dispatcher = RoundRobinDispatcher()
        a, b, c = (FakeReplica() for _ in range(3))
        select_sequence(dispatcher, [a, b, c], 2)  # served a, b
        # ``b`` (the last served) drains away; its old slot now holds ``c``,
        # which is exactly the replica next in rotation.
        shrunk = [a, c]
        follow = [shrunk[i] for i in select_sequence(dispatcher, shrunk, 3)]
        assert follow == [c, a, c]

    def test_shrink_elsewhere_keeps_rotation_by_identity(self):
        dispatcher = RoundRobinDispatcher()
        a, b, c = (FakeReplica() for _ in range(3))
        select_sequence(dispatcher, [a, b, c], 1)  # served a
        shrunk = [a, b]  # c drained; a was just served
        follow = [shrunk[i] for i in select_sequence(dispatcher, shrunk, 3)]
        assert follow == [b, a, b]

    def test_trailing_multi_drain_wraps_without_skipping(self):
        """Draining several trailing replicas (the autoscaler's pattern)
        including the last-served one must wrap the rotation to the front,
        not land mid-list and skip the early replicas."""
        dispatcher = RoundRobinDispatcher()
        fleet = [FakeReplica() for _ in range(5)]
        select_sequence(dispatcher, fleet, 5)  # last served: index 4
        shrunk = fleet[:3]  # replicas 3 and 4 drained together
        follow = [shrunk[i] for i in select_sequence(dispatcher, shrunk, 4)]
        assert follow == [fleet[0], fleet[1], fleet[2], fleet[0]]

    def test_fair_coverage_over_any_window_after_a_change(self):
        dispatcher = RoundRobinDispatcher()
        replicas = [FakeReplica() for _ in range(5)]
        select_sequence(dispatcher, replicas, 13)
        shrunk = replicas[1:]  # drop replica 0 mid-stream
        window = select_sequence(dispatcher, shrunk, len(shrunk))
        assert sorted(window) == list(range(len(shrunk))), (
            "one full window after a scale event must hit every replica once"
        )

    def test_reset_restarts_the_rotation(self):
        dispatcher = RoundRobinDispatcher()
        replicas = [FakeReplica() for _ in range(3)]
        select_sequence(dispatcher, replicas, 2)
        dispatcher.reset()
        assert dispatcher.select(replicas, None, 0.0) == 0


class TestRoundRobinUnderCrashEvents:
    """Crash-driven shrink removes *arbitrary* replicas, not the trailing
    suffix the autoscaler drains; the rotation must resume at the crashed
    anchor's remembered successor, not whatever now sits in its old slot."""

    def test_crash_of_anchor_and_an_earlier_replica_resumes_at_successor(self):
        dispatcher = RoundRobinDispatcher()
        a, b, c, d = (FakeReplica() for _ in range(4))
        select_sequence(dispatcher, [a, b, c, d], 3)  # last served: c
        # A crash takes the anchor ``c`` *and* ``a`` in one step.  The slot
        # heuristic would resume at index 2 -> wrap to ``b`` (double-hit
        # territory); the remembered rotation says ``d`` follows ``c``.
        survivors = [b, d]
        follow = [survivors[i] for i in select_sequence(dispatcher, survivors, 4)]
        assert follow == [d, b, d, b]

    def test_crash_of_anchor_mid_list_does_not_restart_the_rotation(self):
        dispatcher = RoundRobinDispatcher()
        fleet = [FakeReplica() for _ in range(5)]
        select_sequence(dispatcher, fleet, 2)  # last served: fleet[1]
        survivors = [fleet[0], fleet[2], fleet[4]]  # crash took 1 and 3
        follow = [survivors[i] for i in select_sequence(dispatcher, survivors, 3)]
        assert follow == [fleet[2], fleet[4], fleet[0]]

    def test_full_fleet_replacement_falls_back_to_the_slot_heuristic(self):
        dispatcher = RoundRobinDispatcher()
        old = [FakeReplica() for _ in range(3)]
        select_sequence(dispatcher, old, 2)  # last served index 1
        fresh = [FakeReplica() for _ in range(3)]
        assert dispatcher.select(fresh, None, 0.0) == 1

    def test_crash_then_restart_rejoins_the_rotation(self):
        dispatcher = RoundRobinDispatcher()
        a, b, c = (FakeReplica() for _ in range(3))
        select_sequence(dispatcher, [a, b, c], 3)  # last served: c
        shrunk = [a, b]  # c crashed
        assert [shrunk[i] for i in select_sequence(dispatcher, shrunk, 2)] == [a, b]
        healed = [a, b, c]  # c restarted into its old slot
        follow = [healed[i] for i in select_sequence(dispatcher, healed, 3)]
        assert follow == [c, a, b]


class TestPowerOfTwoUnderScaleEvents:
    def test_single_replica_phase_advances_the_rng(self):
        """A fleet that dipped to one replica must not replay the stream of
        a fleet that never did (the select consumed nothing before)."""
        replicas = [FakeReplica() for _ in range(4)]
        single = [FakeReplica()]

        dipped = PowerOfTwoChoicesDispatcher(seed=9)
        for _ in range(6):
            assert dipped.select(single, None, 0.0) == 0
        after_dip = select_sequence(dipped, replicas, 20)

        steady = PowerOfTwoChoicesDispatcher(seed=9)
        no_dip = select_sequence(steady, replicas, 20)
        assert after_dip != no_dip

    def test_scaled_trajectory_is_reproducible(self):
        def run():
            dispatcher = PowerOfTwoChoicesDispatcher(seed=5)
            dispatcher.reset()
            fleet3 = [FakeReplica(i) for i in range(3)]
            fleet1 = [FakeReplica()]
            fleet5 = [FakeReplica(i % 2) for i in range(5)]
            choices = select_sequence(dispatcher, fleet3, 10)
            choices += select_sequence(dispatcher, fleet1, 5)
            choices += select_sequence(dispatcher, fleet5, 10)
            return choices

        assert run() == run()

    def test_ties_break_toward_the_lower_index_without_extra_draws(self):
        dispatcher = PowerOfTwoChoicesDispatcher(seed=0)
        tied = [FakeReplica(2) for _ in range(4)]
        shadow = PowerOfTwoChoicesDispatcher(seed=0)
        for _ in range(25):
            choice = dispatcher.select(tied, None, 0.0)
            first, second = shadow._rng.choice(4, size=2, replace=False)
            assert choice == min(int(first), int(second))

    def test_loaded_candidate_loses(self):
        dispatcher = PowerOfTwoChoicesDispatcher(seed=1)
        replicas = [FakeReplica(10), FakeReplica(0), FakeReplica(10), FakeReplica(10)]
        picks = select_sequence(dispatcher, replicas, 40)
        # Whenever replica 1 was sampled it must have won its pairing; it
        # is sampled in roughly half of all pairs, so it dominates.
        assert picks.count(1) > len(picks) / 3


class TestAutoscaledServingRegression:
    """End-to-end: both dispatchers stay deterministic and conserve requests
    while a scheduled policy scales the fleet mid-stream."""

    @pytest.mark.parametrize(
        "make_dispatcher",
        [RoundRobinDispatcher, lambda: PowerOfTwoChoicesDispatcher(seed=11)],
    )
    def test_mid_stream_scale_event_double_run(self, make_dispatcher):
        workload = Workload(arrivals=PoissonArrivals(rate_qps=60_000))

        def run():
            cluster = Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                DLRM2,
                FleetSpec(
                    policy=ScheduledPolicy([(0.0, 1), (0.02, 4), (0.06, 2)]),
                    min_replicas=1,
                    max_replicas=4,
                    control_interval_s=5e-3,
                    batching=BATCHING,
                    dispatcher=make_dispatcher(),
                ),
            )
            return cluster.serve_workload(workload, duration_s=0.1, seed=2)

        first, second = run(), run()
        assert first.completed_requests == second.completed_requests
        assert first.latency.samples_s.tolist() == second.latency.samples_s.tolist()
        assert first.autoscale.timeline == second.autoscale.timeline
        assert first.autoscale.scale_up_events >= 1
        assert first.autoscale.scale_down_events >= 1

    @pytest.mark.parametrize(
        "make_dispatcher",
        [RoundRobinDispatcher, lambda: PowerOfTwoChoicesDispatcher(seed=11)],
    )
    def test_crash_driven_shrink_double_run(self, make_dispatcher):
        """A crash removes a non-suffix replica mid-stream — the shrink the
        drain path never produces; dispatch must stay deterministic and
        conserve every request."""
        from repro.chaos import FaultSchedule, ReplicaCrash

        workload = Workload(arrivals=PoissonArrivals(rate_qps=60_000))

        def run():
            cluster = Fleet(
                CentaurRunner(HARPV2_SYSTEM),
                DLRM2,
                FleetSpec(
                    policy=None,
                    min_replicas=1,
                    max_replicas=4,
                    replicas=4,
                    warmup_s=2e-3,
                    batching=BATCHING,
                    dispatcher=make_dispatcher(),
                ),
            )
            report = cluster.serve_workload(
                workload,
                num_requests=3_000,
                seed=2,
                faults=FaultSchedule(
                    [
                        # Replica 1 dies first (non-suffix removal), then the
                        # current anchor region loses replica 2 as well.
                        ReplicaCrash(at_s=0.01, replica=1, restart_after_s=0.015),
                        ReplicaCrash(at_s=0.012, replica=2),
                    ]
                ),
            )
            return report, cluster.last_outcome

        (first, first_outcome), (second, second_outcome) = run(), run()
        assert first_outcome == second_outcome
        assert first_outcome.completed + first_outcome.shed == 3_000
        assert first.latency.samples_s.tolist() == second.latency.samples_s.tolist()
        assert first.autoscale.crashes == 2
        assert first.autoscale.restarts == 1
        # One full rotation after the crash still covers every live replica:
        # completions keep landing on all surviving replicas.
        live = [r for r in first.per_replica if r.completed_requests > 0]
        assert len(live) >= 3
