"""The merged arrival source against the all-on-heap reference, by property.

:meth:`~repro.sim.engine.Simulator.run` fires the arrival stream from
beside the event heap: the stream driver ranks each arrival with a
sequence number drawn where the pre-merge driver pushed its arrival event.
Here random callbacks push and cancel heap events, and the arrival column
is built on a coarse time grid so arrivals tie with each other and with
heap events exactly.  The fired order, the clock after each firing, the
stream's live ``count`` and ``exhausted`` at each firing, the clock after
the run and ``events_fired`` must equal a run in which every arrival is a
heap event pushed by the pre-merge driver.  Arrivals are bare times, so
each run also drives a tagged stream whose tags are the stream positions:
the sink records them, which pins that the i-th delivery is the i-th
arrival of the stream, ties included.
"""

from itertools import count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.chaos import FaultSchedule, ReplicaCrash
from repro.config import DLRM2, HARPV2_SYSTEM
from repro.errors import SimulationError
from repro.serving import Fleet, FleetSpec, TimeoutBatching
from repro.serving.replica import _StreamDriver
from repro.sim.engine import Simulator
from repro.workloads import PoissonArrivals, Workload

from tests.integration.test_queue_equivalence import (  # noqa: F401 (fixture)
    _CountingStream,
    _HeapStreamDriver,
    on_reference,
)

#: Every time is a multiple of this (exact in binary), so ties are common.
TICK = 0.25
#: Heap events pushed per run, at most (callbacks would otherwise fan out).
MAX_PUSHES = 60

_ACTION = st.tuples(
    st.lists(st.integers(0, 4), max_size=3),  # delays of new heap events, in ticks
    st.lists(st.integers(0, 7), max_size=2),  # which pending heap events to cancel
)


def _simulate(arrival_ticks, actions, merged, tagged):
    """Run one script; return the trace, the clock after the run and
    ``events_fired``.  A tagged stream tags each arrival with its stream
    position; an untagged one is numbered in delivery order."""
    sim = Simulator()
    trace = []
    pending = {}  # heap event id -> Event, dropped when it fires
    pushes = [0]

    def on_fire(tag):
        trace.append((tag, sim.now, stream.count, stream.exhausted))
        delays, cancels = actions[(len(trace) - 1) % len(actions)]
        for delay in delays:
            if pushes[0] >= MAX_PUSHES:
                break
            event_id = pushes[0]
            pushes[0] += 1
            pending[event_id] = sim.schedule(
                delay * TICK, lambda event_id=event_id: fire_event(event_id)
            )
        for index in cancels:
            if pending:
                victim = sorted(pending)[index % len(pending)]
                pending.pop(victim).cancel()

    def fire_event(event_id):
        del pending[event_id]
        on_fire(("event", event_id))

    delivered = count()

    class _Sink:
        @staticmethod
        def submit(arrival_s, position=None):
            assert arrival_s == sim.now
            on_fire(("arrival", position if tagged else next(delivered)))

    times = [tick * TICK for tick in sorted(arrival_ticks)]
    arrivals = list(zip(times, count())) if tagged else times
    route = lambda arrival_s: _Sink  # noqa: E731
    if merged:
        stream = _StreamDriver(sim, arrivals, route, tagged)
        stream.attach()
    else:
        stream = _CountingStream(iter(arrivals))
        _HeapStreamDriver(sim, stream, route, tagged).pump()

    clock = sim.run()
    return trace, clock, sim.events_fired


@given(
    arrival_ticks=st.lists(st.integers(0, 12), min_size=1, max_size=30),
    actions=st.lists(_ACTION, min_size=1, max_size=12),
    tagged=st.booleans(),
)
def test_merged_source_matches_all_on_heap_reference(arrival_ticks, actions, tagged):
    merged = _simulate(arrival_ticks, actions, merged=True, tagged=tagged)
    reference = _simulate(arrival_ticks, actions, merged=False, tagged=tagged)
    assert merged == reference
    trace, _, fired = merged
    assert fired == len(trace)
    positions = [tag[1] for tag, *_ in trace if tag[0] == "arrival"]
    # Arrivals are delivered in stream order, each exactly once.
    assert positions == list(range(len(arrival_ticks)))


def test_arrivals_tie_with_heap_events_in_ranking_order():
    """An arrival ranks when its predecessor fires, before the timer that
    predecessor's delivery pushes for the same instant, and after a timer
    pushed earlier."""
    sim = Simulator()
    fired = []

    delivered = count()

    class _Sink:
        @staticmethod
        def submit(arrival_s):
            position = next(delivered)
            fired.append(("arrival", position))
            if position == 0:
                sim.schedule_at(TICK, lambda: fired.append(("timer", 0)))

    sim.schedule_at(TICK, lambda: fired.append(("early", 0)))
    driver = _StreamDriver(sim, [0.0, TICK], lambda arrival_s: _Sink)
    driver.attach()
    sim.run()
    assert fired == [("arrival", 0), ("early", 0), ("arrival", 1), ("timer", 0)]
    assert sim.events_fired == 4
    assert driver.exhausted and driver.count == 2


def _attach(sim, times, submit=lambda position: None):
    """Merge a stream of arrivals at ``times`` into ``sim``; ``submit`` is
    called with each arrival's position in delivery order."""
    delivered = count()
    sink = type(
        "_Sink", (), {"submit": staticmethod(lambda arrival_s: submit(next(delivered)))}
    )
    driver = _StreamDriver(sim, times, lambda arrival_s: sink)
    driver.attach()
    return driver


class TestMergedSourceChecks:
    def test_an_arrival_advances_the_causality_floor(self):
        sim = Simulator()
        sim.schedule_at(TICK, lambda: None)
        _attach(sim, [2 * TICK], lambda position: sim.queue.push(1.5 * TICK, lambda: None))
        with pytest.raises(SimulationError, match="causality"):
            sim.run()

    def test_an_arrival_in_the_past_is_refused(self):
        sim = Simulator()
        sim.schedule_at(2 * TICK, lambda: None)
        sim.run()
        _attach(sim, [TICK])
        with pytest.raises(SimulationError, match="'arrival' scheduled at 0.25 is in the past"):
            sim.run()

    def test_the_livelock_guard_counts_arrivals(self):
        sim = Simulator()
        _attach(sim, [TICK * index for index in range(10)])
        with pytest.raises(SimulationError, match="exceeded 3 events"):
            sim.run(max_events=3)

    def test_profile_counts_arrivals_under_their_label(self):
        sim = Simulator(profile=True)
        _attach(sim, [0.0, TICK, TICK])
        sim.run()
        assert sim.profile.get("arrival").count == sim.events_fired == 3


def _count_runs(driver):
    """Record the size of every arrival run the engine asks ``driver`` for."""
    runs = []
    admit = driver.admit

    def counted(budget):
        delivered = admit(budget)
        runs.append(delivered)
        return delivered

    driver.admit = counted
    return runs


class TestArrivalRuns:
    """One source call delivers every arrival ahead of the heap top."""

    def test_arrivals_ahead_of_the_heap_are_one_run(self):
        sim = Simulator()
        sim.schedule_at(10 * TICK, lambda: None)
        driver = _attach(sim, [TICK * index for index in range(6)])
        runs = _count_runs(driver)
        sim.run()
        assert runs == [6]
        assert sim.events_fired == 7 and sim.now == 10 * TICK

    def test_the_budget_binds_inside_a_run(self):
        sim = Simulator()
        sim.schedule_at(0.0, lambda: None)
        _attach(sim, [TICK * index for index in range(1, 5)])
        assert sim.run(max_events=5) == 4 * TICK
        sim = Simulator()
        sim.schedule_at(0.0, lambda: None)
        driver = _attach(sim, [TICK * index for index in range(1, 6)])
        runs = _count_runs(driver)
        with pytest.raises(SimulationError, match="exceeded 4 events"):
            sim.run(max_events=4)
        # The heap event, then a run cut at the fifth event.
        assert runs == [4] and sim.events_fired == 5

    @pytest.mark.parametrize(
        "timer_at, order, runs",
        [
            # Earlier than arrival 1: the run ends after arrival 0.
            (0.5 * TICK, ["a0", "timer", "a1", "a2", "a3"], [1, 3]),
            # Tied with arrival 2, which arrival 1 ranks only after the
            # timer was pushed: the timer wins the tie and ends the run.
            (2 * TICK, ["a0", "a1", "timer", "a2", "a3"], [2, 2]),
            # Tied with arrival 1, ranked before the push: the run goes on.
            (TICK, ["a0", "a1", "timer", "a2", "a3"], [2, 2]),
        ],
    )
    def test_a_timer_pushed_ahead_of_the_next_arrival_ends_the_run(
        self, timer_at, order, runs
    ):
        sim = Simulator()
        fired = []

        def submit(position):
            fired.append(f"a{position}")
            if position == 0:
                sim.schedule_at(timer_at, lambda: fired.append("timer"))

        driver = _attach(sim, [0.0, TICK, 2 * TICK, 2 * TICK], submit)
        recorded = _count_runs(driver)
        sim.run()
        assert fired == order
        assert recorded == runs and sim.events_fired == 5

    def test_profile_counts_one_arrival_per_arrival_across_runs(self):
        sim = Simulator(profile=True)
        for tick in (1, 3):
            sim.schedule_at(tick * TICK, lambda: None, label="timer")
        driver = _attach(sim, [0.0, 0.0, 2 * TICK, 2 * TICK, 2 * TICK, 4 * TICK])
        runs = _count_runs(driver)
        sim.run()
        assert runs == [2, 3, 1]
        assert sim.profile.get("arrival").count == 6
        assert sim.profile.get("timer").count == 2
        assert sim.profile.total_events == sim.events_fired == 8


@pytest.mark.parametrize("outage_at", [0.0, 0.005])
def test_peak_resident_is_the_per_arrival_maximum_through_a_total_outage(
    on_reference, outage_at
):
    """Both replicas crash for good, so every later arrival is shed, the
    last one included: it ranks no successor and the injector credits its
    shed to the driver, so the resident count falls at the end of its run.  The peak must still be the
    maximum over arrivals, as the one-event-per-arrival reference takes it."""

    def serve():
        cluster = Fleet(
            get_backend("cpu", HARPV2_SYSTEM),
            DLRM2,
            FleetSpec(replicas=2, batching=TimeoutBatching(window_s=1e-3, max_batch_size=16)),
        )
        cluster.serve_workload(
            Workload(arrivals=PoissonArrivals(rate_qps=20_000)),
            num_requests=400,
            seed=1,
            faults=FaultSchedule(
                [
                    ReplicaCrash(at_s=outage_at, replica=0, on_inflight="shed"),
                    ReplicaCrash(at_s=outage_at, replica=1, on_inflight="shed"),
                ]
            ),
        )
        return cluster.last_outcome

    outcome, reference = on_reference(serve)
    assert outcome == reference
    assert outcome.shed > 0 and outcome.completed + outcome.shed == 400
    if outage_at == 0.0:
        # Every arrival is shed in one run; only the look-ahead is resident.
        assert outcome.completed == 0 and outcome.peak_resident == 1
