"""Tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import EventQueue, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        assert queue.top()[0] == 1.0
        queue.pop().callback()
        queue.pop().callback()
        assert fired == ["a", "b"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None, label="first")
        second = queue.push(1.0, lambda: None, label="second")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, lambda: None)

    def test_top_empty_returns_none(self):
        assert EventQueue().top() is None


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule(1e-6, lambda: times.append(sim.now))
        sim.schedule(5e-6, lambda: times.append(sim.now))
        end = sim.run()
        assert times == [1e-6, 5e-6]
        assert end == pytest.approx(5e-6)
        assert sim.events_fired == 2

    def test_nested_scheduling(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(2e-6, lambda: order.append("third"))

        sim.schedule(1e-6, first)
        sim.schedule(2e-6, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1e-6, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.events_fired == 0

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule(1e-6, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_run_on_an_empty_simulator_fires_nothing(self):
        sim = Simulator()
        assert sim.run() == 0.0
        assert sim.events_fired == 0

    def test_a_second_run_resumes_from_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1e-6, lambda: fired.append(sim.now))
        assert sim.run() == pytest.approx(1e-6)
        # The delay counts from where the first run left the clock.
        sim.schedule(2e-6, lambda: fired.append(sim.now))
        assert sim.run() == pytest.approx(3e-6)
        assert fired == pytest.approx([1e-6, 3e-6])
        assert sim.events_fired == 2

    def test_max_events_is_inclusive(self):
        sim = Simulator()
        for index in range(3):
            sim.schedule(index * 1e-6, lambda: None)
        sim.run(max_events=3)
        assert sim.events_fired == 3

    def test_livelock_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)
