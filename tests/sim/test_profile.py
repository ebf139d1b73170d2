"""Tests for the engine profiling hook (repro.sim.profile)."""

import pytest

from repro.analysis.report import render_profile
from repro.sim import SimProfile, Simulator
from repro.sim.profile import _UNLABELED


class TestSimProfile:
    def test_record_accumulates_per_label(self):
        profile = SimProfile()
        profile.record("arrival", 1e-3)
        profile.record("arrival", 3e-3)
        profile.record("complete", 2e-3)
        assert profile.get("arrival").count == 2
        assert profile.get("arrival").seconds == pytest.approx(4e-3)
        assert profile.get("arrival").mean_us == pytest.approx(2000.0)
        assert profile.total_events == 3
        assert profile.total_seconds == pytest.approx(6e-3)

    def test_unlabeled_events_group_together(self):
        profile = SimProfile()
        profile.record("", 1e-3)
        profile.record("", 1e-3)
        assert profile.get(_UNLABELED).count == 2

    def test_unknown_label_reads_as_zero(self):
        stats = SimProfile().get("never-fired")
        assert stats.count == 0
        assert stats.seconds == 0.0
        assert stats.mean_us == 0.0

    def test_iteration_is_heaviest_first(self):
        profile = SimProfile()
        profile.record("light", 1e-4)
        profile.record("heavy", 1e-2)
        profile.record("medium", 1e-3)
        assert [stats.label for stats in profile] == ["heavy", "medium", "light"]

    def test_rows_carry_shares_that_sum_to_one(self):
        profile = SimProfile()
        profile.record("a", 3e-3)
        profile.record("b", 1e-3)
        rows = profile.rows()
        assert [row[0] for row in rows] == ["a", "b"]
        assert sum(row[4] for row in rows) == pytest.approx(1.0)


class TestSimulatorProfiling:
    def test_disabled_by_default(self):
        sim = Simulator()
        sim.schedule(1e-6, lambda: None)
        sim.run()
        assert sim.profile is None

    def test_profiles_fired_events_by_label(self):
        sim = Simulator(profile=True)
        sim.schedule(1e-6, lambda: None, label="arrival")
        sim.schedule(2e-6, lambda: None, label="arrival")
        sim.schedule(3e-6, lambda: None, label="complete")
        cancelled = sim.schedule(4e-6, lambda: None, label="never")
        cancelled.cancel()
        sim.run()
        assert sim.profile.get("arrival").count == 2
        assert sim.profile.get("complete").count == 1
        assert sim.profile.get("never").count == 0
        assert sim.profile.total_events == sim.events_fired == 3
        assert sim.profile.get("arrival").seconds >= 0.0


    def test_successive_runs_pool_into_one_profile(self):
        sim = Simulator(profile=True)
        sim.schedule(1e-6, lambda: None, label="arrival")
        sim.run()
        sim.schedule(1e-6, lambda: None, label="arrival")
        sim.schedule(2e-6, lambda: None, label="tick")
        sim.run()
        assert sim.profile.get("arrival").count == 2
        assert sim.profile.get("tick").count == 1
        assert sim.profile.total_events == sim.events_fired == 3


class TestRenderProfile:
    def test_renders_labels_counts_and_total(self):
        profile = SimProfile()
        profile.record("arrival", 2e-3)
        profile.record("batch-close", 1e-3)
        text = render_profile(profile)
        assert "Engine profile" in text
        assert "arrival" in text
        assert "batch-close" in text
        assert "(total)" in text
        # Heaviest label renders first.
        assert text.index("arrival") < text.index("batch-close")
