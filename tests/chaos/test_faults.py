"""Fault-spec construction, text parsing and deterministic materialization."""

import pytest

from repro.chaos import (
    Brownout,
    FaultSchedule,
    LinkDegradation,
    PoissonFaults,
    ReplicaCrash,
    ShardLoss,
    parse_fault_schedule,
)
from repro.errors import ConfigurationError


class TestSpecValidation:
    def test_negative_fault_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicaCrash(at_s=-0.1)

    def test_crash_rejects_bad_inflight_mode(self):
        with pytest.raises(ConfigurationError):
            ReplicaCrash(at_s=0.1, on_inflight="retry")

    def test_crash_rejects_negative_indices_and_delays(self):
        with pytest.raises(ConfigurationError):
            ReplicaCrash(at_s=0.1, replica=-1)
        with pytest.raises(ConfigurationError):
            ReplicaCrash(at_s=0.1, restart_after_s=-1.0)
        with pytest.raises(ConfigurationError):
            ReplicaCrash(at_s=0.1, warmup_s=-1.0)

    def test_shard_loss_rejects_bad_failover(self):
        with pytest.raises(ConfigurationError):
            ShardLoss(at_s=0.1, shard=0, failover="replicate")

    def test_link_degradation_must_degrade_something(self):
        with pytest.raises(ConfigurationError):
            LinkDegradation(at_s=0.1, duration_s=0.01)
        with pytest.raises(ConfigurationError):
            LinkDegradation(at_s=0.1, duration_s=0.01, bandwidth_factor=1.5)
        with pytest.raises(ConfigurationError):
            LinkDegradation(at_s=0.1, duration_s=0.0, bandwidth_factor=0.5)

    def test_link_slowdown_compounds_latency_and_bandwidth(self):
        fault = LinkDegradation(
            at_s=0.1, duration_s=0.01, bandwidth_factor=0.5, latency_factor=2.0
        )
        assert fault.slowdown == pytest.approx(4.0)

    def test_brownout_needs_inflation_and_a_window(self):
        with pytest.raises(ConfigurationError):
            Brownout(at_s=0.1, duration_s=0.01, latency_factor=1.0)
        with pytest.raises(ConfigurationError):
            Brownout(at_s=0.1, duration_s=0.0, latency_factor=2.0)

    def test_poisson_validation(self):
        template = ReplicaCrash(at_s=0.0)
        with pytest.raises(ConfigurationError):
            PoissonFaults(template="crash", rate_hz=1.0, end_s=1.0)
        with pytest.raises(ConfigurationError):
            PoissonFaults(template=template, rate_hz=0.0, end_s=1.0)
        with pytest.raises(ConfigurationError):
            PoissonFaults(template=template, rate_hz=1.0, end_s=0.5, start_s=0.5)

    def test_schedule_rejects_non_fault_entries(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(["crash"])


class TestScheduleMaterialization:
    def test_empty_schedule_is_the_identity(self):
        schedule = FaultSchedule([])
        assert schedule.empty
        assert len(schedule) == 0
        assert schedule.materialize() == ()
        assert schedule.describe() == "off"

    def test_materialize_sorts_by_time(self):
        schedule = FaultSchedule(
            [
                Brownout(at_s=0.3, duration_s=0.01),
                ReplicaCrash(at_s=0.1),
                ReplicaCrash(at_s=0.2),
            ]
        )
        assert [event.at_s for event in schedule.materialize()] == [0.1, 0.2, 0.3]

    def test_poisson_is_seed_deterministic(self):
        def times(seed):
            generator = PoissonFaults(
                template=ReplicaCrash(at_s=0.0, on_inflight="shed"),
                rate_hz=200.0,
                end_s=0.2,
                seed=seed,
            )
            return [event.at_s for event in generator.materialize()]

        assert times(3) == times(3)
        assert times(3) != times(4)
        for clock in times(3):
            assert 0.0 < clock < 0.2

    def test_poisson_stamps_the_template(self):
        generator = PoissonFaults(
            template=ReplicaCrash(at_s=0.0, restart_after_s=0.01, on_inflight="shed"),
            rate_hz=500.0,
            end_s=0.1,
            seed=0,
        )
        events = generator.materialize()
        assert events, "a 500 Hz process over 100 ms should fire"
        for event in events:
            assert isinstance(event, ReplicaCrash)
            assert event.restart_after_s == 0.01
            assert event.on_inflight == "shed"

    def test_schedule_materializes_poisson_inline_and_sorted(self):
        schedule = FaultSchedule(
            [
                ReplicaCrash(at_s=0.15),
                PoissonFaults(
                    template=Brownout(at_s=0.0, duration_s=0.01),
                    rate_hz=100.0,
                    end_s=0.3,
                    seed=1,
                ),
            ]
        )
        events = schedule.materialize()
        assert [event.at_s for event in events] == sorted(
            event.at_s for event in events
        )
        assert any(isinstance(event, ReplicaCrash) for event in events)
        assert any(isinstance(event, Brownout) for event in events)


class TestSpecParsing:
    @pytest.mark.parametrize("text", [None, "", "off", "none", "OFF", "  "])
    def test_disabled_spellings_mean_no_schedule(self, text):
        assert parse_fault_schedule(text) is None

    def test_parse_full_grammar(self):
        schedule = parse_fault_schedule(
            "crash:at=0.05,replica=1,restart=0.02,warmup=0.01,inflight=shed;"
            "shard-loss:at=0.06,shard=2,restore=0.03,failover=rehash;"
            "link:at=0.07,for=0.02,bw=0.5,lat=2;"
            "brownout:at=0.08,for=0.02,replica=0,slow=3"
        )
        crash, shard_loss, link, brownout = schedule.faults
        assert crash == ReplicaCrash(
            at_s=0.05, replica=1, restart_after_s=0.02, warmup_s=0.01, on_inflight="shed"
        )
        assert shard_loss == ShardLoss(
            at_s=0.06, shard=2, restore_after_s=0.03, failover="rehash"
        )
        assert link == LinkDegradation(
            at_s=0.07, duration_s=0.02, bandwidth_factor=0.5, latency_factor=2.0
        )
        assert brownout == Brownout(
            at_s=0.08, duration_s=0.02, replica=0, latency_factor=3.0
        )

    def test_parse_poisson_segment(self):
        schedule = parse_fault_schedule(
            "poisson:kind=crash,rate=50,until=0.2,start=0.05,seed=7,restart=0.01"
        )
        (generator,) = schedule.faults
        assert isinstance(generator, PoissonFaults)
        assert generator.rate_hz == 50.0
        assert generator.end_s == 0.2
        assert generator.start_s == 0.05
        assert generator.seed == 7
        assert isinstance(generator.template, ReplicaCrash)
        assert generator.template.restart_after_s == 0.01

    def test_describe_round_trips_through_the_parser(self):
        original = parse_fault_schedule(
            "crash:at=0.05,replica=1,restart=0.02;"
            "shard-loss:at=0.06,restore=0.03,failover=rehash;"
            "link:at=0.07,for=0.02,bw=0.25;"
            "brownout:at=0.08,for=0.02,slow=2.5"
        )
        reparsed = parse_fault_schedule(original.describe())
        assert reparsed.faults == original.faults

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:at=0.1",
            "crash:restart=0.1",  # missing at=
            "crash:at=0.1,turbo=2",  # unknown key
            "crash:at=nope",
            "crash:0.1",  # bare value, not key=value
            "link:at=0.1",  # missing for=
            "brownout:at=0.1",  # missing for=
            "poisson:rate=10,until=0.5",  # missing kind=
            "poisson:kind=crash,until=0.5",  # missing rate=
            "report:sla=0.01,shape=tail",  # not a fault kind
            "crash:at=0.1;report:sla=0.01",  # the SLA is the run's, not the schedule's
            "crash:at=0.1,replica=1.5",  # non-whole replica index
            "shard-loss:at=0.1,shard=0.7",  # non-whole shard index
            "poisson:kind=crash,rate=10,until=0.5,seed=2.5",  # non-whole seed
            "brownout:at=0.1,for=0.1,lat=3",  # a brownout's factor is slow=
            "poisson:kind=report,rate=10,until=0.5",  # not a timed fault kind
            "poisson:kind=crash,rate=1,until=1,at=5",  # events are stamped, not at=
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault_schedule(bad)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("poisson:kind=crash,rate=1,until=1,at=5", "unknown crash parameter 'at'"),
            ("link:at=0.1,bw=0.5", "link spec needs for=<value>"),
            ("brownout:at=0.1,slow=3", "brownout spec needs for=<value>"),
            ("poisson:kind=link,rate=10,until=0.5,bw=0.5", "link spec needs for=<value>"),
            ("poisson:kind=brownout,rate=10,until=0.5", "brownout spec needs for=<value>"),
        ],
    )
    def test_errors_name_the_key(self, spec, message):
        with pytest.raises(ConfigurationError, match=f"^{message}"):
            parse_fault_schedule(spec)

    @pytest.mark.parametrize("fault", [LinkDegradation, Brownout])
    def test_a_window_fault_has_no_default_duration(self, fault):
        with pytest.raises(TypeError, match="duration_s"):
            fault(at_s=0.1)

    def test_whole_valued_indices_are_accepted(self):
        schedule = parse_fault_schedule(
            "crash:at=0.1,replica=1.0;shard-loss:at=0.2,shard=2e0;"
            "poisson:kind=crash,rate=10,until=0.5,seed=7.0"
        )
        crash, shard_loss, generator = schedule.faults
        assert crash.replica == 1 and type(crash.replica) is int
        assert shard_loss.shard == 2 and type(shard_loss.shard) is int
        assert generator.seed == 7 and type(generator.seed) is int
