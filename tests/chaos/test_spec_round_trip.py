"""``describe()`` text of every fault kind parses back to the same faults.

Fault kinds are parsed from their dataclass fields through the same key
spellings ``describe()`` prints, so the incident-timeline header of any
run can be pasted back into ``--faults``.  ``describe()`` formats floats
with ``:g``, so the round trip holds for values of at most 6 significant
digits: the strategies below draw short decimals.
"""

from dataclasses import replace

from hypothesis import given, strategies as st

from repro.chaos import (
    Brownout,
    FaultSchedule,
    LinkDegradation,
    PoissonFaults,
    ReplicaCrash,
    ShardLoss,
    parse_fault_schedule,
)


def decimals(low: int, high: int, places: int = 3):
    """Decimals in ``[low, high] / 10**places``: at most 6 significant digits."""
    return st.integers(low, high).map(lambda n: n / 10**places)


times = decimals(0, 999_999)
delays = st.none() | decimals(0, 999_999)
durations = decimals(1, 999_999)
indices = st.none() | st.integers(0, 10**9)

crashes = st.builds(
    ReplicaCrash,
    at_s=times,
    replica=indices,
    restart_after_s=delays,
    warmup_s=delays,
    on_inflight=st.sampled_from(("redispatch", "shed")),
)
shard_losses = st.builds(
    ShardLoss,
    at_s=times,
    shard=st.integers(0, 10**9),
    restore_after_s=delays,
    failover=st.sampled_from(("promote", "rehash")),
)
links = st.builds(
    LinkDegradation,
    at_s=times,
    duration_s=durations,
    bandwidth_factor=decimals(1, 1_000),
    latency_factor=decimals(1_001, 999_999),
)
brownouts = st.builds(
    Brownout,
    at_s=times,
    duration_s=durations,
    replica=indices,
    latency_factor=decimals(1_001, 999_999),
)
timed = crashes | shard_losses | links | brownouts


@st.composite
def poisson_faults(draw):
    start = draw(st.integers(0, 500_000))
    return PoissonFaults(
        # The template's own time is ignored (stamped per event), so
        # neither describe() nor the parser carries it.
        template=replace(draw(timed), at_s=0.0),
        rate_hz=draw(durations),
        start_s=start / 1000,
        end_s=(start + draw(st.integers(1, 499_999))) / 1000,
        seed=draw(st.integers(0, 2**63)),
    )


@given(st.lists(timed | poisson_faults(), min_size=1, max_size=4))
def test_describe_round_trips_through_the_parser(faults):
    schedule = FaultSchedule(faults)
    reparsed = parse_fault_schedule(schedule.describe())
    assert reparsed.faults == schedule.faults
    assert reparsed.describe() == schedule.describe()


def test_poisson_describe_is_the_poisson_grammar():
    schedule = parse_fault_schedule(
        "poisson:kind=crash,rate=50,until=0.2,start=0.05,seed=7,restart=0.01"
    )
    text = schedule.describe()
    assert text == (
        "poisson:kind=crash,rate=50,until=0.2,start=0.05,seed=7,"
        "restart=0.01,inflight=redispatch"
    )
    assert parse_fault_schedule(text).faults == schedule.faults


def test_brownout_factor_is_spelled_slow_both_ways():
    brownout = Brownout(at_s=0.03, duration_s=0.06, replica=0, latency_factor=3.0)
    assert brownout.describe() == "brownout:at=0.03,for=0.06,replica=0,slow=3"
    assert parse_fault_schedule(brownout.describe()).faults == (brownout,)


def test_crash_and_shard_loss_text_is_unchanged():
    """These strings are in committed outputs and the bench stdout digests."""
    assert (
        ReplicaCrash(at_s=0.06, restart_after_s=0.05).describe()
        == "crash:at=0.06,restart=0.05,inflight=redispatch"
    )
    assert (
        ShardLoss(at_s=0.01, shard=1, restore_after_s=0.02).describe()
        == "shard-loss:at=0.01,shard=1,restore=0.02,failover=promote"
    )
