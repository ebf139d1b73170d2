"""``pooled_completions`` pools a fleet's completion records into one timeline.

Each replica records its executed batches and its latencies in completion
order; a request completes when its batch finishes.  The property holds the
numpy pooling to a per-request reference: pair each latency with its
batch's finish time, replica by replica, then sort the pairs stably by
time.
"""

from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.serving.metrics import ExecutedBatch, ServingReport, pooled_completions

# Shared finish times make cross-replica ties common.
FINISH = st.sampled_from([0.0, 1e-3, 2.5e-3, 0.1]) | st.floats(min_value=0.0, max_value=1.0)


def report(batches, latencies):
    return ServingReport(
        design_point="Centaur",
        model_name="DLRM(1)",
        completed_requests=len(latencies),
        makespan_s=1.0,
        average_batch_size=1.0,
        device_busy_s=0.0,
        energy_joules=0.0,
        executed_batches=tuple(batches),
        ordered_latency_s=np.array(latencies, dtype=np.float64),
    )


@st.composite
def replica_records(draw):
    """One replica's record: batches in finish order and their latencies."""
    finishes = sorted(draw(st.lists(FINISH, max_size=8)))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=len(finishes),
            max_size=len(finishes),
        )
    )
    latencies = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.05),
            min_size=sum(sizes),
            max_size=sum(sizes),
        )
    )
    batches = [ExecutedBatch(time, time, time, size) for time, size in zip(finishes, sizes)]
    return report(batches, latencies)


def reference(reports):
    """``(finish_time_s, latency_s)`` per request, replica after replica."""
    pairs = []
    for replica in reports:
        latencies = replica.ordered_latency_s.tolist()
        cursor = 0
        for batch in replica.executed_batches:
            for latency in latencies[cursor : cursor + batch.batch_size]:
                pairs.append((batch.finish_time_s, latency))
            cursor += batch.batch_size
    return pairs


@given(st.lists(replica_records(), max_size=4))
def test_pooled_completions_pair_each_latency_with_its_batch_finish(reports):
    times, latencies = pooled_completions(reports)
    expected = reference(reports)
    assert times.dtype == latencies.dtype == np.float64
    assert times.size == latencies.size == len(expected)
    # Completion times never decrease.
    assert np.all(np.diff(times) >= 0.0)
    pooled = list(zip(times.tolist(), latencies.tolist()))
    # The same multiset of (finish, latency) pairs as the per-replica records...
    assert sorted(pooled) == sorted(expected)
    # ...in the stable time order: ties keep replica, then completion, order.
    assert pooled == sorted(expected, key=itemgetter(0))


def test_zero_replicas_pool_to_empty_arrays():
    times, latencies = pooled_completions([])
    assert times.size == latencies.size == 0
    assert times.dtype == latencies.dtype == np.float64


def test_a_record_out_of_step_raises():
    batches = [ExecutedBatch(0.0, 0.0, 1e-3, 3)]
    with pytest.raises(SimulationError, match="out of step"):
        pooled_completions([report(batches, [1e-3, 2e-3])])
