"""Tests for the trace containers: SparseTrace and DLRMBatch."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads import (
    DLRMBatch,
    SparseTrace,
    UniformTrace,
    model_batch,
)


def make_trace(indices, offsets, num_rows=100):
    return SparseTrace(
        indices=np.asarray(indices, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
        num_rows=num_rows,
    )


class TestSparseTrace:
    def test_basic_properties(self):
        trace = make_trace([1, 2, 3, 4], [0, 2, 4])
        assert trace.batch_size == 2
        assert trace.total_lookups == 4
        assert list(trace.lookups_for_sample(0)) == [1, 2]
        assert list(trace.lookups_for_sample(1)) == [3, 4]

    def test_unique_rows(self):
        trace = make_trace([5, 5, 7], [0, 3])
        assert trace.unique_rows() == 2

    def test_rejects_bad_offsets(self):
        with pytest.raises(TraceError):
            make_trace([1, 2], [1, 2])  # must start at 0
        with pytest.raises(TraceError):
            make_trace([1, 2], [0, 1])  # must end at len(indices)
        with pytest.raises(TraceError):
            make_trace([1, 2], [0, 2, 1, 2])  # non-decreasing

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(TraceError):
            make_trace([100], [0, 1], num_rows=100)
        with pytest.raises(TraceError):
            make_trace([-1], [0, 1], num_rows=100)

    def test_sample_out_of_range(self):
        trace = make_trace([1], [0, 1])
        with pytest.raises(IndexError):
            trace.lookups_for_sample(1)


class TestDLRMBatch:
    def test_batch_consistency_checks(self, tiny_config, trace_rng):
        batch = model_batch(UniformTrace(), trace_rng, tiny_config, 4)
        assert batch.batch_size == 4
        assert batch.num_tables == tiny_config.num_tables
        assert batch.total_lookups == 4 * tiny_config.total_gathers_per_sample
        assert batch.embedding_bytes(tiny_config.embedding_dim) == (
            batch.total_lookups * tiny_config.embedding_dim * 4
        )

    def test_rejects_mismatched_batch_sizes(self):
        dense = np.zeros((2, 13), dtype=np.float32)
        trace = make_trace([1, 2, 3], [0, 1, 2, 3])  # batch of 3
        with pytest.raises(TraceError):
            DLRMBatch(dense_features=dense, sparse_traces=(trace,))

    def test_rejects_non_2d_dense(self):
        with pytest.raises(TraceError):
            DLRMBatch(dense_features=np.zeros(13), sparse_traces=())
