"""The guide-table zipf draw and the fused per-batch draw, pinned bit for bit.

:class:`repro.workloads.ZipfianTrace` maps uniforms to ranks through a
guide table (Chen and Asau, 1974) instead of bisecting the whole CDF, and
:meth:`~repro.workloads.traces.TraceModel.draw_tables` draws a run of
equal-size tables with one call.  Both must reproduce the plain per-table
``np.searchsorted`` stream exactly, so every seeded trace, digest and
artifact stays put.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import PerTableTrace, UniformTrace, WorkingSetTrace, ZipfianTrace
from repro.workloads.traces import _guided_search

CHUNK = 1_000_000


def edge_values(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """Every CDF entry and bucket edge with their neighbours, inside [0, 1)."""
    edges = np.arange(buckets + 1) / buckets
    values = np.concatenate(
        [
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 1.0),
            edges,
            np.nextafter(edges, 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ]
    )
    return values[(values >= 0.0) & (values < 1.0)]


def assert_guided_equals_bisection(alpha, num_rows, uniforms):
    cdf, guide = ZipfianTrace(alpha=alpha)._tables(num_rows)
    rng = np.random.default_rng(num_rows)
    for start in range(0, uniforms, CHUNK):
        uniform = rng.random(min(CHUNK, uniforms - start))
        np.testing.assert_array_equal(
            _guided_search(cdf, guide, uniform),
            np.searchsorted(cdf, uniform, side="left"),
        )
    edges = edge_values(cdf, num_rows)
    np.testing.assert_array_equal(
        _guided_search(cdf, guide, edges), np.searchsorted(cdf, edges, side="left")
    )


@pytest.mark.parametrize("alpha", [1.05, 0.5, 3.0])
def test_guided_search_equals_bisection_on_the_dlrm_table(alpha):
    assert_guided_equals_bisection(alpha, 200_000, 10_000_000)


@pytest.mark.parametrize("num_rows", [1, 2, 3, 1_000])
@pytest.mark.parametrize("alpha", [1.05, 0.5, 3.0])
def test_guided_search_equals_bisection_on_small_tables(alpha, num_rows):
    assert_guided_equals_bisection(alpha, num_rows, CHUNK)


def test_guided_search_steps_back_when_the_bucket_rounds_up():
    # nextafter(5/6, 0) * 6 rounds to 5.0, one bucket past the true floor;
    # a CDF entry at that uniform is only found by stepping back.
    below = np.nextafter(5 / 6, 0.0)
    assert below * 6 == 5.0
    cdf = np.array([0.1, 0.2, 0.3, 0.4, below, 1.0])
    guide = np.searchsorted(cdf, np.arange(7) / 6, side="left").astype(np.int32)
    values = edge_values(cdf, 6)
    assert _guided_search(cdf, guide, np.array([below])).tolist() == [4]
    np.testing.assert_array_equal(
        _guided_search(cdf, guide, values), np.searchsorted(cdf, values, side="left")
    )


def test_guide_is_int32_and_starts_every_bucket():
    cdf, guide = ZipfianTrace(alpha=1.05)._tables(200_000)
    assert guide.dtype == np.int32
    assert guide.shape == (200_001,)
    edges = np.arange(200_001) / 200_000
    np.testing.assert_array_equal(guide, np.searchsorted(cdf, edges, side="left"))


def test_zipf_draw_matches_the_bisection_stream():
    """The drawn rows are the scattered ranks of plain bisection."""
    trace = ZipfianTrace(alpha=1.05)
    drawn = trace.draw(np.random.default_rng(5), 200_000, 50_000)
    cdf, _ = trace._tables(200_000)
    ranks = np.searchsorted(cdf, np.random.default_rng(5).random(50_000), side="left")
    scatter = np.random.default_rng(trace.scatter_seed ^ 200_000).permutation(200_000)
    np.testing.assert_array_equal(drawn, scatter[ranks])


MODELS = {
    "zipf": ZipfianTrace(alpha=1.05),
    "uniform": UniformTrace(),
    "hotcold": WorkingSetTrace(),
    "per-table": PerTableTrace(UniformTrace(), {1: ZipfianTrace(alpha=1.2)}),
}


def per_table_draws(model, rng, num_rows, counts):
    drawn = [
        model.draw(rng, rows, count, index)
        for index, (rows, count) in enumerate(zip(num_rows, counts))
        if count
    ]
    return np.concatenate(drawn) if drawn else np.empty(0, dtype=np.int64)


@settings(deadline=None)
@given(
    kind=st.sampled_from(sorted(MODELS)),
    tables=st.lists(
        st.tuples(st.sampled_from([1, 7, 1_000, 5_000]), st.integers(0, 400)),
        max_size=12,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_tables_equals_per_table_draws(kind, tables, seed):
    model = MODELS[kind]
    num_rows = [rows for rows, _ in tables]
    counts = [count for _, count in tables]
    fused_rng = np.random.default_rng(seed)
    split_rng = np.random.default_rng(seed)
    fused = model.draw_tables(fused_rng, num_rows, counts, range(len(tables)))
    np.testing.assert_array_equal(fused, per_table_draws(model, split_rng, num_rows, counts))
    assert fused.dtype == np.int64
    # The stream continues identically after the batch.
    assert fused_rng.random() == split_rng.random()


@pytest.mark.parametrize(
    "num_rows, draws",
    [
        ([200_000] * 8, 1),
        ([1_000, 1_000, 5_000, 5_000, 5_000, 1_000], 3),
        ([7, 1_000, 7], 3),
    ],
)
def test_zipf_draws_once_per_run_of_equal_size_tables(monkeypatch, num_rows, draws):
    trace = ZipfianTrace(alpha=1.05)
    calls = []
    draw = ZipfianTrace.draw

    def counted(self, rng, rows, count, table_index=None):
        calls.append((rows, count))
        return draw(self, rng, rows, count, table_index)

    monkeypatch.setattr(ZipfianTrace, "draw", counted)
    counts = [10 * (index + 1) for index in range(len(num_rows))]
    rows = trace.draw_tables(np.random.default_rng(0), num_rows, counts, range(len(counts)))
    assert len(calls) == draws
    assert sum(count for _, count in calls) == rows.size == sum(counts)
