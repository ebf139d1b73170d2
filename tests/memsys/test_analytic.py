"""Tests for the analytic cache/traffic models (the fast path of Figures 6-7)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DLRM1, DLRM4, DLRM5, DLRM6, EmbeddingTableConfig
from repro.config.models import homogeneous_dlrm
from repro.config.system import CPUConfig
from repro.errors import SimulationError
from repro.memsys.address import cache_lines_for_vector
from repro.memsys.analytic import (
    AnalyticCacheModel,
    EmbeddingAccessProfile,
    MLPAccessProfile,
    expected_unique_fraction,
    memory_level_parallelism_bandwidth,
)
from repro.memsys.stats import CacheStats, MemoryTrafficStats

MIB = 1024 * 1024


class TestLittlesLaw:
    def test_bandwidth_formula(self):
        bandwidth = memory_level_parallelism_bandwidth(140, 64, 140e-9)
        assert bandwidth == pytest.approx(140 * 64 / 140e-9)

    def test_validation(self):
        with pytest.raises(SimulationError):
            memory_level_parallelism_bandwidth(0, 64, 1e-7)


class TestExpectedUniqueFraction:
    def test_single_draw_is_unique(self):
        assert expected_unique_fraction(1000, 1) == pytest.approx(1.0)

    def test_many_draws_over_small_population_saturate(self):
        assert expected_unique_fraction(10, 10_000) < 0.01

    def test_monotonically_decreasing_in_draws(self):
        fractions = [expected_unique_fraction(1000, draws) for draws in (1, 10, 100, 1000)]
        assert fractions == sorted(fractions, reverse=True)

    @given(
        population=st.integers(min_value=1, max_value=10**6),
        draws=st.integers(min_value=0, max_value=10**5),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_between_zero_and_one(self, population, draws):
        fraction = expected_unique_fraction(population, draws)
        assert 0.0 <= fraction <= 1.0


class TestAnalyticCacheModel:
    def test_small_structure_is_resident(self):
        model = AnalyticCacheModel(llc_bytes=35 * 1024 * 1024)
        assert model.resident_probability(1024 * 1024) == 1.0
        assert model.gather_miss_probability(1024 * 1024) == 0.0

    def test_huge_table_mostly_misses(self):
        model = AnalyticCacheModel(llc_bytes=35 * 1024 * 1024)
        assert model.gather_miss_probability(3_200_000_000) > 0.98

    def test_miss_probability_monotone_in_footprint(self):
        model = AnalyticCacheModel(llc_bytes=35 * 1024 * 1024)
        probabilities = [
            model.gather_miss_probability(bytes_)
            for bytes_ in (10_000_000, 128_000_000, 1_280_000_000, 3_200_000_000)
        ]
        assert probabilities == sorted(probabilities)

    def test_validation(self):
        with pytest.raises(SimulationError):
            AnalyticCacheModel(llc_bytes=0)
        with pytest.raises(SimulationError):
            AnalyticCacheModel(llc_bytes=100, usable_fraction=0.0)


class TestEmbeddingAccessProfile:
    @pytest.fixture()
    def profile(self):
        return EmbeddingAccessProfile(cpu=CPUConfig())

    def test_miss_rate_grows_with_batch(self, profile):
        rates = [profile.compute(DLRM4, batch).llc.miss_rate for batch in (1, 16, 128)]
        assert rates[0] < rates[1] < rates[2]

    def test_miss_rate_grows_with_table_footprint(self, profile):
        small = profile.compute(DLRM1, 64).llc.miss_rate
        large = profile.compute(DLRM5, 64).llc.miss_rate
        assert large > small

    def test_miss_rate_in_papers_ballpark(self, profile):
        # Figure 6(a) tops out around 45%; the model stays in that regime.
        for batch in (1, 32, 128):
            rate = profile.compute(DLRM4, batch).llc.miss_rate
            assert 0.0 < rate < 0.6

    def test_mpki_in_papers_ballpark(self, profile):
        # Figure 6(b) tops out around 6.5 MPKI.
        assert profile.compute(DLRM4, 128).mpki < 8.0
        assert profile.compute(DLRM4, 128).mpki > 2.0
        assert profile.compute(DLRM1, 1).mpki < 1.0

    def test_useful_bytes_scale_with_batch(self, profile):
        single = profile.compute(DLRM1, 1).useful_bytes
        batch64 = profile.compute(DLRM1, 64).useful_bytes
        assert batch64 == pytest.approx(64 * single)
        assert single == DLRM1.embedding_bytes_per_sample()

    def test_counters_consistent(self, profile):
        stats = profile.compute(DLRM6, 32)
        stats.llc.validate()
        assert stats.instructions > 0

    def test_rejects_bad_batch(self, profile):
        with pytest.raises(SimulationError):
            profile.compute(DLRM1, 0)


def per_table_profile(profile, model, batch_size):
    """The embedding profile as a plain loop over every table, one at a time."""
    cpu = profile.cpu
    llc = AnalyticCacheModel(llc_bytes=cpu.llc_bytes, line_bytes=cpu.cache_line_bytes)
    lines_per_vector = cache_lines_for_vector(model.embedding_dim * 4, cpu.cache_line_bytes)
    total_lookups = model.total_gathers_per_sample * batch_size
    miss_prob = llc.gather_miss_probability(model.embedding_table_bytes)
    gather_accesses = gather_misses = useful_bytes = 0.0
    for table in model.tables:
        lookups = table.gathers * batch_size
        lines = lookups * lines_per_vector
        unique_fraction = expected_unique_fraction(table.num_rows, lookups)
        gather_accesses += lines
        gather_misses += lines * unique_fraction * miss_prob
        useful_bytes += lookups * table.row_bytes
    other_accesses = profile.fixed_llc_accesses + profile.other_accesses_per_lookup * total_lookups
    accesses = gather_accesses + other_accesses
    misses = gather_misses + other_accesses * profile.other_miss_rate
    accesses_int = int(round(accesses))
    misses_int = min(int(round(misses)), accesses_int)
    return MemoryTrafficStats(
        useful_bytes=useful_bytes,
        # The "+ useful_bytes * 0.0" term the profile once carried: the
        # comparison below shows that dropping it changed no bit.
        transferred_bytes=misses * cpu.cache_line_bytes + useful_bytes * 0.0,
        llc=CacheStats(
            accesses=accesses_int, hits=accesses_int - misses_int, misses=misses_int
        ),
        instructions=(
            profile.fixed_instructions + profile.instructions_per_lookup * total_lookups
        ),
    )


_TABLE_SHAPES = st.tuples(
    st.sampled_from((1, 2, 7, 1_000, 45_000, 200_000, 500_000, 3_000_000)),
    st.integers(min_value=1, max_value=120),
)


@st.composite
def table_lists(draw):
    """Tables drawn from a small pool of shapes, so equal tables recur both
    next to each other and apart."""
    embedding_dim = draw(st.sampled_from((4, 16, 32, 48)))
    pool = [
        EmbeddingTableConfig(num_rows=rows, embedding_dim=embedding_dim, gathers=gathers)
        for rows, gathers in draw(st.lists(_TABLE_SHAPES, min_size=1, max_size=4))
    ]
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=1, max_size=60)
    )
    return tuple(pool[index] for index in picks)


class TestEmbeddingProfileEqualsPerTableLoop:
    @given(
        tables=table_lists(),
        batch_size=st.integers(min_value=1, max_value=2048),
        llc_mib=st.sampled_from((1, 35, 4096)),
    )
    @settings(max_examples=200, deadline=None)
    def test_grouped_profile_is_bit_identical(self, tables, batch_size, llc_mib):
        base = homogeneous_dlrm(
            "random",
            len(tables),
            rows_per_table=1,
            gathers_per_table=1,
            embedding_dim=tables[0].embedding_dim,
        )
        model = dataclasses.replace(base, tables=tables)
        cpu = CPUConfig(llc_bytes=llc_mib * MIB)
        profile = EmbeddingAccessProfile(cpu=cpu)
        actual = profile.compute(model, batch_size)
        expected = per_table_profile(profile, model, batch_size)
        for field in dataclasses.fields(MemoryTrafficStats):
            got, want = getattr(actual, field.name), getattr(expected, field.name)
            assert type(got) is type(want), field.name
            assert got == want, field.name


class TestMLPAccessProfile:
    @pytest.fixture()
    def profile(self):
        return MLPAccessProfile(cpu=CPUConfig())

    def test_mlp_layers_are_cache_friendly(self, profile):
        # The paper reports <20% LLC miss rates and sub-1 MPKI for MLP layers.
        for model in (DLRM1, DLRM4, DLRM6):
            for batch in (1, 32, 128):
                stats = profile.compute(model, batch)
                assert stats.llc.miss_rate < 0.20
                assert stats.mpki < 2.0

    def test_mlp_misses_far_fewer_than_embedding(self, profile):
        embedding = EmbeddingAccessProfile(cpu=CPUConfig())
        emb = embedding.compute(DLRM4, 64)
        mlp = profile.compute(DLRM4, 64)
        assert mlp.llc.misses < emb.llc.misses

    def test_counters_consistent(self, profile):
        profile.compute(DLRM6, 16).llc.validate()

    def test_rejects_bad_batch(self, profile):
        with pytest.raises(SimulationError):
            profile.compute(DLRM1, -1)
