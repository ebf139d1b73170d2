"""Tests for the memoizing ResultCache and its cache-effectiveness guarantee."""

import dataclasses
import json
import pathlib
import pickle

import pytest

import repro

from repro.analysis import (
    ablation_link_bandwidth,
    figure5_latency_breakdown,
    figure6_cache_behaviour,
    figure7_effective_throughput,
    figure13_centaur_throughput,
    figure14_centaur_breakdown,
    figure15_comparison,
    headline_summary,
)
from repro.backends import get_backend
from repro.config import DLRM1, DLRM2, HARPV2_SYSTEM
from repro.errors import SimulationError
from repro.experiment import (
    Experiment,
    ResultCache,
    default_cache,
    model_fingerprint,
    override_default_cache,
    system_fingerprint,
)
from repro.experiment.cache import cost_model_stamp


class CountingBackend:
    """Wraps a real backend and counts how often run() actually executes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def name(self):
        return self.inner.name

    @property
    def design_point(self):
        return self.inner.design_point

    @property
    def capabilities(self):
        return self.inner.capabilities

    def run(self, model, batch_size):
        self.calls += 1
        return self.inner.run(model, batch_size)


class TestResultCache:
    def test_memoizes_per_key(self):
        cache = ResultCache()
        backend = CountingBackend(get_backend("centaur", HARPV2_SYSTEM))
        first = cache.get_or_compute(backend, DLRM1, 16, HARPV2_SYSTEM)
        second = cache.get_or_compute(backend, DLRM1, 16, HARPV2_SYSTEM)
        assert first is second
        assert backend.calls == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.max_compute_count() == 1

    def test_distinct_coordinates_compute_separately(self):
        cache = ResultCache()
        backend = CountingBackend(get_backend("centaur", HARPV2_SYSTEM))
        cache.get_or_compute(backend, DLRM1, 16, HARPV2_SYSTEM)
        cache.get_or_compute(backend, DLRM1, 32, HARPV2_SYSTEM)
        cache.get_or_compute(backend, DLRM2, 16, HARPV2_SYSTEM)
        assert backend.calls == 3
        assert len(cache) == 3

    def test_system_fingerprint_distinguishes_platforms(self):
        scaled = HARPV2_SYSTEM.with_link(
            HARPV2_SYSTEM.link.with_bypass(HARPV2_SYSTEM.memory.peak_bandwidth)
        )
        assert system_fingerprint(HARPV2_SYSTEM) != system_fingerprint(scaled)
        rebuilt = HARPV2_SYSTEM.with_link(HARPV2_SYSTEM.link)
        assert system_fingerprint(HARPV2_SYSTEM) == system_fingerprint(rebuilt)

    def test_modified_system_is_a_cache_miss(self):
        cache = ResultCache()
        backend = CountingBackend(get_backend("centaur", HARPV2_SYSTEM))
        scaled = HARPV2_SYSTEM.with_link(
            HARPV2_SYSTEM.link.with_bypass(HARPV2_SYSTEM.memory.peak_bandwidth)
        )
        cache.get_or_compute(backend, DLRM1, 16, HARPV2_SYSTEM)
        cache.get_or_compute(backend, DLRM1, 16, scaled)
        assert backend.calls == 2

    def test_clear(self):
        cache = ResultCache()
        backend = get_backend("cpu", HARPV2_SYSTEM)
        cache.get_or_compute(backend, DLRM1, 4, HARPV2_SYSTEM)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_save_load_round_trip(self, tmp_path):
        cache = ResultCache()
        backend = get_backend("centaur", HARPV2_SYSTEM)
        original = cache.get_or_compute(backend, DLRM1, 16, HARPV2_SYSTEM)
        path = tmp_path / "cache.json"
        cache.save(path)
        restored = ResultCache.load(path)
        assert len(restored) == 1
        counting = CountingBackend(backend)
        result = restored.get_or_compute(counting, DLRM1, 16, HARPV2_SYSTEM)
        assert counting.calls == 0, "a persisted point must not recompute"
        assert result.latency_seconds == original.latency_seconds
        assert result.breakdown.stages == original.breakdown.stages
        assert result.extra == original.extra

        # The file is stamped with the code that priced it ...
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"version", "cost_model", "entries"}
        assert payload["version"] == repro.__version__
        assert payload["cost_model"] == cost_model_stamp()

        # ... so a file from another version is refused, naming both stamps.
        tampered = tmp_path / "tampered.json"
        tampered.write_text(
            json.dumps({**payload, "version": "0.0.1"}), encoding="utf-8"
        )
        with pytest.raises(SimulationError, match="0.0.1") as refused:
            ResultCache.load(tampered)
        assert repro.__version__ in str(refused.value)

        # An unstamped legacy list predates the stamp and is refused too.
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(payload["entries"]), encoding="utf-8")
        with pytest.raises(SimulationError, match="legacy") as refused:
            ResultCache.load(legacy)
        assert payload["cost_model"] in str(refused.value)

    @pytest.mark.parametrize(
        "module, old, new",
        [
            # Constants the runners build internally, not dataclass fields.
            ("core/link.py", "gather_efficiency: float = 0.68", "gather_efficiency: float = 0.69"),
            ("core/mlp_unit.py", "per_cycle: float = 78.25", "per_cycle: float = 78.5"),
            # A logic edit that leaves every constant alone.
            ("memsys/analytic.py", "gather_accesses += lines", "gather_accesses += lines + 0"),
        ],
    )
    def test_cost_model_stamp_tracks_pricing_source(self, tmp_path, module, old, new):
        import shutil

        from repro.experiment.cache import _source_digest

        package = pathlib.Path(repro.__file__).parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        assert _source_digest(copy) == cost_model_stamp()

        # Code outside the pricing path does not invalidate saved results.
        serving = copy / "serving" / "autoscale.py"
        serving.write_text(serving.read_text(encoding="utf-8") + "# note\n", encoding="utf-8")
        assert _source_digest(copy) == cost_model_stamp()

        edited = copy / module
        source = edited.read_text(encoding="utf-8")
        assert old in source
        edited.write_text(source.replace(old, new, 1), encoding="utf-8")
        assert _source_digest(copy) != cost_model_stamp()


class TestFingerprints:
    def test_equal_instances_share_a_fingerprint(self):
        copy_model = dataclasses.replace(DLRM1)
        copy_system = dataclasses.replace(HARPV2_SYSTEM)
        assert copy_model is not DLRM1 and copy_system is not HARPV2_SYSTEM
        assert model_fingerprint(copy_model) == model_fingerprint(DLRM1)
        assert system_fingerprint(copy_system) == system_fingerprint(HARPV2_SYSTEM)

    def test_a_replaced_variant_gets_a_new_fingerprint(self):
        assert model_fingerprint(DLRM1.with_gathers_per_table(7)) != model_fingerprint(
            DLRM1
        )
        assert model_fingerprint(dataclasses.replace(DLRM1, name="x")) != (
            model_fingerprint(DLRM1)
        )
        scaled = dataclasses.replace(
            HARPV2_SYSTEM,
            link=dataclasses.replace(HARPV2_SYSTEM.link, latency_s=1e-6),
        )
        assert system_fingerprint(scaled) != system_fingerprint(HARPV2_SYSTEM)

    def test_a_pickle_round_trip_keeps_the_fingerprint(self):
        for value, fingerprint in (
            (DLRM2, model_fingerprint),
            (HARPV2_SYSTEM, system_fingerprint),
        ):
            expected = fingerprint(value)
            restored = pickle.loads(pickle.dumps(value))
            assert restored == value
            assert fingerprint(restored) == expected
            # A cold copy (nothing memoized before pickling) agrees too.
            cold = pickle.loads(pickle.dumps(dataclasses.replace(value)))
            assert fingerprint(cold) == expected

    def test_recycled_ids_never_return_a_stale_digest(self):
        # Build and drop one-off configs: CPython reuses a freed object's id
        # at once, so an id-keyed memo would hand the next config the last
        # one's digest.
        seen_ids = set()
        recycled = 0
        previous = None
        for gathers in range(1, 201):
            variant = DLRM1.with_gathers_per_table(gathers)
            recycled += id(variant) in seen_ids
            seen_ids.add(id(variant))
            digest = model_fingerprint(variant)
            assert digest != previous, f"gathers={gathers} got a stale digest"
            previous = digest
            del variant
        assert recycled, "the loop must actually recycle ids to test anything"
        digests = {
            model_fingerprint(DLRM1.with_gathers_per_table(gathers))
            for gathers in range(1, 201)
        }
        assert len(digests) == 200

    def test_fingerprints_are_not_part_of_the_config_value(self):
        model = dataclasses.replace(DLRM1)
        before = (repr(model), dataclasses.asdict(model), hash(model))
        model_fingerprint(model)
        assert (repr(model), dataclasses.asdict(model), hash(model)) == before
        assert model == DLRM1


class TestDefaultCacheOverride:
    def test_override_swaps_and_restores(self):
        before = default_cache()
        with override_default_cache() as cache:
            assert default_cache() is cache
            assert cache is not before
        assert default_cache() is before

    def test_experiment_uses_default_cache(self):
        with override_default_cache() as cache:
            Experiment(HARPV2_SYSTEM).backends("cpu").models(DLRM1).batch_sizes(4).run()
            assert len(cache) == 1

    def test_experiment_cache_none_disables_memoization(self):
        with override_default_cache() as cache:
            (
                Experiment(HARPV2_SYSTEM, cache=None)
                .backends("cpu")
                .models(DLRM1)
                .batch_sizes(4)
                .run()
            )
            assert len(cache) == 0


class TestCacheEffectiveness:
    def test_full_figure_suite_computes_each_point_exactly_once(self):
        """Regenerating every paper figure computes each design point once.

        This is the acceptance criterion of the Experiment redesign: the
        figures all slice the same (backend, model, batch) grid, so with the
        shared cache no unique point may ever be priced twice.
        """
        with override_default_cache() as cache:
            figure5_latency_breakdown(HARPV2_SYSTEM)
            figure6_cache_behaviour(HARPV2_SYSTEM)
            figure7_effective_throughput(HARPV2_SYSTEM)
            figure13_centaur_throughput(HARPV2_SYSTEM)
            figure14_centaur_breakdown(HARPV2_SYSTEM)
            figure15_comparison(HARPV2_SYSTEM)
            headline_summary(HARPV2_SYSTEM)
            ablation_link_bandwidth(HARPV2_SYSTEM)

            counts = cache.compute_counts()
            assert counts, "the figure suite must populate the cache"
            assert cache.max_compute_count() == 1, (
                "some design points were computed more than once: "
                f"{[key for key, count in counts.items() if count > 1]}"
            )
            # The full grid is 3 backends x 6 models x 6 batches = 108 points
            # on the unmodified platform; figures 5/6/7/13/14/15 + headline
            # all hit that same pool.
            harpv2 = system_fingerprint(HARPV2_SYSTEM)
            grid_points = [key for key in counts if key[3] == harpv2]
            assert len(grid_points) == 108
            assert cache.hits > len(counts), "later figures must reuse earlier points"

    def test_rerunning_a_figure_is_fully_cached(self):
        with override_default_cache() as cache:
            figure14_centaur_breakdown(HARPV2_SYSTEM)
            misses_after_first = cache.misses
            figure14_centaur_breakdown(HARPV2_SYSTEM)
            assert cache.misses == misses_after_first
            assert cache.max_compute_count() == 1
