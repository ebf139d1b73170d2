"""Tests for the declarative Experiment builder and its result queries."""

import pytest

from repro.config import (
    DLRM1,
    DLRM3,
    DLRM6,
    HARPV2_SYSTEM,
    PAPER_BATCH_SIZES,
    PAPER_MODELS,
)
from repro.errors import ConfigurationError, SimulationError
from repro.experiment import Experiment, ResultCache, run_grid


def small_grid(cache=None):
    return (
        Experiment(HARPV2_SYSTEM, cache=cache)
        .backends("cpu", "centaur")
        .models(DLRM1, DLRM3)
        .batch_sizes(1, 64)
        .run()
    )


class TestExperimentBuilder:
    def test_declarative_grid(self):
        grid = small_grid()
        assert len(grid) == 2 * 2 * 2
        assert grid.backends() == ["cpu", "centaur"]
        assert grid.model_names() == ["DLRM(1)", "DLRM(3)"]
        assert grid.batch_sizes() == [1, 64]

    def test_defaults_reproduce_the_paper_grid(self):
        experiment = Experiment(HARPV2_SYSTEM)
        assert experiment.grid_models == PAPER_MODELS
        assert experiment.grid_batch_sizes == PAPER_BATCH_SIZES
        assert set(experiment.backend_names) >= {"cpu", "cpu-gpu", "centaur"}

    def test_accepts_iterables_and_varargs(self):
        a = Experiment(HARPV2_SYSTEM).models([DLRM1, DLRM3]).batch_sizes([1, 4])
        b = Experiment(HARPV2_SYSTEM).models(DLRM1, DLRM3).batch_sizes(1, 4)
        assert a.grid_models == b.grid_models
        assert a.grid_batch_sizes == b.grid_batch_sizes

    def test_validation(self):
        with pytest.raises(SimulationError):
            Experiment(HARPV2_SYSTEM).backends()
        with pytest.raises(SimulationError):
            Experiment(HARPV2_SYSTEM).models()
        with pytest.raises(SimulationError):
            Experiment(HARPV2_SYSTEM).batch_sizes(0)
        with pytest.raises(ConfigurationError):
            Experiment(HARPV2_SYSTEM).backends("tpu")

    def test_empty_iterable_axes_rejected(self):
        with pytest.raises(SimulationError):
            Experiment(HARPV2_SYSTEM).models([])
        with pytest.raises(SimulationError):
            Experiment(HARPV2_SYSTEM).batch_sizes([])

    def test_default_backends_run_every_paper_design_point(self):
        grid = (
            Experiment(HARPV2_SYSTEM, cache=None)
            .models(DLRM1, DLRM6)
            .batch_sizes(1, 16)
            .run()
        )
        assert len(grid) == 3 * 2 * 2
        assert grid.backends() == ["centaur", "cpu", "cpu-gpu"]
        assert grid.model_names() == ["DLRM(1)", "DLRM(6)"]
        assert grid.batch_sizes() == [1, 16]
        labels = {grid.get(backend, "DLRM(6)", 16).design_point for backend in grid.backends()}
        assert labels == {"CPU-only", "CPU-GPU", "Centaur"}

    def test_backends_accept_design_point_labels(self):
        experiment = Experiment(HARPV2_SYSTEM).backends("CPU-only", "Centaur")
        assert experiment.backend_names == ("cpu", "centaur")
        grid = experiment.models(DLRM1).batch_sizes(4).run()
        assert grid.get("cpu", "DLRM(1)", 4).design_point == "CPU-only"
        assert grid.get("Centaur", "DLRM(1)", 4).design_point == "Centaur"

    def test_conflicting_models_with_one_name_rejected(self):
        from repro.analysis.characterization import single_table_model
        from repro.config import DLRM4

        few = single_table_model(DLRM4, 5, name="X")
        many = single_table_model(DLRM4, 200, name="X")
        with pytest.raises(SimulationError, match="share the name"):
            Experiment(HARPV2_SYSTEM).models(few, many)
        # The same configuration repeated is harmless.
        Experiment(HARPV2_SYSTEM).models(DLRM1, DLRM1)

    def test_run_grid_convenience(self):
        grid = run_grid(
            HARPV2_SYSTEM, ["centaur"], [DLRM1], [16], cache=ResultCache()
        )
        assert len(grid) == 1
        assert grid.get("centaur", "DLRM(1)", 16).design_point == "Centaur"


class TestExperimentResultQueries:
    def test_get_accepts_aliases_and_design_point_labels(self):
        grid = small_grid()
        by_name = grid.get("centaur", "DLRM(3)", 64)
        assert grid.get("Centaur", "DLRM(3)", 64) is by_name
        assert grid.get("CPU-only", "DLRM(1)", 1) is grid.get("cpu", "DLRM(1)", 1)

    def test_get_missing_point_raises(self):
        grid = small_grid()
        with pytest.raises(KeyError):
            grid.get("cpu-gpu", "DLRM(1)", 1)

    def test_typoed_backend_raises_instead_of_matching_nothing(self):
        grid = small_grid()
        with pytest.raises(ConfigurationError, match="unknown backend"):
            grid.filter(backend="centuar")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            grid.get("centuar", "DLRM(1)", 1)

    def test_filter(self):
        grid = small_grid()
        assert len(grid.filter(backend="centaur")) == 4
        assert len(grid.filter(model_name="DLRM(1)")) == 4
        assert len(grid.filter(batch_size=64)) == 4
        only = grid.filter(backend="cpu", model_name="DLRM(3)", batch_size=1)
        assert len(only) == 1
        assert only[0].design_point == "CPU-only"

    def test_pivot_single_backend(self):
        grid = small_grid()
        table = grid.pivot(value="latency_seconds", backend="centaur")
        assert set(table) == {"DLRM(1)", "DLRM(3)"}
        assert set(table["DLRM(1)"]) == {1, 64}
        assert table["DLRM(3)"][64] == grid.get("centaur", "DLRM(3)", 64).latency_seconds

    def test_pivot_multi_backend_keys_rows_by_backend(self):
        table = small_grid().pivot(value="energy_joules")
        assert ("cpu", "DLRM(1)") in table
        assert ("centaur", "DLRM(3)") in table

    def test_pivot_with_callable(self):
        table = small_grid().pivot(
            value=lambda result: result.breakdown.fraction("EMB"), backend="cpu"
        )
        assert 0.0 < table["DLRM(3)"][64] <= 1.0

    def test_to_dict_and_csv(self):
        grid = small_grid()
        payload = grid.to_dict()
        assert payload["system_fingerprint"]
        assert len(payload["results"]) == len(grid)
        csv_text = grid.to_csv()
        lines = csv_text.strip().splitlines()
        assert len(lines) == len(grid) + 1
        assert lines[0].startswith("backend,design_point,model,batch_size,latency_s")
        assert any(line.startswith("centaur,Centaur,DLRM(3),64") for line in lines)


class TestVariantSweep:
    def test_addresses_results_by_sweep_value(self):
        from repro.analysis.characterization import single_table_model
        from repro.config import DLRM4
        from repro.experiment import VariantSweep

        sweep = VariantSweep(
            HARPV2_SYSTEM,
            ("cpu", "centaur"),
            {count: single_table_model(DLRM4, count) for count in (5, 50)},
            (1, 16),
        )
        assert len(sweep.grid) == 2 * 2 * 2
        assert sweep.model(5).gathers_per_table == 5
        result = sweep.result(50, "centaur", 16)
        assert result.design_point == "Centaur"
        assert result.model_name == sweep.model(50).name
        with pytest.raises(KeyError):
            sweep.model(999)

    def test_empty_variants_rejected(self):
        from repro.experiment import VariantSweep

        with pytest.raises(SimulationError):
            VariantSweep(HARPV2_SYSTEM, ("cpu",), {}, (1,))


class TestPerRunHoisting:
    """The serial grid builds each backend once and keys each point once."""

    @pytest.fixture
    def spies(self, monkeypatch):
        import collections
        import dataclasses

        from repro.backends import registry

        builds = collections.Counter()
        keys = []
        for name in ("cpu", "cpu-gpu", "centaur"):
            registration = registry.backend_registration(name)

            def factory(system, _inner=registration.factory, _name=name):
                builds[_name] += 1
                return _inner(system)

            monkeypatch.setitem(
                registry._REGISTRY, name, dataclasses.replace(registration, factory=factory)
            )
        real_key = ResultCache.key

        def key(*args):
            keys.append(args)
            return real_key(*args)

        monkeypatch.setattr(ResultCache, "key", staticmethod(key))
        return builds, keys

    @pytest.mark.parametrize("progress", [False, True])
    def test_one_build_per_backend_and_one_key_per_point(self, spies, progress):
        builds, keys = spies
        lines = []
        experiment = (
            Experiment(HARPV2_SYSTEM, cache=ResultCache())
            .backends("cpu", "cpu-gpu", "centaur", "cpu")
            .models(DLRM1, DLRM3)
            .batch_sizes(1, 4, 64)
        )
        if progress:
            experiment.progress(lines.append)
        grid = experiment.run()
        points = 3 * 2 * 3
        assert len(grid) == points
        assert builds == {"cpu": 1, "cpu-gpu": 1, "centaur": 1}
        assert len(keys) == points
        if progress:
            assert len(lines) == points
            assert all(line.endswith(" computed") for line in lines)

    def test_cached_points_are_reported_with_one_key_each(self, spies):
        builds, keys = spies
        cache = ResultCache()
        lines = []
        Experiment(HARPV2_SYSTEM, cache=cache).backends("cpu").models(DLRM1).batch_sizes(
            1, 4
        ).run()
        keys.clear()
        Experiment(HARPV2_SYSTEM, cache=cache).backends("cpu").models(DLRM1).batch_sizes(
            1, 4, 8
        ).progress(lines.append).run()
        assert len(keys) == 3
        assert [line.rsplit(" ", 1)[1] for line in lines] == ["cached", "cached", "computed"]
        assert cache.hits == 2 and cache.misses == 3
        assert builds["cpu"] == 2  # once per run
