"""Tests for the backend protocol and string-keyed registry."""

import pytest

from repro.backends import (
    Backend,
    BackendCapabilities,
    available_backends,
    backend_registration,
    canonical_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.core.centaur import CentaurRunner
from repro.cpu.cpu_runner import CPUOnlyRunner
from repro.errors import ConfigurationError
from repro.gpu.gpu_runner import CPUGPURunner
from repro.results import InferenceResult, LatencyBreakdown


class TestBuiltinRegistrations:
    def test_paper_design_points_are_registered(self):
        assert set(available_backends()) >= {"cpu", "cpu-gpu", "centaur"}

    def test_get_backend_builds_the_legacy_runners(self):
        assert isinstance(get_backend("cpu", HARPV2_SYSTEM), CPUOnlyRunner)
        assert isinstance(get_backend("cpu-gpu", HARPV2_SYSTEM), CPUGPURunner)
        assert isinstance(get_backend("centaur", HARPV2_SYSTEM), CentaurRunner)

    def test_design_point_labels_are_aliases(self):
        assert canonical_backend_name("CPU-only") == "cpu"
        assert canonical_backend_name("CPU-GPU") == "cpu-gpu"
        assert canonical_backend_name("Centaur") == "centaur"

    def test_lookup_is_case_insensitive(self):
        assert canonical_backend_name("CENTAUR") == "centaur"
        assert canonical_backend_name("  cpu ") == "cpu"

    def test_unknown_backend_raises_with_available_names(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("tpu", HARPV2_SYSTEM)

    def test_registration_metadata(self):
        registration = backend_registration("centaur")
        assert registration.design_point == "Centaur"
        assert registration.capabilities.offloads_embeddings
        assert registration.description

    def test_runners_satisfy_the_protocol(self):
        for name in ("cpu", "cpu-gpu", "centaur"):
            backend = get_backend(name, HARPV2_SYSTEM)
            assert isinstance(backend, Backend)
            assert backend.name == name
            assert isinstance(backend.capabilities, BackendCapabilities)

    @pytest.mark.parametrize(
        "name, capabilities",
        [
            ("cpu", BackendCapabilities(False, False, 2e-3)),
            ("cpu-gpu", BackendCapabilities(True, False, 5e-3)),
            ("centaur", BackendCapabilities(True, True, 10e-3)),
        ],
    )
    def test_capabilities_describe_the_device(self, name, capabilities):
        assert get_backend(name, HARPV2_SYSTEM).capabilities == capabilities
        assert backend_registration(name).capabilities == capabilities

    @pytest.mark.parametrize(
        "name, stages",
        [
            ("cpu", ("EMB", "MLP", "Other")),
            ("cpu-gpu", ("EMB", "PCIe", "MLP", "Other")),
            ("centaur", ("IDX", "EMB", "DNF", "MLP", "Other")),
        ],
    )
    def test_breakdown_stages_in_render_order(self, name, stages):
        result = get_backend(name, HARPV2_SYSTEM).run(DLRM1, 4)
        assert tuple(result.breakdown.stages) == stages


class FakeBackend:
    """Minimal structural Backend used to exercise custom registration."""

    def __init__(self, system):
        self.system = system

    @property
    def name(self):
        return "fake"

    @property
    def design_point(self):
        return "Fake"

    @property
    def capabilities(self):
        return BackendCapabilities()

    def run(self, model, batch_size):
        return InferenceResult(
            design_point=self.design_point,
            model_name=model.name,
            batch_size=batch_size,
            breakdown=LatencyBreakdown({"ALL": 1e-3}),
            power_watts=1.0,
        )


class TestCustomRegistration:
    def test_register_resolve_unregister(self):
        register_backend(
            "fake", FakeBackend, design_point="Fake", aliases=("phony",)
        )
        try:
            assert "fake" in available_backends()
            assert canonical_backend_name("phony") == "fake"
            backend = get_backend("fake", HARPV2_SYSTEM)
            assert backend.run(DLRM1, 2).latency_seconds == pytest.approx(1e-3)
        finally:
            unregister_backend("fake")
        assert "fake" not in available_backends()
        with pytest.raises(ConfigurationError):
            canonical_backend_name("phony")

    def test_duplicate_registration_requires_overwrite(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("cpu", FakeBackend)

    def test_overwrite_replaces_and_restores(self):
        original = backend_registration("cpu")
        register_backend("fake-cpu", FakeBackend, overwrite=True)
        try:
            register_backend(
                "cpu",
                FakeBackend,
                design_point="Fake",
                aliases=original.aliases,
                overwrite=True,
            )
            assert isinstance(get_backend("cpu", HARPV2_SYSTEM), FakeBackend)
        finally:
            unregister_backend("fake-cpu")
            register_backend(
                "cpu",
                original.factory,
                design_point=original.design_point,
                description=original.description,
                aliases=original.aliases,
                capabilities=original.capabilities,
                overwrite=True,
            )
        assert isinstance(get_backend("cpu", HARPV2_SYSTEM), CPUOnlyRunner)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("  ", FakeBackend)

    def test_failed_registration_leaves_no_trace(self):
        # An alias collision must be detected before any state is mutated.
        with pytest.raises(ConfigurationError, match="collides"):
            register_backend("half-done", FakeBackend, aliases=("cpu",))
        assert "half-done" not in available_backends()
        with pytest.raises(ConfigurationError):
            canonical_backend_name("half-done")

    def test_registration_before_first_lookup_cannot_shadow_builtins(self):
        """A custom backend registered before any lookup still collides.

        register_backend loads the built-ins eagerly, so import order cannot
        let a user registration claim "cpu" and break the registry; this
        needs a fresh interpreter because the suite has long since loaded
        the built-ins.
        """
        import subprocess
        import sys

        code = (
            "from repro.backends import register_backend, available_backends\n"
            "from repro.errors import ConfigurationError\n"
            "try:\n"
            "    register_backend('half', lambda s: None, aliases=('cpu',))\n"
            "    raise SystemExit('collision not detected')\n"
            "except ConfigurationError:\n"
            "    pass\n"
            "assert available_backends() == ('centaur', 'cpu', 'cpu-gpu')\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr or completed.stdout

    def test_alias_cannot_be_stolen_without_overwrite(self):
        register_backend("first", FakeBackend, aliases=("shared-alias",))
        try:
            with pytest.raises(ConfigurationError, match="collides"):
                register_backend("second", FakeBackend, aliases=("shared-alias",))
            # overwrite=True replaces a registration by name; it still may
            # not steal an alias owned by a different backend.
            with pytest.raises(ConfigurationError, match="collides"):
                register_backend(
                    "second", FakeBackend, aliases=("shared-alias",), overwrite=True
                )
            assert canonical_backend_name("shared-alias") == "first"
            assert "second" not in available_backends()
        finally:
            unregister_backend("first")


class TestResolveBackend:
    def test_resolves_names_and_passes_instances_through(self):
        runner = CPUOnlyRunner(HARPV2_SYSTEM)
        assert resolve_backend(runner, HARPV2_SYSTEM) is runner
        assert isinstance(resolve_backend("centaur", HARPV2_SYSTEM), CentaurRunner)

    def test_rejects_non_backends(self):
        with pytest.raises(ConfigurationError):
            resolve_backend(42, HARPV2_SYSTEM)
