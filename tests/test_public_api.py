"""Tests for the top-level public API surface."""

import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

#: ``repro`` and every subpackage; each one's ``__all__`` is checked.
_PACKAGES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
]

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_quickstart_blocks():
    """The ```python blocks of the README's Quickstart section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2, "the README Quickstart should hold two python blocks"
    return blocks


def test_package_imports_are_warning_free():
    """`import repro` and its subpackages emit no DeprecationWarning."""
    subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            "-c",
            "import repro, repro.serving, repro.dlrm, repro.workloads, "
            "repro.experiment, repro.cli",
        ],
        capture_output=True,
        text=True,
        check=True,
    )


class TestPublicAPI:
    def test_version_and_paper_metadata(self):
        assert repro.__version__
        assert "Centaur" in repro.PAPER_TITLE
        assert repro.PAPER_VENUE == "ISCA 2020"
        assert len(repro.PAPER_AUTHORS) == 4

    @pytest.mark.parametrize("package_name", _PACKAGES)
    def test_all_exports_resolve(self, package_name):
        assert len(_PACKAGES) > 10
        package = importlib.import_module(package_name)
        assert len(set(package.__all__)) == len(package.__all__)
        for name in package.__all__:
            assert hasattr(package, name), f"{name} listed in {package_name}.__all__ but missing"

    def test_one_serving_front_end_is_exported(self):
        import repro.serving

        assert repro.Fleet is repro.serving.Fleet
        assert repro.FleetSpec is repro.serving.FleetSpec
        assert repro.Fleet.__subclasses__() == []
        # The per-kind front-ends (single device, cluster, elastic cluster,
        # shard group) are gone from both namespaces.
        for module in (repro, repro.serving):
            front_ends = [
                name
                for name in dir(module)
                if name.endswith(("Simulator", "Cluster", "ReplicaGroup"))
            ]
            assert front_ends == []

    def test_quickstart_flow(self):
        """The README quickstart must work exactly as written."""
        namespace = {}
        for block in _readme_quickstart_blocks():
            exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["probabilities"].shape == (16,)
        assert namespace["fpga"].speedup_over(namespace["cpu"]) > 1.0
        assert namespace["report"].latency.p99_s > 0.0

    def test_paper_models_accessible_from_top_level(self):
        assert len(repro.PAPER_MODELS) == 6
        assert repro.dlrm_preset(2).name == "DLRM(2)"

    def test_headline_summary_callable_from_top_level(self):
        summary = repro.headline_summary(
            repro.HARPV2_SYSTEM, models=[repro.DLRM1], batch_sizes=[1, 16]
        )
        assert summary["centaur_speedup_max"] > 1.0
