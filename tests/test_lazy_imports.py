"""Each command loads only the modules it runs; package exports are lazy.

Every package ``__init__`` names its exports in a ``{module: names}`` table
(:mod:`repro._exports`) and imports none of them, so the set of loaded
``repro`` modules after a command is exactly what that command uses.
"""

import json
import multiprocessing
import subprocess
import sys

import pytest

import repro
import repro.serving
from repro.config import DLRM1, HARPV2_SYSTEM
from repro.experiment import Experiment
from repro.experiment import executor


def _loaded_after(*steps: str) -> list:
    """``repro`` modules loaded after each step, in one fresh interpreter."""
    script = "\n".join(
        [
            "import contextlib, io, json, sys",
            "loaded = []",
            "def snapshot():",
            "    loaded.append(sorted(m for m in sys.modules if m.startswith('repro')))",
        ]
        + [
            f"with contextlib.redirect_stdout(io.StringIO()):\n    {step}\nsnapshot()"
            for step in steps
        ]
        + ["print(json.dumps(loaded))"]
    )
    process = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(process.stdout.splitlines()[-1])


def _under(modules, *packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_cli_import_then_sweep_load_only_the_pricing_stack():
    after_import, after_sweep = _loaded_after(
        "import repro.cli",
        "repro.cli.main(['sweep', '--batches', '1'])",
    )
    assert "repro.cli" in after_import
    assert _under(
        after_import,
        *(f"repro.{name}" for name in
          ("serving", "sharding", "chaos", "workloads", "analysis", "core", "cpu", "gpu")),
    ) == []
    assert {"repro.cpu.cpu_runner", "repro.gpu.gpu_runner", "repro.core.centaur"} <= set(
        after_sweep
    )
    assert _under(
        after_sweep, "repro.serving", "repro.sharding", "repro.chaos", "repro.workloads"
    ) == []


def test_list_backends_loads_no_runner():
    (after,) = _loaded_after("import repro.cli; repro.cli.main(['list-backends'])")
    assert "repro.backends.builtin" in after
    assert _under(
        after, "repro.cpu.cpu_runner", "repro.gpu.gpu_runner", "repro.core.centaur"
    ) == []


@pytest.mark.parametrize("package", [repro, repro.serving], ids=lambda p: p.__name__)
def test_unknown_name_raises_attribute_error_naming_the_package(package):
    with pytest.raises(AttributeError, match=rf"module '{package.__name__}' has no attribute"):
        getattr(package, "NoSuchExport")


@pytest.mark.parametrize("package", [repro, repro.serving], ids=lambda p: p.__name__)
def test_dir_lists_every_export(package):
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Fleet"] is repro.serving.Fleet


def test_spawned_grid_workers_resolve_the_builtin_backends(monkeypatch):
    """Spawned workers import only what they unpickle, then look backends up."""
    grid = Experiment(HARPV2_SYSTEM).backends("cpu", "centaur").models([DLRM1])
    grid = grid.workloads(20_000, 40_000)
    serial = grid.serve(num_requests=200).to_csv()
    monkeypatch.setattr(
        executor, "_pool_context", lambda: multiprocessing.get_context("spawn")
    )
    assert grid.jobs(2).serve(num_requests=200).to_csv() == serial
