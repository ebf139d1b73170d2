"""The ``test`` extra names every third-party package the suites import.

``pip install .[test]`` must give a suite that collects: every module-level
import under ``tests/`` and ``benchmarks/`` resolves to the standard
library, the package itself, a local test module, the runtime dependency
(numpy) or a distribution listed in ``[project.optional-dependencies]
test``.  Function-local imports (the ``ImportError``-guarded psutil probe
in ``benchmarks/conftest.py``) stay optional and are not counted.

The extra is read with a line scan rather than ``tomllib``, which Python
3.10 lacks.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LOCAL = {"repro", "tests", "conftest"}
RUNTIME = {"numpy"}


def _test_extra() -> set:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r"^test\s*=\s*\[([^\]]*)\]", text, flags=re.M)
    assert match, "pyproject.toml has no `test` extra"
    requirements = re.findall(r"\"([^\"]+)\"", match.group(1))
    names = (re.split(r"[\s<>=!~;\[]", req, 1)[0] for req in requirements)
    return {name.replace("-", "_").lower() for name in names}


def _module_level_imports(tree: ast.AST):
    """Top-level names of the imports a module runs when it is imported."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module.split(".")[0]
        else:
            yield from _module_level_imports(node)


def _imports_by_file() -> dict:
    found = {}
    for folder in ("tests", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found[path.relative_to(ROOT).as_posix()] = set(_module_level_imports(tree))
    return found


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+")
def test_module_level_imports_are_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | LOCAL | RUNTIME | _test_extra()
    undeclared = {
        path: sorted(names - allowed)
        for path, names in _imports_by_file().items()
        if names - allowed
    }
    assert not undeclared, f"imports missing from the `test` extra: {undeclared}"


def test_the_scan_sees_hypothesis_and_skips_function_local_imports():
    imports = _imports_by_file()
    assert "hypothesis" in imports["tests/conftest.py"]
    assert "psutil" not in imports["benchmarks/conftest.py"]


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import a.b\nfrom c.d import e\n", {"a", "c"}),
        ("from . import x\nfrom .y import z\n", set()),
        ("try:\n    import a\nexcept ImportError:\n    a = None\n", {"a"}),
        ("def f():\n    import a\n", set()),
        ("class K:\n    import a\n", {"a"}),
    ],
)
def test_module_level_import_scan(source, expected):
    assert set(_module_level_imports(ast.parse(source))) == expected
