"""Packaging: the version has one source, and the benchmark's hooks exist."""

import importlib
import importlib.util
import pathlib
import re

import pytest

import vq360

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_version_has_one_source():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "vq360.__version__"}
    literals = [
        path
        for path in [ROOT / "pyproject.toml", *sorted((ROOT / "src").rglob("*.py"))]
        if re.search(r"""(?m)^\s*(__version__|version)\s*=\s*["']""", path.read_text())
    ]
    assert literals == [ROOT / "src" / "vq360" / "__init__.py"]
    assert re.fullmatch(r"\d+\.\d+\.\d+", vq360.__version__)


def test_benchmark_hooks_resolve():
    """Every function the benchmark's tracer wraps exists, so traced runs
    report no absent layer.  perfbench/ is read, never changed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for layer, module_name, attr in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), layer
