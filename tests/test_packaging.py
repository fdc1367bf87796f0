"""The package version has one source."""

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
