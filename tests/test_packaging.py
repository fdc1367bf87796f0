"""Packaging: the version has one source, the public surface is pinned,
and the benchmark's hooks exist."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import vq360
from vq360.geometry import FieldOfView, Resolution
from vq360.grade import variant_layout_26
from vq360.session import SessionConfig, synthetic_trace

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


# Every name `from vq360 import *` gives, sorted.  A name added to or
# removed from the package changes this list on purpose.
PUBLIC_NAMES = [
    "ApproximationReport",
    "CartesianVector",
    "DEFAULT_T_Q",
    "FieldOfView",
    "FrameQuality",
    "GradeMap",
    "QualityTimeline",
    "Resolution",
    "SessionConfig",
    "SessionTrace",
    "SphericalPoint",
    "TileGrid",
    "VariantLayout",
    "ViewportMask",
    "active_variant",
    "angular_distance_deg",
    "approximation_error_study",
    "bank_centers",
    "binary_grade_map",
    "corner_colatitudes_deg",
    "equivalent_pixels_picture",
    "equivalent_pixels_viewport",
    "evaluate_session",
    "exact_mask",
    "exact_membership",
    "frame_quality",
    "geometry",
    "grade",
    "jaccard_index",
    "load_batch_manifest",
    "load_footprint_json",
    "make_timeline",
    "mask",
    "nearest_center_index",
    "parse_trace",
    "pooling",
    "project_viewport",
    "segment_frames",
    "session",
    "session_report",
    "solid_angle_sr",
    "spherical_to_cartesian",
    "synthetic_trace",
    "variant_layout_26",
    "write_frame_csv",
    "write_mask_npz",
    "write_mask_pgm",
    "write_trace_csv",
]


def test_public_surface_is_pinned():
    assert vq360.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(vq360))


# The names the package serves from vq360.mask, the dense raster path,
# which it loads on first use.
MASK_NAMES = [
    "ViewportMask",
    "corner_colatitudes_deg",
    "exact_mask",
    "exact_membership",
    "jaccard_index",
    "project_viewport",
    "write_mask_npz",
    "write_mask_pgm",
]


def run_python(code: str) -> str:
    """Standard output of a fresh interpreter running code with src/ on its path."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_mask_names_load_on_first_use():
    """Importing the package leaves vq360.mask unloaded; __all__ and dir()
    still hold every public name, and the first use of a mask name loads
    the module and gives its own objects."""
    out = run_python(
        "import json, sys, vq360\n"
        "before = 'vq360.mask' in sys.modules\n"
        "names, listed = vq360.__all__, dir(vq360)\n"
        "from vq360 import exact_mask\n"
        "import vq360.mask\n"
        "print(json.dumps([before, names, listed, exact_mask is vq360.mask.exact_mask]))\n"
    )
    before, names, listed, same = json.loads(out)
    assert before is False
    assert names == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(listed)
    assert same is True


@pytest.mark.parametrize("name", MASK_NAMES)
def test_mask_names_are_the_mask_modules(name):
    assert set(MASK_NAMES) <= set(PUBLIC_NAMES)
    assert getattr(vq360, name) is getattr(vq360.mask, name)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        vq360.no_such_name


@pytest.mark.parametrize(
    "make",
    [
        lambda: vq360.GradeMap(Resolution(4, 2), np.ones((2, 4))),
        lambda: vq360.ViewportMask(
            Resolution(4, 2), np.ones((2, 4)), vq360.SphericalPoint(180.0, 90.0), FieldOfView(100.0, 85.0), 8.0
        ),
        lambda: vq360.ApproximationReport(3, 6, 0.5, np.zeros(4), 0),
    ],
    ids=["GradeMap", "ViewportMask", "ApproximationReport"],
)
def test_records_with_array_fields_compare_by_identity(make):
    """Two records with equal contents are two records: == and != answer
    without comparing arrays, and a record hashes."""
    one, two = make(), make()
    assert one == one and not one != one
    assert one != two and not one == two
    assert hash(one) == hash(one)
    assert len({one, two}) == 2
    assert repr(one).startswith(type(one).__name__ + "(")


def load_tracing():
    """perfbench/tracing.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_hooks_resolve():
    """Every function the benchmark's tracer wraps is a function of a
    vq360 module, so traced runs report no absent layer and a rename fails
    here.  perfbench/ is read, never changed."""
    tracing = load_tracing()
    assert tracing.LAYERS
    for layer, module_name, attr in tracing.LAYERS:
        assert module_name.split(".")[0] == "vq360", layer
        function = getattr(importlib.import_module(module_name), attr, None)
        assert inspect.isfunction(function), layer
        assert function.__module__.split(".")[0] == "vq360", layer


def test_tracer_sees_every_vaqm_frame_in_the_geometry_layers():
    """The tracer's wrappers sit where the engine looks its functions up:
    a vaqm session records one span and one tile-sum call per frame whose
    PoG differs from the frame before's."""
    tracing = load_tracing()
    res = Resolution(96, 48)
    config = SessionConfig(segment_ms=500.0, fov=FieldOfView(100.0, 85.0), resolution=res, layout=variant_layout_26(res))
    trace = synthetic_trace(duration_s=2.0, fps=10.0, seed=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        vq360.session.evaluate_session(trace, config)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    stats = tracing.layer_stats(tracer.spans)
    assert stats["session.evaluate"]["calls"] == 1
    pogs = list(zip(trace.theta_deg.tolist(), trace.phi_deg.tolist()))
    moved = 1 + sum(pogs[i] != pogs[i - 1] for i in range(1, trace.n_frames))
    assert trace.n_frames == 20 and moved < 20
    assert stats["mask.spans"]["calls"] == stats["session.tile_sums"]["calls"] == moved
    assert vq360.session._project_spans is vq360.spans._project_spans


def benchmark_imports(path):
    """Names a file takes from the package with ``from vq360 import ...``,
    read from its syntax tree (the file is not imported)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "vq360" and node.level == 0
        for alias in node.names
    ]


def test_benchmark_imports_are_public():
    """The benchmark's checks import only names the package exports, so
    deleting an export they use fails here rather than in a benchmark run."""
    names = benchmark_imports(ROOT / "perfbench" / "checks.py")
    assert "active_variant" in names
    assert sorted(set(names) - set(vq360.__all__)) == []


def helpers_and_references():
    """Module-level functions and classes of src/vq360 that the package
    does not export, as {name: file}, and every name referenced from
    outside its own definition: a Name or an attribute anywhere in the
    package, but not the import that brings it into another module."""
    exported = set(vq360.__all__)
    helpers, referenced = {}, set()
    for path in sorted((ROOT / "src" / "vq360").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.discard(statement.name)
                if statement.name not in exported:
                    helpers[statement.name] = path.name
            referenced |= names
    return helpers, referenced


def test_every_private_helper_is_reached():
    """A function or class the package does not export, `_`-prefixed or
    not, is dead code when no other definition names it: delete it (or
    move it into the tests) rather than keep it for the tests.  The
    functions the benchmark's tracer wraps by name count as reached, and
    so do the module hooks the interpreter calls (PEP 562)."""
    helpers, referenced = helpers_and_references()
    referenced |= {attr for _, _, attr in load_tracing().LAYERS}
    referenced |= {"__getattr__", "__dir__"}
    assert {"_project_spans", "cartesian_to_spherical_arrays"} <= helpers.keys()
    assert sorted(f"{file}:{name}" for name, file in helpers.items() if name not in referenced) == []
