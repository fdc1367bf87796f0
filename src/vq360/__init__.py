"""Viewport quality of 360 video sessions on equirectangular frames."""

from .geometry import (
    CartesianVector,
    FieldOfView,
    Resolution,
    SphericalPoint,
    angular_distance_deg,
    equivalent_pixels_picture,
    equivalent_pixels_viewport,
    solid_angle_sr,
    spherical_to_cartesian,
)
from .grade import (
    GradeMap,
    TileGrid,
    VariantLayout,
    binary_grade_map,
    load_footprint_json,
    variant_layout_26,
)
from .pooling import (
    DEFAULT_T_Q,
    FrameQuality,
    QualityTimeline,
    frame_quality,
    make_timeline,
    write_frame_csv,
)
from .session import (
    ApproximationReport,
    SessionConfig,
    SessionTrace,
    active_variant,
    approximation_error_study,
    bank_centers,
    evaluate_session,
    load_batch_manifest,
    nearest_center_index,
    parse_trace,
    segment_frames,
    session_report,
    synthetic_trace,
    write_trace_csv,
)

__version__ = "1.0.0"

# The dense raster path's names.  evaluate and study never call them, so
# the module that holds them loads on first use (__getattr__).
_MASK_NAMES = (
    "ViewportMask",
    "corner_colatitudes_deg",
    "exact_mask",
    "exact_membership",
    "jaccard_index",
    "project_viewport",
    "write_mask_npz",
    "write_mask_pgm",
)

# spans, the engine's kernel that session imports, is not exported.
__all__ = sorted({name for name in dir() if not name.startswith("_")} - {"spans"} | {"mask", *_MASK_NAMES})


def __getattr__(name: str):
    """The mask module and its names, loaded on first use (PEP 562)."""
    if name != "mask" and name not in _MASK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    mask = importlib.import_module(".mask", __name__)
    globals().update((attr, getattr(mask, attr)) for attr in _MASK_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
