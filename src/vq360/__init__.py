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
from .mask import (
    ViewportMask,
    corner_colatitudes_deg,
    exact_mask,
    exact_membership,
    jaccard_index,
    project_viewport,
    write_mask_npz,
    write_mask_pgm,
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

__all__ = [name for name in dir() if not name.startswith("_")]
