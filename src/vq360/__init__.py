"""Viewport quality of 360 video sessions on equirectangular frames."""

from .geometry import (
    CartesianVector,
    FieldOfView,
    Resolution,
    SphericalPoint,
    angular_distance_deg,
    cartesian_to_spherical,
    equivalent_pixels_picture,
    equivalent_pixels_viewport,
    pixel_to_spherical,
    rotate_phi,
    rotate_theta,
    solid_angle_sr,
    spherical_to_cartesian,
    spherical_to_pixel,
)
from .grade import (
    GradeMap,
    TileGrid,
    VariantLayout,
    binary_grade_map,
    hq_tile_set,
    load_footprint_json,
    variant_layout_26,
)
from .mask import (
    BoundarySampleSet,
    ViewportMask,
    bank_centers,
    base_viewport_boundary,
    corner_colatitudes_deg,
    exact_mask,
    exact_membership,
    jaccard_index,
    load_mask_npz,
    nearest_center_index,
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
    window_fraction,
    window_mean,
    write_frame_csv,
)
from .session import (
    ApproximationReport,
    SessionConfig,
    SessionTrace,
    active_variant,
    approximation_error_study,
    evaluate_session,
    load_batch_manifest,
    parse_trace,
    segment_frames,
    session_report,
    synthetic_trace,
    write_trace_csv,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
