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
    PerTileMetrics,
    TileGrid,
    VariantLayout,
    binary_grade_map,
    grade_from_qp,
    grade_from_tile_values,
    grades_from_psnr,
    hq_tile_set,
    load_footprint_json,
    load_qp_map_csv,
    load_tile_values_csv,
    per_tile_psnr,
    read_raw_luma,
    read_y4m_luma,
    variant_layout_26,
)
from .mask import (
    BoundarySampleSet,
    MaskBank,
    ViewportMask,
    bank_centers,
    base_viewport_boundary,
    build_mask_bank,
    corner_colatitudes_deg,
    exact_mask,
    exact_membership,
    jaccard_index,
    load_mask_npz,
    nearest_center_index,
    nearest_mask,
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
