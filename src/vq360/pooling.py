"""Spatial and temporal pooling of masked quality.

The per-frame quality is the Hadamard product of the weighted viewport
mask and the grade map, summed and normalized.  Dividing by the actual
mask weight sum (mode "mask-area", the default) keeps the value in
[0, 1] despite rasterization error; mode "analytic" divides by the
closed-form equivalent-pixel count of the viewport instead.  Temporal
pooling over a window reports the mean frame quality and the percentage
of frames strictly above a threshold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .geometry import equivalent_pixels_viewport
from .grade import GradeMap

if TYPE_CHECKING:
    from .mask import ViewportMask

DEFAULT_T_Q = 0.8
NORMALIZATION_MASK_AREA = "mask-area"
NORMALIZATION_ANALYTIC = "analytic"


@dataclass(frozen=True)
class FrameQuality:
    """Quality perceived inside the viewport of one frame."""

    frame_index: int
    q_frame: float
    mask_area_used: float


@dataclass(frozen=True, eq=False)
class QualityTimeline:
    """Per-frame series with its temporal aggregates.

    ``q_frame`` and ``mask_area`` hold each frame's quality and the
    denominator it was divided by, as read-only float64 copies.
    Timelines compare by identity.
    """

    q_frame: np.ndarray
    mask_area: np.ndarray
    q_window: float
    f_window: float
    threshold: float

    def __post_init__(self) -> None:
        for name in ("q_frame", "mask_area"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @cached_property
    def frames(self) -> tuple[FrameQuality, ...]:
        """The series as one FrameQuality per frame, built on first use."""
        return tuple(map(FrameQuality, range(self.q_frame.size), self.q_frame.tolist(), self.mask_area.tolist()))


def frame_quality(
    mask: ViewportMask,
    grade: GradeMap,
    normalization: str = NORMALIZATION_MASK_AREA,
    frame_index: int = 0,
) -> FrameQuality:
    """Weighted mean grade over the viewport.

    The sum runs over the full raster; entries outside the mask carry
    zero weight, so it equals the sum over the mask support.
    """
    if mask.resolution != grade.resolution:
        raise ValueError(f"mask {mask.resolution} and grade {grade.resolution} resolutions differ")
    if normalization == NORMALIZATION_MASK_AREA:
        denominator = mask.area
    elif normalization == NORMALIZATION_ANALYTIC:
        denominator = equivalent_pixels_viewport(mask.resolution, mask.fov)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if denominator <= 0.0:
        raise ValueError("mask has zero area")
    numerator = float(np.sum(mask.weights * grade.grades, dtype=np.float64))
    return FrameQuality(frame_index, numerator / denominator, denominator)


def make_timeline(q_frame: np.ndarray, mask_area: np.ndarray, t_q: float = DEFAULT_T_Q) -> QualityTimeline:
    """Aggregate per-frame qualities and denominators into a QualityTimeline.

    The window quality is the arithmetic mean of the frame qualities; the
    window fraction is the percentage of frames whose quality strictly
    exceeds the threshold t_q.
    """
    values = np.asarray(q_frame, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty window")
    if not 0.0 <= t_q <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {t_q}")
    q_window = float(values.mean())
    f_window = float(100.0 * np.count_nonzero(values > t_q) / values.size)
    return QualityTimeline(q_frame, mask_area, q_window, f_window, t_q)


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write payload to path through a new, randomly named file in the same
    directory, moved over path by os.replace, so path holds the old bytes
    or all the new ones.  The new file gets the mode open(path, "w") gives
    a new file, 0o666 less the umask, which os.open applies as it creates
    it."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_frame_csv(q_frame: np.ndarray, path: str) -> None:
    """Per-frame series as CSV with header frame,q_frame.

    Each distinct value is formatted once: values are told apart by bit
    pattern, so -0.0 keeps its own text.  The rows are laid out as one
    byte table, a frame number's digits, the comma, its value's text and
    the newline, and the bytes are read off it in order, less the NULs
    that stand for leading zeros and pad the shorter texts.
    """
    values = np.asarray(q_frame, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=np.bytes_)
    frames = np.arange(values.size)
    width = len(str(max(values.size - 1, 0)))
    rows = np.empty((values.size, width + texts.itemsize + 2), dtype=np.uint8)
    for column in range(width):
        power = 10 ** (width - 1 - column)
        rows[:, column] = frames // power % 10 + ord("0")
        if power > 1:
            # The frames below the power have no digit here.
            rows[:power, column] = 0
    rows[:, width] = ord(",")
    rows[:, width + 1 : -1] = texts.view(np.uint8).reshape(texts.size, texts.itemsize)[inverse]
    rows[:, -1] = ord("\n")
    _atomic_write_bytes(path, b"frame,q_frame\n" + rows[rows != 0].tobytes())
