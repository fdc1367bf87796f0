"""Spherical and equirectangular geometry primitives.

Coordinates follow the HMD convention used throughout the package:
``theta`` is the azimuth in degrees measured clockwise from the +y axis
(so ``x = sin(phi) sin(theta)``, ``y = sin(phi) cos(theta)``) and ``phi``
is the polar angle in degrees from the +z axis (0 at the north pole,
180 at the south pole).  The frame center (theta=180, phi=90) therefore
maps to the unit vector (0, -1, 0).

An equirectangular frame of ``n_h x n_v`` pixels spans 360 x 180 degrees;
pixel (col, row) is addressed by its center, i.e. angles
``((col + 0.5) * 360 / n_h, (row + 0.5) * 180 / n_v)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

FULL_TURN_DEG = 360.0
HALF_TURN_DEG = 180.0


@dataclass(frozen=True)
class SphericalPoint:
    """A direction on the unit sphere in degrees.

    ``theta_deg`` is normalized to [0, 360); ``phi_deg`` is clamped to
    [0, 180].  Both must be finite.
    """

    theta_deg: float
    phi_deg: float

    def __post_init__(self) -> None:
        theta, phi = float(self.theta_deg), float(self.phi_deg)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"angles must be finite, got ({theta}, {phi})")
        theta %= FULL_TURN_DEG
        # A tiny negative azimuth rounds to 360 under mod.
        if theta == FULL_TURN_DEG:
            theta = 0.0
        phi = min(max(phi, 0.0), HALF_TURN_DEG)
        object.__setattr__(self, "theta_deg", theta)
        object.__setattr__(self, "phi_deg", phi)


@dataclass(frozen=True)
class CartesianVector:
    """A 3D direction; use :func:`cartesian_to_spherical_arrays` to read angles."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class FieldOfView:
    """Horizontal and vertical apex angles of the viewing pyramid, in degrees.

    Both angles must lie strictly inside (0, 180).
    """

    theta_deg: float
    phi_deg: float

    def __post_init__(self) -> None:
        for name, value in (("theta_deg", self.theta_deg), ("phi_deg", self.phi_deg)):
            if not 0.0 < float(value) < HALF_TURN_DEG:
                raise ValueError(
                    f"field of view {name} must be in (0, 180) degrees, got {value!r}"
                )


@dataclass(frozen=True)
class Resolution:
    """Equirectangular frame size in pixels (columns x rows)."""

    n_h: int
    n_v: int

    def __post_init__(self) -> None:
        if int(self.n_h) != self.n_h or int(self.n_v) != self.n_v:
            raise ValueError("resolution must be integral")
        if self.n_h < 2 or self.n_v < 2:
            raise ValueError(f"resolution must be at least 2x2, got {self.n_h}x{self.n_v}")
        if self.n_h != 2 * self.n_v:
            warnings.warn(
                f"equirectangular frames are normally 2:1, got {self.n_h}x{self.n_v}",
                stacklevel=3,
            )

    @property
    def column_pitch_deg(self) -> float:
        return FULL_TURN_DEG / self.n_h

    @property
    def row_pitch_deg(self) -> float:
        return HALF_TURN_DEG / self.n_v


def column_centers_deg(res: Resolution) -> np.ndarray:
    """Azimuths of all pixel-column centers, ascending, shape (n_h,)."""
    return (np.arange(res.n_h, dtype=np.float64) + 0.5) * res.column_pitch_deg


def row_centers_deg(res: Resolution) -> np.ndarray:
    """Polar angles of all pixel-row centers, ascending, shape (n_v,)."""
    return (np.arange(res.n_v, dtype=np.float64) + 0.5) * res.row_pitch_deg


def spherical_to_cartesian_arrays(
    theta_deg: np.ndarray, phi_deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized angles-to-unit-vector transform.

    Parameters
    ----------
    theta_deg, phi_deg : ndarray
        Azimuth and polar angle in degrees (broadcastable).

    Returns
    -------
    (x, y, z) : tuple of ndarray
        Unit-vector components.
    """
    t = np.deg2rad(theta_deg)
    p = np.deg2rad(phi_deg)
    sin_p = np.sin(p)
    return sin_p * np.sin(t), sin_p * np.cos(t), np.cos(p)


def cartesian_to_spherical_arrays(
    x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized unit-vector-to-angles transform (degrees).

    Uses two-argument arctangents, so it is quadrant-correct and
    scale-invariant; directions along +-z yield theta = 0 by convention.
    """
    theta = np.rad2deg(np.arctan2(x, y)) % FULL_TURN_DEG
    phi = np.rad2deg(np.arctan2(np.hypot(x, y), z))
    return theta, phi


def spherical_to_cartesian(point: SphericalPoint) -> CartesianVector:
    x, y, z = spherical_to_cartesian_arrays(
        np.float64(point.theta_deg), np.float64(point.phi_deg)
    )
    return CartesianVector(float(x), float(y), float(z))


def spherical_to_pixel_arrays(
    theta_deg: np.ndarray, phi_deg: np.ndarray, res: Resolution
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel columns and rows containing normalized directions (truncated, clamped)."""
    col = np.minimum((theta_deg / FULL_TURN_DEG * res.n_h).astype(np.int64), res.n_h - 1)
    row = np.minimum((phi_deg / HALF_TURN_DEG * res.n_v).astype(np.int64), res.n_v - 1)
    return col, row


def solid_angle_sr(fov: FieldOfView) -> float:
    """Solid angle in steradians of a right rectangular viewing pyramid."""
    half_t = math.radians(fov.theta_deg / 2.0)
    half_p = math.radians(fov.phi_deg / 2.0)
    return 4.0 * math.asin(math.sin(half_p) * math.sin(half_t))


def equivalent_pixels_picture(res: Resolution) -> float:
    """Spherically weighted pixel count of a full equirectangular frame.

    Equals the limit of summing sin(phi) over all pixel centers:
    (2 / pi) * n_h * n_v.
    """
    return 2.0 / math.pi * res.n_h * res.n_v


def equivalent_pixels_viewport(res: Resolution, fov: FieldOfView) -> float:
    """Spherically weighted pixel count covered by a viewport.

    The picture-wide count scaled by the viewport's share of the sphere:
    (2 / pi^2) * n_h * n_v * asin(sin(phi_vp/2) sin(theta_vp/2)).
    """
    return equivalent_pixels_picture(res) * solid_angle_sr(fov) / (4.0 * math.pi)


def angular_distance_deg(a: SphericalPoint, b: SphericalPoint) -> float:
    """Great-circle distance between two directions, in degrees."""
    va = spherical_to_cartesian(a)
    vb = spherical_to_cartesian(b)
    dot = va.x * vb.x + va.y * vb.y + va.z * vb.z
    return math.degrees(math.acos(min(1.0, max(-1.0, dot))))
