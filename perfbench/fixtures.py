"""Seeded head-movement traces for the benchmark workloads.

The generators use numpy only, never vq360, so a workload's inputs stay
the same when the program changes.  Angles follow vq360's convention:
azimuth theta in [0, 360), colatitude phi in [0, 180] with 0 at the top.
"""

from __future__ import annotations

import math

import numpy as np


# Fixed points of gaze that open the first trace of every workload, so the
# oracle compares the same frames whatever the seed: a pole, the seam, two
# hard cases for boundary sampling, and one point per 18-degree band of
# colatitude at golden-angle longitudes.
PROBES = (
    (0.3, 0.4), (180.0, 179.5), (0.0, 90.0), (359.9, 60.0), (320.0, 110.0), (180.0, 30.0),
    *(((137.50776405 * k) % 360.0, 9.0 + 18.0 * k) for k in range(10)),
)


def with_probes(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trace with its first frames replaced by PROBES."""
    probe_theta, probe_phi = np.array(PROBES).T
    n = len(PROBES)
    return np.concatenate([probe_theta, theta[n:]]), np.concatenate([probe_phi, phi[n:]])


def unit_vectors(theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
    """(n, 3) directions in vq360's frame: x = sin(phi)sin(theta), y = sin(phi)cos(theta), z = cos(phi)."""
    t = np.radians(theta_deg)
    p = np.radians(phi_deg)
    return np.stack([np.sin(p) * np.sin(t), np.sin(p) * np.cos(t), np.cos(p)], axis=1)


def angles_of(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta = np.degrees(np.arctan2(xyz[:, 0], xyz[:, 1])) % 360.0
    phi = np.degrees(np.arctan2(np.hypot(xyz[:, 0], xyz[:, 1]), xyz[:, 2]))
    return theta, phi


def angle_between_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise angle between direction arrays, accurate for tiny angles."""
    return np.degrees(np.arctan2(np.linalg.norm(np.cross(a, b), axis=1), np.sum(a * b, axis=1)))


def meridian_sweep(n_frames: int, step_deg: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Gaze moving step_deg per frame along a great circle through both
    poles, whose longitude drifts by a seeded random walk.

    It crosses a pole every 180 degrees of travel and the seam whenever
    the drift carries it past theta = 0.  Every sweep starts at the north
    pole, so the colatitudes a trace covers do not depend on the seed, nor
    does its geometry cost: per-frame span cost varies about sevenfold
    with colatitude.  The seed sets the longitude and its drift.
    """
    arc = (step_deg * np.arange(n_frames)) % 360.0
    drift = rng.uniform(-0.5, 0.5) + np.cumsum(rng.normal(0.0, 0.01, n_frames))
    longitude = rng.uniform(0.0, 360.0) + np.cumsum(drift)
    far_side = arc > 180.0
    phi = np.where(far_side, 360.0 - arc, arc)
    theta = (longitude + np.where(far_side, 180.0, 0.0)) % 360.0
    return theta, phi


def head_walk(
    n_frames: int,
    step_deg: float,
    turn_sigma_deg: float,
    dwell_probability: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Spherical random walk: per frame the gaze either dwells or moves
    step_deg along a heading that turns by a normal angle."""
    z = rng.uniform(-1.0, 1.0)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z)
    p = np.array([s * math.cos(azimuth), s * math.sin(azimuth), z])
    heading = np.cross(p, rng.normal(size=3))
    heading /= np.linalg.norm(heading)
    turns = np.radians(rng.normal(0.0, turn_sigma_deg, n_frames))
    dwell = rng.random(n_frames) < dwell_probability
    step = math.radians(step_deg)
    out = np.empty((n_frames, 3))
    for i in range(n_frames):
        out[i] = p
        if dwell[i]:
            continue
        heading = heading * math.cos(turns[i]) + np.cross(p, heading) * math.sin(turns[i])
        p, heading = p * math.cos(step) + heading * math.sin(step), heading * math.cos(step) - p * math.sin(step)
        p /= np.linalg.norm(p)
        heading -= p * np.dot(heading, p)
        heading /= np.linalg.norm(heading)
    return angles_of(out)


def yup_quaternions(theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions (w, x, y, z) that rotate the y-up forward
    axis (0, 0, -1) onto each direction.

    y-up axes: x right, y up, z backward; vq360 maps forward to
    (theta, phi) = (180, 90) and up to phi = 0.  The rotation is a pitch
    about +x followed by a yaw about +y, which is well conditioned for
    every direction, poles included.
    """
    p = unit_vectors(theta_deg, phi_deg)
    dx, dy, dz = -p[:, 0], p[:, 2], p[:, 1]
    pitch = np.arctan2(dy, np.hypot(dx, dz))
    yaw = np.arctan2(-dx, -dz)
    c1, s1 = np.cos(yaw / 2.0), np.sin(yaw / 2.0)
    c2, s2 = np.cos(pitch / 2.0), np.sin(pitch / 2.0)
    return np.stack([c1 * c2, c1 * s2, s1 * c2, -s1 * s2], axis=1)


def write_angle_csv(path: str, theta: np.ndarray, phi: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write("frame,theta_deg,phi_deg\n")
        handle.writelines(f"{i},{t!r},{p!r}\n" for i, (t, p) in enumerate(zip(theta.tolist(), phi.tolist())))


def write_quaternion_csv(path: str, quaternions: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write("frame,qw,qx,qy,qz\n")
        handle.writelines(
            f"{i},{w!r},{x!r},{y!r},{z!r}\n" for i, (w, x, y, z) in enumerate(quaternions.tolist())
        )
