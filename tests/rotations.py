"""Reference rotation matrices for the tests.

The library rotates the base viewport to a point of gaze with one closed
form, ``mask._pog_rotations``; these two elementary rotations, multiplied
as theta_rotation_matrix(theta - 180) @ phi_rotation_matrix(phi), are
what that closed form is checked against.
"""

import math

import numpy as np


def phi_rotation_matrix(phi_target_deg: float) -> np.ndarray:
    """Rotation lowering the frame-center direction to polar angle ``phi_target_deg``.

    The rotation is about the -x axis by (90 - phi_target) degrees:
    applying it to (0, -1, 0) yields the direction (180, phi_target).
    ``phi_target_deg = 90`` gives the identity.
    """
    psi = math.radians(90.0 - phi_target_deg)
    c, s = math.cos(psi), math.sin(psi)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, c, s],
            [0.0, -s, c],
        ],
        dtype=np.float64,
    )


def theta_rotation_matrix(delta_deg: float) -> np.ndarray:
    """Rotation about +z adding ``delta_deg`` to every azimuth."""
    d = math.radians(delta_deg)
    c, s = math.cos(d), math.sin(d)
    return np.array(
        [
            [c, s, 0.0],
            [-s, c, 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=np.float64,
    )
