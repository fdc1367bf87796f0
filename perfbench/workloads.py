"""The benchmark's workloads: seeded inputs, command lines and sizes.

Each workload runs one ``vq360`` subcommand exactly as a user would type
it; "{out}" in an argument list marks where a repetition writes its
outputs.  ``tiny=True`` shrinks every input for the smoke test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from fixtures import (
    head_walk,
    meridian_sweep,
    with_probes,
    write_angle_csv,
    write_quaternion_csv,
    yup_quaternions,
)

FOV = "100,85"
FPS = 30.0
SEGMENT_MS = 500.0


@dataclass(frozen=True)
class Session:
    """One trace of a workload: a file the program parses, or a recipe
    it generates in-process (then theta and phi are None)."""

    label: str
    n_frames: int
    path: str | None = None
    theta: np.ndarray | None = None
    phi: np.ndarray | None = None
    synthetic: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    resolution: tuple[int, int]
    method: str
    sessions: tuple[Session, ...]
    argv: tuple[str, ...]
    argv_one_frame: tuple[str, ...]
    grid: tuple[int, int] | None = None
    segments_ms: tuple[float, ...] = (SEGMENT_MS,)
    error_grids: tuple[tuple[int, int], ...] = ()

    @property
    def trace_frames(self) -> int:
        return sum(s.n_frames for s in self.sessions)

    @property
    def frames_per_rep(self) -> int:
        """Session frames one run of the command scores: a study scores each
        trace frame once per segment length and once per error grid."""
        if self.command == "study":
            return self.trace_frames * (len(self.segments_ms) + len(self.error_grids))
        return self.trace_frames

    @property
    def bank_grids(self) -> tuple[tuple[int, int], ...]:
        return (self.grid,) if self.grid else self.error_grids

    @property
    def snap_grid(self) -> tuple[int, int]:
        return self.grid or (10, 20)


def _res_flag(res: tuple[int, int]) -> str:
    return f"{res[0]}x{res[1]}"


def _grids_flag(grids) -> str:
    return ",".join(f"{r}x{c}" for r, c in grids)


def _vaqm_4k(work: str, rng: np.random.Generator, tiny: bool) -> Workload:
    res = (960, 480) if tiny else (3840, 1920)
    theta, phi = with_probes(*meridian_sweep(45 if tiny else 1800, 3.0, rng))  # 90 deg/s at 30 fps
    path = os.path.join(work, "vaqm.csv")
    one = os.path.join(work, "vaqm-one-frame.csv")
    write_angle_csv(path, theta, phi)
    write_angle_csv(one, theta[:1], phi[:1])
    flags = ["--method", "vaqm", "--fov", FOV, "--resolution", _res_flag(res), "--out-prefix", "{out}/run"]
    return Workload(
        name="vaqm-4k",
        command="evaluate",
        resolution=res,
        method="vaqm",
        sessions=(Session("vaqm", theta.size, path, theta, phi),),
        argv=("evaluate", "--trace", path, *flags),
        argv_one_frame=("evaluate", "--trace", one, *flags),
    )


def _avaqm_long(work: str, rng: np.random.Generator, tiny: bool) -> Workload:
    res = (960, 480) if tiny else (3840, 1920)
    grid = (3, 6) if tiny else (10, 20)
    theta, phi = with_probes(*head_walk(600 if tiny else 36000, 1.0, 10.0, 0.2, rng))  # 20 min at 30 deg/s
    quaternions = yup_quaternions(theta, phi)
    path = os.path.join(work, "avaqm-quaternions.csv")
    one = os.path.join(work, "avaqm-one-frame.csv")
    write_quaternion_csv(path, quaternions)
    write_quaternion_csv(one, quaternions[:1])
    flags = [
        "--convention", "y-up", "--method", "avaqm", "--grid", _grids_flag([grid]),
        "--fov", FOV, "--resolution", _res_flag(res), "--out-prefix", "{out}/run",
    ]
    return Workload(
        name="avaqm-long",
        command="evaluate",
        resolution=res,
        method="avaqm",
        grid=grid,
        sessions=(Session("avaqm", theta.size, path, theta, phi),),
        argv=("evaluate", "--trace", path, *flags),
        argv_one_frame=("evaluate", "--trace", one, *flags),
    )


def _study_sweep(work: str, rng: np.random.Generator, tiny: bool) -> Workload:
    res = (960, 480)
    n = 30 if tiny else 75  # 2.5 s at 30 fps
    segments = (500.0, 2000.0) if tiny else (500.0, 2000.0, 6000.0)
    grids = ((3, 6),) if tiny else ((3, 6), (5, 10), (10, 20))
    sessions = []
    manifest = []
    one_frame_manifest = []
    for label, deg_per_s in (("slow-1", 20.0), ("slow-2", 20.0), ("fast-1", 120.0), ("fast-2", 120.0)):
        theta, phi = meridian_sweep(n, deg_per_s / FPS, rng)
        if not sessions:
            theta, phi = with_probes(theta, phi)
        path = os.path.join(work, f"study-{label}.csv")
        one = os.path.join(work, f"study-{label}-one-frame.csv")
        write_angle_csv(path, theta, phi)
        write_angle_csv(one, theta[:1], phi[:1])
        sessions.append(Session(label, n, path, theta, phi))
        manifest.append({"content": label, "trace": path})
        one_frame_manifest.append({"content": label, "trace": one})
    # One short recipe keeps vq360's in-process trace generator in the run.
    # Its walk's seed is fixed, so its geometry cost is the same for every
    # benchmark seed.
    recipe = {"seed": 1, "duration_s": 1.0, "speed_deg_per_s": 45.0, "dwell_probability": 0.0}
    sessions.append(Session("synthetic", round(recipe["duration_s"] * FPS), synthetic=recipe))
    manifest.append({"content": "synthetic", "synthetic": recipe})
    one_frame_manifest.append({"content": "synthetic", "synthetic": dict(recipe, duration_s=1.0 / FPS)})
    paths = []
    for name, entries in (("study-manifest.json", manifest), ("study-one-frame.json", one_frame_manifest)):
        paths.append(os.path.join(work, name))
        with open(paths[-1], "w") as handle:
            json.dump(entries, handle, indent=1)
    flags = [
        "--out", "{out}", "--fov", FOV, "--resolution", _res_flag(res),
        "--segments", ",".join(f"{s:g}" for s in segments), "--grids", _grids_flag(grids),
    ]
    return Workload(
        name="study-sweep",
        command="study",
        resolution=res,
        method="vaqm",
        sessions=tuple(sessions),
        argv=("study", "--manifest", paths[0], *flags),
        argv_one_frame=("study", "--manifest", paths[1], *flags),
        segments_ms=segments,
        error_grids=grids,
    )


_BY_NAME = {"vaqm-4k": _vaqm_4k, "avaqm-long": _avaqm_long, "study-sweep": _study_sweep}
NAMES = tuple(_BY_NAME)


def build(name: str, work: str, seed: int, tiny: bool = False) -> Workload:
    """Write the workload's seeded inputs under ``work`` and describe the run."""
    rng = np.random.default_rng([seed % 2**64, NAMES.index(name)])
    return _BY_NAME[name](work, rng, tiny)
