#!/usr/bin/env python3
"""Check that two vq360 checkouts write byte-identical outputs.

Run from anywhere, with the checkouts' roots as arguments:

    python3 bench/same_outputs.py --checkout . --parent-checkout ../parent --seeds 1301,1302

For every benchmark workload and seed it builds the workload's inputs
once in a temporary directory with ``perfbench/workloads.py`` of
``--checkout``, runs the workload's command line (``vq360 evaluate`` or
``vq360 study``) once with each checkout's ``src/`` first on the path,
and compares every file the two runs wrote, byte for byte.  The
benchmark's traces repeat no PoG on vaqm, so a ``dwell`` case follows
them: traces from ``--parent-checkout``'s ``vq360 synth-trace --dwell
0.3``, scored by ``evaluate`` and ``study`` with vaqm and with avaqm,
and by vaqm ``evaluate`` at three more fields of view, DWELL_FOVS.  A
``mask`` case exports ``vq360 mask`` PGM and NPZ rasters, projected and
``--exact``, at the gaze points of MASK_POGS.  A ``ties`` case scores
one fixed trace through the poles, cell edges, centers and equidistant
midpoints of each of TIE_GRIDS by avaqm ``evaluate`` at each of them.
No workload reads quaternions under the z-up convention, so a ``z-up``
case scores the quaternion trace of the tiny avaqm-long workload that
way, by vaqm and by avaqm ``evaluate``.  Every workload trace is plain LF
rows, so an ``ingest`` case writes an angle and a quaternion trace in
every other form ``parse_trace`` accepts (ingest_texts) and scores each
the same two ways.  The benchmark's vaqm traces hold few gaze points
whose viewport has a near-vertical face plane, the ones whose spans are
taken face by face, so an ``equator`` case scores traces that pan theta
at phi = 90, at phi = v/2 and at 180 - v/2, where the top or bottom face
plane passes through a pole, by vaqm ``evaluate`` at 100,85 and at each
of DWELL_FOVS, at EQUATOR_RESOLUTIONS.  The mask, ties and equator cases
do not depend on the seed, so they run at the first seed only.  It
prints one line per case and seed, which for a differing
``_frames.csv`` also gives how many frames differ and the largest
|dq_frame|, and exits 1 if any output differs, any run fails or a run
writes no file at all.

Standard library only, besides the numpy that perfbench's workloads use.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 600
DWELL = "dwell"
# The dwell case's traces: (label, seconds at 30 fps).  The short one has
# 51 frames, of which about 36 move, so its vaqm geometry holds fewer
# tile-sum rows than it has frames, and fewer than the bank's 200.
DWELL_TRACES = (("long", 20.0), ("short", 1.7))
# The dwell case's extra vaqm fields of view, beside the default 100,85: a
# narrow one, whose window of columns is narrow too; a wide one, whose
# viewport spans more tile rows and holds a pole whenever its gaze point
# is within 45 degrees of that pole; and the widest the tests cover, whose
# corner hull nears 180 degrees and whose corners pass near a pole.
DWELL_FOVS = ("60,40", "120,90", "170,150")
MASK = "mask"
# The mask case's (label, resolution, theta,phi): a pole, the seam, the
# equator, the default field of view's phi = v/2, where the top face plane
# passes through the north pole, and at 4K the seam at phi = 180 - v/2.
MASK_POGS = (
    ("pole", "960x480", "77,0"),
    ("seam", "960x480", "359.9,60"),
    ("equator", "960x480", "180,90"),
    ("half-v", "960x480", "47.74,42.5"),
    ("seam-4k", "3840x1920", "0.001,137.5"),
)
TIES = "ties"
# The ties case's bank grids: the error table's default coarsest grid;
# one whose 13 columns do not divide the 960 of the frame, so its bank is
# projected center by center, and whose odd row count puts a row of
# centers on the equator; the benchmark's; one twice as fine; and one
# column and one row, where a PoG's own column or row holds no
# neighbour to beat.
TIE_GRIDS = ((3, 6), (7, 13), (10, 20), (20, 40), (4, 1), (1, 5))
ZUP = "z-up"
# Each tie point is also moved by these, in either angle or both.
TIE_NUDGES = (-1e-13, 0.0, 1e-13)
INGEST = "ingest"
INGEST_FRAMES = 600
# The ingest case's forms of a frame number and of a value, taken in turn.
INGEST_FRAME_FORMS = ("{}", " {} ", "+{}", "\t{}")
INGEST_VALUE_FORMS = ("{!r}", " {!r}\t", "{:+.17g}", "{:.16e}", "{:+.16E}")
# Its line ends, taken in turn; every seventh row is followed by an empty line.
INGEST_LINE_ENDS = ("\n", "\r\n", "\r")
EQUATOR = "equator"
EQUATOR_RESOLUTIONS = ("3840x1920", "960x480")
EQUATOR_FOVS = ("100,85", *DWELL_FOVS)
# Gaze points per pan, in theta steps of 0.9 degrees from the seam: in
# exact arithmetic every fifth lies on a column edge at both resolutions,
# and none on a column center.
EQUATOR_STEPS = 400
# As in perfbench: one BLAS/OpenMP thread per process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seeds as A,B,C, got {text!r}") from None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="compare the outputs of two vq360 checkouts byte for byte")
    parser.add_argument("--checkout", required=True, help="root of the changed checkout; its perfbench builds the inputs")
    parser.add_argument("--parent-checkout", required=True, help="root of the checkout to compare against")
    parser.add_argument("--seeds", type=_parse_seeds, default=[1301, 1302], help="workload seeds as A,B,C")
    parser.add_argument(
        "--workload",
        action="append",
        help=f"workload name, {DWELL!r}, {MASK!r}, {TIES!r}, {ZUP!r}, {INGEST!r} or {EQUATOR!r}; repeat for more "
        "(default: all)",
    )
    return parser.parse_args(argv)


def _files(root: str) -> dict[str, str]:
    """Every file under root, as {path relative to root: absolute path}."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            found[os.path.relpath(path, root)] = path
    return found


def differing_files(a: str, b: str) -> list[str]:
    """Relative paths of the files that differ between two directories in
    bytes, or that only one of them holds, sorted."""
    files_a, files_b = _files(a), _files(b)
    differ = []
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            differ.append(name)
            continue
        with open(files_a[name], "rb") as handle_a, open(files_b[name], "rb") as handle_b:
            if handle_a.read() != handle_b.read():
                differ.append(name)
    return differ


def frame_difference(change: str, parent: str) -> str:
    """How two _frames.csv files differ: the frames whose q_frame text
    differs, a frame only one file holds included, and the largest
    |dq_frame| among the frames both hold."""
    texts = []
    for path in (change, parent):
        with open(path, newline="") as handle:
            texts.append([row[1:] for row in list(csv.reader(handle))[1:]])
    pairs = [(a, b) for a, b in zip(*texts) if a != b]
    count = len(pairs) + abs(len(texts[0]) - len(texts[1]))
    try:
        largest = f"{max((abs(float(a[0]) - float(b[0])) for a, b in pairs), default=0.0):.3g}"
    except (ValueError, IndexError):
        largest = "unreadable"
    return f"{count} of {max(map(len, texts))} frames differ, max |dq_frame| {largest}"


def compare_outputs(change: str, parent: str) -> tuple[bool, str]:
    """Whether two runs' output directories hold the same files byte for
    byte, with at least one file between them, and the line that says so;
    it adds frame_difference of each differing _frames.csv both hold."""
    differ = differing_files(change, parent)
    if differ:
        notes = "".join(
            f"; {name}: {frame_difference(os.path.join(change, name), os.path.join(parent, name))}"
            for name in differ
            if name.endswith("_frames.csv") and all(os.path.isfile(os.path.join(d, name)) for d in (change, parent))
        )
        return False, f"DIFFERENT {', '.join(differ)}{notes}"
    written = sorted(_files(change))
    if not written:
        return False, "no output file written, nothing compared"
    return True, f"identical ({', '.join(written)})"


def _run(root: str, commands: list[tuple[str, ...]], out: str) -> subprocess.CompletedProcess:
    """The command lines in turn with root's src/ first on the path,
    writing to out; the first that fails, or else the last."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(root), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    os.makedirs(out, exist_ok=True)
    for argv in commands:
        command = [sys.executable, "-m", "vq360.cli", *(a.replace("{out}", out) for a in argv)]
        done = subprocess.run(command, cwd=out, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if done.returncode:
            break
    return done


def dwell_commands(parent: str, inputs: str, seed: int) -> list[tuple[str, ...]]:
    """Command lines of the dwell case, after writing its traces and study
    manifest to inputs with the parent checkout's synth-trace."""
    paths = [os.path.join(inputs, f"dwell-{label}.csv") for label, _ in DWELL_TRACES]
    synth = [
        ("synth-trace", "--seed", str(seed + i), "--duration-s", f"{seconds:g}", "--dwell", "0.3", "--out", path)
        for i, ((_, seconds), path) in enumerate(zip(DWELL_TRACES, paths))
    ]
    done = _run(parent, synth, inputs)
    if done.returncode:
        raise RuntimeError(f"synth-trace exited {done.returncode}: {done.stderr.strip()}")
    manifest = os.path.join(inputs, "dwell-manifest.json")
    with open(manifest, "w") as handle:
        json.dump([{"content": label, "trace": path} for (label, _), path in zip(DWELL_TRACES, paths)], handle)
    flags = ("--resolution", "960x480")
    avaqm = ("--method", "avaqm", "--grid")
    commands = []
    for (label, _), path in zip(DWELL_TRACES, paths):
        commands.append(("evaluate", "--trace", path, *flags, "--out-prefix", f"{{out}}/{label}-vaqm"))
        commands.append(("evaluate", "--trace", path, *flags, *avaqm, "10x20", "--out-prefix", f"{{out}}/{label}-avaqm"))
        for fov in DWELL_FOVS:
            prefix = f"{{out}}/{label}-vaqm-{fov.replace(',', 'x')}"
            commands.append(("evaluate", "--trace", path, *flags, "--fov", fov, "--out-prefix", prefix))
    commands.append(("study", "--manifest", manifest, *flags, "--out", "{out}/study-vaqm"))
    commands.append(("study", "--manifest", manifest, *flags, *avaqm, "5x10", "--out", "{out}/study-avaqm"))
    return commands


def mask_commands() -> list[tuple[str, ...]]:
    """Command lines of the mask case: each of MASK_POGS projected and
    exact, each written as PGM and NPZ."""
    commands = []
    for label, resolution, pog in MASK_POGS:
        for name, exact in ((label, ()), (f"{label}-exact", ("--exact",))):
            out = ("--out", f"{{out}}/{name}.pgm", "--npz", f"{{out}}/{name}.npz")
            commands.append(("mask", "--resolution", resolution, "--pog", pog, *exact, *out))
    return commands


def tie_pogs() -> list[tuple[float, float]]:
    """(theta, phi) of the ties case's trace.  For each of TIE_GRIDS,
    every pair of a cell-edge or center azimuth and a cell-edge or center
    polar angle: the centers, the cell corners and edges (the poles among
    them), and so the points halfway between two centers of a row or of a
    column; each moved by TIE_NUDGES in either angle and kept in range.
    Then the seam at theta = 0 and just below 360 at each polar angle."""
    pogs = []
    phis = set()
    for rows, cols in TIE_GRIDS:
        thetas = [j * 180.0 / cols for j in range(2 * cols)]
        for phi in (i * 90.0 / rows for i in range(2 * rows + 1)):
            phis.add(phi)
            for theta in thetas:
                for d_theta in TIE_NUDGES:
                    for d_phi in TIE_NUDGES:
                        pogs.append(((theta + d_theta) % 360.0, min(max(phi + d_phi, 0.0), 180.0)))
    pogs += [(theta, phi) for phi in sorted(phis) for theta in (0.0, math.nextafter(360.0, 0.0))]
    return pogs


def tie_commands(inputs: str) -> list[tuple[str, ...]]:
    """Command lines of the ties case, after writing its trace (tie_pogs)
    to inputs: avaqm evaluate at each of TIE_GRIDS."""
    path = os.path.join(inputs, "ties.csv")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("frame", "theta_deg", "phi_deg"))
        writer.writerows((frame, repr(theta), repr(phi)) for frame, (theta, phi) in enumerate(tie_pogs()))
    return [
        ("evaluate", "--trace", path, "--resolution", "960x480", "--method", "avaqm", "--grid", f"{rows}x{cols}",
         "--out-prefix", f"{{out}}/ties-{rows}x{cols}")
        for rows, cols in TIE_GRIDS
    ]


def zup_commands(trace: str) -> list[tuple[str, ...]]:
    """Command lines of the z-up case: the quaternion trace read under
    --convention z-up and scored by vaqm and by avaqm evaluate."""
    flags = ("evaluate", "--trace", trace, "--convention", "z-up", "--resolution", "960x480")
    return [
        (*flags, "--out-prefix", "{out}/z-up-vaqm"),
        (*flags, "--method", "avaqm", "--grid", "10x20", "--out-prefix", "{out}/z-up-avaqm"),
    ]


def ingest_texts(seed: int) -> dict[str, str]:
    """The ingest case's traces as {file name: text}: INGEST_FRAMES random
    gaze points as angles and as unit quaternions, in every form
    parse_trace accepts.  The header names are padded, the rows are
    shuffled out of frame order, numbers take INGEST_FRAME_FORMS and
    INGEST_VALUE_FORMS in turn (padding, + signs, exponents), lines end
    by INGEST_LINE_ENDS with empty lines between rows, and the last row has
    no line end.  Frames 0 and 1 hold 1e-400, 5e-324 and -0.0."""
    rng = random.Random(seed)
    angles = [["1e-400", "5e-324"], ["5e-324", "-0.0"]]
    quaternions = [["1e0", "1e-400", "5e-324", "-0.0"], ["+0.0", "1E0", "-5e-324", "1e-400"]]
    forms = itertools.cycle(INGEST_VALUE_FORMS)
    for _ in range(2, INGEST_FRAMES):
        angles.append([next(forms).format(rng.uniform(0.0, 360.0)), next(forms).format(rng.uniform(0.0, 180.0))])
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(c * c for c in q))
        quaternions.append([next(forms).format(c / norm) for c in q])
    texts = {}
    for name, header, rows in (
        ("ingest-angles.csv", "frame , theta_deg,phi_deg ", angles),
        ("ingest-quaternions.csv", " frame,qw ,qx,qy,qz", quaternions),
    ):
        lines = [
            ",".join((INGEST_FRAME_FORMS[frame % len(INGEST_FRAME_FORMS)].format(frame), *values))
            for frame, values in enumerate(rows)
        ]
        rng.shuffle(lines)
        parts = [header + "\r\n"]
        for index, line in enumerate(lines[:-1]):
            end = INGEST_LINE_ENDS[index % len(INGEST_LINE_ENDS)]
            parts.append(line + end * (2 if index % 7 == 6 else 1))
        texts[name] = "".join(parts) + lines[-1]
    return texts


def ingest_commands(inputs: str, seed: int) -> list[tuple[str, ...]]:
    """Command lines of the ingest case, after writing ingest_texts to
    inputs: each trace scored by vaqm and by avaqm evaluate."""
    commands = []
    for name, text in ingest_texts(seed).items():
        path = os.path.join(inputs, name)
        with open(path, "w", newline="") as handle:
            handle.write(text)
        flags = ("evaluate", "--trace", path, "--resolution", "960x480")
        prefix = f"{{out}}/{name.removesuffix('.csv')}"
        commands.append((*flags, "--out-prefix", f"{prefix}-vaqm"))
        commands.append((*flags, "--method", "avaqm", "--grid", "10x20", "--out-prefix", f"{prefix}-avaqm"))
    return commands


def equator_pogs(fov: str) -> list[tuple[float, float]]:
    """(theta, phi) of the equator case's trace at a field of view "h,v":
    a pan of EQUATOR_STEPS gaze points at phi = 90, then at phi = v/2 and
    at 180 - v/2."""
    half_v = float(fov.split(",")[1]) / 2.0
    return [(0.9 * k, phi) for phi in (90.0, half_v, 180.0 - half_v) for k in range(EQUATOR_STEPS)]


def equator_commands(inputs: str) -> list[tuple[str, ...]]:
    """Command lines of the equator case, after writing its trace at each
    of EQUATOR_FOVS to inputs: vaqm evaluate at each of
    EQUATOR_RESOLUTIONS."""
    commands = []
    for fov in EQUATOR_FOVS:
        label = fov.replace(",", "x")
        path = os.path.join(inputs, f"equator-{label}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("frame", "theta_deg", "phi_deg"))
            writer.writerows((frame, repr(theta), repr(phi)) for frame, (theta, phi) in enumerate(equator_pogs(fov)))
        for resolution in EQUATOR_RESOLUTIONS:
            commands.append(
                ("evaluate", "--trace", path, "--resolution", resolution, "--fov", fov,
                 "--out-prefix", f"{{out}}/equator-{resolution}-{label}")
            )
    return commands


def main(argv=None) -> int:
    args = _parse_args(argv)
    for root in (args.checkout, args.parent_checkout):
        if not os.path.isdir(os.path.join(root, "src", "vq360")):
            print(f"error: no src/vq360 under {root}", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "perfbench"))
    import workloads

    known = (*workloads.NAMES, DWELL, MASK, TIES, ZUP, INGEST, EQUATOR)
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"error: unknown workload {', '.join(unknown)}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        for seed in args.seeds[:1] if name in (MASK, TIES, EQUATOR) else args.seeds:
            with tempfile.TemporaryDirectory(prefix="vq360-same-") as work:
                inputs = os.path.join(work, "inputs")
                os.makedirs(inputs)
                try:
                    if name == DWELL:
                        commands = dwell_commands(args.parent_checkout, inputs, seed)
                    elif name == MASK:
                        commands = mask_commands()
                    elif name == TIES:
                        commands = tie_commands(inputs)
                    elif name == INGEST:
                        commands = ingest_commands(inputs, seed)
                    elif name == EQUATOR:
                        commands = equator_commands(inputs)
                    elif name == ZUP:
                        commands = zup_commands(workloads.build("avaqm-long", inputs, seed, tiny=True).sessions[0].path)
                    else:
                        commands = [workloads.build(name, inputs, seed).argv]
                except RuntimeError as exc:
                    print(f"{name} seed {seed}: {exc}")
                    status = 1
                    continue
                outs = {side: os.path.join(work, side) for side in ("change", "parent")}
                done = {
                    side: _run(root, commands, outs[side])
                    for side, root in (("change", args.checkout), ("parent", args.parent_checkout))
                }
                failed = [f"{side} exited {d.returncode}: {d.stderr.strip()}" for side, d in done.items() if d.returncode]
                if failed:
                    print(f"{name} seed {seed}: " + "; ".join(failed))
                    status = 1
                    continue
                same, verdict = compare_outputs(outs["change"], outs["parent"])
                print(f"{name} seed {seed}: {verdict}")
                if not same:
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
