#!/usr/bin/env python3
"""Fingerprint the outputs of a fixed scenario set in FINGERPRINT.json.

    PYTHONPATH=src python3 scripts/fingerprint.py [--out FINGERPRINT.json]

Every command runs through ``tacsense.cli.main`` in a temporary directory:
``simulate`` (noisy random presses, noiseless s4 presses, a noisy
hex-nut sequence and two noisy frames of each other object kind),
``calibrate`` (single on the s4 presses, regression on the random ones),
``reconstruct`` of both press runs, ``track`` of the hex-nut sequence,
``reconstruct`` of that sequence and ``track --model-cloud`` against its
first PLY cloud, then against that cloud's contact points rewritten as an
ASCII PLY, and ``evaluate`` at noise 0 and 1 on a 240 px crop.

The file holds the SHA-256 of every output file but ``timings.json``, the
headline numbers (the study's MAEs, each press reconstruction's depth MAE
against the run's truth, both tracking errors against the manifest poses) and the
Python, numpy and scipy versions. Unchanged code on the same versions
writes the same file byte for byte, so a change that keeps every output
shows no diff.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from tacsense import cli, fileio, sim
from tacsense.core import Pose

ROOT = Path(__file__).resolve().parent.parent


def write_ascii_model(tmp: Path) -> None:
    """The contact points (z < 0) of recon/nut/cloud_000.ply as nut_ascii.ply,
    in `format ascii 1.0` with each value written by repr."""
    points = fileio.read_ply(tmp / "recon/nut/cloud_000.ply").points
    rows = [" ".join(map(repr, p)) + "\n" for p in points[points[:, 2] < 0].tolist()]
    header = (f"ply\nformat ascii 1.0\nelement vertex {len(rows)}\n"
              "property float x\nproperty float y\nproperty float z\nend_header\n")
    (tmp / "nut_ascii.ply").write_text(header + "".join(rows))


# (argv of tacsense, with {tmp} for the scenario directory, or a step that
# writes an input into that directory), in order.
SCENARIOS = [
    ["simulate", "--out", "{tmp}/runs/random", "--presses", "3",
     "--placement", "random", "--noise", "1", "--seed", "1"],
    ["simulate", "--out", "{tmp}/runs/s4", "--presses", "2", "--scheme", "s4",
     "--seed", "2"],
    ["simulate", "--out", "{tmp}/runs/nut", "--object", "hex_nut", "--frames", "6",
     "--noise", "1", "--seed", "3"],
    ["simulate", "--out", "{tmp}/runs/slab", "--object", "slab", "--frames", "2",
     "--noise", "1", "--seed", "6"],
    ["simulate", "--out", "{tmp}/runs/ball_array", "--object", "ball_array",
     "--frames", "2", "--noise", "1", "--seed", "7"],
    ["simulate", "--out", "{tmp}/runs/star", "--object", "star", "--frames", "2",
     "--noise", "1", "--seed", "8"],
    ["simulate", "--out", "{tmp}/runs/set_screw", "--object", "set_screw",
     "--frames", "2", "--noise", "1", "--seed", "9"],
    ["calibrate", "--run", "{tmp}/runs/s4", "--method", "single",
     "--out", "{tmp}/calib/single"],
    ["calibrate", "--run", "{tmp}/runs/random", "--method", "regression",
     "--seed", "4", "--out", "{tmp}/calib/regression"],
    ["reconstruct", "--run", "{tmp}/runs/s4",
     "--calib", "{tmp}/calib/single/calibration.json", "--out", "{tmp}/recon/s4"],
    ["reconstruct", "--run", "{tmp}/runs/random",
     "--calib", "{tmp}/calib/regression/calibration.json",
     "--out", "{tmp}/recon/random"],
    ["track", "--run", "{tmp}/runs/nut",
     "--calib", "{tmp}/calib/regression/calibration.json", "--out", "{tmp}/track/nut"],
    ["reconstruct", "--run", "{tmp}/runs/nut",
     "--calib", "{tmp}/calib/regression/calibration.json", "--out", "{tmp}/recon/nut"],
    ["track", "--run", "{tmp}/runs/nut",
     "--calib", "{tmp}/calib/regression/calibration.json",
     "--model-cloud", "{tmp}/recon/nut/cloud_000.ply", "--out", "{tmp}/track/nut_ply"],
    write_ascii_model,
    ["track", "--run", "{tmp}/runs/nut",
     "--calib", "{tmp}/calib/regression/calibration.json",
     "--model-cloud", "{tmp}/nut_ascii.ply", "--out", "{tmp}/track/nut_ascii"],
    ["evaluate", "--out", "{tmp}/eval/noise0", "--seed", "5",
     "--config", "{tmp}/small.json"],
    ["evaluate", "--out", "{tmp}/eval/noise1", "--seed", "5", "--noise", "1",
     "--config", "{tmp}/small.json"],
]
CONFIGS = {"small.json": {"crop_size": 240}}


def run_scenarios(tmp: Path) -> None:
    for name, values in CONFIGS.items():
        (tmp / name).write_text(json.dumps(values))
    for argv in SCENARIOS:
        if callable(argv):
            argv(tmp)
            continue
        argv = [arg.format(tmp=tmp) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"fingerprint: tacsense {' '.join(argv)} exited {code}: "
                             f"{err.getvalue().strip()}")


def depth_mae(run: Path, recon: Path) -> float:
    frames = fileio.read_json(run / "manifest.json")["frames"]
    errors = [np.abs(fileio.read_depth(recon / f"depth_{i:03d}.dtd").data
                     - fileio.read_depth(run / frame["truth"]).data).mean()
              for i, frame in enumerate(frames)]
    return float(np.mean(errors))


def track_error_deg(run: Path, report: Path) -> float:
    """Largest error of the tracked rotation relative to frame 0, modulo the
    hex nut's symmetry; the report's own worst `angle_err_deg` must equal it."""
    def angle(values):
        v = np.asarray(values, dtype=np.float64)
        return Pose(v[:9].reshape(3, 3), v[9:12]).z_angle_deg()

    truth = [angle(f["pose"]) for f in fileio.read_json(run / "manifest.json")["frames"]]
    frames = fileio.read_json(report)["frames"]
    tracked = [angle(f["pose"]) for f in frames]
    symmetry = sim.OBJECT_SYMMETRY_DEG["hex_nut"]
    worst = max(abs((est - (true - truth[0]) + symmetry / 2.0) % symmetry - symmetry / 2.0)
                for est, true in zip(tracked, truth))
    reported = max(f["angle_err_deg"] for f in frames)
    if reported != worst:
        raise SystemExit(f"fingerprint: {report}: worst angle_err_deg {reported}, "
                         f"scored here {worst}")
    return worst


def headline(tmp: Path) -> dict:
    numbers = {
        "reconstruct_depth_mae_mm": {
            run: depth_mae(tmp / "runs" / run, tmp / "recon" / run)
            for run in ("s4", "random")},
        "track_err_deg_max": track_error_deg(tmp / "runs/nut",
                                             tmp / "track/nut/track_report.json"),
        "track_ply_err_deg_max": track_error_deg(
            tmp / "runs/nut", tmp / "track/nut_ply/track_report.json"),
    }
    for study in ("noise0", "noise1"):
        report = fileio.read_json(tmp / "eval" / study / "eval_report.json")
        numbers[f"evaluate_{study}"] = report["schemes"]
    return numbers


def fingerprint() -> dict:
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as scratch:
        tmp = Path(scratch)
        run_scenarios(tmp)
        files = {path.relative_to(tmp).as_posix():
                 hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(tmp.rglob("*"))
                 if path.is_file() and path.name != "timings.json"
                 and path.parent != tmp}  # the inputs this script writes
        numbers = headline(tmp)
    return {"format": "tacsense-fingerprint-v1",
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__},
            "headline": numbers, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "FINGERPRINT.json")
    args = parser.parse_args(argv)
    args.out.write_text(json.dumps(fingerprint(), indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
