"""Command-line front end: simulate, calibrate, reconstruct, evaluate, track."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import fileio, recon, sim
from .calib import (calibrate_regression, calibrate_single, load_calibration,
                    save_calibration)
from .core import PointCloud, SensorError, SensorGeometry, image_mean_std
from .pose import Pose, track_pose

RUN_FORMAT = "tacsense-run-v1"

# Standard study protocol: 1 near-center press calibrates the mapping list,
# 30 random presses the regression model, 20 random presses test.
SINGLE_CALIB_PRESSES = 1
REGRESSION_CALIB_PRESSES = 30
TEST_PRESSES = 20
CALIB_BALL_RADIUS = 4.0
TEST_BALL_RADIUS = 5.0


@dataclass
class RunConfig:
    """Reproducible experiment manifest; flags override file values."""

    seed: int = 0
    scheme: str = "standard"
    method: str = "single"
    thickness: float = 2.0
    noise_sigma: float = 0.0
    attenuation: float = 1.2
    gain: float = 180.0
    ambient: float = 10.0
    led_sigma: float = sim.DEFAULT_LED_SIGMA
    raw_width: int = 800
    raw_height: int = 600
    crop_size: int = 580
    field_mm: float = 24.0
    gaussian_sigma: float = 1.5
    ball_radius: float = CALIB_BALL_RADIUS
    presses: int = 1
    placement: str = "center"
    frames_per_press: int = 1

    def __post_init__(self):
        if self.placement not in sim.PLACEMENTS:
            raise ValueError(f"config key 'placement': unknown value "
                             f"{self.placement!r}; expected one of {sim.PLACEMENTS}")

    @classmethod
    def load(cls, path=None, **overrides) -> "RunConfig":
        values = {}
        if path is not None:
            values = json.loads(Path(path).read_text())
            unknown = set(values) - set(cls.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**values)
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return replace(cfg, **overrides)

    def geometry(self) -> SensorGeometry:
        return SensorGeometry(raw_width=self.raw_width, raw_height=self.raw_height,
                              crop_size=self.crop_size, field_mm=self.field_mm)

    def optical(self) -> sim.OpticalModel:
        return sim.OpticalModel(thickness=self.thickness, attenuation=self.attenuation,
                                gain=self.gain, ambient=self.ambient)

    def illumination(self) -> sim.IlluminationField:
        return sim.make_illumination(self.scheme, self.crop_size,
                                     led_sigma=self.led_sigma)


def cmd_simulate(cfg: RunConfig, out_dir: Path, object_kind: str | None = None,
                 n_frames: int = 12, step_deg: float = 5.0) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    rig = sim.BallPressRig(cfg.geometry(), cfg.optical(), cfg.illumination(),
                           cfg.noise_sigma, np.random.default_rng(cfg.seed))
    fileio.write_pgm(out_dir / "reference.pgm", rig.reference)
    manifest = {
        "format": RUN_FORMAT,
        "geometry": asdict(rig.geom),
        "scheme": cfg.scheme,
        "seed": cfg.seed,
        "noise_sigma": cfg.noise_sigma,
        "optical": asdict(rig.model),
        "reference": "reference.pgm",
    }
    frames = []
    if object_kind is None:
        manifest["kind"] = "presses"
        manifest["ball_radius_mm"] = cfg.ball_radius
        for i in range(cfg.presses):
            img, depth, center, d_max = rig.press(cfg.ball_radius, cfg.placement,
                                                  cfg.frames_per_press)
            image_name = f"frame_{i:03d}.pgm"
            truth_name = f"frame_{i:03d}.dtd"
            fileio.write_pgm(out_dir / image_name, img)
            fileio.write_depth(out_dir / truth_name, depth)
            frames.append({"image": image_name, "truth": truth_name,
                           "center_mm": list(center), "d_max_mm": d_max})
    else:
        manifest["kind"] = "sequence"
        manifest["object"] = object_kind
        field = sim.object_depth_field(object_kind)
        poses = [Pose.rot_z(k * step_deg) for k in range(n_frames)]
        rendered = sim.render_sequence(field, poses, rig.geom, rig.model, rig.illum,
                                       noise_sigma=cfg.noise_sigma, rng=rig.rng)
        for i, frame in enumerate(rendered):
            image_name = f"frame_{i:03d}.pgm"
            truth_name = f"frame_{i:03d}.dtd"
            fileio.write_pgm(out_dir / image_name, frame.image)
            fileio.write_depth(out_dir / truth_name, frame.depth)
            frames.append({"image": image_name, "truth": truth_name,
                           "pose": _pose_to_list(frame.pose),
                           "in_field": frame.in_field})
    manifest["frames"] = frames
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def _pose_to_list(pose: Pose) -> list[float]:
    return [*pose.rotation.ravel().tolist(), *pose.translation.tolist()]


def _pose_from_list(values) -> Pose:
    v = np.asarray(values, dtype=np.float64)
    return Pose(v[:9].reshape(3, 3), v[9:12])


def _load_manifest(run_dir: Path) -> dict:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if manifest.get("format") != RUN_FORMAT:
        raise ValueError(f"{run_dir}/manifest.json: unsupported format "
                         f"{manifest.get('format')!r}")
    return manifest


def cmd_calibrate(cfg: RunConfig, run_dir: Path, out_path: Path) -> None:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(run_dir)
    if manifest.get("kind") != "presses":
        raise ValueError("calibration needs a ball-press run")
    if not manifest["frames"]:
        raise SensorError(f"{run_dir / 'manifest.json'}: run has no frames "
                          "to calibrate from")
    geom = SensorGeometry(**manifest["geometry"])
    ball_radius = manifest["ball_radius_mm"]
    reference = fileio.read_pgm(run_dir / manifest["reference"])
    diffs = []
    for i, frame in enumerate(manifest["frames"]):
        img = fileio.read_pgm(run_dir / frame["image"])
        try:
            diffs.append(recon.difference(reference, img))
        except ValueError as exc:
            raise ValueError(f"frame {i}: {exc}") from exc
    if cfg.method == "single":
        model = calibrate_single(diffs[0], ball_radius, geom)
    elif cfg.method == "regression":
        model = calibrate_regression(diffs, ball_radius, geom, manifest["scheme"],
                                     np.random.default_rng(cfg.seed))
    else:
        raise ValueError(f"unknown method {cfg.method!r}")
    save_calibration(out_path, model, manifest["optical"]["thickness"])


def _pipeline_config(cfg: RunConfig, model, thickness: float,
                     geom: SensorGeometry) -> recon.PipelineConfig:
    return recon.PipelineConfig(model=model, geom=geom, camera=None,
                                sigma=cfg.gaussian_sigma, depth_clamp=thickness)


def _timed(stage_ms: dict, key: str, fn, *args):
    """fn(*args), with its wall time in ms stored as stage_ms[key]."""
    t0 = time.perf_counter()
    result = fn(*args)
    stage_ms[key] = (time.perf_counter() - t0) * 1e3
    return result


def cmd_reconstruct(cfg: RunConfig, run_dir: Path, calib_path: Path,
                    out_dir: Path) -> dict:
    manifest = _load_manifest(run_dir)
    geom = SensorGeometry(**manifest["geometry"])
    model, thickness = load_calibration(calib_path)
    pipeline = _pipeline_config(cfg, model, thickness, geom)
    reference = fileio.read_pgm(run_dir / manifest["reference"])
    out_dir.mkdir(parents=True, exist_ok=True)
    timings = []
    for i, frame in enumerate(manifest["frames"]):
        stage_ms = {}
        img = _timed(stage_ms, "read_ms", fileio.read_pgm, run_dir / frame["image"])
        depth = recon.reconstruct(reference, img, pipeline, stage_ms)
        cloud = _timed(stage_ms, "pointcloud_ms", recon.depth_to_pointcloud,
                       depth, geom)
        _timed(stage_ms, "write_depth_ms", fileio.write_depth,
               out_dir / f"depth_{i:03d}.dtd", depth)
        _timed(stage_ms, "write_ply_ms", fileio.write_ply,
               out_dir / f"cloud_{i:03d}.ply", cloud)
        timings.append(stage_ms)
    report = {"frames": len(manifest["frames"]), "timings_ms": timings}
    (out_dir / "timings.json").write_text(json.dumps(report, indent=2))
    return report


def run_evaluation(cfg: RunConfig, schemes=sim.SCHEMES) -> dict:
    """Per-scheme study: reference statistics plus closed-loop MAE of both methods.

    Each scheme is recalibrated from scratch before its test presses are
    reconstructed, and errors in one cell do not abort the others.
    """
    geom = cfg.geometry()
    model = cfg.optical()
    results = {}
    for scheme in schemes:
        cell: dict = {}
        results[scheme] = cell
        try:
            illum = replace(cfg, scheme=scheme).illumination()
            rig = sim.BallPressRig(geom, model, illum, cfg.noise_sigma,
                                   np.random.default_rng(cfg.seed))
            cell["reference_std"] = image_mean_std(rig.reference)[1]

            def press_diff(ball_radius, placement, avg=1):
                img, depth, _, _ = rig.press(ball_radius, placement, avg)
                return recon.difference(rig.reference, img), depth

            avg = cfg.frames_per_press
            single_diff, _ = press_diff(CALIB_BALL_RADIUS, "center", avg)
            single_model = calibrate_single(single_diff, CALIB_BALL_RADIUS, geom)
            reg_diffs = [press_diff(CALIB_BALL_RADIUS, "random", avg)[0]
                         for _ in range(REGRESSION_CALIB_PRESSES)]
            reg_model = calibrate_regression(reg_diffs, CALIB_BALL_RADIUS, geom,
                                             scheme, rig.rng)
            pipelines = {key: _pipeline_config(cfg, m, model.thickness, geom)
                         for key, m in (("single_mae", single_model),
                                        ("regression_mae", reg_model))}
            maes = {key: [] for key in pipelines}
            for _ in range(TEST_PRESSES):
                diff, truth = press_diff(TEST_BALL_RADIUS, "random")
                for key, pipeline in pipelines.items():
                    depth = recon.depth_from_difference(diff, pipeline)
                    maes[key].append(float(np.abs(depth.data - truth.data).mean()))
            cell.update({key: float(np.mean(errors)) for key, errors in maes.items()})
        except SensorError as exc:
            cell["error"] = f"{type(exc).__name__}: {exc}"
    return {"format": "tacsense-eval-v1", "seed": cfg.seed,
            "noise_sigma": cfg.noise_sigma, "schemes": results}


def format_eval_table(report: dict) -> str:
    schemes = list(report["schemes"])
    rows = [("Std of image", "reference_std", "{:10.3f}"),
            ("Single image MAE", "single_mae", "{:10.4f}"),
            ("Regression MAE", "regression_mae", "{:10.4f}")]
    lines = ["{:<18}".format("") + "".join(f"{s:>11}" for s in schemes)]
    for label, key, fmt in rows:
        cells = []
        for s in schemes:
            value = report["schemes"][s].get(key)
            cells.append(" " + fmt.format(value) if value is not None
                         else "      error")
        lines.append(f"{label:<18}" + "".join(cells))
    return "\n".join(lines)


def cmd_evaluate(cfg: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_evaluation(cfg)
    (out_dir / "eval_report.json").write_text(json.dumps(report, indent=2))
    print(format_eval_table(report))
    return report


def _subsample(cloud: PointCloud, max_points: int = 4000) -> PointCloud:
    n = len(cloud)
    if n <= max_points:
        return cloud
    step = -(-n // max_points)
    return PointCloud(cloud.points[::step])


def reconstruct_cloud(diff, pipeline, geom, rim_only: bool = False) -> PointCloud:
    depth = recon.depth_from_difference(diff, pipeline)
    if rim_only:
        cloud = recon.depth_rim_pointcloud(depth, geom)
    else:
        cloud = recon.depth_to_pointcloud(depth, geom, contact_only=True)
    return _subsample(cloud)


def cmd_track(cfg: RunConfig, run_dir: Path, calib_path: Path, out_dir: Path,
              model_cloud_path: Path | None = None) -> dict:
    manifest = _load_manifest(run_dir)
    geom = SensorGeometry(**manifest["geometry"])
    model, thickness = load_calibration(calib_path)
    pipeline = _pipeline_config(cfg, model, thickness, geom)
    reference = fileio.read_pgm(run_dir / manifest["reference"])
    clouds = []
    for frame in manifest["frames"]:
        img = fileio.read_pgm(run_dir / frame["image"])
        diff = recon.difference(reference, img)
        clouds.append(reconstruct_cloud(diff, pipeline, geom, rim_only=True))
    if model_cloud_path is not None:
        model_cloud = _subsample(fileio.read_ply(model_cloud_path))
    else:
        model_cloud = clouds[0]
    reports = track_pose(clouds, model_cloud)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"format": "tacsense-track-v1",
               "frames": [{"pose": _pose_to_list(r.pose), "rmse": r.rmse,
                           "iterations": r.iterations, "converged": r.converged}
                          for r in reports]}
    (out_dir / "track_report.json").write_text(json.dumps(payload, indent=2))
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tacsense",
        description="Tactile sensor simulation, calibration, reconstruction, "
                    "and pose tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--method", choices=["single", "regression"])
        p.add_argument("--scheme", choices=list(sim.SCHEMES))
        p.add_argument("--thickness", type=float, help="layer thickness in mm")
        p.add_argument("--noise", type=float, dest="noise_sigma",
                       help="render noise sigma in gray levels")

    p = sub.add_parser("simulate", help="render press or sequence frames")
    common(p)
    p.add_argument("--presses", type=int)
    p.add_argument("--ball-radius", type=float, dest="ball_radius")
    p.add_argument("--placement", choices=sim.PLACEMENTS)
    p.add_argument("--object", choices=["slab", "ball_array", "star", "hex_nut",
                                        "set_screw"])
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--step-deg", type=float, default=5.0)

    p = sub.add_parser("calibrate", help="build a calibration model from a run")
    common(p)
    p.add_argument("--run", type=Path, required=True, help="simulate output dir")

    p = sub.add_parser("reconstruct", help="reconstruct depth and point clouds")
    common(p)
    p.add_argument("--run", type=Path, required=True)
    p.add_argument("--calib", type=Path, required=True)

    p = sub.add_parser("evaluate", help="per-scheme closed-loop study")
    common(p)

    p = sub.add_parser("track", help="ICP pose tracking over a sequence")
    common(p)
    p.add_argument("--run", type=Path, required=True)
    p.add_argument("--calib", type=Path, required=True)
    p.add_argument("--model-cloud", type=Path, dest="model_cloud")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k, None)
                 for k in ("seed", "method", "scheme", "thickness", "noise_sigma",
                           "presses", "ball_radius", "placement")}
    try:
        cfg = RunConfig.load(args.config, **overrides)
        if args.command == "simulate":
            cmd_simulate(cfg, args.out, object_kind=args.object,
                         n_frames=args.frames, step_deg=args.step_deg)
        elif args.command == "calibrate":
            cmd_calibrate(cfg, args.run, args.out / "calibration.json")
        elif args.command == "reconstruct":
            cmd_reconstruct(cfg, args.run, args.calib, args.out)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, args.out)
        elif args.command == "track":
            cmd_track(cfg, args.run, args.calib, args.out,
                      model_cloud_path=args.model_cloud)
    except (SensorError, ValueError, OSError) as exc:
        print(f"tacsense {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
