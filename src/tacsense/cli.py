"""tacsense command line: simulate, calibrate, reconstruct, evaluate and track."""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import fileio, recon, sim
from .calib import (calibrate_regression, calibrate_single, load_calibration,
                    save_calibration)
from .core import (GrayImage, PointCloud, Pose, SensorError, SensorGeometry,
                   image_mean_std)
from .pose import track_pose

RUN_FORMAT = "tacsense-run-v1"

# Standard study protocol: 1 near-center press calibrates the mapping list,
# 30 random presses the regression model, 20 random presses test.
SINGLE_CALIB_PRESSES = 1
REGRESSION_CALIB_PRESSES = 30
TEST_PRESSES = 20
CALIB_BALL_RADIUS = 4.0
TEST_BALL_RADIUS = 5.0

METHODS = ("single", "regression")

# A sequence's frame count and rotation step unless --frames and --step-deg
# say otherwise.
SEQUENCE_FRAMES = 12
SEQUENCE_STEP_DEG = 5.0


@dataclass
class RunConfig:
    """Reproducible experiment manifest; flags override file values.

    Construction checks every field against `_CONFIG_FIELDS`, then builds the
    geometry, optical model and LED field (the one `illumination` returns
    again, from sim's cache), and raises FormatError naming the key.
    """

    seed: int = 0
    scheme: str = "standard"
    method: str = "single"
    thickness: float = sim.OpticalModel.thickness
    noise_sigma: float = 0.0
    attenuation: float = sim.OpticalModel.attenuation
    gain: float = sim.OpticalModel.gain
    ambient: float = sim.OpticalModel.ambient
    led_sigma: float = sim.DEFAULT_LED_SIGMA
    raw_width: int = SensorGeometry.raw_width
    raw_height: int = SensorGeometry.raw_height
    crop_size: int = SensorGeometry.crop_size
    field_mm: float = SensorGeometry.field_mm
    gaussian_sigma: float = 1.5
    ball_radius: float = CALIB_BALL_RADIUS
    presses: int = 1
    placement: str = "center"
    frames_per_press: int = 1

    def __post_init__(self):
        fileio.check_fields("config", asdict(self), _CONFIG_FIELDS)
        for key, build in (("geometry", self.geometry), ("optical", self.optical),
                           ("led_sigma", self.illumination)):
            try:
                build()
            except (ValueError, OverflowError) as exc:
                raise fileio.FormatError(f"config: {key}: {exc}") from None

    @classmethod
    def load(cls, path=None, **overrides) -> "RunConfig":
        values = {} if path is None else fileio.read_json(path)
        unknown = set(values) - set(cls.__dataclass_fields__)
        if unknown:
            raise fileio.FormatError(f"{path}: unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**values)
        except fileio.FormatError as exc:  # a file value: name the file
            raise fileio.FormatError(f"{path}{str(exc).removeprefix('config')}") from None
        return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})

    def geometry(self) -> SensorGeometry:
        return SensorGeometry(raw_width=self.raw_width, raw_height=self.raw_height,
                              crop_size=self.crop_size, field_mm=self.field_mm)

    def optical(self) -> sim.OpticalModel:
        return sim.OpticalModel(thickness=self.thickness, attenuation=self.attenuation,
                                gain=self.gain, ambient=self.ambient)

    def illumination(self) -> sim.IlluminationField:
        return sim.make_illumination(self.scheme, self.crop_size,
                                     led_sigma=self.led_sigma)


# The kind of each SensorGeometry and OpticalModel key in a config and a run
# manifest, then of each RunConfig field; see fileio.check_fields. The models
# check the ranges of their keys.
_GEOMETRY_FIELDS = {"raw_width": "int", "raw_height": "int", "crop_size": "int",
                    "field_mm": "number"}
_OPTICAL_FIELDS = {"thickness": "number", "attenuation": "number", "gain": "number",
                   "ambient": "number"}
_CONFIG_FIELDS = {
    "seed": "int >= 0", "scheme": sim.SCHEMES, "method": METHODS, **_OPTICAL_FIELDS,
    "noise_sigma": "number >= 0 whose square is finite",
    "led_sigma": "number > 0 whose square is finite", **_GEOMETRY_FIELDS,
    "gaussian_sigma": "number > 0 whose square is a normal float",
    "ball_radius": "number > 0 whose square is finite",
    "presses": "int >= 0", "placement": sim.PLACEMENTS, "frames_per_press": "int > 0",
}


def cmd_simulate(cfg: RunConfig, out_dir: Path, object_kind: str | None = None,
                 n_frames: int = SEQUENCE_FRAMES,
                 step_deg: float = SEQUENCE_STEP_DEG) -> dict:
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

    def write_frame(image, depth, **info):
        stem = f"frame_{len(frames):03d}"
        fileio.write_pgm(out_dir / f"{stem}.pgm", image)
        fileio.write_depth(out_dir / f"{stem}.dtd", depth)
        frames.append({"image": f"{stem}.pgm", "truth": f"{stem}.dtd", **info})

    if object_kind is None:
        manifest["kind"] = "presses"
        manifest["ball_radius_mm"] = cfg.ball_radius
        for _ in range(cfg.presses):
            img, depth, center, d_max = rig.press(cfg.ball_radius, cfg.placement,
                                                  cfg.frames_per_press)
            write_frame(img, depth, center_mm=list(center), d_max_mm=d_max)
    else:
        manifest["kind"] = "sequence"
        manifest["object"] = object_kind
        field = sim.object_depth_field(object_kind)
        poses = [Pose.rot_z(k * step_deg) for k in range(n_frames)]
        rendered = sim.render_sequence(field, poses, rig.geom, rig.model, rig.illum,
                                       noise_sigma=cfg.noise_sigma, rng=rig.rng)
        for frame in rendered:
            write_frame(frame.image, frame.depth, pose=_pose_to_list(frame.pose),
                        in_field=frame.in_field)
    manifest["frames"] = frames
    fileio.write_json(out_dir / "manifest.json", manifest)
    return manifest


def _pose_to_list(pose: Pose) -> list[float]:
    return [*pose.rotation.ravel().tolist(), *pose.translation.tolist()]


def _pose_from_list(values: list[float]) -> Pose:
    """The pose of 12 numbers from `_pose_to_list`; ValueError if they are
    not 12 or not a proper rigid transform."""
    if len(values) != 12:
        raise ValueError(f"expected 12 numbers, got {len(values)}")
    return Pose(np.reshape(values[:9], (3, 3)), values[9:])


# The keys each kind of run adds to those every run manifest needs.
_KIND_FIELDS = {"presses": {"ball_radius_mm": "number > 0 whose square is finite",
                            "scheme": sim.SCHEMES}, "sequence": {}}
_MANIFEST_FIELDS = {
    "format": (RUN_FORMAT,), "frames": "list", "reference": "path inside the run",
    "kind": tuple(_KIND_FIELDS), "geometry": "object", "optical": "object",
}


@dataclass(frozen=True)
class Run:
    """A `simulate` output directory with at least one frame."""

    path: Path
    manifest: dict
    geom: SensorGeometry
    optical: sim.OpticalModel
    reference: GrayImage

    @classmethod
    def load(cls, run_dir: Path) -> "Run":
        manifest_path = run_dir / "manifest.json"
        manifest = fileio.read_json(manifest_path)
        fileio.check_fields(manifest_path, manifest, _MANIFEST_FIELDS)
        fileio.check_fields(manifest_path, manifest, _KIND_FIELDS[manifest["kind"]])
        if not manifest["frames"]:
            raise SensorError(f"{manifest_path}: run has no frames")
        for i, frame in enumerate(manifest["frames"]):
            fileio.check_fields(manifest_path, frame,
                                {"image": "path inside the run"}, at=f"frames[{i}]")
        models = {}
        for key, build, schema in (("geometry", SensorGeometry, _GEOMETRY_FIELDS),
                                   ("optical", sim.OpticalModel, _OPTICAL_FIELDS)):
            fileio.check_fields(manifest_path, manifest[key], schema, at=key)
            try:
                models[key] = build(**manifest[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise fileio.FormatError(f"{manifest_path}: {key}: {exc}") from None
        if manifest["kind"] == "sequence":
            for i, frame in enumerate(manifest["frames"]):
                fileio.check_fields(manifest_path, frame, {"pose": "numbers"},
                                    at=f"frames[{i}]")
                try:
                    _pose_from_list(frame["pose"])
                except ValueError as exc:
                    raise fileio.FormatError(
                        f"{manifest_path}: frames[{i}].pose: {exc}") from None
        geom = models["geometry"]
        try:
            reference = fileio.read_pgm(run_dir / manifest["reference"])
        except OSError as exc:  # a missing file or a directory
            raise SensorError(f"{manifest_path}: reference: {exc}") from exc
        if reference.pixels.shape != (geom.crop_size, geom.crop_size):
            raise fileio.FormatError(
                f"{manifest_path}: geometry.crop_size {geom.crop_size} does not "
                f"match reference {manifest['reference']!r}, "
                f"{reference.width}x{reference.height} px")
        return cls(run_dir, manifest, geom, models["optical"], reference)

    def differences(self):
        """Yield (difference image, stage ms) per frame; errors name the frame
        and its file, or the manifest key of an image that cannot be opened."""
        for i, frame in enumerate(self.manifest["frames"]):
            stage_ms, image = {}, self.path / frame["image"]
            try:
                img = recon.timed(stage_ms, "read_ms", fileio.read_pgm, image)
                if img.pixels.shape != self.reference.pixels.shape:
                    raise ValueError(f"reference and contact image dimensions differ: "
                                     f"{image} is {img.width}x{img.height} px")
                diff = recon.timed(stage_ms, "difference_ms", recon.difference,
                                   self.reference, img)
            except OSError as exc:  # a missing file or a directory
                raise SensorError(f"{self.path / 'manifest.json'}: frames[{i}].image: "
                                  f"{exc}") from exc
            except (SensorError, ValueError) as exc:
                raise SensorError(f"frame {i}: {exc}") from exc
            yield diff, stage_ms

    def pipeline(self, calib_path: Path, sigma: float) -> recon.PipelineConfig:
        """The depth pipeline of a calibration file made at this run's thickness."""
        model, thickness = load_calibration(calib_path)
        run_thickness = self.optical.thickness
        if thickness != run_thickness:
            raise SensorError(f"{calib_path}: calibration thickness {thickness} mm "
                              f"differs from the run's {run_thickness} mm in "
                              f"{self.path / 'manifest.json'}")
        return recon.PipelineConfig(model=model, geom=self.geom, sigma=sigma,
                                    depth_clamp=thickness)


def cmd_calibrate(cfg: RunConfig, run_dir: Path, out_path: Path) -> None:
    run, manifest_path = Run.load(run_dir), run_dir / "manifest.json"
    if run.manifest["kind"] != "presses":
        raise fileio.FormatError(f"{manifest_path}: kind: calibration needs a "
                                 f"ball-press run, got {run.manifest['kind']!r}")
    diffs = [diff for diff, _ in run.differences()]
    ball_radius = run.manifest["ball_radius_mm"]
    try:
        if cfg.method == "single":
            model = calibrate_single(diffs[0], ball_radius, run.geom)
        else:
            model = calibrate_regression(diffs, ball_radius, run.geom,
                                         run.manifest["scheme"],
                                         np.random.default_rng(cfg.seed))
    except (SensorError, ValueError) as exc:  # the run's presses or ball radius
        raise SensorError(f"{manifest_path}: {exc}") from exc
    save_calibration(out_path, model, run.optical.thickness)


@contextlib.contextmanager
def staged_output(out_dir: Path):
    """A fresh directory whose files move into `out_dir` if the block succeeds.

    If it fails, the file tree is left as it was: none of the block's files
    appear in `out_dir`, and the directories created for them, `out_dir` and
    its missing parents, are removed again. A file whose name is taken by a
    directory in `out_dir` is refused before any file moves.
    """
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".partial-", dir=out_dir))
    try:
        yield stage
        names = [path.name for path in stage.iterdir()]
        for name in names:  # os.replace cannot put a file over a directory
            if (out_dir / name).is_dir() and not (out_dir / name).is_symlink():
                raise SensorError(f"{out_dir / name}: is a directory")
        for name in names:
            os.replace(stage / name, out_dir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        for directory in created:  # deepest first
            if any(directory.iterdir()):
                break
            directory.rmdir()


def cmd_reconstruct(cfg: RunConfig, run_dir: Path, calib_path: Path,
                    out_dir: Path) -> dict:
    run = Run.load(run_dir)
    pipeline = run.pipeline(calib_path, cfg.gaussian_sigma)
    timings = []
    for i, (diff, stage_ms) in enumerate(run.differences()):
        depth = recon.depth_from_difference(diff, pipeline, stage_ms)
        cloud = recon.timed(stage_ms, "pointcloud_ms", recon.depth_to_pointcloud,
                            depth, run.geom)
        recon.timed(stage_ms, "write_depth_ms", fileio.write_depth,
                    out_dir / f"depth_{i:03d}.dtd", depth)
        recon.timed(stage_ms, "write_ply_ms", fileio.write_ply,
                    out_dir / f"cloud_{i:03d}.ply", cloud)
        timings.append(stage_ms)
    report = {"frames": len(timings), "timings_ms": timings}
    fileio.write_json(out_dir / "timings.json", report)
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
            avg = cfg.frames_per_press
            img, _, _, _ = rig.press(CALIB_BALL_RADIUS, "center", avg)
            single_model = calibrate_single(recon.difference(rig.reference, img),
                                            CALIB_BALL_RADIUS, geom)
            # Each press renders on a worker while the one before is handled.
            with contextlib.closing(rig.presses(
                    CALIB_BALL_RADIUS, "random", REGRESSION_CALIB_PRESSES,
                    avg)) as presses:
                reg_model = calibrate_regression(
                    (recon.difference(rig.reference, img) for img, *_ in presses),
                    CALIB_BALL_RADIUS, geom, scheme, rig.rng)
            pipelines = {key: recon.PipelineConfig(model=m, geom=geom,
                                                   sigma=cfg.gaussian_sigma,
                                                   depth_clamp=model.thickness)
                         for key, m in (("single_mae", single_model),
                                        ("regression_mae", reg_model))}
            maes = {key: [] for key in pipelines}
            with contextlib.closing(rig.presses(TEST_BALL_RADIUS, "random",
                                                TEST_PRESSES)) as presses:
                for img, truth, _, _ in presses:
                    diff = recon.difference(rig.reference, img)
                    for key, pipeline in pipelines.items():
                        error = (recon.depth_from_difference(diff, pipeline).data
                                 - truth.data)
                        maes[key].append(float(np.abs(error, out=error).mean()))
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
    report = run_evaluation(cfg)
    fileio.write_json(out_dir / "eval_report.json", report)
    print(format_eval_table(report))
    return report


def cmd_track(cfg: RunConfig, run_dir: Path, calib_path: Path, out_dir: Path,
              model_cloud_path: Path | None = None) -> dict:
    run = Run.load(run_dir)
    pipeline = run.pipeline(calib_path, cfg.gaussian_sigma)
    clouds = [recon.reconstruct_cloud(diff, pipeline)
              for diff, _ in run.differences()]
    if model_cloud_path is not None:
        # The frames' clouds hold only the rim, so the model keeps only its rim.
        points = fileio.read_ply(model_cloud_path).points
        model_cloud = PointCloud(points[recon.rim_band(-points[:, 2])])
        source, what = model_cloud_path, "rim points"
    else:
        model_cloud, source, what = clouds[0], "frame 0", "points"
    # A run whose every frame is empty tracks nothing against frame 0, and
    # reports each frame as not converged.
    tracked = model_cloud_path is not None or any(len(c) >= 3 for c in clouds)
    if tracked and len(model_cloud) < 3:
        raise SensorError(f"{source}: model cloud has {len(model_cloud)} {what}, "
                          f"need at least 3")
    reports = track_pose(clouds, model_cloud)
    # An empty frame's rmse is infinite, which JSON cannot hold: it is null.
    payload = {"format": "tacsense-track-v1",
               "frames": [{"pose": _pose_to_list(r.pose),
                           "rmse": r.rmse if math.isfinite(r.rmse) else None,
                           "iterations": r.iterations, "plane_steps": r.plane_steps,
                           "svd_steps": r.svd_steps, "converged": r.converged,
                           "stop": r.stop,
                           "inlier_fraction": r.inlier_fraction}
                          for r in reports]}
    fileio.write_json(out_dir / "track_report.json", payload)
    return payload


# The RunConfig keys that have a flag: key -> (flag, argparse options).
_CONFIG_FLAGS = {
    "seed": ("--seed", {"type": int}),
    "method": ("--method", {"choices": METHODS}),
    "scheme": ("--scheme", {"choices": sim.SCHEMES}),
    "thickness": ("--thickness", {"type": float, "help": "layer thickness in mm"}),
    "noise_sigma": ("--noise", {"type": float, "help": "noise sigma in gray levels"}),
    "presses": ("--presses", {"type": int}),
    "ball_radius": ("--ball-radius", {"type": float}),
    "placement": ("--placement", {"choices": sim.PLACEMENTS}),
}
# Each command's help and the _CONFIG_FLAGS keys it reads; argparse refuses any
# other flag. calibrate takes the scheme and thickness from the run's manifest.
COMMANDS = {
    "simulate": ("render press or sequence frames", ("seed", "scheme", "thickness",
                 "noise_sigma", "presses", "ball_radius", "placement")),
    "calibrate": ("build a calibration model from a run", ("seed", "method")),
    "reconstruct": ("reconstruct depth and point clouds", ()),
    "evaluate": ("per-scheme closed-loop study", ("seed", "thickness", "noise_sigma")),
    "track": ("ICP pose tracking over a sequence", ()),
}


@functools.cache  # no caller mutates it, and main runs once per operation
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tacsense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        for key in keys:
            flag, options = _CONFIG_FLAGS[key]
            p.add_argument(flag, dest=key, **options)
        if command == "simulate":
            p.add_argument("--object", choices=sim.OBJECT_KINDS)
            p.add_argument("--frames", type=int,
                           help=f"sequence frames (default {SEQUENCE_FRAMES})")
            p.add_argument("--step-deg", type=float,
                           help=f"sequence step (default {SEQUENCE_STEP_DEG})")
        elif command != "evaluate":
            p.add_argument("--run", type=Path, required=True, help="simulate output dir")
        if command in ("reconstruct", "track"):
            p.add_argument("--calib", type=Path, required=True)
        if command == "track":
            p.add_argument("--model-cloud", type=Path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        # Ball presses, or with --object a sequence: each refuses the other's flags.
        rule = "not allowed with" if args.object else "requires"
        for dest in (("presses", "ball_radius", "placement") if args.object
                     else ("frames", "step_deg")):
            if getattr(args, dest) is not None:
                parser.error(f"argument --{dest.replace('_', '-')}: {rule} --object")
        if args.frames is not None and args.frames < 0:
            parser.error(f"argument --frames: {args.frames} must be >= 0")
        last = max((SEQUENCE_FRAMES if args.frames is None else args.frames) - 1, 1)
        if args.step_deg is not None and not math.isfinite(args.step_deg * last):
            parser.error(f"argument --step-deg: {args.step_deg} must be finite, and "
                         f"so must each frame's angle, up to {last} times it")
    overrides = {key: getattr(args, key) for key in COMMANDS[args.command][1]}
    out = args.out  # until the stage exists
    try:
        cfg = RunConfig.load(args.config, **overrides)
        # Every command writes into a stage: its output appears whole or not at all.
        with staged_output(args.out) as out:
            if args.command == "simulate":
                sequence = {k: v for k, v in (("n_frames", args.frames),
                                              ("step_deg", args.step_deg))
                            if v is not None}
                cmd_simulate(cfg, out, object_kind=args.object, **sequence)
            elif args.command == "calibrate":
                cmd_calibrate(cfg, args.run, out / "calibration.json")
            elif args.command == "reconstruct":
                cmd_reconstruct(cfg, args.run, args.calib, out)
            elif args.command == "evaluate":
                cmd_evaluate(cfg, out)
            elif args.command == "track":
                cmd_track(cfg, args.run, args.calib, out, args.model_cloud)
    except (SensorError, ValueError, OSError) as exc:
        # The stage is gone by now: name its files where they would have gone.
        print(f"tacsense {args.command}: {str(exc).replace(str(out), str(args.out))}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
