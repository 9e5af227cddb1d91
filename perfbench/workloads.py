"""The three benchmark workloads: inputs from a seed, timed operations, checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Inputs are generated from the seed in
set-up; the timed operations go through the user-facing entry points
(``tacsense.cli.main(argv)`` and the per-frame library calls), and the
outputs are checked after each operation, outside its timing.

- ``batch_reconstruct``: ``tacsense reconstruct`` over a one-press run
  written by ``tacsense simulate`` (random ball press), then every output
  read back with ``fileio.read_depth`` and ``fileio.read_ply`` as a
  downstream consumer would. Dominated by ASCII PLY and depth-file I/O;
  ``pose`` is unused.
- ``live_track``: a hex-nut rotation sequence (5 degree steps) handled frame
  by frame in memory: ``recon.reconstruct`` -> ``recon.depth_rim_pointcloud``
  -> stride subsample to <= 4000 points -> ``pose.icp`` seeded from the
  previous pose. Dominated by reconstruction compute and ICP; no file I/O.
- ``calib_eval``: the study of ``tacsense evaluate`` at noise sigma = 1 for
  the standard illumination scheme, through ``cli.run_evaluation`` (the
  call ``tacsense evaluate`` makes for all five schemes at once). The only
  workload where the simulator and calibration do most of the work and
  where the regression branch of ``recon.map_depth`` runs.

Operations are small (one frame or one scheme, 0.2 to 3 s) and repeat one
fixed input (one press, the 24 sequence frames in turn, one study), so a run
holds many of them and its timings are medians over them.

Every workload reports every end-to-end metric of ``BENCHMARK.json``:

- ``frames_per_s_norm``: the median over the timed operations of frames per
  second, each operation's time scaled to the speed of a reference host by
  the probe of ``hostspeed.py`` timed around it. The shared host runs the
  same work up to half again slower for minutes at a time; this metric
  moves with the program's cost and far less with that drift. A frame is
  a press reconstructed by the CLI and read back (batch_reconstruct), a
  camera image taken to a pose (live_track), or a press rendered and
  processed by the study, 51 per scheme (calib_eval). The unscaled median,
  what a user sees on the host as it was, is printed as the figure
  ``frames_per_s``.
- ``depth_mae_mm``: mean absolute depth error against the simulator's truth:
  of the depth files read back, of the live depth maps, and of the
  regression-model depth in the study. The study's single-image MAE depends
  on one randomly deep calibration press per seed and spreads too widely
  across seeds to gate on; it is printed as a figure.
- ``peak_rss_mb`` and ``setup_s`` are added by ``run.py``.

Workload-specific figures (unscaled rates, latency percentiles, seconds
per scheme, tracking error) are printed beside them.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import REFERENCE_PROBE_S
from tacsense import calib, cli, fileio, pose, recon, sim
from tacsense.core import DepthMap, PointCloud

NOISE_SIGMA = 1.0
MAE_LIMIT_MM = 0.10        # acceptance criterion 1 at sigma = 1
TRACK_LIMIT_DEG = 2.0      # acceptance criterion 8, scored modulo 60 degrees
NUT_SYMMETRY_DEG = 60.0
STEP_DEG = 5.0             # the CLI's default sequence step
SEQUENCE_FRAMES = 24       # two symmetry periods of distinct noisy frames
MAX_TRACK_POINTS = 4000
REFERENCE_AVERAGE = 8      # frames averaged into a noisy reference, as simulate does
# The calibration press is made as deep as the random test presses can be,
# so the mapping list covers their whole depth range.
CALIB_DEPTH_FRAC = 0.95
BATCH_FRAMES_PER_RUN = 1
EVAL_SCHEME = "standard"
PRESSES_PER_SCHEME = (cli.SINGLE_CALIB_PRESSES + cli.REGRESSION_CALIB_PRESSES
                      + cli.TEST_PRESSES)


@dataclass
class Op:
    """One timed operation: frames it handled, timed parts, outputs to check."""

    frames: int
    seconds: dict[str, float]
    outputs: object = None
    probe_s: float = math.nan  # host probe time around it (hostspeed.py)


@dataclass
class Tally:
    """Everything the timed loop of a run gathers."""

    attempted: int = 0
    failed: int = 0
    frames: int = 0
    ops: list[Op] = field(default_factory=list)  # the timed ones
    values: dict[str, list[float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(float(value))

    def record(self, unit: str, problems: list[str]) -> None:
        """One checked unit of work (a frame or a scheme) and its failures."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{unit}: {p}" for p in problems)


def median_rate(tally: Tally, parts=None, normalised=False) -> float:
    """Median over the timed operations of frames per second, counting the
    timed parts in `parts` (or all). Normalised, each operation's time is
    scaled by the host probe's reference time over its time around it."""
    def seconds(op: Op) -> float:
        t = sum(t for name, t in op.seconds.items()
                if parts is None or name in parts)
        return t * REFERENCE_PROBE_S / op.probe_s if normalised else t
    return statistics.median(op.frames / seconds(op) for op in tally.ops)


def run_cli(*argv) -> None:
    """``tacsense <argv>`` in process; its table output is not shown."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"tacsense {argv[0]} exited with status {code}")


def _render_averaged(depth, model, illum, rng, count: int):
    return calib.average_frames([
        sim.render_tactile(depth, model, illum, noise_sigma=NOISE_SIGMA, rng=rng)
        for _ in range(count)])


def _deep_calibration(cfg: cli.RunConfig, rng):
    """Single-image calibration from one near-centre press, and its reference."""
    geom, model, illum = cfg.geometry(), cfg.optical(), cfg.illumination()
    reference = _render_averaged(DepthMap(np.zeros_like(illum.gains)), model,
                                 illum, rng, REFERENCE_AVERAGE)
    depth = sim.sphere_press_depth(geom, cli.CALIB_BALL_RADIUS,
                                   CALIB_DEPTH_FRAC * model.thickness,
                                   center=tuple(rng.uniform(-1.0, 1.0, size=2)),
                                   thickness=model.thickness)
    press = _render_averaged(depth, model, illum, rng, 1)
    mapping = cli.calibrate_single(recon.difference(reference, press),
                                   cli.CALIB_BALL_RADIUS, geom)
    return mapping, reference, illum


def _mae(depth: np.ndarray, truth: np.ndarray) -> float:
    return float(np.abs(depth - truth).mean())


class BatchReconstruct:
    name = "batch_reconstruct"
    units_per_op = BATCH_FRAMES_PER_RUN
    trace_ops = 4

    def setup(self, seeds: list[int], work: Path):
        cfg = cli.RunConfig(noise_sigma=NOISE_SIGMA)
        mapping, _, _ = _deep_calibration(cfg, np.random.default_rng(seeds[0]))
        calib_path = work / "calibration.json"
        cli.save_calibration(calib_path, mapping, cfg.thickness)
        run = work / "run"
        run_cli("simulate", "--out", run, "--presses", BATCH_FRAMES_PER_RUN,
                "--placement", "random", "--ball-radius", cli.TEST_BALL_RADIUS,
                "--noise", NOISE_SIGMA, "--seed", seeds[1])
        return {"calib": calib_path, "run": run, "work": work,
                "crop": cfg.crop_size}

    def op(self, state, j: int) -> Op:
        # Every operation reconstructs the same run into a new directory.
        run = state["run"]
        out = state["work"] / f"out_{j}"
        t0 = time.perf_counter()
        run_cli("reconstruct", "--run", run, "--calib", state["calib"],
                "--out", out)
        t1 = time.perf_counter()
        loaded = [(fileio.read_depth(out / f"depth_{i:03d}.dtd"),
                   fileio.read_ply(out / f"cloud_{i:03d}.ply"))
                  for i in range(BATCH_FRAMES_PER_RUN)]
        t2 = time.perf_counter()
        return Op(BATCH_FRAMES_PER_RUN, {"reconstruct": t1 - t0, "load": t2 - t1},
                  (run, out, loaded))

    def check(self, state, j: int, op: Op, tally: Tally) -> None:
        run, out, loaded = op.outputs
        for i, (depth, cloud) in enumerate(loaded):
            problems = []
            truth = fileio.read_depth(run / f"frame_{i:03d}.dtd")
            mae = _mae(depth.data, truth.data)
            tally.add("depth_mae_mm", mae)
            if not mae <= MAE_LIMIT_MM:
                problems.append(f"depth MAE {mae:.4f} mm > {MAE_LIMIT_MM}")
            if len(cloud) != state["crop"] ** 2:
                problems.append(f"PLY has {len(cloud)} points, "
                                f"expected {state['crop'] ** 2}")
            elif not np.array_equal(cloud.points[:, 2].astype(np.float32),
                                    -depth.data.ravel().astype(np.float32)):
                problems.append("PLY z differs from -depth at float32")
            tally.record(f"op {j} frame {i}", problems)
        shutil.rmtree(out, ignore_errors=True)

    def summarize(self, tally: Tally) -> tuple[dict, dict]:
        metrics = {"frames_per_s_norm": median_rate(tally, normalised=True),
                   "depth_mae_mm": float(np.mean(tally.values["depth_mae_mm"]))}
        figures = {
            "frames_per_s": (median_rate(tally), "1/s", "higher"),
            "reconstruct_frames_per_s": (median_rate(tally, ("reconstruct",)),
                                         "1/s", "higher"),
            "load_frames_per_s": (median_rate(tally, ("load",)), "1/s",
                                  "higher"),
            "op_samples": (len(tally.ops), "count", "higher"),
        }
        return metrics, figures


class LiveTrack:
    name = "live_track"
    units_per_op = 1
    trace_ops = 48  # two passes over the rendered sequence

    def setup(self, seeds: list[int], work: Path):
        cfg = cli.RunConfig(noise_sigma=NOISE_SIGMA)
        rng = np.random.default_rng(seeds[0])
        mapping, reference, illum = _deep_calibration(cfg, rng)
        geom, model = cfg.geometry(), cfg.optical()
        poses = [pose.Pose.rot_z(STEP_DEG * k) for k in range(SEQUENCE_FRAMES)]
        frames = sim.render_sequence(sim.object_depth_field("hex_nut"), poses,
                                     geom, model, illum,
                                     noise_sigma=NOISE_SIGMA, rng=rng)
        if not all(f.in_field for f in frames):
            raise RuntimeError("hex-nut sequence leaves the sensing field")
        pipeline = recon.PipelineConfig(model=mapping, geom=geom,
                                        sigma=cfg.gaussian_sigma,
                                        depth_clamp=model.thickness)
        return {"reference": reference, "pipeline": pipeline, "geom": geom,
                "images": [f.image for f in frames],
                "truths": [f.depth.data for f in frames],
                "pose": pose.Pose.identity(), "model": None}

    def op(self, state, k: int) -> Op:
        # Frame k shows the nut turned by STEP_DEG * k; the sequence repeats
        # after two symmetry periods, which the 60-degree symmetry allows.
        image = state["images"][k % SEQUENCE_FRAMES]
        t0 = time.perf_counter()
        depth = recon.reconstruct(state["reference"], image, state["pipeline"])
        cloud = recon.depth_rim_pointcloud(depth, state["geom"])
        if len(cloud) > MAX_TRACK_POINTS:
            cloud = PointCloud(cloud.points[::-(-len(cloud) // MAX_TRACK_POINTS)])
        if state["model"] is None:
            state["model"] = cloud
        report = pose.icp(state["model"], cloud, init=state["pose"])
        state["pose"] = report.pose
        t1 = time.perf_counter()
        return Op(1, {"frame": t1 - t0}, (depth, report))

    def check(self, state, k: int, op: Op, tally: Tally) -> None:
        depth, report = op.outputs
        problems = []
        mae = _mae(depth.data, state["truths"][k % SEQUENCE_FRAMES])
        err = abs((report.pose.z_angle_deg() - STEP_DEG * k
                   + NUT_SYMMETRY_DEG / 2) % NUT_SYMMETRY_DEG
                  - NUT_SYMMETRY_DEG / 2)
        tally.add("depth_mae_mm", mae)
        tally.add("track_err_deg", err)
        if not mae <= MAE_LIMIT_MM:
            problems.append(f"depth MAE {mae:.4f} mm > {MAE_LIMIT_MM}")
        if not err <= TRACK_LIMIT_DEG:
            problems.append(f"tracking error {err:.3f} deg > {TRACK_LIMIT_DEG}")
        tally.record(f"frame {k}", problems)

    def summarize(self, tally: Tally) -> tuple[dict, dict]:
        latency = [1e3 * op.seconds["frame"] for op in tally.ops]
        metrics = {"frames_per_s_norm": median_rate(tally, normalised=True),
                   "depth_mae_mm": float(np.mean(tally.values["depth_mae_mm"]))}
        figures = {
            "frames_per_s": (median_rate(tally), "1/s", "higher"),
            "frame_ms_p50": (float(np.percentile(latency, 50)), "ms", "lower"),
            "frame_ms_p90": (float(np.percentile(latency, 90)), "ms", "lower"),
            "frame_samples": (len(latency), "count", "higher"),
            "track_err_deg_max": (max(tally.values["track_err_deg"]), "deg",
                                  "lower"),
        }
        return metrics, figures


class CalibEval:
    name = "calib_eval"
    units_per_op = 1
    trace_ops = 3

    def setup(self, seeds: list[int], work: Path):
        return {"cfg": cli.RunConfig.load(None, seed=seeds[0],
                                          noise_sigma=NOISE_SIGMA)}

    def op(self, state, j: int) -> Op:
        # Every operation repeats the same study: it seeds its own generator.
        t0 = time.perf_counter()
        report = cli.run_evaluation(state["cfg"], schemes=(EVAL_SCHEME,))
        t1 = time.perf_counter()
        return Op(PRESSES_PER_SCHEME, {"scheme": t1 - t0}, report)

    def check(self, state, j: int, op: Op, tally: Tally) -> None:
        cell = op.outputs["schemes"].get(EVAL_SCHEME, {"error": "missing"})
        problems = [cell["error"]] if "error" in cell else []
        for key in ("single_mae", "regression_mae"):
            value = cell.get(key, math.nan)
            if not math.isfinite(value):
                problems.append(f"{key} is {value}")
            else:
                tally.add(f"{key}_mm", value)
        single = cell.get("single_mae", math.nan)
        if not single <= MAE_LIMIT_MM:
            problems.append(f"single-image MAE {single} mm > {MAE_LIMIT_MM}")
        tally.record(f"op {j} scheme {EVAL_SCHEME}", problems)

    def summarize(self, tally: Tally) -> tuple[dict, dict]:
        regression = float(np.mean(tally.values["regression_mae_mm"]))
        metrics = {"frames_per_s_norm": median_rate(tally, normalised=True),
                   "depth_mae_mm": regression}
        figures = {
            "frames_per_s": (median_rate(tally), "1/s", "higher"),
            "scheme_s": (PRESSES_PER_SCHEME / median_rate(tally), "s", "lower"),
            "op_samples": (len(tally.ops), "count", "higher"),
            "single_mae_mm": (float(np.mean(tally.values["single_mae_mm"])),
                              "mm", "lower"),
            "regression_mae_mm": (regression, "mm", "lower"),
        }
        return metrics, figures


WORKLOADS = {w.name: w for w in (BatchReconstruct(), LiveTrack(), CalibEval())}
