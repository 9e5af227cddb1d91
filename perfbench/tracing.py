"""In-memory span tracing of tacsense layer calls, installed from outside.

The tracer replaces public functions on the module attributes that callers
look them up through (``recon.difference``, ``cli.track_pose``,
``sim.surface_grid``, ...) with wrappers that record one span per call:
name, start, end, parent and the phase of the benchmark (set-up or run).
Nothing inside the package is edited, so a refactor behind these names
stays measurable. A name that no longer exists is listed as absent instead
of failing the run. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass

# (owner in tacsense, attribute, span name). The same function is wrapped at
# each binding callers use, always under the name of the layer defining it.
# calib reaches surface_grid only through sim today; its entry traces a
# direct import should one appear, and is reported absent until then.
WRAPPED = [
    ("fileio", "write_pgm", "fileio.write_pgm"),
    ("fileio", "read_pgm", "fileio.read_pgm"),
    ("fileio", "write_depth", "fileio.write_depth"),
    ("fileio", "read_depth", "fileio.read_depth"),
    ("fileio", "write_ply", "fileio.write_ply"),
    ("fileio", "read_ply", "fileio.read_ply"),
    ("recon", "reconstruct", "recon.reconstruct"),
    ("recon", "difference", "recon.difference"),
    ("recon", "map_depth", "recon.map_depth"),
    ("recon", "gaussian_denoise", "recon.gaussian_denoise"),
    ("recon", "depth_to_pointcloud", "recon.depth_to_pointcloud"),
    ("recon", "depth_rim_pointcloud", "recon.depth_rim_pointcloud"),
    ("pose", "icp", "pose.icp"),
    ("pose", "track_pose", "pose.track_pose"),
    ("cli", "track_pose", "pose.track_pose"),
    ("calib", "detect_contact_circle", "calib.detect_contact_circle"),
    ("calib", "analytic_ball_depth", "calib.analytic_ball_depth"),
    ("calib", "build_mapping_list", "calib.build_mapping_list"),
    ("calib", "collect_samples", "calib.collect_samples"),
    ("calib", "fit_regression", "calib.fit_regression"),
    ("calib", "average_frames", "calib.average_frames"),
    ("calib", "sphere_press_depth", "sim.sphere_press_depth"),
    ("sim", "make_illumination", "sim.make_illumination"),
    ("sim", "render_tactile", "sim.render_tactile"),
    ("sim", "sphere_press_depth", "sim.sphere_press_depth"),
    ("sim", "render_sequence", "sim.render_sequence"),
    ("core", "surface_grid", "core.surface_grid"),
    ("recon", "surface_grid", "core.surface_grid"),
    ("sim", "surface_grid", "core.surface_grid"),
    ("calib", "surface_grid", "core.surface_grid"),
    ("core.DepthMap", "__post_init__", "core.DepthMap.validate"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_simulate", "cli.cmd_simulate"),
    ("cli", "cmd_calibrate", "cli.cmd_calibrate"),
    ("cli", "cmd_reconstruct", "cli.cmd_reconstruct"),
    ("cli", "cmd_evaluate", "cli.cmd_evaluate"),
    ("cli", "cmd_track", "cli.cmd_track"),
    ("cli", "run_evaluation", "cli.run_evaluation"),
    ("cli", "calibrate_single", "cli.calibrate_single"),
    ("cli", "calibrate_regression", "cli.calibrate_regression"),
    ("cli", "save_calibration", "cli.save_calibration"),
    ("cli", "load_calibration", "cli.load_calibration"),
]

# Median milliseconds per call, reported for these spans (set-up included).
TIMED_SPANS = [
    "fileio.write_ply", "fileio.write_depth", "fileio.read_pgm",
    "fileio.read_ply", "fileio.read_depth",
    "recon.difference", "recon.map_depth.lut", "recon.map_depth.regression",
    "recon.gaussian_denoise", "recon.depth_to_pointcloud",
    "recon.depth_rim_pointcloud",
    "pose.icp",
    "calib.detect_contact_circle", "calib.build_mapping_list",
    "calib.collect_samples", "calib.fit_regression",
    "sim.make_illumination", "sim.render_tactile", "sim.sphere_press_depth",
]

_MAP_DEPTH_KINDS = {"MappingList": "lut", "RegressionModel": "regression"}


def _resolve(owner: str):
    """The tacsense module (or class, "core.DepthMap") named, or None."""
    module, *attrs = owner.split(".")
    try:
        obj = importlib.import_module(f"tacsense.{module}")
    except ImportError:
        return None
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


def _image_size(args) -> int:
    """Pixels in the first image-like argument (GrayImage, DepthMap, ...)."""
    for arg in args:
        array = getattr(arg, "pixels", getattr(arg, "data", None))
        if array is not None:
            return int(array.size)
    return 0


@dataclass(slots=True)
class Span:
    """One call: its name, clock readings, parent span index and phase."""

    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    phase: str
    attrs: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Keeps the spans of one run in memory, in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent,
                               self.phase))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one timed operation."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- installing wrappers ---------------------------------------------
    def install(self) -> None:
        for owner_name, attr, name in WRAPPED:
            owner = _resolve(owner_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{owner_name}.{attr}")
                continue
            setattr(owner, attr, self._wrapper(original, name))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrapper(self, original, name: str):
        tracer = self
        record = _RECORDERS.get(name)

        def traced(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            span_name = name
            if name == "recon.map_depth":
                model = getattr(args[1] if len(args) > 1 else kwargs.get("config"),
                                "model", None)
                kind = type(model).__name__
                span_name = f"{name}.{_MAP_DEPTH_KINDS.get(kind, kind)}"
            index = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if record is not None:
                tracer.spans[index].attrs = record(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- analysis --------------------------------------------------------
    def self_times_ns(self) -> list[int]:
        """Duration of each span minus the time its direct children cover."""
        own = [span.end_ns - span.start_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end_ns - span.start_ns
        return own

    def write(self, path) -> None:
        """One JSON object per span, with its self time."""
        own = self.self_times_ns()
        with open(path, "w", encoding="utf-8") as f:
            for span, self_ns in zip(self.spans, own):
                f.write(json.dumps(dict(asdict(span), self_ns=self_ns)) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, total and self milliseconds."""
        own = self.self_times_ns()
        out: dict[str, dict] = {}
        for span, self_ns in zip(self.spans, own):
            row = out.setdefault(span.name, {"calls": 0, "total_ms": 0.0,
                                             "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += span.ms
            row["self_ms"] += self_ns / 1e6
        return out

    def layer_metrics(self, frames: int) -> dict[str, float]:
        """Per-layer figures of the traced run; counts are per run-phase frame."""
        run = [span for span in self.spans if span.phase == "run"]

        def median_ms(spans) -> float:
            return statistics.median(s.ms for s in spans) if spans else 0.0

        def per_frame(total: float) -> float:
            return total / frames if frames else 0.0

        def run_sum(key: str) -> float:
            return sum(s.attrs.get(key, 0) for s in run if s.attrs)

        def run_calls(name: str) -> int:
            return sum(1 for s in run if s.name == name)

        metrics = {f"{name}.ms": median_ms([s for s in self.spans
                                             if s.name == name])
                   for name in TIMED_SPANS}
        metrics["fileio.bytes_written_per_frame"] = per_frame(
            run_sum("bytes_written"))
        metrics["fileio.bytes_read_per_frame"] = per_frame(run_sum("bytes_read"))
        metrics["recon.pixels_per_frame"] = per_frame(run_sum("pixels"))

        icp = [s for s in run if s.name == "pose.icp" and s.attrs]
        metrics["pose.icp.iterations_per_frame"] = per_frame(
            run_sum("iterations"))
        metrics["pose.icp.ms_per_iter"] = statistics.median(
            s.ms / max(s.attrs["iterations"], 1) for s in icp) if icp else 0.0
        metrics["pose.icp.unconverged_ratio"] = sum(
            not s.attrs["converged"] for s in icp) / len(icp) if icp else 0.0
        metrics["core.depthmap_validations_per_frame"] = per_frame(
            run_calls("core.DepthMap.validate"))
        metrics["core.surface_grid.calls_per_frame"] = per_frame(
            run_calls("core.surface_grid"))

        # CLI self time per `tacsense` command of the run phase: time in
        # cli.* spans that no wrapped child span covers.
        own = self.self_times_ns()
        per_command: dict[int, float] = {}
        for i, span in enumerate(self.spans):
            if span.phase != "run" or not span.name.startswith("cli."):
                continue
            root = i
            while (self.spans[root].name != "cli.main"
                   and self.spans[root].parent is not None):
                root = self.spans[root].parent
            per_command[root] = per_command.get(root, 0.0) + own[i] / 1e6
        metrics["cli.self_ms"] = (statistics.median(per_command.values())
                                  if per_command else 0.0)
        return metrics


def span_cost_ns(calls: int = 20000) -> float:
    """Time one traced call adds, measured on a function that does nothing.

    The wall-time difference between a traced and an untraced run is mostly
    run-to-run noise; spans times this cost bounds what tracing itself adds.
    """
    def noop():
        pass

    traced = Tracer()._wrapper(noop, "noop")
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter_ns()
    return ((t2 - t1) - (t1 - t0)) / calls


def _file_bytes(key: str):
    def record(args, result):
        return {key: os.path.getsize(args[0])}
    return record


def _pixels(args, result):
    return {"pixels": _image_size(args)}


def _icp(args, result):
    return {"iterations": result.iterations, "converged": result.converged}


_RECORDERS = {
    "fileio.write_pgm": _file_bytes("bytes_written"),
    "fileio.write_depth": _file_bytes("bytes_written"),
    "fileio.write_ply": _file_bytes("bytes_written"),
    "fileio.read_pgm": _file_bytes("bytes_read"),
    "fileio.read_depth": _file_bytes("bytes_read"),
    "fileio.read_ply": _file_bytes("bytes_read"),
    "recon.difference": _pixels,
    "recon.map_depth": _pixels,
    "recon.gaussian_denoise": _pixels,
    "recon.depth_to_pointcloud": _pixels,
    "recon.depth_rim_pointcloud": _pixels,
    "pose.icp": _icp,
}
