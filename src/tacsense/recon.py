"""Depth reconstruction pipeline: crop, difference, map, denoise, project."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.ndimage import correlate1d

from .core import (
    EMPTY_BOX,
    Cylinder,
    DepthMap,
    DifferenceImage,
    GrayImage,
    Planar,
    PointCloud,
    SensorGeometry,
    Sphere,
    SurfaceShape,
    _seal,
    mask_box,
    surface_axis,
)

if TYPE_CHECKING:
    from .calib import MappingList, RegressionModel

CONTACT_MIN_DEPTH = 0.05  # mm; shallower pixels are not in contact
PLATEAU_FRAC = 0.92       # rim pixels are shallower than this share of the deepest
MAX_ICP_POINTS = 4000     # cap on the points of a rim cloud
BLOCK = 4                 # px side of the blocks the contact gate sums
GATE_RATIO = 1.25         # a contact block's drop sum exceeds this many noise floors
WINDOW_HALO = 8           # px around the contact blocks kept in the window
DENOISE_TAPS = 7          # taps of the Gaussian; its two passes read 6 px each side


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the per-frame pipeline needs besides the two images."""

    model: MappingList | RegressionModel
    geom: SensorGeometry = field(default_factory=SensorGeometry)
    sigma: float = 1.5
    depth_clamp: float = 2.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.depth_clamp <= 0:
            raise ValueError("depth clamp must be positive")


def _block_sums(pixels: np.ndarray) -> np.ndarray:
    """uint16 sum of each BLOCK x BLOCK block of a uint8 image (at most
    16 * 255); the blocks at the right and bottom edges may be partial."""
    out = pixels
    for axis in (0, 1):
        view = np.moveaxis(out, axis, 0)
        acc = view[0::BLOCK].astype(np.uint16)
        for k in range(1, BLOCK):
            part = view[k::BLOCK]
            acc[:len(part)] += part
        out = np.moveaxis(acc, 0, axis)
    return out


def difference(reference: GrayImage, contact: GrayImage) -> DifferenceImage:
    """Per-pixel intensity drop clamped at zero, max(ref, contact) - contact in
    uint8, and the frame's noise floor.

    A press only darkens the elastomer, so the rise max(ref, contact) - ref is
    noise alone. Its largest block sum is the noise floor that
    `contact_window` holds the drop's block sums against.
    """
    if reference.pixels.shape != contact.pixels.shape:
        raise ValueError("reference and contact image dimensions differ")
    d = np.maximum(reference.pixels, contact.pixels)
    rise = d - reference.pixels
    d -= contact.pixels
    return DifferenceImage(_seal(d), int(_block_sums(rise).max(initial=0)))


def contact_window(diff: DifferenceImage) -> tuple[slice, slice] | None:
    """(rows, cols) of the frame's contact window, or None without contact.

    A block is in contact when its drop sum exceeds GATE_RATIO times the
    noise floor. The window is the bounding box of those blocks plus
    WINDOW_HALO px, clipped to the frame. With a noise floor of 0 it covers
    every non-zero pixel.
    """
    marked = _block_sums(diff.pixels) > GATE_RATIO * diff.noise_floor
    if not marked.any():
        return None
    return tuple(slice(max(BLOCK * s.start - WINDOW_HALO, 0),
                       min(BLOCK * s.stop + WINDOW_HALO, n))
                 for s, n in zip(mask_box(marked), diff.pixels.shape))


def map_depth(diff: DifferenceImage, config: PipelineConfig,
              region=...) -> DepthMap:
    """The calibration model's float32 depth of each pixel of `diff`, clipped
    to the layer. `region`, a (rows, cols) pair of slices, says where `diff`
    sits in the frame (by default it is the whole frame).

    The upper bound is the largest float32 not above `depth_clamp`, so no
    depth exceeds the layer.
    """
    depth = config.model.depth(diff.pixels, region)
    clamp = np.float32(config.depth_clamp)
    if float(clamp) > config.depth_clamp:
        clamp = np.nextafter(clamp, np.float32(0))
    # The model's array is fresh, so it is clipped in place and kept.
    return DepthMap(_seal(np.clip(depth, 0, clamp, out=depth)))


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """1-D Gaussian taps normalized to sum 1."""
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-x ** 2 / (2.0 * sigma ** 2))
    return k / k.sum()


def gaussian_denoise(depth: DepthMap, config: PipelineConfig) -> DepthMap:
    """Two separable 7-tap Gaussian passes with reflection padding, as one pass.

    Reflection commutes with a symmetric kernel, so the two sequential passes
    equal one pass of the kernel convolved with itself, borders included.
    Positive taps keep non-negative depth non-negative. The taps are float64;
    the result has the depth's dtype (float32 from `map_depth`).
    """
    k = gaussian_kernel(DENOISE_TAPS, config.sigma)
    taps = np.convolve(k, k)
    out = correlate1d(depth.data, taps, axis=0, mode="reflect")
    return DepthMap(_seal(correlate1d(out, taps, axis=1, mode="reflect")))


def timed(stages: dict | None, key: str, fn, *args):
    """fn(*args); its wall time in ms goes to stages[key] unless stages is None."""
    t0 = time.perf_counter()
    result = fn(*args)
    if stages is not None:
        stages[key] = (time.perf_counter() - t0) * 1e3
    return result


def depth_from_difference(diff: DifferenceImage, config: PipelineConfig,
                          timings: dict | None = None) -> DepthMap:
    """Depth mapping then denoising of the contact window; 0 outside it.

    The result equals mapping and denoising the whole frame with every pixel
    outside `contact_window` zeroed. Only the window widened by the denoise
    pass's reach, DENOISE_TAPS - 1 px, is computed: outside that region the
    full-frame result is 0, and within it reflection at an edge inside the
    frame reads only the region's zero margin, as the full-frame pass reads
    zeros beyond it. That region is the map's box, empty without contact.
    Stage ms go to `timings`, if given.
    """
    window = contact_window(diff)
    if window is None:
        if timings is not None:
            timings.update(mapping_ms=0.0, smoothing_ms=0.0)
        return DepthMap.from_box(diff.pixels.shape, EMPTY_BOX,
                                 np.zeros((0, 0), np.float32))
    margin = DENOISE_TAPS - 1
    region = tuple(slice(max(s.start - margin, 0), min(s.stop + margin, n))
                   for s, n in zip(window, diff.pixels.shape))
    gated = np.zeros([s.stop - s.start for s in region], np.uint8)
    gated[tuple(slice(w.start - r.start, w.stop - r.start)
                for w, r in zip(window, region))] = diff.pixels[window]
    mapped = timed(timings, "mapping_ms", map_depth, DifferenceImage(_seal(gated)),
                   config, region)
    smoothed = timed(timings, "smoothing_ms", gaussian_denoise, mapped, config)
    return DepthMap.from_box(diff.pixels.shape, region, smoothed.data)


def reconstruct(reference: GrayImage, contact: GrayImage,
                config: PipelineConfig) -> DepthMap:
    """Full per-frame pipeline on cropped images."""
    return depth_from_difference(difference(reference, contact), config)


def preprocess_raw(img: GrayImage, config: PipelineConfig) -> GrayImage:
    """Centered crop of a raw full-frame image to the sensing field window."""
    geom = config.geom
    if img.height < geom.crop_size or img.width < geom.crop_size:
        raise ValueError(
            f"cannot crop {geom.crop_size} px window from {img.width}x{img.height}")
    u0 = (img.width - geom.crop_size) // 2
    v0 = (img.height - geom.crop_size) // 2
    return GrayImage(img.pixels[v0:v0 + geom.crop_size, u0:u0 + geom.crop_size])


@functools.lru_cache(maxsize=8)
def _flat_surface(geom: SensorGeometry, dtype: np.dtype) -> np.ndarray:
    """Read-only (x, y, 0) of every crop pixel in row-major order, in `dtype`,
    built once per geometry and dtype."""
    axis = surface_axis(geom)
    n = len(axis)
    flat = np.column_stack([np.tile(axis, n), np.repeat(axis, n), np.zeros(n * n)])
    return _seal(flat.astype(dtype, copy=False))


def _crop_depth(depth: DepthMap, geom: SensorGeometry) -> np.ndarray:
    """The depth's data, refused unless it has one value per crop pixel."""
    d = depth.data
    if d.shape != (geom.crop_size, geom.crop_size):
        raise ValueError(f"depth map of shape {d.shape} does not cover "
                         f"the {geom.crop_size} px crop")
    return d


def depth_to_pointcloud(depth: DepthMap, geom: SensorGeometry) -> PointCloud:
    """One point per pixel at (x, y, -depth) in the depth's dtype; z = 0 is undeformed."""
    d = _crop_depth(depth, geom)
    # The cached block is long-lived: without it each frame frees its 4 MB
    # x/y block, glibc trims the heap, and the next frame's arrays, file
    # reads included, fault their pages back in.
    pts = _flat_surface(geom, d.dtype).copy()
    np.negative(d.ravel(), out=pts[:, 2])
    # x and y are a checked geometry's axis, z a checked depth map: all finite.
    return PointCloud._of_finite(pts)


def _icp_step(n: int) -> int:
    """The stride that leaves at most MAX_ICP_POINTS of n points."""
    return max(-(-n // MAX_ICP_POINTS), 1)


def rim_band(depth: np.ndarray) -> np.ndarray:
    """Flat indices, in order, of the depths on the rim: deeper than
    CONTACT_MIN_DEPTH and shallower than PLATEAU_FRAC of the deepest."""
    return np.flatnonzero((depth > CONTACT_MIN_DEPTH)
                          & (depth < PLATEAU_FRAC * depth.max(initial=0)))


def depth_rim_pointcloud(depth: DepthMap, geom: SensorGeometry) -> PointCloud:
    """Points on the sloped rim between contact onset and the flat plateau.

    Flat-topped objects produce large constant-depth regions that are
    uninformative for in-plane registration; the rim band carries the
    object's outline geometry instead. The rim is deeper than
    CONTACT_MIN_DEPTH and shallower than PLATEAU_FRAC of the deepest pixel.
    Its pixels, in row-major order, are strided to at most MAX_ICP_POINTS.

    Each point carries the unit normal of the surface z = -depth from central
    differences of the depth map (one-sided at the image border), so
    n is proportional to (dd/dx, dd/dy, 1).
    """
    d = _crop_depth(depth, geom)
    h, w = d.shape
    # Flat indices in the support, in the frame's order: 2-D np.nonzero is ~15x slower.
    box = depth.support
    rim = rim_band(d[box])
    rows, cols = np.divmod(rim[::_icp_step(len(rim))], box[1].stop - box[1].start)
    rows, cols = rows + box[0].start, cols + box[1].start
    axis = surface_axis(geom)
    points = np.column_stack([axis[cols], axis[rows], -d[rows, cols]])
    lo, hi = np.maximum(cols - 1, 0), np.minimum(cols + 1, w - 1)
    dx = (d[rows, hi] - d[rows, lo]) / ((hi - lo) * geom.pixel_pitch)
    lo, hi = np.maximum(rows - 1, 0), np.minimum(rows + 1, h - 1)
    dy = (d[hi, cols] - d[lo, cols]) / ((hi - lo) * geom.pixel_pitch)
    normals = np.column_stack([dx, dy, np.ones_like(dx)])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(_seal(points), _seal(normals))


def depth_mae(depth: DepthMap, truth: DepthMap) -> float:
    """Mean absolute difference of two maps of one shape over the whole frame,
    read only in the union of their boxes (all of it if either has none)."""
    if depth.data.shape != truth.data.shape:
        raise ValueError("depth maps differ in shape")
    box = tuple(slice(min(a.start, b.start), max(a.stop, b.stop))
                for a, b in zip(depth.support, truth.support))
    error = np.subtract(depth.data[box], truth.data[box], dtype=np.float64)
    return float(np.abs(error, out=error).sum() / depth.data.size)


def reconstruct_cloud(diff: DifferenceImage, config: PipelineConfig) -> PointCloud:
    """Depth on config.geom, then its rim point cloud for ICP."""
    return depth_rim_pointcloud(depth_from_difference(diff, config), config.geom)


def raycast_project(depth: DepthMap, shape: SurfaceShape, geom: SensorGeometry
                    ) -> tuple[PointCloud, int]:
    """Project a depth map onto the nominal surface along per-pixel view rays.

    Each pixel's ray hits the nominal surface, then the point is moved the
    pressed depth along the ray toward the surface interior. Rays that miss
    the surface are skipped and counted. Returns (cloud, skipped count).
    """
    if isinstance(shape, Planar):
        return depth_to_pointcloud(depth, geom), 0
    d = _crop_depth(depth, geom)
    x = surface_axis(geom)
    x, y = np.broadcast_arrays(x, x[:, None])  # row-major over the crop, as d
    if isinstance(shape, Sphere):
        r = shape.radius
        rho2 = x * x + y * y
        hit = rho2 < r * r  # so r * r - rho2 > 0 on every hit
        # Radial rays from the sphere center through the field coordinates;
        # (x, y) are arc-equivalent offsets of the cap around +z.
        dirs = np.column_stack([x[hit], y[hit], np.sqrt(r * r - rho2[hit])]) / r
        base = np.asarray(shape.center, dtype=np.float64)
    elif isinstance(shape, Cylinder):
        axis = np.asarray(shape.axis, dtype=np.float64)
        # Outward direction at the field center: z component orthogonal to the axis.
        n0 = np.array([0.0, 0.0, 1.0]) - axis[2] * axis
        if np.linalg.norm(n0) < 1e-9:
            raise ValueError("cylinder axis may not be parallel to the view axis z")
        n0 /= np.linalg.norm(n0)
        e = np.cross(axis, n0)
        # x wraps around the circumference (arc length), y runs along the axis.
        phi = x / shape.radius
        hit = np.abs(phi) <= math.pi
        dirs = np.cos(phi[hit])[:, None] * n0 + np.sin(phi[hit])[:, None] * e
        base = np.asarray(shape.point, dtype=np.float64) + y[hit][:, None] * axis
    else:
        raise TypeError(f"unknown surface shape {type(shape).__name__}")
    pts = base + dirs * (shape.radius - d[hit])[:, None]
    return PointCloud(pts), int((~hit).sum())
