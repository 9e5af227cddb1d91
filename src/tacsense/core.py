"""Shared domain types: images, depth maps, sensor geometry, point clouds, poses."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# BT.601 luma weights; conventional camera-pipeline grayscale conversion.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)
ORTHONORMAL_TOL = 1e-9
MAX_FRAME_SIDE = 4096  # px: over 5x the 800x600 frame; a crop^2 float64 array <= 128 MiB


class SensorError(Exception):
    """Base class for all domain errors."""


class NoContactError(SensorError):
    pass


class InsufficientContactError(SensorError):
    pass


class DegenerateFitError(SensorError):
    pass


class GeometryError(SensorError):
    pass


class DegenerateGeometryError(SensorError):
    pass


def _freeze(arr: np.ndarray) -> np.ndarray:
    """`arr` itself if nothing can write to it, else a read-only copy.

    An array is taken as it is when it is read-only and no writable alias of
    its memory can exist: it owns its memory, or its `.base` chain ends in an
    immutable `bytes` object (an array read from a file's bytes). Any other
    array is copied, so a writable array, or a read-only view of one, can be
    changed later without changing the copy.
    """
    if not arr.flags.writeable:
        base = arr.base
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        if base is None or isinstance(base, bytes):
            return arr
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


def _seal(arr: np.ndarray) -> np.ndarray:
    """Mark a fresh array, which nothing else refers to, read-only and return it.

    A type built from it then keeps it without a copy (see `_freeze`).
    """
    arr.flags.writeable = False
    return arr


def _finite_floats(data, message: str) -> tuple[np.ndarray, float]:
    """float32 data as it is and any other dtype as float64, with its least
    value (0 if empty); ValueError(message) if a value is not finite."""
    arr = np.asarray(data)
    arr = arr if arr.dtype == np.float32 else np.asarray(arr, dtype=np.float64)
    # min and max propagate NaN, so together they see every non-finite value.
    lo, hi = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(message)
    return arr, lo


@dataclass(frozen=True)
class _Raster:
    """Validated uint8 raster; subclasses set `_kind`, their name in errors."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        self._check_shape(p.shape)
        if p.dtype != np.uint8:
            raise ValueError(f"{self._kind} must be uint8, got {p.dtype}")
        object.__setattr__(self, "pixels", _freeze(p))

    def _check_shape(self, shape: tuple) -> None:
        if len(shape) != 2:
            raise ValueError(f"{self._kind} must be 2-D, got shape {shape}")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class GrayImage(_Raster):
    """8-bit single-channel image, shape (height, width)."""

    _kind = "gray image"

    @classmethod
    def from_float(cls, arr: np.ndarray) -> "GrayImage":
        """Round and clamp a float array into [0, 255], in place: the array
        must be fresh, one that no one else holds."""
        np.round(arr, out=arr)
        np.clip(arr, 0, 255, out=arr)
        return cls(_seal(arr.astype(np.uint8)))


@dataclass(frozen=True)
class RgbImage(_Raster):
    """8-bit three-channel image, shape (height, width, 3)."""

    _kind = "rgb image"

    def _check_shape(self, shape: tuple) -> None:
        if len(shape) != 3 or shape[2] != 3:
            raise ValueError(f"rgb image must have shape (h, w, 3), got {shape}")


@dataclass(frozen=True)
class DifferenceImage(_Raster):
    """Non-negative intensity drop from reference to contact frame.

    `noise_floor` is the largest 4x4 block sum of the frame's rise, the
    brightening that a press cannot cause (see `recon.difference`); 0 for an
    image not made from two frames.
    """

    _kind = "difference image"
    noise_floor: int = 0


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel pressed depth in mm; non-negative and finite.

    float32 data stays float32 (depth from the mapping stage on, and depth
    read from a file); any other dtype becomes float64. The data is kept
    without a copy when nothing else can write to it (see `_freeze`).
    """

    data: np.ndarray

    def __post_init__(self):
        d, lo = _finite_floats(self.data, "depth map contains non-finite values")
        if d.ndim != 2:
            raise ValueError(f"depth map must be 2-D, got shape {d.shape}")
        if lo < 0:
            raise ValueError("depth map contains negative values")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class SensorGeometry:
    """Raw frame size, centered crop window, and pixel-to-mm scale."""

    raw_width: int = 800
    raw_height: int = 600
    crop_size: int = 580
    field_mm: float = 24.0

    def __post_init__(self):
        for key in ("raw_width", "raw_height", "crop_size"):
            value = getattr(self, key)
            # bool is an int subclass, but True is no pixel count.
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value <= 0:
                raise ValueError(f"{key} must be positive, got {value}")
        if self.crop_size > self.raw_width or self.crop_size > self.raw_height:
            raise ValueError("crop window does not fit inside the raw frame")
        if not (math.isfinite(self.field_mm) and self.field_mm > 0):
            raise ValueError(f"field_mm must be finite and positive, "
                             f"got {self.field_mm!r}")
        # Cloud coordinates reach field_mm / 2 and are stored as float32.
        if not self.field_mm / 2.0 <= float(np.finfo(np.float32).max):
            raise ValueError(f"field_mm / 2 must fit a float32, got {self.field_mm!r}")
        # A subnormal or zero pitch would put every pixel at x = y = 0.
        if not self.pixel_pitch >= sys.float_info.min:
            raise ValueError(f"pixel_pitch (field_mm / crop_size) must be a positive "
                             f"normal float, got {self.pixel_pitch!r}")
        for key in ("raw_width", "raw_height"):
            if getattr(self, key) > MAX_FRAME_SIDE:
                raise ValueError(f"{key} must be at most {MAX_FRAME_SIDE} px, "
                                 f"got {getattr(self, key)}")

    @property
    def pixel_pitch(self) -> float:
        """mm per pixel on the sensing field."""
        return self.field_mm / self.crop_size


def pixel_to_surface(geom: SensorGeometry, u: float, v: float) -> tuple[float, float]:
    """Map a crop-frame pixel to surface mm, origin at crop center.

    x runs rightward with u, y downward with v. Accepts the closed range
    [0, crop_size] so both field edges are addressable.
    """
    if not (0 <= u <= geom.crop_size and 0 <= v <= geom.crop_size):
        raise GeometryError(f"pixel ({u}, {v}) outside crop of size {geom.crop_size}")
    half = geom.crop_size / 2.0
    return ((u - half) * geom.pixel_pitch, (v - half) * geom.pixel_pitch)


def surface_axis(geom: SensorGeometry) -> np.ndarray:
    """mm coordinate of each crop column (x) or row (y), origin at crop center."""
    c = np.arange(geom.crop_size, dtype=np.float64) - geom.crop_size / 2.0
    c *= geom.pixel_pitch
    return c


def mask_box(mask: np.ndarray, pad: int = 0) -> tuple[slice, slice]:
    """(rows, cols) of a non-empty mask's True pixels, widened by `pad` px inside the image."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask[rows[0]:rows[-1] + 1].any(axis=0))
    return (slice(max(rows[0] - pad, 0), rows[-1] + 1 + pad),
            slice(max(cols[0] - pad, 0), cols[-1] + 1 + pad))


def pixel_box(center_u: float, center_v: float, half: float,
              shape: tuple[int, int]) -> tuple[slice, slice]:
    """(rows, cols) of an image of `shape` within `half` px of (u, v) on each
    axis, widened by a 2 px margin and clipped to the image."""
    def span(c, n):
        lo = min(max(math.floor(c - half) - 2, 0), n)
        return slice(lo, min(max(math.ceil(c + half) + 3, lo), n))
    return span(center_v, shape[0]), span(center_u, shape[1])


@dataclass(frozen=True)
class Planar:
    """Flat nominal sensing surface at z = 0."""


@dataclass(frozen=True)
class Sphere:
    """Spherical nominal surface; the sensing cap faces +z."""

    radius: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")


@dataclass(frozen=True)
class Cylinder:
    """Cylindrical nominal surface around a unit axis through a point."""

    radius: float
    axis: tuple[float, float, float] = (0.0, 1.0, 0.0)
    point: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cylinder radius must be positive")
        n = float(np.linalg.norm(self.axis))
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"cylinder axis must be unit length, |axis| = {n}")


SurfaceShape = Planar | Sphere | Cylinder


@dataclass(frozen=True)
class PointCloud:
    """Set of 3-D points in mm, shape (n, 3), with an optional normal per point.

    `normals`, if given, has the points' shape; a cloud sampled from a depth
    map carries them so that ICP need not estimate them again. As in
    `DepthMap`, float32 data stays float32 (a float32 depth map's full cloud,
    a binary PLY) and any other dtype becomes float64, kept without a copy
    when nothing else can write to it.
    """

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        p, _ = _finite_floats(self.points, "point cloud contains non-finite coordinates")
        if p.ndim != 2 or p.shape[1] != 3:
            raise ValueError(f"point cloud must have shape (n, 3), got {p.shape}")
        object.__setattr__(self, "points", _freeze(p))
        if self.normals is not None:
            n, _ = _finite_floats(self.normals, "point cloud contains non-finite normals")
            if n.shape != p.shape:
                raise ValueError(f"normals must have the points' shape {p.shape}, "
                                 f"got {n.shape}")
            object.__setattr__(self, "normals", _freeze(n))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Pose:
    """Proper rigid transform: p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        # Every comparison with NaN is false, so the checks below would pass it.
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("pose contains non-finite values")
        # An orthonormal matrix's entries lie in [-1, 1]; larger ones are
        # refused before r.T @ r can overflow.
        if (np.abs(r).max() > 1.0 + ORTHONORMAL_TOL
                or np.abs(r.T @ r - np.eye(3)).max() > ORTHONORMAL_TOL):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", _freeze(r))
        object.__setattr__(self, "translation", _freeze(t))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def rot_z(cls, angle_deg: float, translation=(0.0, 0.0, 0.0)) -> "Pose":
        a = math.radians(angle_deg)
        c, s = math.cos(a), math.sin(a)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(r, np.asarray(translation, dtype=np.float64))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.rotation.T + self.translation

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self @ other)(p) = self(other(p))."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def rotation_angle_deg(self) -> float:
        """Magnitude of the rotation, in degrees."""
        c = (np.trace(self.rotation) - 1.0) / 2.0
        return math.degrees(math.acos(min(1.0, max(-1.0, c))))

    def z_angle_deg(self) -> float:
        """In-plane rotation about z, in degrees."""
        return math.degrees(math.atan2(self.rotation[1, 0], self.rotation[0, 0]))


def gray_from_rgb(img: RgbImage) -> GrayImage:
    """BT.601 luma conversion, rounded to the nearest integer."""
    wr, wg, wb = LUMA_WEIGHTS
    p = img.pixels.astype(np.float64)
    gray = wr * p[:, :, 0] + wg * p[:, :, 1] + wb * p[:, :, 2]
    return GrayImage.from_float(gray)


def image_mean_std(img: GrayImage) -> tuple[float, float]:
    """Mean and population standard deviation over all pixels."""
    if img.pixels.size == 0:
        raise ValueError("cannot compute statistics of an empty image")
    p = img.pixels.astype(np.float64)
    return float(p.mean()), float(p.std())


def average_frames(frames: list[GrayImage]) -> GrayImage:
    """Per-pixel arithmetic mean of frames, rounded to the nearest integer."""
    if not frames:
        raise ValueError("cannot average zero frames")
    if any(f.pixels.shape != frames[0].pixels.shape for f in frames):
        raise ValueError("frame dimensions differ")
    return GrayImage.from_float(np.mean([f.pixels for f in frames], axis=0))
