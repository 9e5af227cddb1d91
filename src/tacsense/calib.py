"""Intensity-to-depth calibration from ball-press images.

Two models are produced: a 256-entry mapping list built from a single
press, and a radial linear-regression model fitted across many presses.
Either one is stored as a JSON calibration file.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .core import (
    DegenerateFitError,
    DepthMap,
    DifferenceImage,
    GeometryError,
    InsufficientContactError,
    NoContactError,
    SensorError,
    SensorGeometry,
    _freeze,
    _seal,
    average_frames,  # noqa: F401  (part of this module's API)
    mask_box,
    pixel_box,
    pixel_to_surface,
)
from .fileio import FormatError, check_fields, read_json, write_json
from .recon import contact_window
from .sim import sphere_press_depth

CALIB_FORMAT = "tacsense-calib-v1"
CONTACT_THRESHOLD = 5  # smallest intensity drop counted as contact
MAX_SAMPLES_PER_PRESS = 1000
MIN_CONTACT_PIXELS = 32
MIN_BOUNDARY_PIXELS = 8
MIN_REGRESSION_SAMPLES = 100


RADIUS_SOURCES = ("refined", "few_edge_annuli", "non_negative_slope",
                  "root_outside_band")


@dataclass(frozen=True)
class ContactCircle:
    """Sub-pixel contact circle in crop-frame pixel coordinates.

    `radius_source` says how the radius was found: "refined" to the zero
    crossing of the radial profile, or the reason the circle fit's radius
    was kept (one of RADIUS_SOURCES).
    """

    center_u: float
    center_v: float
    radius: float
    radius_source: str = "refined"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")
        if self.radius_source not in RADIUS_SOURCES:
            raise ValueError(f"unknown radius source {self.radius_source!r}")


@dataclass(frozen=True)
class MappingList:
    """256 depth entries indexed by integer intensity difference.

    `depths` is float64, as a calibration file stores it; `depth` looks up a
    float32 copy of it, made once.
    """

    depths: np.ndarray
    max_calibrated: int
    _depths32: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=np.float64)
        if d.shape != (256,):
            raise ValueError(f"mapping list must have 256 entries, got {d.shape}")
        if not np.isfinite(d).all():
            raise ValueError("mapping list entries must be finite")
        if d[0] != 0.0:
            raise ValueError("mapping list entry for zero difference must be zero")
        if np.any(np.diff(d) < 0):
            raise ValueError("mapping list entries must be monotone non-decreasing")
        if not 0 <= self.max_calibrated <= 255:
            raise ValueError("max_calibrated out of range")
        object.__setattr__(self, "depths", _freeze(d))
        object.__setattr__(self, "_depths32", _seal(d.astype(np.float32)))

    def depth(self, deltas: np.ndarray, region=...) -> np.ndarray:
        """float32 depth in mm of each integer intensity difference, by table
        lookup wherever `region` places them in the frame; a fresh array."""
        deltas = np.asarray(deltas)
        # uint8 differences index the table as they are, without an intp copy;
        # np.take gathers ~2x faster than fancy indexing.
        return np.take(self._depths32, deltas if deltas.dtype == np.uint8
                       else deltas.astype(np.intp))


@dataclass(frozen=True)
class RegressionModel:
    """Depth = (k_c * distance-to-center + b_c) * intensity difference."""

    k_c: float
    b_c: float
    center_u: float
    center_v: float

    def __post_init__(self):
        for key in ("k_c", "b_c", "center_u", "center_v"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")

    def slope(self, u, v):
        r = np.hypot(np.asarray(u, dtype=np.float64) - self.center_u,
                     np.asarray(v, dtype=np.float64) - self.center_v)
        return self.k_c * r + self.b_c

    def depth(self, deltas: np.ndarray, region=...) -> np.ndarray:
        """float32 depth in mm of each pixel of a difference image, from its own
        float32 slope; a fresh array. `region`, a (rows, cols) pair of slices,
        places `deltas` in the frame (by default at pixel (0, 0))."""
        v0, u0 = (0, 0) if region is ... else (s.start or 0 for s in region)
        h, w = deltas.shape
        slopes = self.slope(np.arange(u0, u0 + w), np.arange(v0, v0 + h)[:, None])
        return slopes.astype(np.float32) * deltas


def fit_circle_kasa(us: np.ndarray, vs: np.ndarray) -> tuple[float, float, float]:
    """Algebraic least-squares circle fit (Kasa method)."""
    us = np.asarray(us, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    a = np.column_stack([us, vs, np.ones_like(us)])
    b = us ** 2 + vs ** 2
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cu = sol[0] / 2.0
    cv = sol[1] / 2.0
    r2 = sol[2] + cu ** 2 + cv ** 2
    if r2 <= 0:
        raise GeometryError("degenerate circle fit")
    return cu, cv, math.sqrt(r2)


def _boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Mask pixels with a four-neighbour outside the mask (off-image is inside)."""
    return mask & ~ndimage.binary_erosion(mask, border_value=1)


def _refine_radius(delta: np.ndarray, cu: float, cv: float,
                   r0: float) -> tuple[float, str]:
    """Extrapolate the radial intensity profile to its zero crossing.

    The threshold contour sits inside the true contact edge wherever the
    intensity ramps up gradually; extrapolating the near-edge annulus means
    down to zero recovers the contact radius at sub-pixel accuracy. Returns
    the radius and its source: "refined", or why r0 was kept instead.
    """
    band_half = 20.0
    # Only the band's bounding box can hold band pixels; its row-major pixel
    # order matches the full frame's, so the annulus sums are the same.
    rows, cols = pixel_box(cu, cv, r0 + band_half, delta.shape)
    delta = delta[rows, cols]
    rad = np.hypot(np.arange(cols.start, cols.stop) - cu,
                   (np.arange(rows.start, rows.stop) - cv)[:, None])
    r_lo = max(r0 - band_half, 0.0)
    band = (rad > r_lo) & (rad < r0 + band_half)
    bins = np.floor(rad[band] - r_lo).astype(np.intp)
    sums = np.bincount(bins, weights=delta[band].astype(np.float64))
    counts = np.bincount(bins)
    profile = sums / np.maximum(counts, 1)
    centers = np.arange(len(profile)) + 0.5 + r_lo
    # Noise clamping lifts the zero-contact floor; reference it out using
    # the outermost annuli of the band.
    tail = profile[centers > r0 + band_half / 2.0]
    if tail.size:
        profile = profile - tail.mean()
    near_edge = (profile >= 0.4 * CONTACT_THRESHOLD) & (profile <= 2 * CONTACT_THRESHOLD)
    if near_edge.sum() < 3:
        return r0, "few_edge_annuli"
    slope, intercept = np.polyfit(centers[near_edge], profile[near_edge], 1)
    if slope >= 0:
        return r0, "non_negative_slope"
    root = -intercept / slope
    if not (r_lo < root < r0 + band_half):
        return r0, "root_outside_band"
    return float(root), "refined"


def detect_contact_circle(diff: DifferenceImage) -> ContactCircle:
    """Fit a circle to the boundary of the contact blob (>= CONTACT_THRESHOLD).

    The blob is searched for only inside `recon.contact_window(diff)`, the
    contact that reconstruction maps; pixels outside it count as no contact,
    so where the window ends inside the frame its edge is blob boundary.
    NoContactError is raised when no pixel of the frame reaches the
    threshold, or when none inside the window does, as in a frame with no
    window.

    The center comes from an algebraic circle fit of the contour; the
    radius is then refined to the zero crossing of the radial profile so it
    tracks the true contact edge rather than the threshold contour.
    """
    window = contact_window(diff)
    mask = np.zeros(diff.pixels.shape, dtype=bool)
    if window is not None:
        mask[window] = diff.pixels[window] >= CONTACT_THRESHOLD
    if not mask.any():
        if (diff.pixels >= CONTACT_THRESHOLD).any():
            raise NoContactError(f"pixels reach threshold {CONTACT_THRESHOLD} only "
                                 f"outside the contact window")
        raise NoContactError(f"no pixel reaches threshold {CONTACT_THRESHOLD}")
    # Salt noise can clear the threshold in isolated pixels; keep only the
    # largest connected blob. Every blob lies in the mask's box, so labelling
    # the box finds the same blobs in the same order as the full frame.
    rows, cols = mask_box(mask, pad=1)
    labels, count = ndimage.label(mask[rows, cols])
    blob = 1 if count == 1 else int(np.bincount(labels.ravel())[1:].argmax()) + 1
    blob_mask = labels == blob
    # The padded boxes stop short of 1 px beyond the blob only at the image
    # edge, where the erosion's border value counts off-image as inside, as
    # it does for the full frame.
    blob_rows, blob_cols = mask_box(blob_mask, pad=1)
    boundary = _boundary_mask(blob_mask[blob_rows, blob_cols])
    vs, us = np.divmod(np.flatnonzero(boundary), boundary.shape[1])
    if len(us) < MIN_BOUNDARY_PIXELS:
        raise InsufficientContactError(
            f"only {len(us)} boundary pixels, need {MIN_BOUNDARY_PIXELS}")
    cu, cv, r = fit_circle_kasa(us + (cols.start + blob_cols.start),
                                vs + (rows.start + blob_rows.start))
    r, source = _refine_radius(diff.pixels, cu, cv, r)
    return ContactCircle(center_u=cu, center_v=cv, radius=r, radius_source=source)


def analytic_ball_depth(circle: ContactCircle, ball_radius: float,
                        geom: SensorGeometry) -> DepthMap:
    """Ground-truth depth map implied by a detected contact circle.

    The contact radius in mm fixes the press depth of a ball of known
    radius; the spherical-cap profile is then evaluated on the pixel grid.
    """
    a_mm = circle.radius * geom.pixel_pitch
    if a_mm >= ball_radius:
        raise GeometryError(
            f"contact radius {a_mm:.3f} mm not smaller than ball radius {ball_radius}")
    # Not the stable a^2 / (R + sqrt(R^2 - a^2)): on a 1e150 mm ball its 4.9e-150 mm
    # passes, and sphere_press_depth's cap cancels that to an all-zero truth map.
    d_max = ball_radius - math.sqrt(ball_radius ** 2 - a_mm ** 2)
    if d_max <= 0:
        raise GeometryError(f"contact radius {a_mm:.3f} mm gives a press depth of 0 "
                            f"on ball radius {ball_radius}")
    center = pixel_to_surface(geom, circle.center_u, circle.center_v)
    return sphere_press_depth(geom, ball_radius, d_max, center=center)


def isotonic_non_decreasing(values: np.ndarray,
                            weights: np.ndarray | None = None) -> np.ndarray:
    """Pool-adjacent-violators projection onto non-decreasing sequences."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.ones_like(values) if weights is None else np.asarray(weights, np.float64)
    # Blocks of (mean, weight, count), merged while the tail decreases.
    blocks: list[tuple[float, float, int]] = []
    for v, w in zip(values, weights):
        blocks.append((float(v), float(w), 1))
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            (m2, w2, c2), (m1, w1, c1) = blocks.pop(), blocks.pop()
            blocks.append(((m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2, c1 + c2))
    return np.repeat([m for m, _, _ in blocks], [c for _, _, c in blocks])


def build_mapping_list(diff: DifferenceImage, truth: DepthMap,
                       circle: ContactCircle) -> MappingList:
    """Single-press mapping list: mean true depth per observed intensity value.

    Gaps between observed values are filled by linear interpolation, the
    result is made monotone by isotonic regression, and entries above the
    largest calibrated value are held constant.
    """
    if diff.pixels.shape != truth.data.shape:
        raise ValueError("difference image and truth depth map are not aligned")
    # Pixels of the circle's bounding box, in the full frame's row-major order.
    rows, cols = pixel_box(circle.center_u, circle.center_v, circle.radius,
                           diff.pixels.shape)
    inside = ((np.arange(cols.start, cols.stop) - circle.center_u) ** 2
              + ((np.arange(rows.start, rows.stop) - circle.center_v) ** 2)[:, None]
              <= circle.radius ** 2)
    if inside.sum() < MIN_CONTACT_PIXELS:
        raise InsufficientContactError(
            f"contact circle covers {int(inside.sum())} pixels, "
            f"need {MIN_CONTACT_PIXELS}")
    deltas = diff.pixels[rows, cols][inside].astype(np.intp)
    depths = truth.data[rows, cols][inside]
    sums = np.bincount(deltas, weights=depths, minlength=256)
    counts = np.bincount(deltas, minlength=256)
    observed = counts > 0
    observed[0] = True  # zero difference is zero depth by definition
    sums[0] = 0.0
    counts[0] = max(counts[0], 1)
    idx = np.nonzero(observed)[0]
    max_calibrated = int(idx.max())
    entries = np.zeros(256)
    means = sums[idx] / counts[idx]
    # Interpolate interior gaps, clamp above the calibrated range.
    entries[: max_calibrated + 1] = np.interp(
        np.arange(max_calibrated + 1), idx, means)
    entries[max_calibrated + 1:] = entries[max_calibrated]
    weights = np.ones(256)
    weights[idx] = counts[idx]
    # Entries are >= 0 and entry 0 is 0: the projection keeps both so.
    return MappingList(depths=isotonic_non_decreasing(entries, weights),
                       max_calibrated=max_calibrated)


def collect_samples(diff: DifferenceImage, truth: DepthMap, circle: ContactCircle,
                    center: tuple[float, float], rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(deltas, depths, radii in px) of up to MAX_SAMPLES_PER_PRESS pixels with both
    non-zero, drawn by `rng`. `truth`, the analytic depth of `circle`, is zero
    outside it, so only the circle's box is scanned, in full-frame pixel order."""
    if diff.pixels.shape != truth.data.shape:
        raise ValueError("difference image and truth depth map are not aligned")
    rows, cols = pixel_box(circle.center_u, circle.center_v, circle.radius,
                           diff.pixels.shape)
    sampled = (diff.pixels[rows, cols] >= 1) & (truth.data[rows, cols] > 0)
    flat = np.flatnonzero(sampled)
    if len(flat) > MAX_SAMPLES_PER_PRESS:
        flat = flat[rng.choice(len(flat), size=MAX_SAMPLES_PER_PRESS, replace=False)]
    vs, us = np.divmod(flat, sampled.shape[1])
    us, vs = us + cols.start, vs + rows.start
    deltas = diff.pixels[vs, us].astype(np.float64)
    depths = truth.data[vs, us]
    return deltas, depths, np.hypot(us - center[0], vs - center[1])


def fit_regression(deltas: np.ndarray, depths: np.ndarray, radii: np.ndarray,
                   center: tuple[float, float]) -> RegressionModel:
    """Two-stage radial fit: per-sample slope depth/delta, then OLS slope vs radius."""
    if np.any(deltas < 1):
        raise ValueError("zero-difference samples carry no slope information")
    if np.any(depths <= 0):
        raise ValueError("sample depth must be positive")
    if len(deltas) < MIN_REGRESSION_SAMPLES:
        raise DegenerateFitError(
            f"need >= {MIN_REGRESSION_SAMPLES} samples, got {len(deltas)}")
    if np.ptp(radii) < 1e-9:
        raise DegenerateFitError("samples span a single radius")
    k_c, b_c = np.polyfit(radii, depths / deltas, 1)
    model = RegressionModel(k_c=float(k_c), b_c=float(b_c),
                            center_u=center[0], center_v=center[1])
    if model.slope(0, 0) <= 0 or model.slope(radii.max() + center[0], center[1]) <= 0:
        raise DegenerateFitError("fitted slope is not positive over the sampled range")
    return model


def calibrate_single(diff: DifferenceImage, ball_radius: float,
                     geom: SensorGeometry) -> MappingList:
    """Mapping list from one ball press of known radius."""
    circle = detect_contact_circle(diff)
    truth = analytic_ball_depth(circle, ball_radius, geom)
    return build_mapping_list(diff, truth, circle)


def calibrate_regression(diffs: Iterable[DifferenceImage], ball_radius: float,
                         geom: SensorGeometry, scheme: str,
                         rng: np.random.Generator) -> RegressionModel:
    """Radial regression model from ball presses under an illumination scheme.

    Each press's contact circle is found as its difference arrives, which
    draws nothing from `rng`; once `diffs` is exhausted, each press's truth
    is built and its samples drawn, in press order. A press that fails is
    named by its index, and the first failure in that order is raised.
    """
    # The corner-cluster scheme darkens away from its corner, so the radial
    # model is centred there instead of at the image centre.
    if scheme == "s4":
        center = (geom.crop_size - 1.0, 0.0)
    else:
        center = (geom.crop_size / 2.0, geom.crop_size / 2.0)
    found = []  # (difference, its circle or the error finding it)
    for diff in diffs:
        try:
            found.append((diff, detect_contact_circle(diff)))
        except (SensorError, ValueError) as exc:  # raised below, in press order
            found.append((diff, exc))
    samples = []
    for i, (diff, circle) in enumerate(found):
        try:
            if not isinstance(circle, ContactCircle):
                raise circle
            truth = analytic_ball_depth(circle, ball_radius, geom)
            samples.append(collect_samples(diff, truth, circle, center, rng))
        except (SensorError, ValueError) as exc:
            raise type(exc)(f"press {i}: {exc}") from exc
    deltas, depths, radii = map(np.concatenate, zip(*samples))
    return fit_regression(deltas, depths, radii, center)


def save_calibration(path, model: MappingList | RegressionModel,
                     thickness: float) -> None:
    """Write a calibration file for a layer of the given thickness."""
    if isinstance(model, MappingList):
        method, fields = "single", {"entries": model.depths.tolist(),
                                    "max_calibrated": model.max_calibrated}
    else:
        method, fields = "regression", {"k_c": model.k_c, "b_c": model.b_c,
                                        "center_u": model.center_u,
                                        "center_v": model.center_v}
    payload = {"format": CALIB_FORMAT, "method": method, "thickness": thickness}
    write_json(path, {**payload, **fields})


# Keys of each method's model in a calibration file; see fileio.check_fields.
_MODEL_FIELDS = {
    "single": {"entries": "numbers", "max_calibrated": "int"},
    "regression": {"k_c": "number", "b_c": "number",
                   "center_u": "number", "center_v": "number"},
}


def load_calibration(path) -> tuple[MappingList | RegressionModel, float]:
    """Read a calibration file: the model and the layer thickness."""
    payload = read_json(path)
    check_fields(path, payload, {"format": (CALIB_FORMAT,),
                                 "method": tuple(_MODEL_FIELDS),
                                 "thickness": "number"})
    method = payload["method"]
    check_fields(path, payload, _MODEL_FIELDS[method])
    try:
        if method == "single":
            model = MappingList(depths=np.array(payload["entries"]),
                                max_calibrated=payload["max_calibrated"])
        else:
            model = RegressionModel(k_c=payload["k_c"], b_c=payload["b_c"],
                                    center_u=payload["center_u"],
                                    center_v=payload["center_v"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return model, payload["thickness"]
