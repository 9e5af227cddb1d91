"""Forward sensor model: renders tactile grayscale images from depth fields.

The optical law is a saturating-reflectance stand-in: a pixel over remaining
layer thickness t reflects C + A * (1 - exp(-beta * t)). It is monotone
(deeper press -> darker pixel) and deliberately nonlinear, so a linear
intensity-to-depth model exhibits visible mismatch.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (EMPTY_BOX, DepthMap, GrayImage, Pose, SensorGeometry, _freeze, _seal,
                   average_frames, mask_box, pixel_box, surface_axis)

PLACEMENTS = ("center", "random")

DEFAULT_LED_SIGMA = 700.0
RING_RADIUS_FRAC = 0.8  # LED ring radius as a share of the crop size

# Each scheme's LED angles in radians on the 8-position ring (a WS2812B-8).
_RING = np.arange(8) * (2.0 * math.pi / 8.0)
_LED_ANGLES = {
    "standard": _RING,
    "s1": _RING[:4],            # adjacent half ring
    "s2": _RING[::2],           # alternating
    "s3": _RING[[0, 1, 4, 5]],  # two opposing adjacent pairs
    # clustered in the upper-right octant
    "s4": -math.pi / 4.0 + np.deg2rad(np.linspace(-11.25, 11.25, 4)),
}
SCHEMES = tuple(_LED_ANGLES)


@dataclass(frozen=True)
class OpticalModel:
    """Parameters of the intensity law I(t) = ambient + gain * (1 - exp(-attenuation * t))."""

    thickness: float = 2.0      # mm, semitransparent layer
    attenuation: float = 1.2    # 1/mm
    gain: float = 180.0         # gray levels
    ambient: float = 10.0       # gray levels

    def __post_init__(self):
        # `not x > 0` refuses NaN too.
        for key in ("thickness", "attenuation", "gain"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)!r}")
        if not math.isfinite(self.attenuation * self.thickness):
            raise ValueError(f"attenuation * thickness must be finite, got "
                             f"{self.attenuation!r} * {self.thickness!r}")
        if not self.ambient >= 0:
            raise ValueError(f"ambient must be non-negative, got {self.ambient!r}")
        if self.ambient + self.gain > 255:
            raise ValueError("ambient + gain must not exceed 255 (reference would clip)")

    def intensity(self, depth):
        """Pre-noise, unit-illumination intensity for pressed depth in mm."""
        t = self.thickness - np.asarray(depth, dtype=np.float64)
        return self.ambient + self.gain * (1.0 - np.exp(-self.attenuation * t))


@dataclass(frozen=True)
class IlluminationField:
    """Per-pixel multiplicative gain in (0, 1], normalized so max = 1."""

    gains: np.ndarray
    _flat_frames: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=np.float64)
        if g.ndim != 2:
            raise ValueError("illumination field must be 2-D")
        # `not x > 0` refuses NaN too.
        if not (g.min() > 0 and g.max() <= 1):
            raise ValueError("illumination gains must lie in (0, 1]")
        if abs(g.max() - 1.0) > 1e-12:
            raise ValueError("illumination field must be normalized to max 1")
        object.__setattr__(self, "gains", _freeze(g))

    def flat_frame(self, model: OpticalModel, rounded: bool = False) -> np.ndarray:
        """Read-only noise-free intensity with no contact, built once per model;
        `rounded`, its uint8 pixels, which a noiseless render starts from."""
        frame = self._flat_frames.get((model, rounded))
        if frame is None:
            frame = (GrayImage.from_float(self.flat_frame(model).copy()).pixels
                     if rounded else _seal(self.gains * model.intensity(0.0)))
            self._flat_frames[model, rounded] = frame
        return frame


@functools.lru_cache(maxsize=1)  # callers light one field at a time
def make_illumination(scheme: str, crop_size: int, *,
                      led_sigma: float) -> IlluminationField:
    """Sum-of-Gaussians field from LEDs on a ring around the image center.

    The standard scheme lights all eight ring positions; s1..s4 are
    four-LED subsets (half ring, alternating, opposing pairs, corner
    cluster). The field is normalized so its maximum gain is 1. A led_sigma
    that leaves a pixel unlit is refused; the last field built is kept.
    """
    if scheme not in _LED_ANGLES:
        raise ValueError(f"unknown illumination scheme {scheme!r}")
    ring_radius = RING_RADIUS_FRAC * crop_size
    center = (crop_size - 1) / 2.0
    pixels = np.arange(crop_size, dtype=np.float64)
    gains = np.zeros((crop_size, crop_size))
    # led_sigma ** 2 may be 0 or subnormal; the check below refuses that field.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a in _LED_ANGLES[scheme]:
            lu = center + ring_radius * math.cos(a)
            lv = center + ring_radius * math.sin(a)
            r2 = (pixels - lu) ** 2 + ((pixels - lv) ** 2)[:, None]  # u across, v down
            gains += np.exp(-r2 / (2.0 * led_sigma ** 2))
    if not gains.min() > 0:
        raise ValueError(f"{led_sigma!r} is too small: the LED light underflows "
                         f"to 0 on the {crop_size} px field")
    gains /= gains.max()
    return IlluminationField(gains=_seal(gains))


def uniform_illumination(crop_size: int) -> IlluminationField:
    return IlluminationField(gains=_seal(np.ones((crop_size, crop_size))))


# A reach of this many pixels or more gives the whole frame.
_MAX_HALF_PX = 1e6


def _reach_box(reach: float, origin, geom: SensorGeometry) -> tuple[slice, slice]:
    """(rows, cols) of every pixel within `reach` mm of `origin` = (x, y) mm,
    from `pixel_box`; the whole frame for a reach of _MAX_HALF_PX or more."""
    size, pitch = geom.crop_size, geom.pixel_pitch
    half = max(reach, 0.0) / pitch
    if not half < _MAX_HALF_PX:
        return slice(0, size), slice(0, size)
    # Python floats overflow to +-inf with no warning; a centre over half + 8 px
    # outside the frame leaves the box empty.
    u, v = (min(max(float(c) / pitch + size / 2.0, -half - 8.0), size + half + 8.0)
            for c in origin)
    return pixel_box(u, v, half, (size, size))


def _check_press_depth(radius: float, d_max: float) -> None:
    """Refuse a ball whose square overflows, and a press deeper than the ball."""
    if not math.isfinite(radius * radius):
        raise ValueError(f"ball radius {radius} must be a number whose square is finite")
    if not 0 < d_max <= radius:  # refuses NaN too
        raise ValueError(f"press depth {d_max} must be in (0, ball radius {radius}]")


def contact_radius(radius: float, d_max: float) -> float:
    """Radius in mm of the contact circle of a ball `radius` mm pressed `d_max` deep."""
    return math.sqrt(2.0 * radius * d_max - d_max ** 2)


def _cap(r2, radius: float, d_max: float):
    """Depth of the ball's spherical cap at squared distance `r2` from its axis:
    d_max - radius + sqrt(radius^2 - r2) inside the contact circle, 0 outside."""
    return np.maximum(d_max - radius + np.sqrt(np.maximum(radius ** 2 - r2, 0.0)), 0.0)


def sphere_press_depth(geom: SensorGeometry, radius: float, d_max: float,
                       center: tuple[float, float] = (0.0, 0.0),
                       thickness: float | None = None) -> DepthMap:
    """Spherical-cap indentation depth field of a rigid ball press.

    `_cap` is evaluated only in the box of its contact circle plus a margin,
    outside which it is 0 too. Refuses what _check_press_depth refuses, a
    press deeper than the layer and a centre outside the sensing field.
    """
    _check_press_depth(radius, d_max)
    if thickness is not None and d_max > thickness:
        raise ValueError(f"press depth {d_max} exceeds layer thickness {thickness}")
    half = geom.field_mm / 2.0
    if not (-half <= center[0] <= half and -half <= center[1] <= half):
        raise ValueError(f"press center {tuple(map(float, center))} outside "
                         f"sensing field")
    rows, cols = _reach_box(contact_radius(radius, d_max), center, geom)
    axis = surface_axis(geom)
    r2 = (axis[cols] - center[0]) ** 2 + ((axis[rows] - center[1]) ** 2)[:, None]
    return DepthMap.from_box((geom.crop_size,) * 2, (rows, cols),
                             _seal(_cap(r2, radius, d_max)))


def render_tactile(depth: DepthMap, model: OpticalModel, illum: IlluminationField,
                   noise_sigma: float = 0.0,
                   rng: np.random.Generator | None = None,
                   noise: np.ndarray | None = None) -> GrayImage:
    """Render a tactile frame: illumination-scaled reflectance plus noise.

    The noise is noise_sigma times a standard-normal frame of the field's
    shape: `noise`, one drawn already, or else one drawn from `rng`, never
    both. noise_sigma > 0 needs one of them. The optical law is evaluated
    only in the bounding box of the non-zero depth, sought in the map's box;
    the rest of the frame is the illumination's cached flat frame, rounded
    once when noiseless.
    """
    shape = illum.gains.shape
    if depth.data.shape != shape:
        raise ValueError("depth map and illumination field dimensions differ")
    inner = depth.support
    peak = depth.data[inner].max(initial=0)
    if peak > model.thickness + 1e-12:
        raise ValueError("depth exceeds the layer thickness of the optical model")
    if noise is not None and rng is not None:
        raise ValueError("give a noise frame or an rng, not both")
    if noise is not None and noise.shape != shape:
        raise ValueError(f"noise frame shape {noise.shape} differs from the "
                         f"field's {shape}")
    if noise_sigma > 0 and noise is None and rng is None:
        raise ValueError(f"noise_sigma {noise_sigma} needs a seeded rng")
    # With no contact the box is empty, and so is every step on its window.
    box = (tuple(slice(s.start + t.start, s.start + t.stop) for s, t in
                 zip(inner, mask_box(depth.data[inner] != 0)))
           if peak > 0 else EMPTY_BOX)
    window = illum.gains[box] * model.intensity(depth.data[box])
    if not noise_sigma > 0:
        # Rounding and clipping act pixel by pixel, so only the box needs them.
        pixels = illum.flat_frame(model, rounded=True).copy()
        pixels[box] = GrayImage.from_float(window).pixels
        return GrayImage(_seal(pixels))
    if noise is None:
        # rng.normal(0, noise_sigma)'s values and stream position, drawn
        # without its per-sample loc/scale arithmetic.
        img = rng.standard_normal(shape)
        img *= noise_sigma
    else:
        img = noise * noise_sigma
    window += img[box]
    img += illum.flat_frame(model)
    img[box] = window
    return GrayImage.from_float(img)


@dataclass
class BallPressRig:
    """Random ball presses on one simulated sensor, all drawn from `rng`.

    The no-contact `reference`, 8 frames averaged when noisy, is drawn first.
    A press is made in two steps: `_draw` takes every value it draws from
    `rng`, and `_make` builds and renders the press from them.
    """

    geom: SensorGeometry
    model: OpticalModel
    illum: IlluminationField
    noise_sigma: float
    rng: np.random.Generator

    def __post_init__(self):
        zeros = DepthMap.from_box(self.illum.gains.shape, EMPTY_BOX, np.zeros((0, 0)))
        # Each frame is drawn as it is rendered: one is held at a time.
        self.reference = self._render(zeros, self._noise(8))

    def _noise(self, count: int) -> Iterator[np.ndarray]:
        """Lazily, `count` (at least one) standard-normal frames from `rng`;
        none when noiseless."""
        if self.noise_sigma > 0:
            for _ in range(max(1, count)):
                yield self.rng.standard_normal(self.illum.gains.shape)

    def _render(self, depth: DepthMap, noise: Iterable[np.ndarray]) -> GrayImage:
        """Mean of the renders of `depth`, one per noise frame, or its one
        noiseless render when `noise` is empty."""
        frames = [render_tactile(depth, self.model, self.illum, self.noise_sigma,
                                 noise=frame) for frame in noise]
        frames = frames or [render_tactile(depth, self.model, self.illum)]
        # The mean of one uint8 frame rounds back to that frame.
        return frames[0] if len(frames) == 1 else average_frames(frames)

    def _draw(self, ball_radius: float, placement: str, count: int
              ) -> tuple[float, tuple[float, float], list[np.ndarray]]:
        """(press depth, centre, noise frames): every draw of one press from
        `rng`, in `press`'s order. The depth lies in the layer and the centre in
        the field, so only _check_press_depth may refuse it, before any noise."""
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; "
                             f"expected one of {PLACEMENTS}")
        d_max = float(self.rng.uniform(0.25, 0.95) * self.model.thickness)
        d_max = min(d_max, ball_radius)
        half = self.geom.field_mm / 2.0
        # "random" keeps the contact circle well inside; no centre leaves the field.
        lim = min(1.0 if placement == "center"
                  else max(1.0, half - contact_radius(ball_radius, d_max) - 1.0), half)
        center = tuple(self.rng.uniform(-lim, lim, size=2))
        _check_press_depth(ball_radius, d_max)
        return d_max, center, list(self._noise(count))

    def _make(self, ball_radius: float, drawn
              ) -> tuple[GrayImage, DepthMap, tuple[float, float], float]:
        """`press`'s result from `_draw`'s; it draws nothing from `rng`."""
        d_max, center, noise = drawn
        depth = sphere_press_depth(self.geom, ball_radius, d_max, center=center,
                                   thickness=self.model.thickness)
        return self._render(depth, noise), depth, center, d_max

    def press(self, ball_radius: float, placement: str, count: int = 1
              ) -> tuple[GrayImage, DepthMap, tuple[float, float], float]:
        """(image, true depth, centre, press depth) of a random press, in mm.

        `placement` is "center" (centre within 1 mm of the middle) or
        "random" (anywhere the contact circle fits in the field).
        """
        return self._make(ball_radius, self._draw(ball_radius, placement, count))

    def presses(self, ball_radius: float, placement: str, n: int, count: int = 1
                ) -> Iterator[tuple[GrayImage, DepthMap, tuple[float, float], float]]:
        """Yield, in order, what `n` calls of `press` would return.

        One worker thread makes press k + 1's draws (`_draw`) while the
        caller renders press k (`_make`) and handles it, never more than one
        ahead; numpy's generator releases the GIL while it draws the noise.
        While the generator is open, only the worker draws from `rng`, and
        only the caller renders. Exhausting or closing it joins the worker;
        closed early, it has also made the draws of the press after the last
        one yielded.
        """
        with ThreadPoolExecutor(max_workers=1) as worker:
            def submit():
                return worker.submit(self._draw, ball_radius, placement, count)

            ahead = submit() if n > 0 else None
            for k in range(n):
                drawn = ahead.result()
                ahead = submit() if k + 1 < n else None
                # Drop the rendered noise frames before the caller's turn.
                made, drawn = self._make(ball_radius, drawn), None
                yield made


def reference_image(model: OpticalModel, illum: IlluminationField) -> GrayImage:
    """Noise-free frame with no contact anywhere."""
    return render_tactile(DepthMap(_seal(np.zeros_like(illum.gains))), model, illum)


@dataclass(frozen=True)
class DepthField:
    """An object's depth in mm as a function of its coordinates (x, y) in mm.

    `reach` is the radius in mm of the disc about the object's origin outside
    which the depth is exactly 0.
    """

    depth: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reach: float

    def __call__(self, x, y):
        return self.depth(x, y)


def slab_field(depth: float = 0.5, half_size: float = 6.0) -> DepthField:
    def f(x, y):
        inside = (np.abs(x) <= half_size) & (np.abs(y) <= half_size)
        return np.where(inside, depth, 0.0)
    return DepthField(f, half_size * math.sqrt(2.0))


def ball_array_field(ball_radius: float = 1.5, d_max: float = 0.8,
                     spacing: float = 5.0, n: int = 3) -> DepthField:
    _check_press_depth(ball_radius, d_max)
    offsets = (np.arange(n) - (n - 1) / 2.0) * spacing
    # The farthest ball centre's distance plus a cap's contact radius.
    reach = (float(np.abs(offsets).max(initial=0.0)) * math.sqrt(2.0)
             + contact_radius(ball_radius, d_max))

    def f(x, y):
        depth = np.zeros_like(x)
        for ox in offsets:
            for oy in offsets:
                depth = np.maximum(depth, _cap((x - ox) ** 2 + (y - oy) ** 2,
                                               ball_radius, d_max))
        return depth
    return DepthField(f, reach)


def star_field(outer: float = 7.0, inner: float = 3.0, depth: float = 0.8,
               points: int = 5) -> DepthField:
    def f(x, y):
        theta = np.arctan2(y, x)
        r = np.hypot(x, y)
        # Star boundary radius oscillates between inner and outer with the arm count.
        phase = (theta * points) % (2.0 * math.pi)
        tri = np.abs(phase - math.pi) / math.pi  # 1 at arm tip, 0 between arms
        boundary = inner + (outer - inner) * tri
        return np.where(r <= boundary, depth, 0.0)
    return DepthField(f, max(inner, outer))


def hex_nut_field(across_flats: float = 8.0, hole_radius: float = 2.0,
                  depth: float = 0.6, rotation_deg: float = 0.0) -> DepthField:
    """Hexagonal ring imprint; 6-fold symmetric under 60 degree rotation."""
    apothem = across_flats / 2.0
    a = math.radians(rotation_deg)
    normals = [(math.cos(a + k * math.pi / 3.0), math.sin(a + k * math.pi / 3.0))
               for k in range(6)]

    def f(x, y):
        proj = np.full_like(x, -np.inf)
        for nx, ny in normals:
            proj = np.maximum(proj, nx * x + ny * y)
        inside = (proj <= apothem) & (np.hypot(x, y) >= hole_radius)
        return np.where(inside, depth, 0.0)
    return DepthField(f, apothem / math.cos(math.pi / 6.0))


def set_screw_field(diameter: float = 4.0, depth: float = 3.0,
                    tip_frac: float = 0.3) -> DepthField:
    """Cylindrical screw tip with a conical chamfer; depth may exceed the layer.

    `tip_frac`, the chamfer's share of the radius, lies in (0, 1].
    """
    # `not` refuses NaN too.
    if not 0 < tip_frac <= 1:
        raise ValueError(f"tip fraction {tip_frac} must be in (0, 1]")
    radius = diameter / 2.0

    def f(x, y):
        r = np.hypot(x, y)
        core = np.where(r <= radius * (1.0 - tip_frac), depth, 0.0)
        in_cone = (r > radius * (1.0 - tip_frac)) & (r <= radius)
        # The ramp lies in [0, depth] in the cone, so it is divided there only:
        # elsewhere a tiny tip_frac would overflow it.
        cone = np.divide(depth * (radius - r), radius * tip_frac,
                         out=np.zeros_like(r), where=in_cone)
        return core + cone
    return DepthField(f, radius)


_OBJECT_FIELDS = {
    "slab": slab_field,
    "ball_array": ball_array_field,
    "star": star_field,
    "hex_nut": hex_nut_field,
    "set_screw": set_screw_field,
}
OBJECT_KINDS = tuple(_OBJECT_FIELDS)
# The smallest turn about z, in degrees, that maps each object at its
# default parameters onto itself; None for the axisymmetric set screw.
OBJECT_SYMMETRY_DEG = {
    "slab": 90.0,
    "ball_array": 90.0,
    "star": 72.0,
    "hex_nut": 60.0,
    "set_screw": None,
}


def object_depth_field(kind: str, **params) -> DepthField:
    try:
        factory = _OBJECT_FIELDS[kind]
    except KeyError:
        raise ValueError(f"unknown object kind {kind!r}; "
                         f"known: {sorted(_OBJECT_FIELDS)}") from None
    return factory(**params)


def synth_object_depth(kind: str, geom: SensorGeometry, thickness: float = 2.0,
                       **params) -> DepthMap:
    """Evaluate a synthetic object's depth field on the pixel grid, clamped to the layer."""
    return _posed_depth(object_depth_field(kind, **params), Pose.identity(),
                        geom, thickness)[0]


@dataclass(frozen=True)
class SceneFrame:
    """One rendered frame of a sequence with its ground-truth pose."""

    image: GrayImage
    depth: DepthMap
    pose: Pose
    in_field: bool


def _posed_depth(field: DepthField, pose: Pose, geom: SensorGeometry,
                 thickness: float) -> tuple[DepthMap, bool]:
    """The posed object's depth map, and whether its contact is non-empty and
    clear of the frame's border. Only the pixel box of the field's reach is
    evaluated; every other pixel is 0."""
    size = geom.crop_size
    inv = pose.inverse()
    # A rotation whose last row is (0, 0, +-1) exactly, as every product of
    # Pose.rot_z turns, maps the object's (x, y) from the pixel's by its in-plane
    # block alone, whatever the translation's z. Orthonormal to 1e-9, that block
    # keeps the reach disc about translation[:2] to ~1e-9 of its radius: under
    # 1e-2 px below _MAX_HALF_PX. Any other pose gets the whole frame.
    rows, cols = _reach_box(math.inf if pose.rotation[2, :2].any() else field.reach,
                            pose.translation[:2], geom)
    axis = surface_axis(geom)
    x, y = axis[cols], axis[rows, None]  # rows broadcast against the columns
    # In-plane motion: transform surface coordinates back into object frame.
    ox = inv.rotation[0, 0] * x + inv.rotation[0, 1] * y + inv.translation[0]
    oy = inv.rotation[1, 0] * x + inv.rotation[1, 1] * y + inv.translation[1]
    window = np.clip(field(ox, oy), 0.0, thickness)
    contact = window > 0
    in_field = bool(contact.any()) and not (
        (rows.start == 0 and contact[0].any())
        or (rows.stop == size and contact[-1].any())
        or (cols.start == 0 and contact[:, 0].any())
        or (cols.stop == size and contact[:, -1].any()))
    return DepthMap.from_box((size, size), (rows, cols), _seal(window)), in_field


def render_sequence(field: DepthField, poses: list[Pose], geom: SensorGeometry,
                    model: OpticalModel, illum: IlluminationField,
                    noise_sigma: float = 0.0,
                    rng: np.random.Generator | None = None) -> list[SceneFrame]:
    """Render one frame per pose, each paired with its ground-truth pose.

    Frames whose contact region is empty or touches the field border are
    flagged via in_field=False rather than raising.
    """
    frames = []
    for pose in poses:
        depth, in_field = _posed_depth(field, pose, geom, model.thickness)
        img = render_tactile(depth, model, illum, noise_sigma=noise_sigma, rng=rng)
        frames.append(SceneFrame(image=img, depth=depth, pose=pose, in_field=in_field))
    return frames
