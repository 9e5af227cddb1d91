import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tacsense import sim
from tacsense.core import DepthMap, SensorGeometry, image_mean_std, surface_axis
from tacsense.pose import Pose

from oracles import delta_from_depth, depth_from_delta


def full_frame_sphere(geom, radius, d_max, center):
    """The spherical-cap formula of sphere_press_depth on every pixel."""
    xx, yy = np.meshgrid(surface_axis(geom), surface_axis(geom))
    r2 = (xx - center[0]) ** 2 + (yy - center[1]) ** 2
    return np.maximum(d_max - radius + np.sqrt(np.maximum(radius ** 2 - r2, 0.0)), 0.0)


def full_frame_posed_depth(field, pose, geom, thickness):
    """_posed_depth's field evaluation, clip and contact test on every pixel."""
    x = surface_axis(geom)
    y = x[:, None]
    inv = pose.inverse()
    ox = inv.rotation[0, 0] * x + inv.rotation[0, 1] * y + inv.translation[0]
    oy = inv.rotation[1, 0] * x + inv.rotation[1, 1] * y + inv.translation[1]
    depth = np.clip(field(ox, oy), 0.0, thickness)
    contact = depth > 0
    in_field = bool(contact.any()) and not (
        contact[0, :].any() or contact[-1, :].any()
        or contact[:, 0].any() or contact[:, -1].any())
    return depth, in_field


def full_frame_render(depth, model, illum, noise_sigma=0.0, rng=None):
    """render_tactile's optical law and rng.normal noise on every pixel."""
    img = illum.gains * model.intensity(depth)
    if noise_sigma > 0:
        img = img + rng.normal(0.0, noise_sigma, size=img.shape)
    return np.clip(np.round(img), 0, 255).astype(np.uint8)


def rounded_mean(frames):
    return np.clip(np.round(np.mean(frames, axis=0)), 0, 255).astype(np.uint8)


class TestSpherePressDepth:
    def test_apex_depth(self, geom):
        depth = sim.sphere_press_depth(geom, 4.0, 1.0)
        assert depth.data.max() == pytest.approx(1.0, abs=1e-3)

    def test_zero_outside_contact(self, geom):
        depth = sim.sphere_press_depth(geom, 4.0, 1.0)
        xx, yy = np.meshgrid(*[np.arange(geom.crop_size)] * 2)
        a_px = math.sqrt(7.0) / geom.pixel_pitch
        r = np.hypot(xx - 290, yy - 290)
        assert np.all(depth.data[r > a_px + 1] == 0.0)

    def test_profile_value_at_r1(self, geom):
        # D(1.0) = 1 - 4 + sqrt(15)
        depth = sim.sphere_press_depth(geom, 4.0, 1.0)
        u = 290 + round(1.0 / geom.pixel_pitch)
        x = (u - 290) * geom.pixel_pitch
        expected = 1.0 - 4.0 + math.sqrt(16.0 - x * x)
        assert depth.data[290, u] == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.8730, abs=2e-3)

    def test_too_deep_raises(self, geom):
        with pytest.raises(ValueError):
            sim.sphere_press_depth(geom, 4.0, 4.5)
        with pytest.raises(ValueError):
            sim.sphere_press_depth(geom, 4.0, 2.5, thickness=2.0)


class TestWindowedPress:
    """The press and its render are computed in windows; full frames are the reference."""

    @settings(max_examples=80, deadline=None)
    @given(geom=st.sampled_from([SensorGeometry(),
                                 SensorGeometry(crop_size=61, field_mm=5.0)]),
           fx=st.floats(-1.0, 1.0), fy=st.floats(-1.0, 1.0),
           radius=st.floats(0.01, 8.0), frac=st.floats(1e-3, 1.0))
    @example(geom=SensorGeometry(), fx=1.0, fy=-1.0, radius=4.0, frac=1.0)
    @example(geom=SensorGeometry(), fx=-1.0, fy=0.0, radius=6.0, frac=0.5)
    @example(geom=SensorGeometry(crop_size=61, field_mm=5.0), fx=-1.0, fy=-1.0,
             radius=8.0, frac=1.0)
    def test_sphere_matches_full_frame(self, geom, fx, fy, radius, frac):
        center = (fx * geom.field_mm / 2.0, fy * geom.field_mm / 2.0)
        d_max = frac * radius
        depth = sim.sphere_press_depth(geom, radius, d_max, center=center)
        expected = full_frame_sphere(geom, radius, d_max, center)
        assert depth.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("noise_sigma", [0.0, 1.5])
    @pytest.mark.parametrize("count", [1, 4])
    def test_rig_matches_full_frame_renders(self, geom, optical, standard_illum,
                                            noise_sigma, count):
        rig = sim.BallPressRig(geom, optical, standard_illum, noise_sigma,
                               np.random.default_rng(5))
        rng = np.random.default_rng(5)

        def renders(depth, n):
            return rounded_mean([full_frame_render(depth, optical, standard_illum,
                                                   noise_sigma, rng)
                                 for _ in range(n)])

        flat = np.zeros((geom.crop_size,) * 2)
        assert np.array_equal(rig.reference.pixels,
                              renders(flat, 8 if noise_sigma > 0 else 1))
        for _ in range(2):
            image, depth, center, d_max = rig.press(4.0, "center", count)
            assert d_max == min(float(rng.uniform(0.25, 0.95) * optical.thickness), 4.0)
            assert center == tuple(rng.uniform(-1.0, 1.0, size=2))
            truth = full_frame_sphere(geom, 4.0, d_max, center)
            assert np.array_equal(depth.data, truth)
            assert np.array_equal(image.pixels, renders(truth, count))

    @pytest.mark.parametrize("kind", ["hex_nut", "set_screw", "star"])
    @pytest.mark.parametrize("noise_sigma", [0.0, 2.0])
    def test_render_matches_full_frame(self, geom, standard_illum, kind, noise_sigma):
        # Two optical models share one illumination and its cached flat frames.
        for model in (sim.OpticalModel(), sim.OpticalModel(thickness=3.0, gain=150.0)):
            depth = sim.synth_object_depth(kind, geom, thickness=model.thickness)
            image = sim.render_tactile(depth, model, standard_illum, noise_sigma,
                                       np.random.default_rng(3))
            expected = full_frame_render(depth.data, model, standard_illum,
                                         noise_sigma, np.random.default_rng(3))
            assert np.array_equal(image.pixels, expected)

    def test_flat_frame_is_cached_read_only(self, optical, standard_illum):
        frame = standard_illum.flat_frame(optical)
        assert frame is standard_illum.flat_frame(optical)
        assert not frame.flags.writeable
        assert np.array_equal(frame, standard_illum.gains * optical.intensity(
            np.zeros_like(standard_illum.gains)))


class TestOpticalModel:
    @pytest.mark.parametrize("key, value, message", [
        ("thickness", -2, "thickness must be positive, got -2"),
        ("attenuation", 0.0, "attenuation must be positive, got 0.0"),
        ("gain", math.nan, "gain must be positive, got nan"),
        ("ambient", -1.0, "ambient must be non-negative, got -1.0"),
        ("attenuation", 1.7e308, "attenuation * thickness must be finite, "
                                 "got 1.7e+308 * 2.0"),
        ("thickness", 1.6e308, "attenuation * thickness must be finite, "
                               "got 1.2 * 1.6e+308"),
    ])
    def test_each_message_names_its_key(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sim.OpticalModel(**{key: value})


class TestRenderTactile:
    def test_reference_value(self, geom, optical, uniform_illum):
        img = sim.reference_image(optical, uniform_illum)
        # round(10 + 180 * (1 - exp(-2.4))) = 174
        assert np.all(img.pixels == 174)

    def test_full_depth_leaves_only_ambient(self, geom, optical, uniform_illum):
        depth = DepthMap(np.full((geom.crop_size,) * 2, optical.thickness))
        img = sim.render_tactile(depth, optical, uniform_illum)
        assert np.all(img.pixels == 10)

    def test_deeper_is_darker(self, geom, optical, uniform_illum):
        shallow = DepthMap(np.full((geom.crop_size,) * 2, 0.5))
        deep = DepthMap(np.full((geom.crop_size,) * 2, 1.0))
        a = sim.render_tactile(shallow, optical, uniform_illum)
        b = sim.render_tactile(deep, optical, uniform_illum)
        assert a.pixels[0, 0] > b.pixels[0, 0]

    def test_render_zero_equals_reference(self, geom, optical, standard_illum):
        zeros = DepthMap(np.zeros((geom.crop_size,) * 2))
        ref = sim.reference_image(optical, standard_illum)
        out = sim.render_tactile(zeros, optical, standard_illum)
        assert np.array_equal(out.pixels, ref.pixels)

    def test_intensity_strictly_decreasing_in_depth(self, optical):
        d = np.linspace(0.0, optical.thickness, 200)
        i = optical.intensity(d)
        assert np.all(np.diff(i) < 0)

    def test_depth_delta_inverse_pair(self, optical):
        d = np.linspace(0.0, optical.thickness, 50)
        assert depth_from_delta(optical, delta_from_depth(optical, d)) == pytest.approx(d)

    def test_noise_is_reproducible(self, geom, optical, uniform_illum):
        zeros = DepthMap(np.zeros((64, 64)))
        small = sim.IlluminationField(np.ones((64, 64)))
        a = sim.render_tactile(zeros, optical, small, noise_sigma=1.0,
                               rng=np.random.default_rng(7))
        b = sim.render_tactile(zeros, optical, small, noise_sigma=1.0,
                               rng=np.random.default_rng(7))
        assert np.array_equal(a.pixels, b.pixels)

    def test_noise_without_rng_refused(self, optical):
        zeros = DepthMap(np.zeros((8, 8)))
        small = sim.IlluminationField(np.ones((8, 8)))
        with pytest.raises(ValueError, match="seeded rng"):
            sim.render_tactile(zeros, optical, small, noise_sigma=1.0)


class TestBallPressRig:
    def test_unknown_placement_refused(self, geom, optical, uniform_illum):
        rig = sim.BallPressRig(geom, optical, uniform_illum, 0.0,
                               np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown placement 'corner'"):
            rig.press(4.0, "corner")

    @pytest.mark.parametrize("noise_sigma, count", [(0.0, 1), (1.0, 1), (1.0, 2)])
    def test_presses_match_press(self, geom, optical, standard_illum,
                                 noise_sigma, count):
        rig, twin = (sim.BallPressRig(geom, optical, standard_illum, noise_sigma,
                                      np.random.default_rng(7)) for _ in range(2))
        expected = [twin.press(4.0, "random", count) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads take turns far more often
        try:
            got = list(rig.presses(4.0, "random", 4, count))
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(expected)
        for (image, depth, center, d_max), want in zip(got, expected):
            assert image.pixels.dtype == want[0].pixels.dtype
            assert image.pixels.tobytes() == want[0].pixels.tobytes()
            assert depth.data.tobytes() == want[1].data.tobytes()
            assert (center, d_max) == want[2:]
        assert rig.rng.bit_generator.state == twin.rng.bit_generator.state

    @pytest.mark.parametrize("stop", [0, 2, 4])
    def test_closing_presses_early_joins_the_worker(self, geom, optical,
                                                    standard_illum, stop):
        threads = threading.active_count()
        rig, twin = (sim.BallPressRig(geom, optical, standard_illum, 1.0,
                                      np.random.default_rng(7)) for _ in range(2))
        presses = rig.presses(4.0, "random", 5)
        for k, _ in enumerate(presses):
            assert threading.active_count() == threads + 1
            if k == stop:
                break
        presses.close()
        assert threading.active_count() == threads
        # The press rendered ahead, if any, has drawn from the generator too.
        for _ in range(min(stop + 2, 5)):
            twin.press(4.0, "random")
        assert rig.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_no_presses_start_no_worker(self, geom, optical, uniform_illum):
        rig = sim.BallPressRig(geom, optical, uniform_illum, 0.0,
                               np.random.default_rng(0))
        threads = threading.active_count()
        assert list(rig.presses(4.0, "random", 0)) == []
        assert threading.active_count() == threads


class TestIllumination:
    def test_max_gain_is_one(self):
        for scheme in sim.SCHEMES:
            field = sim.make_illumination(scheme, 128, led_sigma=sim.DEFAULT_LED_SIGMA)
            assert field.gains.max() == pytest.approx(1.0, abs=1e-12)
            assert field.gains.min() > 0

    def test_standard_four_fold_symmetry(self):
        field = sim.make_illumination("standard", 129, led_sigma=sim.DEFAULT_LED_SIGMA)
        rotated = np.rot90(field.gains)
        assert np.allclose(field.gains, rotated, atol=1e-12)

    def test_one_call_form_and_one_cache_key(self):
        sim.make_illumination.cache_clear()
        for _ in range(2):
            sim.make_illumination("standard", 32, led_sigma=700.0)
        assert sim.make_illumination.cache_info()[:2] == (1, 1)  # hits, misses
        with pytest.raises(TypeError):
            sim.make_illumination("standard", 32, 700.0)
        with pytest.raises(TypeError):
            sim.make_illumination("standard", 32)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            sim.make_illumination("s9", 64, led_sigma=sim.DEFAULT_LED_SIGMA)

    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    def test_led_sigma_refused_exactly_where_a_pixel_goes_dark(self, scheme):
        pixels = np.arange(64, dtype=np.float64)
        centre = 63 / 2.0
        r2s = [(pixels - (centre + 0.8 * 64 * math.cos(a))) ** 2
               + ((pixels - (centre + 0.8 * 64 * math.sin(a))) ** 2)[:, None]
               for a in sim._LED_ANGLES[scheme]]  # LEDs on a ring of 0.8 x crop

        def dark(sigma):
            """The field summed whole, as the check's reference, has a 0 pixel."""
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                gains = sum(np.exp(-r2 / (2.0 * sigma ** 2)) for r2 in r2s)
            return not gains.min() > 0

        def refused(sigma):
            try:
                sim.make_illumination(scheme, 64, led_sigma=sigma)
            except ValueError as exc:
                assert str(exc) == (f"{sigma!r} is too small: the LED light "
                                    f"underflows to 0 on the 64 px field")
                return True
            return False

        lo, hi = 1e-300, 1e4  # bisect to the two adjacent floats around the limit
        while True:
            mid = math.sqrt(lo * hi) if hi > 2.0 * lo else (lo + hi) / 2.0
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if refused(mid) else (lo, mid)
        for sigma in (1e-200, 1e-160, lo, hi, float(np.nextafter(hi, 1.0)), 700.0):
            assert refused(sigma) == dark(sigma), sigma
        assert refused(lo) and not refused(hi)

    @pytest.mark.parametrize("value", [np.nan, 0.0, 1.5])
    def test_gains_outside_unit_interval_refused(self, value):
        gains = np.ones((4, 4))
        gains[1, 2] = value
        with pytest.raises(ValueError, match=re.escape("gains must lie in (0, 1]")):
            sim.IlluminationField(gains)

    def test_corner_cluster_far_less_uniform(self, geom, optical):
        stds = {}
        for scheme in ("standard", "s4"):
            illum = sim.make_illumination(scheme, geom.crop_size,
                                          led_sigma=sim.DEFAULT_LED_SIGMA)
            ref = sim.reference_image(optical, illum)
            stds[scheme] = image_mean_std(ref)[1]
        assert stds["s4"] >= 3.0 * stds["standard"]


# Each object kind's factory parameters, drawn over sizes up to ~3x the defaults.
SIZES = st.floats(0.05, 20.0)
FIELD_PARAMS = {
    "slab": st.fixed_dictionaries({"depth": st.floats(0.01, 3.0),
                                   "half_size": SIZES}),
    "ball_array": st.tuples(st.floats(0.1, 6.0), st.floats(1e-3, 1.0)).flatmap(
        lambda rf: st.fixed_dictionaries({
            "ball_radius": st.just(rf[0]), "d_max": st.just(rf[0] * rf[1]),
            "spacing": st.floats(-10.0, 10.0), "n": st.integers(0, 4)})),
    "star": st.fixed_dictionaries({"outer": SIZES, "inner": SIZES,
                                   "depth": st.floats(0.01, 3.0),
                                   "points": st.integers(1, 8)}),
    "hex_nut": st.fixed_dictionaries({"across_flats": SIZES,
                                      "hole_radius": st.floats(0.0, 5.0),
                                      "depth": st.floats(0.01, 3.0),
                                      "rotation_deg": st.floats(-180.0, 180.0)}),
    "set_screw": st.fixed_dictionaries({"diameter": SIZES,
                                        "depth": st.floats(0.01, 5.0),
                                        "tip_frac": st.floats(0.0, 1.0, exclude_min=True)}),
}
KIND_PARAMS = st.sampled_from(sim.OBJECT_KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), FIELD_PARAMS[kind]))
# Signed lengths in mm from 0 through the field's border out to 1e308.
LENGTHS = (st.just(0.0) | st.floats(-15.0, 15.0)
           | st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 308.0)).map(
               lambda se: se[0] * 10.0 ** se[1]))


def tilted(turn_deg, tilt_deg, spin_deg, translation):
    """Pose.rot_z(turn) after a tilt about x after Pose.rot_z(spin)."""
    t = math.radians(tilt_deg)
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(t), -math.sin(t)],
                     [0.0, math.sin(t), math.cos(t)]])
    rotation = (Pose.rot_z(turn_deg).rotation @ tilt
                @ Pose.rot_z(spin_deg).rotation)
    return Pose(rotation, np.asarray(translation, dtype=np.float64))


POSES = (st.builds(Pose.rot_z, st.floats(-360.0, 360.0),
                   st.tuples(LENGTHS, LENGTHS, LENGTHS))
         | st.builds(tilted, st.floats(-360.0, 360.0), st.floats(-180.0, 180.0),
                     st.floats(-360.0, 360.0), st.tuples(LENGTHS, LENGTHS, LENGTHS)))


class TestPosedDepth:
    """Fields are evaluated in the pixel box of their posed reach; the full
    frame is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(geom=st.sampled_from([SensorGeometry(),
                                 SensorGeometry(crop_size=61, field_mm=5.0)]),
           kind_params=KIND_PARAMS, pose=POSES)
    @example(geom=SensorGeometry(), kind_params=("hex_nut", {}),
             pose=Pose.rot_z(5.0))
    @example(geom=SensorGeometry(), kind_params=("slab", {"half_size": 4.0}),
             pose=Pose.rot_z(0.0, translation=(11.0, 0.0, 0.0)))
    @example(geom=SensorGeometry(), kind_params=("star", {}),
             pose=Pose.rot_z(30.0, translation=(-1e308, 1e308, 0.0)))
    @example(geom=SensorGeometry(), kind_params=("ball_array", {}),
             pose=tilted(10.0, 90.0, 20.0, (1.0, -2.0, 1e308)))
    @example(geom=SensorGeometry(), kind_params=("set_screw", {}),
             pose=tilted(0.0, 89.99, 0.0, (1.0, 2.0, 3.0)))
    @example(geom=SensorGeometry(), kind_params=("hex_nut", {}),
             pose=Pose.rot_z(17.0).compose(Pose.rot_z(-43.0)).compose(
                 Pose.rot_z(101.0, translation=(3.0, -2.5, 7.0))))
    @example(geom=SensorGeometry(), kind_params=("star", {}),
             pose=Pose(np.diag([1.0, -1.0, -1.0]), np.array([2.0, -1.0, 0.5])))
    # R[2, 2] is exactly 1 here, but the tilt carries the translation's z
    # ~5 mm across the plane.
    @example(geom=SensorGeometry(), kind_params=("hex_nut", {}),
             pose=tilted(0.0, 1e-7, 0.0, (0.0, 0.0, 3e9)))
    def test_matches_the_full_frame(self, geom, kind_params, pose):
        kind, params = kind_params
        field = sim.object_depth_field(kind, **params)
        # A field evaluated far off the frame may overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            depth, in_field = sim._posed_depth(field, pose, geom, 2.0)
            expected, expected_in_field = full_frame_posed_depth(field, pose, geom, 2.0)
        # Bit for bit, so that -0.0 differs from 0.0.
        assert (depth.data.view(np.int64) == expected.view(np.int64)).all()
        assert in_field == expected_in_field

    @settings(max_examples=100, deadline=None)
    @given(kind_params=KIND_PARAMS)
    def test_zero_just_outside_the_reach(self, kind_params):
        kind, params = kind_params
        field = sim.object_depth_field(kind, **params)
        angle = np.linspace(0.0, 2.0 * math.pi, 3601)
        radius = field.reach * (1.0 + 1e-9) + np.array([1e-12, 1e-3, 1.0])[:, None]
        assert np.all(field(radius * np.cos(angle), radius * np.sin(angle)) == 0.0)

    @pytest.mark.parametrize("kind", sim.OBJECT_KINDS)
    def test_default_reach_is_tight(self, kind):
        """Each default object touches the 1% band inside its reach."""
        field = sim.object_depth_field(kind)
        angle = np.linspace(0.0, 2.0 * math.pi, 3601)
        radius = field.reach * np.linspace(0.99, 1.0, 11)[:, None]
        assert np.any(field(radius * np.cos(angle), radius * np.sin(angle)) > 0)

    @pytest.mark.parametrize("d_max", [1.6, 0.0, -0.1, math.nan])
    def test_ball_array_refuses_a_press_deeper_than_the_ball(self, d_max):
        with pytest.raises(ValueError, match=re.escape(
                f"press depth {d_max} must be in (0, ball radius 1.5]")):
            sim.ball_array_field(ball_radius=1.5, d_max=d_max)


class TestSynthObjects:
    def test_slab_is_flat_inside(self, geom):
        depth = sim.synth_object_depth("slab", geom, depth=0.5, half_size=4.0)
        assert depth.data[290, 290] == 0.5
        assert depth.data[0, 0] == 0.0
        assert set(np.unique(depth.data)) == {0.0, 0.5}

    def test_hex_nut_sixfold_symmetry(self, geom):
        a = sim.synth_object_depth("hex_nut", geom, rotation_deg=0.0)
        b = sim.synth_object_depth("hex_nut", geom, rotation_deg=60.0)
        assert np.array_equal(a.data, b.data)

    def test_set_screw_clamped_to_layer(self, geom):
        depth = sim.synth_object_depth("set_screw", geom, thickness=2.0, depth=5.0)
        assert depth.data.max() == 2.0

    @pytest.mark.parametrize("tip_frac", [0.0, -0.1, 1.5, math.nan])
    def test_set_screw_refuses_a_tip_fraction_outside_0_1(self, tip_frac):
        with pytest.raises(ValueError, match=re.escape(
                f"tip fraction {tip_frac} must be in (0, 1]")):
            sim.set_screw_field(tip_frac=tip_frac)

    @pytest.mark.parametrize("tip_frac", [5e-324, 1e-9, 0.3, 1.0])
    def test_set_screw_with_a_valid_tip_fraction_warns_nothing(self, geom, tip_frac):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            depth = sim.synth_object_depth("set_screw", geom, tip_frac=tip_frac)
        assert depth.data.max() > 0

    def test_unknown_kind_rejected(self, geom):
        with pytest.raises(ValueError):
            sim.synth_object_depth("banana", geom)


class TestRenderSequence:
    def test_single_identity_pose_matches_static_render(self, geom, optical,
                                                        uniform_illum):
        field = sim.object_depth_field("hex_nut")
        frames = sim.render_sequence(field, [Pose.identity()], geom, optical,
                                     uniform_illum)
        static = sim.render_tactile(
            sim.synth_object_depth("hex_nut", geom, thickness=optical.thickness),
            optical, uniform_illum)
        assert len(frames) == 1
        assert np.array_equal(frames[0].image.pixels, static.pixels)

    def test_one_frame_per_pose(self, geom, optical, uniform_illum):
        field = sim.object_depth_field("slab")
        poses = [Pose.rot_z(10.0 * k) for k in range(5)]
        frames = sim.render_sequence(field, poses, geom, optical, uniform_illum)
        assert len(frames) == 5

    def test_hex_nut_full_symmetry_period(self, geom, optical, uniform_illum):
        field = sim.object_depth_field("hex_nut")
        poses = [Pose.rot_z(5.0 * k) for k in range(13)]
        frames = sim.render_sequence(field, poses, geom, optical, uniform_illum)
        assert np.array_equal(frames[12].image.pixels, frames[0].image.pixels)

    def test_out_of_field_pose_flagged(self, geom, optical, uniform_illum):
        field = sim.object_depth_field("slab", half_size=4.0)
        off = Pose.rot_z(0.0, translation=(11.0, 0.0, 0.0))
        frames = sim.render_sequence(field, [Pose.identity(), off], geom,
                                     optical, uniform_illum)
        assert frames[0].in_field
        assert not frames[1].in_field
