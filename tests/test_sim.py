import math

import numpy as np
import pytest

from tacsense import sim
from tacsense.core import DepthMap, image_mean_std
from tacsense.pose import Pose


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
        assert optical.depth_from_delta(optical.delta_from_depth(d)) == pytest.approx(d)

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


class TestIllumination:
    def test_max_gain_is_one(self):
        for scheme in sim.SCHEMES:
            field = sim.make_illumination(scheme, 128)
            assert field.gains.max() == pytest.approx(1.0, abs=1e-12)
            assert field.gains.min() > 0

    def test_standard_four_fold_symmetry(self):
        field = sim.make_illumination("standard", 129)
        rotated = np.rot90(field.gains)
        assert np.allclose(field.gains, rotated, atol=1e-12)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            sim.make_illumination("s9", 64)

    def test_corner_cluster_far_less_uniform(self, geom, optical):
        stds = {}
        for scheme in ("standard", "s4"):
            illum = sim.make_illumination(scheme, geom.crop_size)
            ref = sim.reference_image(optical, illum)
            stds[scheme] = image_mean_std(ref)[1]
        assert stds["s4"] >= 3.0 * stds["standard"]


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
