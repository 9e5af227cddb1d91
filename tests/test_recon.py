import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.ndimage import correlate1d

from tacsense import calib, recon, sim
from tacsense.core import (
    Cylinder,
    DepthMap,
    DifferenceImage,
    GrayImage,
    Planar,
    SensorGeometry,
    Sphere,
    surface_axis,
)

from oracles import delta_from_depth, depth_from_delta


def make_lookup_model(optical):
    deltas = np.arange(256, dtype=np.float64)
    max_delta = int(math.floor(delta_from_depth(optical, optical.thickness)))
    depths = np.where(deltas <= max_delta,
                      depth_from_delta(optical, np.minimum(deltas, max_delta)),
                      optical.thickness)
    depths[0] = 0.0
    return calib.MappingList(depths=depths, max_calibrated=max_delta)


class TestPreprocessRaw:
    @pytest.fixture
    def config(self, geom, optical):
        return recon.PipelineConfig(model=make_lookup_model(optical), geom=geom)

    def test_raw_frame_crop_offsets(self, config):
        raw = np.zeros((600, 800), dtype=np.uint8)
        raw[10, 110] = 200
        raw[589, 689] = 201
        out = recon.preprocess_raw(GrayImage(raw), config)
        assert out.pixels.shape == (580, 580)
        assert out.pixels[0, 0] == 200
        assert out.pixels[579, 579] == 201

    def test_idempotent_on_cropped_frame(self, config, flat_reference):
        again = recon.preprocess_raw(flat_reference, config)
        assert np.array_equal(again.pixels, flat_reference.pixels)

    def test_too_small_frame_rejected(self, config):
        with pytest.raises(ValueError):
            recon.preprocess_raw(GrayImage(np.zeros((100, 100), dtype=np.uint8)),
                                 config)


class TestDifference:
    def test_reference_minus_contact(self):
        ref = GrayImage(np.full((2, 2), 174, dtype=np.uint8))
        con = GrayImage(np.full((2, 2), 10, dtype=np.uint8))
        assert np.all(recon.difference(ref, con).pixels == 164)

    def test_brighter_contact_clamped_to_zero(self):
        ref = GrayImage(np.full((2, 2), 100, dtype=np.uint8))
        con = GrayImage(np.full((2, 2), 130, dtype=np.uint8))
        assert np.all(recon.difference(ref, con).pixels == 0)

    def test_every_pixel_pair_matches_the_int16_formula(self):
        ref, con = np.meshgrid(np.arange(256, dtype=np.uint8),
                               np.arange(256, dtype=np.uint8))
        expected = np.maximum(ref.astype(np.int16) - con.astype(np.int16), 0)
        got = recon.difference(GrayImage(ref), GrayImage(con)).pixels
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recon.difference(GrayImage(np.zeros((2, 2), dtype=np.uint8)),
                             GrayImage(np.zeros((3, 3), dtype=np.uint8)))


class TestMapDepth:
    def test_zero_difference_maps_to_zero(self, optical, geom):
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom)
        diff = DifferenceImage(np.zeros((8, 8), dtype=np.uint8))
        assert np.all(recon.map_depth(diff, cfg).data == 0.0)

    def test_regression_center_pixel_uses_intercept(self, geom):
        model = calib.RegressionModel(k_c=0.001, b_c=0.01, center_u=4.0, center_v=4.0)
        cfg = recon.PipelineConfig(model=model, geom=geom)
        d = np.zeros((9, 9), dtype=np.uint8)
        d[4, 4] = 50
        out = recon.map_depth(DifferenceImage(d), cfg)
        assert out.data[4, 4] == pytest.approx(0.01 * 50)

    def test_lookup_matches_forward_model_inverse(self, optical, geom):
        model = make_lookup_model(optical)
        cfg = recon.PipelineConfig(model=model, geom=geom)
        deltas = np.arange(model.max_calibrated + 1, dtype=np.uint8).reshape(1, -1)
        out = recon.map_depth(DifferenceImage(deltas), cfg)
        expected = depth_from_delta(optical, deltas.astype(float))
        assert np.abs(model.depths[deltas] - expected).max() <= 1e-9
        # map_depth looks the float32 table up, exactly.
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data, model.depths.astype(np.float32)[deltas])

    def test_clamped_to_depth_limit(self, geom):
        depths = np.linspace(0, 5.0, 256)
        depths[0] = 0.0
        model = calib.MappingList(depths=depths, max_calibrated=255)
        cfg = recon.PipelineConfig(model=model, geom=geom, depth_clamp=2.0)
        diff = DifferenceImage(np.full((4, 4), 255, dtype=np.uint8))
        assert np.all(recon.map_depth(diff, cfg).data == 2.0)

    def test_clamp_rounds_down_to_float32(self, geom):
        # float32(0.1) is above 0.1, so the bound is the float32 just below it.
        model = calib.MappingList(depths=np.linspace(0, 5.0, 256), max_calibrated=255)
        cfg = recon.PipelineConfig(model=model, geom=geom, depth_clamp=0.1)
        out = recon.map_depth(DifferenceImage(np.full((2, 2), 255, np.uint8)), cfg)
        assert np.all(out.data == np.nextafter(np.float32(0.1), np.float32(0)))
        assert out.data.max() <= 0.1


monotone_tables = arrays(np.float64, 255, elements=st.floats(0.0, 0.05)).map(
    lambda steps: calib.MappingList(np.concatenate([[0.0], np.cumsum(steps)]), 255))
regression_models = st.builds(calib.RegressionModel, st.floats(-1e-3, 1e-3),
                              st.floats(0.0, 0.05), st.floats(-50.0, 100.0),
                              st.floats(-50.0, 100.0))


class TestFloat32Chain:
    """map_depth -> gaussian_denoise in float32 against the float64 chain."""

    @settings(max_examples=80, deadline=None)
    @given(deltas=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                max_side=40)),
           model=st.one_of(monotone_tables, regression_models),
           clamp=st.floats(0.05, 5.0))
    def test_within_float32_spacing_of_float64_chain(self, deltas, model, clamp):
        cfg = recon.PipelineConfig(model=model, depth_clamp=clamp)
        out = recon.gaussian_denoise(recon.map_depth(DifferenceImage(deltas), cfg),
                                     cfg).data
        assert out.dtype == np.float32
        assert out.min() >= 0 and out.max() <= clamp
        if isinstance(model, calib.MappingList):
            reference = model.depths[deltas]
        else:
            vv, uu = np.mgrid[0:deltas.shape[0], 0:deltas.shape[1]]
            reference = model.slope(uu, vv) * deltas
        reference = np.clip(reference, 0.0, clamp)
        k = recon.gaussian_kernel(7, cfg.sigma)
        taps = np.convolve(k, k)
        for axis in (0, 1):
            reference = correlate1d(reference, taps, axis=axis, mode="reflect")
        assert np.abs(out - reference).max() <= 2 * np.spacing(np.float32(clamp))


def block_sums(pixels):
    """int64 sum of each 4x4 block of a 2-D array, zero-padded to whole blocks."""
    h, w = pixels.shape
    padded = np.zeros((-(-h // 4) * 4, -(-w // 4) * 4), np.int64)
    padded[:h, :w] = pixels
    return padded.reshape(padded.shape[0] // 4, 4, -1, 4).sum(axis=(1, 3))


def gate_then_full_frame(diff, cfg):
    """The full-frame chain on the difference with every pixel zeroed outside
    the bounding box of the blocks above 1.25 noise floors plus 8 px."""
    rows, cols = np.nonzero(block_sums(diff.pixels) > 1.25 * diff.noise_floor)
    gated = np.zeros_like(diff.pixels)
    if len(rows):
        window = (slice(max(4 * rows.min() - 8, 0), 4 * rows.max() + 12),
                  slice(max(4 * cols.min() - 8, 0), 4 * cols.max() + 12))
        gated[window] = diff.pixels[window]
    return recon.gaussian_denoise(recon.map_depth(DifferenceImage(gated), cfg),
                                  cfg).data


@st.composite
def gated_differences(draw):
    """A difference image of 1 to 40 px a side: low noise, one brighter box
    anywhere (border-touching included), and a noise floor."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    pixels = draw(arrays(np.uint8, (h, w), elements=st.integers(0, 3)))
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    box = (slice(r0, draw(st.integers(r0 + 1, h))),
           slice(c0, draw(st.integers(c0 + 1, w))))
    pixels[box] = np.maximum(pixels[box], draw(st.integers(0, 255)))
    return DifferenceImage(pixels, draw(st.integers(0, 200)))


nonnegative_regression_models = st.builds(
    calib.RegressionModel, st.floats(0.0, 1e-3), st.floats(0.0, 0.05),
    st.floats(-50.0, 100.0), st.floats(-50.0, 100.0))


class TestContactGate:
    """depth_from_difference maps and denoises only the contact window."""

    @settings(max_examples=150, deadline=None)
    @given(diff=gated_differences(),
           model=st.one_of(monotone_tables, nonnegative_regression_models),
           clamp=st.floats(0.05, 5.0))
    def test_window_equals_gate_then_full_frame_bit_for_bit(self, diff, model,
                                                           clamp):
        cfg = recon.PipelineConfig(model=model, depth_clamp=clamp)
        out = recon.depth_from_difference(diff, cfg).data
        assert out.dtype == np.float32
        assert out.tobytes() == gate_then_full_frame(diff, cfg).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(diff=gated_differences(), model=regression_models)
    def test_any_regression_slope_gives_equal_values(self, diff, model):
        # A negative slope maps a zero difference to -0.0, equal to 0.
        cfg = recon.PipelineConfig(model=model)
        assert np.array_equal(recon.depth_from_difference(diff, cfg).data,
                              gate_then_full_frame(diff, cfg))

    @pytest.mark.parametrize("box", [
        (slice(0, 5), slice(10, 20)), (slice(30, 37), slice(10, 20)),
        (slice(10, 20), slice(0, 3)), (slice(10, 20), slice(35, 41)),
        (slice(0, 37), slice(0, 41))])
    def test_window_at_each_frame_border(self, box, optical):
        pixels = np.random.default_rng(5).integers(0, 3, (37, 41), dtype=np.uint8)
        pixels[box] = 40
        for model in (make_lookup_model(optical),
                      calib.RegressionModel(1e-3, 0.01, 12.0, 30.0)):
            cfg = recon.PipelineConfig(model=model)
            diff = DifferenceImage(pixels, noise_floor=40)
            assert (recon.depth_from_difference(diff, cfg).data.tobytes()
                    == gate_then_full_frame(diff, cfg).tobytes())

    @settings(max_examples=60, deadline=None)
    @given(deltas=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                max_side=30)),
           model=st.one_of(monotone_tables, nonnegative_regression_models))
    def test_floor_zero_keeps_the_full_frame_chain(self, deltas, model):
        cfg = recon.PipelineConfig(model=model)
        diff = DifferenceImage(deltas)
        assert diff.noise_floor == 0
        full = recon.gaussian_denoise(recon.map_depth(diff, cfg), cfg).data
        assert recon.depth_from_difference(diff, cfg).data.tobytes() == full.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(frames=array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40).flatmap(
        lambda shape: st.tuples(arrays(np.uint8, shape), arrays(np.uint8, shape))))
    def test_noise_floor_is_the_largest_rise_block_sum(self, frames):
        ref, con = frames
        diff = recon.difference(GrayImage(ref), GrayImage(con))
        rise = np.maximum(con.astype(np.int64) - ref, 0)
        assert diff.noise_floor == block_sums(rise).max()
        assert np.array_equal(diff.pixels, np.maximum(ref.astype(np.int16) - con, 0))

    def test_no_marked_block_maps_to_zeros(self, optical):
        cfg = recon.PipelineConfig(model=make_lookup_model(optical))
        timings = {}
        diff = DifferenceImage(np.full((9, 9), 2, np.uint8), noise_floor=100)
        out = recon.depth_from_difference(diff, cfg, timings)
        assert out.data.dtype == np.float32 and not out.data.any()
        assert timings == {"mapping_ms": 0.0, "smoothing_ms": 0.0}

    @pytest.mark.parametrize("box", [(slice(10, 20), slice(12, 18)),
                                     (slice(0, 37), slice(30, 41))])
    def test_map_depth_is_handed_the_region(self, box, optical, monkeypatch):
        """The gated image is the mapped region's size: the window plus the
        denoise reach, clipped to the frame."""
        pixels = np.zeros((37, 41), np.uint8)
        pixels[box] = 40
        diff = DifferenceImage(pixels, noise_floor=40)
        window = recon.contact_window(diff)
        region = tuple(slice(max(s.start - 6, 0), min(s.stop + 6, n))
                       for s, n in zip(window, pixels.shape))
        calls = []
        map_depth = recon.map_depth

        def spy(diff, config, region=...):
            calls.append((diff.pixels.copy(), region))
            return map_depth(diff, config, region)

        monkeypatch.setattr(recon, "map_depth", spy)
        recon.depth_from_difference(diff, recon.PipelineConfig(
            model=make_lookup_model(optical)))
        [(handed, handed_region)] = calls
        assert handed_region == region
        gated = np.zeros_like(pixels)
        gated[window] = pixels[window]
        assert np.array_equal(handed, gated[region])

    @pytest.mark.parametrize("seed", range(4))
    def test_noise_only_frame_maps_to_zeros(self, seed, geom, optical, standard_illum):
        rig = sim.BallPressRig(geom, optical, standard_illum, 1.0,
                               np.random.default_rng(seed))
        blank = sim.render_tactile(DepthMap(np.zeros((geom.crop_size,) * 2)), optical,
                                   standard_illum, noise_sigma=1.0, rng=rig.rng)
        diff = recon.difference(rig.reference, blank)
        assert diff.noise_floor > 0 and diff.pixels.any()
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom)
        assert not recon.depth_from_difference(diff, cfg).data.any()

    @pytest.mark.parametrize("ball_radius, d_max, min_cover", [
        (4.0, 0.1, 0.0), (50.0, 1.5, 0.75)])
    def test_noisy_press_keeps_every_contact_pixel(self, ball_radius, d_max,
                                                   min_cover, geom, optical,
                                                   standard_illum):
        # A 0.1 mm press, two gray levels deep, and one covering >= 75% of
        # the frame, at noise sigma 1.
        rig = sim.BallPressRig(geom, optical, standard_illum, 1.0,
                               np.random.default_rng(8))
        truth = sim.sphere_press_depth(geom, ball_radius, d_max,
                                       thickness=optical.thickness)
        assert (truth.data > 0).mean() >= min_cover
        image = sim.render_tactile(truth, optical, standard_illum, noise_sigma=1.0,
                                   rng=rig.rng)
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom,
                                   depth_clamp=optical.thickness)
        out = recon.reconstruct(rig.reference, image, cfg).data
        assert out[truth.data > recon.CONTACT_MIN_DEPTH].all()
        deepest = np.unravel_index(truth.data.argmax(), truth.data.shape)
        assert abs(out[deepest] - d_max) <= 0.05


@st.composite
def framed_regions(draw):
    """A uint8 difference frame of 1 to 40 px a side and a region of it:
    regions at the frame's edges and 1 px sides included."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    deltas = draw(arrays(np.uint8, (h, w)))
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    return deltas, (slice(r0, draw(st.integers(r0 + 1, h))),
                    slice(c0, draw(st.integers(c0 + 1, w))))


def press_frames(optical, center, ball_radius, d_max, noise_sigma, seed):
    """(reference, contact) frames of a ball press on a 240 px crop under the
    standard scheme, each with its own noise."""
    geom = SensorGeometry(crop_size=240)
    illum = sim.make_illumination("standard", geom.crop_size,
                                  led_sigma=sim.DEFAULT_LED_SIGMA)
    rng = np.random.default_rng(seed)
    depth = sim.sphere_press_depth(geom, ball_radius, d_max, center)
    return (sim.render_tactile(DepthMap(np.zeros_like(depth.data)), optical, illum,
                               noise_sigma, rng),
            sim.render_tactile(depth, optical, illum, noise_sigma, rng))


def depth_chain(reference, contact, config, symmetry=lambda a: a):
    """depth_from_difference of the difference of both frames, each first
    transformed by `symmetry`."""
    diff = recon.difference(GrayImage(symmetry(reference.pixels)),
                            GrayImage(symmetry(contact.pixels)))
    return recon.depth_from_difference(diff, config).data


PRESSES = dict(ball_radius=st.sampled_from([4.0, 5.0]), d_max=st.floats(0.6, 1.6),
               noise_sigma=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2 ** 16))
# Flips keep the order of the denoise's two separable passes; a quarter turn
# or a transpose swaps it, which may move a float32 depth by an ulp.
FLIPS = {"rows": lambda a: a[::-1], "columns": lambda a: a[:, ::-1],
         "both": lambda a: a[::-1, ::-1]}
TURNS = {"quarter turn": np.rot90, "three quarter turns": lambda a: np.rot90(a, 3),
         "transpose": np.transpose}


class TestSymmetryRelations:
    """The depth chain commutes with the symmetries of a square frame whose
    side is a multiple of recon.BLOCK, which map the blocks of the noise
    floor and of the contact gate onto blocks."""

    @pytest.fixture(scope="class")
    def config(self, optical):
        return recon.PipelineConfig(model=make_lookup_model(optical),
                                    geom=SensorGeometry(crop_size=240))

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from([*FLIPS, *TURNS]), u=st.floats(-12.0, 12.0),
           v=st.floats(-12.0, 12.0), **PRESSES)
    def test_flips_commute_exactly_and_turns_to_an_ulp(
            self, optical, config, name, u, v, ball_radius, d_max, noise_sigma, seed):
        frames = press_frames(optical, (u, v), ball_radius, d_max, noise_sigma, seed)
        symmetry = FLIPS.get(name) or TURNS[name]
        want = symmetry(depth_chain(*frames, config))
        got = depth_chain(*frames, config, symmetry)
        if name in FLIPS:
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1.2e-7)

    @settings(max_examples=60, deadline=None)
    @given(shift=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
           u=st.floats(-4.0, 4.0), v=st.floats(-4.0, 4.0), **PRESSES)
    def test_rolls_by_blocks_commute_exactly(self, optical, config, shift, u, v,
                                             ball_radius, d_max, noise_sigma, seed):
        """Where the contact window, widened by the denoise's reach, is clear
        of the border before and after the roll, and rolls with the frame."""
        frames = press_frames(optical, (u, v), ball_radius, d_max, noise_sigma, seed)
        px = tuple(recon.BLOCK * k for k in shift)

        def roll(a):
            return np.roll(a, px, axis=(0, 1))

        windows = [recon.contact_window(recon.difference(*(GrayImage(f(x.pixels))
                                                           for x in frames)))
                   for f in (lambda a: a, roll)]
        reach, n = recon.DENOISE_TAPS - 1, config.geom.crop_size
        assume(all(w is not None and all(s.start >= reach and s.stop + reach <= n
                                         for s in w) for w in windows))
        assume(windows[1] == tuple(slice(s.start + k, s.stop + k)
                                   for s, k in zip(windows[0], px)))
        assert (depth_chain(*frames, config, roll).tobytes()
                == roll(depth_chain(*frames, config)).tobytes())


class TestModelDepth:
    """Each model maps the array it is given; full frames are the reference."""

    def test_regression_matches_full_frame_slope(self, geom):
        rng = np.random.default_rng(3)
        models = [calib.RegressionModel(-1e-4, 0.02, 20.0, 25.0),
                  calib.RegressionModel(2e-4, 0.01, 0.0, 39.0)]
        diffs = [DifferenceImage(rng.integers(0, 80, shape, dtype=np.uint8))
                 for shape in ((40, 50), (40, 50), (31, 17))]
        # Two models of one shape, each used again after the other.
        for model in models + models:
            cfg = recon.PipelineConfig(model=model, geom=geom, depth_clamp=1.0)
            for diff in diffs:
                vv, uu = np.mgrid[0:diff.height, 0:diff.width]
                slope = model.slope(uu, vv).astype(np.float32)
                expected = np.clip(slope * diff.pixels, 0.0, 1.0)
                assert np.array_equal(recon.map_depth(diff, cfg).data, expected)

    @settings(max_examples=150, deadline=None)
    @given(frame=framed_regions(),
           model=st.builds(calib.RegressionModel, st.floats(-1e-3, 1e-3),
                           st.floats(-0.05, 0.05), st.floats(-50.0, 100.0),
                           st.floats(-50.0, 100.0)))
    def test_region_maps_with_its_own_slopes(self, frame, model):
        # Byte for byte, so a negative slope's -0.0 must stay -0.0.
        deltas, region = frame
        vv, uu = np.mgrid[0:deltas.shape[0], 0:deltas.shape[1]]
        expected = model.slope(uu, vv).astype(np.float32)[region] * deltas[region]
        out = model.depth(deltas[region], region)
        assert out.dtype == np.float32
        assert out.tobytes() == expected.tobytes()

    def test_lookup_index_types_agree(self, optical):
        model = make_lookup_model(optical)
        deltas = np.array([[0, 1, 7], [80, 200, 255]])
        expected = model.depths.astype(np.float32)[deltas]
        for dtype in (np.uint8, np.int64, np.float64):
            assert np.array_equal(model.depth(deltas.astype(dtype)), expected)


class TestGaussianDenoise:
    def test_kernel_normalized_and_symmetric(self):
        k = recon.gaussian_kernel(7, 1.5)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(k, k[::-1])
        assert k.argmax() == 3

    def test_two_passes_equal_convolved_kernel(self, optical, geom):
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom)
        field = np.zeros((41, 41))
        field[20, 20] = 1.0
        out = recon.gaussian_denoise(DepthMap(field), cfg)
        k = recon.gaussian_kernel(7, cfg.sigma)
        k2 = np.convolve(k, k)
        expected = np.zeros((41, 41))
        expected[14:27, 14:27] = np.outer(k2, k2)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_constant_field_invariant(self, optical, geom):
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom)
        out = recon.gaussian_denoise(DepthMap(np.full((32, 32), 0.7)), cfg)
        assert np.abs(out.data - 0.7).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(field=arrays(np.float64, array_shapes(min_dims=2, max_dims=2,
                                                 min_side=1, max_side=40),
                        elements=st.floats(0.0, 100.0)))
    def test_equals_sequential_reflect_passes(self, field):
        model = calib.RegressionModel(k_c=0.0, b_c=1.0, center_u=0.0, center_v=0.0)
        cfg = recon.PipelineConfig(model=model)
        k = recon.gaussian_kernel(7, cfg.sigma)
        expected = field
        for _ in range(2):
            expected = correlate1d(expected, k, axis=0, mode="reflect")
            expected = correlate1d(expected, k, axis=1, mode="reflect")
        out = recon.gaussian_denoise(DepthMap(field), cfg)
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_interior_mass_preserved(self, optical, geom):
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom)
        field = np.zeros((64, 64))
        field[30:34, 30:34] = 1.0
        out = recon.gaussian_denoise(DepthMap(field), cfg)
        assert out.data.sum() == pytest.approx(field.sum(), abs=1e-9)


class TestFullPipeline:
    def test_closed_loop_spherical_press(self, geom, optical, uniform_illum,
                                         flat_reference):
        truth = sim.sphere_press_depth(geom, 4.0, 1.0, thickness=optical.thickness)
        contact = sim.render_tactile(truth, optical, uniform_illum)
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom,
                                   depth_clamp=optical.thickness)
        out = recon.reconstruct(flat_reference, contact, cfg)
        mask = truth.data > 0.05
        assert np.abs(out.data - truth.data)[mask].mean() <= 0.05

    def test_reconstruction_never_exceeds_clamp(self, geom, optical, uniform_illum,
                                                flat_reference):
        truth = sim.synth_object_depth("set_screw", geom, thickness=optical.thickness,
                                       depth=3.0)
        contact = sim.render_tactile(truth, optical, uniform_illum)
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom,
                                   depth_clamp=optical.thickness)
        out = recon.reconstruct(flat_reference, contact, cfg)
        assert out.data.max() <= optical.thickness + 1e-9

    def test_deterministic(self, geom, optical, uniform_illum, flat_reference):
        truth = sim.sphere_press_depth(geom, 4.0, 1.0, thickness=optical.thickness)
        contact = sim.render_tactile(truth, optical, uniform_illum)
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom)
        a = recon.reconstruct(flat_reference, contact, cfg)
        b = recon.reconstruct(flat_reference, contact, cfg)
        assert np.array_equal(a.data, b.data)


SMALL_GEOM = SensorGeometry(crop_size=240, field_mm=24.0)
IDENTITY_MODEL = calib.RegressionModel(k_c=0.0, b_c=1.0, center_u=0.0, center_v=0.0)


def smooth_hex_nut(geom):
    """A denoised hex-nut depth map: 5,472 rim pixels on 580 px, 2,260 on 240 px."""
    truth = sim.synth_object_depth("hex_nut", geom, depth=0.6)
    return recon.gaussian_denoise(truth, recon.PipelineConfig(model=IDENTITY_MODEL,
                                                              geom=geom))


def meshgrid_rim_points(depth, geom):
    """The rim cloud as it was built before: masked meshgrids, then strided."""
    xx, yy = np.meshgrid(surface_axis(geom), surface_axis(geom))
    d = depth.data
    keep = (d > recon.CONTACT_MIN_DEPTH) & (d < recon.PLATEAU_FRAC * d.max())
    points = np.column_stack([xx[keep], yy[keep], -d[keep]])
    if len(points) <= recon.MAX_ICP_POINTS:
        return points
    return points[::-(-len(points) // recon.MAX_ICP_POINTS)]


class TestPointCloud:
    def test_full_cloud_one_point_per_pixel(self, geom):
        depth = DepthMap(np.zeros((geom.crop_size,) * 2))
        cloud = recon.depth_to_pointcloud(depth, geom)
        assert len(cloud) == geom.crop_size ** 2

    @pytest.mark.parametrize("shape_geom", [SensorGeometry(), SMALL_GEOM])
    def test_columns_equal_the_meshgrid_construction(self, shape_geom):
        depth = DepthMap(np.random.default_rng(3).uniform(
            0.0, 2.0, (shape_geom.crop_size,) * 2))
        xx, yy = np.meshgrid(surface_axis(shape_geom), surface_axis(shape_geom))
        expected = np.column_stack([xx.ravel(), yy.ravel(), -depth.data.ravel()])
        points = recon.depth_to_pointcloud(depth, shape_geom).points
        assert points.tobytes() == expected.tobytes()

    def test_float32_depth_fills_z_under_cached_xy(self):
        depth = DepthMap(np.random.default_rng(4).uniform(
            0.0, 2.0, (SMALL_GEOM.crop_size,) * 2).astype(np.float32))
        first = recon.depth_to_pointcloud(depth, SMALL_GEOM).points
        second = recon.depth_to_pointcloud(depth, SMALL_GEOM).points
        assert first.dtype == np.float32 and not first.flags.writeable
        assert first[:, 2].tobytes() == (-depth.data.ravel()).tobytes()
        assert np.array_equal(first, second) and not np.shares_memory(first, second)

    def test_depth_of_another_size_refused(self):
        with pytest.raises(ValueError, match="does not cover the 240 px crop"):
            recon.depth_to_pointcloud(DepthMap(np.zeros((10, 10))), SMALL_GEOM)


class TestRimPointCloud:
    def test_keeps_slope_drops_plateau_and_background(self, geom):
        smooth = smooth_hex_nut(geom)
        cloud = recon.depth_rim_pointcloud(smooth, geom)
        depths = -cloud.points[:, 2]
        assert len(cloud) > 0
        assert depths.min() > 0.05
        assert depths.max() < 0.92 * smooth.data.max()

    @pytest.mark.parametrize("shape_geom, rim_pixels, points", [
        (SensorGeometry(), 5472, 2736), (SMALL_GEOM, 2260, 2260)])
    def test_points_equal_the_strided_meshgrid_rim(self, shape_geom, rim_pixels,
                                                   points):
        smooth = smooth_hex_nut(shape_geom)
        d = smooth.data
        rim = (d > recon.CONTACT_MIN_DEPTH) & (d < recon.PLATEAU_FRAC * d.max())
        assert rim.sum() == rim_pixels
        cloud = recon.depth_rim_pointcloud(smooth, shape_geom)
        expected = meshgrid_rim_points(smooth, shape_geom)
        assert len(cloud) == points
        assert cloud.points.tobytes() == expected.tobytes()

    def test_reconstruct_cloud_is_the_rim_of_the_depth(self, geom, optical,
                                                       uniform_illum, flat_reference):
        cfg = recon.PipelineConfig(model=make_lookup_model(optical), geom=geom,
                                   depth_clamp=optical.thickness)
        truth = sim.synth_object_depth("hex_nut", geom, depth=0.6)
        diff = recon.difference(flat_reference,
                                sim.render_tactile(truth, optical, uniform_illum))
        cloud = recon.reconstruct_cloud(diff, cfg)
        depth = recon.depth_from_difference(diff, cfg)
        assert len(cloud) <= recon.MAX_ICP_POINTS
        assert cloud.points.tobytes() == meshgrid_rim_points(depth, geom).tobytes()
        assert cloud.normals is not None

    def test_normals_match_the_sphere_away_from_the_contact_edge(self, geom):
        radius, d_max, center = 4.0, 1.5, (2.0, -1.5)
        cap = sim.sphere_press_depth(geom, radius, d_max, center=center)
        cloud = recon.depth_rim_pointcloud(cap, geom)
        assert np.abs(np.linalg.norm(cloud.normals, axis=1) - 1.0).max() <= 1e-12
        # The ball's centre is radius - d_max above the undeformed surface;
        # the normal of z = -depth points from the surface toward it.
        ball = np.array([*center, radius - d_max])
        toward = (ball - cloud.points) / radius
        inner = (np.hypot(*(cloud.points[:, :2] - center).T)
                 < 0.95 * sim.contact_radius(radius, d_max))
        assert inner.sum() > 1000
        cos = np.sum(cloud.normals[inner] * toward[inner], axis=1)
        assert np.degrees(np.arccos(np.minimum(cos, 1.0))).max() <= 0.02

    def test_normals_of_a_ramp_are_exact_up_to_the_border(self):
        shape_geom = SensorGeometry(crop_size=60, field_mm=6.0)  # 3,600 px: no stride
        axis = np.arange(shape_geom.crop_size) * shape_geom.pixel_pitch
        depth = DepthMap(0.1 + 0.03 * axis[None, :] + 0.02 * axis[:, None])
        cloud = recon.depth_rim_pointcloud(depth, shape_geom)
        expected = np.array([0.03, 0.02, 1.0]) / math.sqrt(0.03 ** 2 + 0.02 ** 2 + 1)
        # Border pixels take one-sided differences, which a ramp makes exact too.
        border = surface_axis(shape_geom)[[0, -1]]
        assert np.isin(border, cloud.points[:, 0]).all()
        assert np.isin(border, cloud.points[:, 1]).all()
        assert np.abs(cloud.normals - expected).max() <= 1e-12


class TestRaycastProject:
    def test_planar_matches_flat_cloud_exactly(self, geom):
        rng = np.random.default_rng(4)
        depth = DepthMap(rng.uniform(0, 2.0, (geom.crop_size,) * 2))
        ray, skipped = recon.raycast_project(depth, Planar(), geom)
        flat = recon.depth_to_pointcloud(depth, geom)
        assert skipped == 0
        assert np.abs(ray.points - flat.points).max() <= 1e-9

    def test_sphere_points_lie_at_reduced_radius(self, geom):
        depth = DepthMap(np.full((geom.crop_size,) * 2, 0.5))
        shape = Sphere(radius=20.0)
        cloud, skipped = recon.raycast_project(depth, shape, geom)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert skipped == 0
        assert np.abs(radii - 19.5).max() <= 1e-6
        assert 19.4 <= radii.mean() <= 19.6

    def test_sphere_zero_depth_recovers_nominal_surface(self, geom):
        depth = DepthMap(np.zeros((geom.crop_size,) * 2))
        cloud, _ = recon.raycast_project(depth, Sphere(radius=20.0), geom)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.abs(radii - 20.0).max() <= 1e-6

    def test_sphere_rays_outside_cap_are_skipped(self, geom):
        depth = DepthMap(np.zeros((geom.crop_size,) * 2))
        cloud, skipped = recon.raycast_project(depth, Sphere(radius=10.0), geom)
        xx, yy = np.meshgrid(surface_axis(geom), surface_axis(geom))
        expected = int((xx ** 2 + yy ** 2 >= 100.0).sum())
        assert skipped == expected
        assert len(cloud) + skipped == geom.crop_size ** 2

    def test_cylinder_points_lie_at_reduced_radius(self, geom):
        depth = DepthMap(np.full((geom.crop_size,) * 2, 0.3))
        shape = Cylinder(radius=15.0, axis=(0.0, 1.0, 0.0))
        cloud, skipped = recon.raycast_project(depth, shape, geom)
        radial = np.linalg.norm(cloud.points[:, [0, 2]], axis=1)
        assert skipped == 0
        assert np.abs(radial - 14.7).max() <= 1e-6

    def test_cylinder_axis_coordinate_preserved(self, geom):
        depth = DepthMap(np.zeros((geom.crop_size,) * 2))
        shape = Cylinder(radius=15.0, axis=(0.0, 1.0, 0.0))
        cloud, _ = recon.raycast_project(depth, shape, geom)
        xx, yy = np.meshgrid(surface_axis(geom), surface_axis(geom))
        assert np.abs(cloud.points[:, 1] - yy.ravel()).max() <= 1e-9

    @pytest.mark.parametrize("shape", [
        Sphere(radius=10.0, center=(0.5, -1.0, -3.0)),
        Cylinder(radius=3.0, axis=(0.6, 0.8, 0.0), point=(1.0, 2.0, -3.0))])
    def test_points_equal_the_rays_of_the_flat_pixel_list(self, shape):
        """Byte for byte the rays built before, from row-major pixel columns."""
        n = SMALL_GEOM.crop_size
        depth = DepthMap(np.random.default_rng(5).uniform(
            0.0, 0.5, (n, n)).astype(np.float32))
        x = np.tile(surface_axis(SMALL_GEOM), n)
        y = np.repeat(surface_axis(SMALL_GEOM), n)
        d, r = depth.data.ravel(), shape.radius
        if isinstance(shape, Sphere):
            hit = x * x + y * y < r * r
            dirs = np.column_stack(
                [x[hit], y[hit], np.sqrt(r * r - (x * x + y * y)[hit])]) / r
            base = np.asarray(shape.center)
        else:
            axis = np.asarray(shape.axis)
            n0 = np.array([0.0, 0.0, 1.0]) - axis[2] * axis
            n0 /= np.linalg.norm(n0)
            hit = np.abs(x / r) <= math.pi
            dirs = (np.cos(x[hit] / r)[:, None] * n0
                    + np.sin(x[hit] / r)[:, None] * np.cross(axis, n0))
            base = np.asarray(shape.point) + y[hit, None] * axis
        cloud, skipped = recon.raycast_project(depth, shape, SMALL_GEOM)
        assert skipped == int((~hit).sum()) > 0
        expected = base + dirs * (r - d[hit])[:, None]
        assert cloud.points.tobytes() == expected.tobytes()


# Every depth -> point projection, as a function of (depth, geometry).
PROJECTIONS = {
    "depth_to_pointcloud": recon.depth_to_pointcloud,
    "depth_rim_pointcloud": recon.depth_rim_pointcloud,
    "raycast_planar": lambda d, g: recon.raycast_project(d, Planar(), g),
    "raycast_sphere": lambda d, g: recon.raycast_project(d, Sphere(radius=20.0), g),
    "raycast_cylinder": lambda d, g: recon.raycast_project(d, Cylinder(radius=15.0), g),
}


@pytest.mark.parametrize("projection", PROJECTIONS)
@pytest.mark.parametrize("shape", [
    (10, 10),
    (SMALL_GEOM.crop_size + 20,) * 2,
    (SMALL_GEOM.crop_size // 2, 2 * SMALL_GEOM.crop_size)],
    ids=["10x10", "260x260", "120x480"])
def test_every_projection_refuses_a_map_that_is_not_the_crop(projection, shape):
    """Same pixel count or not, only a crop-sized map is projected."""
    depth = DepthMap(np.linspace(0.0, 1.0, shape[0] * shape[1]).reshape(shape))
    with pytest.raises(ValueError, match=re.escape(
            f"depth map of shape {shape} does not cover the 240 px crop")):
        PROJECTIONS[projection](depth, SMALL_GEOM)
