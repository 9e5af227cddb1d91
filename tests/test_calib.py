import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from tacsense import calib, recon, sim
from tacsense.core import (
    DifferenceImage,
    GrayImage,
    InsufficientContactError,
    GeometryError,
    NoContactError,
    DegenerateFitError,
    SensorError,
)

from oracles import depth_from_delta


def gray(arr):
    return GrayImage(np.asarray(arr, dtype=np.uint8))


def press_difference(geom, optical, illum, reference, ball_radius, d_max,
                     center=(0.0, 0.0), noise_sigma=0.0, rng=None):
    depth = sim.sphere_press_depth(geom, ball_radius, d_max, center=center,
                                   thickness=optical.thickness)
    img = sim.render_tactile(depth, optical, illum, noise_sigma=noise_sigma, rng=rng)
    return recon.difference(reference, img), depth


class TestAverageFrames:
    def test_single_frame_identity(self):
        img = gray(np.arange(12).reshape(3, 4))
        out = calib.average_frames([img])
        assert np.array_equal(out.pixels, img.pixels)

    def test_two_constant_frames(self):
        out = calib.average_frames([gray(np.full((4, 4), 100)),
                                    gray(np.full((4, 4), 102))])
        assert np.all(out.pixels == 101)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            calib.average_frames([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            calib.average_frames([gray(np.zeros((2, 2))), gray(np.zeros((3, 3)))])

    def test_averaging_suppresses_noise(self, geom, optical, uniform_illum):
        rng = np.random.default_rng(11)
        depth = sim.sphere_press_depth(geom, 4.0, 1.0, thickness=2.0)
        clean = sim.render_tactile(depth, optical, uniform_illum)
        frames = [sim.render_tactile(depth, optical, uniform_illum,
                                     noise_sigma=2.0, rng=rng)
                  for _ in range(16)]
        avg = calib.average_frames(frames)
        dev = np.abs(avg.pixels.astype(int) - clean.pixels.astype(int))
        assert np.mean(dev <= 2) >= 0.99


class TestDetectContactCircle:
    def test_centered_press(self, geom, optical, uniform_illum, flat_reference):
        diff, _ = press_difference(geom, optical, uniform_illum, flat_reference,
                                   4.0, 1.0)
        circle = calib.detect_contact_circle(diff)
        assert circle.center_u == pytest.approx(290.0, abs=1.0)
        assert circle.center_v == pytest.approx(290.0, abs=1.0)
        expected = math.sqrt(7.0) / geom.pixel_pitch
        assert circle.radius == pytest.approx(expected, abs=2.0)

    def test_blank_image_raises_no_contact(self, geom):
        blank = DifferenceImage(np.zeros((64, 64), dtype=np.uint8))
        with pytest.raises(NoContactError):
            calib.detect_contact_circle(blank)

    def test_tiny_blob_raises_insufficient(self):
        d = np.zeros((64, 64), dtype=np.uint8)
        d[32, 32] = 50
        with pytest.raises(InsufficientContactError):
            calib.detect_contact_circle(DifferenceImage(d))

    def test_off_center_press(self, geom, optical, uniform_illum, flat_reference):
        diff, _ = press_difference(geom, optical, uniform_illum, flat_reference,
                                   4.0, 1.0, center=(3.0, 0.0))
        circle = calib.detect_contact_circle(diff)
        assert circle.center_u == pytest.approx(290 + 3.0 / geom.pixel_pitch, abs=1.0)
        assert circle.center_v == pytest.approx(290.0, abs=1.0)

    def test_translation_equivariance(self, geom, optical, uniform_illum,
                                      flat_reference):
        shift_px = 24
        shift_mm = shift_px * geom.pixel_pitch
        base, _ = press_difference(geom, optical, uniform_illum, flat_reference,
                                   4.0, 1.0)
        moved, _ = press_difference(geom, optical, uniform_illum, flat_reference,
                                    4.0, 1.0, center=(shift_mm, 0.0))
        c0 = calib.detect_contact_circle(base)
        c1 = calib.detect_contact_circle(moved)
        assert c1.center_u - c0.center_u == pytest.approx(shift_px, abs=0.5)
        assert c1.center_v - c0.center_v == pytest.approx(0.0, abs=0.5)


def full_frame_circle(delta, threshold=calib.CONTACT_THRESHOLD):
    """(centre u, centre v, radius) of detect_contact_circle, computed on every pixel."""
    labels, _ = ndimage.label(delta >= threshold)
    mask = labels == np.bincount(labels.ravel())[1:].argmax() + 1
    vs, us = np.nonzero(mask & ~ndimage.binary_erosion(mask, border_value=1))
    cu, cv, r0 = calib.fit_circle_kasa(us, vs)
    vv, uu = np.mgrid[0:delta.shape[0], 0:delta.shape[1]]
    rad = np.hypot(uu - cu, vv - cv)
    r_lo = max(r0 - 20.0, 0.0)
    band = (rad > r_lo) & (rad < r0 + 20.0)
    bins = np.floor(rad[band] - r_lo).astype(np.intp)
    profile = (np.bincount(bins, weights=delta[band].astype(np.float64))
               / np.maximum(np.bincount(bins), 1))
    centers = np.arange(len(profile)) + 0.5 + r_lo
    tail = profile[centers > r0 + 10.0]
    if tail.size:
        profile = profile - tail.mean()
    near = (profile >= 0.4 * threshold) & (profile <= 2.0 * threshold)
    if near.sum() < 3:
        return cu, cv, r0
    slope, intercept = np.polyfit(centers[near], profile[near], 1)
    root = -intercept / slope
    return cu, cv, float(root) if slope < 0 and r_lo < root < r0 + 20.0 else r0


class TestWindowedDetection:
    """Detection works in the blob's and the band's boxes; full frames are the reference."""

    def assert_matches_full_frame(self, diff):
        circle = calib.detect_contact_circle(diff)
        expected = full_frame_circle(diff.pixels)
        assert (circle.center_u, circle.center_v, circle.radius) == expected

    @pytest.mark.parametrize("center", [(11.5, 0.0), (-12.0, 12.0), (3.0, -11.0)])
    def test_blob_touching_the_border(self, geom, optical, standard_illum,
                                      standard_reference, center):
        diff, _ = press_difference(geom, optical, standard_illum, standard_reference,
                                   4.0, 1.5, center=center)
        rows, cols = np.nonzero(diff.pixels >= calib.CONTACT_THRESHOLD)
        assert min(rows.min(), cols.min()) == 0 or max(rows.max(), cols.max()) == 579
        self.assert_matches_full_frame(diff)

    def test_noisy_frame_with_salt(self, geom, optical, standard_illum,
                                   standard_reference):
        rng = np.random.default_rng(2)
        diff, _ = press_difference(geom, optical, standard_illum, standard_reference,
                                   4.0, 1.2, center=(-4.0, 5.0), noise_sigma=2.0,
                                   rng=rng)
        salted = diff.pixels.copy()
        salted[rng.integers(0, 580, 40), rng.integers(0, 580, 40)] = 200
        salted[0:3, 570:580] = 90  # a salt blob on the image corner
        salted = DifferenceImage(salted)
        assert ndimage.label(salted.pixels >= 5)[1] > 30
        self.assert_matches_full_frame(salted)
        circle = calib.detect_contact_circle(salted)
        truth = calib.analytic_ball_depth(circle, 4.0, geom)
        mapping = calib.build_mapping_list(salted, truth, circle)
        assert mapping.max_calibrated > 0


def radial_image(shape, cu, cv, profile):
    """uint8 image whose value depends only on the distance to (cu, cv)."""
    vv, uu = np.mgrid[0:shape[0], 0:shape[1]]
    return np.clip(np.round(profile(np.hypot(uu - cu, vv - cv))), 0, 255).astype(np.uint8)


class TestRadiusSource:
    def test_refined(self):
        delta = radial_image((120, 120), 60, 60, lambda r: np.clip(30 - r, 0, 60))
        r, source = calib._refine_radius(delta, 60, 60, 25.0)
        assert source == "refined"
        assert r == pytest.approx(30.0, abs=0.5)

    def test_few_edge_annuli(self):
        delta = radial_image((120, 120), 60, 60, lambda r: np.where(r < 25, 50, 0))
        assert calib._refine_radius(delta, 60, 60, 25.0) == (25.0, "few_edge_annuli")

    def test_non_negative_slope(self):
        delta = radial_image((120, 120), 60, 60, lambda r: np.where(r < 36, 0.3 * r, 0))
        assert calib._refine_radius(delta, 60, 60, 25.0) == (25.0, "non_negative_slope")

    def test_root_outside_band(self):
        # The band runs past the image, so no tail annuli reference the floor.
        delta = radial_image((40, 40), 20, 20, lambda r: 9.0 - 0.05 * r)
        assert calib._refine_radius(delta, 20, 20, 25.0) == (25.0, "root_outside_band")

    def test_detected_circle_carries_its_source(self, geom, optical, uniform_illum,
                                                flat_reference):
        diff, _ = press_difference(geom, optical, uniform_illum, flat_reference,
                                   4.0, 1.0)
        assert calib.detect_contact_circle(diff).radius_source == "refined"
        step = DifferenceImage(radial_image((120, 120), 60, 60,
                                            lambda r: np.where(r < 25, 50, 0)))
        assert calib.detect_contact_circle(step).radius_source == "few_edge_annuli"

    def test_default_and_unknown_source(self):
        assert calib.ContactCircle(5.0, 5.0, 2.0).radius_source == "refined"
        with pytest.raises(ValueError, match="radius source"):
            calib.ContactCircle(5.0, 5.0, 2.0, radius_source="guessed")


class TestKasaCircleFit:
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(1.0, 40.0))
    def test_exact_points_recovered(self, cx, cy, r):
        theta = np.linspace(0, 2 * math.pi, 40, endpoint=False)
        cu, cv, rr = calib.fit_circle_kasa(cx + r * np.cos(theta),
                                           cy + r * np.sin(theta))
        assert cu == pytest.approx(cx, abs=1e-6)
        assert cv == pytest.approx(cy, abs=1e-6)
        assert rr == pytest.approx(r, abs=1e-6)


class TestBoundaryMask:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1,
                                         max_side=29)))
    def test_matches_four_neighbour_definition(self, mask):
        # A mask pixel is on the boundary when one of its four neighbours is
        # outside the mask; neighbours beyond the image edge count as inside.
        padded = np.pad(mask, 1, constant_values=True)
        interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                    & padded[1:-1, :-2] & padded[1:-1, 2:])
        np.testing.assert_array_equal(calib._boundary_mask(mask),
                                      mask & ~interior)


class TestAnalyticBallDepth:
    def test_recovers_press_depth(self, geom):
        a_px = math.sqrt(7.0) / geom.pixel_pitch
        circle = calib.ContactCircle(290.0, 290.0, a_px)
        depth = calib.analytic_ball_depth(circle, 4.0, geom)
        assert depth.data.max() == pytest.approx(1.0, abs=1e-3)

    def test_small_contact_limit(self, geom):
        circle = calib.ContactCircle(290.0, 290.0, 0.5)
        depth = calib.analytic_ball_depth(circle, 4.0, geom)
        assert depth.data.max() < 1e-4

    def test_contact_wider_than_ball_rejected(self, geom):
        circle = calib.ContactCircle(290.0, 290.0, 4.5 / geom.pixel_pitch)
        with pytest.raises(GeometryError):
            calib.analytic_ball_depth(circle, 4.0, geom)

    def test_round_trip_through_simulator(self, geom, optical, uniform_illum,
                                          flat_reference):
        diff, truth = press_difference(geom, optical, uniform_illum,
                                       flat_reference, 4.0, 1.0)
        circle = calib.detect_contact_circle(diff)
        recovered = calib.analytic_ball_depth(circle, 4.0, geom)
        contact = truth.data > 0
        mae = np.abs(recovered.data - truth.data)[contact].mean()
        assert mae <= 0.01


class TestIsotonic:
    def test_already_monotone_unchanged(self):
        v = np.array([0.0, 1.0, 1.0, 2.5])
        assert np.array_equal(calib.isotonic_non_decreasing(v), v)

    def test_single_violation_pooled(self):
        out = calib.isotonic_non_decreasing(np.array([1.0, 3.0, 2.0]))
        assert np.array_equal(out, np.array([1.0, 2.5, 2.5]))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    def test_output_always_monotone(self, values):
        out = calib.isotonic_non_decreasing(np.array(values))
        assert np.all(np.diff(out) >= -1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    def test_idempotent(self, values):
        once = calib.isotonic_non_decreasing(np.array(values))
        twice = calib.isotonic_non_decreasing(once)
        assert np.allclose(once, twice)


@pytest.fixture(scope="module")
def calibrated(geom, optical, uniform_illum, flat_reference):
    diff, _ = press_difference(geom, optical, uniform_illum, flat_reference,
                               4.0, 1.9)
    circle = calib.detect_contact_circle(diff)
    truth = calib.analytic_ball_depth(circle, 4.0, geom)
    return calib.build_mapping_list(diff, truth, circle)


class TestBuildMappingList:
    def test_zero_maps_to_zero(self, calibrated):
        assert calibrated.depths[0] == 0.0

    def test_monotone(self, calibrated):
        assert np.all(np.diff(calibrated.depths) >= 0)

    def test_inverts_forward_model(self, calibrated, optical):
        idx = np.arange(1, calibrated.max_calibrated + 1)
        expected = depth_from_delta(optical, idx)
        assert np.abs(calibrated.depths[idx] - expected).max() <= 0.02

    def test_clamped_above_calibrated_range(self, calibrated):
        top = calibrated.depths[calibrated.max_calibrated]
        assert np.all(calibrated.depths[calibrated.max_calibrated:] == top)

    def test_insufficient_contact_rejected(self, geom):
        diff = DifferenceImage(np.zeros((64, 64), dtype=np.uint8))
        truth_zero = np.zeros((64, 64))
        from tacsense.core import DepthMap
        circle = calib.ContactCircle(32.0, 32.0, 2.0)
        with pytest.raises(InsufficientContactError):
            calib.build_mapping_list(diff, DepthMap(truth_zero), circle)


def full_frame_samples(diff, truth, center, rng):
    """collect_samples computed on every pixel of the frame."""
    vs, us = np.nonzero((diff.pixels >= 1) & (truth.data > 0))
    if len(us) > calib.MAX_SAMPLES_PER_PRESS:
        pick = rng.choice(len(us), size=calib.MAX_SAMPLES_PER_PRESS, replace=False)
        us, vs = us[pick], vs[pick]
    return (diff.pixels[vs, us].astype(np.float64), truth.data[vs, us],
            np.hypot(us - center[0], vs - center[1]))


class TestCollectSamples:
    """Samples come from the circle's box; full frames are the reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_frame(self, geom, seed):
        rng = np.random.default_rng(seed)
        size = geom.crop_size
        # Odd seeds put the centre within 15 px of the field edge.
        u, v = rng.uniform(0, 15, 2) if seed % 2 else rng.uniform(0, size, 2)
        if seed % 4 == 3:
            u, v = size - u, size - v
        circle = calib.ContactCircle(u, v, rng.uniform(5.0, 110.0))
        truth = calib.analytic_ball_depth(circle, 5.0, geom)
        diff = DifferenceImage(rng.integers(0, 40, (size, size), dtype=np.uint8))
        center = [(size / 2.0, size / 2.0), (size - 1.0, 0.0)][seed % 2]
        got = calib.collect_samples(diff, truth, circle, center,
                                    np.random.default_rng(seed))
        reference_rng = np.random.default_rng(seed)
        expected = full_frame_samples(diff, truth, center, reference_rng)
        assert len(expected[0]) > 0
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def linear_samples(rng, n, k, b, jitter=0.0):
    """(deltas, depths, radii) with depth/delta = k * radius + b, times noise."""
    radii = rng.uniform(0, 300, size=n)
    deltas = rng.integers(1, 150, size=n).astype(np.float64)
    depths = (k * radii + b) * deltas * rng.uniform(1 - jitter, 1 + jitter, size=n)
    return deltas, depths, radii


class TestCalibrateRegression:
    def test_blank_press_is_named_by_index(self, geom, optical, standard_illum,
                                           standard_reference):
        diff, _ = press_difference(geom, optical, standard_illum, standard_reference,
                                   4.0, 1.0)
        blank = DifferenceImage(np.zeros_like(diff.pixels))
        with pytest.raises(NoContactError) as exc:
            calib.calibrate_regression([diff, blank], 4.0, geom, "standard",
                                       np.random.default_rng(0))
        assert str(exc.value) == (f"press 1: no pixel reaches threshold "
                                  f"{calib.CONTACT_THRESHOLD}")

    def test_first_failure_in_press_order_is_raised(self, geom, optical,
                                                    standard_illum,
                                                    standard_reference):
        """Press 0's truth fails after press 1's circle did: press 0 is named."""
        diff, _ = press_difference(geom, optical, standard_illum, standard_reference,
                                   4.0, 1.0)
        blank = DifferenceImage(np.zeros_like(diff.pixels))
        with pytest.raises(GeometryError, match=r"^press 0: contact radius .* not "
                                                r"smaller than ball radius 0\.5$"):
            calib.calibrate_regression(iter([diff, blank]), 0.5, geom, "standard",
                                       np.random.default_rng(0))

    def test_a_generator_gives_the_model_of_a_list(self, geom, optical,
                                                   standard_illum,
                                                   standard_reference):
        diffs = [press_difference(geom, optical, standard_illum, standard_reference,
                                  4.0, d_max, center=(x, -x))[0]
                 for d_max, x in ((0.8, -3.0), (1.2, 0.0), (1.6, 4.0))]
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        from_list = calib.calibrate_regression(diffs, 4.0, geom, "standard", a)
        from_generator = calib.calibrate_regression((d for d in diffs), 4.0, geom,
                                                    "standard", b)
        assert from_generator == from_list
        assert a.bit_generator.state == b.bit_generator.state


class TestFitRegression:
    def test_exact_linear_data_recovered(self):
        k_true, b_true = 0.001, 0.01
        samples = linear_samples(np.random.default_rng(3), 200, k_true, b_true)
        model = calib.fit_regression(*samples, center=(290.0, 290.0))
        assert model.k_c == pytest.approx(k_true, rel=1e-9)
        assert model.b_c == pytest.approx(b_true, rel=1e-9)

    def test_center_prediction_uses_intercept_only(self):
        model = calib.RegressionModel(k_c=0.002, b_c=0.01,
                                      center_u=290.0, center_v=290.0)
        assert model.slope(290.0, 290.0) == pytest.approx(0.01)

    def test_single_radius_rejected(self):
        with pytest.raises(DegenerateFitError):
            calib.fit_regression(np.full(150, 10.0), np.full(150, 0.5),
                                 np.full(150, 50.0), center=(0.0, 0.0))

    def test_too_few_samples_rejected(self):
        with pytest.raises(DegenerateFitError):
            calib.fit_regression(np.full(20, 10.0), np.full(20, 0.5),
                                 np.arange(20.0), center=(0.0, 0.0))

    def test_zero_delta_sample_rejected_at_ingestion(self):
        deltas, depths, radii = linear_samples(np.random.default_rng(4), 200,
                                               0.001, 0.01)
        deltas[17] = 0.0
        with pytest.raises(ValueError, match="zero-difference"):
            calib.fit_regression(deltas, depths, radii, center=(0.0, 0.0))
        deltas[17] = 1.0
        depths[5] = 0.0
        with pytest.raises(ValueError, match="depth must be positive"):
            calib.fit_regression(deltas, depths, radii, center=(0.0, 0.0))

    def test_ols_residual_mean_is_zero(self):
        deltas, depths, radii = linear_samples(np.random.default_rng(9), 300,
                                               0.0005, 0.02, jitter=0.1)
        model = calib.fit_regression(deltas, depths, radii, center=(0.0, 0.0))
        residuals = depths / deltas - (model.k_c * radii + model.b_c)
        assert abs(residuals.mean()) < 1e-9


class TestLoadCalibration:
    @pytest.fixture
    def files(self, tmp_path):
        single = calib.MappingList(np.linspace(0.0, 2.0, 256), 200)
        regression = calib.RegressionModel(1e-4, 0.01, 290.0, 290.0)
        paths = {}
        for name, model in (("single", single), ("regression", regression)):
            paths[name] = tmp_path / f"{name}.json"
            calib.save_calibration(paths[name], model, 2.0)
        return paths

    def rewrite(self, path, edit):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("method, key", [
        ("single", "entries"), ("single", "max_calibrated"), ("single", "thickness"),
        ("regression", "k_c"), ("regression", "center_v"), ("regression", "method"),
    ])
    def test_deleted_key_named(self, files, method, key):
        self.rewrite(files[method], lambda p: p.pop(key))
        with pytest.raises(SensorError, match=re.escape(f"{method}.json: {key}: missing")):
            calib.load_calibration(files[method])

    @pytest.mark.parametrize("method, key, value, kind", [
        ("single", "thickness", "2", "number"),
        ("single", "max_calibrated", 3.5, "int"),
        ("single", "entries", [0.0, "x"], "numbers"),
        ("regression", "b_c", None, "number"),
        ("regression", "k_c", True, "number"),
        ("regression", "method", 1, "one of ('single', 'regression')"),
    ])
    def test_retyped_key_named(self, files, method, key, value, kind):
        self.rewrite(files[method], lambda p: p.update({key: value}))
        with pytest.raises(SensorError,
                           match=re.escape(f"{method}.json: {key}: expected {kind}")):
            calib.load_calibration(files[method])

    def test_invalid_model_names_the_file(self, files):
        self.rewrite(files["single"], lambda p: p.update(entries=[0.0, 1.0]))
        with pytest.raises(SensorError, match="single.json: mapping list must have 256"):
            calib.load_calibration(files["single"])

    def test_non_object_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(SensorError, match="c.json: expected a JSON object, got list"):
            calib.load_calibration(path)


class TestModelValidation:
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_mapping_list_refuses_non_finite_entries(self, value):
        # Both pass the monotonicity check: inf at the end, NaN anywhere.
        depths = np.linspace(0.0, 2.0, 256)
        depths[-1] = value
        with pytest.raises(ValueError, match="mapping list entries must be finite"):
            calib.MappingList(depths, 200)

    @pytest.mark.parametrize("key", ["k_c", "b_c", "center_u", "center_v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_regression_model_refuses_non_finite_values(self, key, value):
        values = {"k_c": 1e-4, "b_c": 0.01, "center_u": 290.0, "center_v": 290.0}
        with pytest.raises(ValueError, match=f"{key} must be finite, got {value}"):
            calib.RegressionModel(**{**values, key: value})

    def test_lookup_table_is_float32_copy_of_depths(self):
        model = calib.MappingList(np.linspace(0.0, 2.0, 256), 200)
        assert model.depths.dtype == np.float64
        deltas = np.arange(256, dtype=np.uint8)
        out = model.depth(deltas)
        assert out.dtype == np.float32 and out.flags.writeable
        assert np.array_equal(out, model.depths.astype(np.float32))
        assert not np.shares_memory(out, model.depth(deltas))
