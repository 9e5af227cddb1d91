import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tacsense import calib, recon, sim
from tacsense.core import (
    DifferenceImage,
    GrayImage,
    InsufficientContactError,
    GeometryError,
    NoContactError,
    DegenerateFitError,
)


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
        circle = calib.detect_contact_circle(diff, threshold=5)
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
        expected = optical.depth_from_delta(idx)
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


def linear_samples(rng, n, k, b, jitter=0.0):
    """(deltas, depths, radii) with depth/delta = k * radius + b, times noise."""
    radii = rng.uniform(0, 300, size=n)
    deltas = rng.integers(1, 150, size=n).astype(np.float64)
    depths = (k * radii + b) * deltas * rng.uniform(1 - jitter, 1 + jitter, size=n)
    return deltas, depths, radii


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
