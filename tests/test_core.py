import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tacsense.core import (
    DepthMap,
    DifferenceImage,
    GeometryError,
    GrayImage,
    PointCloud,
    RgbImage,
    SensorGeometry,
    gray_from_rgb,
    image_mean_std,
    pixel_to_surface,
    surface_axis,
)


def rgb1(r, g, b):
    return RgbImage(np.array([[[r, g, b]]], dtype=np.uint8))


class TestPixelToSurface:
    def test_center_maps_to_origin(self, geom):
        assert pixel_to_surface(geom, 290, 290) == (0.0, 0.0)

    def test_right_edge_is_half_field(self, geom):
        x, y = pixel_to_surface(geom, 580, 290)
        assert x == pytest.approx(12.0)
        assert y == pytest.approx(0.0)

    def test_top_left_corner(self, geom):
        assert pixel_to_surface(geom, 0, 0) == pytest.approx((-12.0, -12.0))

    def test_out_of_range_raises(self, geom):
        with pytest.raises(GeometryError):
            pixel_to_surface(geom, 581, 0)
        with pytest.raises(GeometryError):
            pixel_to_surface(geom, 0, -1)

    @given(u=st.integers(0, 579), v=st.integers(0, 580))
    def test_affine_in_u(self, u, v):
        g = SensorGeometry()
        x0, _ = pixel_to_surface(g, u, v)
        x1, _ = pixel_to_surface(g, u + 1, v)
        assert x1 - x0 == pytest.approx(g.pixel_pitch)

    def test_surface_grid_matches_pointwise(self, geom):
        axis = surface_axis(geom)
        for u, v in [(0, 0), (290, 290), (579, 100)]:
            x, y = pixel_to_surface(geom, u, v)
            assert axis[u] == pytest.approx(x)
            assert axis[v] == pytest.approx(y)


class TestGeometry:
    def test_pixel_pitch(self, geom):
        assert geom.pixel_pitch == pytest.approx(24.0 / 580)

    def test_crop_must_fit(self):
        with pytest.raises(ValueError):
            SensorGeometry(raw_width=500, raw_height=600, crop_size=580)

    @pytest.mark.parametrize("values, message", [
        ({"raw_width": 800.0}, "raw_width must be an integer, got 800.0"),
        ({"raw_height": True}, "raw_height must be an integer, got True"),
        ({"crop_size": "580"}, "crop_size must be an integer, got '580'"),
        ({"crop_size": -5}, "crop_size must be positive, got -5"),
        ({"crop_size": 0}, "crop_size must be positive, got 0"),
        ({"raw_width": 0, "crop_size": 0}, "raw_width must be positive, got 0"),
        ({"field_mm": float("nan")}, "field_mm must be finite and positive, got nan"),
        ({"field_mm": float("inf")}, "field_mm must be finite and positive, got inf"),
        ({"field_mm": 0.0}, "field_mm must be finite and positive, got 0.0"),
        ({"field_mm": 1e-320}, "pixel_pitch (field_mm / crop_size) must be a "
                               "positive normal float"),
        ({"field_mm": 7e38}, "field_mm / 2 must fit a float32, got 7e+38"),
        ({"field_mm": 1.7e308}, "field_mm / 2 must fit a float32, got 1.7e+308"),
        ({"raw_width": 4097}, "raw_width must be at most 4096 px, got 4097"),
        ({"raw_height": 100000}, "raw_height must be at most 4096 px, got 100000"),
    ])
    def test_unusable_values_refused_naming_the_key(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SensorGeometry(**values)

    def test_largest_frame_accepted(self):
        geom = SensorGeometry(raw_width=4096, raw_height=4096, crop_size=4096)
        assert geom.pixel_pitch == 24.0 / 4096

    def test_smallest_usable_pitch(self):
        geom = SensorGeometry(crop_size=1, field_mm=sys.float_info.min)
        assert geom.pixel_pitch == sys.float_info.min
        assert SensorGeometry(crop_size=np.int64(290)).pixel_pitch == 24.0 / 290

    def test_largest_usable_field(self):
        """The field's half is the largest float32, so full clouds stay finite."""
        largest = 2.0 * float(np.finfo(np.float32).max)
        assert SensorGeometry(field_mm=largest).field_mm == largest
        with pytest.raises(ValueError, match="field_mm / 2 must fit a float32"):
            SensorGeometry(field_mm=np.nextafter(largest, np.inf))


class TestGrayFromRgb:
    def test_white(self):
        assert gray_from_rgb(rgb1(255, 255, 255)).pixels[0, 0] == 255

    def test_black(self):
        assert gray_from_rgb(rgb1(0, 0, 0)).pixels[0, 0] == 0

    def test_pure_red(self):
        # round(0.299 * 255) = 76
        assert gray_from_rgb(rgb1(255, 0, 0)).pixels[0, 0] == 76

    @given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
           st.integers(0, 2))
    def test_monotone_in_each_channel(self, rgb, channel):
        r, g, b = rgb
        lo = gray_from_rgb(rgb1(r, g, b)).pixels[0, 0]
        bumped = list(rgb)
        bumped[channel] = min(255, bumped[channel] + 1)
        hi = gray_from_rgb(rgb1(*bumped)).pixels[0, 0]
        assert hi >= lo


class TestImageMeanStd:
    def test_constant_image(self):
        img = GrayImage(np.full((10, 10), 128, dtype=np.uint8))
        assert image_mean_std(img) == (128.0, 0.0)

    def test_two_pixel_image(self):
        img = GrayImage(np.array([[0, 2]], dtype=np.uint8))
        assert image_mean_std(img) == (1.0, 1.0)

    def test_standard_reference_std_bracket(self, standard_reference):
        _, std = image_mean_std(standard_reference)
        assert 3.0 <= std <= 6.0

    @given(st.integers(0, 255))
    def test_constant_std_is_exactly_zero(self, value):
        img = GrayImage(np.full((7, 3), value, dtype=np.uint8))
        assert image_mean_std(img)[1] == 0.0


class TestTypeInvariants:
    def test_depth_map_rejects_negative(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[-0.1]]))

    def test_depth_map_rejects_nan(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[np.nan]]))

    def test_gray_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((4, 4), dtype=np.float64))

    @pytest.mark.parametrize("cls, shape, message", [
        (GrayImage, (4,), "gray image must be 2-D, got shape (4,)"),
        (GrayImage, (4, 4), "gray image must be uint8, got float64"),
        (DifferenceImage, (4, 4, 3), "difference image must be 2-D, got shape (4, 4, 3)"),
        (DifferenceImage, (4, 4), "difference image must be uint8, got float64"),
        (RgbImage, (4, 4), "rgb image must have shape (h, w, 3), got (4, 4)"),
        (RgbImage, (4, 4, 3), "rgb image must be uint8, got float64"),
    ])
    def test_raster_errors_name_the_type(self, cls, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(np.zeros(shape, dtype=np.float64))

    @pytest.mark.parametrize("cls, shape", [(GrayImage, (3, 5)),
                                            (DifferenceImage, (3, 5)),
                                            (RgbImage, (3, 5, 3))])
    def test_raster_width_and_height(self, cls, shape):
        img = cls(np.zeros(shape, dtype=np.uint8))
        assert (img.width, img.height) == (5, 3)

    def test_images_are_immutable(self):
        img = GrayImage(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    @pytest.mark.parametrize("normals, message", [
        (np.zeros((4, 3)), "normals must have the points' shape (5, 3), got (4, 3)"),
        (np.zeros((5, 2)), "normals must have the points' shape (5, 3), got (5, 2)"),
        (np.full((5, 3), np.nan), "point cloud contains non-finite normals"),
        (np.full((5, 3), np.inf), "point cloud contains non-finite normals"),
    ])
    def test_point_cloud_rejects_bad_normals(self, normals, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PointCloud(np.zeros((5, 3)), normals)

    def test_point_cloud_normals_are_read_only_copies(self):
        normals = np.tile([0.0, 0.0, 1.0], (5, 1))
        cloud = PointCloud(np.zeros((5, 3)), normals)
        normals[0] = 1.0
        assert np.array_equal(cloud.normals, np.tile([0.0, 0.0, 1.0], (5, 1)))
        with pytest.raises(ValueError):
            cloud.normals[0, 0] = 1.0
        assert PointCloud(np.zeros((5, 3))).normals is None


class TestCopyContract:
    """DepthMap and PointCloud copy what others can write and keep what they cannot."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_depth_map_unaffected_by_later_writes(self, dtype):
        data = np.full((3, 4), 0.5, dtype=dtype)
        depth = DepthMap(data)
        data[0, 0] = 7.0
        assert depth.data[0, 0] == 0.5
        assert not depth.data.flags.writeable

    def test_point_cloud_unaffected_by_later_writes(self):
        points = np.zeros((5, 3))
        cloud = PointCloud(points)
        points[0] = 1.0
        assert not cloud.points.any()

    def test_read_only_view_of_writable_array_is_copied(self):
        data = np.zeros((3, 4), dtype=np.float32)
        view = data[:, :]
        view.flags.writeable = False
        depth = DepthMap(view)
        data[0, 0] = 1.0
        assert depth.data[0, 0] == 0.0
        assert not np.shares_memory(depth.data, data)

    def test_read_only_view_of_read_only_owner_is_copied(self):
        # The owner could be made writable again, so the view is no sealed array.
        owner = np.zeros(12)
        owner.flags.writeable = False
        assert not np.shares_memory(DepthMap(owner.reshape(3, 4)).data, owner)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_only_owned_depth_is_shared(self, dtype):
        data = np.full((3, 4), 0.5, dtype=dtype)
        data.flags.writeable = False
        assert DepthMap(data).data is data

    def test_read_only_owned_points_and_normals_are_shared(self):
        points, normals = np.zeros((5, 3)), np.zeros((5, 3))
        points.flags.writeable = normals.flags.writeable = False
        cloud = PointCloud(points, normals)
        assert cloud.points is points and cloud.normals is normals

    def test_view_of_immutable_bytes_is_shared(self):
        data = np.frombuffer(np.arange(12, dtype=np.float32).tobytes(),
                             dtype=np.float32).reshape(3, 4)
        assert DepthMap(data).data is data

    @pytest.mark.parametrize("dtype, kept", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float64), (np.int64, np.float64), (np.uint8, np.float64),
    ])
    def test_depth_dtype(self, dtype, kept):
        assert DepthMap(np.ones((2, 2), dtype=dtype)).data.dtype == kept

    @pytest.mark.parametrize("dtype, kept", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float64), (np.int64, np.float64),
    ])
    def test_point_cloud_dtype(self, dtype, kept):
        normals = np.tile(np.array([0, 0, 1], dtype=dtype), (4, 1))
        cloud = PointCloud(np.ones((4, 3), dtype=dtype), normals)
        assert cloud.points.dtype == kept and cloud.normals.dtype == kept
        assert len(PointCloud(np.zeros((0, 3), dtype=dtype))) == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_float32_point_cloud_is_validated(self, value):
        bad = np.zeros((3, 3), dtype=np.float32)
        bad[1, 2] = value
        with pytest.raises(ValueError, match="non-finite coordinates"):
            PointCloud(bad)
        with pytest.raises(ValueError, match="non-finite normals"):
            PointCloud(np.zeros((3, 3), dtype=np.float32), bad)

    def test_float32_depth_is_validated(self):
        for value in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                DepthMap(np.array([[0.0, value]], dtype=np.float32))
