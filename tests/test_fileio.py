import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tacsense import fileio, recon
from tacsense.core import DepthMap, GrayImage, PointCloud, SensorGeometry, surface_axis
from tacsense.fileio import FormatError


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, (13, 17), dtype=np.uint8))
        path = tmp_path / "frame.pgm"
        fileio.write_pgm(path, img)
        back = fileio.read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "frame.pgm"
        fileio.write_pgm(path, GrayImage(np.zeros((2, 3), dtype=np.uint8)))
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_comment_in_header_accepted(self, tmp_path):
        path = tmp_path / "frame.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        img = fileio.read_pgm(path)
        assert img.pixels.shape == (2, 2)

    def test_comment_before_every_field_accepted(self, tmp_path):
        path = tmp_path / "frame.pgm"
        path.write_bytes(b"P5# after the magic\n3#w\n\t#\n2 # h\n255\n" + bytes(range(6)))
        assert fileio.read_pgm(path).pixels.tolist() == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("content, offset", [
        (b"P5\n3 2\n# runs to the end", 24),  # a comment to the end of the file
        (b"P5\n3 2#\n#", 9),
        (b"P5", 2),
        (b"P5 \t\n", 5),
        (b"P5\n3 x2\n255\n", 5),  # a non-digit after whitespace
        (b"P5\n3\x1c2 255\n", 4),  # \x1c is no PGM whitespace
        (b"P5\n-3 2 255\n", 3),
        (b"P5\n# c\n3 2\n# c\n+255\n", 15),
    ])
    def test_malformed_header_reports_offset(self, tmp_path, content, offset):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(FormatError) as exc:
            fileio.read_pgm(path)
        assert str(exc.value) == f"{path}: malformed PGM header at byte {offset}"

    @pytest.mark.parametrize("header, offset", [
        (b"P5 # 1 255\n", 3), (b"P5 1 # 255\n", 5), (b"P5 1 1 #\n", 7)])
    def test_field_too_long_for_int_reports_offset(self, tmp_path, header, offset):
        # 5,000 digits exceed int()'s default limit of 4,300.
        path = tmp_path / "long.pgm"
        path.write_bytes(header.replace(b"#", b"9" * 5000))
        with pytest.raises(FormatError) as exc:
            fileio.read_pgm(path)
        assert str(exc.value) == (f"{path}: header field too long (5000 digits) "
                                  f"at byte {offset}")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(FormatError, match="byte 0"):
            fileio.read_pgm(path)

    def test_truncated_raster_reports_offset(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FormatError, match="truncated raster at byte 18"):
            fileio.read_pgm(path)

    def test_unsupported_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError, match="maxval"):
            fileio.read_pgm(path)


class TestDepth:
    def test_round_trip_float32_exact(self, tmp_path):
        # float32-representable values survive the round trip bit-exactly
        values = np.array([[0.0, 0.5], [1.25, 2.0]])
        path = tmp_path / "d.dtd"
        fileio.write_depth(path, DepthMap(values))
        back = fileio.read_depth(path)
        assert np.array_equal(back.data, values)

    def test_read_is_a_read_only_float32_view(self, tmp_path):
        path = tmp_path / "d.dtd"
        fileio.write_depth(path, DepthMap(np.array([[0.0, 0.5], [1.25, 2.0]])))
        back = fileio.read_depth(path).data
        assert back.dtype == np.float32
        assert not back.flags.writeable and not back.flags.owndata
        with pytest.raises(ValueError):
            back[0, 0] = 1.0

    def test_round_trip_within_float32_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 2.0, (40, 30))
        path = tmp_path / "d.dtd"
        fileio.write_depth(path, DepthMap(values))
        back = fileio.read_depth(path)
        assert np.abs(back.data - values).max() < 1e-6

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.dtd"
        fileio.write_depth(path, DepthMap(np.zeros((2, 3))))
        assert path.read_bytes().startswith(b"DTDEPTH1\n3 2\n")

    def test_float32_overflow_refused_before_writing(self, tmp_path):
        path = tmp_path / "d.dtd"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: depth "
                               "values overflow float32$"):
                fileio.write_depth(path, DepthMap(np.array([[0.0, 1e39]])))
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dtd"
        path.write_bytes(b"NOTDEPTH\n2 2\n" + bytes(16))
        with pytest.raises(FormatError, match="byte 0"):
            fileio.read_depth(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.dtd"
        path.write_bytes(b"DTDEPTH1\n2 2\n" + bytes(10))
        with pytest.raises(FormatError, match="truncated depth data at byte 23"):
            fileio.read_depth(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "head.dtd"
        path.write_bytes(b"DTDEPTH1\n2x2\n" + bytes(16))
        with pytest.raises(FormatError, match="header at byte 8"):
            fileio.read_depth(path)

    @pytest.mark.parametrize("header, offset", [
        (b"DTDEPTH1\n# 1\n", 9), (b"DTDEPTH1\n1 #\n", 11)])
    def test_field_too_long_for_int_reports_offset(self, tmp_path, header, offset):
        path = tmp_path / "long.dtd"
        path.write_bytes(header.replace(b"#", b"9" * 5000))
        with pytest.raises(FormatError) as exc:
            fileio.read_depth(path)
        assert str(exc.value) == (f"{path}: header field too long (5000 digits) "
                                  f"at byte {offset}")

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_invalid_value_reports_offset(self, tmp_path, value):
        path = tmp_path / "bad.dtd"
        values = np.array([0.5, 0.0, value, 1.0], dtype="<f4")
        path.write_bytes(b"DTDEPTH1\n2 2\n" + values.tobytes())
        with pytest.raises(FormatError, match="at byte 21"):
            fileio.read_depth(path)


XYZ_HEADER = ("element vertex {n}\n"
              "property float x\nproperty float y\nproperty float z\n"
              "end_header\n")


def ascii_ply(points) -> bytes:
    """A cloud in the layout of the earlier ASCII writer: %.9g of float32."""
    rows = "".join(" ".join(f"{v:.9g}" for v in row) + "\n"
                   for row in np.asarray(points, dtype=np.float32))
    return ("ply\nformat ascii 1.0\n" + XYZ_HEADER.format(n=len(points))
            + rows).encode("ascii")


def ply_file(tmp_path, content, name="c.ply"):
    path = tmp_path / name
    path.write_bytes(content.encode("ascii") if isinstance(content, str)
                     else content)
    return path


ASCII_XYZ = "ply\nformat ascii 1.0\n" + XYZ_HEADER.format(n=3)  # 100 bytes
BINARY_XYZ = "ply\nformat binary_little_endian 1.0\n" + XYZ_HEADER.format(n=2)


class TestJson:
    def test_round_trip_with_two_space_indent(self, tmp_path):
        path = tmp_path / "a.json"
        fileio.write_json(path, {"a": [1, 2.5], "b": None})
        assert path.read_text().startswith('{\n  "a": [\n')
        assert fileio.read_json(path) == {"a": [1, 2.5], "b": None}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused_before_writing(self, tmp_path, value):
        path = tmp_path / "a.json"
        with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range")):
            fileio.write_json(path, {"rmse": [0.5, value]})
        assert not path.exists()

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_constant_refused_naming_the_file(self, tmp_path, text):
        path = tmp_path / "a.json"
        path.write_text(f'{{"rmse": [0.5, {text}]}}')
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}: {text} is not a finite number")):
            fileio.read_json(path)


def _json_number(value) -> bool:
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _positive_with_square_from(low: float):
    """A number > 0 whose float64 square, taken by numpy, lies in [low, inf)."""
    def meaning(value) -> bool:
        if not (_json_number(value) and value > 0):
            return False
        with np.errstate(over="ignore", under="ignore"):
            return bool(low <= np.square(np.float64(value)) < np.inf)
    return meaning


# What each check_fields kind means, spelled out independently of fileio.
KIND_MEANINGS = {
    "object": lambda v: type(v) is dict,
    "list": lambda v: type(v) is list,
    "int": lambda v: type(v) is int,
    "int >= 0": lambda v: type(v) is int and v >= 0,
    "int > 0": lambda v: type(v) is int and v > 0,
    "number": _json_number,
    "number >= 0 whose square is finite": lambda v: (
        (_json_number(v) and v == 0) or _positive_with_square_from(0.0)(v)),
    "number > 0 whose square is finite": _positive_with_square_from(0.0),
    "number > 0 whose square is a normal float":
        _positive_with_square_from(sys.float_info.min),
    "numbers": lambda v: type(v) is list and all(map(_json_number, v)),
    "path inside the run": lambda v: (type(v) is str and not v.startswith("/")
                                      and ".." not in v.split("/") and "\0" not in v),
}
CHOICES = ("single", "regression")
EDGE_VALUES = [None, True, False, 0, 0.0, -0.0, 1, -1, 5e-324, 10 ** 400, -10 ** 400,
               math.nan, math.inf, "", "single"]
JSON_VALUES = st.recursive(
    st.sampled_from(EDGE_VALUES) | st.integers() | st.integers(-10 ** 400, 10 ** 400)
    | st.floats() | st.text(max_size=12) | st.sampled_from(CHOICES),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=8)


class TestCheckFields:
    def test_every_kind_has_a_meaning(self):
        assert set(KIND_MEANINGS) == set(fileio._JSON_KINDS)

    @pytest.mark.parametrize("kind", [*KIND_MEANINGS, CHOICES])
    @settings(max_examples=150, deadline=None)
    @given(value=st.sampled_from(EDGE_VALUES) | JSON_VALUES)
    def test_accepts_exactly_the_values_of_the_kind(self, kind, value):
        if isinstance(kind, tuple):
            valid = type(value) is str and value in kind
        else:
            valid = KIND_MEANINGS[kind](value)
        payload = {"outer": {"key": value}}
        if valid:
            fileio.check_fields("f.json", payload["outer"], {"key": kind}, at="outer")
        else:
            with pytest.raises(FormatError) as exc:
                fileio.check_fields("f.json", payload["outer"], {"key": kind},
                                    at="outer")
            expected = f"one of {kind}" if isinstance(kind, tuple) else kind
            assert str(exc.value).startswith(
                f"f.json: outer.key: expected {expected}, got {type(value).__name__} ")


    @pytest.mark.parametrize("value, inside", [
        ("frame_000.pgm", True), ("sub/frame_000.pgm", True), ("./a..b.pgm", True),
        ("", True), ("../b/frame_000.pgm", False), ("sub/../../x.pgm", False),
        ("..", False), ("/etc/hostname", False), ("//x.pgm", False),
        ("frame\0.pgm", False), ("\0", False)])
    def test_path_inside_the_run(self, value, inside):
        schema = {"image": "path inside the run"}
        if inside:
            fileio.check_fields("manifest.json", {"image": value}, schema)
        else:
            with pytest.raises(FormatError, match=re.escape(
                    f"manifest.json: image: expected path inside the run, "
                    f"got str {value!r}")):
                fileio.check_fields("manifest.json", {"image": value}, schema)

    @pytest.mark.parametrize("kind, value, accepted", [
        ("number > 0 whose square is finite", 1e154, True),
        ("number > 0 whose square is finite", 10 ** 154, True),
        ("number > 0 whose square is finite", 1e-300, True),  # squares to 0.0
        ("number > 0 whose square is finite", 1e155, False),
        ("number > 0 whose square is finite", 10 ** 155, False),
        ("number > 0 whose square is finite", 1.7e308, False),
        ("number > 0 whose square is finite", 0.0, False),
        ("number >= 0 whose square is finite", 0, True),
        ("number >= 0 whose square is finite", -0.0, True),
        ("number >= 0 whose square is finite", 1e154, True),
        ("number >= 0 whose square is finite", 1e155, False),
        ("number >= 0 whose square is finite", 10 ** 155, False),
        ("number >= 0 whose square is finite", -1e-300, False),
        ("number > 0 whose square is a normal float", 1e-150, True),
        ("number > 0 whose square is a normal float", 1e154, True),
        ("number > 0 whose square is a normal float", 1e-160, False),  # subnormal
        ("number > 0 whose square is a normal float", 1e-300, False),
        ("number > 0 whose square is a normal float", 1e155, False),
        ("number > 0 whose square is a normal float", -1.5, False)])
    def test_square_kinds_at_the_float_range(self, kind, value, accepted):
        schema = {"sigma": kind}
        if accepted:
            fileio.check_fields("config", {"sigma": value}, schema)
        else:
            with pytest.raises(FormatError, match=re.escape(
                    f"config: sigma: expected {kind}, got {type(value).__name__} ")):
                fileio.check_fields("config", {"sigma": value}, schema)


class TestPly:
    def test_round_trip(self, tmp_path):
        pts = np.array([[0.0, 1.0, -0.5], [2.25, -3.5, 4.0]])
        path = tmp_path / "c.ply"
        fileio.write_ply(path, PointCloud(pts))
        back = fileio.read_ply(path)
        assert np.abs(back.points - pts).max() < 1e-6

    @pytest.mark.parametrize("binary", [True, False])
    def test_read_is_read_only(self, tmp_path, binary):
        pts = np.array([[0.0, 1.0, -0.5], [2.25, -3.5, 4.0]])
        path = tmp_path / "c.ply"
        if binary:
            fileio.write_ply(path, PointCloud(pts))
        else:
            path.write_bytes(ascii_ply(pts))
        points = fileio.read_ply(path).points
        # write_ply's layout reads as float32, ASCII as float64.
        assert points.dtype == (np.float32 if binary else np.float64)
        assert not points.flags.writeable
        with pytest.raises(ValueError):
            points[0, 0] = 1.0
        assert np.array_equal(points, pts)

    def test_vertex_count_in_header(self, tmp_path):
        path = tmp_path / "c.ply"
        fileio.write_ply(path, PointCloud(np.zeros((2, 3))))
        assert "element vertex 2" in path.read_text()

    def test_binary_little_endian_layout(self, tmp_path):
        pts = np.array([[1.0, -2.0, 0.5]])
        path = tmp_path / "c.ply"
        fileio.write_ply(path, PointCloud(pts))
        header = ("ply\nformat binary_little_endian 1.0\n"
                  + XYZ_HEADER.format(n=1)).encode("ascii")
        assert path.read_bytes() == header + pts.astype("<f4").tobytes()

    def test_binary_read_keeps_the_file_bytes_uncopied(self, tmp_path):
        path = tmp_path / "c.ply"
        fileio.write_ply(path, PointCloud(np.ones((4, 3), dtype=np.float32)))
        assert not fileio.read_ply(path).points.flags.owndata

    def test_strided_float32_cloud_writes_its_points(self, tmp_path):
        # A stride of a cloud read from a file, every step-th point as
        # pose.icp samples its source, stays a strided view of the file's bytes.
        rows = np.arange(30, dtype="<f4").reshape(10, 3)
        strided = np.frombuffer(rows.tobytes(), dtype="<f4").reshape(10, 3)[::3]
        cloud = PointCloud(strided)
        assert cloud.points is strided and not strided.flags.c_contiguous
        path = tmp_path / "c.ply"
        fileio.write_ply(path, cloud)
        header = ("ply\nformat binary_little_endian 1.0\n"
                  + XYZ_HEADER.format(n=4)).encode("ascii")
        assert path.read_bytes() == header + rows[::3].tobytes()

    def test_float32_overflow_refused(self, tmp_path):
        with pytest.raises(ValueError, match="overflow float32"):
            fileio.write_ply(tmp_path / "c.ply", PointCloud([[1e39, 0.0, 0.0]]))

    def test_empty_cloud_round_trip(self, tmp_path):
        path = tmp_path / "empty.ply"
        fileio.write_ply(path, PointCloud(np.zeros((0, 3))))
        back = fileio.read_ply(path)
        assert back.points.shape == (0, 3)
        assert back.points.dtype == np.float32  # as every file in this layout

    def test_ascii_file_of_earlier_writer_loads(self, tmp_path):
        # Byte for byte what the ASCII writer (np.savetxt, "%.9g") produced.
        path = ply_file(tmp_path, ASCII_XYZ + "0 1 -0.5\n"
                        "2.25 -3.5 4\n-11.9793081 0.0206896551 -1.89999998\n")
        back = fileio.read_ply(path)
        expected = np.array([[0.0, 1.0, -0.5], [2.25, -3.5, 4.0],
                             [-11.9793081, 0.0206896551, -1.89999998]])
        assert np.array_equal(back.points, expected)

    def test_extra_properties_and_later_elements_skipped(self, tmp_path):
        header = ("ply\nformat {}\ncomment made by hand\nelement vertex 2\n"
                  "property uchar red\nproperty double z\nproperty float y\n"
                  "property int32 id\nproperty float x\n"
                  "element face 1\nproperty list uchar int vertex_indices\n"
                  "end_header\n")
        row = np.dtype([("red", "u1"), ("z", "<f8"), ("y", "<f4"),
                        ("id", "<i4"), ("x", "<f4")])
        rec = np.array([(255, -0.5, 2.0, 7, 1.0), (0, 1.25, -3.0, 8, 0.0)],
                       dtype=row)
        binary = ply_file(tmp_path, header.format("binary_little_endian 1.0")
                          .encode("ascii") + rec.tobytes() + b"\x03\x00\x00",
                          "b.ply")
        ascii_ = ply_file(tmp_path, header.format("ascii 1.0")
                          + "255 -0.5 2 7 1\n0 1.25 -3 8 0\n3 0 1 1\n", "a.ply")
        expected = np.array([[1.0, 2.0, -0.5], [0.0, -3.0, 1.25]])
        assert np.array_equal(fileio.read_ply(binary).points, expected)
        assert np.array_equal(fileio.read_ply(ascii_).points, expected)

    def test_ascii_last_row_without_newline(self, tmp_path):
        path = ply_file(tmp_path, ASCII_XYZ + "0 0 0\n1 1 1\n2 2 2")
        assert fileio.read_ply(path).points[2].tolist() == [2.0, 2.0, 2.0]

    def test_ascii_crlf_rows_and_every_separator(self, tmp_path):
        path = ply_file(tmp_path, ASCII_XYZ + "0\t1\v2\r\n \f3  4\t\t5 \r\n6\r7\f8\r\n")
        assert fileio.read_ply(path).points.tolist() == [[0, 1, 2], [3, 4, 5],
                                                         [6, 7, 8]]

    @pytest.mark.parametrize("body, message", [
        # A whitespace-only tail after the last row is no row...
        ("0 0 0\n1 1 1\n \t\r\v\f", "truncated PLY body at byte {size}, "
                                   "expected 3 vertices, found 2"),
        ("0 0 0\n1 1 1\n\n", "PLY vertex row 2 at byte 112 has 0 values, "
                            "expected 3"),
        # ...but an unterminated last row with values is one.
        ("0 0 0\n1 1 1\n  5", "PLY vertex row 2 at byte 112 has 1 values, "
                            "expected 3"),
        ("0 0 0\r\n\r\n1 1 1\n", "PLY vertex row 1 at byte 107 has 0 values, "
                                  "expected 3"),
        ("", "truncated PLY body at byte {size}, expected 3 vertices, found 0"),
        (" \r\n", "truncated PLY body at byte {size}, expected 3 vertices, found 1"),
    ])
    def test_ascii_row_count_and_offsets(self, tmp_path, body, message):
        path = ply_file(tmp_path, ASCII_XYZ + body)
        with pytest.raises(FormatError) as exc:
            fileio.read_ply(path)
        size = path.stat().st_size
        assert str(exc.value) == f"{path}: {message.format(size=size)}"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("obj\n")
        with pytest.raises(FormatError, match="byte 0"):
            fileio.read_ply(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "short.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "end_header\n0 0 0\n")
        with pytest.raises(FormatError, match="truncated PLY body"):
            fileio.read_ply(path)

    def test_truncated_binary_body_reports_offset(self, tmp_path):
        path = ply_file(tmp_path, BINARY_XYZ.encode("ascii") + bytes(20))
        size = path.stat().st_size
        with pytest.raises(FormatError, match=f"truncated PLY body at byte {size}, "
                           "expected 2 vertices, found 1"):
            fileio.read_ply(path)

    def test_missing_vertex_count_rejected(self, tmp_path):
        path = tmp_path / "nohdr.ply"
        path.write_text("ply\nformat ascii 1.0\nend_header\n")
        with pytest.raises(FormatError, match="missing PLY header"):
            fileio.read_ply(path)

    def test_non_numeric_value_reports_row_offset(self, tmp_path):
        path = ply_file(tmp_path, ASCII_XYZ + "0 0 0\n1 abc 1\n2 2 2\n")
        with pytest.raises(FormatError, match="row 1 at byte 106 has non-numeric"):
            fileio.read_ply(path)

    def test_ragged_row_reports_row_offset(self, tmp_path):
        # The two bad rows hold six values between them, as three rows should.
        path = ply_file(tmp_path, ASCII_XYZ + "0 0 0\n1 1\n2 2 2 2\n")
        with pytest.raises(FormatError, match="row 1 at byte 106 has 2 values, "
                           "expected 3"):
            fileio.read_ply(path)

    def test_big_endian_rejected_with_offset(self, tmp_path):
        path = ply_file(tmp_path, "ply\nformat binary_big_endian 1.0\n"
                        + XYZ_HEADER.format(n=1) + "\0" * 12)
        with pytest.raises(FormatError, match="unsupported PLY format "
                           "'format binary_big_endian 1.0' at byte 4"):
            fileio.read_ply(path)

    @pytest.mark.parametrize("header, message", [
        ("format ascii 1.0\nformat ascii 1.0\n",
         "misplaced PLY format line 'format ascii 1.0' at byte 21"),
        ("element vertex 1\n",
         "PLY element before the format line 'element vertex 1' at byte 4"),
        ("format ascii 1.0\nelement vertex x\n",
         "malformed PLY element 'element vertex x' at byte 21"),
        ("format ascii 1.0\nelement face 1\n",
         "first PLY element is not vertex 'element face 1' at byte 21"),
        ("format ascii 1.0\nelement vertex 1\nelement vertex 2\n",
         "second PLY vertex element 'element vertex 2' at byte 38"),
        ("format ascii 1.0\nproperty float x\n",
         "PLY property outside an element 'property float x' at byte 21"),
        ("format ascii 1.0\nelement vertex 1\nproperty float x\nproperty float x\n",
         "duplicate PLY vertex property 'property float x' at byte 55"),
    ])
    def test_bad_header_line_refused_with_offset(self, tmp_path, header, message):
        path = ply_file(tmp_path, "ply\n" + header + "end_header\n0 0 0\n")
        with pytest.raises(FormatError) as exc:
            fileio.read_ply(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_list_property_in_vertex_rejected_with_offset(self, tmp_path):
        path = ply_file(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property list uchar float x\nend_header\n3 0 0 0\n")
        with pytest.raises(FormatError, match="list property .* at byte 38"):
            fileio.read_ply(path)

    def test_missing_coordinate_property_rejected(self, tmp_path):
        path = ply_file(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property float x\nproperty float y\nend_header\n0 0\n")
        with pytest.raises(FormatError, match=r"lacks properties \['z'\] "
                           "before byte 72"):
            fileio.read_ply(path)

    def test_nan_coordinate_reports_row_offset(self, tmp_path):
        ascii_ = ply_file(tmp_path, ASCII_XYZ + "0 0 0\n0 0 0\n0 nan 0\n", "a.ply")
        with pytest.raises(FormatError, match="non-finite PLY vertex 2 at byte 112"):
            fileio.read_ply(ascii_)
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, np.inf]], dtype="<f4")
        binary = ply_file(tmp_path, BINARY_XYZ.encode("ascii") + pts.tobytes(),
                          "b.ply")
        offset = len(BINARY_XYZ) + 12
        with pytest.raises(FormatError, match=f"vertex 1 at byte {offset}"):
            fileio.read_ply(binary)


clouds = arrays(np.float32, st.tuples(st.integers(0, 12), st.just(3)),
                elements=st.floats(-1e6, 1e6, width=32))


def write_both(tmp_path, points):
    """The cloud as written by write_ply (binary) and in the ASCII layout.

    write_ply writes the float32 cloud as it is and its float64 widening
    narrowed; both give the same bytes.
    """
    binary = tmp_path / "b.ply"
    fileio.write_ply(binary, PointCloud(points.astype(np.float64)))
    narrowed = binary.read_bytes()
    fileio.write_ply(binary, PointCloud(points))
    assert binary.read_bytes() == narrowed
    return {"binary": narrowed, "ascii": ascii_ply(points)}


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestPlyFuzz:
    @FUZZ
    @given(points=clouds)
    def test_round_trip_exact_at_float32(self, tmp_path, points):
        for fmt, content in write_both(tmp_path, points).items():
            back = fileio.read_ply(ply_file(tmp_path, content, f"{fmt}.ply"))
            assert np.array_equal(back.points.astype(np.float32), points), fmt

    @FUZZ
    @given(points=clouds, cut=st.floats(0.0, 1.0))
    def test_truncation_reads_or_raises_format_error(self, tmp_path, points, cut):
        for fmt, content in write_both(tmp_path, points).items():
            path = ply_file(tmp_path, content[:int(cut * len(content))],
                            f"{fmt}.ply")
            try:
                fileio.read_ply(path)
            except FormatError:
                pass

    @FUZZ
    @given(points=clouds, where=st.floats(0.0, 1.0), byte=st.integers(0, 255))
    def test_byte_mutation_reads_or_raises_format_error(self, tmp_path, points,
                                                        where, byte):
        for fmt, content in write_both(tmp_path, points).items():
            data = bytearray(content)
            data[min(int(where * len(data)), len(data) - 1)] = byte
            try:
                fileio.read_ply(ply_file(tmp_path, bytes(data), f"{fmt}.ply"))
            except FormatError:
                pass


class TestFloat32DepthCloud:
    """A float32 depth map's full cloud goes to the PLY file and back as float32."""

    @FUZZ
    @given(crop=st.integers(1, 12), field_mm=st.floats(0.5, 40.0), data=st.data())
    def test_written_as_the_float64_cloud_narrowed(self, tmp_path, crop, field_mm,
                                                   data):
        geom = SensorGeometry(raw_width=crop, raw_height=crop, crop_size=crop,
                              field_mm=field_mm)
        depth = DepthMap(data.draw(arrays(np.float32, (crop, crop), elements=st.floats(
            0.0, 1e6, width=32))))
        cloud = recon.depth_to_pointcloud(depth, geom)
        assert cloud.points.dtype == np.float32
        # The float64 cloud that float32 depth used to give, narrowed for the file.
        xx, yy = np.meshgrid(surface_axis(geom), surface_axis(geom))
        wide = np.column_stack([xx.ravel(), yy.ravel(),
                                -depth.data.ravel().astype(np.float64)])
        body = wide.astype("<f4").tobytes()
        path = tmp_path / "c.ply"
        fileio.write_ply(path, cloud)
        header = ("ply\nformat binary_little_endian 1.0\n"
                  + XYZ_HEADER.format(n=crop * crop)).encode("ascii")
        assert path.read_bytes() == header + body
        back = fileio.read_ply(path).points
        assert back.dtype == np.float32 and not back.flags.writeable
        assert back.tobytes() == body


shapes = st.tuples(st.integers(0, 6), st.integers(0, 6))
images = arrays(np.uint8, shapes)
depths = arrays(np.float32, shapes, elements=st.floats(0.0, 1e6, width=32))


def write_rasters(tmp_path, pixels, depth):
    """{format: (file content, reader)} for a PGM frame and a depth map."""
    fileio.write_pgm(tmp_path / "a.pgm", GrayImage(pixels))
    fileio.write_depth(tmp_path / "a.dtd", DepthMap(depth.astype(np.float64)))
    return {"pgm": ((tmp_path / "a.pgm").read_bytes(), fileio.read_pgm),
            "depth": ((tmp_path / "a.dtd").read_bytes(), fileio.read_depth)}


def read_or_format_error(tmp_path, name, content, reader):
    path = tmp_path / f"fuzz.{name}"
    path.write_bytes(content)
    try:
        reader(path)
    except FormatError:
        pass


class TestRasterFuzz:
    @FUZZ
    @given(pixels=images, depth=depths)
    def test_round_trip_exact(self, tmp_path, pixels, depth):
        write_rasters(tmp_path, pixels, depth)
        assert np.array_equal(fileio.read_pgm(tmp_path / "a.pgm").pixels, pixels)
        assert np.array_equal(fileio.read_depth(tmp_path / "a.dtd").data, depth)

    @FUZZ
    @given(pixels=images, depth=depths, cut=st.floats(0.0, 1.0))
    def test_truncation_reads_or_raises_format_error(self, tmp_path, pixels,
                                                     depth, cut):
        for name, (content, reader) in write_rasters(tmp_path, pixels, depth).items():
            read_or_format_error(tmp_path, name, content[:int(cut * len(content))],
                                 reader)

    @FUZZ
    @given(pixels=images, depth=depths, where=st.floats(0.0, 1.0),
           byte=st.integers(0, 255) | st.sampled_from(b" \t\n#0123456789"),
           in_header=st.booleans())
    def test_byte_mutation_reads_or_raises_format_error(self, tmp_path, pixels,
                                                        depth, where, byte,
                                                        in_header):
        """A byte anywhere in the file, or, half the time, in its header."""
        for name, (content, reader) in write_rasters(tmp_path, pixels, depth).items():
            data = bytearray(content)
            raster = pixels.size if name == "pgm" else 4 * depth.size
            span = len(data) - raster if in_header else len(data)
            data[min(int(where * span), span - 1)] = byte
            read_or_format_error(tmp_path, name, bytes(data), reader)
