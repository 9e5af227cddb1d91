import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tacsense import fileio
from tacsense.core import DepthMap, GrayImage, PointCloud
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


class TestPly:
    def test_round_trip(self, tmp_path):
        pts = np.array([[0.0, 1.0, -0.5], [2.25, -3.5, 4.0]])
        path = tmp_path / "c.ply"
        fileio.write_ply(path, PointCloud(pts))
        back = fileio.read_ply(path)
        assert np.abs(back.points - pts).max() < 1e-6

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

    def test_float32_overflow_refused(self, tmp_path):
        with pytest.raises(ValueError, match="overflow float32"):
            fileio.write_ply(tmp_path / "c.ply", PointCloud([[1e39, 0.0, 0.0]]))

    def test_empty_cloud_round_trip(self, tmp_path):
        path = tmp_path / "empty.ply"
        fileio.write_ply(path, PointCloud(np.zeros((0, 3))))
        assert len(fileio.read_ply(path)) == 0

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
    """The cloud as written by write_ply (binary) and in the ASCII layout."""
    binary = tmp_path / "b.ply"
    fileio.write_ply(binary, PointCloud(points.astype(np.float64)))
    return {"binary": binary.read_bytes(), "ascii": ascii_ply(points)}


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
           byte=st.integers(0, 255))
    def test_byte_mutation_reads_or_raises_format_error(self, tmp_path, pixels,
                                                        depth, where, byte):
        for name, (content, reader) in write_rasters(tmp_path, pixels, depth).items():
            data = bytearray(content)
            data[min(int(where * len(data)), len(data) - 1)] = byte
            read_or_format_error(tmp_path, name, bytes(data), reader)
