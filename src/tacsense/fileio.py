"""File formats: binary PGM frames, tagged float32 depth maps, PLY point clouds.

PLY (Turk, 1994) is written as `format binary_little_endian 1.0` with float
x, y, z vertex properties. `read_ply` reads that and `format ascii 1.0`: the
first element must be `vertex`, with scalar properties (char, uchar, short,
ushort, int, uint, float, double and their sized aliases) that include x, y
and z; other vertex properties and later elements are skipped.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .core import DepthMap, GrayImage, PointCloud, SensorError

DEPTH_MAGIC = b"DTDEPTH1"


class FormatError(SensorError):
    """Malformed file content; the message carries the byte offset."""


def write_pgm(path, img: GrayImage) -> None:
    """Binary PGM (P5), maxval 255."""
    with open(path, "wb") as f:
        f.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(img.pixels.tobytes())


def read_pgm(path) -> GrayImage:
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: bad PGM magic at byte 0")
    # Header: magic, width, height, maxval separated by whitespace/comments.
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        m = re.match(rb"\d+", data[pos:])
        if not m:
            raise FormatError(f"{path}: malformed PGM header at byte {pos}")
        fields.append(int(m.group(0)))
        pos += m.end()
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} at byte {pos}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise FormatError(
            f"{path}: truncated raster at byte {pos + len(raster)}, "
            f"expected {expected} bytes")
    return GrayImage(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))


def write_depth(path, depth: DepthMap) -> None:
    """Magic, 'width height' as text, then row-major little-endian float32 mm."""
    with open(path, "wb") as f:
        f.write(DEPTH_MAGIC)
        f.write(f"\n{depth.width} {depth.height}\n".encode("ascii"))
        f.write(depth.data.astype("<f4").tobytes())


def read_depth(path) -> DepthMap:
    data = Path(path).read_bytes()
    if not data.startswith(DEPTH_MAGIC):
        raise FormatError(f"{path}: bad depth magic at byte 0")
    m = re.match(rb"\n(\d+) (\d+)\n", data[len(DEPTH_MAGIC):])
    if not m:
        raise FormatError(f"{path}: malformed depth header at byte {len(DEPTH_MAGIC)}")
    width, height = int(m.group(1)), int(m.group(2))
    pos = len(DEPTH_MAGIC) + m.end()
    expected = width * height * 4
    raw = data[pos:pos + expected]
    if len(raw) != expected:
        raise FormatError(
            f"{path}: truncated depth data at byte {pos + len(raw)}, "
            f"expected {expected} bytes")
    values = np.frombuffer(raw, dtype="<f4")
    bad = ~(np.isfinite(values) & (values >= 0.0))
    if bad.any():
        i = int(bad.argmax())
        raise FormatError(f"{path}: depth value {values[i]} (must be finite "
                          f"and >= 0) at byte {pos + 4 * i}")
    return DepthMap(values.astype(np.float64).reshape(height, width))


PLY_SCALARS = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}
PLY_FORMATS = ("ascii", "binary_little_endian")


def write_ply(path, cloud: PointCloud) -> None:
    """Binary little-endian PLY with float x, y, z vertex properties."""
    with np.errstate(over="ignore"):
        points = cloud.points.astype("<f4")
    if not np.isfinite(points).all():
        raise ValueError(f"{path}: point coordinates overflow float32")
    with open(path, "wb") as f:
        f.write(b"ply\nformat binary_little_endian 1.0\n")
        f.write(f"element vertex {len(cloud)}\n".encode("ascii"))
        f.write(b"property float x\nproperty float y\nproperty float z\n")
        f.write(b"end_header\n")
        f.write(points.tobytes())


def _read_ply_header(path, data: bytes) -> tuple[str, int, list[str], list[str], int]:
    """(format, vertex count, property names, property dtypes, body offset).

    The vertex element must be the first element and have only scalar
    properties; any later elements are left unread.
    """
    fmt = count = element = None
    names: list[str] = []
    types: list[str] = []
    pos = 0
    while True:
        end = data.find(b"\n", pos)
        if end < 0:
            raise FormatError(f"{path}: missing PLY header fields before byte "
                              f"{len(data)}, no end_header")
        try:
            line = data[pos:end].decode("ascii").strip()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: non-ASCII PLY header line at byte {pos}") from None
        words = line.split()

        def bad(problem: str) -> FormatError:
            return FormatError(f"{path}: {problem} {line!r} at byte {pos}")

        if pos == 0:
            if words != ["ply"]:
                raise FormatError(f"{path}: bad PLY magic at byte 0")
        elif not words or words[0] in ("comment", "obj_info"):
            pass
        elif words[0] == "format":
            if fmt is not None or element is not None:
                raise bad("misplaced PLY format line")
            if len(words) != 3 or words[1] not in PLY_FORMATS or words[2] != "1.0":
                raise bad("unsupported PLY format")
            fmt = words[1]
        elif words[0] == "element":
            if fmt is None:
                raise bad("PLY element before the format line")
            if len(words) != 3 or not words[2].isdigit():
                raise bad("malformed PLY element")
            if element is None and words[1] != "vertex":
                raise bad("first PLY element is not vertex")
            element = words[1]
            if element == "vertex":
                if count is not None:
                    raise bad("second PLY vertex element")
                count = int(words[2])
        elif words[0] == "property":
            if element is None:
                raise bad("PLY property outside an element")
            if element == "vertex":
                if words[1:2] == ["list"]:
                    raise bad("unsupported list property in the PLY vertex element")
                if len(words) != 3 or words[1] not in PLY_SCALARS:
                    raise bad("malformed PLY property")
                if words[2] in names:
                    raise bad("duplicate PLY vertex property")
                types.append(PLY_SCALARS[words[1]])
                names.append(words[2])
        elif words == ["end_header"]:
            break
        else:
            raise bad("unknown PLY header line")
        pos = end + 1
    if count is None:
        raise FormatError(f"{path}: missing PLY header fields before byte {pos}, "
                          "no vertex element")
    missing = [axis for axis in "xyz" if axis not in names]
    if missing:
        raise FormatError(f"{path}: PLY vertex element lacks properties "
                          f"{missing} before byte {pos}")
    return fmt, count, names, types, end + 1


def _truncated(path, data: bytes, count: int, found: int) -> FormatError:
    return FormatError(f"{path}: truncated PLY body at byte {len(data)}, "
                       f"expected {count} vertices, found {found}")


def _read_binary_vertices(path, data: bytes, body: int, count: int,
                          names: list[str], types: list[str]):
    """x, y, z of `count` fixed-size rows, and the byte offset of a row."""
    row = np.dtype([(f"p{i}", "<" + t) for i, t in enumerate(types)])
    found = (len(data) - body) // row.itemsize
    if found < count:
        raise _truncated(path, data, count, found)
    rec = np.frombuffer(data, dtype=row, count=count, offset=body)
    points = np.empty((count, 3))
    with np.errstate(invalid="ignore"):  # signalling NaNs are refused later
        for j, axis in enumerate("xyz"):
            points[:, j] = rec[f"p{names.index(axis)}"]
    return points, lambda i: body + i * row.itemsize


def _read_ascii_vertices(path, data: bytes, body: int, count: int,
                         names: list[str]):
    """x, y, z of the first `count` text rows, and the byte offset of a row.

    The rows are split and parsed in bulk; per-row value counts come from the
    token starts between newlines, so a ragged row is found before parsing.
    """
    buf = np.frombuffer(data, dtype=np.uint8, offset=body)
    # bytes.split() whitespace: space and \t \n \v \f \r
    space = (buf == ord(" ")) | ((buf >= ord("\t")) & (buf <= ord("\r")))
    ends = np.flatnonzero(buf == ord("\n"))
    tail = ends[-1] + 1 if len(ends) else 0
    if not space[tail:].all():
        ends = np.append(ends, len(buf))  # last row without a final newline
    if len(ends) < count:
        raise _truncated(path, data, count, len(ends))
    ends = ends[:count]

    def row_at(i: int) -> int:
        return body + (int(ends[i - 1]) + 1 if i else 0)

    width = len(names)
    text = space[:ends[-1]]
    starts = np.flatnonzero(~text & np.concatenate(([True], text[:-1])))
    per_row = np.diff(np.searchsorted(starts, ends), prepend=0)
    ragged = np.flatnonzero(per_row != width)
    if ragged.size:
        i = int(ragged[0])
        raise FormatError(f"{path}: PLY vertex row {i} at byte {row_at(i)} has "
                          f"{per_row[i]} values, expected {width}")
    tokens = data[body:body + int(ends[-1])].split()
    try:
        values = np.array(tokens, dtype=np.float64).reshape(count, width)
    except ValueError:
        k = next(k for k, t in enumerate(tokens) if not _is_number(t))
        raise FormatError(f"{path}: PLY vertex row {k // width} at byte "
                          f"{row_at(k // width)} has non-numeric value "
                          f"{tokens[k]!r}") from None
    return values[:, [names.index(axis) for axis in "xyz"]], row_at


def _is_number(token: bytes) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_ply(path) -> PointCloud:
    """x, y, z of every vertex of an ASCII or binary little-endian PLY file.

    Other scalar vertex properties are read and dropped. List properties in
    the vertex element, other formats and non-finite coordinates raise
    `FormatError` with the byte offset.
    """
    data = Path(path).read_bytes()
    fmt, count, names, types, body = _read_ply_header(path, data)
    if count == 0:
        return PointCloud(np.zeros((0, 3)))
    if fmt == "ascii":
        points, row_at = _read_ascii_vertices(path, data, body, count, names)
    else:
        points, row_at = _read_binary_vertices(path, data, body, count, names,
                                               types)
    if not np.isfinite(points).all():
        i = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
        raise FormatError(f"{path}: non-finite PLY vertex {i} at byte {row_at(i)}")
    return PointCloud(points)
