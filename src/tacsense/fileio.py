"""File formats: binary PGM frames, tagged float32 depth maps, PLY point clouds.

PGM and depth headers are matched in place, without copying the file's bytes.
PLY (Turk, 1994) is written as `format binary_little_endian 1.0` with float
x, y, z vertex properties. `read_ply` reads that and `format ascii 1.0`, whose
rows it counts one by one: the first element must be `vertex`, with scalar
properties (char, uchar, short, ushort, int, uint, float, double and their
sized aliases) that include x, y and z; other vertex properties and later
elements are skipped.

JSON files (run manifests, calibrations, reports) are written by `write_json`
and read by `read_json`, both strict JSON without NaN or infinities, and
their keys checked by `check_fields`; errors name the file and the key path.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import sys
from pathlib import Path, PurePath

import numpy as np

from .core import DepthMap, GrayImage, PointCloud, SensorError, _seal

DEPTH_MAGIC = b"DTDEPTH1"
_DEPTH_SIZE = re.compile(rb"\n(\d+) (\d+)\n")
_PGM_GAP = re.compile(rb"(?:\s|#[^\n]*)*")  # whitespace and comments
_DIGITS = re.compile(rb"\d+")


class FormatError(SensorError):
    """Malformed file content; the message carries the byte offset."""


def _header_int(path, m: re.Match, group: int = 0) -> int:
    """The integer of a matched header field; FormatError at the field's byte
    offset if it has more digits than Python converts."""
    try:
        return int(m.group(group))
    except ValueError:
        raise FormatError(f"{path}: header field too long ({len(m.group(group))} "
                          f"digits) at byte {m.start(group)}") from None


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
    pos, fields = 2, []
    for _ in range(3):
        pos = _PGM_GAP.match(data, pos).end()
        m = _DIGITS.match(data, pos)
        if not m:
            raise FormatError(f"{path}: malformed PGM header at byte {pos}")
        fields.append(_header_int(path, m))
        pos = m.end()
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} at byte {pos}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    available = max(len(data) - pos, 0)
    if available < expected:
        raise FormatError(
            f"{path}: truncated raster at byte {pos + available}, "
            f"expected {expected} bytes")
    # A read-only view of the file's bytes, which the image keeps uncopied.
    pixels = np.frombuffer(data, dtype=np.uint8, count=expected,
                           offset=min(pos, len(data)))
    return GrayImage(pixels.reshape(height, width))


def _narrow(values: np.ndarray, message: str) -> np.ndarray:
    """float32 `values` as they are, others cast to float32; ValueError with
    `message` if a finite value overflows."""
    if values.dtype == np.float32:
        return values
    with np.errstate(over="ignore"):
        narrowed = values.astype("<f4")
    if not np.isfinite(narrowed).all():
        raise ValueError(message)
    return narrowed


def write_depth(path, depth: DepthMap) -> None:
    """Magic, 'width height' as text, then row-major little-endian float32 mm;
    float64 depth is narrowed, and refused if a value overflows float32."""
    values = _narrow(depth.data, f"{path}: depth values overflow float32")
    with open(path, "wb") as f:
        f.write(DEPTH_MAGIC)
        f.write(f"\n{depth.width} {depth.height}\n".encode("ascii"))
        # float32 depth is written as it is, without a copy.
        f.write(np.ascontiguousarray(values, dtype="<f4"))


def read_depth(path) -> DepthMap:
    """The float32 depth map of a file, a read-only view of the file's bytes."""
    data = Path(path).read_bytes()
    if not data.startswith(DEPTH_MAGIC):
        raise FormatError(f"{path}: bad depth magic at byte 0")
    m = _DEPTH_SIZE.match(data, len(DEPTH_MAGIC))
    if not m:
        raise FormatError(f"{path}: malformed depth header at byte {len(DEPTH_MAGIC)}")
    width, height = _header_int(path, m, 1), _header_int(path, m, 2)
    pos = m.end()
    expected = width * height * 4
    if len(data) - pos < expected:
        raise FormatError(
            f"{path}: truncated depth data at byte {len(data)}, "
            f"expected {expected} bytes")
    values = np.frombuffer(data, dtype="<f4", count=width * height, offset=pos)
    try:
        return DepthMap(values.reshape(height, width))
    except ValueError:
        # DepthMap refused a value; find the first one for the message.
        i = int(np.argmin(np.isfinite(values) & (values >= 0.0)))
        raise FormatError(f"{path}: depth value {values[i]} (must be finite "
                          f"and >= 0) at byte {pos + 4 * i}") from None


PLY_SCALARS = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}
PLY_FORMATS = ("ascii", "binary_little_endian")


def write_ply(path, cloud: PointCloud) -> None:
    """Binary little-endian PLY with float x, y, z vertex properties; float64
    points are narrowed, and refused if one overflows float32."""
    points = _narrow(cloud.points, f"{path}: point coordinates overflow float32")
    with open(path, "wb") as f:
        f.write(b"ply\nformat binary_little_endian 1.0\n")
        f.write(f"element vertex {len(cloud)}\n".encode("ascii"))
        f.write(b"property float x\nproperty float y\nproperty float z\n")
        f.write(b"end_header\n")
        # float32 points are written as they are, a strided view through one copy.
        f.write(np.ascontiguousarray(points, dtype="<f4"))


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
    if names == ["x", "y", "z"] and types == ["f4"] * 3:
        # write_ply's layout: the rows are the points, a read-only float32
        # view of the file's bytes.
        points = rec.view("<f4").reshape(count, 3)
    else:
        with np.errstate(invalid="ignore"):  # signalling NaNs are refused later
            columns = [rec[f"p{names.index(axis)}"] for axis in "xyz"]
            points = np.column_stack(columns).astype(np.float64, copy=False)
    return points, lambda i: body + i * row.itemsize


def _read_ascii_vertices(path, data: bytes, body: int, count: int,
                         names: list[str]):
    """x, y, z of the first `count` text rows, and the byte offset of a row.

    The rows are split and counted one by one, then parsed in one call.
    """
    rows = data[body:].split(b"\n")
    if not rows[-1].strip():
        rows.pop()  # the whitespace after the last row is no row
    if len(rows) < count:
        raise _truncated(path, data, count, len(rows))
    width, offsets, tokens = len(names), [body], []
    for i, row in enumerate(rows[:count]):
        words = row.split()
        if len(words) != width:
            raise FormatError(f"{path}: PLY vertex row {i} at byte {offsets[i]} "
                              f"has {len(words)} values, expected {width}")
        tokens += words
        offsets.append(offsets[i] + len(row) + 1)
    try:
        values = np.array(tokens, dtype=np.float64).reshape(count, width)
    except ValueError:
        k = next(k for k, t in enumerate(tokens) if not _is_number(t))
        raise FormatError(f"{path}: PLY vertex row {k // width} at byte "
                          f"{offsets[k // width]} has non-numeric value "
                          f"{tokens[k]!r}") from None
    return values[:, [names.index(axis) for axis in "xyz"]], offsets.__getitem__


def _is_number(token: bytes) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_ply(path) -> PointCloud:
    """x, y, z of every vertex of an ASCII or binary little-endian PLY file.

    `write_ply`'s layout reads as a read-only float32 view of the file's
    bytes, other layouts as float64. Other scalar vertex properties are read
    and dropped. List properties in the vertex element, other formats and
    non-finite coordinates raise `FormatError` with the byte offset.
    """
    data = Path(path).read_bytes()
    fmt, count, names, types, body = _read_ply_header(path, data)
    if fmt == "ascii":
        points, row_at = _read_ascii_vertices(path, data, body, count, names)
    else:
        points, row_at = _read_binary_vertices(path, data, body, count, names,
                                               types)
    try:
        return PointCloud(_seal(points))  # kept uncopied
    except ValueError:
        # PointCloud refused a coordinate; find the first vertex for the message.
        i = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise FormatError(f"{path}: non-finite PLY vertex {i} "
                          f"at byte {row_at(i)}") from None


def write_json(path, payload) -> None:
    """Strict JSON with 2-space indentation; NaN and infinities raise ValueError."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    Path(path).write_text(text)


def read_json(path) -> dict:
    """A strict UTF-8 JSON file holding one object: NaN, Infinity and numbers that
    overflow a float (1e999) are refused."""
    def finite(text: str) -> float:
        if not math.isfinite(value := float(text)):
            raise FormatError(f"{path}: {text} is not a finite number")
        return value

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"),
                             parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object, "
                          f"got {type(payload).__name__}")
    return payload


def _is_json_int(value) -> bool:
    # bool is an int subclass, but a JSON true is no number.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_json_number(value) -> bool:
    try:  # an int too large for a float is no finite number
        return (_is_json_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


def _square(value) -> float:
    """value ** 2 as a float, inf where it overflows instead of raising."""
    x = float(value)
    return x * x


_JSON_KINDS = {
    "object": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
    "int": _is_json_int,
    "int >= 0": lambda v: _is_json_int(v) and v >= 0,
    "int > 0": lambda v: _is_json_int(v) and v > 0,
    "number": _is_json_number,
    # Radii and sigmas are squared as floats; a ** 2 that overflows raises. A
    # noise sigma with a finite square scales every normal draw to a finite value.
    "number >= 0 whose square is finite": lambda v: (
        _is_json_number(v) and v >= 0 and math.isfinite(_square(v))),
    "number > 0 whose square is finite": lambda v: (
        _is_json_number(v) and v > 0 and math.isfinite(_square(v))),
    "number > 0 whose square is a normal float": lambda v: (
        _is_json_number(v) and v > 0 and sys.float_info.min <= _square(v) < math.inf),
    "numbers": lambda v: isinstance(v, list) and all(map(_is_json_number, v)),
    "path inside the run": lambda v: isinstance(v, str) and "\0" not in v and not (
        PurePath(v).is_absolute() or ".." in PurePath(v).parts),
}


def check_fields(path, payload, schema: dict[str, str | tuple], at: str = "") -> None:
    """Raise FormatError unless `payload` holds every key of `schema`.

    `schema` maps a key to its kind: "object", "list", "int", "number"
    (finite), "numbers" (a list of them), a range ("int >= 0", "int > 0",
    "number >= 0 whose square is finite", and "number > 0 whose square is
    finite" or "... is a normal float"), "path inside the run" (relative,
    without a ".." part or a NUL) or a tuple of the values it may take.
    `at` is the key path of `payload` in the file, used in messages such as
    "manifest.json: optical.thickness: expected number, got str '2'".
    """
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: {at}: expected object, "
                          f"got {type(payload).__name__}")
    for key, kind in schema.items():
        where = f"{at}.{key}" if at else key
        if key not in payload:
            raise FormatError(f"{path}: {where}: missing")
        value = payload[key]
        choices = isinstance(kind, tuple)
        if not (value in kind if choices else _JSON_KINDS[kind](value)):
            expected = f"one of {kind}" if choices else kind
            raise FormatError(f"{path}: {where}: expected {expected}, got "
                              f"{type(value).__name__} {reprlib.repr(value)}")
