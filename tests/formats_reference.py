"""Reference oracle for the loaders of `mvsweep.harness.formats`: the text
parsers, the binary header readers and the load_* functions, each raise
site spelling out the file, the line and the field it names.

The only departure from the loaders as they were written this way is that
boxes_from_text builds a Box3D without a yaw: it has already rejected every
yaw other than 0.  It is the yardstick, value for value and message for
message, for the engine's loaders, which name the file and the line in one
place.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from mvsweep.camera import CameraView, Intrinsics, Pose
from mvsweep.sampling import VoxelGrid, VoxelGridSpec
from mvsweep.scenegen import SceneSpec, TexturedBox, base_albedo, room_bounds
from mvsweep.splat import GaussianSplatSet

MAGIC_RASTER = b"MVSR"
MAGIC_VOLUME = b"MVSV"
MAGIC_SPLATS = b"MVSG"


def load_text(path, parse):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_header(fh, path, magic: bytes, fmt: str, what: str, payload) -> tuple[tuple, int]:
    got = fh.read(4)
    if got != magic:
        raise ValueError(f"{path}: bad {what} magic {got!r}")
    size = struct.calcsize(fmt)
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what} header")
    header = struct.unpack(fmt, data)
    nbytes, declared = payload(*header)
    _check_payload(fh, path, nbytes, f"{what} header {declared}")
    return header, nbytes


def _load_binary(path, magic: bytes, fmt: str, what: str, payload) -> tuple[tuple, bytes]:
    with open(path, "rb") as fh:
        header, nbytes = _read_header(fh, path, magic, fmt, what, payload)
        return header, fh.read(nbytes)


def _check_payload(fh, path, nbytes: int, what: str) -> None:
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes != held:
        problem = "truncated" if nbytes > held else "trailing"
        raise ValueError(f"{path}: {problem} data: {what} declares {nbytes} bytes, "
                         f"the file holds {held}")


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line:
            yield lineno, line


_INT_FIELDS = ("views", "width", "height", "walls", "wall_seed", "texture_seed")


def _parse_record(where: str, names: tuple, vals: list[str]) -> list:
    if len(vals) != len(names):
        field = names[min(len(vals), len(names) - 1)]
        raise ValueError(f"{where}: {len(names)} values expected, got {len(vals)} (field {field})")
    out = []
    for name, v in zip(names, vals):
        try:
            out.append(int(v) if name in _INT_FIELDS else float(v))
        except ValueError:
            raise ValueError(f"{where}: field {name}: {v!r} is not a number") from None
    return out


# cameras

_INTRINSICS_FIELDS = ("fx", "fy", "cx", "cy", "width", "height")
_POSE_FIELDS = ("R", "R", "R", "t") * 3
_MAX_POSE_ENTRY = 1e150


def _check_bounded(where: str, names, values) -> None:
    for name, v in zip(names, values):
        if not abs(v) <= _MAX_POSE_ENTRY:
            raise ValueError(f"{where}: field {name}: {v!r} is not a finite value "
                             f"of magnitude at most {_MAX_POSE_ENTRY:g}")


def cameras_from_text(text: str) -> list[CameraView]:
    rows = list(_records(text))
    if not rows:
        raise ValueError("camera listing: empty, expected the view count")
    lineno, line = rows[0]
    (n,) = _parse_record(f"camera listing: line {lineno}", ("views",), line.split())
    if n < 0:
        raise ValueError(f"camera listing: line {lineno}: field views: must be >= 0, got {n}")
    if len(rows) != 1 + 2 * n:
        raise ValueError(f"camera listing: expected {1 + 2 * n} lines, got {len(rows)}")
    views = []
    for i in range(n):
        (head_no, head), (pose_no, pose) = rows[1 + 2 * i : 3 + 2 * i]
        head_where = f"camera listing: line {head_no}: view {i} intrinsics"
        fx, fy, cx, cy, width, height = _parse_record(head_where, _INTRINSICS_FIELDS, head.split())
        _check_bounded(head_where, _INTRINSICS_FIELDS, (fx, fy, cx, cy))
        pose_where = f"camera listing: line {pose_no}: view {i} [R|t]"
        entries = _parse_record(pose_where, _POSE_FIELDS, pose.split())
        _check_bounded(pose_where, _POSE_FIELDS, entries)
        rt = np.array(entries).reshape(3, 4)
        try:
            pose_rt = Pose(rt[:, :3], rt[:, 3])
        except ValueError as exc:
            raise ValueError(f"{pose_where}: {exc}") from None
        try:
            views.append(CameraView(Intrinsics(fx, fy, cx, cy), pose_rt, width, height))
        except ValueError as exc:
            raise ValueError(f"{head_where}: {exc}") from None
    return views


def load_cameras(path) -> list[CameraView]:
    return load_text(path, cameras_from_text)


# PPM images

def _ppm_header(fh, path) -> tuple[int, int]:
    magic = fh.readline().strip()
    if magic != b"P6":
        raise ValueError(f"{path}: not a P6 PPM")
    dims = fh.readline().split()
    while dims and dims[0].startswith(b"#"):
        dims = fh.readline().split()
    try:
        w, h = (int(d) for d in dims)
        maxval = int(fh.readline())
    except ValueError:
        raise ValueError(f"{path}: PPM header needs a width, a height and a maxval") from None
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PPM width and height must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PPM supported")
    _check_payload(fh, path, w * h * 3, f"PPM header {w}x{h}")
    return w, h


def ppm_size(path) -> tuple[int, int]:
    with open(path, "rb") as fh:
        return _ppm_header(fh, path)


def load_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        w, h = _ppm_header(fh, path)
        raw = fh.read(w * h * 3)
    image = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).astype(np.float64)
    image /= 255.0
    return image


# MVSR rasters

_RASTER_HEADER = (MAGIC_RASTER, "<III", "raster",
                  lambda r, c, ch: (r * c * ch * 4, f"rows x cols x channels {r}x{c}x{ch}"))


def _f4_to_f8(raw: bytes) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)


def raster_shape(path) -> tuple[int, int, int]:
    with open(path, "rb") as fh:
        return _read_header(fh, path, *_RASTER_HEADER)[0]


def load_raster(path) -> np.ndarray:
    (rows, cols, ch), raw = _load_binary(path, *_RASTER_HEADER)
    return _f4_to_f8(raw).reshape(rows, cols, ch)


# MVSV voxel grids

def load_volume(path) -> VoxelGrid:
    (nx, ny, nz, c, *geometry), raw = _load_binary(
        path, MAGIC_VOLUME, "<IIII3f3f", "volume",
        lambda nx, ny, nz, c, *_: (nx * ny * nz * (c + 1) * 4,
                                   f"dims x channels {nx}x{ny}x{nz}x{c}"))
    origin, pitch = tuple(geometry[:3]), tuple(geometry[3:])
    if not np.all(np.isfinite(geometry)):
        raise ValueError(f"{path}: volume origin and pitch must be finite, got {origin}, {pitch}")
    try:
        spec = VoxelGridSpec((nx, ny, nz), origin, pitch)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    payload = _f4_to_f8(raw).reshape(nx, ny, nz, c + 1)
    return VoxelGrid(
        spec=spec, feature_mean=payload[..., :c], score=payload[..., c], valid_count=None
    )


# MVSG splat sets

_SPLAT_DTYPE = np.dtype(
    [
        ("mean", "<f8", 3),
        ("alpha", "<f8"),
        ("quat", "<f8", 4),
        ("scale", "<f8", 3),
        ("color", "<f8", 3),
        ("view", "<u4"),
        ("row", "<u4"),
        ("col", "<u4"),
    ]
)
_IDENTITY_QUAT = (1.0, 0.0, 0.0, 0.0)
_MAX_SPLAT_MAGNITUDE = 1e10


def load_splats(path) -> GaussianSplatSet:
    _, raw = _load_binary(path, MAGIC_SPLATS, "<I", "splat",
                          lambda n: (n * _SPLAT_DTYPE.itemsize, f"count {n}"))
    rec = np.frombuffer(raw, dtype=_SPLAT_DTYPE)
    sigma, color = rec["scale"][:, 0], rec["color"]
    for field, bad, rule in (
        ("mean", ~np.all(np.abs(rec["mean"]) <= _MAX_SPLAT_MAGNITUDE, axis=1),
         f"must be finite and at most {_MAX_SPLAT_MAGNITUDE:g} in magnitude"),
        ("quat", np.any(rec["quat"] != _IDENTITY_QUAT, axis=1), "must be the identity (1, 0, 0, 0)"),
        ("scale", ~((sigma > 0) & (sigma <= _MAX_SPLAT_MAGNITUDE)),
         f"must be positive and finite, at most {_MAX_SPLAT_MAGNITUDE:g}"),
        ("scale", np.any(rec["scale"] != rec["scale"][:, :1], axis=1), "must hold three equal values"),
        ("alpha", ~((rec["alpha"] >= 0) & (rec["alpha"] <= 1)), "must lie in [0, 1]"),
        ("color", ~np.all((color >= 0) & (color <= 1), axis=1), "must lie in [0, 1]"),
    ):
        if bad.any():
            raise ValueError(f"{path}: splat {np.argmax(bad)}: {field} {rule}")
    return GaussianSplatSet(
        means=rec["mean"].astype(np.float64),
        opacities=rec["alpha"].astype(np.float64),
        sigmas=rec["scale"][:, 0].astype(np.float64),
        colors=rec["color"].astype(np.float64),
        source_view=rec["view"].astype(np.int64),
        pixel_rows=rec["row"].astype(np.int64),
        pixel_cols=rec["col"].astype(np.int64),
    )


# scene specs, boxes, metrics

_SCENE_RECORDS = {
    "room": ("lo",) * 3 + ("hi",) * 3,
    "walls": ("walls",),
    "wall_seed": ("wall_seed",),
    "background": ("background",) * 3,
    "box": ("lo",) * 3 + ("hi",) * 3 + ("texture_seed",) + ("color",) * 3,
}


def scene_from_text(text: str) -> SceneSpec:
    records = {}
    boxes = []
    for lineno, line in _records(text):
        kind, _, rest = line.partition(" ")
        if kind not in _SCENE_RECORDS:
            raise ValueError(f"scene listing: line {lineno}: unknown record {kind!r}")
        where = f"scene listing: line {lineno}: {kind}"
        v = _parse_record(where, _SCENE_RECORDS[kind], rest.split())
        try:
            if kind == "box":
                boxes.append((where, TexturedBox(lo=v[:3], hi=v[3:6], texture_seed=v[6],
                                                 color=v[7:])))
                continue
            if kind == "room":
                room_bounds(v[:3], v[3:], fields=("lo", "hi"))
            elif kind == "background":
                base_albedo("background", v)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        records[kind] = v
    missing = [kind for kind in _SCENE_RECORDS if kind not in records and kind != "box"]
    if missing:
        raise ValueError(f"scene listing: missing {'/'.join(missing)}")
    room = np.array(records["room"])
    for where, box in boxes:
        for field, inside in (("lo", box.lo > room[:3]), ("hi", box.hi < room[3:])):
            if not np.all(inside):
                raise ValueError(f"{where}: field {field}: not strictly inside the room")
    return SceneSpec(
        room_lo=records["room"][:3],
        room_hi=records["room"][3:],
        boxes=tuple(box for _, box in boxes),
        background=records["background"],
        wall_seed=records["wall_seed"][0],
        walls=records["walls"][0] == 1,
    )


def load_scene_spec(path) -> SceneSpec:
    return load_text(path, scene_from_text)


_BOX_FIELDS = ("center",) * 3 + ("size",) * 3 + ("yaw", "score")


def boxes_from_text(text: str):
    from mvsweep.harness.boxes import Box3D

    out = []
    for lineno, line in _records(text):
        where = f"box listing: line {lineno}"
        vals = _parse_record(where, _BOX_FIELDS, line.split())
        for name, v in zip(_BOX_FIELDS, vals):
            if not np.isfinite(v):
                raise ValueError(f"{where}: field {name}: {v!r} is not finite")
        if vals[6] != 0:
            raise ValueError(f"{where}: field yaw: {vals[6]!r}: boxes are axis-aligned, "
                             "so yaw must be 0")
        try:
            out.append(Box3D(center=np.array(vals[:3]), size=np.array(vals[3:6]),
                             score=vals[7]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return out


def load_boxes(path):
    return load_text(path, boxes_from_text)


def metrics_from_text(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for lineno, line in _records(text):
        key, _, val = line.partition(" ")
        try:
            out[key] = float(val)
        except ValueError:
            raise ValueError(f"metrics: line {lineno}: {key}: {val!r} is not a number") from None
    return out


def load_metrics(path) -> dict[str, float]:
    return load_text(path, metrics_from_text)
