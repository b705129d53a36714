"""Bit-exact file formats: camera listings, PPM images, MVSR float rasters,
MVSV voxel grids, MVSG splat sets, and structured text for scenes, boxes and
metrics.

Text floats are written with repr so parsing reproduces the exact double;
binary formats are little-endian with fixed headers.  Every format round
trips losslessly (PPM after its one-time 8-bit quantization).
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

from mvsweep.camera import CameraView, Intrinsics, Pose
from mvsweep.harness.boxes import Box3D
from mvsweep.sampling import VoxelGrid, VoxelGridSpec
from mvsweep.scenegen import SceneSpec, TexturedBox, base_albedo, room_bounds
from mvsweep.splat import MAX_SPLAT_MAGNITUDE, GaussianSplatSet

MAGIC_RASTER = b"MVSR"
MAGIC_VOLUME = b"MVSV"
MAGIC_SPLATS = b"MVSG"


def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def _blame(where):
    """A ValueError raised inside gets `where: ` as a prefix.  The loaders
    name the file, and the text parsers the line and the record, here
    rather than at each raise site; nested, the outer `where` comes first."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_text(path, parse):
    """parse() of the UTF-8 text file at `path`; a ValueError, a byte that
    is not UTF-8 included, gets the path as a prefix."""
    with _blame(path), open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save_text(path, text: str) -> None:
    """Write `text` to the file at `path` as UTF-8; load_text reads it back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _save_binary(path, header: bytes, payload: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def _read_header(fh, magic: bytes, fmt: str, what: str, payload) -> tuple[tuple, int]:
    """The fixed header of a binary file open at its start, and its payload
    size: a 4-byte magic, a little-endian header `fmt`, then as many bytes as
    `payload(*header)` declares.  That call returns the byte count and a
    description of the header fields it comes from, for the error a file of
    another size raises.  The payload is checked for size, not read."""
    got = fh.read(4)
    if got != magic:
        raise ValueError(f"bad {what} magic {got!r}")
    size = struct.calcsize(fmt)
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated {what} header")
    header = struct.unpack(fmt, data)
    nbytes, declared = payload(*header)
    _check_payload(fh, nbytes, f"{what} header {declared}")
    return header, nbytes


def _load_binary(path, magic: bytes, fmt: str, what: str, payload) -> tuple[tuple, bytes]:
    """The fixed header (see _read_header) and the payload of a binary file."""
    with open(path, "rb") as fh, _blame(path):
        header, nbytes = _read_header(fh, magic, fmt, what, payload)
        return header, fh.read(nbytes)


def _check_payload(fh, nbytes: int, what: str) -> None:
    """Check that the rest of the file is exactly the `nbytes` a header
    declares, before they are read: a corrupt header can neither ask for
    more memory than the file has bytes nor leave bytes unread."""
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes != held:
        problem = "truncated" if nbytes > held else "trailing"
        raise ValueError(f"{problem} data: {what} declares {nbytes} bytes, "
                         f"the file holds {held}")


def _records(text: str):
    """(line number, stripped line) of each non-blank line of `text`."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line:
            yield lineno, line


# The text fields parsed as integers; every other field is a float.
_INT_FIELDS = ("views", "width", "height", "walls", "wall_seed", "texture_seed")


def _parse_record(names: tuple, vals: list[str]) -> list:
    """The parsed values of one text record, a field name per value; a
    missing, extra or unparsable value is a ValueError naming the field.
    The caller names the line and the record, with _blame."""
    if len(vals) != len(names):
        field = names[min(len(vals), len(names) - 1)]
        raise ValueError(f"{len(names)} values expected, got {len(vals)} (field {field})")
    out = []
    for name, v in zip(names, vals):
        try:
            out.append(int(v) if name in _INT_FIELDS else float(v))
        except ValueError:
            raise ValueError(f"field {name}: {v!r} is not a number") from None
    return out


# ---------------------------------------------------------------------------
# cameras
# ---------------------------------------------------------------------------


def cameras_to_text(views: list[CameraView]) -> str:
    """Per view: a line `fx fy cx cy width height` followed by the row-major
    3x4 [R|t] on the next line."""
    lines = [str(len(views))]
    for v in views:
        k = v.intrinsics
        lines.append(
            " ".join([_fmt(k.fx), _fmt(k.fy), _fmt(k.cx), _fmt(k.cy), str(v.width), str(v.height)])
        )
        rt = np.hstack([v.pose.rotation, v.pose.translation[:, None]])
        lines.append(" ".join(_fmt(x) for x in rt.reshape(-1)))
    return "\n".join(lines) + "\n"


# The field of each value of a camera-listing record: the view count, then
# per view an intrinsics record and a row-major 3x4 [R|t] record.
_INTRINSICS_FIELDS = ("fx", "fy", "cx", "cy", "width", "height")
_POSE_FIELDS = ("R", "R", "R", "t") * 3
# The largest magnitude of an fx, fy, cx, cy or [R|t] entry.  Pose's checks
# and every later transform or projection multiply two entries and add three
# products, which then stay finite: a NaN, an infinity or 1e308 is rejected.
_MAX_POSE_ENTRY = 1e150


def _check_bounded(names, values) -> None:
    """Reject, naming the field, a value beyond _MAX_POSE_ENTRY; the caller
    names the line and the record, with _blame."""
    for name, v in zip(names, values):
        if not abs(v) <= _MAX_POSE_ENTRY:
            raise ValueError(f"field {name}: {v!r} is not a finite value "
                             f"of magnitude at most {_MAX_POSE_ENTRY:g}")


def cameras_from_text(text: str) -> list[CameraView]:
    rows = list(_records(text))
    if not rows:
        raise ValueError("camera listing: empty, expected the view count")
    lineno, line = rows[0]
    with _blame(f"camera listing: line {lineno}"):
        (n,) = _parse_record(("views",), line.split())
        if n < 0:
            raise ValueError(f"field views: must be >= 0, got {n}")
    if len(rows) != 1 + 2 * n:
        raise ValueError(f"camera listing: expected {1 + 2 * n} lines, got {len(rows)}")
    views = []
    for i in range(n):
        (head_no, head), (pose_no, pose) = rows[1 + 2 * i : 3 + 2 * i]
        head_where = f"camera listing: line {head_no}: view {i} intrinsics"
        with _blame(head_where):
            fx, fy, cx, cy, width, height = _parse_record(_INTRINSICS_FIELDS, head.split())
            _check_bounded(_INTRINSICS_FIELDS, (fx, fy, cx, cy))
        with _blame(f"camera listing: line {pose_no}: view {i} [R|t]"):
            entries = _parse_record(_POSE_FIELDS, pose.split())
            _check_bounded(_POSE_FIELDS, entries)
            rt = np.array(entries).reshape(3, 4)
            pose_rt = Pose(rt[:, :3], rt[:, 3])
        with _blame(head_where):
            views.append(CameraView(Intrinsics(fx, fy, cx, cy), pose_rt, width, height))
    return views


def save_cameras(path, views) -> None:
    save_text(path, cameras_to_text(views))


def load_cameras(path) -> list[CameraView]:
    return load_text(path, cameras_from_text)


# ---------------------------------------------------------------------------
# PPM images (P6, 8-bit)
# ---------------------------------------------------------------------------


def save_ppm(path, image: np.ndarray) -> None:
    """Float image in [0, 1] quantized to 8 bits; (H, W, 3)."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("expected (H, W, 3) image")
    if not np.all(np.isfinite(image)):
        raise ValueError(f"{path}: image has non-finite values")
    data = np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape[:2]
    _save_binary(path, f"P6\n{w} {h}\n255\n".encode("ascii"), data.tobytes())


def _ppm_header(fh) -> tuple[int, int]:
    """Width and height from the header of a PPM open at its start; the rest
    of the file is checked to be exactly the payload they declare, which is
    not read."""
    magic = fh.readline().strip()
    if magic != b"P6":
        raise ValueError("not a P6 PPM")
    dims = fh.readline().split()
    while dims and dims[0].startswith(b"#"):
        dims = fh.readline().split()
    try:
        w, h = (int(d) for d in dims)
        maxval = int(fh.readline())
    except ValueError:
        raise ValueError("PPM header needs a width, a height and a maxval") from None
    if w < 1 or h < 1:
        raise ValueError(f"PPM width and height must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError("only 8-bit PPM supported")
    _check_payload(fh, w * h * 3, f"PPM header {w}x{h}")
    return w, h


def ppm_size(path) -> tuple[int, int]:
    """Width and height of the PPM at `path`, checked as load_ppm checks
    them, without decoding its pixels."""
    with open(path, "rb") as fh, _blame(path):
        return _ppm_header(fh)


def load_ppm(path) -> np.ndarray:
    """Returns float64 in [0, 1]."""
    with open(path, "rb") as fh, _blame(path):
        w, h = _ppm_header(fh)
        raw = fh.read(w * h * 3)
    image = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).astype(np.float64)
    image /= 255.0  # in place: one full-size float64 array per decode
    return image


# ---------------------------------------------------------------------------
# MVSR float rasters (depth maps, probability volumes, feature grids)
# ---------------------------------------------------------------------------


def save_raster(path, data: np.ndarray) -> None:
    """(rows, cols) or (rows, cols, channels) float data as little-endian f32."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[..., None]
    if arr.ndim != 3:
        raise ValueError("raster must be 2D or 3D")
    header = MAGIC_RASTER + struct.pack("<III", *arr.shape)
    _save_binary(path, header, arr.astype("<f4").tobytes())


_RASTER_HEADER = (MAGIC_RASTER, "<III", "raster",
                  lambda r, c, ch: (r * c * ch * 4, f"rows x cols x channels {r}x{c}x{ch}"))


def _f4_to_f8(raw: bytes) -> np.ndarray:
    """Little-endian f32 payload bytes as float64.  Widening a signalling
    NaN quiets it and raises the invalid flag; the NaN itself is kept, and
    callers check finiteness where they need it."""
    with np.errstate(invalid="ignore"):
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)


def raster_shape(path) -> tuple[int, int, int]:
    """(rows, cols, channels) of the raster at `path`, checked as
    load_raster checks them, without decoding its values."""
    with open(path, "rb") as fh, _blame(path):
        return _read_header(fh, *_RASTER_HEADER)[0]


def load_raster(path) -> np.ndarray:
    """Returns (rows, cols, channels) float64; single-channel stays 3D."""
    (rows, cols, ch), raw = _load_binary(path, *_RASTER_HEADER)
    return _f4_to_f8(raw).reshape(rows, cols, ch)


# ---------------------------------------------------------------------------
# MVSV voxel grids
# ---------------------------------------------------------------------------


def save_volume(path, grid: VoxelGrid) -> None:
    """Header: dims (nx, ny, nz, C) as u32, origin and pitch as f32; then per
    voxel (C-order) the aggregated feature followed by the surface score."""
    nx, ny, nz = grid.spec.dims
    c = grid.feature_mean.shape[-1]
    payload = np.concatenate([grid.feature_mean, grid.score[..., None]], axis=-1)
    header = MAGIC_VOLUME + struct.pack("<IIII3f3f", nx, ny, nz, c, *grid.spec.origin,
                                        *grid.spec.pitch)
    _save_binary(path, header, payload.astype("<f4").tobytes())


def load_volume(path) -> VoxelGrid:
    """The stored format carries no per-voxel view counts, so valid_count is
    None on restored grids."""
    (nx, ny, nz, c, *geometry), raw = _load_binary(
        path, MAGIC_VOLUME, "<IIII3f3f", "volume",
        lambda nx, ny, nz, c, *_: (nx * ny * nz * (c + 1) * 4,
                                   f"dims x channels {nx}x{ny}x{nz}x{c}"))
    origin, pitch = tuple(geometry[:3]), tuple(geometry[3:])
    with _blame(path):
        if not np.all(np.isfinite(geometry)):
            raise ValueError(f"volume origin and pitch must be finite, got {origin}, {pitch}")
        spec = VoxelGridSpec((nx, ny, nz), origin, pitch)
    payload = _f4_to_f8(raw).reshape(nx, ny, nz, c + 1)
    return VoxelGrid(
        spec=spec, feature_mean=payload[..., :c], score=payload[..., c], valid_count=None
    )


# ---------------------------------------------------------------------------
# MVSG splat sets
# ---------------------------------------------------------------------------

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


def save_splats(path, splats: GaussianSplatSet) -> None:
    """The record keeps the general layout of a unit quaternion and three
    scales: an isotropic splat is the identity quaternion with its sigma in
    all three scale slots."""
    n = len(splats)
    rec = np.empty(n, dtype=_SPLAT_DTYPE)
    rec["mean"] = splats.means
    rec["alpha"] = splats.opacities
    rec["quat"] = _IDENTITY_QUAT
    rec["scale"] = splats.sigmas[:, None]
    rec["color"] = splats.colors
    rec["view"] = splats.source_view
    rec["row"] = splats.pixel_rows
    rec["col"] = splats.pixel_cols
    _save_binary(path, MAGIC_SPLATS + struct.pack("<I", n), rec.tobytes())


def load_splats(path) -> GaussianSplatSet:
    _, raw = _load_binary(path, MAGIC_SPLATS, "<I", "splat",
                          lambda n: (n * _SPLAT_DTYPE.itemsize, f"count {n}"))
    rec = np.frombuffer(raw, dtype=_SPLAT_DTYPE)
    sigma, color = rec["scale"][:, 0], rec["color"]
    for field, bad, rule in (
        ("mean", ~np.all(np.abs(rec["mean"]) <= MAX_SPLAT_MAGNITUDE, axis=1),
         f"must be finite and at most {MAX_SPLAT_MAGNITUDE:g} in magnitude"),
        ("quat", np.any(rec["quat"] != _IDENTITY_QUAT, axis=1), "must be the identity (1, 0, 0, 0)"),
        ("scale", ~((sigma > 0) & (sigma <= MAX_SPLAT_MAGNITUDE)),
         f"must be positive and finite, at most {MAX_SPLAT_MAGNITUDE:g}"),
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


# ---------------------------------------------------------------------------
# scene specs, boxes, metrics (structured text)
# ---------------------------------------------------------------------------


def scene_to_text(scene: SceneSpec) -> str:
    lines = [
        "room " + " ".join(_fmt(x) for x in np.r_[scene.room_lo, scene.room_hi]),
        "walls " + ("1" if scene.walls else "0"),
        "wall_seed " + str(scene.wall_seed),
        "background " + " ".join(_fmt(x) for x in scene.background),
    ]
    for b in scene.boxes:
        lines.append(
            "box "
            + " ".join(_fmt(x) for x in np.r_[b.lo, b.hi])
            + f" {b.texture_seed} "
            + " ".join(_fmt(x) for x in b.color)
        )
    return "\n".join(lines) + "\n"


# The field of each value of a scene-listing record, in order.
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
        with _blame(where):
            if kind in records:
                raise ValueError("duplicate record")
            v = _parse_record(_SCENE_RECORDS[kind], rest.split())
            if kind == "box":
                boxes.append((where, TexturedBox(lo=v[:3], hi=v[3:6], texture_seed=v[6],
                                                 color=v[7:])))
                continue
            if kind == "room":
                room_bounds(v[:3], v[3:], fields=("lo", "hi"))
            elif kind == "background":
                base_albedo("background", v)
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


def save_scene(path, scene: SceneSpec) -> None:
    save_text(path, scene_to_text(scene))


def load_scene_spec(path) -> SceneSpec:
    return load_text(path, scene_from_text)


def boxes_to_text(boxes) -> str:
    """One record per line: center xyz, size whl, yaw (always 0: boxes are
    axis-aligned), score."""
    lines = []
    for b in boxes:
        lines.append(
            " ".join(
                [_fmt(x) for x in b.center]
                + [_fmt(x) for x in b.size]
                + [_fmt(0.0), _fmt(b.score)]
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


_BOX_FIELDS = ("center",) * 3 + ("size",) * 3 + ("yaw", "score")


def boxes_from_text(text: str):
    """Box records `cx cy cz w h l yaw score`; a non-finite value, or a yaw
    other than 0 (boxes are axis-aligned), is a ValueError naming the line
    and the field.  The yaw is checked, then dropped."""
    out = []
    for lineno, line in _records(text):
        with _blame(f"box listing: line {lineno}"):
            vals = _parse_record(_BOX_FIELDS, line.split())
            for name, v in zip(_BOX_FIELDS, vals):
                if not np.isfinite(v):
                    raise ValueError(f"field {name}: {v!r} is not finite")
            if vals[6] != 0:
                raise ValueError(f"field yaw: {vals[6]!r}: boxes are axis-aligned, so yaw must be 0")
            out.append(Box3D(center=np.array(vals[:3]), size=np.array(vals[3:6]), score=vals[7]))
    return out


def save_boxes(path, boxes) -> None:
    save_text(path, boxes_to_text(boxes))


def load_boxes(path):
    return load_text(path, boxes_from_text)


def metrics_to_text(metrics: dict[str, float]) -> str:
    """One `name value` record per line, insertion-ordered."""
    return "".join(f"{k} {_fmt(v)}\n" for k, v in metrics.items())


def metrics_from_text(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for lineno, line in _records(text):
        key, _, val = line.partition(" ")
        if key in out:
            raise ValueError(f"metrics: line {lineno}: duplicate key {key!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ValueError(f"metrics: line {lineno}: {key}: {val!r} is not a number") from None
    return out


def save_metrics(path, metrics: dict[str, float]) -> None:
    save_text(path, metrics_to_text(metrics))


def load_metrics(path) -> dict[str, float]:
    return load_text(path, metrics_from_text)
