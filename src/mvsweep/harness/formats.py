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

import numpy as np

from mvsweep.camera import CameraView, Intrinsics, Pose
from mvsweep.sampling import VoxelGrid, VoxelGridSpec
from mvsweep.scenegen import SceneSpec, TexturedBox
from mvsweep.splat import GaussianSplatSet

MAGIC_RASTER = b"MVSR"
MAGIC_VOLUME = b"MVSV"
MAGIC_SPLATS = b"MVSG"


def _fmt(x: float) -> str:
    return repr(float(x))


def load_text(path, parse):
    """parse() of the text file at `path`; a ValueError gets the path as a
    prefix."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_header(fh, path, fmt: str, what: str) -> tuple:
    """Unpack a fixed binary header; a short file is a ValueError."""
    size = struct.calcsize(fmt)
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what} header")
    return struct.unpack(fmt, data)


def _read_payload(fh, path, nbytes: int, what: str) -> bytes:
    """Read the `nbytes` a header declares.  The declared size is checked
    against what the file holds before reading, so a corrupt header cannot
    ask for more memory than the file has bytes."""
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > held:
        raise ValueError(f"{path}: truncated data: {what} declares {nbytes} bytes, "
                         f"the file holds {held}")
    return fh.read(nbytes)


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


def cameras_from_text(text: str) -> list[CameraView]:
    tokens = text.split("\n")
    rows = [t for t in tokens if t.strip()]
    if not rows:
        raise ValueError("camera listing: empty, expected the view count")
    try:
        n = int(rows[0])
    except ValueError:
        raise ValueError(f"camera listing: view count {rows[0]!r} is not an integer") from None
    if len(rows) != 1 + 2 * n:
        raise ValueError(f"camera listing: expected {1 + 2 * n} lines, got {len(rows)}")
    views = []
    for i in range(n):
        head = rows[1 + 2 * i].split()
        if len(head) != 6:
            raise ValueError(
                f"camera listing: view {i} intrinsics line must have 6 values "
                f"(fx fy cx cy width height), got {len(head)}"
            )
        try:
            fx, fy, cx, cy = (float(x) for x in head[:4])
            width, height = int(head[4]), int(head[5])
            vals = [float(x) for x in rows[2 + 2 * i].split()]
        except ValueError as exc:
            raise ValueError(f"camera listing: view {i}: {exc}") from None
        if len(vals) != 12:
            raise ValueError(f"camera listing: view {i} [R|t] must have 12 values")
        rt = np.array(vals).reshape(3, 4)
        views.append(
            CameraView(Intrinsics(fx, fy, cx, cy), Pose(rt[:, :3], rt[:, 3]), width, height)
        )
    return views


def save_cameras(path, views) -> None:
    with open(path, "w") as fh:
        fh.write(cameras_to_text(views))


def load_cameras(path) -> list[CameraView]:
    return load_text(path, cameras_from_text)


# ---------------------------------------------------------------------------
# PPM images (P6, 8-bit)
# ---------------------------------------------------------------------------


def save_ppm(path, image: np.ndarray) -> None:
    """Float image in [0, 1] quantized to 8 bits; (H, W, 3)."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("expected (H, W, 3) image")
    data = np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def load_ppm(path) -> np.ndarray:
    """Returns float64 in [0, 1]."""
    with open(path, "rb") as fh:
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
        raw = _read_payload(fh, path, w * h * 3, f"PPM header {w}x{h}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).astype(np.float64) / 255.0


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
    rows, cols, ch = arr.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC_RASTER)
        fh.write(struct.pack("<III", rows, cols, ch))
        fh.write(arr.astype("<f4").tobytes())


def load_raster(path) -> np.ndarray:
    """Returns (rows, cols, channels) float64; single-channel stays 3D."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC_RASTER:
            raise ValueError(f"{path}: bad raster magic {magic!r}")
        rows, cols, ch = _read_header(fh, path, "<III", "raster")
        raw = _read_payload(fh, path, rows * cols * ch * 4,
                            f"raster header rows x cols x channels {rows}x{cols}x{ch}")
    return np.frombuffer(raw, dtype="<f4").reshape(rows, cols, ch).astype(np.float64)


# ---------------------------------------------------------------------------
# MVSV voxel grids
# ---------------------------------------------------------------------------


def save_volume(path, grid: VoxelGrid) -> None:
    """Header: dims (nx, ny, nz, C) as u32, origin and pitch as f32; then per
    voxel (C-order) the aggregated feature followed by the surface score."""
    nx, ny, nz = grid.spec.dims
    c = grid.feature_mean.shape[-1]
    payload = np.concatenate([grid.feature_mean, grid.score[..., None]], axis=-1)
    with open(path, "wb") as fh:
        fh.write(MAGIC_VOLUME)
        fh.write(struct.pack("<IIII", nx, ny, nz, c))
        fh.write(struct.pack("<3f", *grid.spec.origin))
        fh.write(struct.pack("<3f", *grid.spec.pitch))
        fh.write(payload.astype("<f4").tobytes())


def load_volume(path) -> VoxelGrid:
    """The stored format carries no per-voxel view counts, so valid_count is
    None on restored grids."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC_VOLUME:
            raise ValueError(f"{path}: bad volume magic {magic!r}")
        nx, ny, nz, c, *geometry = _read_header(fh, path, "<IIII3f3f", "volume")
        origin, pitch = tuple(geometry[:3]), tuple(geometry[3:])
        raw = _read_payload(fh, path, nx * ny * nz * (c + 1) * 4,
                            f"volume header dims x channels {nx}x{ny}x{nz}x{c}")
    payload = np.frombuffer(raw, dtype="<f4").reshape(nx, ny, nz, c + 1).astype(np.float64)
    spec = VoxelGridSpec((nx, ny, nz), origin, pitch)
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
    with open(path, "wb") as fh:
        fh.write(MAGIC_SPLATS)
        fh.write(struct.pack("<I", n))
        fh.write(rec.tobytes())


def load_splats(path) -> GaussianSplatSet:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC_SPLATS:
            raise ValueError(f"{path}: bad splat magic {magic!r}")
        (n,) = _read_header(fh, path, "<I", "splat")
        raw = _read_payload(fh, path, n * _SPLAT_DTYPE.itemsize, f"splat header count {n}")
    rec = np.frombuffer(raw, dtype=_SPLAT_DTYPE)
    for field, bad, rule in (
        ("quat", np.any(rec["quat"] != _IDENTITY_QUAT, axis=1), "must be the identity (1, 0, 0, 0)"),
        ("scale", ~(rec["scale"][:, 0] > 0), "must be positive"),
        ("scale", np.any(rec["scale"] != rec["scale"][:, :1], axis=1), "must hold three equal values"),
        ("alpha", ~((rec["alpha"] >= 0) & (rec["alpha"] <= 1)), "must lie in [0, 1]"),
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
_INT_FIELDS = ("walls", "wall_seed", "texture_seed")


def _parse_record(where: str, names: tuple, vals: list[str]) -> list:
    """The parsed values of one text record, a field name per value; a
    missing, extra or unparsable value is a ValueError naming `where` and the
    field."""
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


def scene_from_text(text: str) -> SceneSpec:
    records = {}
    boxes = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind not in _SCENE_RECORDS:
            raise ValueError(f"scene listing: line {lineno}: unknown record {kind!r}")
        where = f"scene listing: line {lineno}: {kind}"
        v = _parse_record(where, _SCENE_RECORDS[kind], rest.split())
        if kind == "box":
            try:
                box = TexturedBox(lo=v[:3], hi=v[3:6], texture_seed=v[6], color=v[7:])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            boxes.append((where, box))
        elif kind == "room" and not np.all(np.array(v[:3]) < v[3:]):
            raise ValueError(f"{where}: field hi: must lie strictly above lo")
        else:
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
    with open(path, "w") as fh:
        fh.write(scene_to_text(scene))


def load_scene_spec(path) -> SceneSpec:
    return load_text(path, scene_from_text)


def boxes_to_text(boxes) -> str:
    """One record per line: center xyz, size whl, yaw, score."""
    lines = []
    for b in boxes:
        lines.append(
            " ".join(
                [_fmt(x) for x in b.center]
                + [_fmt(x) for x in b.size]
                + [_fmt(b.yaw), _fmt(b.score)]
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


_BOX_FIELDS = ("center",) * 3 + ("size",) * 3 + ("yaw", "score")


def boxes_from_text(text: str):
    from mvsweep.harness.boxes import Box3D

    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        where = f"box listing: line {lineno}"
        vals = _parse_record(where, _BOX_FIELDS, line.split())
        try:
            out.append(Box3D(center=np.array(vals[:3]), size=np.array(vals[3:6]),
                             yaw=vals[6], score=vals[7]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return out


def save_boxes(path, boxes) -> None:
    with open(path, "w") as fh:
        fh.write(boxes_to_text(boxes))


def load_boxes(path):
    return load_text(path, boxes_from_text)


def metrics_to_text(metrics: dict[str, float]) -> str:
    """One `name value` record per line, insertion-ordered."""
    return "".join(f"{k} {_fmt(v)}\n" for k, v in metrics.items())


def metrics_from_text(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        key, _, val = line.partition(" ")
        try:
            out[key] = float(val)
        except ValueError:
            raise ValueError(f"metrics: line {lineno}: {key}: {val!r} is not a number") from None
    return out


def save_metrics(path, metrics: dict[str, float]) -> None:
    with open(path, "w") as fh:
        fh.write(metrics_to_text(metrics))


def load_metrics(path) -> dict[str, float]:
    return load_text(path, metrics_from_text)
