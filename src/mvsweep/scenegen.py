"""Procedural synthetic scenes: textured axis-aligned boxes inside a room,
rendered with a ray caster that supplies ground-truth images, depth maps and
box annotations.

Rendering is pure albedo (no shading) so a surface point has exactly the same
color in every view, and every face carries deterministic value-noise texture
with enough contrast that photometric matching is well posed.

Geometry conventions: the room is an axis-aligned box, z is up, cameras are
placed on a horizontal arc around the room center.  Face ids are
0..5 = (-x, +x, -y, +y, -z, +z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvsweep.camera import CameraView, Intrinsics, look_at, nearest_pixel, pixel_rays

# Default room matches the default 40x40x16 voxel grid at pitch
# (0.16, 0.16, 0.2): x, y in [-3.2, 3.2], z in [0, 3.2].
ROOM_LO = (-3.2, -3.2, 0.0)
ROOM_HI = (3.2, 3.2, 3.2)

# Boxes stay outside this xy-radius so the camera arc never enters one.  The
# wall/floor margins and the pairwise gap exceed two match windows (0.2 m
# each) plus one voxel, so the depth-gated surface shells of distinct
# surfaces can never merge under 26-connectivity.
CAMERA_CLEAR_RADIUS = 1.5
WALL_MARGIN = 0.62
FLOOR_MARGIN = 0.65
CEILING_MARGIN = 0.6
BOX_GAP = 0.6

# Trajectory geometry: arc radius and the hard baseline window.
ARC_RADIUS = 1.15
BASELINE_MIN = 0.05
BASELINE_MAX = 1.0

# Value-noise octaves (period in meters, weight).  Calibrated so that the
# pooled quarter-res descriptors keep a wide, high-contrast correlation basin:
# the long period drives sub-plane interpolation, the short one breaks false
# matches, and the logistic squash hardens the contrast.
_OCTAVES = ((0.45, 0.30), (0.22, 0.50), (0.09, 0.20))
_LUM_SQUASH = 6.0
_CHROMA_PERIOD = 0.25
_CHROMA_AMP = 0.55
# Albedo is shaded in slices of at most this many points of one face run.
_ALBEDO_BLOCK = 16384

_DEFAULT_INTRINSICS = Intrinsics(fx=300.0, fy=300.0, cx=159.5, cy=119.5)
_DEFAULT_SIZE = (320, 240)  # (width, height)


def base_albedo(field: str, value) -> np.ndarray:
    """`value` as a (3,) base albedo; a ValueError naming `field` unless each
    entry lies in [0, 1], which NaN does not."""
    albedo = np.asarray(value, dtype=np.float64).reshape(3)
    if not np.all((albedo >= 0.0) & (albedo <= 1.0)):
        raise ValueError(f"field {field}: base albedo must lie in [0, 1], got {albedo.tolist()}")
    return albedo


def room_bounds(lo, hi, fields=("room_lo", "room_hi")) -> tuple[np.ndarray, np.ndarray]:
    """`lo` and `hi` as (3,) room corners; a ValueError naming the field (of
    `fields`) unless both are finite and lo lies strictly below hi."""
    lo = np.asarray(lo, dtype=np.float64).reshape(3)
    hi = np.asarray(hi, dtype=np.float64).reshape(3)
    for field, corner in zip(fields, (lo, hi)):
        if not np.all(np.isfinite(corner)):
            raise ValueError(f"field {field}: room bounds must be finite, got {corner.tolist()}")
    if not np.all(lo < hi):
        raise ValueError(f"field {fields[1]}: must lie strictly above {fields[0]}")
    return lo, hi


@dataclass(frozen=True)
class TexturedBox:
    lo: np.ndarray  # (3,) min corner, meters
    hi: np.ndarray  # (3,) max corner
    texture_seed: int
    color: np.ndarray  # (3,) base albedo in [0, 1]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64).reshape(3)
        hi = np.asarray(self.hi, dtype=np.float64).reshape(3)
        if not np.all(lo < hi):
            raise ValueError("box min corner must be strictly below max corner")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "color", base_albedo("color", self.color))


@dataclass(frozen=True)
class SceneSpec:
    room_lo: np.ndarray
    room_hi: np.ndarray
    boxes: tuple[TexturedBox, ...]
    background: np.ndarray  # wall base albedo in [0, 1]
    wall_seed: int
    walls: bool = True

    def __post_init__(self):
        lo, hi = room_bounds(self.room_lo, self.room_hi)
        for b in self.boxes:
            if not (np.all(b.lo > lo) and np.all(b.hi < hi)):
                raise ValueError("box not strictly inside room")
        object.__setattr__(self, "room_lo", lo)
        object.__setattr__(self, "room_hi", hi)
        object.__setattr__(self, "background", base_albedo("background", self.background))


@dataclass
class GroundTruth:
    depth: np.ndarray  # (H, W) camera-frame z in meters, 0 where no hit
    image: np.ndarray  # (H, W, 3) albedo in [0, 1]
    boxes: np.ndarray  # (n, 2, 3) lo/hi corners of scene boxes


# ---------------------------------------------------------------------------
# deterministic value noise
# ---------------------------------------------------------------------------

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)


def _hash_unit(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic lattice hash -> float64 in [0, 1); ix and iy broadcast."""
    h = (ix.astype(np.uint64) * np.uint64(0x8DA6B343)) ^ (
        iy.astype(np.uint64) * np.uint64(0xD8163841))
    h ^= np.uint64((seed * 0xCB1AB31F) & 0xFFFFFFFFFFFFFFFF)
    h = (h + _M1) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h = ((h ^ (h >> np.uint64(30))) * _M2) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h = ((h ^ (h >> np.uint64(27))) * _M3) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(31)
    return h.astype(np.float64) / float(2**64)


def _corner_hashes(ix: np.ndarray, iy: np.ndarray, seed: int):
    """_hash_unit at the corners (ix, iy), (ix + 1, iy), (ix, iy + 1) and
    (ix + 1, iy + 1) of every lattice cell.

    When the lattice rectangle covering all corners holds at most 4 points
    per query point, no more than hashing every corner would take, it is
    hashed once, from a broadcast row of x and column of y, and the corners
    are gathered from it.  A wider spread, as a huge room or a non-finite
    coordinate gives, hashes each corner instead, so memory stays
    proportional to the input.  Both hash the same integers.
    """
    if ix.size:
        x0, y0 = ix.min(), iy.min()
        nx = int(ix.max()) - int(x0) + 2  # Python ints: the spread may exceed int64
        ny = int(iy.max()) - int(y0) + 2
        if nx * ny <= 4 * ix.size:
            lattice = _hash_unit(np.arange(nx, dtype=np.int64) + x0,
                                 (np.arange(ny, dtype=np.int64) + y0)[:, None], seed).ravel()
            k = (iy - y0) * nx + (ix - x0)
            return (lattice.take(k), lattice.take(k + 1),
                    lattice.take(k + nx), lattice.take(k + nx + 1))
    return (_hash_unit(ix, iy, seed), _hash_unit(ix + 1, iy, seed),
            _hash_unit(ix, iy + 1, seed), _hash_unit(ix + 1, iy + 1, seed))


def value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Smoothstep-interpolated lattice noise in [0, 1), period 1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ix = np.floor(x)
    iy = np.floor(y)
    fx = x - ix
    fy = y - iy
    # int64 first: floor of negatives must not wrap through uint64 casting.
    ix = ix.astype(np.int64)
    iy = iy.astype(np.int64)
    wx = fx * fx * (3.0 - 2.0 * fx)
    wy = fy * fy * (3.0 - 2.0 * fy)
    v00, v10, v01, v11 = _corner_hashes(ix, iy, seed)
    top = v00 + (v10 - v00) * wx
    bot = v01 + (v11 - v01) * wx
    return top + (bot - top) * wy


def _face_albedo(s: np.ndarray, t: np.ndarray, base: np.ndarray, seed: int,
                 out: np.ndarray) -> None:
    """Write the albedo at in-plane surface coordinates (s, t), in meters,
    into out, (N, 3).  _sorted_albedo passes one block of at most
    _ALBEDO_BLOCK points per call, small enough that the temporaries of
    the six value_noise calls stay in cache."""
    lum = np.zeros_like(s)
    for i, (period, weight) in enumerate(_OCTAVES):
        lum += weight * value_noise(s / period + 17.1 * i, t / period + 9.7 * i, seed + 101 * i)
    lum = 1.0 / (1.0 + np.exp(-_LUM_SQUASH * (lum - 0.5)))
    bright = 0.35 + 1.3 * lum
    sc, tc = s / _CHROMA_PERIOD, t / _CHROMA_PERIOD
    for ch, (o1, o2, off) in enumerate(((3.7, 11.9, 7777), (23.3, 5.1, 9999), (41.9, 31.7, 4343))):
        chroma = value_noise(sc + o1, tc + o2, seed + off)
        out[:, ch] = base[ch] * bright + _CHROMA_AMP * (chroma - 0.5)
    np.clip(out, 0.0, 1.0, out=out)


_INPLANE = {0: (1, 2), 1: (1, 2), 2: (0, 2), 3: (0, 2), 4: (0, 1), 5: (0, 1)}


def _sorted_albedo(points: np.ndarray, keys: np.ndarray, surfaces) -> np.ndarray:
    """Albedo of points sorted by key, (N, 3).

    Point i lies on face keys[i] % 6 of surface keys[i] // 6, and surfaces[s]
    is surface s's (seed base, base albedo).  Each run of equal keys is
    shaded in slices of at most _ALBEDO_BLOCK points, one _face_albedo call
    each, so that a large face's temporaries stay in cache; every point gets
    the same operations whatever the slicing.  A key that names no face of a
    listed surface gets 0.
    """
    out = np.zeros((len(keys), 3))
    if not len(keys):
        return out
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    for lo, hi in zip(starts, np.r_[starts[1:], len(keys)]):
        if keys[lo] not in range(6 * len(surfaces)):
            continue
        surface, fid = divmod(int(keys[lo]), 6)
        seed_base, base = surfaces[surface]
        a, b = _INPLANE[fid]
        for j in range(lo, hi, _ALBEDO_BLOCK):
            k = min(j + _ALBEDO_BLOCK, hi)
            _face_albedo(points[j:k, a], points[j:k, b], base, seed_base * 6 + fid, out[j:k])
    return out


def surface_albedo(points: np.ndarray, face_ids: np.ndarray, seed_base: int, base: np.ndarray) -> np.ndarray:
    """Albedo at 3D surface points lying on the given faces of one surface.

    The color depends only on the point, the face and the surface seed, so
    every view observing the same point sees exactly the same albedo.
    """
    points = np.atleast_2d(points)
    face_ids = np.atleast_1d(face_ids)
    order = np.argsort(face_ids, kind="stable")
    out = np.zeros((points.shape[0], 3))
    out[order] = _sorted_albedo(points[order], face_ids[order], ((seed_base, base),))
    return out


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------


def _aabb_xy_clearance(lo, hi) -> float:
    """Distance from the world z-axis to the box footprint in xy."""
    dx = max(lo[0], 0.0) + max(-hi[0], 0.0)
    dy = max(lo[1], 0.0) + max(-hi[1], 0.0)
    return float(np.hypot(dx, dy))


def _snap_to_wall_normal(azimuth: float, rng) -> float:
    """Snap an azimuth to the nearest wall normal with a small jitter.

    Head-on walls keep most of the image near fronto-parallel, which is what
    makes variance matching (and sub-plane depth interpolation) well behaved
    across seeds; the jitter avoids exact axis alignment.
    """
    quarter = np.pi / 2.0
    return float(np.round(azimuth / quarter) * quarter + np.deg2rad(rng.uniform(-10.0, 10.0)))


def generate_scene(seed: int, n_boxes: int) -> SceneSpec:
    """Deterministic room with n_boxes floating textured boxes.

    Boxes are confined to an annulus sector: outside the camera clearance
    radius, off the walls and floor/ceiling, mutually separated, and grouped
    in azimuth so a camera arc on the opposite side sees all of them.
    """
    if n_boxes < 0:
        raise ValueError("n_boxes must be >= 0")
    rng = np.random.default_rng(seed)
    wall_seed = int(rng.integers(1, 2**31 - 1))
    sector_center = _snap_to_wall_normal(rng.uniform(0.0, 2.0 * np.pi), rng)
    background = rng.uniform(0.45, 0.75, size=3)

    room_lo = np.array(ROOM_LO)
    room_hi = np.array(ROOM_HI)
    boxes: list[TexturedBox] = []
    attempts = 0
    rejects = 0
    while len(boxes) < n_boxes:
        attempts += 1
        if attempts > 20000:
            raise RuntimeError(f"could not place {n_boxes} boxes after {attempts} attempts")
        if rejects > 250:
            # Earlier boxes can block the remaining sector; restart the layout.
            boxes.clear()
            rejects = 0
        sector_half = 12.0 if n_boxes <= 2 else 26.0
        azim = sector_center + rng.uniform(-np.deg2rad(sector_half), np.deg2rad(sector_half))
        radial = rng.uniform(2.0, 2.45)
        half = np.array(
            [rng.uniform(0.42, 0.55), rng.uniform(0.42, 0.55), rng.uniform(0.25, 0.295)]
        )
        # Alternate boxes between a low and a high band, clearly below or
        # above the cameras: one horizontal face (whose footprint spans the
        # whole box) stays visible, and the stacked bands never occlude each
        # other, so boxes can share the narrow azimuth sector.
        if len(boxes) % 2 == 0:
            cz = rng.uniform(FLOOR_MARGIN + half[2], 1.28 - half[2])
        else:
            cz = rng.uniform(2.0 + half[2], room_hi[2] - CEILING_MARGIN - half[2])
        center = np.array([radial * np.cos(azim), radial * np.sin(azim), cz])
        lo = center - half
        hi = center + half
        if np.any(lo[:2] < room_lo[:2] + WALL_MARGIN) or np.any(hi[:2] > room_hi[:2] - WALL_MARGIN):
            rejects += 1
            continue
        if _aabb_xy_clearance(lo, hi) < CAMERA_CLEAR_RADIUS:
            rejects += 1
            continue
        pad = BOX_GAP / 2.0
        clash = any(
            np.all(lo - pad < b.hi + pad) and np.all(hi + pad > b.lo - pad) for b in boxes
        )
        if clash:
            rejects += 1
            continue
        rejects = 0
        boxes.append(
            TexturedBox(
                lo=lo,
                hi=hi,
                texture_seed=int(rng.integers(1, 2**31 - 1)),
                color=rng.uniform(0.2, 0.95, size=3),
            )
        )
    return SceneSpec(
        room_lo=room_lo,
        room_hi=room_hi,
        boxes=tuple(boxes),
        background=background,
        wall_seed=wall_seed,
    )


def _box_azimuth(scene: SceneSpec) -> float | None:
    if not scene.boxes:
        return None
    center = (scene.room_lo + scene.room_hi) / 2.0
    mids = np.stack([(b.lo + b.hi) / 2.0 - center for b in scene.boxes])
    mean = mids.mean(axis=0)
    return float(np.arctan2(mean[1], mean[0]))


def make_trajectory(
    scene: SceneSpec,
    n: int,
    seed: int,
    intrinsics: Intrinsics = _DEFAULT_INTRINSICS,
    image_size: tuple[int, int] = _DEFAULT_SIZE,
) -> list[CameraView]:
    """n cameras on a smooth horizontal arc, all looking at the room center.

    The arc sits opposite the boxes' mean azimuth (seed-chosen when the room
    is empty) so the boxes fall inside the shared field of view.  Pairwise
    baselines are guaranteed inside [0.05, 1] m; raises when the room or the
    requested count makes that impossible.
    """
    if n < 2:
        raise ValueError("need at least 2 views")
    rng = np.random.default_rng(seed)
    center = (scene.room_lo + scene.room_hi) / 2.0
    half = (scene.room_hi - scene.room_lo) / 2.0
    if min(half[0], half[1]) < ARC_RADIUS + 0.25 or half[2] < 0.5:
        raise ValueError("room too small to place cameras")

    box_az = _box_azimuth(scene)
    if box_az is None:
        box_az = _snap_to_wall_normal(rng.uniform(0.0, 2.0 * np.pi), rng)
    scene_az = box_az
    arc_center = scene_az + np.pi
    span = np.deg2rad(min(40.0, 18.0 * (n - 1)))
    adjacent = 2.0 * ARC_RADIUS * np.sin(span / (2 * (n - 1)))
    if adjacent < BASELINE_MIN:
        raise ValueError(f"cannot space {n} cameras at >= {BASELINE_MIN} m on the arc")

    # Verge on the scene content (the box sector, or its stand-in in an empty
    # room) rather than the nearby room center: a distant target keeps the
    # angular separation between views small enough that they overlap across
    # the whole sweep range.  The arc rides high and pitches down so that
    # horizontal surfaces (floor, box tops) are seen at a healthy angle.
    target = center + 2.8 * np.array([np.cos(scene_az), np.sin(scene_az), 0.0])
    target[2] = 1.35
    arc_z = 0.3  # slightly above the room-center height

    width, height = image_size
    views = []
    for i in range(n):
        az = arc_center - span / 2.0 + span * i / (n - 1)
        z_off = arc_z + 0.10 * np.sin(2.0 * np.pi * i / n)
        eye = center + np.array([ARC_RADIUS * np.cos(az), ARC_RADIUS * np.sin(az), z_off])
        pose = look_at(eye, target)
        views.append(CameraView(intrinsics, pose, width, height))

    centers = np.stack([v.pose.camera_center() for v in views])
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    iu = np.triu_indices(n, k=1)
    if dist[iu].min() < BASELINE_MIN or dist[iu].max() > BASELINE_MAX:
        raise ValueError("trajectory violates baseline bounds")
    return views


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------


def _room_exit(origin: np.ndarray, dirs: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Exit distance and face id for rays starting inside the room AABB."""
    with np.errstate(divide="ignore"):
        t_exit = np.full(dirs.shape[:-1], np.inf)
        face = np.full(dirs.shape[:-1], -1, dtype=np.int8)
        for axis in range(3):
            d = dirs[..., axis]
            bound = np.where(d > 0, hi[axis], lo[axis])
            with np.errstate(invalid="ignore"):
                t = (bound - origin[axis]) / d
            t = np.where(d == 0.0, np.inf, t)
            better = t < t_exit
            t_exit = np.where(better, t, t_exit)
            face_id = np.where(d > 0, 2 * axis + 1, 2 * axis).astype(np.int8)
            face = np.where(better, face_id, face)
    return t_exit, face


def _box_entry(origin: np.ndarray, dirs: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Slab-test entry distance and face id; inf where the ray misses."""
    t_near = np.full(dirs.shape[:-1], -np.inf)
    t_far = np.full(dirs.shape[:-1], np.inf)
    face = np.full(dirs.shape[:-1], -1, dtype=np.int8)
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            d = dirs[..., axis]
            t1 = (lo[axis] - origin[axis]) / d
            t2 = (hi[axis] - origin[axis]) / d
            t1 = np.where(d == 0.0, np.where(origin[axis] >= lo[axis], -np.inf, np.inf), t1)
            t2 = np.where(d == 0.0, np.where(origin[axis] <= hi[axis], np.inf, -np.inf), t2)
            lo_t = np.minimum(t1, t2)
            hi_t = np.maximum(t1, t2)
            enters_low = t1 <= t2  # entering through the lo face of this axis
            better = lo_t > t_near
            face_id = np.where(enters_low, 2 * axis, 2 * axis + 1).astype(np.int8)
            face = np.where(better, face_id, face)
            t_near = np.maximum(t_near, lo_t)
            t_far = np.minimum(t_far, hi_t)
    hit = (t_near <= t_far) & (t_near > 1e-9)
    t_near = np.where(hit, t_near, np.inf)
    return t_near, face


def _box_window(view: CameraView, lo: np.ndarray, hi: np.ndarray):
    """(row slice, column slice) of the pixels whose rays can hit the box, or
    None when there are none.

    With every corner in front of the camera the box projects inside the
    bounding rectangle of its 8 projected corners, which is padded by one
    pixel against rounding and clipped to the image.  A corner at or behind
    the camera gives the whole image.
    """
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, 3)
    cam = view.pose.transform(corners)
    whole = slice(0, view.height), slice(0, view.width)
    if not np.all(cam[:, 2] > 0):
        return whole
    k = view.intrinsics
    u = k.fx * cam[:, 0] / cam[:, 2] + k.cx
    v = k.fy * cam[:, 1] / cam[:, 2] + k.cy
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        return whole
    c0, c1 = max(int(np.floor(u.min())) - 1, 0), min(int(np.ceil(u.max())) + 1, view.width - 1)
    r0, r1 = max(int(np.floor(v.min())) - 1, 0), min(int(np.ceil(v.max())) + 1, view.height - 1)
    if c0 > c1 or r0 > r1:
        return None
    return slice(r0, r1 + 1), slice(c0, c1 + 1)


def raycast(scene: SceneSpec, view: CameraView) -> GroundTruth:
    """Per-pixel nearest intersection against every box and the room walls.

    Depth is camera-frame z (0 where nothing is hit, which only happens with
    walls disabled); the image is pure albedo, so multi-view colors of a
    surface point match exactly.
    """
    origin, dirs = pixel_rays(view)
    inside_room = np.all(origin > scene.room_lo) and np.all(origin < scene.room_hi)
    if not inside_room:
        raise ValueError("camera must be inside the room")
    for b in scene.boxes:
        if np.all(origin > b.lo) and np.all(origin < b.hi):
            raise ValueError("camera is inside a box")

    h, w = dirs.shape[:2]
    if scene.walls:
        best_t, best_face = _room_exit(origin, dirs, scene.room_lo, scene.room_hi)
    else:
        best_t = np.full((h, w), np.inf)
        best_face = np.full((h, w), -1, dtype=np.int8)
    best_surface = np.full((h, w), -1, dtype=np.int32)  # -1 walls, else box index

    for bi, box in enumerate(scene.boxes):
        win = _box_window(view, box.lo, box.hi)
        if win is None:
            continue
        t_box, f_box = _box_entry(origin, dirs[win], box.lo, box.hi)
        closer = t_box < best_t[win]
        np.copyto(best_t[win], t_box, where=closer)
        np.copyto(best_face[win], f_box, where=closer)
        best_surface[win][closer] = bi

    hit = np.isfinite(best_t)
    depth = np.where(hit, best_t, 0.0)
    # Hit pixels sorted by (surface, face), so each face of each surface is
    # one contiguous run for _sorted_albedo.
    idx = np.flatnonzero(hit)
    keys = (best_surface.ravel()[idx] + 1) * 6 + best_face.ravel()[idx]
    order = np.argsort(keys, kind="stable")
    idx, keys = idx[order], keys[order]
    pts = origin + best_t.ravel()[idx][:, None] * dirs.reshape(-1, 3)[idx]
    surfaces = ((scene.wall_seed, scene.background),) + tuple(
        (b.texture_seed, b.color) for b in scene.boxes
    )
    image = np.zeros((h, w, 3))
    image.reshape(-1, 3)[idx] = _sorted_albedo(pts, keys, surfaces)

    gt_boxes = (
        np.stack([np.stack([b.lo, b.hi]) for b in scene.boxes])
        if scene.boxes
        else np.zeros((0, 2, 3))
    )
    return GroundTruth(depth=depth, image=image, boxes=gt_boxes)


# ---------------------------------------------------------------------------
# ground-truth helpers for quarter-resolution evaluation
# ---------------------------------------------------------------------------


def quarter_depth(depth: np.ndarray) -> np.ndarray:
    """Representative ground-truth depth for each quarter-res cell.

    One full-res sample per 4x4 block (at offset (1, 1)) rather than a block
    mean: at occlusion boundaries a mean would mix foreground and background
    into a depth that lies on no surface.
    """
    return depth[1::4, 1::4]


def multiview_coverage(
    views, depths, ref_index: int, source_indices, tol: float = 0.05
) -> np.ndarray:
    """Per quarter-res pixel of the reference view: how many of the given
    source views actually observe its ground-truth surface point.

    A source observes the point when its projection is in front and inside
    the image, and the source's own ground truth at the landing pixel is not
    nearer by more than `tol` meters (i.e. the point is unoccluded).  Pixels
    observed by fewer than 2 sources have no multi-view depth constraint and
    are excluded from depth evaluation.
    """
    ref = views[ref_index]
    gt_q = quarter_depth(depths[ref_index])
    origin, dirs = pixel_rays(ref, start=1, step=4)  # quarter_depth's sample pixels
    pts = origin + gt_q[..., None] * dirs
    flat = pts.reshape(-1, 3)
    count = np.zeros(gt_q.shape, dtype=np.int64)
    for si in source_indices:
        valid, vv, uu, d = nearest_pixel(flat, views[si])
        unoccluded = depths[si][vv, uu] >= d - tol
        miss = depths[si][vv, uu] == 0.0  # open rooms: a miss occludes nothing
        count += (valid & (unoccluded | miss)).reshape(gt_q.shape)
    return count


# ---------------------------------------------------------------------------
# ground-truth voxel classification (oracle for surface-score checks)
# ---------------------------------------------------------------------------


def surface_free_masks(scene: SceneSpec, views, grid_spec, depths=None, stride: int = 2):
    """Classify voxels of `grid_spec` into observed-surface vs free space.

    Surface: the voxel cell contains a surface point backprojected from some
    view's ground-truth depth map.  Free: strictly inside the room, outside
    every box, and not adjacent (26-neighborhood) to a surface voxel.
    Voxels that are neither (inside boxes, in walls, or in the one-voxel
    shell around surfaces) belong to no class.
    """
    from scipy import ndimage

    dims = tuple(int(d) for d in grid_spec.dims)
    surface = np.zeros(dims, dtype=bool)
    origin = np.asarray(grid_spec.origin, dtype=np.float64)
    pitch = np.asarray(grid_spec.pitch, dtype=np.float64)

    for vi, view in enumerate(views):
        depth = depths[vi] if depths is not None else raycast(scene, view).depth
        cam_origin, dirs = pixel_rays(view)
        d = depth[::stride, ::stride]
        rays = dirs[::stride, ::stride]
        m = d > 0
        pts = cam_origin + d[m, None] * rays[m]
        idx = np.floor((pts - origin) / pitch).astype(np.int64)
        ok = np.all((idx >= 0) & (idx < np.array(dims)), axis=1)
        idx = idx[ok]
        surface[idx[:, 0], idx[:, 1], idx[:, 2]] = True

    centers = grid_spec.centers()
    inside_room = np.all(centers > scene.room_lo + 1e-9, axis=-1) & np.all(
        centers < scene.room_hi - 1e-9, axis=-1
    )
    in_box = np.zeros(dims, dtype=bool)
    for b in scene.boxes:
        in_box |= np.all(centers >= b.lo, axis=-1) & np.all(centers <= b.hi, axis=-1)
    near_surface = ndimage.binary_dilation(surface, structure=np.ones((3, 3, 3), dtype=bool))
    free = inside_room & ~in_box & ~near_surface
    return surface, free
