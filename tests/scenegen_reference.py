"""Reference oracle for the ray caster: value noise that hashes the four
lattice corners of every point, albedo masked per surface and then per face,
the room exit and a slab test of every box over the whole image, each
written with divisions of its own; and multi-view coverage from
full-resolution pixel rays sliced to the quarter-res samples.

generate_scene is the box placement as it was written with one reject
branch per test and the sector half-width and gap pad formed on every
attempt.

It is slow, and serves only as the yardstick the tests hold
`mvsweep.scenegen` against, to the bit.
"""

from __future__ import annotations

import numpy as np

from mvsweep.camera import CameraView, nearest_pixel, pixel_rays
from mvsweep.scenegen import (
    _CHROMA_AMP,
    _CHROMA_PERIOD,
    _INPLANE,
    _LUM_SQUASH,
    _OCTAVES,
    BOX_GAP,
    CAMERA_CLEAR_RADIUS,
    CEILING_MARGIN,
    FLOOR_MARGIN,
    ROOM_HI,
    ROOM_LO,
    WALL_MARGIN,
    GroundTruth,
    SceneSpec,
    TexturedBox,
    _aabb_xy_clearance,
    _snap_to_wall_normal,
    quarter_depth,
)

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)


def _hash_unit(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    h = ix.astype(np.uint64) * np.uint64(0x8DA6B343)
    h ^= iy.astype(np.uint64) * np.uint64(0xD8163841)
    h ^= np.uint64((seed * 0xCB1AB31F) & 0xFFFFFFFFFFFFFFFF)
    h = (h + _M1) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h = ((h ^ (h >> np.uint64(30))) * _M2) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h = ((h ^ (h >> np.uint64(27))) * _M3) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(31)
    return h.astype(np.float64) / float(2**64)


def value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ix = np.floor(x)
    iy = np.floor(y)
    fx = x - ix
    fy = y - iy
    ix = ix.astype(np.int64)
    iy = iy.astype(np.int64)
    wx = fx * fx * (3.0 - 2.0 * fx)
    wy = fy * fy * (3.0 - 2.0 * fy)
    v00 = _hash_unit(ix, iy, seed)
    v10 = _hash_unit(ix + 1, iy, seed)
    v01 = _hash_unit(ix, iy + 1, seed)
    v11 = _hash_unit(ix + 1, iy + 1, seed)
    top = v00 + (v10 - v00) * wx
    bot = v01 + (v11 - v01) * wx
    return top + (bot - top) * wy


def _face_albedo(s: np.ndarray, t: np.ndarray, base: np.ndarray, seed: int) -> np.ndarray:
    lum = np.zeros_like(s)
    for i, (period, weight) in enumerate(_OCTAVES):
        lum += weight * value_noise(s / period + 17.1 * i, t / period + 9.7 * i, seed + 101 * i)
    lum = 1.0 / (1.0 + np.exp(-_LUM_SQUASH * (lum - 0.5)))
    chroma = [
        value_noise(s / _CHROMA_PERIOD + o1, t / _CHROMA_PERIOD + o2, seed + off)
        for o1, o2, off in ((3.7, 11.9, 7777), (23.3, 5.1, 9999), (41.9, 31.7, 4343))
    ]
    out = np.empty(s.shape + (3,))
    bright = 0.35 + 1.3 * lum
    for ch in range(3):
        out[..., ch] = base[ch] * bright + _CHROMA_AMP * (chroma[ch] - 0.5)
    return np.clip(out, 0.0, 1.0)


def surface_albedo(points: np.ndarray, face_ids: np.ndarray, seed_base: int, base: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(points)
    face_ids = np.atleast_1d(face_ids)
    out = np.zeros((points.shape[0], 3))
    for fid in range(6):
        m = face_ids == fid
        if not m.any():
            continue
        a, b = _INPLANE[fid]
        out[m] = _face_albedo(points[m, a], points[m, b], base, seed_base * 6 + fid)
    return out


def _room_exit(origin: np.ndarray, dirs: np.ndarray, lo: np.ndarray, hi: np.ndarray):
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
            enters_low = t1 <= t2
            better = lo_t > t_near
            face_id = np.where(enters_low, 2 * axis, 2 * axis + 1).astype(np.int8)
            face = np.where(better, face_id, face)
            t_near = np.maximum(t_near, lo_t)
            t_far = np.minimum(t_far, hi_t)
    hit = (t_near <= t_far) & (t_near > 1e-9)
    t_near = np.where(hit, t_near, np.inf)
    return t_near, face


def raycast(scene: SceneSpec, view: CameraView) -> GroundTruth:
    origin, dirs = pixel_rays(view)
    inside_room = np.all(origin > scene.room_lo) and np.all(origin < scene.room_hi)
    if not inside_room:
        raise ValueError("camera must be inside the room")
    for b in scene.boxes:
        if np.all(origin > b.lo) and np.all(origin < b.hi):
            raise ValueError("camera is inside a box")

    h, w = dirs.shape[:2]
    best_t = np.full((h, w), np.inf)
    best_face = np.full((h, w), -1, dtype=np.int8)
    best_surface = np.full((h, w), -1, dtype=np.int32)

    if scene.walls:
        t_room, f_room = _room_exit(origin, dirs, scene.room_lo, scene.room_hi)
        best_t = t_room
        best_face = f_room
        best_surface = np.full((h, w), -1, dtype=np.int32)

    for bi, box in enumerate(scene.boxes):
        t_box, f_box = _box_entry(origin, dirs, box.lo, box.hi)
        closer = t_box < best_t
        best_t = np.where(closer, t_box, best_t)
        best_face = np.where(closer, f_box, best_face)
        best_surface = np.where(closer, bi, best_surface)

    hit = np.isfinite(best_t)
    depth = np.where(hit, best_t, 0.0)
    image = np.zeros((h, w, 3))
    if hit.any():
        pts = origin + best_t[..., None] * dirs
        for bi in range(-1, len(scene.boxes)):
            m = hit & (best_surface == bi)
            if not m.any():
                continue
            if bi < 0:
                base, seed = scene.background, scene.wall_seed
            else:
                base, seed = scene.boxes[bi].color, scene.boxes[bi].texture_seed
            image[m] = surface_albedo(pts[m], best_face[m], seed, base)

    return GroundTruth(depth=depth, image=image)


def multiview_coverage(views, depths, ref_index, source_indices, tol=0.05):
    """How many of the sources observe each quarter-res pixel's ground-truth
    point, with rays cast through every full-res pixel and then sliced."""
    ref = views[ref_index]
    gt_q = quarter_depth(depths[ref_index])
    origin, dirs = pixel_rays(ref)
    pts = origin + gt_q[..., None] * dirs[1::4, 1::4]
    flat = pts.reshape(-1, 3)
    count = np.zeros(gt_q.shape, dtype=np.int64)
    for si in source_indices:
        valid, vv, uu, d = nearest_pixel(flat, views[si])
        unoccluded = depths[si][vv, uu] >= d - tol
        miss = depths[si][vv, uu] == 0.0
        count += (valid & (unoccluded | miss)).reshape(gt_q.shape)
    return count


def generate_scene(seed: int, n_boxes: int) -> SceneSpec:
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
