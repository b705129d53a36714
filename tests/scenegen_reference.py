"""Reference oracle for the ray caster: value noise that hashes the four
lattice corners of every point, albedo masked per surface and then per face,
and a slab test of every box over the whole image; and multi-view coverage
from full-resolution pixel rays sliced to the quarter-res samples.

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
    GroundTruth,
    SceneSpec,
    _room_exit,
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

    gt_boxes = (
        np.stack([np.stack([b.lo, b.hi]) for b in scene.boxes])
        if scene.boxes
        else np.zeros((0, 2, 3))
    )
    return GroundTruth(depth=depth, image=image, boxes=gt_boxes)


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
