"""Ground-truth helpers over `mvsweep.scenegen` that only the tests use: the
albedo of given surface points, and the observed-surface / free-space voxel
classification that criteria 6, 8 and 9 score surface scores against."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from mvsweep.camera import pixel_rays
from mvsweep.scenegen import SceneSpec, _sorted_albedo, raycast


def surface_albedo(points: np.ndarray, face_ids: np.ndarray, seed_base: int, base: np.ndarray) -> np.ndarray:
    """Albedo at 3D surface points lying on the given faces of one surface,
    through the shading `raycast` runs.

    The color depends only on the point, the face and the surface seed, so
    every view observing the same point sees exactly the same albedo.
    """
    points = np.atleast_2d(points)
    face_ids = np.atleast_1d(face_ids)
    order = np.argsort(face_ids, kind="stable")
    out = np.zeros((points.shape[0], 3))
    out[order] = _sorted_albedo(points[order], face_ids[order], ((seed_base, base),))
    return out


def surface_free_masks(scene: SceneSpec, views, grid_spec, depths=None, stride: int = 2):
    """Classify voxels of `grid_spec` into observed-surface vs free space.

    Surface: the voxel cell contains a surface point backprojected from some
    view's ground-truth depth map.  Free: strictly inside the room, outside
    every box, and not adjacent (26-neighborhood) to a surface voxel.
    Voxels that are neither (inside boxes, in walls, or in the one-voxel
    shell around surfaces) belong to no class.
    """
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
