"""Pinhole camera model: projection, rays, intrinsic scaling, relative poses,
the plane-induced homography warp, and nearest-pixel and nearest-view lookup.

Conventions (OpenCV-style, used by every module):
  - World and camera frames are right-handed; the camera looks along +z,
    x points right, y points down in the image.
  - Pose is world-to-camera: x_cam = R @ x_world + t.
  - Pixel (u, v) refers to the CENTER of that pixel cell.  A W x H grid
    therefore spans the continuous range [-0.5, W - 0.5] x [-0.5, H - 0.5].
  - Intrinsic scaling keeps pixel centers aligned across resolutions, so
    cx' = (cx + 0.5) * factor - 0.5 (likewise cy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Depth below this is treated as behind the image plane; guards the
# dehomogenizing division.
EPS_Z = 1e-6

# Feature grids live at 1/4 of the image resolution.
DOWNSAMPLE = 4

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


def scale_intrinsics(k: Intrinsics, factor: float) -> Intrinsics:
    """Rescale intrinsics to a resampled image.

    factor < 1 downsamples (e.g. 0.25 for the quarter-res feature grid).
    The principal point uses the pixel-center convention, so scaling by a
    then by b equals scaling by a*b exactly.
    """
    if not factor > 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return Intrinsics(
        fx=k.fx * factor,
        fy=k.fy * factor,
        cx=(k.cx + 0.5) * factor - 0.5,
        cy=(k.cy + 0.5) * factor - 0.5,
    )


@dataclass(frozen=True)
class Pose:
    """World-to-camera rigid transform: x_cam = rotation @ x_world + translation."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not np.allclose(r.T @ r, np.eye(3), atol=_ORTHO_TOL, rtol=0.0):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def camera_center(self) -> np.ndarray:
        """Camera origin in world coordinates: -R^T t."""
        return -self.rotation.T @ self.translation


def relative_pose(pose_i: Pose, pose_j: Pose) -> Pose:
    """Pose of camera j relative to camera i: x_j = R_ij x_i + t_ij."""
    r_ij = pose_j.rotation @ pose_i.rotation.T
    t_ij = pose_j.translation - r_ij @ pose_i.translation
    # Re-orthonormalize against accumulated rounding so Pose validation at
    # 1e-9 never trips on long composition chains.
    u, _, vt = np.linalg.svd(r_ij)
    # Both rotations have determinant +1, so u @ vt has it too.
    return Pose(u @ vt, t_ij)


@dataclass(frozen=True)
class CameraView:
    """A posed pinhole camera with its full-resolution image size."""

    intrinsics: Intrinsics
    pose: Pose
    width: int
    height: int

    def __post_init__(self):
        for name, v in (("width", self.width), ("height", self.height)):
            if v < DOWNSAMPLE or v % DOWNSAMPLE != 0:
                raise ValueError(
                    f"{name}={v} must be >= {DOWNSAMPLE} and divisible by {DOWNSAMPLE}"
                )

    def scaled(self, scale: int) -> tuple[Intrinsics, int, int]:
        """Intrinsics and grid size at 1/scale resolution."""
        if scale == 1:
            return self.intrinsics, self.width, self.height
        return (
            scale_intrinsics(self.intrinsics, 1.0 / scale),
            self.width // scale,
            self.height // scale,
        )


def in_bounds(u, v, width: int, height: int):
    """Pixel-center bounds test for a width x height grid (inclusive band)."""
    u = np.asarray(u)
    v = np.asarray(v)
    return (u >= -0.5) & (u <= width - 0.5) & (v >= -0.5) & (v <= height - 0.5)


def project(point, view: CameraView, scale: int = 1):
    """Project world points onto the image grid at 1/scale resolution.

    point: (..., 3) world coordinates; a single (3,) point is one row.
    Returns arrays (u, v, depth, valid).  depth is camera-frame z.  Invalid
    means behind the image plane (depth <= EPS_Z) or outside the grid
    bounds; u, v are still returned for in-front points so callers can
    decide.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    k, w, h = view.scaled(scale)
    pts = np.asarray(point, dtype=np.float64)
    rotated = np.atleast_2d(pts) @ view.pose.rotation.T
    # Translate each coordinate on its own: adding the (3,) vector to the
    # (..., 3) array runs one length-3 inner loop per point.
    u, v, depth = (rotated[..., i] + view.pose.translation[i] for i in range(3))
    in_front = depth > EPS_Z
    safe = np.where(in_front, depth, 1.0)
    for out, f, c in ((u, k.fx, k.cx), (v, k.fy, k.cy)):
        out *= f
        out += c * depth
        out /= safe
    valid = in_front & in_bounds(u, v, w, h)
    for out in (u, v):
        np.copyto(out, np.nan, where=~in_front)
    return u, v, depth, valid


def nearest_pixel(points, view: CameraView, scale: int = 1):
    """Project world points (..., 3) at 1/scale resolution and round each to
    the nearest pixel of that grid, clamped into it.

    Returns (valid, rows, cols, depth) with project()'s valid and depth.
    """
    u, v, depth, valid = project(points, view, scale)
    _, w, h = view.scaled(scale)
    cols = np.clip(np.round(np.nan_to_num(u)).astype(np.int64), 0, w - 1)
    rows = np.clip(np.round(np.nan_to_num(v)).astype(np.int64), 0, h - 1)
    return valid, rows, cols, depth


def nearest_views(views: list[CameraView], target: CameraView, count: int,
                  exclude: int | None = None) -> list[int]:
    """Indices of the `count` views whose camera centers lie nearest to the
    target's, ties to the lower index; view `exclude` is never a candidate.
    Asking for more views than there are candidates is a ValueError."""
    candidates = np.array([i for i in range(len(views)) if i != exclude], dtype=np.int64)
    if count > candidates.size:
        raise ValueError(f"count {count} exceeds the {candidates.size} candidate views")
    center = target.pose.camera_center()
    dists = np.array([np.linalg.norm(views[i].pose.camera_center() - center) for i in candidates])
    order = np.lexsort((candidates, dists))
    return [int(i) for i in candidates[order[:count]]]


def pixel_rays(view: CameraView, scale: int = 1, start: int = 0, step: int = 1):
    """Unnormalized rays through the pixel centers of the 1/scale grid, every
    `step`-th row and column from `start` (every pixel by default).

    Returns (origin (3,), directions (H, W, 3)); each direction has camera-
    frame z component 1, so the ray parameter equals camera-frame depth.
    """
    k, w, h = view.scaled(scale)
    uu, vv = np.meshgrid(
        np.arange(start, w, step, dtype=np.float64), np.arange(start, h, step, dtype=np.float64)
    )
    d_cam = np.stack([(uu - k.cx) / k.fx, (vv - k.cy) / k.fy, np.ones_like(uu)], axis=-1)
    return view.pose.camera_center(), d_cam @ view.pose.rotation  # (R^T d) for row vectors


def ray_grid(view: CameraView):
    """Rays through every pixel center of the quarter-res feature grid.

    Returns (origin (3,), directions (H, W, 3) unit, axis_cos (H, W)) where
    axis_cos is the dot of each direction with the optical axis; dividing a
    camera depth by it converts to distance along the unit ray.
    """
    origin, d_world = pixel_rays(view, DOWNSAMPLE)
    d_world = d_world / np.linalg.norm(d_world, axis=-1, keepdims=True)
    axis = view.pose.rotation[2]  # optical axis in world coordinates
    axis_cos = d_world @ axis
    return origin, d_world, axis_cos


def plane_warp_terms(u, v, k_ref: Intrinsics, k_src: Intrinsics, rel: Pose):
    """Per-source terms of the plane-induced homography for reference-grid
    pixels q = (u, v), broadcast together and flattened in C order.

    The ray through q meets the fronto-parallel plane at reference depth d at
    d K_ref^-1 q, so its homogeneous source coordinates are d a + b, with
    a = K_s R K_ref^-1 q (3, N) and b = K_s t (3,); rel is the pose of the
    source camera relative to the reference camera.
    """
    rays = np.stack(np.broadcast_arrays((u - k_ref.cx) / k_ref.fx, (v - k_ref.cy) / k_ref.fy, 1.0))
    kk = np.array([[k_src.fx, 0.0, k_src.cx], [0.0, k_src.fy, k_src.cy], [0.0, 0.0, 1.0]])
    return kk @ rel.rotation @ rays.reshape(3, -1), kk @ rel.translation


def plane_warp(a, b, depth: float, hz, u, v, ok) -> None:
    """Warp the pixels of `plane_warp_terms` through the plane at reference
    depth `depth`, writing into the (N,) buffers: hz = d a2 + b2 (the source
    depth), ok = hz > EPS_Z (in front of the source camera), and
    u = (d a0 + b0) / hz, v = (d a1 + b1) / hz where ok; elsewhere u and v
    hold d a0 + b0 and d a1 + b1.  Callers combine ok with their own
    grid-bounds test.
    """
    np.multiply(a[2], depth, out=hz)
    hz += b[2]
    np.greater(hz, EPS_Z, out=ok)
    for out, ai, bi in ((u, a[0], b[0]), (v, a[1], b[1])):
        np.multiply(ai, depth, out=out)
        out += bi
        np.divide(out, hz, out=out, where=ok)


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> Pose:
    """World-to-camera pose for a camera at `eye` looking toward `target`.

    `up` is the world up direction; the camera y axis points image-down.
    Degenerate when the gaze is parallel to `up`.
    """
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    n = np.linalg.norm(forward)
    if n < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / n
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(forward, up)
    rn = np.linalg.norm(right)
    if rn < 1e-9:
        raise ValueError("gaze direction parallel to up vector")
    right /= rn
    down = np.cross(forward, right)
    r = np.stack([right, down, forward], axis=0)
    # Orthonormalize so Pose's 1e-9 invariant holds exactly enough.
    u, _, vt = np.linalg.svd(r)
    r = u @ vt
    return Pose(r, -r @ eye)
