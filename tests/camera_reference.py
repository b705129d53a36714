"""Reference oracles for the camera model.

A single-pixel ray backprojection, which the tests use to check projection
and `ray_grid`.  Camera-centre view selection written as two selectors:
the plane-sweep source pick (reference view excluded, `count` must leave
it out) and the novel-view source pick (every view a candidate).  Both rank
candidates by the Euclidean distance between camera centres and break exact
ties toward the lower index.  They serve only as the yardstick the tests
hold `mvsweep.camera` against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvsweep.camera import CameraView, in_bounds


@dataclass(frozen=True)
class Ray:
    """World-space ray with unit direction."""

    origin: np.ndarray  # (3,)
    direction: np.ndarray  # (3,), unit norm

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=np.float64).reshape(3)
        d = np.asarray(self.direction, dtype=np.float64).reshape(3)
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValueError("ray direction must be unit length")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)


def backproject_ray(u: float, v: float, view: CameraView, scale: int = 1) -> Ray:
    """World ray through pixel center (u, v) of the 1/scale grid.

    The ray is unit-length, so a point at camera-frame depth D sits at
    parameter D / cos(angle to the optical axis) along it.
    """
    k, w, h = view.scaled(scale)
    if not in_bounds(u, v, w, h):
        raise ValueError(f"pixel ({u}, {v}) outside {w}x{h} grid")
    d_cam = np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
    d_world = view.pose.rotation.T @ d_cam
    d_world /= np.linalg.norm(d_world)
    return Ray(origin=view.pose.camera_center(), direction=d_world)


def select_source_views(views: list[CameraView], ref_index: int, count: int) -> list[int]:
    """Indices of the `count` views nearest to view `ref_index` by camera
    center distance (reference excluded, ties to the lower index)."""
    if count >= len(views):
        raise ValueError("count must be smaller than the number of views")
    ref_center = views[ref_index].pose.camera_center()
    candidates = [i for i in range(len(views)) if i != ref_index]
    dists = np.array(
        [np.linalg.norm(views[i].pose.camera_center() - ref_center) for i in candidates]
    )
    order = np.lexsort((np.array(candidates), dists))
    return [candidates[i] for i in order[:count]]


def select_novel_sources(views: list[CameraView], novel: CameraView, count: int) -> list[int]:
    """Indices of the `count` views nearest to the novel camera center
    (ties to the lower index)."""
    if count > len(views):
        raise ValueError("count exceeds the number of views")
    center = novel.pose.camera_center()
    dists = np.array([np.linalg.norm(v.pose.camera_center() - center) for v in views])
    order = np.lexsort((np.arange(len(views)), dists))
    return [int(i) for i in order[:count]]
