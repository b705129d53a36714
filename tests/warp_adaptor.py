"""The engine's plane warp on arbitrary reference pixels, for tests.

`warp_pixels` runs `mvsweep.camera.plane_warp_terms` and then one
`plane_warp`, the code `build_cost_volume` runs per (plane, source), and
returns its result in the layout of the two-step oracle
`costvol_reference.homography_warp`.
"""

from __future__ import annotations

import numpy as np

from mvsweep.camera import Intrinsics, Pose, plane_warp, plane_warp_terms


def warp_pixels(q, depth: float, k_ref: Intrinsics, k_src: Intrinsics, rel: Pose):
    """Warp reference-grid pixels q (2,) or (..., 2) through the plane at the
    given reference depth; rel is the pose of the source camera relative to
    the reference camera.  Returns (uv (..., 2), src_depth (...),
    in_front (...)), with NaN coordinates behind the source camera."""
    q = np.asarray(q, dtype=np.float64)
    a, b = plane_warp_terms(q[..., 0], q[..., 1], k_ref, k_src, rel)
    n = a.shape[1]
    hz, u, v = np.empty(n), np.empty(n), np.empty(n)
    ok = np.empty(n, dtype=bool)
    plane_warp(a, b, depth, hz, u, v, ok)
    uv = np.stack([np.where(ok, u, np.nan), np.where(ok, v, np.nan)], axis=-1)
    shape = q.shape[:-1]
    return uv.reshape(shape + (2,)), hz.reshape(shape), ok.reshape(shape)
