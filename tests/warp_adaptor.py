"""The engine's plane warp and bilinear sampler on arbitrary inputs, for
tests.

`warp_pixels` runs `mvsweep.camera.plane_warp_terms` and then one
`plane_warp`, the code `build_cost_volume` runs per (plane, source), and
returns its result in the layout of the two-step oracle
`costvol_reference.homography_warp`.  `bilinear_sample` runs the sweep's
sampler, `_bilinear_table` and one `_sample_channels`, on an (H, W, C) grid
and returns its samples in the layout of `costvol_reference.bilinear_sample`.
"""

from __future__ import annotations

import numpy as np

from mvsweep.camera import Intrinsics, Pose, plane_warp, plane_warp_terms
from mvsweep.costvol import _bilinear_table, _sample_channels, _SampleBuffers


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


def bilinear_sample(grid: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear lookup of an (H, W, C) grid at continuous pixel coordinates,
    clamping to the edge so the half-pixel boundary band stays usable.
    Returns u.shape + (C,); non-finite coordinates are rejected."""
    bad = np.count_nonzero(~np.isfinite(u)) + np.count_nonzero(~np.isfinite(v))
    if bad:
        raise ValueError(f"{bad} sample coordinates are not finite")
    h, w, c = grid.shape
    u, v = np.broadcast_arrays(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64))
    work = _SampleBuffers(c, u.size)
    sample = _sample_channels(_bilinear_table(grid), h, w, u.ravel(), v.ravel(), True, work)
    return sample.T.reshape(u.shape + (c,))
