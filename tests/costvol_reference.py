"""Reference oracle for the plane sweep: the pixel-major cost volume with a
masked scatter per (source, plane), the bilinear sampler with 2-D fancy
indexing, and score smoothing one depth slice at a time.

Each source view is warped through every plane; the cells whose warp lands
in front of the source camera and inside its grid are gathered with a
boolean mask and added into `(H, W, C, M)` accumulators that start from the
reference descriptor.  It is slow, and serves only as the yardstick the
tests hold `mvsweep.costvol` against, to the bit.
"""

from __future__ import annotations

import numpy as np

from mvsweep.camera import CameraView, DOWNSAMPLE, homography_warp, in_bounds, relative_pose
from mvsweep.costvol import CostVolume, DepthPlanes, softmax


def bilinear_sample(grid: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear lookup of an (H, W, C) grid at continuous pixel coordinates,
    clamping to the edge so the half-pixel boundary band stays usable."""
    h, w = grid.shape[:2]
    x = np.clip(u, 0.0, w - 1.0)
    y = np.clip(v, 0.0, h - 1.0)
    x0 = np.clip(np.floor(x).astype(np.int64), 0, w - 2) if w > 1 else np.zeros_like(x, np.int64)
    y0 = np.clip(np.floor(y).astype(np.int64), 0, h - 2) if h > 1 else np.zeros_like(y, np.int64)
    fx = (x - x0)[..., None]
    fy = (y - y0)[..., None]
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    g00 = grid[y0, x0]
    g10 = grid[y0, x1]
    g01 = grid[y1, x0]
    g11 = grid[y1, x1]
    top = g00 + (g10 - g00) * fx
    bot = g01 + (g11 - g01) * fx
    return top + (bot - top) * fy


def build_cost_volume(
    ref_feat: np.ndarray,
    ref_view: CameraView,
    src_feats: list[np.ndarray],
    src_views: list[CameraView],
    planes: DepthPlanes,
    cost_penalty: float = 10.0,
) -> CostVolume:
    """Variance-based matching cost per (pixel, channel, plane), sources
    outer and planes inner, with a masked scatter into the accumulators."""
    h, w, c = ref_feat.shape
    k_ref, _, _ = ref_view.scaled(DOWNSAMPLE)
    m = planes.count
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    q = np.stack([uu, vv], axis=-1)  # (H, W, 2)

    acc = np.zeros((h, w, c, m))
    acc_sq = np.zeros((h, w, c, m))
    count = np.ones((h, w, m), dtype=np.int64)  # reference always contributes
    ref_sq = ref_feat * ref_feat
    acc += ref_feat[..., None]
    acc_sq += ref_sq[..., None]

    for feat, view in zip(src_feats, src_views):
        k_src, sw, sh = view.scaled(DOWNSAMPLE)
        rel = relative_pose(ref_view.pose, view.pose)
        for mi, depth in enumerate(planes.depths):
            uv, _, front = homography_warp(q, float(depth), k_ref, k_src, rel)
            ok = front & in_bounds(uv[..., 0], uv[..., 1], sw, sh)
            if not ok.any():
                continue
            sample = bilinear_sample(feat, uv[ok][:, 0], uv[ok][:, 1])
            acc[ok, :, mi] += sample
            acc_sq[ok, :, mi] += sample * sample
            count[ok, mi] += 1

    n = count[:, :, None, :].astype(np.float64)
    mean = acc / n
    var = np.maximum(acc_sq / n - mean * mean, 0.0)
    costs = np.where(count[:, :, None, :] >= 2, var, cost_penalty)
    return CostVolume(costs=costs, valid_views=count)


def _binomial_smooth(plane: np.ndarray) -> np.ndarray:
    p = np.pad(plane, 1, mode="symmetric")
    horiz = (p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]) * 0.25
    return (horiz[:-2] + 2.0 * horiz[1:-1] + horiz[2:]) * 0.25


def cost_to_probability(volume: CostVolume, temperature: float) -> np.ndarray:
    """Tempered softmax of the negated channel-mean costs, each depth slice
    smoothed on its own with the mirrored-border 3x3 binomial kernel."""
    score = -volume.costs.mean(axis=2)
    score = np.stack(
        [_binomial_smooth(score[:, :, mi]) for mi in range(score.shape[2])], axis=2
    )
    return softmax(score / temperature)
