"""Reference oracles for the plane sweep: the two-step plane warp, the
pixel-major cost volume with a masked scatter per (source, plane), the
bilinear sampler with 2-D fancy indexing, score smoothing one depth slice at
a time, and the closed-form sweep that keeps every channel's cost.

`homography_warp` maps reference pixels through a plane in two steps of its
own: the 3-D points where their rays meet the plane (`plane_points`), then
their pinhole projection into the source camera (`project_points`).  It
shares no code with the engine's closed-form `camera.plane_warp`.

Each source view is warped through every plane; the cells whose warp lands
in front of the source camera and inside its grid are gathered with a
boolean mask and added into `(H, W, C, M)` accumulators that start from the
reference descriptor.  It is slow, and serves only as the yardstick the
tests hold `mvsweep.costvol` against: to the bit for the view counts and
the probability smoothing, within fixed tolerances for the costs and the
samples, since the engine warps in closed form and samples from a
coefficient table.

`build_cost_volume_per_channel` is the engine's own closed-form sweep as it
was before it summed channels: it stores the (M, C, H*W) per-channel costs
and returns them as (H, W, C, M).  The engine's channel-mean costs must be
the bytes of its `costs.mean(axis=2)`.

`nearest_plane_index` maps depths to the closest sweep plane, the
quantization the depth tests compare a sweep against.

`block_mean` and `softmax` are the engine's own as they were before they
summed strided slices and worked in one array: numpy's mean over the block
axes of an (H/f, f, W/f, f, C) view, and a softmax that allocates the
shifted scores, their exponentials and the quotient.  The engine must give
their bytes (`block_mean`'s for two channels or more).  So must it give
those of `binomial_smooth_volume`, its score smoothing as it was before each
1-2-1 pass was formed in one array.
"""

from __future__ import annotations

import numpy as np

from mvsweep.camera import (
    CameraView,
    DOWNSAMPLE,
    EPS_Z,
    Intrinsics,
    Pose,
    in_bounds,
    relative_pose,
)
from mvsweep.costvol import (
    CostVolume,
    DepthPlanes,
    _bilinear_table,
    _sample_channels,
    _SampleBuffers,
    channel_major,
)


def nearest_plane_index(planes: DepthPlanes, depth) -> np.ndarray:
    """Index of the plane closest to each depth (ties to the lower index)."""
    d = np.asarray(depth, dtype=np.float64)
    return np.argmin(np.abs(d[..., None] - planes.depths), axis=-1)


def block_mean(image: np.ndarray, factor: int = DOWNSAMPLE) -> np.ndarray:
    """Mean-pool (H, W[, C]) over non-overlapping factor x factor blocks."""
    h, w = image.shape[:2]
    shape = (h // factor, factor, w // factor, factor) + image.shape[2:]
    return image.reshape(shape).mean(axis=(1, 3))


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its maximum for stability."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def plane_points(q, depth: float, k_ref: Intrinsics) -> np.ndarray:
    """Reference-frame points (..., 3) where the rays through reference-grid
    pixels q (..., 2) meet the fronto-parallel plane at the given depth."""
    if not depth > 0:
        raise ValueError(f"plane depth must be positive, got {depth}")
    x = (q[..., 0] - k_ref.cx) / k_ref.fx * depth
    y = (q[..., 1] - k_ref.cy) / k_ref.fy * depth
    return np.stack([x, y, np.full_like(x, depth)], axis=-1)


def project_points(points: np.ndarray, k: Intrinsics, pose: Pose):
    """Pinhole projection of points (..., 3) through `pose`, which maps their
    frame to the camera frame.  Returns (u, v, depth, in_front), each (...);
    u, v are finite but meaningless where depth <= EPS_Z."""
    rotated = points @ pose.rotation.T
    x, y, depth = (rotated[..., i] + pose.translation[i] for i in range(3))
    in_front = depth > EPS_Z
    safe = np.where(in_front, depth, 1.0)
    u = k.fx * x
    u += k.cx * depth
    u /= safe
    v = k.fy * y
    v += k.cy * depth
    v /= safe
    return u, v, depth, in_front


def homography_warp(q, depth: float, k_ref: Intrinsics, k_src: Intrinsics, rel: Pose):
    """Map reference-grid pixels q (..., 2) onto a source grid through the
    fronto-parallel plane at the given reference depth: plane_points, then
    project_points.  rel is the pose of the source camera relative to the
    reference camera.  Returns (uv (..., 2), src_depth (...), in_front (...));
    coordinates are NaN behind the source camera."""
    q = np.asarray(q, dtype=np.float64)
    u, v, d_src, in_front = project_points(plane_points(q, depth, k_ref), k_src, rel)
    uv = np.stack([np.where(in_front, u, np.nan), np.where(in_front, v, np.nan)], axis=-1)
    return uv, d_src, in_front


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


def build_cost_volume_per_channel(
    ref_feat: np.ndarray,
    ref_view: CameraView,
    src_feats: list[np.ndarray],
    src_views: list[CameraView],
    planes: DepthPlanes,
    cost_penalty: float = 10.0,
) -> CostVolume:
    """The closed-form, channel-major sweep with per-channel costs: each
    (plane, source) step warps as d a + b and samples one coefficient-table
    gather; each plane's (C, H*W) variance, penalty applied, is stored whole."""
    h, w, c = ref_feat.shape
    k_ref, _, _ = ref_view.scaled(DOWNSAMPLE)
    m = planes.count
    rays = np.ones((3, h, w))
    rays[0] = (np.arange(w, dtype=np.float64) - k_ref.cx) / k_ref.fx
    rays[1] = (np.arange(h, dtype=np.float64)[:, None] - k_ref.cy) / k_ref.fy
    rays = rays.reshape(3, h * w)
    ref = channel_major(ref_feat)
    ref0 = 0.0 + ref
    ref_sq0 = 0.0 + ref * ref
    sources = []
    for feat, view in zip(src_feats, src_views):
        k_src, sw, sh = view.scaled(DOWNSAMPLE)
        rel = relative_pose(ref_view.pose, view.pose)
        kk = np.array([[k_src.fx, 0.0, k_src.cx], [0.0, k_src.fy, k_src.cy], [0.0, 0.0, 1.0]])
        sources.append((_bilinear_table(feat), sw, sh, kk @ rel.rotation @ rays,
                        kk @ rel.translation))

    costs = np.empty((m, c, h * w))
    count = np.ones((m, h * w), dtype=np.int64)
    acc = np.empty((c, h * w))
    acc_sq = np.empty((c, h * w))
    hz = np.empty(h * w)
    u = np.empty(h * w)
    v = np.empty(h * w)
    ok = np.empty(h * w, dtype=bool)
    work = _SampleBuffers(c, h * w)
    for mi, depth in enumerate(planes.depths):
        np.copyto(acc, ref0)
        np.copyto(acc_sq, ref_sq0)
        n_views = count[mi]
        for table, sw, sh, a, b in sources:
            np.multiply(a[2], depth, out=hz)
            hz += b[2]
            np.greater(hz, EPS_Z, out=ok)
            for out, ai, bi in ((u, a[0], b[0]), (v, a[1], b[1])):
                np.multiply(ai, depth, out=out)
                out += bi
                np.divide(out, hz, out=out, where=ok)
            ok &= in_bounds(u, v, sw, sh)
            sample = _sample_channels(table, sh, sw, u, v, ok, work)
            acc += sample
            acc_sq += np.multiply(sample, sample, out=work.coeffs[:c])
            n_views += ok
        n = n_views.astype(np.float64)
        mean = np.divide(acc, n, out=acc)
        acc_sq /= n
        cost = costs[mi]
        np.subtract(acc_sq, np.multiply(mean, mean, out=mean), out=cost)
        np.maximum(cost, 0.0, out=cost)
        np.copyto(cost, cost_penalty, where=n_views < 2)
    return CostVolume(
        costs=costs.reshape(m, c, h, w).transpose(2, 3, 1, 0),
        valid_views=count.reshape(m, h, w).transpose(1, 2, 0),
    )


def binomial_smooth_volume(score: np.ndarray) -> np.ndarray:
    """The engine's own 3x3 binomial blur of every (H, W) slice of an
    (H, W, M) score as it was before it formed each pass in one array: every
    arithmetic step allocates its own result."""
    p = np.pad(score, ((1, 1), (1, 1), (0, 0)), mode="symmetric")
    horiz = (p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]) * 0.25
    return (horiz[:-2] + 2.0 * horiz[1:-1] + horiz[2:]) * 0.25


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
