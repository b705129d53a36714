"""Plane-sweep cost volumes over deterministic image descriptors, reduced to
per-pixel depth probability distributions and regressed depth.

The descriptor grid lives at 1/4 image resolution with 6 channels:
mean R/G/B over each 4x4 patch, Sobel-x and Sobel-y of the pooled luminance
(kernel scaled by 1/8 so responses stay in [-1, 1]), and the luminance
standard deviation over the 3x3 pooled neighborhood.  Borders mirror the edge
row/column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvsweep.camera import (
    CameraView,
    DOWNSAMPLE,
    in_bounds,
    plane_points,
    project_points,
    relative_pose,
)

FEATURE_CHANNELS = 6

_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class DepthPlanes:
    """Uniformly spaced fronto-parallel sweep depths d_1 < ... < d_M."""

    depths: np.ndarray  # (M,)

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=np.float64).reshape(-1)
        if d.size < 2:
            raise ValueError("need at least 2 depth planes")
        steps = np.diff(d)
        if not np.all(steps > 0):
            raise ValueError("plane depths must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("plane spacing must be uniform")
        if d[0] <= 0:
            raise ValueError("plane depths must be positive")
        object.__setattr__(self, "depths", d)

    @classmethod
    def uniform(cls, count: int, near: float, far: float) -> "DepthPlanes":
        return cls(np.linspace(near, far, count))

    @property
    def count(self) -> int:
        return self.depths.size

    @property
    def spacing(self) -> float:
        return float(self.depths[1] - self.depths[0])

    def nearest_index(self, depth) -> np.ndarray:
        """Index of the plane closest to each depth (ties to the lower index)."""
        d = np.asarray(depth, dtype=np.float64)
        return np.argmin(np.abs(d[..., None] - self.depths), axis=-1)


@dataclass
class CostVolume:
    """Per-channel descriptor variance per (pixel, plane), plus the number of
    views whose warp landed inside the source grid (reference included)."""

    costs: np.ndarray  # (H, W, C, M)
    valid_views: np.ndarray  # (H, W, M) int


def block_mean(image: np.ndarray, factor: int = DOWNSAMPLE) -> np.ndarray:
    """Mean-pool (H, W[, C]) over non-overlapping factor x factor blocks."""
    h, w = image.shape[:2]
    if h % factor or w % factor:
        raise ValueError(f"image dimensions {h}x{w} not divisible by {factor}")
    shape = (h // factor, factor, w // factor, factor) + image.shape[2:]
    return image.reshape(shape).mean(axis=(1, 3))


def _sobel(lum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.pad(lum, 1, mode="symmetric")
    # Separable [1, 2, 1] x [-1, 0, 1], scaled so |response| <= max|lum|.
    smooth_y = p[:-2] + 2.0 * p[1:-1] + p[2:]
    gx = (smooth_y[:, 2:] - smooth_y[:, :-2]) / 8.0
    smooth_x = p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]
    gy = (smooth_x[2:] - smooth_x[:-2]) / 8.0
    return gx, gy


def _local_std(lum: np.ndarray) -> np.ndarray:
    p = np.pad(lum, 1, mode="symmetric")
    windows = [
        p[dr : dr + lum.shape[0], dc : dc + lum.shape[1]]
        for dr in range(3)
        for dc in range(3)
    ]
    mean = sum(windows) / 9.0
    # Two-pass variance: exact zero on constant neighborhoods.
    var = sum((w - mean) ** 2 for w in windows) / 9.0
    return np.sqrt(var)


def extract_features(image: np.ndarray) -> np.ndarray:
    """Quarter-resolution 6-channel descriptor grid for an (H, W, 3) image."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
    pooled = block_mean(image)  # (H/4, W/4, 3)
    lum = pooled @ _LUMA
    gx, gy = _sobel(lum)
    std = _local_std(lum)
    return np.concatenate([pooled, gx[..., None], gy[..., None], std[..., None]], axis=2)


def bilinear_sample(grid: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear lookup of an (H, W, C) grid at continuous pixel coordinates,
    clamping to the edge so the half-pixel boundary band stays usable.

    The entry point of `_sample_channels` for an (H, W, C) grid: returns
    u.shape + (C,).  Non-finite coordinates are rejected.
    """
    bad = np.count_nonzero(~np.isfinite(u)) + np.count_nonzero(~np.isfinite(v))
    if bad:
        raise ValueError(f"{bad} sample coordinates are not finite")
    h, w, c = grid.shape
    u, v = np.broadcast_arrays(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64))
    corners = np.empty((4, c, u.size))
    sample = _sample_channels(channel_major(grid), h, w, u.ravel(), v.ravel(), corners)
    return sample.T.reshape(u.shape + (c,))


def channel_major(grid: np.ndarray) -> np.ndarray:
    """An (H, W, C) grid as a contiguous channel-major (C, H*W) array."""
    return np.ascontiguousarray(grid.reshape(-1, grid.shape[-1]).T)


def _sample_channels(flat, h: int, w: int, u, v, corners) -> np.ndarray:
    """Bilinear lookup of a (C, H*W) channel-major grid at N finite pixel
    coordinates u, v, clamped to the edge; returns corners[3] holding the
    (C, N) samples.

    The four corners are gathered into corners (4, C, N) from column
    `y*W + x` and blended in place: the top edge into corners[1], the bottom
    edge and then the sample into corners[3].
    """
    x = np.clip(u, 0.0, w - 1.0)
    y = np.clip(v, 0.0, h - 1.0)
    # floor(x) >= 0, so clamping the cell into the grid needs only the upper
    # bound (a one-wide or one-high grid has one cell, at 0).
    x0 = np.minimum(np.floor(x).astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(np.floor(y).astype(np.int64), max(h - 2, 0))
    fx = x - x0
    fy = y - y0
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    g00, g10, g01, g11 = corners
    # Every index is in range; mode="clip" only spares take() its buffering.
    flat.take(row0 + x0, axis=1, out=g00, mode="clip")
    flat.take(row0 + x1, axis=1, out=g10, mode="clip")
    flat.take(row1 + x0, axis=1, out=g01, mode="clip")
    flat.take(row1 + x1, axis=1, out=g11, mode="clip")
    # top = g00 + (g10 - g00) * fx, bot likewise, sample = top + (bot - top) * fy
    g10 -= g00
    g10 *= fx
    g10 += g00
    g11 -= g01
    g11 *= fx
    g11 += g01
    g11 -= g10
    g11 *= fy
    g11 += g10
    return g11


def build_cost_volume(
    ref_feat: np.ndarray,
    ref_view: CameraView,
    src_feats: list[np.ndarray],
    src_views: list[CameraView],
    planes: DepthPlanes,
    cost_penalty: float = 10.0,
) -> CostVolume:
    """Variance-based matching cost per (pixel, channel, plane).

    For each reference cell and plane, gathers the reference descriptor plus
    the bilinearly warped source descriptors (views warped outside the source
    grid or behind its camera are excluded) and takes the per-channel
    population variance.  When fewer than 2 views survive, the cost is the
    penalty value.

    The sweep runs plane by plane and is channel-major: descriptors, sums
    and corner gathers are (C, H*W), so per-cell factors (bilinear weights,
    the in-bounds mask, the view count) broadcast along the long axis.  The
    work buffers are allocated once per call and every step writes into
    them.  Each plane's reference-frame points are built once; every source
    projects them, is sampled and added in source order into the (C, H*W)
    sums of the descriptors and of their squares, which start from the
    reference, and into an (H*W,) view count; then the plane's variance and
    penalty are finished at once.  An excluded cell is sampled at coordinate
    0 and its sample multiplied by 0: the sums are never -0.0, so adding
    that +-0.0 leaves them unchanged, and each cell receives the same adds
    in the same order as an accumulation over only the surviving views.
    Costs are stored (M, C, H*W) and returned as (H, W, C, M) and (H, W, M)
    views.
    """
    if not src_feats:
        raise ValueError("need at least one source view")
    if len(src_feats) != len(src_views):
        raise ValueError("feature/view count mismatch")
    h, w, c = ref_feat.shape
    k_ref, gw, gh = ref_view.scaled(DOWNSAMPLE)
    if (gh, gw) != (h, w):
        raise ValueError("reference feature grid does not match the view size")

    m = planes.count
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    q = np.stack([uu, vv], axis=-1)  # (H, W, 2)
    ref = channel_major(ref_feat)
    # 0.0 + x turns -0.0 into +0.0, so the sums start, and stay, free of -0.0.
    ref0 = 0.0 + ref
    ref_sq0 = 0.0 + ref * ref
    sources = [
        (channel_major(feat), feat.shape[:2], view.scaled(DOWNSAMPLE),
         relative_pose(ref_view.pose, view.pose))
        for feat, view in zip(src_feats, src_views)
    ]
    for i, (_, shape, (_, sw, sh), _) in enumerate(sources):
        if shape != (sh, sw):
            raise ValueError(
                f"source {i}: feature grid {shape[0]}x{shape[1]} does not match "
                f"the view's {sh}x{sw} quarter grid"
            )

    costs = np.empty((m, c, h * w))
    count = np.ones((m, h * w), dtype=np.int64)  # reference always contributes
    acc = np.empty((c, h * w))
    acc_sq = np.empty((c, h * w))
    corners = np.empty((4, c, h * w))
    for mi, depth in enumerate(planes.depths):
        pts = plane_points(q, float(depth), k_ref)
        np.copyto(acc, ref0)
        np.copyto(acc_sq, ref_sq0)
        n_views = count[mi]
        for flat, (fh, fw), (k_src, sw, sh), rel in sources:
            u, v, _, front = project_points(pts, k_src, rel)
            u = u.reshape(-1)
            v = v.reshape(-1)
            ok = front.reshape(-1) & in_bounds(u, v, sw, sh)
            sample = _sample_channels(
                flat, fh, fw, np.where(ok, u, 0.0), np.where(ok, v, 0.0), corners
            )
            sample *= ok
            acc += sample
            square = np.multiply(sample, sample, out=corners[0])
            acc_sq += square
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


def _binomial_smooth(score: np.ndarray) -> np.ndarray:
    """3x3 binomial blur of every (H, W) slice of an (H, W, M) score, with
    mirrored borders; the slice axis is not padded."""
    p = np.pad(score, ((1, 1), (1, 1), (0, 0)), mode="symmetric")
    horiz = (p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]) * 0.25
    return (horiz[:-2] + 2.0 * horiz[1:-1] + horiz[2:]) * 0.25


def cost_to_probability(volume: CostVolume, temperature: float) -> np.ndarray:
    """(H, W, M) per-pixel categorical distribution over depth planes.

    Scores are the negated channel-mean costs, smoothed per depth slice with
    a 3x3 binomial kernel (mirrored borders), then passed through a tempered
    softmax.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    score = _binomial_smooth(-volume.costs.mean(axis=2))  # (H, W, M)
    return softmax(score / temperature)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its maximum for stability."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def regress_depth(probs: np.ndarray, planes: DepthPlanes) -> np.ndarray:
    """Probability-weighted mean of the plane depths: (H, W)."""
    if probs.shape[-1] != planes.count:
        raise ValueError("probability volume / plane count mismatch")
    return probs @ planes.depths


@dataclass(frozen=True)
class DepthMetrics:
    rmse: float
    abs_rel: float


def eval_depth(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> DepthMetrics:
    """RMSE and mean absolute relative error over the masked pixels."""
    if pred.shape != gt.shape or pred.shape != mask.shape:
        raise ValueError("shape mismatch between prediction, ground truth and mask")
    if not mask.any():
        raise ValueError("empty evaluation mask")
    err = pred[mask] - gt[mask]
    rmse = float(np.sqrt(np.mean(err * err)))
    abs_rel = float(np.mean(np.abs(err) / gt[mask]))
    return DepthMetrics(rmse=rmse, abs_rel=abs_rel)
