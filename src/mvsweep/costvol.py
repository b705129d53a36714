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

from mvsweep.camera import CameraView, DOWNSAMPLE, homography_warp, in_bounds, relative_pose

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

    The four corners are gathered from the grid flattened to (H*W, C) at row
    `y*W + x`.  Non-finite coordinates are rejected.
    """
    bad = np.count_nonzero(~np.isfinite(u)) + np.count_nonzero(~np.isfinite(v))
    if bad:
        raise ValueError(f"{bad} sample coordinates are not finite")
    h, w = grid.shape[:2]
    flat = grid.reshape((h * w,) + grid.shape[2:])
    x = np.clip(u, 0.0, w - 1.0)
    y = np.clip(v, 0.0, h - 1.0)
    x0 = np.clip(np.floor(x).astype(np.int64), 0, w - 2) if w > 1 else np.zeros_like(x, np.int64)
    y0 = np.clip(np.floor(y).astype(np.int64), 0, h - 2) if h > 1 else np.zeros_like(y, np.int64)
    fx = (x - x0)[..., None]
    fy = (y - y0)[..., None]
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    g00 = flat.take(row0 + x0, axis=0)
    g10 = flat.take(row0 + x1, axis=0)
    g01 = flat.take(row1 + x0, axis=0)
    g11 = flat.take(row1 + x1, axis=0)
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
    """Variance-based matching cost per (pixel, channel, plane).

    For each reference cell and plane, gathers the reference descriptor plus
    the bilinearly warped source descriptors (views warped outside the source
    grid or behind its camera are excluded) and takes the per-channel
    population variance.  When fewer than 2 views survive, the cost is the
    penalty value.

    The sweep runs plane by plane.  Each plane keeps (H*W, C) sums of the
    descriptors and of their squares, starting from the reference, and an
    (H*W,) view count; every source is warped, sampled and added in source
    order, then the plane's variance and penalty are finished at once.  An
    excluded cell is sampled at coordinate 0 and its sample multiplied by 0:
    the sums are never -0.0, so adding that +-0.0 leaves them unchanged, and
    each cell receives the same adds in the same order as an accumulation
    over only the surviving views.  Costs are stored plane-major and
    returned as (H, W, C, M) and (H, W, M) views.
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
    ref = ref_feat.reshape(h * w, c)
    ref_sq = ref * ref
    sources = [
        (feat, view.scaled(DOWNSAMPLE), relative_pose(ref_view.pose, view.pose))
        for feat, view in zip(src_feats, src_views)
    ]

    costs = np.empty((m, h * w, c))
    count = np.ones((m, h * w), dtype=np.int64)  # reference always contributes
    for mi, depth in enumerate(planes.depths):
        acc = 0.0 + ref
        acc_sq = 0.0 + ref_sq
        n_views = count[mi]
        for feat, (k_src, sw, sh), rel in sources:
            uv, _, front = homography_warp(q, float(depth), k_ref, k_src, rel)
            u = uv[..., 0].reshape(-1)
            v = uv[..., 1].reshape(-1)
            ok = front.reshape(-1) & in_bounds(u, v, sw, sh)
            sample = bilinear_sample(feat, np.where(ok, u, 0.0), np.where(ok, v, 0.0))
            sample *= ok[:, None]
            acc += sample
            acc_sq += sample * sample
            n_views += ok
        n = n_views[:, None].astype(np.float64)
        mean = acc / n
        var = np.maximum(acc_sq / n - mean * mean, 0.0)
        costs[mi] = np.where(n_views[:, None] >= 2, var, cost_penalty)
    return CostVolume(
        costs=costs.reshape(m, h, w, c).transpose(1, 2, 3, 0),
        valid_views=count.reshape(m, h, w).transpose(1, 2, 0),
    )


def _binomial_smooth(score: np.ndarray) -> np.ndarray:
    """3x3 binomial blur of every (H, W) slice of an (H, W, M) score, with
    mirrored borders; the slice axis is not padded."""
    p = np.pad(score, ((1, 1), (1, 1), (0, 0)), mode="symmetric")
    horiz = (p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]) * 0.25
    return (horiz[:-2] + 2.0 * horiz[1:-1] + horiz[2:]) * 0.25


def cost_to_probability(
    volume: CostVolume, temperature: float, smooth: bool = True
) -> np.ndarray:
    """(H, W, M) per-pixel categorical distribution over depth planes.

    Scores are the negated channel-mean costs, optionally smoothed per depth
    slice with a 3x3 binomial kernel (mirrored borders), then passed through
    a tempered softmax.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    score = -volume.costs.mean(axis=2)  # (H, W, M)
    if smooth:
        score = _binomial_smooth(score)
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
