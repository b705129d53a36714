"""Plane-sweep cost volumes over deterministic image descriptors, reduced to
per-pixel depth probability distributions and regressed depth.

The descriptor grid lives at 1/4 image resolution with 6 channels:
mean R/G/B over each 4x4 patch, Sobel-x and Sobel-y of the pooled luminance
(kernel scaled by 1/8 so responses stay in [-1, 1]), and the luminance
standard deviation over the 3x3 pooled neighborhood.  Borders mirror the edge
row/column.

The sweep warps each reference cell through a fronto-parallel plane at depth
d in closed form: its homogeneous source coordinates are d a + b, with a and
b fixed per source (the plane-induced homography).  Bilinear samples come
from a per-grid coefficient table, one gather per (plane, source) step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvsweep.camera import (CameraView, DOWNSAMPLE, in_bounds, plane_warp, plane_warp_terms,
                            relative_pose)

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


@dataclass
class CostVolume:
    """Channel-mean descriptor variance per (pixel, plane), plus the number
    of views whose warp landed inside the source grid (reference included)."""

    costs: np.ndarray  # (H, W, M)
    valid_views: np.ndarray  # (H, W, M) int


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise a ValueError that names `what` and counts its non-finite values,
    if it has any."""
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise ValueError(f"{what} has {bad} non-finite values")


def block_mean(image: np.ndarray) -> np.ndarray:
    """Mean-pool (H, W[, C]) over non-overlapping DOWNSAMPLE x DOWNSAMPLE
    blocks, onto the quarter-res feature grid.

    The strided slices image[a::4, b::4] are added in (a, b) order and the
    sum is divided once: numpy's own order in a mean over the block axes of
    an (H, W, C) grid with C >= 2, so those bytes are numpy's.  A 2-D or
    one-channel grid, which numpy sums in another order, agrees with that
    mean to within rounding.
    """
    f = DOWNSAMPLE
    h, w = image.shape[:2]
    if h % f or w % f:
        raise ValueError(f"image dimensions {h}x{w} not divisible by {f}")
    total = image[::f, ::f].astype(np.float64)
    for i in range(1, f * f):
        total += image[i // f :: f, i % f :: f]
    total /= f * f
    return total


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


def channel_major(grid: np.ndarray) -> np.ndarray:
    """An (H, W, C) grid as a contiguous channel-major (C, H*W) array."""
    return np.ascontiguousarray(grid.reshape(-1, grid.shape[-1]).T)


def _bilinear_table(grid: np.ndarray) -> np.ndarray:
    """The (4C, H*W + 1) bilinear coefficient table of an (H, W, C) grid.

    Column y*W + x describes the edge-clamped cell with corners g00 at
    (y, x), g10 one column right, g01 one row down and g11 diagonal to it:
    its rows hold g00, g10 - g00, g01 - g00 and (g11 - g01) - (g10 - g00),
    C channels each, so the sample at fractions fx, fy in that cell is
    A + fx B + fy (C + fx D).  The last column is all zero.
    """
    h, w, c = grid.shape
    g = grid.transpose(2, 0, 1)  # (C, H, W)
    table = np.zeros((4, c, h * w + 1))
    # Splitting the last axis of the first H*W columns needs no copy, so
    # `cells` writes into `table`; a clamped corner leaves its difference 0.
    cells = table[:, :, : h * w].reshape(4, c, h, w)
    cells[0] = g
    np.subtract(g[:, :, 1:], g[:, :, :-1], out=cells[1, :, :, :-1])
    np.subtract(g[:, 1:], g[:, :-1], out=cells[2, :, :-1])
    np.subtract(cells[2, :, :, 1:], cells[2, :, :, :-1], out=cells[3, :, :, :-1])
    return table.reshape(4 * c, h * w + 1)


class _SampleBuffers:
    """Work buffers of `_sample_channels` for N samples of C channels."""

    def __init__(self, c: int, n: int):
        self.coeffs = np.empty((4 * c, n))  # the gathered table columns
        self.x = np.empty(n)  # clamped coordinates, then bilinear fractions
        self.y = np.empty(n)
        self.x0 = np.empty(n)  # cell corners; y0 then the cell's column
        self.y0 = np.empty(n)
        self.col = np.empty(n, dtype=np.int64)
        self.off = np.empty(n, dtype=bool)


def _sample_channels(table, h: int, w: int, u, v, ok, work: _SampleBuffers) -> np.ndarray:
    """Bilinear lookup of an (H, W, C) grid, given as its `_bilinear_table`,
    at N pixel coordinates u, v clamped to the edge; returns the (C, N)
    samples, a view into work.coeffs.

    Where `ok` is False, u and v are replaced by 0 before the integer cast
    and the sample reads the table's zero column, so it is exactly +0.0.
    One gather takes the four coefficient rows of every sample into
    work.coeffs, where they are blended in place.
    """
    x, y, x0, y0, off = work.x, work.y, work.x0, work.y0, work.off
    np.logical_not(ok, out=off)
    for coord, corner, src, top in ((x, x0, u, w - 1.0), (y, y0, v, h - 1.0)):
        np.clip(src, 0.0, top, out=coord)
        np.copyto(coord, 0.0, where=off)
        np.floor(coord, out=corner)
        coord -= corner
    # A coordinate on the last row or column keeps its cell there: that
    # cell's clamped corners repeat it, so its differences are 0 and the
    # sample is the edge value itself.
    y0 *= w
    y0 += x0  # the cell's column, exact: every value is an integer below 2**53
    np.copyto(y0, h * w, where=off)
    work.col[:] = y0
    # Every index is in range; mode="clip" only spares take() its buffering.
    table.take(work.col, axis=1, out=work.coeffs, mode="clip")
    a, b, c, d = work.coeffs.reshape(4, -1, x.size)
    # sample = (A + fx B) + fy (C + fx D), formed in place in b
    d *= x
    d += c
    d *= y
    b *= x
    b += a
    b += d
    return b


def build_cost_volume(
    ref_feat: np.ndarray,
    ref_view: CameraView,
    src_feats: list[np.ndarray],
    src_views: list[CameraView],
    planes: DepthPlanes,
    cost_penalty: float,
) -> CostVolume:
    """Variance-based matching cost per (pixel, plane), averaged over channels.

    For each reference cell and plane, gathers the reference descriptor plus
    the bilinearly warped source descriptors (views warped outside the source
    grid or behind its camera are excluded) and takes the per-channel
    population variance.  When fewer than 2 views survive, each channel's
    cost is the penalty value.  The cost is the mean of the channel costs.
    A non-finite descriptor is a ValueError naming its grid.

    The warp is the camera module's plane-induced homography in closed form:
    `plane_warp_terms` gives a (3, H*W) and b once per source, and each
    (plane, source) step is one `plane_warp` (hz = d a2 + b2, the front test,
    u, v = (d a + b) / hz), the grid's band test, and one gather from the
    source's bilinear coefficient table.

    The sweep runs plane by plane and is channel-major: descriptors, sums
    and coefficient gathers are (C, H*W), so per-cell factors (bilinear
    fractions, the view count) broadcast along the long axis.  The work
    buffers are allocated once per call and every step writes into them.
    Each source is sampled and added in source order into the (C, H*W) sums
    of the descriptors and of their squares, which start from the reference,
    and into an (H*W,) view count; then the plane's variance and penalty are
    finished at once.  An excluded cell samples the table's zero column: the
    sums are never -0.0, so adding that +0.0 leaves them unchanged, and each
    cell receives the same adds in the same order as an accumulation over
    only the surviving views.  The plane's C channel costs are then added
    in channel order into its (H*W,) row of an (M, H*W) cost, which is
    divided by C once at the end: the bytes of a per-channel volume's
    `mean(axis=2)`, without holding it.  Costs and view counts are returned
    as (H, W, M) views.
    """
    if not src_feats:
        raise ValueError("need at least one source view")
    if len(src_feats) != len(src_views):
        raise ValueError("feature/view count mismatch")
    h, w, c = ref_feat.shape
    k_ref, gw, gh = ref_view.scaled(DOWNSAMPLE)
    if (gh, gw) != (h, w):
        raise ValueError(f"reference feature grid {h}x{w} is not the view's {gh}x{gw} quarter grid")
    require_finite(ref_feat, "reference feature grid")

    m = planes.count
    cols = np.arange(w, dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)[:, None]
    ref = channel_major(ref_feat)
    # 0.0 + x turns -0.0 into +0.0, so the sums start, and stay, free of -0.0.
    ref0 = 0.0 + ref
    ref_sq0 = 0.0 + ref * ref
    sources = []
    for i, (feat, view) in enumerate(zip(src_feats, src_views)):
        k_src, sw, sh = view.scaled(DOWNSAMPLE)
        if feat.shape[:2] != (sh, sw):
            raise ValueError(
                f"source {i}: feature grid {feat.shape[0]}x{feat.shape[1]} does not match "
                f"the view's {sh}x{sw} quarter grid"
            )
        if feat.shape[2:] != (c,):
            raise ValueError(
                f"source {i}: feature grid {feat.shape} does not have the reference's {c} channels"
            )
        require_finite(feat, f"source {i}: feature grid")
        rel = relative_pose(ref_view.pose, view.pose)
        sources.append((_bilinear_table(feat), sw, sh,
                        *plane_warp_terms(cols, rows, k_ref, k_src, rel)))

    costs = np.empty((m, h * w))
    count = np.ones((m, h * w), dtype=np.int64)  # reference always contributes
    acc = np.empty((c, h * w))
    acc_sq = np.empty((c, h * w))
    hz = np.empty(h * w)
    u = np.empty(h * w)
    v = np.empty(h * w)
    ok = np.empty(h * w, dtype=bool)
    work = _SampleBuffers(c, h * w)
    for mi, depth in enumerate(planes.depths):
        n_views = count[mi]
        s, s_sq = ref0, ref_sq0  # the first source's adds start from the reference
        for table, sw, sh, a, b in sources:
            plane_warp(a, b, depth, hz, u, v, ok)
            ok &= in_bounds(u, v, sw, sh)
            sample = _sample_channels(table, sh, sw, u, v, ok, work)
            s = np.add(s, sample, out=acc)
            s_sq = np.add(s_sq, np.multiply(sample, sample, out=work.coeffs[:c]), out=acc_sq)
            n_views += ok
        n = n_views.astype(np.float64)
        mean = np.divide(acc, n, out=acc)
        acc_sq /= n
        var = np.subtract(acc_sq, np.multiply(mean, mean, out=mean), out=acc_sq)
        np.maximum(var, 0.0, out=var)
        np.copyto(var, cost_penalty, where=n_views < 2)
        np.add.reduce(var, axis=0, out=costs[mi])
    costs /= c
    return CostVolume(
        costs=costs.reshape(m, h, w).transpose(1, 2, 0),
        valid_views=count.reshape(m, h, w).transpose(1, 2, 0),
    )


def _binomial_smooth(score: np.ndarray) -> np.ndarray:
    """3x3 binomial blur of every (H, W) slice of an (H, W, M) score, with
    mirrored borders; the slice axis is not padded.

    A horizontal then a vertical 1-2-1 pass, each formed in one new array
    as 2 b, plus a, plus c, times 0.25: the operations of
    `(a + 2.0 * b + c) * 0.25` in their order, since 2 b + a is a + 2 b to
    the bit.
    """
    p = np.pad(score, ((1, 1), (1, 1), (0, 0)), mode="symmetric")
    for axis in (1, 0):
        a, b, c = (p[(slice(None),) * axis + (slice(i, p.shape[axis] - 2 + i),)] for i in range(3))
        p = np.multiply(b, 2.0)
        p += a
        p += c
        p *= 0.25
    return p


def cost_to_probability(volume: CostVolume, temperature: float) -> np.ndarray:
    """(H, W, M) per-pixel categorical distribution over depth planes.

    Scores are the negated (channel-mean) costs, smoothed per depth slice
    with a 3x3 binomial kernel (mirrored borders), then passed through a
    tempered softmax.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    score = _binomial_smooth(-volume.costs)  # (H, W, M)
    return softmax(np.divide(score, temperature, out=score))


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its maximum for stability."""
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
