"""Probabilistic top-k depth proposals and depth-gated, confidence-weighted
aggregation of pixel features into a world-space voxel grid.

Per pixel, the k most likely sweep planes become depth proposals carrying
renormalized confidences.  A voxel only receives a pixel's feature when its
camera depth falls within a window of one of that pixel's proposals; the
feature is scaled by the matched confidence, and the per-voxel mean of the
matched confidences becomes a surface score that multiplies the aggregated
feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mvsweep.camera import DOWNSAMPLE, EPS_Z, nearest_pixel
from mvsweep.costvol import DepthPlanes, channel_major, require_finite

# Guards the confidence-normalized division when every matched confidence is
# numerically negligible.
_WEIGHT_EPS = 1e-12

# Each view culls voxels in cubes of this many per side before projecting.
_CUBE = 4


@dataclass(frozen=True)
class VoxelGridSpec:
    """Axis-aligned voxel lattice: dims cells of size pitch, min corner at
    origin; cell centers at origin + (index + 0.5) * pitch."""

    dims: tuple[int, int, int]
    origin: tuple[float, float, float]
    pitch: tuple[float, float, float]

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValueError("grid dims must be positive")
        if any(p <= 0 for p in self.pitch):
            raise ValueError("voxel pitch must be positive")

    @property
    def n_voxels(self) -> int:
        return math.prod(self.dims)

    def centers(self) -> np.ndarray:
        """(nx, ny, nz, 3) world coordinates of all cell centers."""
        ax = [np.asarray(o) + (np.arange(d) + 0.5) * p
              for o, d, p in zip(self.origin, self.dims, self.pitch)]
        return np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)


@dataclass
class DepthProposalSet:
    """Per quarter-res pixel: k proposal plane indices, their depths, and
    renormalized confidence scores summing to 1."""

    plane_indices: np.ndarray  # (H, W, k) int
    depths: np.ndarray  # (H, W, k) meters
    scores: np.ndarray  # (H, W, k), positive, sums to 1 per pixel


def sample_topk(probs: np.ndarray, planes: DepthPlanes, k: int) -> DepthProposalSet:
    """Per pixel, the k most probable planes with renormalized scores.

    Proposals are ordered by descending probability; equal probabilities keep
    the lower plane index first.  k passes over a plane-major copy select
    them: each takes every pixel's maximum over the planes, picks the lowest
    plane that reaches it and sets that entry to -inf.  On the finite,
    non-negative probabilities admitted here, that is a stable descending
    sort's first k.  A NaN, infinite or negative probability, or a pixel with
    no positive one, is a ValueError.  If a pixel has fewer than k positive
    planes, the padded selections carry zero score.  Each returned array
    holds its own H*W*k entries.
    """
    m = probs.shape[-1]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} must be in [1, {m}]")
    if m != planes.count:
        raise ValueError("probability volume / plane count mismatch")
    bad = probs.size - np.count_nonzero((probs >= 0) & (probs < np.inf))
    if bad:
        raise ValueError(f"{bad} probabilities are NaN, infinite or negative")
    work = probs.reshape(-1, m).T.copy()  # (M, N), plane-major
    # m - plane, in the narrowest unsigned type: the lowest plane at the maximum leads
    lead = (m - np.arange(m, dtype=np.min_scalar_type(m)))[:, None]
    cells = np.arange(work.shape[1])
    idx = np.empty(probs.shape[:-1] + (k,), dtype=np.intp)
    for j in range(k):
        pick = m - ((work == work.max(axis=0)) * lead).max(axis=0)
        idx.reshape(-1, k)[:, j] = pick
        work[pick, cells] = -np.inf
    picked = np.take_along_axis(probs, idx, axis=-1)
    empty = np.count_nonzero(picked[..., 0] <= 0)  # the first pick is the pixel's maximum
    if empty:
        raise ValueError(f"{empty} pixels have no positive probability")
    scores = picked / picked.sum(axis=-1, keepdims=True)
    return DepthProposalSet(plane_indices=idx, depths=planes.depths[idx], scores=scores)


@dataclass
class VoxelGrid:
    """Aggregated multi-view features on a voxel lattice.

    feature_mean is the confidence-weighted mean of matched pixel features,
    and score the mean matched confidence over gated views (0 in free
    space), the surface score that weights it.  valid_count is the number of
    views whose projection was gated in (None for grids restored from disk,
    where it is not stored).
    """

    spec: VoxelGridSpec
    feature_mean: np.ndarray  # (nx, ny, nz, C)
    score: np.ndarray  # (nx, ny, nz)
    valid_count: np.ndarray | None  # (nx, ny, nz) int


def _match_proposals(depth: np.ndarray, prop_d: np.ndarray, prop_s: np.ndarray, window: float):
    """Match each voxel's camera depth against its pixel's depth proposals.

    depth: (N,), prop_d/prop_s: (k, N).  Returns (gate (N,) bool, score (N,)):
    the nearest proposal wins -- ties prefer the higher score, then the
    earlier proposal -- and gates the voxel in when it lies within the
    window (inclusive), with its score as the matched confidence.
    """
    dist = np.abs(depth - prop_d)
    best_dist = dist[0].copy()
    best_score = prop_s[0].copy()
    for j in range(1, dist.shape[0]):
        better = (dist[j] < best_dist) | ((dist[j] == best_dist) & (prop_s[j] > best_score))
        best_dist = np.where(better, dist[j], best_dist)
        best_score = np.where(better, prop_s[j], best_score)
    gate = best_dist <= window
    return gate, np.where(gate, best_score, 0.0)


def _cubes(grid: np.ndarray):
    """The (nx, ny, nz, 3) voxel centres cut into cubes of _CUBE^3: the lowest
    and the highest centre of each cube, (B, 3) in C order of the cubes, and
    each voxel's cube, (N,) in C order of the voxels."""
    starts = [np.arange(0, d, _CUBE) for d in grid.shape[:3]]
    lo = grid[np.ix_(*starts)]
    hi = grid[np.ix_(*(np.minimum(s + _CUBE - 1, d - 1) for s, d in zip(starts, grid.shape)))]
    i, j, l = (np.arange(d) // _CUBE for d in grid.shape[:3])
    cube_of = (i[:, None, None] * lo.shape[1] + j[:, None]) * lo.shape[2] + l
    return lo.reshape(-1, 3), hi.reshape(-1, 3), cube_of.reshape(-1)


def _may_see(lo: np.ndarray, hi: np.ndarray, view) -> np.ndarray:
    """Whether each box from corner lo to corner hi may hold a point that
    projects into the view's feature grid.

    A point is in that frustum iff its camera coordinates x = (x, y, z) have
    z > EPS_Z and g . x >= 0 for one row g per grid bound: u >= -0.5 is
    fx x + (cx + 0.5) z >= 0, and so on.  Each of these five tests is linear
    in the world point.  A box is out only if one test's maximum over it
    falls short by far more than the rounding of the projection.
    """
    k, gw, gh = view.scaled(DOWNSAMPLE)
    r, t = view.pose.rotation, view.pose.translation
    g = np.array([[0.0, 0.0, 1.0], [k.fx, 0.0, k.cx + 0.5], [-k.fx, 0.0, gw - 0.5 - k.cx],
                  [0.0, k.fy, k.cy + 0.5], [0.0, -k.fy, gh - 0.5 - k.cy]])
    n = g @ r  # the rows in world coordinates
    reach = np.maximum(lo[:, None] * n, hi[:, None] * n).sum(-1) + g @ t - [EPS_Z, 0, 0, 0, 0]
    scale = np.maximum(abs(lo), abs(hi)) @ (abs(g) @ abs(r)).T + abs(g) @ abs(t) + EPS_Z
    return np.all(reach >= -1e-9 * scale, axis=1)


def build_volume(items, spec: VoxelGridSpec, window: float) -> VoxelGrid:
    """Depth-aware voxel aggregation over (feature map, view, proposals).

    Per voxel center and view (in list order): project at feature scale,
    fetch the nearest-neighbor pixel's feature and proposals, and gate on the
    voxel's camera depth.  Gated features, scaled by matched confidence, are
    averaged with confidence normalization; the surface score is the plain
    mean of matched confidences.

    Each view works only on the voxels that project into its frustum and
    adds into theirs alone.  This is byte-identical to adding over every
    voxel: a voxel outside would add +0.0 or -0.0, and the sums start at
    +0.0 and never become -0.0, since x + (-x) is +0.0.  A non-finite
    feature would break that (0 * inf is NaN), so it is a ValueError naming
    the view.  Before projecting, each view culls the _CUBE^3 cubes of
    voxels whose box lies outside its frustum (`_may_see`); their voxels
    would fail the projection's bounds test anyway.

    Features, proposals and the feature sums are channel-major (C, N), so
    per-voxel factors broadcast along the long axis.  feature_mean is
    returned as an (nx, ny, nz, C) view of the channel-major result.
    """
    if not items:
        raise ValueError("need at least one view")
    if not window > 0:
        raise ValueError("window must be positive")
    grid = spec.centers()
    lo, hi, cube_of = _cubes(grid)
    centers = grid.reshape(-1, 3)
    n = centers.shape[0]
    c = items[0][0].shape[-1]
    num = np.zeros((c, n))
    weight_sum = np.zeros(n)
    gate_sum = np.zeros(n, dtype=np.int64)

    for i, (feat, view, proposals) in enumerate(items):
        _, gw, gh = view.scaled(DOWNSAMPLE)
        if feat.shape[:2] != (gh, gw) or proposals.depths.shape[:2] != (gh, gw):
            raise ValueError(f"view {i}: feature map {feat.shape} and proposals "
                             f"{proposals.depths.shape} must be {gh}x{gw}")
        require_finite(feat, f"view {i}: feature map")
        near = _may_see(lo, hi, view)[cube_of]
        # numpy rotates a lone point through another path than several, whose
        # last bit can differ, so at least two centres are projected.
        near[:2] = True
        cand = np.flatnonzero(near)
        valid, rows, cols, depth = nearest_pixel(centers.take(cand, axis=0), view, DOWNSAMPLE)
        vis = cand[valid]
        if not vis.size:
            continue
        pixel = rows[valid] * gw + cols[valid]
        prop_d = channel_major(proposals.depths).take(pixel, axis=1)  # (k, V)
        prop_s = channel_major(proposals.scores).take(pixel, axis=1)
        gate, score = _match_proposals(depth[valid], prop_d, prop_s, window)
        # num += score * feature, per channel; the score is +0.0 where the
        # gate is shut, and the product then +-0.0, which adds nothing
        gathered = channel_major(feat).take(pixel, axis=1)
        gathered *= score
        num[:, vis] += gathered
        weight_sum[vis] += score
        gate_sum[vis] += gate

    weighted = weight_sum > _WEIGHT_EPS
    # feature_mean, formed in place in num: num / weight_sum, or +0.0
    num /= np.where(weighted, weight_sum, 1.0)
    np.copyto(num, 0.0, where=~weighted)
    score = np.where(gate_sum > 0, weight_sum / np.maximum(gate_sum, 1), 0.0)
    dims = grid.shape[:3]
    return VoxelGrid(spec, num.T.reshape(*dims, c), score.reshape(dims), gate_sum.reshape(dims))

