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

from dataclasses import dataclass

import numpy as np

from mvsweep.camera import DOWNSAMPLE, nearest_pixel
from mvsweep.costvol import DepthPlanes, channel_major

# Guards the confidence-normalized division when every matched confidence is
# numerically negligible.
_WEIGHT_EPS = 1e-12


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
        nx, ny, nz = self.dims
        return nx * ny * nz

    def centers(self) -> np.ndarray:
        """(nx, ny, nz, 3) world coordinates of all cell centers."""
        nx, ny, nz = self.dims
        ax = [
            np.asarray(self.origin[a]) + (np.arange(self.dims[a]) + 0.5) * self.pitch[a]
            for a in range(3)
        ]
        gx, gy, gz = np.meshgrid(ax[0], ax[1], ax[2], indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)


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
    the lower plane index first (stable selection).  Softmax-produced volumes
    are strictly positive, so scores are too; if a degenerate input has fewer
    than k nonzero planes, the padded selections carry zero score.  Each
    returned array holds its own H*W*k entries, so no proposal set keeps the
    full (H, W, M) sort order alive.
    """
    m = probs.shape[-1]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} must be in [1, {m}]")
    if m != planes.count:
        raise ValueError("probability volume / plane count mismatch")
    order = np.argsort(-probs, axis=-1, kind="stable")
    idx = order[..., :k].copy()
    picked = np.take_along_axis(probs, idx, axis=-1)
    total = picked.sum(axis=-1, keepdims=True)
    scores = picked / total
    return DepthProposalSet(
        plane_indices=idx, depths=planes.depths[idx], scores=scores
    )


def proposals_from_depth(depth_map: np.ndarray) -> DepthProposalSet:
    """Single full-confidence proposal per pixel at the given exact depth.

    Ground-truth oracle construction (the upper-bound experiment): unlike
    sampler output, the depths need not coincide with sweep planes, so the
    plane index is a sentinel -1.
    """
    h, w = depth_map.shape
    return DepthProposalSet(
        plane_indices=np.full((h, w, 1), -1, dtype=np.int64),
        depths=depth_map[..., None].astype(np.float64),
        scores=np.ones((h, w, 1)),
    )


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
    the view.

    Features, proposals and the feature sums are channel-major (C, N), so
    per-voxel factors broadcast along the long axis.  feature_mean is
    returned as an (nx, ny, nz, C) view of the channel-major result.
    """
    if not items:
        raise ValueError("need at least one view")
    if not window > 0:
        raise ValueError("window must be positive")
    centers = spec.centers().reshape(-1, 3)
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
        bad = feat.size - np.count_nonzero(np.isfinite(feat))
        if bad:
            raise ValueError(f"view {i}: feature map has {bad} non-finite values")
        valid, rows, cols, depth = nearest_pixel(centers, view, DOWNSAMPLE)
        vis = np.flatnonzero(valid)
        if not vis.size:
            continue
        pixel = rows[vis] * gw + cols[vis]
        prop_d = channel_major(proposals.depths).take(pixel, axis=1)  # (k, V)
        prop_s = channel_major(proposals.scores).take(pixel, axis=1)
        gate, score = _match_proposals(depth[vis], prop_d, prop_s, window)
        # num += score * feature, per channel; the score is +0.0 where the
        # gate is shut, and the product then +-0.0, which adds nothing
        gathered = channel_major(feat).take(pixel, axis=1)
        gathered *= score
        num[:, vis] += gathered
        weight_sum[vis] += score
        gate_sum[vis] += gate

    nx, ny, nz = spec.dims
    weighted = weight_sum > _WEIGHT_EPS
    # feature_mean, formed in place in num: num / weight_sum, or +0.0
    num /= np.where(weighted, weight_sum, 1.0)
    np.copyto(num, 0.0, where=~weighted)
    score = np.where(gate_sum > 0, weight_sum / np.maximum(gate_sum, 1), 0.0)
    return VoxelGrid(
        spec=spec,
        feature_mean=num.T.reshape(nx, ny, nz, c),
        score=score.reshape(nx, ny, nz),
        valid_count=gate_sum.reshape(nx, ny, nz),
    )


def build_volume_vanilla(items, spec: VoxelGridSpec) -> VoxelGrid:
    """Depth-unaware baseline over (feature map, view) pairs: plain mean of
    all backprojected features over views with a valid projection; surface
    score fixed to 1 where any view contributed.

    It is build_volume with one proposal per pixel at depth 0 with score 1
    and an unbounded window, so every valid projection is gated in with
    unit weight.
    """
    return build_volume(
        [(feat, view, proposals_from_depth(np.zeros(feat.shape[:2]))) for feat, view in items],
        spec,
        window=np.inf,
    )
