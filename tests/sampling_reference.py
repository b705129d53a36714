"""Reference oracles for voxel aggregation.

`gate_and_weight` matches one voxel's camera depth against one pixel's
proposals, as a scalar loop.  `build_volume` is the depth-gated volume with
voxel-major `(N, C)` accumulators and a 2-D fancy-index feature gather per
view.  `build_volume_vanilla` is the depth-unaware baseline as its own loop
over views: each voxel center is projected into every view at feature scale
and rounded to the nearest pixel; a view with a valid projection adds that
pixel's feature, and the feature mean is the plain mean over those views.
They serve only as the yardsticks the tests hold `mvsweep.sampling` against.

`proposals_from_depth` builds the ground-truth proposal set of the
upper-bound experiment: one full-confidence proposal per pixel at an exact
depth.  With depth 0 and an unbounded window, `mvsweep.sampling.build_volume`
over it gates in every valid projection with unit weight, which is the
depth-unaware baseline.

`sample_topk` and `build_volume_every_voxel` are the engine's own top-k
selection and channel-major aggregation as they were before they kept only
what they read: the proposals are views into the full (H, W, M) sort order,
and every view computes over, and adds into, every voxel.  The engine must
give their bytes.
"""

from __future__ import annotations

import numpy as np

from mvsweep.camera import DOWNSAMPLE, nearest_pixel, project
from mvsweep.costvol import DepthPlanes, channel_major
from mvsweep.sampling import DepthProposalSet, VoxelGrid, VoxelGridSpec


def gate_and_weight(
    voxel_depth: float,
    proposal_depths: np.ndarray,
    proposal_scores: np.ndarray,
    feature: np.ndarray,
    window: float,
):
    """Match a voxel's camera depth against one pixel's depth proposals.

    Returns (weighted feature, gate, matched score): inside the window
    (inclusive), the nearest proposal wins -- ties prefer the higher score,
    then the earlier proposal -- and the feature is scaled by its score.
    Outside, everything is zero.
    """
    if not window > 0:
        raise ValueError("window must be positive")
    proposal_depths = np.asarray(proposal_depths, dtype=np.float64)
    proposal_scores = np.asarray(proposal_scores, dtype=np.float64)
    feature = np.asarray(feature, dtype=np.float64)
    dist = np.abs(voxel_depth - proposal_depths)
    best = 0
    for j in range(1, dist.size):
        if dist[j] < dist[best] or (
            dist[j] == dist[best] and proposal_scores[j] > proposal_scores[best]
        ):
            best = j
    if dist[best] <= window:
        score = float(proposal_scores[best])
        return score * feature, 1, score
    return np.zeros_like(feature), 0, 0.0


def proposals_from_depth(depth_map: np.ndarray) -> DepthProposalSet:
    """Single full-confidence proposal per pixel at the given exact depth.

    Unlike sampler output, the depths need not coincide with sweep planes,
    so the plane index is a sentinel -1.
    """
    h, w = depth_map.shape
    return DepthProposalSet(
        plane_indices=np.full((h, w, 1), -1, dtype=np.int64),
        depths=depth_map[..., None].astype(np.float64),
        scores=np.ones((h, w, 1)),
    )


def _match_proposals(depth, prop_d, prop_s, window):
    """Nearest proposal per voxel (ties: higher score, then earlier), gated
    by the inclusive window."""
    dist = np.abs(depth[:, None] - prop_d)
    best_dist = dist[:, 0].copy()
    best_score = prop_s[:, 0].copy()
    for j in range(1, dist.shape[1]):
        better = (dist[:, j] < best_dist) | (
            (dist[:, j] == best_dist) & (prop_s[:, j] > best_score)
        )
        best_dist = np.where(better, dist[:, j], best_dist)
        best_score = np.where(better, prop_s[:, j], best_score)
    gate = best_dist <= window
    return gate, np.where(gate, best_score, 0.0)


def build_volume(items, spec: VoxelGridSpec, window: float) -> VoxelGrid:
    """Depth-gated, confidence-weighted aggregation over (feature map, view,
    proposals): gated features scaled by matched confidence, averaged with
    confidence normalization; the score is the mean matched confidence."""
    centers = spec.centers().reshape(-1, 3)
    c = items[0][0].shape[-1]
    num = np.zeros((centers.shape[0], c))
    weight_sum = np.zeros(centers.shape[0])
    gate_sum = np.zeros(centers.shape[0], dtype=np.int64)
    for feat, view, proposals in items:
        u, v, depth, valid = project(centers, view, scale=DOWNSAMPLE)
        if not valid.any():
            continue
        _, gw, gh = view.scaled(DOWNSAMPLE)
        cols = np.clip(np.round(np.nan_to_num(u)).astype(np.int64), 0, gw - 1)
        rows = np.clip(np.round(np.nan_to_num(v)).astype(np.int64), 0, gh - 1)
        gate, score = _match_proposals(
            depth, proposals.depths[rows, cols], proposals.scores[rows, cols], window
        )
        gate &= valid
        score = np.where(gate, score, 0.0)
        num += score[:, None] * feat[rows, cols] * gate[:, None]
        weight_sum += score
        gate_sum += gate
    nx, ny, nz = spec.dims
    safe = np.where(weight_sum > 1e-12, weight_sum, 1.0)
    feature_mean = np.where((weight_sum > 1e-12)[:, None], num / safe[:, None], 0.0)
    score = np.where(gate_sum > 0, weight_sum / np.maximum(gate_sum, 1), 0.0)
    return VoxelGrid(
        spec=spec,
        feature_mean=feature_mean.reshape(nx, ny, nz, c),
        score=score.reshape(nx, ny, nz),
        valid_count=gate_sum.reshape(nx, ny, nz),
    )


def build_volume_vanilla(items, spec: VoxelGridSpec) -> VoxelGrid:
    """Plain mean of all backprojected features over views with a valid
    projection; surface score fixed to 1 where any view contributed."""
    centers = spec.centers().reshape(-1, 3)
    c = items[0][0].shape[-1]
    num = np.zeros((centers.shape[0], c))
    count = np.zeros(centers.shape[0], dtype=np.int64)
    for feat, view in items:
        u, v, _, valid = project(centers, view, scale=DOWNSAMPLE)
        _, gw, gh = view.scaled(DOWNSAMPLE)
        cols = np.clip(np.round(np.nan_to_num(u)).astype(np.int64), 0, gw - 1)
        rows = np.clip(np.round(np.nan_to_num(v)).astype(np.int64), 0, gh - 1)
        num += feat[rows, cols] * valid[:, None]
        count += valid
    nx, ny, nz = spec.dims
    mean = np.where(count[:, None] > 0, num / np.maximum(count[:, None], 1), 0.0)
    score = (count > 0).astype(np.float64)
    return VoxelGrid(
        spec=spec,
        feature_mean=mean.reshape(nx, ny, nz, c),
        score=score.reshape(nx, ny, nz),
        valid_count=count.reshape(nx, ny, nz),
    )


def sample_topk(probs: np.ndarray, planes: DepthPlanes, k: int) -> DepthProposalSet:
    """The k most probable planes per pixel (stable: ties to the lower
    index), scores renormalized; plane_indices is a view into the full sort
    order."""
    order = np.argsort(-probs, axis=-1, kind="stable")
    idx = order[..., :k]
    picked = np.take_along_axis(probs, idx, axis=-1)
    total = picked.sum(axis=-1, keepdims=True)
    return DepthProposalSet(plane_indices=idx, depths=planes.depths[idx], scores=picked / total)


def build_volume_every_voxel(items, spec: VoxelGridSpec, window: float) -> VoxelGrid:
    """The channel-major depth-gated volume, each view computing over every
    voxel and masking the ones outside its frustum by multiplication."""
    centers = spec.centers().reshape(-1, 3)
    n = centers.shape[0]
    c = items[0][0].shape[-1]
    num = np.zeros((c, n))
    gathered = np.empty((c, n))
    weight_sum = np.zeros(n)
    gate_sum = np.zeros(n, dtype=np.int64)
    for feat, view, proposals in items:
        _, gw, _ = view.scaled(DOWNSAMPLE)
        valid, rows, cols, depth = nearest_pixel(centers, view, DOWNSAMPLE)
        if not valid.any():
            continue
        pixel = rows * gw + cols
        prop_d = channel_major(proposals.depths).take(pixel, axis=1)
        prop_s = channel_major(proposals.scores).take(pixel, axis=1)
        gate, score = _match_proposals(depth, prop_d.T, prop_s.T, window)
        gate &= valid
        score = np.where(gate, score, 0.0)
        channel_major(feat).take(pixel, axis=1, out=gathered, mode="clip")
        gathered *= score
        gathered *= gate
        num += gathered
        weight_sum += score
        gate_sum += gate
    nx, ny, nz = spec.dims
    safe = np.where(weight_sum > 1e-12, weight_sum, 1.0)
    feature_mean = np.where(weight_sum > 1e-12, num / safe, 0.0)
    score = np.where(gate_sum > 0, weight_sum / np.maximum(gate_sum, 1), 0.0)
    return VoxelGrid(
        spec=spec,
        feature_mean=feature_mean.T.reshape(nx, ny, nz, c),
        score=score.reshape(nx, ny, nz),
        valid_count=gate_sum.reshape(nx, ny, nz),
    )
