"""Reference oracles for voxel aggregation.

`gate_and_weight` matches one voxel's camera depth against one pixel's
proposals, as a scalar loop.  `build_volume_vanilla` is the depth-unaware
baseline as its own loop over views: each voxel center is projected into
every view at feature scale and rounded to the nearest pixel; a view with a
valid projection adds that pixel's feature, and the feature mean is the
plain mean over those views.  They serve only as the yardsticks the tests
hold `mvsweep.sampling` against.
"""

from __future__ import annotations

import numpy as np

from mvsweep.camera import DOWNSAMPLE, project
from mvsweep.sampling import VoxelGrid, VoxelGridSpec


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
