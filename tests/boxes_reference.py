"""Reference oracle for box extraction.

`extract_boxes` is the scipy-labeled extraction: voxels at or above
`threshold_ratio * max(score)` are labeled by `scipy.ndimage.label` with
26-connectivity, and each component of at least `min_voxels` voxels becomes a
box spanning its member voxel centers plus half a pitch per side, scored by
its mean member score and ordered by descending score, ties by the
component's first voxel in scan order.  It serves only as the yardstick the
tests hold `mvsweep.harness.boxes` against; scipy is a test-only dependency.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from mvsweep.harness.boxes import Box3D
from mvsweep.sampling import VoxelGrid

# 26-connectivity: all voxels sharing a face, edge or corner.
STRUCTURE = np.ones((3, 3, 3), dtype=bool)


def label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """26-connected component labels of `mask` and their count."""
    return ndimage.label(mask, structure=STRUCTURE)


def extract_boxes(grid: VoxelGrid, threshold_ratio: float = 0.5, min_voxels: int = 4) -> list[Box3D]:
    if not 0.0 < threshold_ratio <= 1.0:
        raise ValueError("threshold_ratio must lie in (0, 1]")
    smax = float(grid.score.max()) if grid.score.size else 0.0
    if smax <= 0.0:
        return []
    mask = grid.score >= threshold_ratio * smax
    labels, count = label(mask)
    origin = np.asarray(grid.spec.origin)
    pitch = np.asarray(grid.spec.pitch)
    candidates = []
    for comp in range(1, count + 1):
        idx = np.argwhere(labels == comp)
        if idx.shape[0] < min_voxels:
            continue
        centers = origin + (idx + 0.5) * pitch
        lo = centers.min(axis=0) - pitch / 2.0
        hi = centers.max(axis=0) + pitch / 2.0
        score = float(grid.score[labels == comp].mean())
        seed = int(np.ravel_multi_index(idx[0], grid.spec.dims))
        candidates.append((score, seed, Box3D.from_corners(lo, hi, score=score)))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    return [box for _, _, box in candidates]
