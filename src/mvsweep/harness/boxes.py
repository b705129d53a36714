"""Axis-aligned box extraction from surface-score volumes and 3D IoU."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from mvsweep.sampling import VoxelGrid


@dataclass
class Box3D:
    """Axis-aligned box: center (m), size (w, h, l in m), yaw fixed at 0."""

    center: np.ndarray
    size: np.ndarray
    yaw: float = 0.0
    score: float = 1.0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.size = np.asarray(self.size, dtype=np.float64).reshape(3)
        if np.any(self.size <= 0):
            raise ValueError("box sizes must be positive")

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.size / 2.0

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.size / 2.0

    @classmethod
    def from_corners(cls, lo, hi, score: float = 1.0) -> "Box3D":
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        return cls(center=(lo + hi) / 2.0, size=hi - lo, yaw=0.0, score=score)


# 26-connectivity: all voxels sharing a face, edge or corner.
_STRUCTURE = np.ones((3, 3, 3), dtype=bool)


def extract_boxes(grid: VoxelGrid, threshold_ratio: float = 0.5, min_voxels: int = 4) -> list[Box3D]:
    """Boxes from connected components of high-surface-score voxels.

    Voxels with score >= threshold_ratio * max(score) are labeled with
    26-connectivity; components of at least min_voxels cells become boxes
    spanning their member voxel centers plus half a pitch per side.  The box
    score is the mean member score; output is ordered by descending score,
    ties by the component's first voxel in scan order.
    """
    if not 0.0 < threshold_ratio <= 1.0:
        raise ValueError("threshold_ratio must lie in (0, 1]")
    smax = float(grid.score.max()) if grid.score.size else 0.0
    if smax <= 0.0:
        return []
    mask = grid.score >= threshold_ratio * smax
    labels, count = ndimage.label(mask, structure=_STRUCTURE)
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


def iou3d(a: Box3D, b: Box3D) -> float:
    """Intersection over union of two axis-aligned boxes (yaw must be 0)."""
    if a.yaw != 0.0 or b.yaw != 0.0:
        raise ValueError("iou3d only supports axis-aligned boxes (yaw 0)")
    lo = np.maximum(a.lo, b.lo)
    hi = np.minimum(a.hi, b.hi)
    edges = np.maximum(hi - lo, 0.0)
    inter = float(edges.prod())
    # Volumes from the same lo/hi arithmetic so identical boxes give exactly 1.
    vol_a = float((a.hi - a.lo).prod())
    vol_b = float((b.hi - b.lo).prod())
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0
