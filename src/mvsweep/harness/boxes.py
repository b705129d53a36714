"""Axis-aligned box extraction from surface-score volumes and 3D IoU."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvsweep.sampling import VoxelGrid


@dataclass
class Box3D:
    """Axis-aligned box: center (m) and size (w, h, l in m)."""

    center: np.ndarray
    size: np.ndarray
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
        return cls(center=(lo + hi) / 2.0, size=hi - lo, score=score)


# The 13 of the 26 neighbour offsets that come after a voxel in C order; with
# their opposites they make 26-connectivity (face, edge and corner contact).
_FORWARD_OFFSETS = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
)


def _shifted(a: np.ndarray, offset) -> tuple[np.ndarray, np.ndarray]:
    """Views of `a` at each cell p and at p + offset, over the cells where
    both lie inside `a`."""
    here, there = [], []
    for o, n in zip(offset, a.shape):
        here.append(slice(max(-o, 0), n - max(o, 0)))
        there.append(slice(max(o, 0), n - max(-o, 0)))
    return a[tuple(here)], a[tuple(there)]


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """26-connected components of a 3D boolean `mask`: int32 labels (0 off
    the mask) and their count.  Components are numbered from 1 in the scan
    order of their first voxel.

    Hot voxels get ids 1..n in C order (0 marks a cold cell) and a parent
    forest over those ids.  For each forward offset in turn, every pair of
    hot neighbours with different roots hooks the larger root onto the
    smaller, and pointer jumping then flattens the forest back to stars
    (Shiloach and Vishkin, 1982); the pairs still split hook again until
    none is.  A merge never splits a pair, so one pass over the 13 offsets
    joins every component, and each root is its component's first voxel.
    Only one offset's pairs are held at a time; int32 ids cover any grid a
    PipelineConfig allows (MAX_VOXELS = 2**24).
    """
    n = int(np.count_nonzero(mask))
    ids = np.zeros(mask.shape, dtype=np.int32)
    ids[mask] = np.arange(1, n + 1, dtype=np.int32)
    parent = np.arange(n + 1, dtype=np.int32)
    for offset in _FORWARD_OFFSETS:
        hot_here, hot_there = _shifted(mask, offset)
        both = hot_here & hot_there
        here, there = _shifted(ids, offset)
        a, b = here[both], there[both]
        while True:
            root_a, root_b = parent[a], parent[b]
            split = root_a != root_b
            if not split.any():
                break
            a, b, root_a, root_b = a[split], b[split], root_a[split], root_b[split]
            np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
            while True:
                grand = parent[parent]
                if np.array_equal(grand, parent):
                    break
                parent = grand
    is_root = parent == np.arange(n + 1, dtype=np.int32)
    # Cell 0 is its own root, so the cumulative count less one labels it 0
    # and each component by the rank of its root.
    rank = np.cumsum(is_root, dtype=np.int32) - 1
    return rank[parent][ids], int(rank[-1])


def extract_boxes(grid: VoxelGrid, threshold_ratio: float, min_voxels: int) -> list[Box3D]:
    """Boxes from connected components of high-surface-score voxels.

    Voxels with score >= threshold_ratio * max(score) are labeled with
    26-connectivity; components of at least min_voxels cells become boxes
    spanning their member voxel centers plus half a pitch per side.  The box
    score is the mean member score; output is ordered by descending score,
    ties by the component's first voxel in scan order.  One stable argsort
    of the hot voxels' labels groups each component's voxels in scan order;
    corners come from their extreme indices, as a center origin + (i + 0.5)
    * pitch grows with i.
    """
    if not 0.0 < threshold_ratio <= 1.0:
        raise ValueError("threshold_ratio must lie in (0, 1]")
    smax = float(grid.score.max()) if grid.score.size else 0.0
    if smax <= 0.0:
        return []
    labels = _label(grid.score >= threshold_ratio * smax)[0].ravel()
    hot = np.flatnonzero(labels)
    comp = labels.take(hot)
    del labels
    hot = hot.take(np.argsort(comp, kind="stable"))
    sizes = np.bincount(comp)[1:]
    del comp
    starts = np.cumsum(sizes) - sizes
    coords = np.unravel_index(hot, grid.spec.dims)
    lo_idx = np.stack([np.minimum.reduceat(c, starts) for c in coords], axis=1)
    hi_idx = np.stack([np.maximum.reduceat(c, starts) for c in coords], axis=1)
    del coords
    scores = grid.score.ravel().take(hot)
    origin = np.asarray(grid.spec.origin)
    pitch = np.asarray(grid.spec.pitch)
    lo = origin + (lo_idx + 0.5) * pitch - pitch / 2.0
    hi = origin + (hi_idx + 0.5) * pitch + pitch / 2.0
    candidates = []
    for c in np.flatnonzero(sizes >= min_voxels):
        first = starts[c]
        score = float(scores[first : first + sizes[c]].mean())
        candidates.append((score, int(hot[first]), Box3D.from_corners(lo[c], hi[c], score=score)))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    return [box for _, _, box in candidates]


def iou3d(a: Box3D, b: Box3D) -> float:
    """Intersection over union of two axis-aligned boxes."""
    lo = np.maximum(a.lo, b.lo)
    hi = np.minimum(a.hi, b.hi)
    edges = np.maximum(hi - lo, 0.0)
    inter = float(edges.prod())
    # Volumes from the same lo/hi arithmetic so identical boxes give exactly 1.
    vol_a = float((a.hi - a.lo).prod())
    vol_b = float((b.hi - b.lo).prod())
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0
