"""Box extraction held to its scipy-labeled oracle (tests/boxes_reference.py):
the same boxes, corners, scores and order, on random, degenerate and
long-range connected grids; the labels themselves against
`scipy.ndimage.label`; and the peak memory of one extraction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

import boxes_reference
from mvsweep.harness.boxes import extract_boxes
from mvsweep.sampling import VoxelGrid, VoxelGridSpec

# The 13 directions that, with their opposites, make up 26-connectivity.
DIRECTIONS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
              if (dx, dy, dz) > (0, 0, 0)]


def make_grid(score):
    dims = score.shape
    return VoxelGrid(
        spec=VoxelGridSpec(dims, (-1.0, 0.5, 0.0), (0.5, 0.25, 0.4)),
        feature_mean=np.zeros(dims + (1,)),
        score=np.asarray(score, dtype=np.float64),
        valid_count=None,
    )


def assert_matches_reference(score, threshold_ratio=0.5, min_voxels=4):
    """extract_boxes and the oracle give the same boxes in the same order,
    corners and scores bit for bit; returns them.  The defaults are the
    pipeline's box_threshold and min_component."""
    grid = make_grid(score)
    got = extract_boxes(grid, threshold_ratio, min_voxels)
    want = boxes_reference.extract_boxes(grid, threshold_ratio, min_voxels)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.lo.tobytes() == w.lo.tobytes()
        assert g.hi.tobytes() == w.hi.tobytes()
        assert g.score.hex() == w.score.hex()
    return got


def chain(shape, start, step, length):
    score = np.zeros(shape)
    for i in range(length):
        score[tuple(np.add(start, np.multiply(step, i)))] = 1.0
    return score


def snake(nx, ny, nz):
    """A path of face-adjacent voxels that runs along x, back and forth over
    every other row of every other layer, stepping two rows or two layers at
    an end; apart from those turns, rows and layers are two cells apart."""
    cells = [np.zeros(3, dtype=int)]

    def walk(axis, sign, steps):
        for _ in range(steps):
            cell = cells[-1].copy()
            cell[axis] += sign
            cells.append(cell)

    rows = (ny + 1) // 2
    xdir = ydir = 1
    for layer in range(0, nz, 2):
        for row in range(rows):
            walk(0, xdir, nx - 1)
            xdir = -xdir
            if row < rows - 1:
                walk(1, ydir, 2)
        ydir = -ydir
        if layer + 2 < nz:
            walk(2, 1, 2)
    score = np.zeros((nx, ny, nz))
    for cell in cells:
        score[tuple(cell)] = 1.0
    return score, cells


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_score_grids(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 14, 3))
        score = rng.uniform(0.0, 1.0, shape) ** rng.uniform(1.0, 6.0)
        for threshold_ratio in (0.3, 0.6, 0.9, 1.0):
            for min_voxels in (1, 2, 4):
                assert_matches_reference(score, threshold_ratio=threshold_ratio,
                                         min_voxels=min_voxels)

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_scores_tie_by_first_voxel(self, seed):
        rng = np.random.default_rng(100 + seed)
        score = (rng.uniform(size=(9, 8, 7)) < 0.2).astype(float)
        boxes = assert_matches_reference(score, min_voxels=1)
        assert len(boxes) > 3 and len({b.score for b in boxes}) == 1

    @pytest.mark.parametrize("hot_frac", [0.02, 0.05, 0.1])
    def test_many_components(self, hot_frac):
        # Hundreds of components of all sizes, the boxes of each gathered
        # from one grouping of the hot voxels.
        rng = np.random.default_rng(int(hot_frac * 100))
        u = rng.uniform(size=(40, 36, 20))
        score = np.where(u < hot_frac, 0.5 + 0.5 * rng.uniform(size=u.shape), 0.0)
        counts = [len(assert_matches_reference(score, min_voxels=m)) for m in (1, 2, 4)]
        assert counts[0] > 400 and counts[0] > counts[1] > counts[2] > 0

    @pytest.mark.parametrize("shape", [(1, 9, 7), (8, 1, 5), (6, 7, 1), (1, 1, 12), (12, 1, 1),
                                       (1, 1, 1)])
    def test_one_wide_dimensions(self, shape):
        rng = np.random.default_rng(sum(shape))
        score = rng.uniform(0.0, 1.0, shape)
        for min_voxels in (1, 3):
            assert_matches_reference(score, threshold_ratio=0.5, min_voxels=min_voxels)

    @pytest.mark.parametrize("score", [np.zeros((5, 4, 3)), -np.ones((3, 3, 3))],
                             ids=["zero", "negative"])
    def test_all_cold(self, score):
        assert assert_matches_reference(score) == []

    def test_all_hot(self):
        (box,) = assert_matches_reference(np.full((7, 5, 6), 0.25), min_voxels=1)
        np.testing.assert_array_equal(box.lo, [-1.0, 0.5, 0.0])

    @pytest.mark.parametrize("step", DIRECTIONS)
    def test_diagonal_chains(self, step):
        start = [0 if s >= 0 else 8 for s in step]
        score = chain((9, 9, 9), start, step, 9)
        assert len(assert_matches_reference(score, min_voxels=1)) == 1

    def test_chains_touching_only_at_corners(self):
        score = chain((10, 10, 10), (0, 9, 0), (1, -1, 1), 5) + chain((10, 10, 10), (5, 4, 4),
                                                                      (1, 1, -1), 5)
        score[0, 0, 9] = 0.5
        assert len(assert_matches_reference(score, min_voxels=1, threshold_ratio=0.4)) == 2

    def test_long_snake(self):
        score, cells = snake(12, 11, 9)
        assert len(assert_matches_reference(score, min_voxels=1)) == 1
        # Cut the path inside a row half-way along it: two pieces, one box each.
        middle = (5, 4, 4)
        assert any(np.array_equal(cell, middle) for cell in cells)
        score[middle] = 0.0
        assert len(assert_matches_reference(score, min_voxels=1)) == 2


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(bool, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9)))
def test_labels_equal_scipy(mask):
    from mvsweep.harness.boxes import _label

    labels, count = _label(mask)
    want, want_count = boxes_reference.label(mask)
    assert count == want_count
    assert labels.dtype == np.int32
    np.testing.assert_array_equal(labels, want)


def test_peak_memory_on_an_all_hot_grid():
    # The scipy-labeled extraction peaks at 77 bytes per voxel here: the
    # int32 labels, the member coordinates and their world centers.  With
    # the hot voxels grouped once, the labeler's peak (about 46 bytes per
    # voxel) is extraction's.
    grid = make_grid(np.ones((128, 128, 64)))
    tracemalloc.start()
    try:
        boxes = extract_boxes(grid, threshold_ratio=0.5, min_voxels=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(boxes) == 1
    assert peak <= 48 * grid.spec.n_voxels + 65536
