import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsweep.camera import CameraView, Intrinsics, Pose, look_at, project
from mvsweep.costvol import DepthPlanes, extract_features
from mvsweep.sampling import (
    DepthProposalSet,
    VoxelGrid,
    VoxelGridSpec,
    build_volume,
    sample_topk,
)
from mvsweep.scenegen import generate_scene, make_trajectory, raycast

from camera_reference import identity_pose
from sampling_reference import build_volume_vanilla, gate_and_weight, proposals_from_depth


def topk_oracle(row, k):
    """Exhaustive sort-and-take oracle: descending prob, ties by lower index."""
    order = sorted(range(len(row)), key=lambda i: (-row[i], i))
    idx = order[:k]
    total = sum(row[i] for i in idx)
    return idx, [row[i] / total for i in idx]


class TestSampleTopk:
    def test_hand_normalization(self):
        probs = np.array([[[0.1, 0.6, 0.3]]])
        planes = DepthPlanes(np.array([1.0, 2.0, 3.0]))
        ps = sample_topk(probs, planes, k=2)
        np.testing.assert_array_equal(ps.plane_indices[0, 0], [1, 2])
        np.testing.assert_allclose(ps.scores[0, 0], [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(ps.depths[0, 0], [2.0, 3.0])

    def test_uniform_all_planes(self):
        planes = DepthPlanes.uniform(5, 1.0, 3.0)
        probs = np.full((3, 4, 5), 0.2)
        ps = sample_topk(probs, planes, k=5)
        np.testing.assert_allclose(ps.scores, 0.2, atol=1e-12)
        np.testing.assert_array_equal(ps.plane_indices[0, 0], np.arange(5))

    def test_default_working_point(self):
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(12), size=(6, 8))
        ps = sample_topk(probs, planes, k=3)
        assert ps.plane_indices.shape == ps.depths.shape == ps.scores.shape == (6, 8, 3)
        np.testing.assert_allclose(ps.scores.sum(axis=-1), 1.0, atol=1e-6)

    def test_ties_take_lower_plane_index(self):
        planes = DepthPlanes(np.array([1.0, 2.0, 3.0, 4.0]))
        probs = np.array([[[0.3, 0.2, 0.3, 0.2]]])
        ps = sample_topk(probs, planes, k=2)
        np.testing.assert_array_equal(ps.plane_indices[0, 0], [0, 2])

    def test_matches_exhaustive_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        planes = DepthPlanes.uniform(6, 0.5, 3.0)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(6), size=(8, 8))
            # engineer ties by quantizing
            probs = np.round(probs, 1)
            probs /= probs.sum(axis=-1, keepdims=True)
            k = int(rng.integers(1, 7))
            ps = sample_topk(probs, planes, k)
            for r in range(8):
                for c in range(8):
                    idx, scores = topk_oracle(list(probs[r, c]), k)
                    np.testing.assert_array_equal(ps.plane_indices[r, c], idx)
                    np.testing.assert_allclose(ps.scores[r, c], scores, atol=1e-12)

    def test_rejects_bad_k(self):
        planes = DepthPlanes.uniform(4, 1.0, 4.0)
        probs = np.full((2, 2, 4), 0.25)
        with pytest.raises(ValueError):
            sample_topk(probs, planes, k=0)
        with pytest.raises(ValueError):
            sample_topk(probs, planes, k=5)

    def test_renormalization_invariance(self):
        # Scaling the selected raw probabilities leaves the renormalized
        # scores unchanged.
        planes = DepthPlanes.uniform(5, 1.0, 3.0)
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(5), size=(4, 4))
        ps = sample_topk(probs, planes, k=3)
        scaled = probs.copy()
        sel = ps.plane_indices[2, 2]
        scaled[2, 2, sel] *= 7.3
        ps2 = sample_topk(scaled, planes, k=3)
        np.testing.assert_array_equal(ps.plane_indices[2, 2], ps2.plane_indices[2, 2])
        np.testing.assert_allclose(ps.scores[2, 2], ps2.scores[2, 2], atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 5)])
    def test_leaves_its_input_unchanged(self, shape):
        # One pixel's (M, 1) plane-major view is contiguous; the selection
        # must still work on a copy.
        probs = np.random.default_rng(0).dirichlet(np.ones(3), size=shape)
        before = probs.copy()
        sample_topk(probs, DepthPlanes.uniform(3, 1.0, 3.0), k=3)
        assert probs.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
    def test_rejects_bad_probabilities(self, bad):
        planes = DepthPlanes.uniform(4, 1.0, 4.0)
        probs = np.full((2, 3, 4), 0.25)
        probs[0, 1, 2] = probs[1, 2, 0] = bad
        with pytest.raises(ValueError, match="2 probabilities are NaN, infinite or negative"):
            sample_topk(probs, planes, k=2)

    def test_rejects_pixels_without_a_positive_probability(self):
        # An all-zero pixel used to get NaN scores and a RuntimeWarning.
        planes = DepthPlanes.uniform(4, 1.0, 4.0)
        probs = np.full((2, 3, 4), 0.25)
        probs[1, 1] = 0.0
        probs[0, 2] = [0.0, -0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="2 pixels have no positive probability"):
            sample_topk(probs, planes, k=1)


class TestGateAndWeight:
    def test_match_within_window(self):
        f = np.array([1.0, 2.0])
        weighted, g, score = gate_and_weight(
            2.0, np.array([1.9, 3.0, 4.1]), np.array([0.5, 0.3, 0.2]), f, window=0.2
        )
        assert g == 1 and score == 0.5
        np.testing.assert_allclose(weighted, 0.5 * f)

    def test_outside_all_windows(self):
        f = np.array([1.0, 2.0])
        weighted, g, score = gate_and_weight(
            2.5, np.array([1.9, 3.0, 4.1]), np.array([0.5, 0.3, 0.2]), f, window=0.2
        )
        assert g == 0 and score == 0.0
        np.testing.assert_array_equal(weighted, 0.0)

    def test_equidistant_tie_prefers_higher_score(self):
        f = np.array([1.0])
        _, g, score = gate_and_weight(
            2.5, np.array([2.4, 2.6]), np.array([0.4, 0.6]), f, window=0.2
        )
        assert g == 1 and score == 0.6
        _, _, score2 = gate_and_weight(
            2.5, np.array([2.4, 2.6]), np.array([0.6, 0.4]), f, window=0.2
        )
        assert score2 == 0.6

    def test_full_tie_prefers_earlier_proposal(self):
        _, _, score = gate_and_weight(
            2.5, np.array([2.4, 2.6]), np.array([0.5, 0.5]), np.array([1.0]), window=0.2
        )
        assert score == 0.5  # earlier proposal wins, same value

    def test_window_inclusive(self):
        # exactly representable distance == window
        _, g, _ = gate_and_weight(
            2.25, np.array([2.0]), np.array([1.0]), np.array([1.0]), window=0.25
        )
        assert g == 1


def pixel_aimed_view(width=32, height=32, f=40.0):
    k = Intrinsics(f, f, (width - 1) / 2, (height - 1) / 2)
    return CameraView(k, identity_pose(), width, height)


def single_voxel_spec(center=(0.0, 0.0, 2.0)):
    return VoxelGridSpec(
        dims=(1, 1, 1),
        origin=(center[0] - 0.05, center[1] - 0.05, center[2] - 0.05),
        pitch=(0.1, 0.1, 0.1),
    )


def constant_proposals(shape, depths, scores):
    h, w = shape
    k = len(depths)
    return DepthProposalSet(
        plane_indices=np.tile(np.arange(k), (h, w, 1)),
        depths=np.tile(np.asarray(depths, dtype=float), (h, w, 1)),
        scores=np.tile(np.asarray(scores, dtype=float), (h, w, 1)),
    )


class TestBuildVolume:
    def test_single_view_identity(self):
        view = pixel_aimed_view()
        h, w = 8, 8
        feat = np.zeros((h, w, 2))
        feat[:, :, 0] = 3.0
        feat[:, :, 1] = -1.0
        props = constant_proposals((h, w), [2.0, 4.0], [0.7, 0.3])
        grid = build_volume([(feat, view, props)], single_voxel_spec(), window=0.2)
        np.testing.assert_allclose(grid.feature_mean[0, 0, 0], [3.0, -1.0], atol=1e-12)
        assert grid.score[0, 0, 0] == pytest.approx(0.7)
        assert grid.valid_count[0, 0, 0] == 1
        np.testing.assert_allclose(grid.score[0, 0, 0] * grid.feature_mean[0, 0, 0], [2.1, -0.7],
                                   atol=1e-12)

    def test_two_view_weighted_mean(self):
        view = pixel_aimed_view()
        h, w = 8, 8
        f1 = np.zeros((h, w, 2))
        f1[..., 0] = 1.0
        f2 = np.zeros((h, w, 2))
        f2[..., 1] = 1.0
        p1 = constant_proposals((h, w), [2.0, 4.0], [0.75, 0.25])
        p2 = constant_proposals((h, w), [2.0, 4.0], [0.25, 0.75])
        grid = build_volume(
            [(f1, view, p1), (f2, view, p2)], single_voxel_spec(), window=0.2
        )
        np.testing.assert_allclose(grid.feature_mean[0, 0, 0], [0.75, 0.25], atol=1e-12)
        assert grid.score[0, 0, 0] == pytest.approx(0.5)
        assert grid.valid_count[0, 0, 0] == 2

    def test_out_of_frustum_voxel_is_free_space(self):
        view = pixel_aimed_view()
        h, w = 8, 8
        feat = np.ones((h, w, 2))
        props = constant_proposals((h, w), [2.0], [1.0])
        grid = build_volume(
            [(feat, view, props)], single_voxel_spec(center=(0.0, 0.0, -3.0)), window=0.2
        )
        np.testing.assert_array_equal(grid.feature_mean, 0.0)
        assert grid.score[0, 0, 0] == 0.0
        assert grid.valid_count[0, 0, 0] == 0

    @pytest.mark.parametrize("feat_shape,prop_shape", [((6, 8), (8, 8)), ((8, 8), (8, 10))])
    def test_grid_size_must_match_view(self, feat_shape, prop_shape):
        # The view's feature grid is 8x8.  A smaller map used to raise an
        # IndexError and a larger one was silently cropped.
        feat = np.ones(feat_shape + (2,))
        props = constant_proposals(prop_shape, [2.0], [1.0])
        with pytest.raises(ValueError, match="must be 8x8"):
            build_volume([(feat, pixel_aimed_view(), props)], single_voxel_spec(), window=0.2)

    def test_grid_size_error_names_the_view(self):
        props = constant_proposals((8, 8), [2.0], [1.0])
        items = [(np.ones((8, 8, 2)), pixel_aimed_view(), props),
                 (np.ones((6, 8, 2)), pixel_aimed_view(), props)]
        message = r"view 1: feature map \(6, 8, 2\) and proposals \(8, 8, 1\) must be 8x8"
        with pytest.raises(ValueError, match=message):
            build_volume(items, single_voxel_spec(), window=0.2)

    def test_gate_excludes_mismatched_depth(self):
        view = pixel_aimed_view()
        props = constant_proposals((8, 8), [1.0], [1.0])  # proposals far from 2.0
        grid = build_volume(
            [(np.ones((8, 8, 2)), view, props)], single_voxel_spec(), window=0.2
        )
        assert grid.score[0, 0, 0] == 0.0
        assert grid.valid_count[0, 0, 0] == 0

    def test_score_zero_iff_count_zero(self):
        scene = generate_scene(seed=4, n_boxes=1)
        views = make_trajectory(scene, 3, seed=1)
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        rng = np.random.default_rng(0)
        spec = VoxelGridSpec((10, 10, 4), (-3.2, -3.2, 0.0), (0.64, 0.64, 0.8))
        items = []
        for v in views:
            probs = rng.dirichlet(np.ones(12), size=(v.height // 4, v.width // 4))
            items.append((rng.uniform(0, 1, (v.height // 4, v.width // 4, 6)), v, sample_topk(probs, planes, 3)))
        grid = build_volume(items, spec, window=0.2)
        assert np.all((grid.score == 0) == (grid.valid_count == 0))
        assert grid.score.min() >= 0.0 and grid.score.max() <= 1.0

    def test_convex_hull_of_contributions(self):
        view = pixel_aimed_view()
        rng = np.random.default_rng(3)
        f1 = rng.uniform(0, 1, (8, 8, 3))
        f2 = rng.uniform(0, 1, (8, 8, 3))
        p = constant_proposals((8, 8), [2.0], [1.0])
        grid = build_volume([(f1, view, p), (f2, view, p)], single_voxel_spec(), window=0.3)
        lo = np.minimum(f1[3, 3], f2[3, 3]) - 1e-12  # voxel projects near center
        hi = np.maximum(f1[3, 3], f2[3, 3]) + 1e-12
        got = grid.feature_mean[0, 0, 0]
        # nearest pixel of the projection of (0,0,2) at quarter scale
        assert np.all(got >= grid.feature_mean.min()) and np.all(got <= hi.max() + 1)

    def test_view_order_independence(self):
        scene = generate_scene(seed=8, n_boxes=1)
        views = make_trajectory(scene, 4, seed=2)
        planes = DepthPlanes.uniform(8, 0.5, 4.5)
        rng = np.random.default_rng(5)
        items = []
        for v in views:
            probs = rng.dirichlet(np.ones(8), size=(v.height // 4, v.width // 4))
            items.append(
                (rng.uniform(0, 1, (v.height // 4, v.width // 4, 4)), v, sample_topk(probs, planes, 3))
            )
        spec = VoxelGridSpec((6, 6, 4), (-2.0, -2.0, 0.2), (0.6, 0.6, 0.6))
        a = build_volume(items, spec, window=0.2)
        b = build_volume(items[::-1], spec, window=0.2)
        np.testing.assert_allclose(a.feature_mean, b.feature_mean, atol=1e-12)
        np.testing.assert_allclose(a.score, b.score, atol=1e-12)

    def test_one_hot_proposals_give_unit_score(self):
        # k=1 proposals carry score 1, so any gated voxel has s = 1.
        view = pixel_aimed_view()
        props = constant_proposals((8, 8), [2.0], [1.0])
        grid = build_volume([(np.ones((8, 8, 1)), view, props)], single_voxel_spec(), window=0.2)
        assert grid.score[0, 0, 0] == 1.0


def vanilla_through_engine(items, spec):
    """The depth-unaware baseline over (feature map, view) pairs, run through
    `build_volume`: one proposal per pixel at depth 0 with score 1 and an
    unbounded window gate every valid projection in with unit weight."""
    return build_volume(
        [(feat, view, proposals_from_depth(np.zeros(feat.shape[:2]))) for feat, view in items],
        spec,
        window=np.inf,
    )


class TestBuildVolumeVanilla:
    def test_single_view(self):
        view = pixel_aimed_view()
        feat = np.full((8, 8, 2), 0.6)
        grid = vanilla_through_engine([(feat, view)], single_voxel_spec())
        np.testing.assert_allclose(grid.feature_mean[0, 0, 0], 0.6)
        assert grid.score[0, 0, 0] == 1.0

    def test_constant_invariance(self):
        view = pixel_aimed_view()
        feat = np.full((8, 8, 2), 0.4)
        grid = vanilla_through_engine([(feat, view), (feat, view)], single_voxel_spec())
        np.testing.assert_allclose(grid.feature_mean[0, 0, 0], 0.4)

    def test_two_view_mean(self):
        view = pixel_aimed_view()
        f1 = np.zeros((8, 8, 2))
        f1[..., 0] = 1.0
        f2 = np.zeros((8, 8, 2))
        f2[..., 1] = 1.0
        grid = vanilla_through_engine([(f1, view), (f2, view)], single_voxel_spec())
        np.testing.assert_allclose(grid.feature_mean[0, 0, 0], [0.5, 0.5])

    def test_invisible_voxel_zero(self):
        view = pixel_aimed_view()
        grid = vanilla_through_engine(
            [(np.ones((8, 8, 2)), view)], single_voxel_spec(center=(0, 0, -1.0))
        )
        assert grid.score[0, 0, 0] == 0.0


class TestVanillaMatchesOracle:
    """`build_volume` over depth-0 proposals with an unbounded window
    reproduces the vanilla per-view loop in `tests/sampling_reference.py` to
    the bit."""

    @staticmethod
    def assert_matches(views, spec, seed):
        rng = np.random.default_rng(seed)
        items = [(rng.normal(0.0, 1.0, (v.height // 4, v.width // 4, 6)), v) for v in views]
        grid = vanilla_through_engine(items, spec)
        ref = build_volume_vanilla(items, spec)
        for name in ("feature_mean", "score", "valid_count"):
            a, b = getattr(grid, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name

    @staticmethod
    def scene_views(seed):
        return make_trajectory(generate_scene(seed=seed, n_boxes=2), 10, seed=seed)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_default_grid(self, seed):
        spec = VoxelGridSpec((40, 40, 16), (-3.2, -3.2, 0.0), (0.16, 0.16, 0.2))
        self.assert_matches(self.scene_views(seed), spec, seed)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_coarse_grid_past_the_cameras(self, seed):
        views = self.scene_views(seed)
        spec = VoxelGridSpec((7, 5, 3), (-4.2, -4.0, -1.0), (1.2, 1.6, 1.8))
        centers = spec.centers().reshape(-1, 3)
        assert all((project(centers, v)[2] <= 0).any() for v in views)
        self.assert_matches(views, spec, seed)


class TestBuildVolumeMatchesOracle:
    """The depth-gated volume reproduces the voxel-major loop in
    `tests/sampling_reference.py` to the bit."""

    @staticmethod
    def assert_matches(views, spec, seed, channels=6):
        from sampling_reference import build_volume as reference_volume

        rng = np.random.default_rng(seed)
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        items = []
        for v in views:
            shape = (v.height // 4, v.width // 4)
            logits = rng.normal(0.0, 1.0, shape + (planes.count,))
            probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
            feat = rng.normal(0.0, 1.0, shape + (channels,))
            items.append((feat, v, sample_topk(probs, planes, 3)))
        grid = build_volume(items, spec, window=0.2)
        ref = reference_volume(items, spec, window=0.2)
        for name in ("feature_mean", "score", "valid_count"):
            a, b = getattr(grid, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
        # Both gated-in and gated-out voxels occur.
        assert 0 < np.count_nonzero(grid.valid_count) < grid.valid_count.size

    @pytest.mark.parametrize("seed", [1, 7])
    def test_default_grid(self, seed):
        spec = VoxelGridSpec((40, 40, 16), (-3.2, -3.2, 0.0), (0.16, 0.16, 0.2))
        self.assert_matches(TestVanillaMatchesOracle.scene_views(seed), spec, seed)

    @pytest.mark.parametrize("channels", [1, 6])
    def test_coarse_grid_past_the_cameras(self, channels):
        views = TestVanillaMatchesOracle.scene_views(7)
        spec = VoxelGridSpec((7, 5, 3), (-4.2, -4.0, -1.0), (1.2, 1.6, 1.8))
        centers = spec.centers().reshape(-1, 3)
        assert all((project(centers, v)[2] <= 0).any() for v in views)
        self.assert_matches(views, spec, 7, channels)


class TestMatchesPerViewAggregation:
    """Top-k proposals and the depth-gated volume give the bytes of the
    sampler that kept the full sort order and of the aggregation that
    computed over every voxel for every view, both in
    `tests/sampling_reference.py`."""

    @staticmethod
    def random_items(views, seed, channels=6, planes=None, k=3, ties=False):
        rng = np.random.default_rng(seed)
        planes = planes or DepthPlanes.uniform(12, 0.2, 5.0)
        items = []
        for v in views:
            shape = (v.height // 4, v.width // 4)
            probs = rng.dirichlet(np.ones(planes.count), size=shape)
            if ties:
                probs = np.round(probs, 1) + 1e-3
                probs /= probs.sum(axis=-1, keepdims=True)
            feat = rng.normal(0.0, 1.0, shape + (channels,))
            items.append((feat, v, probs))
        return items, planes

    @staticmethod
    def assert_topk_matches(probs, planes, k):
        from sampling_reference import sample_topk as reference_topk

        ps = sample_topk(probs, planes, k)
        ref = reference_topk(probs, planes, k)
        for name in ("plane_indices", "depths", "scores"):
            a, b = getattr(ps, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
            # Each array owns exactly its H*W*k entries.
            assert a.base is None and a.nbytes == probs[..., :k].size * a.itemsize, name
        return ps

    @staticmethod
    def assert_volume_matches(items, spec, window):
        from sampling_reference import build_volume_every_voxel

        grid = build_volume(items, spec, window)
        ref = build_volume_every_voxel(items, spec, window)
        for name in ("feature_mean", "score", "valid_count"):
            a, b = getattr(grid, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
        return grid

    @pytest.mark.parametrize("k", [1, 3, 12])
    @pytest.mark.parametrize("ties", [False, True])
    def test_topk(self, k, ties):
        items, planes = self.random_items([pixel_aimed_view(64, 48)] * 3, 10 + k, ties=ties)
        for _, _, probs in items:
            self.assert_topk_matches(probs, planes, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 12), st.data())
    def test_topk_with_ties_and_zeros(self, h, w, m, data):
        # Few distinct values give ties and zero entries (some -0.0); every
        # pixel keeps at least one positive probability.
        k = data.draw(st.integers(1, m), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        probs = rng.integers(0, 4, (h, w, m)) / 3.0
        probs[probs.sum(axis=-1) == 0, int(rng.integers(m))] = 1.0
        np.copyto(probs, -0.0, where=(probs == 0) & (rng.random(probs.shape) < 0.5))
        self.assert_topk_matches(probs, DepthPlanes.uniform(m, 0.5, 4.0), k)

    def test_topk_all_planes_tied(self):
        planes = DepthPlanes.uniform(5, 1.0, 3.0)
        ps = self.assert_topk_matches(np.full((3, 4, 5), 0.2), planes, 5)
        np.testing.assert_array_equal(ps.plane_indices[1, 2], np.arange(5))

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("channels", [1, 3, 6])
    def test_default_grid(self, seed, channels):
        views = TestVanillaMatchesOracle.scene_views(seed)
        items, planes = self.random_items(views, seed, channels, ties=seed == 7)
        items = [(f, v, self.assert_topk_matches(p, planes, 3)) for f, v, p in items]
        spec = VoxelGridSpec((40, 40, 16), (-3.2, -3.2, 0.0), (0.16, 0.16, 0.2))
        grid = self.assert_volume_matches(items, spec, window=0.2)
        # Both gated-in and gated-out voxels occur.
        assert 0 < np.count_nonzero(grid.valid_count) < grid.valid_count.size

    @pytest.mark.parametrize("channels", [1, 6])
    def test_coarse_grid_past_the_cameras(self, channels):
        views = TestVanillaMatchesOracle.scene_views(7)
        items, planes = self.random_items(views, 7, channels)
        items = [(f, v, sample_topk(p, planes, 3)) for f, v, p in items]
        spec = VoxelGridSpec((7, 5, 3), (-4.2, -4.0, -1.0), (1.2, 1.6, 1.8))
        centers = spec.centers().reshape(-1, 3)
        assert all((project(centers, v)[2] <= 0).any() for v in views)
        grid = self.assert_volume_matches(items, spec, window=1.0)
        assert 0 < np.count_nonzero(grid.valid_count) < grid.valid_count.size

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 11)] * 3),
        st.tuples(*[st.floats(-6.0, 4.0)] * 3),
        st.tuples(*[st.floats(0.05, 2.0)] * 3),
    )
    def test_random_grids(self, dims, origin, pitch):
        self.assert_volume_matches(scene_proposals(), VoxelGridSpec(dims, origin, pitch), 0.5)

    @pytest.mark.parametrize("xs", [(-1.75, -1.5, -1.25, -1.0), (1.0, 1.25, 1.5, 1.75)])
    def test_voxel_on_the_frustum_edge(self, xs):
        # A 32x32 view with f = 40 projects x = -1 and x = 1 at depth 2.5 to
        # u = -0.5 and u = 7.5 on its 8x8 grid, exactly on the bounds, which
        # are inclusive; the cube's other voxels lie outside.
        spec = VoxelGridSpec((4, 1, 1), (xs[0] - 0.125, -0.125, 2.375), (0.25, 0.25, 0.25))
        np.testing.assert_array_equal(spec.centers()[:, 0, 0, 0], xs)
        props = constant_proposals((8, 8), [2.5], [1.0])
        items = [(np.full((8, 8, 2), 0.5), pixel_aimed_view(), props)]
        grid = self.assert_volume_matches(items, spec, window=0.2)
        edge = 3 if xs[0] < 0 else 0
        assert grid.valid_count[:, 0, 0].tolist() == [int(i == edge) for i in range(4)]

    def test_one_voxel_in_view(self):
        # A tilted camera at the grid's fourth voxel sees only the fifth:
        # the first cube (voxels 0-3) lies behind it or at its eye.
        view = CameraView(pixel_aimed_view().intrinsics,
                          look_at((0.0, 0.0, 0.0), (1.0, 0.1, 0.05)), 32, 32)
        spec = VoxelGridSpec((5, 1, 1), (-3.5, -0.5, -0.5), (1.0, 1.0, 1.0))
        props = constant_proposals((8, 8), [1.0], [1.0])
        items = [(np.full((8, 8, 2), 0.5), view, props)]
        grid = self.assert_volume_matches(items, spec, window=0.2)
        assert grid.valid_count.ravel().tolist() == [0, 0, 0, 0, 1]

    def test_full_k_and_unbounded_window(self):
        # k = M with window=inf gates in every voxel a view sees: the vanilla
        # volume with confidence weights.
        views = TestVanillaMatchesOracle.scene_views(1)
        planes = DepthPlanes.uniform(6, 0.5, 4.5)
        items, _ = self.random_items(views, 3, planes=planes)
        items = [(f, v, self.assert_topk_matches(p, planes, 6)) for f, v, p in items]
        spec = VoxelGridSpec((20, 20, 8), (-3.2, -3.2, 0.0), (0.32, 0.32, 0.4))
        self.assert_volume_matches(items, spec, window=np.inf)

    def test_vanilla_volume(self):
        from sampling_reference import build_volume_every_voxel

        views = TestVanillaMatchesOracle.scene_views(7)
        rng = np.random.default_rng(4)
        feats = [rng.normal(0.0, 1.0, (v.height // 4, v.width // 4, 3)) for v in views]
        spec = VoxelGridSpec((7, 5, 3), (-4.2, -4.0, -1.0), (1.2, 1.6, 1.8))
        grid = vanilla_through_engine(list(zip(feats, views)), spec)
        ref = build_volume_every_voxel(
            [(f, v, proposals_from_depth(np.zeros(f.shape[:2]))) for f, v in zip(feats, views)],
            spec, np.inf,
        )
        for name in ("feature_mean", "score", "valid_count"):
            assert getattr(grid, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_view_that_sees_no_voxel(self):
        # The second view faces away from the grid; negative features make
        # every skipped voxel's product -0.0, which adds nothing.
        view = pixel_aimed_view()
        away = CameraView(view.intrinsics, Pose(np.diag([-1.0, 1.0, -1.0]), np.zeros(3)), 32, 32)
        spec = VoxelGridSpec((4, 4, 3), (-0.4, -0.4, 1.0), (0.2, 0.2, 0.5))
        props = constant_proposals((8, 8), [1.25, 1.75], [0.6, 0.4])
        items = [(np.full((8, 8, 2), -0.5), view, props), (np.full((8, 8, 2), -2.0), away, props)]
        grid = self.assert_volume_matches(items, spec, window=0.2)
        assert grid.valid_count.max() == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_feature(self, bad):
        # A skipped voxel would have added 0 * inf = NaN, so the identity
        # with adding over every voxel needs finite features.
        feat = np.ones((8, 8, 2))
        feat[7, 0, 1] = bad
        props = constant_proposals((8, 8), [2.0], [1.0])
        items = [(np.ones((8, 8, 2)), pixel_aimed_view(), props), (feat, pixel_aimed_view(), props)]
        with pytest.raises(ValueError, match="view 1: feature map has 1 non-finite values"):
            build_volume(items, single_voxel_spec(), window=0.2)


@functools.lru_cache(maxsize=1)
def scene_proposals():
    """Seed 1's ten views with random six-channel features and top-3
    proposals of random probabilities."""
    items, planes = TestMatchesPerViewAggregation.random_items(
        TestVanillaMatchesOracle.scene_views(1), 5
    )
    return [(f, v, sample_topk(p, planes, 3)) for f, v, p in items]


class TestBuildVolumeMemory:
    # Traced peak bytes of one build_volume per voxel of the default 40x40x16
    # grid, for 8 views of 80x60 six-channel features with 3 proposals each.
    # Measured 155: the voxel centers take 24, the (C, N) feature sums and
    # the weight and gate sums 64, each voxel's cube index 8, and the rest is
    # one view's work on the 28% of centers that its frustum's cubes keep.
    # Projecting every center into every view peaked at 200, and the
    # aggregation that computed over every voxel for every view at 331.
    BYTES_PER_VOXEL = 180

    def test_peak(self):
        import tracemalloc

        views = TestVanillaMatchesOracle.scene_views(1)[:8]
        items, planes = TestMatchesPerViewAggregation.random_items(views, 1)
        items = [(f, v, sample_topk(p, planes, 3)) for f, v, p in items]
        spec = VoxelGridSpec((40, 40, 16), (-3.2, -3.2, 0.0), (0.16, 0.16, 0.2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_volume(items, spec, window=0.2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= self.BYTES_PER_VOXEL * spec.n_voxels


class TestDegenerateToVanilla:
    def test_uniform_full_k_wide_window_matches_vanilla(self):
        # Uniform B, k = M, window >= depth range: the depth-aware volume's
        # confidence-weighted mean collapses to the vanilla mean and the
        # score is 1/M wherever any view projects.
        scene = generate_scene(seed=12, n_boxes=1)
        views = make_trajectory(scene, 3, seed=3, image_size=(64, 48))
        planes = DepthPlanes.uniform(6, 0.2, 5.0)
        rng = np.random.default_rng(7)
        feats = [rng.uniform(0, 1, (12, 16, 4)) for _ in views]
        uniform = np.full((12, 16, 6), 1.0 / 6)
        props = [sample_topk(uniform, planes, 6) for _ in views]
        spec = VoxelGridSpec((8, 8, 4), (-3.2, -3.2, 0.0), (0.8, 0.8, 0.8))
        aware = build_volume(
            [(f, v, p) for f, v, p in zip(feats, views, props)], spec, window=5.0
        )
        vanilla = build_volume_vanilla([(f, v) for f, v in zip(feats, views)], spec)
        seen = vanilla.valid_count > 0
        np.testing.assert_allclose(
            aware.feature_mean[seen], vanilla.feature_mean[seen], atol=1e-6
        )
        np.testing.assert_allclose(aware.score[seen], 1.0 / 6, atol=1e-9)


class TestProposalsFromDepth:
    def test_single_full_confidence_entry(self):
        depth = np.array([[1.5, 2.5], [3.5, 0.7]])
        ps = proposals_from_depth(depth)
        assert ps.plane_indices.shape == ps.scores.shape == (2, 2, 1)
        np.testing.assert_allclose(ps.scores, 1.0)
        np.testing.assert_allclose(ps.depths[..., 0], depth)


class TestVoxelGridSpec:
    def test_centers(self):
        spec = VoxelGridSpec((2, 1, 1), (0.0, 0.0, 0.0), (1.0, 1.0, 2.0))
        c = spec.centers()
        assert c.shape == (2, 1, 1, 3)
        np.testing.assert_allclose(c[0, 0, 0], [0.5, 0.5, 1.0])
        np.testing.assert_allclose(c[1, 0, 0], [1.5, 0.5, 1.0])

    def test_default(self):
        spec = VoxelGridSpec((40, 40, 16), (-3.2, -3.2, 0.0), (0.16, 0.16, 0.2))
        assert spec.n_voxels == 25600
        c = spec.centers()
        np.testing.assert_allclose(c[0, 0, 0], [-3.12, -3.12, 0.1])
        np.testing.assert_allclose(c[-1, -1, -1], [3.12, 3.12, 3.1])

    @given(st.integers(0, 3))
    @settings(max_examples=10)
    def test_rejects_bad_dims(self, z):
        if z == 0:
            with pytest.raises(ValueError):
                VoxelGridSpec((1, 1, 0), (0, 0, 0), (1, 1, 1))
