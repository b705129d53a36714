import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsweep.camera import CameraView, Intrinsics, Pose
from mvsweep.costvol import DepthPlanes, extract_features
from mvsweep.sampling import (
    DepthProposalSet,
    VoxelGrid,
    VoxelGridSpec,
    build_volume,
    build_volume_vanilla,
    proposals_from_depth,
    sample_topk,
)
from mvsweep.scenegen import generate_scene, make_trajectory, raycast

from sampling_reference import gate_and_weight


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
        assert ps.k == 3
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
    return CameraView(k, Pose.identity(), width, height)


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
        np.testing.assert_allclose(grid.feature[0, 0, 0], [2.1, -0.7], atol=1e-12)

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
        np.testing.assert_array_equal(grid.feature, 0.0)

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
        np.testing.assert_allclose(grid.feature, grid.score[..., None] * grid.feature_mean)

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


class TestBuildVolumeVanilla:
    def test_single_view(self):
        view = pixel_aimed_view()
        feat = np.full((8, 8, 2), 0.6)
        grid = build_volume_vanilla([(feat, view)], single_voxel_spec())
        np.testing.assert_allclose(grid.feature_mean[0, 0, 0], 0.6)
        assert grid.score[0, 0, 0] == 1.0

    def test_constant_invariance(self):
        view = pixel_aimed_view()
        feat = np.full((8, 8, 2), 0.4)
        grid = build_volume_vanilla([(feat, view), (feat, view)], single_voxel_spec())
        np.testing.assert_allclose(grid.feature_mean[0, 0, 0], 0.4)

    def test_two_view_mean(self):
        view = pixel_aimed_view()
        f1 = np.zeros((8, 8, 2))
        f1[..., 0] = 1.0
        f2 = np.zeros((8, 8, 2))
        f2[..., 1] = 1.0
        grid = build_volume_vanilla([(f1, view), (f2, view)], single_voxel_spec())
        np.testing.assert_allclose(grid.feature_mean[0, 0, 0], [0.5, 0.5])

    def test_invisible_voxel_zero(self):
        view = pixel_aimed_view()
        grid = build_volume_vanilla(
            [(np.ones((8, 8, 2)), view)], single_voxel_spec(center=(0, 0, -1.0))
        )
        assert grid.score[0, 0, 0] == 0.0


class TestVanillaMatchesOracle:
    """The vanilla volume reproduces the per-view loop in
    `tests/sampling_reference.py` to the bit."""

    @staticmethod
    def assert_matches(views, spec, seed):
        from sampling_reference import build_volume_vanilla as reference_vanilla

        rng = np.random.default_rng(seed)
        items = [(rng.normal(0.0, 1.0, (v.height // 4, v.width // 4, 6)), v) for v in views]
        grid = build_volume_vanilla(items, spec)
        ref = reference_vanilla(items, spec)
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
        assert all((v.pose.transform(centers)[:, 2] <= 0).any() for v in views)
        self.assert_matches(views, spec, seed)


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
        assert ps.k == 1
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
