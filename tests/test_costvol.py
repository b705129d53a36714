import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsweep.camera import CameraView, Intrinsics, Pose, look_at, nearest_views
from mvsweep.costvol import (
    CostVolume,
    DepthPlanes,
    bilinear_sample,
    block_mean,
    build_cost_volume,
    cost_to_probability,
    eval_depth,
    extract_features,
    regress_depth,
)
from mvsweep.scenegen import generate_scene, make_trajectory, raycast


def simple_view(width=32, height=32, f=40.0, pose=None):
    k = Intrinsics(f, f, (width - 1) / 2, (height - 1) / 2)
    return CameraView(k, pose or Pose.identity(), width, height)


class TestDepthPlanes:
    def test_default_configuration(self):
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        assert planes.count == 12
        assert planes.spacing == pytest.approx(4.8 / 11, abs=1e-12)
        assert planes.spacing == pytest.approx(0.436, abs=1e-3)

    def test_rejects_single_plane(self):
        with pytest.raises(ValueError):
            DepthPlanes(np.array([1.0]))

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            DepthPlanes(np.array([1.0, 2.0, 4.0]))

    def test_nearest_index(self):
        planes = DepthPlanes(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(
            planes.nearest_index(np.array([0.2, 1.49, 1.51, 2.5, 9.0])),
            [0, 0, 1, 1, 2],  # 2.5 ties to the lower plane index
        )


class TestExtractFeatures:
    def test_constant_image(self):
        img = np.full((16, 16, 3), 0.4)
        f = extract_features(img)
        assert f.shape == (4, 4, 6)
        np.testing.assert_allclose(f[..., :3], 0.4, atol=1e-12)
        np.testing.assert_allclose(f[..., 3:], 0.0, atol=1e-12)

    def test_vertical_step_edge(self):
        # Luminance step between pooled columns 1 and 2: Sobel-x fires on the
        # two adjacent columns, Sobel-y stays identically zero.
        img = np.zeros((16, 32, 3))
        img[:, 16:, :] = 1.0
        f = extract_features(img)
        gx, gy = f[..., 3], f[..., 4]
        np.testing.assert_allclose(gy, 0.0, atol=1e-12)
        assert np.all(gx[:, 3] > 0.4) and np.all(gx[:, 4] > 0.4)
        np.testing.assert_allclose(gx[:, 0], 0.0, atol=1e-12)
        # Hand evaluation: columns at distance 1 from the step see the
        # [1,2,1]-smoothed difference (0+1) - (0+0) ... = 4/8 = 0.5.
        assert gx[2, 3] == pytest.approx(0.5, abs=1e-12)

    def test_paper_resolution_shape(self):
        img = np.zeros((240, 320, 3))
        assert extract_features(img).shape == (60, 80, 6)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            extract_features(np.zeros((10, 16, 3)))

    def test_block_mean_values(self):
        img = np.arange(16, dtype=np.float64).reshape(4, 4)[..., None] * np.ones(3)
        m = block_mean(img, 4)
        np.testing.assert_allclose(m[0, 0], np.arange(16).mean())


class TestSelectSourceViews:
    def _views_on_line(self, xs):
        return [
            CameraView(
                Intrinsics(40.0, 40.0, 15.5, 15.5),
                Pose(np.eye(3), np.array([-x, 0.0, 0.0])),
                32,
                32,
            )
            for x in xs
        ]

    def test_line_middle_gets_neighbors(self):
        views = self._views_on_line([0.0, 1.0, 2.0])
        assert set(nearest_views(views, views[1], 2, exclude=1)) == {0, 2}

    def test_all_others(self):
        views = self._views_on_line([0.0, 1.0, 2.0, 3.5])
        assert sorted(nearest_views(views, views[0], 3, exclude=0)) == [1, 2, 3]

    def test_tie_prefers_lower_index(self):
        views = self._views_on_line([0.0, -1.0, 1.0])
        assert nearest_views(views, views[0], 1, exclude=0) == [1]

    def test_nearest_first(self):
        views = self._views_on_line([0.0, 3.0, 0.5, 1.0])
        assert nearest_views(views, views[0], 2, exclude=0) == [2, 3]

    def test_count_must_leave_reference(self):
        views = self._views_on_line([0.0, 1.0])
        with pytest.raises(ValueError):
            nearest_views(views, views[0], 2, exclude=0)


class TestBuildCostVolume:
    def test_identical_views_zero_variance(self):
        # Source == reference: the identity warp resamples the same grid at
        # integer coordinates, so variance vanishes at every plane.
        rng = np.random.default_rng(0)
        view = simple_view()
        feat = rng.uniform(0, 1, size=(8, 8, 6))
        planes = DepthPlanes.uniform(4, 0.5, 3.5)
        vol = build_cost_volume(feat, view, [feat], [view], planes)
        np.testing.assert_allclose(vol.costs, 0.0, atol=1e-12)
        assert np.all(vol.valid_views == 2)

    def test_two_view_variance_arithmetic(self):
        # Channel values 0 (reference) and 2 (source): population variance
        # over {0, 2} is 1.
        view = simple_view()
        ref = np.zeros((8, 8, 6))
        src = np.full((8, 8, 6), 2.0)
        planes = DepthPlanes.uniform(3, 1.0, 3.0)
        vol = build_cost_volume(ref, view, [src], [view], planes)
        np.testing.assert_allclose(vol.costs, 1.0, atol=1e-12)

    def test_source_behind_plane_gets_penalty(self):
        # Source camera looks the opposite way: every warp lands behind it,
        # leaving only the reference, so all costs become the penalty.
        ref_view = simple_view()
        flipped = Pose(np.diag([-1.0, 1.0, -1.0]), np.zeros(3))
        src_view = simple_view(pose=flipped)
        rng = np.random.default_rng(1)
        feat = rng.uniform(0, 1, size=(8, 8, 6))
        planes = DepthPlanes.uniform(3, 1.0, 3.0)
        vol = build_cost_volume(feat, ref_view, [feat], [src_view], planes, cost_penalty=10.0)
        np.testing.assert_allclose(vol.costs, 10.0)
        assert np.all(vol.valid_views == 1)

    def test_requires_sources(self):
        view = simple_view()
        with pytest.raises(ValueError):
            build_cost_volume(np.zeros((8, 8, 6)), view, [], [], DepthPlanes.uniform(3, 1, 3))

    def test_costs_nonnegative_on_real_scene(self):
        scene = generate_scene(seed=2, n_boxes=1)
        views = make_trajectory(scene, 3, seed=0, image_size=(64, 48))
        feats = [extract_features(raycast(scene, v).image) for v in views]
        planes = DepthPlanes.uniform(6, 0.5, 4.5)
        vol = build_cost_volume(feats[0], views[0], feats[1:], views[1:], planes)
        assert np.all(vol.costs >= 0)
        assert vol.valid_views.min() >= 1 and vol.valid_views.max() <= 3


class TestCostToProbability:
    def test_uniform_costs_give_uniform_probability(self):
        costs = np.full((4, 4, 6, 5), 0.3)
        vol = CostVolume(costs, np.full((4, 4, 5), 3))
        probs = cost_to_probability(vol, temperature=0.05)
        np.testing.assert_allclose(probs, 1.0 / 5, atol=1e-12)

    def test_low_cost_plane_wins_at_small_temperature(self):
        costs = np.full((2, 2, 6, 4), 10.0)
        costs[..., 2] = 0.0
        vol = CostVolume(costs, np.full((2, 2, 4), 3))
        probs = cost_to_probability(vol, temperature=1e-3)
        assert np.all(probs[..., 2] > 0.999)

    def test_softmax_arithmetic(self):
        # Two planes with smoothed scores (-1, -2) at temperature 1.
        costs = np.zeros((1, 1, 6, 2))
        costs[..., 0] = 1.0
        costs[..., 1] = 2.0
        vol = CostVolume(costs, np.full((1, 1, 2), 3))
        probs = cost_to_probability(vol, temperature=1.0)
        assert probs[0, 0, 0] == pytest.approx(np.e / (np.e + 1.0), abs=1e-9)
        assert probs[0, 0, 1] == pytest.approx(1.0 / (np.e + 1.0), abs=1e-9)

    def test_normalized(self):
        rng = np.random.default_rng(3)
        costs = rng.uniform(0, 2, size=(6, 7, 6, 9))
        vol = CostVolume(costs, np.full((6, 7, 9), 3))
        probs = cost_to_probability(vol, temperature=0.05)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_monotone_trust_without_smoothing(self):
        # Lowering one plane's cost must not lower its probability.
        rng = np.random.default_rng(4)
        costs = rng.uniform(0.1, 1.0, size=(3, 3, 6, 5))
        vol = CostVolume(costs, np.full((3, 3, 5), 3))
        base = cost_to_probability(vol, temperature=0.05, smooth=False)
        lowered = costs.copy()
        lowered[..., 2] -= 0.05
        vol2 = CostVolume(lowered, vol.valid_views)
        after = cost_to_probability(vol2, temperature=0.05, smooth=False)
        assert np.all(after[..., 2] >= base[..., 2] - 1e-12)

    @pytest.mark.parametrize("shape", [(1, 7, 6, 5), (9, 1, 6, 5), (1, 1, 6, 3), (12, 16, 6, 12)])
    def test_matches_per_slice_oracle(self, shape):
        # Smoothing all slices at once gives the bytes of smoothing each
        # slice alone, on 1-wide and 1-high grids as well.
        from costvol_reference import cost_to_probability as reference_probability

        costs = np.random.default_rng(8).uniform(0, 2, size=shape)
        vol = CostVolume(costs, np.full(shape[:2] + shape[3:], 3))
        assert_bytes_equal(cost_to_probability(vol, temperature=0.05),
                           reference_probability(vol, temperature=0.05))

    def test_rejects_bad_temperature(self):
        vol = CostVolume(np.zeros((1, 1, 6, 2)), np.full((1, 1, 2), 3))
        with pytest.raises(ValueError):
            cost_to_probability(vol, temperature=0.0)


class TestRegressDepth:
    def test_one_hot(self):
        planes = DepthPlanes(np.array([1.0, 2.0, 3.0]))
        probs = np.zeros((2, 2, 3))
        probs[..., 1] = 1.0
        np.testing.assert_allclose(regress_depth(probs, planes), 2.0)

    def test_uniform_gives_mean(self):
        planes = DepthPlanes(np.array([1.0, 2.0, 3.0]))
        probs = np.full((2, 2, 3), 1.0 / 3)
        np.testing.assert_allclose(regress_depth(probs, planes), 2.0)

    def test_weighted(self):
        planes = DepthPlanes(np.array([1.0, 3.0]))
        probs = np.array([[[0.25, 0.75]]])
        assert regress_depth(probs, planes)[0, 0] == pytest.approx(2.5)


class TestEvalDepth:
    def test_perfect(self):
        gt = np.full((4, 4), 2.0)
        m = eval_depth(gt, gt, np.ones_like(gt, dtype=bool))
        assert m.rmse == 0.0 and m.abs_rel == 0.0

    def test_constant_offset(self):
        gt = np.full((4, 4), 2.0)
        m = eval_depth(gt + 0.1, gt, np.ones_like(gt, dtype=bool))
        assert m.rmse == pytest.approx(0.1, abs=1e-12)
        assert m.abs_rel == pytest.approx(0.05, abs=1e-12)

    def test_two_pixel_arithmetic(self):
        gt = np.array([[1.0, 1.0]])
        pred = np.array([[1.0, 1.2]])
        m = eval_depth(pred, gt, np.ones_like(gt, dtype=bool))
        assert m.rmse == pytest.approx(np.sqrt(0.02), abs=1e-12)

    def test_empty_mask_raises(self):
        gt = np.ones((2, 2))
        with pytest.raises(ValueError):
            eval_depth(gt, gt, np.zeros_like(gt, dtype=bool))


class TestBilinear:
    def test_integer_coords_exact(self):
        rng = np.random.default_rng(5)
        grid = rng.uniform(0, 1, size=(6, 7, 3))
        u = np.array([0.0, 3.0, 6.0])
        v = np.array([0.0, 2.0, 5.0])
        np.testing.assert_allclose(
            bilinear_sample(grid, u, v), grid[v.astype(int), u.astype(int)], atol=1e-15
        )

    def test_midpoint_average(self):
        grid = np.zeros((2, 2, 1))
        grid[0, 1, 0] = 1.0
        assert bilinear_sample(grid, np.array([0.5]), np.array([0.0]))[0, 0] == pytest.approx(0.5)

    def test_non_finite_coordinates_rejected(self):
        grid = np.zeros((4, 5, 2))
        u = np.array([0.0, np.nan, 1.0, np.inf])
        v = np.array([0.0, 1.0, -np.inf, 2.0])
        with pytest.raises(ValueError, match="3 sample coordinates are not finite"):
            bilinear_sample(grid, u, v)

    @settings(max_examples=30)
    @given(u=st.floats(-0.5, 6.5), v=st.floats(-0.5, 5.5))
    def test_stays_in_convex_hull(self, u, v):
        rng = np.random.default_rng(6)
        grid = rng.uniform(0, 1, size=(6, 7, 2))
        s = bilinear_sample(grid, np.array([u]), np.array([v]))
        assert np.all(s >= grid.min() - 1e-12) and np.all(s <= grid.max() + 1e-12)


class TestSyntheticDepthSanity:
    def test_argmax_plane_matches_ground_truth(self):
        # On a textured scene with 3 views, the most likely plane should be
        # the one nearest to GT depth for the bulk of in-range pixels that
        # carry a multi-view constraint (surface point observed by both
        # sources).  Calibrated on the first oracle run and pinned at 80%.
        from mvsweep.scenegen import multiview_coverage, quarter_depth

        scene = generate_scene(seed=31, n_boxes=0)
        views = make_trajectory(scene, 3, seed=7)
        gts = [raycast(scene, v) for v in views]
        feats = [extract_features(g.image) for g in gts]
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        srcs = nearest_views(views, views[0], 2, exclude=0)
        vol = build_cost_volume(
            feats[0], views[0], [feats[i] for i in srcs], [views[i] for i in srcs], planes
        )
        probs = cost_to_probability(vol, temperature=5e-4)
        gt_q = quarter_depth(gts[0].depth)
        depths = [g.depth for g in gts]
        mask = (
            (gt_q >= planes.depths[0])
            & (gt_q <= planes.depths[-1])
            & (multiview_coverage(views, depths, 0, srcs) >= 2)
        )
        predicted = probs.argmax(axis=2)
        expected = planes.nearest_index(gt_q)
        agree = (predicted == expected)[mask].mean()
        assert agree >= 0.80


def assert_bytes_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_sweep_matches_oracle(ref_feat, ref_view, src_feats, src_views, planes):
    from costvol_reference import build_cost_volume as reference_build

    vol = build_cost_volume(ref_feat, ref_view, src_feats, src_views, planes)
    ref = reference_build(ref_feat, ref_view, src_feats, src_views, planes)
    assert_bytes_equal(vol.costs, ref.costs)
    assert_bytes_equal(vol.valid_views, ref.valid_views)
    return vol, ref


class TestSweepMatchesOracle:
    """The plane sweep reproduces the pixel-major, masked-scatter oracle in
    `tests/costvol_reference.py` to the bit."""

    def test_textured_scene(self):
        scene = generate_scene(seed=31, n_boxes=0)
        views = make_trajectory(scene, 3, seed=7)
        feats = [extract_features(raycast(scene, v).image) for v in views]
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        srcs = nearest_views(views, views[0], 2, exclude=0)
        vol, ref = assert_sweep_matches_oracle(
            feats[0], views[0], [feats[i] for i in srcs], [views[i] for i in srcs], planes
        )
        assert_bytes_equal(
            cost_to_probability(vol, temperature=5e-4), cost_to_probability(ref, temperature=5e-4)
        )

    def test_source_behind_camera(self):
        ref_view = simple_view()
        src_view = simple_view(pose=Pose(np.diag([-1.0, 1.0, -1.0]), np.zeros(3)))
        feat = np.random.default_rng(1).uniform(0, 1, size=(8, 8, 6))
        planes = DepthPlanes.uniform(3, 1.0, 3.0)
        vol, _ = assert_sweep_matches_oracle(feat, ref_view, [feat], [src_view], planes)
        assert np.all(vol.valid_views == 1)

    def test_partial_overlap_on_non_square_grid(self):
        # A sideways baseline pushes part of every plane off the source grid,
        # so penalty cells and valid cells mix on one plane.
        rng = np.random.default_rng(2)
        ref_view = simple_view(width=64, height=48)
        src_view = simple_view(width=64, height=48, pose=Pose(np.eye(3), np.array([0.5, 0.0, 0.0])))
        ref_feat = rng.uniform(0, 1, size=(12, 16, 6))
        src_feat = rng.uniform(0, 1, size=(12, 16, 6))
        planes = DepthPlanes.uniform(5, 1.0, 3.0)
        vol, _ = assert_sweep_matches_oracle(ref_feat, ref_view, [src_feat], [src_view], planes)
        for mi in range(planes.count):
            counts = vol.valid_views[:, :, mi]
            assert (counts == 1).any() and (counts == 2).any()

    def test_rotated_sources_on_non_square_grid(self):
        rng = np.random.default_rng(3)
        k = Intrinsics(50.0, 50.0, 39.5, 23.5)
        poses = [look_at((0.1 * i, -0.05 * i, 0.0), (0.0, 0.0, 2.5), up=(0.0, -1.0, 0.0))
                 for i in range(3)]
        views = [CameraView(k, pose, 80, 48) for pose in poses]
        feats = [rng.uniform(-1, 1, size=(12, 20, 6)) for _ in views]
        planes = DepthPlanes.uniform(7, 0.5, 4.0)
        assert_sweep_matches_oracle(feats[0], views[0], feats[1:], views[1:], planes)

    def test_one_cell_wide_grid(self):
        rng = np.random.default_rng(4)
        ref_view = simple_view(width=4, height=32)
        src_view = simple_view(width=4, height=32, pose=Pose(np.eye(3), np.array([0.0, 0.2, 0.0])))
        ref_feat = rng.uniform(0, 1, size=(8, 1, 6))
        src_feat = rng.uniform(0, 1, size=(8, 1, 6))
        planes = DepthPlanes.uniform(4, 1.0, 4.0)
        assert_sweep_matches_oracle(ref_feat, ref_view, [src_feat], [src_view], planes)

    @pytest.mark.parametrize("shape", [(6, 7, 3), (5, 1, 2), (1, 5, 2), (12, 16, 6)])
    def test_bilinear_sample_on_border_band(self, shape):
        from costvol_reference import bilinear_sample as reference_sample

        rng = np.random.default_rng(5)
        grid = rng.uniform(-1, 1, size=shape)
        h, w = shape[:2]
        u = rng.uniform(-0.5, w - 0.5, size=400)
        v = rng.uniform(-0.5, h - 0.5, size=400)
        # Exact band edges and integer coordinates as well.
        u[:6] = [-0.5, w - 0.5, 0.0, w - 1.0, -0.5, w - 0.5]
        v[:6] = [-0.5, h - 0.5, 0.0, h - 1.0, h - 0.5, -0.5]
        assert_bytes_equal(bilinear_sample(grid, u, v), reference_sample(grid, u, v))
