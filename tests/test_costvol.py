import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsweep import camera, costvol
from mvsweep.camera import CameraView, Intrinsics, Pose, look_at, nearest_views
from mvsweep.costvol import (
    CostVolume,
    DepthPlanes,
    block_mean,
    build_cost_volume,
    cost_to_probability,
    eval_depth,
    extract_features,
    regress_depth,
)
from mvsweep.harness.config import MAX_MAGNITUDE
from mvsweep.scenegen import generate_scene, make_trajectory, raycast

from camera_reference import identity_pose
from costvol_reference import nearest_plane_index
from warp_adaptor import bilinear_sample


def simple_view(width=32, height=32, f=40.0, pose=None):
    k = Intrinsics(f, f, (width - 1) / 2, (height - 1) / 2)
    return CameraView(k, pose or identity_pose(), width, height)


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

    @pytest.mark.parametrize("first", [0.0, -0.5])
    def test_rejects_nonpositive_first_plane(self, first):
        # The sweep's warp takes plane depths as given: this guard is what
        # keeps them in front of the reference camera.
        with pytest.raises(ValueError, match="plane depths must be positive"):
            DepthPlanes(first + np.arange(3.0))

    def test_nearest_index(self):
        planes = DepthPlanes(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(
            nearest_plane_index(planes, np.array([0.2, 1.49, 1.51, 2.5, 9.0])),
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
        m = block_mean(img)
        np.testing.assert_allclose(m[0, 0], np.arange(16).mean())


class TestBlockMeanMatchesOracle:
    """The strided block mean gives the bytes of numpy's mean over the block
    axes (`tests/costvol_reference.py`) for every grid of two channels or
    more.  numpy sums a 2-D or one-channel grid in another order, so there
    the two agree within 1e-15 relative on non-negative (image) values."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_multi_channel_bytes(self, bh, bw, c, seed):
        from costvol_reference import block_mean as reference_block_mean

        rng = np.random.default_rng(seed)
        shape = (4 * bh, 4 * bw, c)
        img = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        assert_bytes_equal(block_mean(img), reference_block_mean(img))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1))
    def test_single_channel_within_1e_15(self, bh, bw, flat, seed):
        from costvol_reference import block_mean as reference_block_mean

        shape = (4 * bh, 4 * bw) if flat else (4 * bh, 4 * bw, 1)
        img = np.random.default_rng(seed).uniform(0.0, 1.0, shape)
        m, ref = block_mean(img), reference_block_mean(img)
        assert m.shape == ref.shape and m.dtype == ref.dtype
        assert np.all(np.abs(m - ref) <= 1e-15 * ref)

    def test_scene_image(self):
        from costvol_reference import block_mean as reference_block_mean

        scene = generate_scene(seed=3, n_boxes=2)
        image = raycast(scene, make_trajectory(scene, 2, seed=3)[0]).image
        assert_bytes_equal(block_mean(image), reference_block_mean(image))


class TestSoftmaxMatchesOracle:
    @pytest.mark.parametrize("shape", [(7,), (5, 6, 12), (3, 4, 1)])
    def test_bytes(self, shape):
        from costvol_reference import softmax as reference_softmax

        z = np.random.default_rng(len(shape)).normal(0.0, 30.0, shape)
        assert_bytes_equal(costvol.softmax(z), reference_softmax(z))


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
        vol = build_cost_volume(feat, view, [feat], [view], planes, cost_penalty=10.0)
        np.testing.assert_allclose(vol.costs, 0.0, atol=1e-12)
        assert np.all(vol.valid_views == 2)

    def test_two_view_variance_arithmetic(self):
        # Channel values 0 (reference) and 2 (source): population variance
        # over {0, 2} is 1.
        view = simple_view()
        ref = np.zeros((8, 8, 6))
        src = np.full((8, 8, 6), 2.0)
        planes = DepthPlanes.uniform(3, 1.0, 3.0)
        vol = build_cost_volume(ref, view, [src], [view], planes, cost_penalty=10.0)
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

    @pytest.mark.parametrize("far", [MAX_MAGNITUDE, 1e300])
    def test_far_planes_and_a_source_behind_warn_of_nothing(self, far):
        # Planes out to the config's bound and to 1e300, seen by a source
        # beside the reference and by one facing away from it: every warp
        # coordinate stays finite, and nothing overflows or divides by zero.
        ref_view = simple_view()
        beside = simple_view(pose=Pose(np.eye(3), np.array([0.3, 0.0, 0.0])))
        behind = simple_view(pose=Pose(np.diag([-1.0, 1.0, -1.0]), np.zeros(3)))
        feat = np.random.default_rng(9).uniform(0, 1, size=(8, 8, 6))
        planes = DepthPlanes.uniform(4, 0.5, far)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vol = build_cost_volume(feat, ref_view, [feat, feat], [beside, behind], planes,
                                    cost_penalty=10.0)
        assert np.all(np.isfinite(vol.costs)) and np.all(vol.costs >= 0)
        assert vol.valid_views.min() == 1 and vol.valid_views.max() == 2

    def test_requires_sources(self):
        view = simple_view()
        with pytest.raises(ValueError):
            build_cost_volume(np.zeros((8, 8, 6)), view, [], [], DepthPlanes.uniform(3, 1, 3),
                              cost_penalty=10.0)

    def test_source_grid_must_match_its_view(self):
        # A 5x3 grid for an 8x8 source view used to be sampled with its own
        # size and bounds-tested against the view's grid, with no error.
        view = simple_view()
        feat = np.zeros((8, 8, 6))
        planes = DepthPlanes.uniform(3, 1.0, 3.0)
        with pytest.raises(ValueError, match=r"source 1: feature grid 5x3 .* 8x8 quarter grid"):
            build_cost_volume(feat, view, [feat, np.zeros((5, 3, 6))], [view, view], planes,
                              cost_penalty=10.0)

    def test_source_grid_must_have_the_reference_channels(self):
        view = simple_view()
        feat = np.zeros((8, 8, 6))
        planes = DepthPlanes.uniform(3, 1.0, 3.0)
        with pytest.raises(
            ValueError, match=r"source 1: feature grid \(8, 8, 3\) .* reference's 6 channels"
        ):
            build_cost_volume(feat, view, [feat, np.zeros((8, 8, 3))], [view, view], planes,
                              cost_penalty=10.0)

    def test_reference_grid_must_match_its_view(self):
        view = simple_view()
        planes = DepthPlanes.uniform(3, 1.0, 3.0)
        with pytest.raises(ValueError, match=r"reference feature grid 5x3 .* 8x8 quarter grid"):
            build_cost_volume(np.zeros((5, 3, 6)), view, [np.zeros((8, 8, 6))], [view], planes,
                              cost_penalty=10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_descriptors(self, bad):
        # One NaN in a source grid used to spread into NaN costs and
        # probabilities without an error or a warning.
        view = simple_view()
        planes = DepthPlanes.uniform(3, 1.0, 3.0)
        feat = np.zeros((8, 8, 6))
        broken = feat.copy()
        broken[2, 3, 4] = broken[5, 1, 0] = bad
        with pytest.raises(ValueError, match="source 1: feature grid has 2 non-finite values"):
            build_cost_volume(feat, view, [feat, broken], [view, view], planes, cost_penalty=10.0)
        with pytest.raises(ValueError, match="reference feature grid has 2 non-finite values"):
            build_cost_volume(broken, view, [feat], [view], planes, cost_penalty=10.0)

    def test_sweep_warps_through_the_camera_warp(self, monkeypatch):
        # Every (plane, source) step calls camera.plane_warp, and the costs
        # do not depend on how it is looked up.
        scene = generate_scene(seed=2, n_boxes=1)
        views = make_trajectory(scene, 4, seed=0, image_size=(64, 48))
        feats = [extract_features(raycast(scene, v).image) for v in views]
        planes = DepthPlanes.uniform(5, 0.5, 4.5)
        args = (feats[0], views[0], feats[1:], views[1:], planes, 10.0)
        expected = build_cost_volume(*args)
        depths = []

        def counted(a, b, depth, *buffers):
            depths.append(depth)
            camera.plane_warp(a, b, depth, *buffers)

        monkeypatch.setattr(costvol, "plane_warp", counted)
        vol = build_cost_volume(*args)
        assert depths == [d for d in planes.depths for _ in views[1:]]
        assert vol.costs.tobytes() == expected.costs.tobytes()
        assert vol.valid_views.tobytes() == expected.valid_views.tobytes()

    def test_costs_nonnegative_on_real_scene(self):
        scene = generate_scene(seed=2, n_boxes=1)
        views = make_trajectory(scene, 3, seed=0, image_size=(64, 48))
        feats = [extract_features(raycast(scene, v).image) for v in views]
        planes = DepthPlanes.uniform(6, 0.5, 4.5)
        vol = build_cost_volume(feats[0], views[0], feats[1:], views[1:], planes, cost_penalty=10.0)
        assert np.all(vol.costs >= 0)
        assert vol.valid_views.min() >= 1 and vol.valid_views.max() <= 3


def channel_mean_volume(costs):
    """An engine cost volume from per-channel (H, W, C, M) costs: their
    channel mean, as the per-channel oracles reduce them, with 3 views
    everywhere."""
    return CostVolume(costs.mean(axis=2), np.full(costs.shape[:2] + costs.shape[3:], 3))


class TestCostToProbability:
    def test_uniform_costs_give_uniform_probability(self):
        vol = channel_mean_volume(np.full((4, 4, 6, 5), 0.3))
        probs = cost_to_probability(vol, temperature=0.05)
        np.testing.assert_allclose(probs, 1.0 / 5, atol=1e-12)

    def test_low_cost_plane_wins_at_small_temperature(self):
        costs = np.full((2, 2, 6, 4), 10.0)
        costs[..., 2] = 0.0
        probs = cost_to_probability(channel_mean_volume(costs), temperature=1e-3)
        assert np.all(probs[..., 2] > 0.999)

    def test_softmax_arithmetic(self):
        # Two planes with smoothed scores (-1, -2) at temperature 1.
        costs = np.zeros((1, 1, 6, 2))
        costs[..., 0] = 1.0
        costs[..., 1] = 2.0
        probs = cost_to_probability(channel_mean_volume(costs), temperature=1.0)
        assert probs[0, 0, 0] == pytest.approx(np.e / (np.e + 1.0), abs=1e-9)
        assert probs[0, 0, 1] == pytest.approx(1.0 / (np.e + 1.0), abs=1e-9)

    def test_normalized(self):
        rng = np.random.default_rng(3)
        vol = channel_mean_volume(rng.uniform(0, 2, size=(6, 7, 6, 9)))
        probs = cost_to_probability(vol, temperature=0.05)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_monotone_trust(self):
        # Lowering one plane's cost must not lower its probability: the
        # smoothing is linear with positive weights, so it raises that
        # plane's score everywhere too.
        rng = np.random.default_rng(4)
        costs = rng.uniform(0.1, 1.0, size=(3, 3, 6, 5))
        vol = channel_mean_volume(costs)
        base = cost_to_probability(vol, temperature=0.05)
        lowered = costs.copy()
        lowered[..., 2] -= 0.05
        after = cost_to_probability(channel_mean_volume(lowered), temperature=0.05)
        assert np.all(after[..., 2] >= base[..., 2] - 1e-12)

    @pytest.mark.parametrize("shape", [(1, 7, 6, 5), (9, 1, 6, 5), (1, 1, 6, 3), (12, 16, 6, 12)])
    def test_matches_per_slice_oracle(self, shape):
        # Smoothing all slices at once gives the bytes of smoothing each
        # slice alone, on 1-wide and 1-high grids as well; the oracle takes
        # the per-channel costs and their channel mean itself.
        from costvol_reference import cost_to_probability as reference_probability

        costs = np.random.default_rng(8).uniform(0, 2, size=shape)
        per_channel = CostVolume(costs, np.full(shape[:2] + shape[3:], 3))
        assert_bytes_equal(cost_to_probability(channel_mean_volume(costs), temperature=0.05),
                           reference_probability(per_channel, temperature=0.05))

    def test_rejects_bad_temperature(self):
        vol = CostVolume(np.zeros((1, 1, 2)), np.full((1, 1, 2), 3))
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
            feats[0], views[0], [feats[i] for i in srcs], [views[i] for i in srcs], planes,
            cost_penalty=10.0
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
        expected = nearest_plane_index(planes, gt_q)
        agree = (predicted == expected)[mask].mean()
        assert agree >= 0.80


def assert_bytes_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestBinomialSmooth:
    """The one-array smoothing gives the bytes of the expression form it
    replaced, `costvol_reference.binomial_smooth_volume`."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_bytes_of_the_expression_form(self, h, w, m, seed):
        from costvol_reference import binomial_smooth_volume

        rng = np.random.default_rng(seed)
        # Magnitudes from 1e-300 to 1e300 round differently in every step,
        # and signed zeros keep their sign only through the same operations.
        score = rng.normal(0.0, 1.0, (h, w, m)) * 10.0 ** rng.integers(-300, 301, (h, w, m))
        score.flat[::5] = -0.0
        assert_bytes_equal(costvol._binomial_smooth(score), binomial_smooth_volume(score))

    def test_bytes_on_a_sweep_volume(self):
        from costvol_reference import binomial_smooth_volume

        score = -np.random.default_rng(8).gamma(0.5, 0.2, (60, 80, 12))
        assert_bytes_equal(costvol._binomial_smooth(score), binomial_smooth_volume(score))


def assert_sweep_matches_oracle(ref_feat, ref_view, src_feats, src_views, planes):
    """The sweep against the pixel-major oracle's channel-mean costs and its
    view counts; returns the sweep and the oracle reduced to channel means."""
    from costvol_reference import build_cost_volume as reference_build

    vol = build_cost_volume(ref_feat, ref_view, src_feats, src_views, planes, cost_penalty=10.0)
    ref = reference_build(ref_feat, ref_view, src_feats, src_views, planes)
    ref_mean = CostVolume(ref.costs.mean(axis=2), ref.valid_views)
    assert vol.costs.shape == ref_mean.costs.shape
    np.testing.assert_allclose(vol.costs, ref_mean.costs, rtol=0, atol=COST_ATOL)
    assert_bytes_equal(vol.valid_views, ref.valid_views)
    return vol, ref_mean


# The sweep warps in closed form, d a + b per plane, and blends each sample
# as A + fx B + fy (C + fx D) from a coefficient table; the oracle projects
# 3-D plane points and interpolates corner by corner, so the two round
# differently in the last bits.  Fixed absolute tolerances, for descriptors
# in [-1, 1]: costs (worst measured 8.4e-15 over 40 random configurations of
# 1-23 x 1-23 cells, 1-3 sources and 1-6 channels), probabilities (worst
# measured 3.8e-14 at temperature 5e-4 on four 320x240 scenes, 6.6e-15 at
# 0.05) and single samples (worst measured 4.4e-16).  The view counts stay
# exact.
COST_ATOL = 1e-13
PROB_ATOL = 1e-12
SAMPLE_ATOL = 4e-15


class TestSweepMatchesOracle:
    """The plane sweep reproduces the pixel-major, masked-scatter oracle in
    `tests/costvol_reference.py`: its view counts to the bit, its
    channel-mean costs, its probabilities and its samples within fixed
    tolerances."""

    def test_textured_scene(self):
        scene = generate_scene(seed=31, n_boxes=0)
        views = make_trajectory(scene, 3, seed=7)
        feats = [extract_features(raycast(scene, v).image) for v in views]
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        srcs = nearest_views(views, views[0], 2, exclude=0)
        vol, ref = assert_sweep_matches_oracle(
            feats[0], views[0], [feats[i] for i in srcs], [views[i] for i in srcs], planes
        )
        np.testing.assert_allclose(
            cost_to_probability(vol, temperature=5e-4), cost_to_probability(ref, temperature=5e-4),
            rtol=0, atol=PROB_ATOL,
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

    @pytest.mark.parametrize("channels", [1, 3])
    def test_few_channel_grids(self, channels):
        # Two rotated sources with partial overlap: penalty and valid cells
        # mix on every plane, at channel counts other than the descriptor's.
        rng = np.random.default_rng(6 + channels)
        k = Intrinsics(50.0, 50.0, 39.5, 23.5)
        poses = [look_at((0.3 * i, -0.1 * i, 0.0), (0.0, 0.0, 2.5), up=(0.0, -1.0, 0.0))
                 for i in range(3)]
        views = [CameraView(k, pose, 80, 48) for pose in poses]
        feats = [rng.uniform(-1, 1, size=(12, 20, channels)) for _ in views]
        planes = DepthPlanes.uniform(6, 0.5, 4.0)
        vol, ref = assert_sweep_matches_oracle(feats[0], views[0], feats[1:], views[1:], planes)
        assert vol.costs.shape == (12, 20, 6)
        for mi in range(planes.count):
            assert set(np.unique(vol.valid_views[:, :, mi])) == {1, 2, 3}
        np.testing.assert_allclose(
            cost_to_probability(vol, temperature=0.05), cost_to_probability(ref, temperature=0.05),
            rtol=0, atol=PROB_ATOL,
        )

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
        np.testing.assert_allclose(bilinear_sample(grid, u, v), reference_sample(grid, u, v),
                                   rtol=0, atol=SAMPLE_ATOL)


class TestSweepMatchesPerChannelSweep:
    """The channel-summed sweep gives the bytes of the channel mean of the
    closed-form per-channel sweep in `tests/costvol_reference.py`, and its
    view counts, on random configurations."""

    @staticmethod
    def random_config(rng, channels=None):
        gw, gh = (int(x) for x in rng.integers(1, 24, size=2))
        c = int(rng.integers(1, 7)) if channels is None else channels
        f = float(rng.uniform(0.5, 1.5)) * 4 * max(gw, gh)
        k = Intrinsics(f, f, (4 * gw - 1) / 2, (4 * gh - 1) / 2)
        target = (0.0, 0.0, float(rng.uniform(1.5, 4.0)))
        views = [CameraView(k, identity_pose(), 4 * gw, 4 * gh)]
        for _ in range(int(rng.integers(1, 4))):
            eye = tuple(float(x) for x in rng.uniform(-0.6, 0.6, size=3))
            views.append(CameraView(k, look_at(eye, target, up=(0.0, -1.0, 0.0)), 4 * gw, 4 * gh))
        feats = [rng.uniform(-1, 1, size=(gh, gw, c)) for _ in views]
        planes = DepthPlanes.uniform(int(rng.integers(2, 13)), float(rng.uniform(0.2, 1.0)),
                                     float(rng.uniform(2.0, 6.0)))
        return feats, views, planes

    @staticmethod
    def assert_matches(feats, views, planes, cost_penalty=10.0):
        from costvol_reference import build_cost_volume_per_channel

        args = (feats[0], views[0], feats[1:], views[1:], planes, cost_penalty)
        vol = build_cost_volume(*args)
        parent = build_cost_volume_per_channel(*args)
        assert_bytes_equal(vol.costs, parent.costs.mean(axis=2))
        assert_bytes_equal(vol.valid_views, parent.valid_views)
        return vol

    @pytest.mark.parametrize("seed", range(12))
    def test_random_configuration(self, seed):
        rng = np.random.default_rng(100 + seed)
        self.assert_matches(*self.random_config(rng), cost_penalty=float(rng.uniform(0.5, 20)))

    @pytest.mark.parametrize("channels", [1, 3])
    def test_few_channel_grids(self, channels):
        rng = np.random.default_rng(200 + channels)
        feats, views, planes = self.random_config(rng, channels)
        vol = self.assert_matches(feats, views, planes)
        assert vol.costs.shape == feats[0].shape[:2] + (planes.count,)

    def test_penalty_and_valid_cells_mix(self):
        # A sideways source pushes part of every plane off its grid, and a
        # source facing away sees nothing, so penalty cells (summed from C
        # penalty values) and valid cells share each plane.
        rng = np.random.default_rng(2)
        beside = simple_view(width=64, height=48, pose=Pose(np.eye(3), np.array([0.5, 0.0, 0.0])))
        behind = simple_view(width=64, height=48, pose=Pose(np.diag([-1.0, 1.0, -1.0]), np.zeros(3)))
        views = [simple_view(width=64, height=48), beside, behind]
        feats = [rng.uniform(0, 1, size=(12, 16, 6)) for _ in views]
        vol = self.assert_matches(feats, views, DepthPlanes.uniform(5, 1.0, 3.0), cost_penalty=7.3)
        assert (vol.valid_views == 1).any() and (vol.valid_views == 2).any()

    def test_textured_scene(self):
        scene = generate_scene(seed=31, n_boxes=0)
        views = make_trajectory(scene, 3, seed=7)
        feats = [extract_features(raycast(scene, v).image) for v in views]
        self.assert_matches(feats, views, DepthPlanes.uniform(12, 0.2, 5.0))


class TestMemoryBudget:
    # Traced peak bytes of one sweep per (cell, plane, channel) of its cost
    # volume, plus a constant, for a 320x240 reference with 2 sources, 12
    # planes and 6 channels (80x60 cells).  Measured 16.2, so the budget
    # leaves 17%: the two sources' coefficient tables take 5.3, and the
    # returned channel-mean costs and view counts 1.3 each.  A sweep that
    # kept per-channel costs peaked at 22.8 (its costs took 8), the
    # four-corner sampler that the tables replaced at 19.3, and a sweep that
    # warps and samples every plane of a source at once at 84.7.
    SWEEP_BYTES_PER_CELL_PLANE_CHANNEL = 19
    SWEEP_BYTES_CONSTANT = 64 * 1024

    def test_sweep_peak(self):
        import tracemalloc

        rng = np.random.default_rng(10)
        k = Intrinsics(300.0, 300.0, 159.5, 119.5)
        views = [CameraView(k, look_at((0.2 * i, -0.1 * i, 0.0), (0.0, 0.0, 2.5),
                                       up=(0.0, -1.0, 0.0)), 320, 240) for i in range(3)]
        feats = [rng.uniform(-1, 1, size=(60, 80, 6)) for _ in views]
        planes = DepthPlanes.uniform(12, 0.5, 5.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_cost_volume(feats[0], views[0], feats[1:], views[1:], planes, cost_penalty=10.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        budget = self.SWEEP_BYTES_PER_CELL_PLANE_CHANNEL * 60 * 80 * 12 * 6
        assert peak <= budget + self.SWEEP_BYTES_CONSTANT
