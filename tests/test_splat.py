import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsweep.camera import DOWNSAMPLE, CameraView, Intrinsics, Pose, nearest_views, project
from mvsweep.costvol import DepthPlanes, block_mean, regress_depth
from mvsweep.scenegen import generate_scene, make_trajectory, quarter_depth, raycast
from mvsweep.splat import (
    T_MIN,
    GaussianSplatSet,
    concat_splats,
    build_splats,
    rasterize,
    refine_probability_volume,
    refinement_loss_and_grad,
)
from camera_reference import identity_pose
from costvol_reference import nearest_plane_index
from simd_pins import SIMD_CLASS, X86_CLASSES, assert_pinned, emulation_env
from splat_reference import quaternion_to_rotation


def grid_view(width=128, height=96, f=40.0, pose=None):
    k = Intrinsics(f, f, (width - 1) / 2, (height - 1) / 2)
    return CameraView(k, pose or identity_pose(), width, height)


def single_splat(mu, alpha=1.0, sigma=0.05, color=(1.0, 0.0, 0.0)):
    return GaussianSplatSet(
        means=np.asarray(mu, dtype=float).reshape(1, 3),
        opacities=np.array([alpha], dtype=float),
        sigmas=np.array([sigma]),
        colors=np.asarray(color, dtype=float).reshape(1, 3),
        source_view=np.zeros(1, dtype=np.int64),
        pixel_rows=np.zeros(1, dtype=np.int64),
        pixel_cols=np.zeros(1, dtype=np.int64),
    )


def ray_point(view, u, v, depth, scale=4):
    k, _, _ = view.scaled(scale)
    return np.array([(u - k.cx) / k.fx * depth, (v - k.cy) / k.fy * depth, depth])


class TestQuaternions:
    # The reference helper that builds the tests' rotated views.
    def test_identity(self):
        r = quaternion_to_rotation(np.array([[1.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(r[0], np.eye(3), atol=1e-15)

    def test_z_rotation(self):
        half = np.pi / 4
        q = np.array([[np.cos(half), 0.0, 0.0, np.sin(half)]])
        r = quaternion_to_rotation(q)[0]
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(r, expected, atol=1e-12)


# The closed-form 2D covariances, sigma^2 J J^T + dilation, against the
# oracle's J R (sigma^2 I) R^T J^T + dilation, relative to each covariance's
# largest entry: the oracle's R R^T is the identity only to rounding.
COV2D_RTOL = 1e-14


class TestProjection:
    def test_covariance_matches_rotated_oracle(self):
        # Random rotations, translations and sigmas spanning two decades.
        from mvsweep.splat import _project_gaussians
        from splat_reference import project_gaussians

        for seed in range(6):
            rng = np.random.default_rng(seed)
            q = rng.normal(size=4)
            pose = Pose(quaternion_to_rotation(q / np.linalg.norm(q)), rng.normal(0.0, 0.2, 3))
            view = grid_view(160, 120, pose=pose)
            splats = _random_splats(rng, 500, view, np.array([0.5, 1.0, 2.0, 4.0]))
            splats.sigmas = splats.sigmas * rng.uniform(0.1, 10.0, len(splats))
            keep, _, _, _, cov2d, *_ = _project_gaussians(splats, view)
            ref_keep, _, _, _, ref_cov2d, *_ = project_gaussians(splats, view)
            assert keep.all() and np.array_equal(keep, ref_keep)
            a, b, c = cov2d
            got = np.stack([a, b, b, c], axis=1).reshape(-1, 2, 2)
            scale = np.abs(ref_cov2d).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - ref_cov2d) <= COV2D_RTOL * scale)


class TestSplatSetValidation:
    @pytest.mark.parametrize("alpha", [-0.25, 1.5, np.nan])
    def test_opacity_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="opacities"):
            single_splat([0.0, 0.0, 2.0], alpha=alpha)


class TestBuildSplats:
    def test_one_hot_places_center_at_plane_depth(self):
        view = grid_view()
        planes = DepthPlanes(np.array([1.0, 2.0, 3.0]))
        k, gw, gh = view.scaled(4)
        probs = np.zeros((gh, gw, 3))
        probs[..., 1] = 1.0
        image = np.full((view.height, view.width, 3), 0.5)
        splats = build_splats(view, probs, planes, image, footprint_scale=1.0)
        assert len(splats) == gh * gw
        np.testing.assert_allclose(splats.opacities, 1.0)
        # every center must sit at camera depth exactly 2.0
        np.testing.assert_allclose(project(splats.means, view)[2], 2.0, atol=1e-12)
        # and on its own pixel ray
        i = 5 * gw + 7
        np.testing.assert_allclose(splats.means[i], ray_point(view, 7, 5, 2.0), atol=1e-12)

    def test_uniform_alpha_is_reciprocal_m(self):
        view = grid_view()
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        k, gw, gh = view.scaled(4)
        probs = np.full((gh, gw, 12), 1.0 / 12)
        splats = build_splats(view, probs, planes, np.zeros((view.height, view.width, 3)),
                              footprint_scale=1.0)
        np.testing.assert_allclose(splats.opacities, 1.0 / 12, atol=1e-12)

    def test_footprint_arithmetic(self):
        # quarter-scale focal length 100, depth 2, unit footprint -> 0.02 m
        view = CameraView(Intrinsics(400.0, 400.0, 63.5, 47.5), identity_pose(), 128, 96)
        planes = DepthPlanes(np.array([1.0, 2.0]))
        k, gw, gh = view.scaled(4)
        assert k.fx == 100.0
        probs = np.zeros((gh, gw, 2))
        probs[..., 1] = 1.0
        splats = build_splats(view, probs, planes, np.zeros((96, 128, 3)), footprint_scale=1.0)
        np.testing.assert_allclose(splats.sigmas, 0.02, atol=1e-12)

    def test_colors_are_block_means(self):
        view = grid_view()
        planes = DepthPlanes(np.array([1.0, 2.0]))
        rng = np.random.default_rng(1)
        image = rng.uniform(0, 1, (view.height, view.width, 3))
        k, gw, gh = view.scaled(4)
        probs = np.full((gh, gw, 2), 0.5)
        splats = build_splats(view, probs, planes, image, footprint_scale=1.0)
        np.testing.assert_allclose(
            splats.colors.reshape(gh, gw, 3), block_mean(image), atol=1e-12
        )


    def test_sigmas_past_the_splat_bound_name_footprint_scale(self):
        # A footprint that makes a sigma pass MAX_SPLAT_MAGNITUDE (the splat
        # loader's bound) is a ValueError naming footprint_scale, from
        # build_splats and so from the refinement, before the projection
        # could overflow; with the largest sigma just under the bound the
        # splats render without a warning.  Warnings are errors.
        from mvsweep.costvol import softmax
        from mvsweep.splat import MAX_SPLAT_MAGNITUDE

        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        probs = softmax(logits[0])
        k = src_v[0].scaled(DOWNSAMPLE)[0]
        at_bound = MAX_SPLAT_MAGNITUDE * (0.5 * (k.fx + k.fy)) / regress_depth(probs, planes).max()
        message = "^footprint_scale=.* gives splat sigmas up to .*, more than 1e\\+10$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (at_bound * (1 + 1e-12), 1e300, 1.7e308):
                with pytest.raises(ValueError, match=message):
                    build_splats(src_v[0], probs, planes, src_i[0], scale)
            with pytest.raises(ValueError, match=message):
                refine_probability_volume([softmax(lg) for lg in logits], planes, src_v, src_i,
                                          nov_v, nov_i, steps=2, step_size=6.0,
                                          footprint_scale=1e300)
            with pytest.raises(ValueError, match=message):
                refinement_loss_and_grad(logits, planes, src_v, src_i, nov_v,
                                         [block_mean(i) for i in nov_i], footprint_scale=1e300)
            splats = build_splats(src_v[0], probs, planes, src_i[0], at_bound * (1 - 1e-12))
            assert MAX_SPLAT_MAGNITUDE * (1 - 1e-9) < splats.sigmas.max() <= MAX_SPLAT_MAGNITUDE
            rasterize(splats, nov_v[0])


class TestRasterize:
    def test_single_centered_primitive(self):
        view = grid_view()
        k, gw, gh = view.scaled(4)
        splat = single_splat(ray_point(view, 16, 12, 2.0), alpha=1.0)
        rt = rasterize(splat, view)
        assert rt.alpha[12, 16] == pytest.approx(0.999, abs=1e-12)
        np.testing.assert_allclose(rt.color[12, 16], [0.999, 0.0, 0.0], atol=1e-12)
        assert rt.depth[12, 16] == pytest.approx(2.0, abs=1e-9)

    def test_two_primitive_alpha_blend(self):
        # Coincident pixel, front alpha 0.6 red at depth 1, back 0.5 green at 2.
        view = grid_view()
        front = single_splat(ray_point(view, 16, 12, 1.0), alpha=0.6, sigma=0.02)
        back = single_splat(ray_point(view, 16, 12, 2.0), alpha=0.5, sigma=0.04,
                            color=(0.0, 1.0, 0.0))
        rt = rasterize(concat_splats([front, back]), view)
        np.testing.assert_allclose(rt.color[12, 16], [0.6, 0.2, 0.0], atol=1e-12)
        assert rt.alpha[12, 16] == pytest.approx(0.8, abs=1e-12)
        assert rt.depth[12, 16] == pytest.approx(1.25, abs=1e-12)

    def test_behind_camera_culled(self):
        view = grid_view()
        rt = rasterize(single_splat([0.0, 0.0, -2.0]), view)
        assert rt.alpha.max() == 0.0
        assert np.all(rt.color == 0.0)
        assert np.all(rt.depth == 0.0)

    def test_input_order_invariance(self):
        view = grid_view()
        rng = np.random.default_rng(3)
        parts = [
            single_splat(
                ray_point(view, rng.uniform(4, 27), rng.uniform(4, 19), rng.uniform(0.8, 4.0)),
                alpha=float(rng.uniform(0.2, 0.9)),
                sigma=float(rng.uniform(0.02, 0.08)),
                color=rng.uniform(0, 1, 3),
            )
            for _ in range(20)
        ]
        a = rasterize(concat_splats(parts), view)
        b = rasterize(concat_splats(parts[::-1]), view)
        np.testing.assert_allclose(a.color, b.color, atol=1e-12)
        np.testing.assert_allclose(a.depth, b.depth, atol=1e-12)

    def test_alpha_bounds_and_depth_range(self):
        scene = generate_scene(seed=6, n_boxes=1)
        views = make_trajectory(scene, 3, seed=2, image_size=(64, 48))
        gt = raycast(scene, views[0])
        planes = DepthPlanes.uniform(6, 0.5, 4.5)
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(6), size=(12, 16))
        splats = build_splats(views[0], probs, planes, gt.image, footprint_scale=1.0)
        rt = rasterize(splats, views[1])
        assert rt.alpha.min() >= 0.0 and rt.alpha.max() <= 1.0
        cam_z = project(splats.means, views[1])[2]
        covered = rt.alpha > 1e-4
        assert rt.depth[covered].min() >= cam_z.min() - 1e-9
        assert rt.depth[covered].max() <= cam_z.max() + 1e-9
        assert np.all(rt.depth[~covered] == 0.0)


class TestDegenerateFootprints:
    """Splats far off-axis in both x and y, whose 2D covariance determinant
    a c - b^2 cancels to 0: they cover no pixel, warn of nothing and get a
    finite (zero) gradient."""

    FAR_SPLATS = [((1e3, 1e3, 2e-6), 1e-3), ((1e9, 1e9, 1.0), 1e-3)]

    @staticmethod
    def _det(splat, view):
        from mvsweep.splat import _project_gaussians

        a, b, c = _project_gaussians(splat, view)[4]
        return a * c - b * b

    @pytest.mark.parametrize("mu, sigma", FAR_SPLATS)
    def test_rasterize_ignores_the_far_splat(self, mu, sigma):
        view = CameraView(Intrinsics(300.0, 300.0, 159.5, 119.5), identity_pose(), 320, 240)
        far = single_splat(mu, sigma=sigma)
        assert not self._det(far, view)[0] > 0  # the case under test
        normal = single_splat(ray_point(view, 40, 30, 2.0), alpha=0.7, sigma=0.05)
        alone = rasterize(normal, view)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ([normal, far], [far, normal]):
                rt = rasterize(concat_splats(pair), view)
                for image in ("color", "depth", "alpha"):
                    assert getattr(rt, image).tobytes() == getattr(alone, image).tobytes()

    @pytest.mark.parametrize("mu, sigma", FAR_SPLATS)
    def test_loss_and_grad_stay_finite(self, monkeypatch, mu, sigma):
        # Criterion 11's splats with the first one moved far off-axis in the
        # novel view's frame: to the first of a few points near `mu`, scaled
        # in x and y, whose determinant cancels after the rotation.
        import mvsweep.splat as splat_module

        planes, src_views, src_imgs, novel_views, novel_imgs, logits = _criterion11_inputs()
        view = novel_views[0]
        world = next(
            w for w in ((np.asarray(mu) * [1 + k / 64, 1 + k / 64, 1] - view.pose.translation)
                        @ view.pose.rotation for k in range(16))
            if not self._det(single_splat(w, sigma=sigma), view)[0] > 0
        )
        concat = splat_module.concat_splats

        def with_far_splat(sets):
            splats = concat(sets)
            splats.means[0] = world
            splats.sigmas[0] = sigma
            return splats

        monkeypatch.setattr(splat_module, "concat_splats", with_far_splat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grads = refinement_loss_and_grad(
                logits, planes, src_views, src_imgs, novel_views,
                [block_mean(i) for i in novel_imgs], footprint_scale=1.0,
            )
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(g)) and np.any(g != 0.0) for g in grads)


class TestRenderingLoss:
    """The L2 loss `_view_forward` takes of a rendered colour image against
    a novel view's quarter-res target."""

    def _loss(self, monkeypatch, rendered, target):
        import mvsweep.splat as splat_module

        h, w = target.shape[:2]
        monkeypatch.setattr(splat_module, "_render_forward",
                            lambda splats, view: (rendered.reshape(-1, 3), None))
        return splat_module._view_forward(None, grid_view(4 * w, 4 * h), target)[0]

    def test_identical_is_zero(self, monkeypatch):
        img = np.random.default_rng(0).uniform(0, 1, (4, 4, 3))
        assert self._loss(monkeypatch, img, img) == 0.0

    def test_constant_difference(self, monkeypatch):
        img = np.full((4, 4, 3), 0.5)
        assert self._loss(monkeypatch, img + 0.1, img) == pytest.approx(0.01, abs=1e-12)

    def test_single_pixel_difference(self, monkeypatch):
        img = np.zeros((2, 2, 3))
        rendered = img.copy()
        rendered[0, 0, 0] = 0.3
        assert self._loss(monkeypatch, rendered, img) == pytest.approx(0.0075, abs=1e-15)

    def test_nonnegative_and_zero_iff_equal(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (3, 3, 3))
        b = a.copy()
        b[1, 1, 1] += 1e-9
        assert self._loss(monkeypatch, a, b) > 0.0


class TestSelectNovelSources:
    def _views(self, xs):
        return [
            CameraView(Intrinsics(40.0, 40.0, 15.5, 15.5),
                       Pose(np.eye(3), np.array([-x, 0.0, 0.0])), 32, 32)
            for x in xs
        ]

    def test_coincident_view_first(self):
        views = self._views([0.0, 1.0, 2.0])
        assert nearest_views(views, views[1], 3)[0] == 1

    def test_collinear_nearest_three(self):
        views = self._views([0.0, 0.5, 1.0, 1.5, 3.0])
        novel = self._views([0.6])[0]
        assert sorted(nearest_views(views, novel, 3)) == [0, 1, 2]

    def test_count_validated(self):
        views = self._views([0.0, 1.0])
        with pytest.raises(ValueError):
            nearest_views(views, views[0], 3)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        # Fixed-seed configuration: every probed logit's analytic gradient
        # agrees with central differences far inside the 1e-3 contract.
        scene = generate_scene(seed=3, n_boxes=1)
        views = make_trajectory(scene, 4, seed=5, image_size=(64, 48))
        gts = [raycast(scene, v) for v in views]
        planes = DepthPlanes.uniform(6, 0.5, 4.5)
        src_views = views[:2]
        src_imgs = [gts[0].image, gts[1].image]
        novel_views = [views[3]]
        novel_imgs = [block_mean(gts[3].image)]
        rng = np.random.default_rng(0)
        logits = [rng.normal(0, 1.0, (12, 16, 6)) for _ in range(2)]
        loss, grads = refinement_loss_and_grad(
            logits, planes, src_views, src_imgs, novel_views, novel_imgs, footprint_scale=1.0
        )
        assert np.isfinite(loss)
        h = 1e-4
        for _ in range(12):
            vi = int(rng.integers(0, 2))
            r, c, m = (int(rng.integers(0, s)) for s in (12, 16, 6))
            lp = [x.copy() for x in logits]
            lp[vi][r, c, m] += h
            lm = [x.copy() for x in logits]
            lm[vi][r, c, m] -= h
            fp, _ = refinement_loss_and_grad(lp, planes, src_views, src_imgs, novel_views,
                                             novel_imgs, footprint_scale=1.0)
            fm, _ = refinement_loss_and_grad(lm, planes, src_views, src_imgs, novel_views,
                                             novel_imgs, footprint_scale=1.0)
            fd = (fp - fm) / (2 * h)
            an = grads[vi][r, c, m]
            assert abs(fd - an) / max(abs(fd) + abs(an), 1e-8) < 1e-3

    def test_central_differences_where_pixels_saturate(self):
        # Criterion 11's scene and probes with footprints 1.5x wider, so that
        # pixels saturate: the rule drops about a quarter of the pairs, and
        # the gradient of the composited pairs is still the loss's gradient.
        from mvsweep.costvol import softmax

        planes, src_views, src_imgs, novel_views, novel_imgs, logits = _criterion11_inputs()
        novel_imgs = [block_mean(i) for i in novel_imgs]
        scale = 1.5
        splats = concat_splats([
            build_splats(v, softmax(lg), planes, img, scale, source_index=i)
            for i, (v, lg, img) in enumerate(zip(src_views, logits, src_imgs))
        ])
        listed = sum(prim.size for prim, _, _ in _listed_pairs(splats, novel_views[0])[0])
        composited = _composited_pairs(splats, novel_views[0])
        assert composited <= 0.95 * listed

        def loss_and_grad(lgs):
            return refinement_loss_and_grad(
                lgs, planes, src_views, src_imgs, novel_views, novel_imgs, scale
            )

        loss, grads = loss_and_grad(logits)
        rng = np.random.default_rng(0)
        h = 1e-4
        for _ in range(12):
            vi = int(rng.integers(0, 2))
            r, c, m = (int(rng.integers(0, s)) for s in (12, 16, 6))
            lp = [x.copy() for x in logits]
            lp[vi][r, c, m] += h
            lm = [x.copy() for x in logits]
            lm[vi][r, c, m] -= h
            fd = (loss_and_grad(lp)[0] - loss_and_grad(lm)[0]) / (2 * h)
            an = grads[vi][r, c, m]
            assert abs(fd - an) / max(abs(fd) + abs(an), 1e-8) < 1e-3


class TestRefinement:
    def _one_hot_volumes(self, gts, planes, indices):
        vols = []
        for i in indices:
            gq = quarter_depth(gts[i].depth)
            idx = nearest_plane_index(planes, gq)
            b = np.zeros(gq.shape + (planes.count,))
            rows, cols = np.meshgrid(*(np.arange(s) for s in gq.shape), indexing="ij")
            b[rows, cols, idx] = 1.0
            vols.append(b)
        return vols

    def test_near_stationary_start_keeps_depth(self):
        # Volumes already one-hot at ground truth: the trace cannot increase
        # and the regressed depth must stay put.
        scene = generate_scene(seed=6, n_boxes=1)
        views = make_trajectory(scene, 4, seed=2, image_size=(64, 48))
        gts = [raycast(scene, v) for v in views]
        planes = DepthPlanes.uniform(6, 0.5, 4.5)
        vols = self._one_hot_volumes(gts, planes, [0, 1])
        init_depth = [regress_depth(v, planes) for v in vols]
        res = refine_probability_volume(
            vols, planes, views[:2], [gts[0].image, gts[1].image],
            [views[3]], [gts[3].image], steps=3, step_size=1.0, footprint_scale=1.0,
        )
        trace = res.loss_trace
        assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
        for before, after in zip(init_depth, (regress_depth(v, planes) for v in res.volumes)):
            assert np.max(np.abs(before - after)) < 1e-6

    def test_rejects_zero_steps(self):
        scene = generate_scene(seed=6, n_boxes=0)
        views = make_trajectory(scene, 3, seed=2, image_size=(64, 48))
        gts = [raycast(scene, v) for v in views]
        planes = DepthPlanes.uniform(4, 0.5, 4.5)
        vols = self._one_hot_volumes(gts, planes, [0])
        with pytest.raises(ValueError):
            refine_probability_volume(
                vols, planes, [views[0]], [gts[0].image], [views[2]], [gts[2].image],
                steps=0, step_size=1.0, footprint_scale=1.0,
            )

    @pytest.mark.parametrize("name, value", [
        ("step_size", math.nan), ("step_size", math.inf), ("step_size", 0.0), ("step_size", -1.0),
        ("footprint_scale", math.nan), ("footprint_scale", math.inf), ("footprint_scale", 0.0),
        ("footprint_scale", -0.5),
    ])
    def test_rejects_bad_step_size_and_footprint(self, name, value):
        # Checked on entry: a ValueError that names the parameter, before
        # any arithmetic could warn, stall or blame the splat sigmas.
        from mvsweep.costvol import softmax

        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        kwargs = {"step_size": 6.0, "footprint_scale": 1.0, name: value}
        message = f"^{name} must be finite and > 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                refine_probability_volume(
                    [softmax(lg) for lg in logits], planes, src_v, src_i, nov_v, nov_i,
                    steps=2, **kwargs,
                )
            if name == "footprint_scale":
                with pytest.raises(ValueError, match=message):
                    refinement_loss_and_grad(
                        logits, planes, src_v, src_i, nov_v, [block_mean(i) for i in nov_i],
                        footprint_scale=value,
                    )
                with pytest.raises(ValueError, match=message):
                    build_splats(src_v[0], softmax(logits[0]), planes, src_i[0], value)

    @pytest.mark.parametrize("n_vol, n_view, n_img", [(3, 2, 2), (2, 1, 2), (2, 2, 1)])
    def test_source_counts_must_match(self, n_vol, n_view, n_img):
        # zip would drop the extra volumes, views or images without a word.
        from mvsweep.costvol import softmax

        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        logits = (logits * 2)[:n_vol]
        src_v, src_i = (src_v * 2)[:n_view], (src_i * 2)[:n_img]
        tail = f", {n_view} source views and {n_img} source images"
        with pytest.raises(ValueError, match=f"^{n_vol} volumes{tail}"):
            refine_probability_volume(
                [softmax(lg) for lg in logits], planes, src_v, src_i, nov_v, nov_i,
                steps=1, step_size=1.0, footprint_scale=1.0,
            )
        with pytest.raises(ValueError, match=f"^{n_vol} logits{tail}"):
            refinement_loss_and_grad(
                logits, planes, src_v, src_i, nov_v, [block_mean(i) for i in nov_i],
                footprint_scale=1.0
            )

    @pytest.mark.parametrize("n_views, n_images", [(3, 1), (1, 2), (0, 0)])
    def test_novel_counts_must_match(self, n_views, n_images):
        # 3 novel views with 1 image used to return the 1-view loss.
        from mvsweep.costvol import softmax

        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        nov_v, nov_i = (nov_v * 3)[:n_views], (nov_i * 2)[:n_images]
        message = f"^{n_views} novel views and {n_images} novel images: need at least one"
        with pytest.raises(ValueError, match=message):
            refine_probability_volume(
                [softmax(lg) for lg in logits], planes, src_v, src_i, nov_v, nov_i,
                steps=1, step_size=1.0, footprint_scale=1.0,
            )
        with pytest.raises(ValueError, match=message):
            refinement_loss_and_grad(
                logits, planes, src_v, src_i, nov_v, [block_mean(i) for i in nov_i],
                footprint_scale=1.0
            )

    def test_non_finite_novel_image_rejected(self):
        # One NaN in a target makes the summed loss NaN: a ValueError, not a
        # NaN loss that no trial could ever beat.
        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        target = block_mean(nov_i[0])
        target[5, 7, 1] = math.nan
        with pytest.raises(ValueError, match="^rendering loss is not finite$"):
            refinement_loss_and_grad(logits, planes, src_v, src_i, nov_v, [target],
                                     footprint_scale=1.0)

    def test_requires_novel_views(self):
        scene = generate_scene(seed=6, n_boxes=0)
        views = make_trajectory(scene, 3, seed=2, image_size=(64, 48))
        gts = [raycast(scene, v) for v in views]
        planes = DepthPlanes.uniform(4, 0.5, 4.5)
        vols = self._one_hot_volumes(gts, planes, [0])
        with pytest.raises(ValueError):
            refine_probability_volume(
                vols, planes, [views[0]], [gts[0].image], [], [],
                steps=1, step_size=1.0, footprint_scale=1.0,
            )

    def test_perturbed_start_improves(self):
        # Small-scale version of the refinement efficacy check.
        scene = generate_scene(seed=6, n_boxes=1)
        views = make_trajectory(scene, 5, seed=2, image_size=(128, 96))
        gts = [raycast(scene, v) for v in views]
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        rng = np.random.default_rng(0)
        src_idx = [0, 1, 2]
        vols = []
        for i in src_idx:
            gq = quarter_depth(gts[i].depth)
            z = -0.1 * (planes.depths - gq[..., None]) ** 2 / (2 * (planes.spacing / 2) ** 2)
            z += rng.normal(0, 1.2, z.shape)
            e = np.exp(z - z.max(-1, keepdims=True))
            vols.append(e / e.sum(-1, keepdims=True))

        def rmse(volumes):
            tot, n = 0.0, 0
            for b, i in zip(volumes, src_idx):
                gq = quarter_depth(gts[i].depth)
                m = (gq >= 0.2) & (gq <= 5.0)
                tot += ((regress_depth(b, planes) - gq)[m] ** 2).sum()
                n += m.sum()
            return np.sqrt(tot / n)

        init = rmse(vols)
        res = refine_probability_volume(
            vols, planes, [views[i] for i in src_idx], [gts[i].image for i in src_idx],
            [views[3], views[4]], [gts[3].image, gts[4].image],
            steps=25, step_size=6.0, footprint_scale=0.35,
        )
        trace = res.loss_trace
        assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
        assert rmse(res.volumes) < init


class TestSelfRender:
    def test_one_hot_ground_truth_self_render_psnr(self):
        # Splats from a one-hot GT-depth volume rendered into their own view.
        # Threshold pinned from the oracle run: the pixel footprint plus the
        # fixed screen-space dilation bounds sharpness near 20 dB.
        scene = generate_scene(seed=10, n_boxes=1)
        views = make_trajectory(scene, 2, seed=4)
        gt = raycast(scene, views[0])
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        gq = quarter_depth(gt.depth)
        idx = nearest_plane_index(planes, gq)
        probs = np.zeros(gq.shape + (12,))
        rows, cols = np.meshgrid(*(np.arange(s) for s in gq.shape), indexing="ij")
        probs[rows, cols, idx] = 1.0
        splats = build_splats(views[0], probs, planes, gt.image, footprint_scale=1.0)
        rt = rasterize(splats, views[0])
        target = block_mean(gt.image)
        mse = float(np.mean((rt.color - target) ** 2))
        psnr = -10.0 * np.log10(mse)
        assert psnr >= 18.0


# The first loss of a small fixed refinement, and the SHA-256 of the colour,
# depth and alpha images of one of its splat sets, one row per SIMD class
# (`tests/simd_pins.py`): the passes call float64 exp and log1p, whose last
# bits differ between AVX-512 and the other classes.  Re-pinned when the
# forward pass took up 3D Gaussian Splatting's saturation rule and began to
# sum log-transmittances chunk by chunk: the loss moved by 4 ulp.  The digest
# was re-pinned again when isotropic splats were projected in closed form,
# sigma^2 J J^T + dilation, which moves 2D covariances in their last bits;
# the loss kept its bits.
FORWARD_LOSS0 = {
    "AVX-512": "0x1.257b98b7b8612p-4",
    "AVX2": "0x1.257b98b7b8610p-4",
    "baseline": "0x1.257b98b7b8610p-4",
}
FORWARD_DIGEST = {
    "AVX-512": "e281cae1f2dc49083ba11c9caf1c3636156cb2d6b6c53d5fa096d1eab09cfe6d",
    "AVX2": "41a8d9975c93c757aa0d139be779d70a39409fbf3bb30058176a4e23113a37bc",
    "baseline": "41a8d9975c93c757aa0d139be779d70a39409fbf3bb30058176a4e23113a37bc",
}


def _random_splats(rng, n, view, depths):
    """n splats on random pixels of `view`'s quarter grid, at depths drawn
    from a short list, so that under an identity pose many tie exactly; a
    few are exact duplicates."""
    k, gw, gh = view.scaled(4)
    u = rng.uniform(-2.0, gw + 2.0, n)
    v = rng.uniform(-2.0, gh + 2.0, n)
    z = rng.choice(depths, n)
    cam = np.stack([(u - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z], axis=1)
    means = (cam - view.pose.translation) @ view.pose.rotation
    means[n // 2 : n // 2 + 5] = means[:5]
    return GaussianSplatSet(
        means=means,
        opacities=rng.uniform(0.05, 1.0, n),
        sigmas=rng.uniform(0.3, 2.5, n) * z / k.fx,
        colors=rng.uniform(0.0, 1.0, (n, 3)),
        source_view=np.zeros(n, dtype=np.int64),
        pixel_rows=np.zeros(n, dtype=np.int64),
        pixel_cols=np.zeros(n, dtype=np.int64),
    )


def _listed_pairs(splats, view):
    """The pairs the chunk walk lists before the saturation rule drops any
    (no pixel saturated): (prim, pid, power) per chunk, and the depths."""
    from mvsweep.splat import _footprints, _pixel_chunks, _project_gaussians

    _, _, z, mean2d, cov2d, _, _, gw, gh = _project_gaussians(splats, view)
    bbox, inv = _footprints(mean2d, cov2d, gw, gh)
    return list(_pixel_chunks(mean2d, z, bbox, inv, gw, gh, np.zeros(gw * gh))), z


def _composited_pairs(splats, view):
    """The number of pairs the forward pass composites, over its chunks."""
    import mvsweep.splat as splat_module

    return sum(prim.size for prim, _, _, _ in splat_module._render_forward(splats, view)[1].chunks)


def _pixel_sorted(chunks):
    """The chunks' pairs concatenated and stably sorted by pixel id."""
    prim, pid, power = (np.concatenate(a) for a in zip(*chunks))
    order = np.argsort(pid, kind="stable")
    return prim[order], pid[order], power[order]


# Oracle tolerances of the composited images: mvsweep.splat sums
# log-transmittances chunk by chunk, the oracle multiplies transmittances
# pixel by pixel.
COLOR_ALPHA_ATOL = 1e-11
DEPTH_ATOL = 1e-10


def _assert_render_close(a, b):
    np.testing.assert_allclose(a.color, b.color, rtol=0, atol=COLOR_ALPHA_ATOL)
    np.testing.assert_allclose(a.alpha, b.alpha, rtol=0, atol=COLOR_ALPHA_ATOL)
    np.testing.assert_allclose(a.depth, b.depth, rtol=0, atol=DEPTH_ATOL)


class TestPairOrder:
    # Quarter grids of 32x24 and 256x256 pixels take one 16-bit radix pass,
    # 260x260 (67,600 pixels) a low and a high 16-bit pass.
    @pytest.mark.parametrize("size", [(128, 96), (1024, 1024), (1040, 1040)])
    def test_matches_three_key_lexsort(self, size):
        from mvsweep.splat import _project_gaussians
        from splat_reference import gather_pairs_unsorted

        view = grid_view(*size, f=0.5 * size[0])
        rng = np.random.default_rng(size[0])
        splats = _random_splats(rng, 400, view, np.array([1.0, 1.5, 2.0, 3.0]))
        chunks, z = _listed_pairs(splats, view)
        for _, pid, _ in chunks:
            assert np.all(pid[1:] >= pid[:-1])  # each chunk is sorted by pixel
        # Chunks run front to back, so a stable pixel sort of their
        # concatenation is the full per-pixel (depth, index) order.
        prim, pid, power = _pixel_sorted(chunks)

        _, _, _, mean2d, cov2d, _, _, gw, gh = _project_gaussians(splats, view)
        ref_cov2d = np.empty((z.size, 2, 2))
        ref_cov2d[:, 0, 0], ref_cov2d[:, 0, 1], ref_cov2d[:, 1, 1] = cov2d
        ref_cov2d[:, 1, 0] = cov2d[1]
        rprim, rpid, _, _, rpower = gather_pairs_unsorted(mean2d, ref_cov2d, gw, gh)
        ref = np.lexsort((rprim, z[rprim], rpid))
        sorted_pid, sorted_z = rpid[ref], z[rprim[ref]]
        ties = (sorted_pid[1:] == sorted_pid[:-1]) & (sorted_z[1:] == sorted_z[:-1])
        assert ties.sum() > 0  # the index tie-break decides some pixels' order
        assert (rpid.max() >= 65536) == (gw * gh > 65536)
        np.testing.assert_array_equal(prim, rprim[ref])
        np.testing.assert_array_equal(pid, rpid[ref])
        np.testing.assert_array_equal(power, rpower[ref])

    @pytest.mark.parametrize("chunk", [1, 37, 4096])
    def test_chunked_gather_matches_one_pass(self, monkeypatch, chunk):
        # Chunks of one primitive, of a few primitives, and of many, against
        # the whole bbox list in one chunk: the same pairs to the byte before
        # the saturation rule, and the same images within the oracle
        # tolerance after it.
        import mvsweep.splat as splat_module

        view = grid_view(160, 120)
        splats = _random_splats(np.random.default_rng(4), 300, view, np.array([0.8, 1.2, 2.0]))
        monkeypatch.setattr(splat_module, "PAIR_CHUNK", 1 << 40)
        whole_chunks = _listed_pairs(splats, view)[0]
        whole_render = rasterize(splats, view)
        monkeypatch.setattr(splat_module, "PAIR_CHUNK", chunk)
        chunks = _listed_pairs(splats, view)[0]
        assert len(whole_chunks) == 1 and len(chunks) > 4
        assert whole_chunks[0][0].size > 4 * chunk
        for a, b in zip(_pixel_sorted(whole_chunks), _pixel_sorted(chunks)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        _assert_render_close(rasterize(splats, view), whole_render)
        # The rule drops the same pairs whatever the chunks.
        monkeypatch.setattr(splat_module, "PAIR_CHUNK", 1 << 40)
        composited = _composited_pairs(splats, view)
        monkeypatch.setattr(splat_module, "PAIR_CHUNK", chunk)
        assert _composited_pairs(splats, view) == composited
        assert composited < whole_chunks[0][0].size


class TestOnePathListing:
    """_pair_chunk always filters by its live-pixel mask.  Its yardstick,
    to the byte, is splat_reference._stored_pair_chunk sorted by pixel as
    the engine sorts: its unmasked path for an all-live mask, its masked
    path for any other.  The chunk is a slice of the (depth, index) ranking
    of random splats on a 16x12, a 40x30 and a 260x260 grid (pixel ids
    above 65,535 take the radix sort's second pass)."""

    @staticmethod
    def _chunk(size, seed, n, cut):
        from mvsweep.splat import _footprints, _project_gaussians

        view = grid_view(*size, f=0.5 * size[0])
        rng = np.random.default_rng(seed)
        splats = _random_splats(rng, n, view, np.array([0.8, 1.5, 3.0]))
        _, _, z, mean2d, cov2d, _, _, gw, gh = _project_gaussians(splats, view)
        bbox, inv = _footprints(mean2d, cov2d, gw, gh)
        rank = np.argsort(z, kind="stable")
        idx = rank[(bbox[2] * bbox[3])[rank] > 0]
        lo, hi = sorted(int(c * idx.size) for c in cut)
        return rng, (idx[lo:max(hi, lo + 1)], bbox, mean2d, inv, gw), gh

    @staticmethod
    def _assert_stored(listing, args, gh, live):
        from splat_reference import _stored_pair_chunk, _stored_pixel_order

        prim, pid, power = _stored_pair_chunk(*args, live)
        order = _stored_pixel_order(pid, args[-1] * gh)
        for a, b in zip(listing, (prim.take(order), pid.take(order), power.take(order))):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    CHUNKS = dict(
        size=st.sampled_from([(64, 48), (160, 120), (1040, 1040)]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 300),
        cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )

    @given(**CHUNKS)
    @settings(max_examples=30, deadline=None)
    def test_all_live_mask_lists_every_pair(self, size, seed, n, cut):
        from mvsweep.splat import _pair_chunk

        _, args, gh = self._chunk(size, seed, n, cut)
        live = np.ones((gh, args[-1]), dtype=bool)
        self._assert_stored(_pair_chunk(*args[:-1], live), args, gh, None)

    @given(**CHUNKS, density=st.floats(0.0, 1.0), dead_rows=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_random_mask_lists_its_live_pairs(self, size, seed, n, cut, density, dead_rows):
        # Dead grid rows make whole bbox rows drop before their pixels are
        # listed; scattered dead pixels drop single pairs.
        from mvsweep.splat import _pair_chunk

        rng, args, gh = self._chunk(size, seed, n, cut)
        live = rng.random((gh, args[-1])) < density
        live[rng.random(gh) < dead_rows] = False
        self._assert_stored(_pair_chunk(*args[:-1], live), args, gh, live)


class TestAgainstReference:
    def test_forward_pinned_bits(self):
        scene = generate_scene(seed=6, n_boxes=1)
        views = make_trajectory(scene, 5, seed=2, image_size=(128, 96))
        gts = [raycast(scene, v) for v in views]
        planes = DepthPlanes.uniform(12, 0.2, 5.0)
        rng = np.random.default_rng(0)
        vols = []
        for i in range(3):
            gq = quarter_depth(gts[i].depth)
            z = -0.1 * (planes.depths - gq[..., None]) ** 2 / (2 * (planes.spacing / 2) ** 2)
            z += rng.normal(0, 1.2, z.shape)
            e = np.exp(z - z.max(-1, keepdims=True))
            vols.append(e / e.sum(-1, keepdims=True))
        res = refine_probability_volume(
            vols, planes, views[:3], [g.image for g in gts[:3]],
            views[3:], [g.image for g in gts[3:]], steps=1, step_size=6.0, footprint_scale=0.35,
        )
        assert_pinned("FORWARD_LOSS0", res.loss_trace[0].hex(), FORWARD_LOSS0)
        rt = rasterize(build_splats(views[0], vols[0], planes, gts[0].image, 0.35), views[3])
        digest = hashlib.sha256()
        for image in (rt.color, rt.depth, rt.alpha):
            digest.update(image.tobytes())
        assert_pinned("FORWARD_DIGEST", digest.hexdigest(), FORWARD_DIGEST)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rasterize_matches_reference(self, seed):
        import splat_reference as ref

        rng = np.random.default_rng(seed)
        turn = np.r_[1.0, rng.normal(0.0, 0.1, 3)]
        rotation = quaternion_to_rotation(turn / np.linalg.norm(turn))
        view = grid_view(160, 120, pose=Pose(rotation, np.array([0.05, -0.02, 0.1])))
        splats = _random_splats(rng, 300, view, np.array([0.8, 1.2, 2.0]))
        splats.sigmas = splats.sigmas * rng.uniform(0.5, 2.0, len(splats))
        _assert_render_close(rasterize(splats, view), ref.rasterize(splats, view))
        # The saturation rule decides: the oracle drops pairs here.
        keep, _, z, mean2d, cov2d, _, _, _, gw, gh = ref.project_gaussians(splats, view)
        prim, pid, _, _, power = ref.gather_pairs(mean2d, cov2d, z, gw, gh)
        kept = ref.composite(
            prim, pid, power, splats.opacities[keep], splats.colors[keep], gw * gh
        )[1]
        assert 0 < np.count_nonzero(~kept) < kept.size

    def test_saturated_stack_drops_the_third_pair(self):
        # Three splats at opacity 1 (clamped to 0.999) centred on one pixel,
        # front to back: the transmittance arriving at them is 1, 1e-3 and
        # 1e-6, so the third is below T_MIN and not composited.
        view = grid_view()
        stack = concat_splats([
            single_splat(ray_point(view, 16, 12, depth), sigma=0.001, color=color)
            for depth, color in ((1.0, (1.0, 0.0, 0.0)), (2.0, (0.0, 1.0, 0.0)),
                                 (3.0, (0.0, 0.0, 1.0)))
        ])
        rt = rasterize(stack, view)
        w1 = 0.999
        w2 = 0.999 * (1.0 - 0.999)
        np.testing.assert_allclose(rt.color[12, 16], [w1, w2, 0.0], rtol=0, atol=1e-15)
        assert rt.color[12, 16, 2] == 0.0
        assert rt.alpha[12, 16] == pytest.approx(w1 + w2, abs=1e-15)
        assert rt.depth[12, 16] == pytest.approx((w1 * 1.0 + w2 * 2.0) / (w1 + w2), abs=1e-12)
        # A neighbouring pixel, reached by each splat's dilated tail, is far
        # from saturated and composites all three.
        assert rt.color[12, 17, 2] > 0.0

    def test_gradients_match_reference(self, monkeypatch):
        # Criterion 11's scene and logits.  The closed-form backward sums in
        # a different order than the reference, so loss and gradients agree
        # to a tolerance, the gradients relative to their largest entry.
        _assert_gradients_match_reference(monkeypatch, footprint_scale=1.0)

    def test_gradients_match_reference_across_chunks(self, monkeypatch):
        # The same scene in chunks of 64 bbox pixels, with footprints wide
        # enough that pixels saturate: a pair's colour suffix then runs on
        # through the pixel's runs in later chunks, and the rule drops pairs
        # chunks after the one that saturated their pixel.  Some pixel
        # straddles a chunk boundary, the last pixel of one chunk and the
        # first of the next: its pairs make a run in each, and the backward
        # pass carries the later run's total to the earlier one in `behind`.
        import mvsweep.splat as splat_module

        passes = []  # (chunks, straddling pixels) per forward pass
        render_forward = splat_module._render_forward

        def recording_forward(splats, view):
            color, state = render_forward(splats, view)
            runs = [run_px for _, run_px, _, _ in state.chunks]  # each chunk's run pixels
            passes.append((len(runs), sum(int(a[-1] == b[0]) for a, b in zip(runs, runs[1:]))))
            return color, state

        monkeypatch.setattr(splat_module, "PAIR_CHUNK", 64)
        monkeypatch.setattr(splat_module, "_render_forward", recording_forward)
        _assert_gradients_match_reference(monkeypatch, footprint_scale=1.5)
        assert len(passes) == 2  # one forward pass of one view per evaluation
        assert all(chunks >= 20 and straddles >= 1 for chunks, straddles in passes)


def _assert_gradients_match_reference(monkeypatch, footprint_scale):
    import mvsweep.splat as splat_module
    from splat_reference import render_vjp

    planes, src_views, src_imgs, novel_views, novel_imgs, logits = _criterion11_inputs()
    target = block_mean(novel_imgs[0])
    args = (logits, planes, src_views, src_imgs, novel_views, [target], footprint_scale)
    loss, grads = refinement_loss_and_grad(*args)
    ref_losses = []

    def reference_backward(splats, view, state, d_color):
        ref_loss, *ref_grads = render_vjp(splats, view, target)
        ref_losses.append(ref_loss)
        return ref_grads

    monkeypatch.setattr(splat_module, "_render_backward", reference_backward)
    _, ref_grads = refinement_loss_and_grad(*args)
    assert len(ref_losses) == 1
    assert ref_losses[0] == pytest.approx(loss, rel=1e-12, abs=0)
    for g, ref in zip(grads, ref_grads):
        assert np.max(np.abs(g - ref)) <= 1e-9 * np.max(np.abs(ref))


# Criterion 11's scene refined for 4 steps at a step size that forces
# line-search halvings (7 evaluations, 2 of them rejected trials, one on the
# last step), and the loss and gradient of one evaluation at criterion 11's
# logits, one row per SIMD class.  Re-pinned when the saturation rule was
# adopted: it drops about 2% of this scene's pairs, which moves every loss by
# about 5e-6 relative.  Re-pinned again when isotropic splats were projected
# in closed form, sigma^2 J J^T + dilation: the losses moved by at most
# 3.3e-13 relative.  The AVX2 and baseline rows are equal.
REFINE_TRACE = {
    "AVX-512": [
        "0x1.60802411701ecp-5", "0x1.f0ac3449263eep-6", "0x1.b08641c6ed725p-6",
        "0x1.9db79dd0064b1p-6", "0x1.75f18542b277dp-6",
    ],
    "AVX2": [
        "0x1.60802411701ebp-5", "0x1.f0ac34492640ep-6", "0x1.b08641c6ed73ap-6",
        "0x1.9db79dd00648dp-6", "0x1.75f18542b3a67p-6",
    ],
    "baseline": [
        "0x1.60802411701ebp-5", "0x1.f0ac34492640ep-6", "0x1.b08641c6ed73ap-6",
        "0x1.9db79dd00648dp-6", "0x1.75f18542b3a67p-6",
    ],
}
REFINE_VOLUMES_DIGEST = {
    "AVX-512": "4ec71709d13594558c97b7531fbfa89b356d787bad6c67f9380b08e1cfd7ca8d",
    "AVX2": "4f8c93b2b0a64b8f72afdf47126637d6fa00a690be5c87aa9254547709bcc9d1",
    "baseline": "4f8c93b2b0a64b8f72afdf47126637d6fa00a690be5c87aa9254547709bcc9d1",
}
GRAD_LOSS = {
    "AVX-512": "0x1.60802411701f9p-5",
    "AVX2": "0x1.60802411701f9p-5",
    "baseline": "0x1.60802411701f9p-5",
}
GRAD_DIGEST = {
    "AVX-512": "aabf75e8cd930e07edcbfe7e44abbeb0b56a5d733fb7095f19ef6ed95b4fe80f",
    "AVX2": "7cd9ddf4051bee73c4761b043ac482b6fb1e0955205ee42ab5e79aa20369a3fc",
    "baseline": "7cd9ddf4051bee73c4761b043ac482b6fb1e0955205ee42ab5e79aa20369a3fc",
}


def _criterion11_inputs():
    """Criterion 11's scene: (planes, source views, full-res source images,
    novel views, full-res novel images, logits)."""
    scene = generate_scene(seed=3, n_boxes=1)
    views = make_trajectory(scene, 4, seed=5, image_size=(64, 48))
    gts = [raycast(scene, v) for v in views]
    planes = DepthPlanes.uniform(6, 0.5, 4.5)
    rng = np.random.default_rng(0)
    logits = [rng.normal(0, 1.0, (12, 16, 6)) for _ in range(2)]
    return planes, views[:2], [g.image for g in gts[:2]], [views[3]], [gts[3].image], logits


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class TestRefinementPinned:
    def test_trace_and_volumes_pinned(self):
        from mvsweep.costvol import softmax

        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        res = refine_probability_volume(
            [softmax(lg) for lg in logits], planes, src_v, src_i, nov_v, nov_i,
            steps=4, step_size=6.0, footprint_scale=1.0,
        )
        assert_pinned("REFINE_TRACE", [x.hex() for x in res.loss_trace], REFINE_TRACE)
        assert_pinned("REFINE_VOLUMES_DIGEST", _digest(res.volumes), REFINE_VOLUMES_DIGEST)

    def test_loss_and_gradient_pinned(self):
        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        loss, grads = refinement_loss_and_grad(
            logits, planes, src_v, src_i, nov_v, [block_mean(i) for i in nov_i], footprint_scale=1.0
        )
        assert_pinned("GRAD_LOSS", loss.hex(), GRAD_LOSS)
        assert_pinned("GRAD_DIGEST", _digest(grads), GRAD_DIGEST)


class TestRefinementSplats:
    """refine_probability_volume returns the splats of the volumes it
    returns: build_splats over them, concatenated, byte for byte, with each
    splat's source_view its view's position.  Their renders on the novel
    views give the trace's last loss exactly."""

    @pytest.mark.parametrize("steps", [1, 3])
    def test_splats_of_the_refined_volumes(self, steps):
        from dataclasses import fields

        from mvsweep.costvol import softmax

        scene = generate_scene(seed=3, n_boxes=1)
        views = make_trajectory(scene, 4, seed=5, image_size=(64, 48))
        images = [raycast(scene, v).image for v in views]
        planes = DepthPlanes.uniform(6, 0.5, 4.5)
        rng = np.random.default_rng(0)
        volumes = [softmax(rng.normal(0, 1.0, (12, 16, 6))) for _ in range(2)]
        res = refine_probability_volume(
            volumes, planes, views[:2], images[:2], views[2:], images[2:],
            steps=steps, step_size=6.0, footprint_scale=1.5,
        )
        want = concat_splats([
            build_splats(v, p, planes, img, 1.5, source_index=i)
            for i, (v, p, img) in enumerate(zip(views[:2], res.volumes, images[:2]))
        ])
        for f in fields(GaussianSplatSet):
            got, ref = getattr(res.splats, f.name), getattr(want, f.name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), f.name
        losses = []
        for view, image in zip(views[2:], images[2:]):
            diff = rasterize(res.splats, view).color - block_mean(image)
            losses.append(float(np.mean(diff * diff)))
        assert sum(losses) == res.loss_trace[-1]


# The tests that check the splat pins above, by class name.
PINNED_TESTS = "test_forward_pinned_bits or TestRefinementPinned or TestLossOnlyTrials"


@pytest.mark.parametrize("cls", [c for c in X86_CLASSES if c != SIMD_CLASS])
def test_splat_pins_per_simd_class(cls):
    # The pinned tests in a fresh process whose numpy dispatches as `cls`
    # check that class's row; this process already checks its own class's.
    env = emulation_env(cls)
    if env is None:
        pytest.skip(f"this host cannot emulate SIMD class {cls} (it is {SIMD_CLASS})")
    tests = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(tests, os.pardir, "src"), tests, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", PINNED_TESTS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert proc.stdout.splitlines()[-1].startswith("5 passed")


class TestLossOnlyTrials:
    def test_max_loss_bounds_the_backward_pass(self):
        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        args = (logits, planes, src_v, src_i, nov_v, [block_mean(i) for i in nov_i], 1.0)
        loss, grads = refinement_loss_and_grad(*args)
        for bound in (-np.inf, 0.0, np.nextafter(loss, 0.0)):
            assert refinement_loss_and_grad(*args, max_loss=bound) == (loss, None)
        for bound in (loss, 2.0 * loss):
            bounded_loss, bounded = refinement_loss_and_grad(*args, max_loss=bound)
            assert bounded_loss == loss
            assert [g.tobytes() for g in bounded] == [g.tobytes() for g in grads]

    def test_backward_only_for_kept_steps_before_the_last(self, monkeypatch):
        # The pinned refinement: 7 evaluations, the 4th and 6th rejected
        # trials, the last two on the final step.  One novel view, so one
        # backward pass per evaluation that needs a gradient.
        import mvsweep.splat as splat_module
        from mvsweep.costvol import softmax

        backward_calls = []
        evaluations = []
        render_backward = splat_module._render_backward
        loss_and_grad = splat_module.refinement_loss_and_grad

        def counting_backward(*args):
            backward_calls.append(1)
            return render_backward(*args)

        def recording_loss_and_grad(*args, **kwargs):
            before = len(backward_calls)
            loss, grads = loss_and_grad(*args, **kwargs)
            evaluations.append((len(backward_calls) - before, grads is None))
            return loss, grads

        monkeypatch.setattr(splat_module, "_render_backward", counting_backward)
        monkeypatch.setattr(splat_module, "refinement_loss_and_grad", recording_loss_and_grad)
        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        res = refine_probability_volume(
            [softmax(lg) for lg in logits], planes, src_v, src_i, nov_v, nov_i,
            steps=4, step_size=6.0, footprint_scale=1.0,
        )
        assert_pinned("REFINE_TRACE", [x.hex() for x in res.loss_trace], REFINE_TRACE)
        assert [calls for calls, _ in evaluations] == [1, 1, 1, 0, 1, 0, 0]
        assert [calls == 0 for calls, _ in evaluations] == [none for _, none in evaluations]


class TestLineSearchOracle:
    """refine_probability_volume against splat_reference's line search, to
    the bit: the trace (steps + 1 entries, a stalled one padded with the
    last kept loss), the volumes and the number of evaluations."""

    def _refine_both(self, monkeypatch, alter=None):
        """Criterion 11's pinned refinement by the engine and by the
        reference, each evaluation's (loss, grads) passed through
        alter(index, loss, grads) when given; the engine's trace and
        evaluation count."""
        import mvsweep.splat as splat_module
        import splat_reference as ref
        from mvsweep.costvol import softmax

        loss_and_grad = splat_module.refinement_loss_and_grad
        runs = []
        for refine in (refine_probability_volume, ref.refine_probability_volume):
            calls = []

            def evaluate(*args, **kwargs):
                loss, grads = loss_and_grad(*args, **kwargs)
                calls.append(1)
                return alter(len(calls) - 1, loss, grads) if alter else (loss, grads)

            monkeypatch.setattr(splat_module, "refinement_loss_and_grad", evaluate)
            planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
            res = refine(
                [softmax(lg) for lg in logits], planes, src_v, src_i, nov_v, nov_i,
                steps=4, step_size=6.0, footprint_scale=1.0,
            )
            runs.append((res, len(calls)))
        (res, count), (ref_res, ref_count) = runs
        assert len(res.loss_trace) == 5
        assert [x.hex() for x in res.loss_trace] == [x.hex() for x in ref_res.loss_trace]
        assert [v.tobytes() for v in res.volumes] == [v.tobytes() for v in ref_res.volumes]
        assert count == ref_count
        return res.loss_trace, count

    def test_pinned_run(self, monkeypatch):
        trace, count = self._refine_both(monkeypatch)
        assert count == 7
        assert all(a > b for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("first", [0, 1])
    def test_zero_gradient(self, monkeypatch, first):
        # From evaluation `first` on, every gradient is zero: the next step
        # stops the search and pads the trace with the loss it kept.
        def alter(i, loss, grads):
            if i < first or grads is None:
                return loss, grads
            return loss, [np.zeros_like(g) for g in grads]

        trace, count = self._refine_both(monkeypatch, alter)
        assert count == first + 1
        assert trace[first + 1:] == [trace[first]] * (4 - first)
        assert all(a > b for a, b in zip(trace[:first + 1], trace[1:first + 1]))

    @pytest.mark.parametrize("first", [1, 2])
    def test_all_trials_rejected(self, monkeypatch, first):
        # From evaluation `first` on, the loss rises with every evaluation:
        # all 9 trials of that step are rejected and the trace is padded
        # with the last kept loss.
        def alter(i, loss, grads):
            return (loss + i, grads) if i >= first else (loss, grads)

        trace, count = self._refine_both(monkeypatch, alter)
        assert count == first + 9
        assert trace[first:] == [trace[first - 1]] * (5 - first)


def _view_inputs(n_novel):
    """Two 32x24 source grids with random logits and `n_novel` quarter-res
    novel targets of one 128x96 scene, and the default footprint."""
    scene = generate_scene(seed=3, n_boxes=1)
    views = make_trajectory(scene, 2 + n_novel, seed=5, image_size=(128, 96))
    gts = [raycast(scene, v) for v in views]
    rng = np.random.default_rng(0)
    logits = [rng.normal(0, 1.0, (24, 32, 6)) for _ in range(2)]
    return (logits, DepthPlanes.uniform(6, 0.5, 4.5), views[:2], [g.image for g in gts[:2]],
            views[2:], [block_mean(g.image) for g in gts[2:]], 1.0)


class TestThreadedViews:
    """The novel views of one evaluation run on threads of their own; loss
    and gradients must be the serial engine's, to the bit, every time."""

    @pytest.mark.parametrize("n_novel", [1, 2, 3])
    def test_matches_serial_reference(self, n_novel):
        import splat_reference as ref

        args = _view_inputs(n_novel)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads trade the interpreter lock often
        try:
            for max_loss in (np.inf, -np.inf):
                loss, grads = ref.refinement_loss_and_grad(*args, max_loss=max_loss)
                assert (grads is None) == (max_loss < 0)
                assert grads is None or all(np.any(g != 0.0) for g in grads)
                for _ in range(10):  # repeated to shake out ordering races
                    threaded_loss, threaded = refinement_loss_and_grad(*args, max_loss=max_loss)
                    assert threaded_loss.hex() == loss.hex()
                    if grads is None:
                        assert threaded is None
                    else:
                        assert [g.tobytes() for g in threaded] == [g.tobytes() for g in grads]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("stage", ["_render_forward", "_render_backward"])
    def test_worker_exception_surfaces(self, monkeypatch, stage):
        import threading

        import mvsweep.splat as splat_module

        caller = threading.get_ident()
        run = getattr(splat_module, stage)
        worker_calls = []

        def failing(*args):
            if threading.get_ident() != caller:
                worker_calls.append(1)
                raise RuntimeError(f"{stage} failed on a worker")
            return run(*args)

        args = _view_inputs(3)
        before = threading.active_count()
        monkeypatch.setattr(splat_module, stage, failing)
        with pytest.raises(RuntimeError, match=f"{stage} failed on a worker"):
            refinement_loss_and_grad(*args)
        assert worker_calls
        assert threading.active_count() == before


def _budget_inputs():
    """Criterion 7's first scene at full size with the default footprint:
    3 source views of 80x60 splats and 2 novel views, noisy logits."""
    scene = generate_scene(seed=10, n_boxes=1)
    views = make_trajectory(scene, 5, seed=4)
    gts = [raycast(scene, v) for v in views]
    planes = DepthPlanes.uniform(12, 0.2, 5.0)
    rng = np.random.default_rng(0)
    logits = []
    for g in gts[:3]:
        gq = quarter_depth(g.depth)
        lg = -0.1 * (planes.depths - gq[..., None]) ** 2 / (2 * (planes.spacing / 2) ** 2)
        logits.append(lg + rng.normal(0, 1.2, lg.shape))
    return (logits, planes, views[:3], [g.image for g in gts[:3]], views[3:],
            [block_mean(g.image) for g in gts[3:]])


def _traced_peak(fn, *args):
    """Traced bytes allocated above the starting level at the peak of fn."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _stored_state_matches(monkeypatch, splats, view):
    """Hold one view's rasterize, the colour image and state of its forward
    pass, and the backward pass from that state (with a random dL/d(colour
    image)) to splat_reference's stored-state engine, byte for byte.
    Returns that engine's chunk count, the pixels that straddle a chunk cut
    (the last of one chunk and the first of the next) and the pixels that
    saturate."""
    import mvsweep.splat as splat_module
    import splat_reference as ref

    forward = splat_module._render_forward
    passes = []  # rasterize's forward pass, kept for the backward pass

    def recording_forward(*args):
        passes.append(forward(*args))
        return passes[-1]

    with monkeypatch.context() as m:
        m.setattr(splat_module, "_render_forward", recording_forward)
        rt = rasterize(splats, view)
    (color, state), = passes
    ref_color, ref_state = ref.stored_forward(splats, view)
    ref_rt = ref.stored_target(ref_color, ref_state, view)
    assert color.tobytes() == ref_color.tobytes()
    for image in ("color", "depth", "alpha"):
        assert getattr(rt, image).tobytes() == getattr(ref_rt, image).tobytes()
    pids = [pid for _, pid, _, _ in ref_state.chunks]
    straddles = sum(int(a[-1] == b[0]) for a, b in zip(pids, pids[1:]))
    d_color = np.random.default_rng(7).normal(0.0, 1e-3, color.shape)
    grads = splat_module._render_backward(splats, view, state, d_color)
    ref_grads = ref.stored_backward(splats, view, ref_state, d_color)
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]
    return len(pids), straddles, int(np.count_nonzero(ref_rt.alpha > 1.0 - T_MIN))


def _assert_loss_and_grad_match_stored(monkeypatch, args):
    """refinement_loss_and_grad on `args` gives the loss and gradients it
    gives with splat_reference's stored-state passes, to the bit."""
    import mvsweep.splat as splat_module
    import splat_reference as ref

    loss, grads = refinement_loss_and_grad(*args)
    with monkeypatch.context() as m:
        m.setattr(splat_module, "_render_forward", ref.stored_forward)
        m.setattr(splat_module, "_render_backward", ref.stored_backward)
        ref_loss, ref_grads = refinement_loss_and_grad(*args)
    assert loss.hex() == ref_loss.hex()
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]


def _source_splats(logits, planes, src_v, src_i):
    from mvsweep.costvol import softmax

    return concat_splats([
        build_splats(v, softmax(lg), planes, img, footprint_scale=1.0, source_index=i)
        for i, (v, lg, img) in enumerate(zip(src_v, logits, src_i))
    ])


class TestAgainstStoredState:
    """The forward state keeps run-length pixel ids and recomputes each
    pair's falloff; the engine that stored both per pair
    (splat_reference.stored_*) is its yardstick, to the byte."""

    def test_criterion11_inputs(self, monkeypatch):
        planes, src_v, src_i, nov_v, nov_i, logits = _criterion11_inputs()
        _assert_loss_and_grad_match_stored(
            monkeypatch, (logits, planes, src_v, src_i, nov_v, [block_mean(i) for i in nov_i], 1.0)
        )
        _stored_state_matches(monkeypatch, _source_splats(logits, planes, src_v, src_i), nov_v[0])

    def test_rasterize_walks_the_pairs_once(self, monkeypatch):
        # rasterize sums alpha and depth in its forward walk: it never lists
        # a chunk record's pairs again, and its bytes stay the stored-state
        # engine's.
        import mvsweep.splat as splat_module
        import splat_reference as ref

        def no_second_walk(*args):
            raise AssertionError("rasterize walked the pairs a second time")

        planes, src_v, src_i, nov_v, _, logits = _criterion11_inputs()
        splats = _source_splats(logits, planes, src_v, src_i)
        monkeypatch.setattr(splat_module, "_pairs", no_second_walk)
        rt = rasterize(splats, nov_v[0])
        ref_rt = ref.stored_target(*ref.stored_forward(splats, nov_v[0]), nov_v[0])
        for image in ("color", "depth", "alpha"):
            assert getattr(rt, image).tobytes() == getattr(ref_rt, image).tobytes()

    def test_budget_scene_in_small_chunks(self, monkeypatch):
        # The first novel view in chunks of 64 bbox pixels: about 9,400
        # chunks, some pixels saturated and some straddling a chunk cut.
        import mvsweep.splat as splat_module

        monkeypatch.setattr(splat_module, "PAIR_CHUNK", 64)
        logits, planes, src_v, src_i, nov_v, _ = _budget_inputs()
        splats = _source_splats(logits, planes, src_v, src_i)
        chunks, straddles, saturated = _stored_state_matches(monkeypatch, splats, nov_v[0])
        assert chunks >= 20 and straddles >= 1 and saturated >= 1

    def test_two_pass_radix_grid(self, monkeypatch):
        # A 260x260 quarter grid: pixel ids above 65,535 take the radix
        # sort's second pass.
        view = grid_view(1040, 1040, f=520.0)
        splats = _random_splats(np.random.default_rng(1040), 400, view, np.array([1.0, 2.0]))
        _stored_state_matches(monkeypatch, splats, view)

    @pytest.mark.parametrize("mu, sigma", TestDegenerateFootprints.FAR_SPLATS)
    def test_degenerate_footprints(self, monkeypatch, mu, sigma):
        view = CameraView(Intrinsics(300.0, 300.0, 159.5, 119.5), identity_pose(), 320, 240)
        normal = single_splat(ray_point(view, 40, 30, 2.0), alpha=0.7, sigma=0.05)
        far = single_splat(mu, sigma=sigma)
        for pair in ([normal, far], [far, normal]):
            _stored_state_matches(monkeypatch, concat_splats(pair), view)


class TestMemoryBudget:
    # Traced peak bytes per (primitive, pixel) pair within 3 sigma, composited
    # or not: for one loss-and-gradient evaluation per pair summed over both
    # novel views (measured 19.7-21.5 with no probabilities held through the
    # passes and the camera-frame centers, Jacobian entries and 2D
    # covariances dropped after the footprints; 23.0-24.6 with them held,
    # 34.1-36.8 with pixel ids and falloffs stored per pair, 57.4-61.9 when
    # the backward pass walked the whole view's pairs at once, 51.2 with one
    # view after the other, 64.9 before the saturation rule), and for one
    # rasterize per pair of its view (measured 18.7; 20.2 with the
    # projection held, 32.7 with pixel ids and falloffs stored per pair, 55.6
    # with view-sized int32 pair arrays, 66.8 with int64 ones, 63.0 before
    # the saturation rule).  The fused render-and-backward pass of an older
    # engine peaked at 90.7 and 119.7 on the same scene.  Each bound is the
    # largest measurement plus about 15%.
    LOSS_AND_GRAD_BYTES_PER_PAIR = 25
    RASTERIZE_BYTES_PER_PAIR = 22
    # Bytes of the forward state's chunk records per composited pair: 12 per
    # pair (int32 primitive, float64 transmittance) and 8 per run (int32
    # pixel id and pair count).  Measured 12.70 and 12.68 on the two views;
    # 24.00 with each pair's pixel id and falloff stored.
    STATE_BYTES_PER_PAIR = 13

    def test_loss_and_grad_and_rasterize_peaks(self):
        from splat_reference import gather_pairs_unsorted, project_gaussians

        logits, planes, src_v, src_i, nov_v, nov_i = _budget_inputs()
        splats = _source_splats(logits, planes, src_v, src_i)
        pairs = []  # every 3-sigma pair, composited or not
        for view in nov_v:
            _, _, _, mean2d, cov2d, _, _, _, gw, gh = project_gaussians(splats, view)
            pairs.append(gather_pairs_unsorted(mean2d, cov2d, gw, gh)[0].size)
        peak = _traced_peak(refinement_loss_and_grad, logits, planes, src_v, src_i, nov_v, nov_i,
                            1.0)
        raster_peak = _traced_peak(rasterize, splats, nov_v[0])
        assert peak <= self.LOSS_AND_GRAD_BYTES_PER_PAIR * sum(pairs)
        assert raster_peak <= self.RASTERIZE_BYTES_PER_PAIR * pairs[0]

    def test_forward_state_size(self):
        from mvsweep.splat import _render_forward

        logits, planes, src_v, src_i, nov_v, _ = _budget_inputs()
        splats = _source_splats(logits, planes, src_v, src_i)
        for view in nov_v:
            chunks = _render_forward(splats, view)[1].chunks
            composited = sum(record[0].size for record in chunks)
            assert composited > 0
            state_bytes = sum(a.nbytes for record in chunks for a in record)
            assert state_bytes <= self.STATE_BYTES_PER_PAIR * composited


class TestDetectMemoryBudget:
    # Traced peak bytes of one detection run (`run_pipeline` without
    # refinement) per full-res pixel per view of a 10-view 160x120 scene.
    # Measured 32.7 with each image decoded where it is used and ground
    # truth decoded only to score it; 58.5 when every image and depth raster
    # was decoded up front and held to the end of the run.
    DETECT_BYTES_PER_PIXEL_VIEW = 40

    def test_detect_run_peak(self, tmp_path):
        from mvsweep.harness import pipeline
        from mvsweep.harness.config import PipelineConfig

        scene = generate_scene(seed=31, n_boxes=2)
        views = make_trajectory(scene, 10, seed=31, image_size=(160, 120))
        pipeline.write_scene(tmp_path / "scene", scene, views)
        config = PipelineConfig(grid_dims=(16, 16, 8), grid_pitch=(0.4, 0.4, 0.4),
                                grid_origin=(-3.2, -3.2, 0.0), min_component=2)
        peak = _traced_peak(pipeline.run_pipeline, tmp_path / "scene", config)
        assert peak <= self.DETECT_BYTES_PER_PIXEL_VIEW * 10 * 160 * 120


class TestRefineMemoryBudget:
    # Traced peak bytes of one refining run (`run_pipeline(..., refine=True)`,
    # 2 steps, one novel view, so no worker thread and the same peak every
    # run) per full-res pixel per view of a 10-view 160x120 scene, after one
    # untraced run has made the imports a first run makes.  Measured 56.1
    # with the refined views' volumes handed over to the refinement and
    # dropped there, no probabilities held through the passes and the
    # projection dropped after the footprints; 60.8 with all of them held.
    REFINE_BYTES_PER_PIXEL_VIEW = 58

    def test_refine_run_peak(self, tmp_path):
        from mvsweep.harness import pipeline
        from mvsweep.harness.config import PipelineConfig

        scene = generate_scene(seed=31, n_boxes=2)
        views = make_trajectory(scene, 10, seed=31, image_size=(160, 120))
        pipeline.write_scene(tmp_path / "scene", scene, views)
        config = PipelineConfig(grid_dims=(16, 16, 8), grid_pitch=(0.4, 0.4, 0.4),
                                grid_origin=(-3.2, -3.2, 0.0), min_component=2,
                                refine_steps=2, refine_novel_views=1)
        pipeline.run_pipeline(tmp_path / "scene", config, refine=True)
        peak = _traced_peak(pipeline.run_pipeline, tmp_path / "scene", config, None, True)
        assert peak <= self.REFINE_BYTES_PER_PIXEL_VIEW * 10 * 160 * 120
