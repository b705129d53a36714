import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsweep.camera import (
    CameraView,
    Intrinsics,
    Pose,
    homography_warp,
    in_bounds,
    look_at,
    nearest_views,
    project,
    ray_grid,
    relative_pose,
    scale_intrinsics,
)
from mvsweep.scenegen import generate_scene, make_trajectory

from camera_reference import backproject_ray


def random_pose(rng) -> Pose:
    # Random rotation via QR of a Gaussian matrix, sign-fixed to det +1.
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return Pose(q, rng.uniform(-2, 2, size=3))


def random_view(rng, width=64, height=48) -> CameraView:
    k = Intrinsics(
        fx=rng.uniform(40, 120),
        fy=rng.uniform(40, 120),
        cx=(width - 1) / 2 + rng.uniform(-2, 2),
        cy=(height - 1) / 2 + rng.uniform(-2, 2),
    )
    return CameraView(k, random_pose(rng), width, height)


class TestIntrinsics:
    def test_positive_focals_required(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
        with pytest.raises(ValueError):
            Intrinsics(fx=1.0, fy=-3.0, cx=0.0, cy=0.0)

    def test_scale_identity(self):
        k = Intrinsics(400.0, 410.0, 159.5, 119.5)
        s = scale_intrinsics(k, 1.0)
        assert (s.fx, s.fy, s.cx, s.cy) == (400.0, 410.0, 159.5, 119.5)

    def test_scale_quarter(self):
        # Half-pixel convention: cx' = (cx + 0.5) * f - 0.5.
        k = Intrinsics(400.0, 400.0, 159.5, 119.5)
        s = scale_intrinsics(k, 0.25)
        assert s.fx == pytest.approx(100.0, abs=1e-12)
        assert s.cx == pytest.approx(39.5, abs=1e-12)
        assert s.cy == pytest.approx(29.5, abs=1e-12)

    def test_scale_round_trip(self):
        k = Intrinsics(400.0, 380.0, 161.2, 118.7)
        s = scale_intrinsics(scale_intrinsics(k, 0.25), 4.0)
        for a, b in zip((s.fx, s.fy, s.cx, s.cy), (k.fx, k.fy, k.cx, k.cy)):
            assert a == pytest.approx(b, abs=1e-12)

    @given(
        a=st.floats(0.1, 4.0),
        b=st.floats(0.1, 4.0),
        cx=st.floats(-10, 400),
        fx=st.floats(1.0, 1000.0),
    )
    def test_scale_composes(self, a, b, cx, fx):
        k = Intrinsics(fx, fx * 1.1, cx, cx * 0.7 + 3)
        once = scale_intrinsics(k, a * b)
        twice = scale_intrinsics(scale_intrinsics(k, a), b)
        assert once.fx == pytest.approx(twice.fx, rel=1e-12, abs=1e-12)
        assert once.cx == pytest.approx(twice.cx, rel=1e-12, abs=1e-12)
        assert once.cy == pytest.approx(twice.cy, rel=1e-12, abs=1e-12)


class TestPose:
    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            Pose(bad, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(refl, np.zeros(3))

    def test_camera_center(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_pose(rng)
            c = p.camera_center()
            np.testing.assert_allclose(p.transform(c), 0.0, atol=1e-12)


class TestRelativePose:
    def test_same_pose_gives_identity(self):
        rng = np.random.default_rng(5)
        p = random_pose(rng)
        rel = relative_pose(p, p)
        np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rel.translation, 0.0, atol=1e-12)

    def test_identity_reference_returns_other(self):
        rng = np.random.default_rng(6)
        p = random_pose(rng)
        rel = relative_pose(Pose.identity(), p)
        np.testing.assert_allclose(rel.rotation, p.rotation, atol=1e-12)
        np.testing.assert_allclose(rel.translation, p.translation, atol=1e-12)

    def test_composition_oracle(self):
        # Transform a point into frame i, apply the relative pose, compare
        # against the direct world-to-j transform.
        rng = np.random.default_rng(7)
        for _ in range(100):
            pi, pj = random_pose(rng), random_pose(rng)
            rel = relative_pose(pi, pj)
            pt = rng.uniform(-3, 3, size=3)
            via_rel = rel.transform(pi.transform(pt))
            direct = pj.transform(pt)
            np.testing.assert_allclose(via_rel, direct, atol=1e-9)

    def test_orthonormality_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rel = relative_pose(random_pose(rng), random_pose(rng))
            np.testing.assert_allclose(
                rel.rotation.T @ rel.rotation, np.eye(3), atol=1e-9
            )


class TestProject:
    def test_axis_point_identity_pose(self):
        view = CameraView(Intrinsics(1.0, 1.0, 0.0, 0.0), Pose.identity(), 8, 8)
        u, v, d, _ = project(np.array([0.0, 0.0, 2.0]), view)
        assert (u, v, d) == (0.0, 0.0, 2.0)

    def test_offset_point(self):
        view = CameraView(Intrinsics(100.0, 100.0, 32.0, 24.0), Pose.identity(), 64, 48)
        u, v, d, valid = project(np.array([0.5, 0.0, 2.0]), view)
        assert u == pytest.approx(57.0, abs=1e-12)
        assert v == pytest.approx(24.0, abs=1e-12)
        assert d == 2.0
        assert valid

    def test_behind_camera_invalid(self):
        view = CameraView(Intrinsics(100.0, 100.0, 32.0, 24.0), Pose.identity(), 64, 48)
        *_, valid = project(np.array([0.0, 0.0, -1.0]), view)
        assert not valid

    def test_out_of_bounds_invalid(self):
        view = CameraView(Intrinsics(10.0, 10.0, 2.0, 2.0), Pose.identity(), 8, 8)
        u, v, d, valid = project(np.array([10.0, 0.0, 1.0]), view)
        assert d > 0 and not valid

    def test_scale_requires_ge_one(self):
        view = CameraView(Intrinsics(10.0, 10.0, 2.0, 2.0), Pose.identity(), 8, 8)
        with pytest.raises(ValueError):
            project(np.zeros(3), view, scale=0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        view = random_view(rng)
        pts = rng.uniform(-1, 1, size=(20, 3)) + view.pose.camera_center()
        u, v, d, valid = project(pts, view, scale=4)
        for i in range(20):
            ui, vi, di, vali = project(pts[i], view, scale=4)
            if np.isnan(ui):
                assert np.isnan(u[i])
            else:
                assert u[i] == pytest.approx(ui) and v[i] == pytest.approx(vi)
            assert d[i] == pytest.approx(di)
            assert valid[i] == vali


class TestBackprojectRay:
    def test_principal_ray_is_optical_axis(self):
        view = CameraView(Intrinsics(100.0, 100.0, 31.5, 23.5), Pose.identity(), 64, 48)
        ray = backproject_ray(31.5, 23.5, view)
        np.testing.assert_allclose(ray.direction, [0.0, 0.0, 1.0], atol=1e-12)

    def test_origin_is_camera_center(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            view = random_view(rng)
            ray = backproject_ray(5.0, 5.0, view)
            np.testing.assert_allclose(ray.origin, view.pose.camera_center(), atol=1e-12)

    def test_out_of_bounds_raises(self):
        view = CameraView(Intrinsics(100.0, 100.0, 31.5, 23.5), Pose.identity(), 64, 48)
        with pytest.raises(ValueError):
            backproject_ray(64.0, 10.0, view)

    def test_round_trip_with_project(self):
        # origin + (D / cos) * dir must land back on the pixel with camera
        # depth D, for depths across the working range.
        rng = np.random.default_rng(17)
        for _ in range(100):
            view = random_view(rng)
            scale = int(rng.choice([1, 4]))
            k, w, h = view.scaled(scale)
            u = rng.uniform(0, w - 1)
            v = rng.uniform(0, h - 1)
            depth = rng.uniform(0.2, 5.0)
            ray = backproject_ray(u, v, view, scale)
            axis_cos = float(ray.direction @ view.pose.rotation[2])
            pt = ray.origin + (depth / axis_cos) * ray.direction
            u2, v2, d2, valid = project(pt, view, scale)
            assert valid
            assert abs(u2 - u) < 1e-6 and abs(v2 - v) < 1e-6
            assert d2 == pytest.approx(depth, abs=1e-9)

    def test_ray_grid_matches_backproject(self):
        rng = np.random.default_rng(19)
        view = random_view(rng)
        origin, dirs, axis_cos = ray_grid(view, scale=4)
        np.testing.assert_allclose(origin, view.pose.camera_center(), atol=1e-12)
        for (r, c) in [(0, 0), (3, 7), (11, 15)]:
            ray = backproject_ray(float(c), float(r), view, scale=4)
            np.testing.assert_allclose(dirs[r, c], ray.direction, atol=1e-12)
            assert axis_cos[r, c] == pytest.approx(
                float(ray.direction @ view.pose.rotation[2])
            )


class TestNearestViews:
    """Camera-centre view selection follows both selectors in
    `tests/camera_reference.py`: the plane-sweep source pick and the
    novel-view source pick."""

    @staticmethod
    def line_views(xs):
        return [CameraView(Intrinsics(40.0, 40.0, 15.5, 15.5),
                           Pose(np.eye(3), np.array([-x, 0.0, 0.0])), 32, 32) for x in xs]

    @staticmethod
    def view_sets():
        # Exactly equidistant cameras on a line, and a generated trajectory.
        scene = generate_scene(seed=7, n_boxes=1)
        return [
            TestNearestViews.line_views([0.0, -1.0, 1.0, 2.0, -2.0, 0.5, -0.5]),
            make_trajectory(scene, 10, seed=7, image_size=(64, 48)),
        ]

    def test_matches_source_selector(self):
        from camera_reference import select_source_views as reference

        for views in self.view_sets():
            n = len(views)
            for ref in range(n):
                for count in range(1, n):
                    assert nearest_views(views, views[ref], count, exclude=ref) == reference(
                        views, ref, count)
                with pytest.raises(ValueError):
                    nearest_views(views, views[ref], n, exclude=ref)

    def test_matches_novel_selector(self):
        from camera_reference import select_novel_sources as reference

        for views in self.view_sets():
            n = len(views)
            targets = views + self.line_views([0.25, -1.5, 0.0])
            for target in targets:
                for count in range(1, n + 1):
                    assert nearest_views(views, target, count) == reference(views, target, count)
                with pytest.raises(ValueError):
                    nearest_views(views, target, n + 1)


class TestHomographyWarp:
    def test_identity_relation_fixes_points(self):
        k = Intrinsics(100.0, 90.0, 31.5, 23.5)
        for d in (0.3, 1.0, 4.9):
            uv, _, ok = homography_warp(np.array([12.0, 7.0]), d, k, k, Pose.identity())
            assert ok
            np.testing.assert_allclose(uv, [12.0, 7.0], atol=1e-12)

    def test_stereo_disparity(self):
        # Source camera displaced +0.2 m along x: shift is fx*b/d pixels.
        k = Intrinsics(100.0, 100.0, 31.5, 23.5)
        baseline = 0.2
        src_pose = Pose(np.eye(3), np.array([-baseline, 0.0, 0.0]))
        rel = relative_pose(Pose.identity(), src_pose)
        uv, _, ok = homography_warp(np.array([31.5, 23.5]), 2.0, k, k, rel)
        assert ok
        assert uv[0] - 31.5 == pytest.approx(-100.0 * baseline / 2.0, abs=1e-12)
        assert abs(uv[0] - 31.5) == pytest.approx(10.0, abs=1e-12)
        assert uv[1] == pytest.approx(23.5, abs=1e-12)

    def test_agrees_with_two_view_projection(self):
        # A 3D point on the swept plane must warp to its direct projection.
        rng = np.random.default_rng(23)
        hits = 0
        while hits < 100:
            ref = random_view(rng)
            src = random_view(rng)
            d = rng.uniform(0.2, 5.0)
            k_ref, w, h = ref.scaled(4)
            k_src, _, _ = src.scaled(4)
            u, v = rng.uniform(0, w - 1), rng.uniform(0, h - 1)
            # Point at camera-frame depth d along the reference pixel ray.
            cam_pt = np.array([(u - k_ref.cx) / k_ref.fx * d, (v - k_ref.cy) / k_ref.fy * d, d])
            world_pt = ref.pose.rotation.T @ (cam_pt - ref.pose.translation)
            u_direct, v_direct, d_src, ok = project(world_pt, src, scale=4)
            if not d_src > 1e-3:
                continue
            hits += 1
            rel = relative_pose(ref.pose, src.pose)
            uv, _, in_front = homography_warp(np.array([u, v]), d, k_ref, k_src, rel)
            assert in_front
            assert abs(uv[0] - u_direct) < 1e-5
            assert abs(uv[1] - v_direct) < 1e-5

    def test_behind_source_flagged(self):
        k = Intrinsics(50.0, 50.0, 15.5, 15.5)
        # Source camera rotated 180 degrees about y: the plane sits behind it.
        r = np.diag([-1.0, 1.0, -1.0])
        rel = relative_pose(Pose.identity(), Pose(r, np.zeros(3)))
        uv, _, in_front = homography_warp(np.array([15.5, 15.5]), 1.0, k, k, rel)
        assert not in_front
        assert np.isnan(uv).all()

    def test_rejects_nonpositive_depth(self):
        k = Intrinsics(50.0, 50.0, 15.5, 15.5)
        with pytest.raises(ValueError):
            homography_warp(np.array([1.0, 1.0]), 0.0, k, k, Pose.identity())


class TestLookAt:
    def test_target_projects_to_principal_point(self):
        eye = np.array([1.0, -2.0, 1.5])
        target = np.array([0.0, 0.0, 1.0])
        pose = look_at(eye, target)
        view = CameraView(Intrinsics(100.0, 100.0, 31.5, 23.5), pose, 64, 48)
        u, v, d, valid = project(target, view)
        assert valid
        assert u == pytest.approx(31.5, abs=1e-9)
        assert v == pytest.approx(23.5, abs=1e-9)
        assert d == pytest.approx(np.linalg.norm(target - eye))

    def test_y_axis_points_downward(self):
        pose = look_at([2.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        # Image-down axis should have negative world-z component.
        assert pose.rotation[1] @ np.array([0.0, 0.0, 1.0]) < 0


class TestBounds:
    @settings(max_examples=50)
    @given(u=st.floats(-5, 70), v=st.floats(-5, 70))
    def test_band_is_half_pixel(self, u, v):
        inside = bool(in_bounds(u, v, 64, 48))
        assert inside == ((-0.5 <= u <= 63.5) and (-0.5 <= v <= 47.5))
