import hashlib
import tracemalloc

import numpy as np
import pytest

from mvsweep import scenegen
from mvsweep.camera import CameraView, Intrinsics, look_at, project
from scenegen_reference import multiview_coverage as reference_coverage
from scenegen_reference import raycast as reference_raycast
from scenegen_reference import surface_albedo as reference_albedo
from scenegen_reference import value_noise as reference_noise
from simd_pins import assert_pinned
from mvsweep.scenegen import (
    GroundTruth,
    SceneSpec,
    TexturedBox,
    _box_window,
    generate_scene,
    make_trajectory,
    multiview_coverage,
    raycast,
    surface_albedo,
    value_noise,
)


def axis_view(eye, target, w=64, h=48, f=60.0):
    k = Intrinsics(f, f, (w - 1) / 2, (h - 1) / 2)
    return CameraView(k, look_at(eye, target), w, h)


def scalar_ray_box(o, d, lo, hi):
    """Independent slab test: entry distance or None."""
    t_near, t_far = -np.inf, np.inf
    for a in range(3):
        if d[a] == 0.0:
            if o[a] < lo[a] or o[a] > hi[a]:
                return None
            continue
        t1, t2 = (lo[a] - o[a]) / d[a], (hi[a] - o[a]) / d[a]
        t_near = max(t_near, min(t1, t2))
        t_far = min(t_far, max(t1, t2))
    if t_near <= t_far and t_near > 0:
        return t_near
    return None


class TestGenerateScene:
    def test_empty_room(self):
        scene = generate_scene(seed=7, n_boxes=0)
        assert scene.boxes == ()
        assert scene.walls

    def test_deterministic(self):
        a = generate_scene(seed=7, n_boxes=2)
        b = generate_scene(seed=7, n_boxes=2)
        for ba, bb in zip(a.boxes, b.boxes):
            np.testing.assert_array_equal(ba.lo, bb.lo)
            np.testing.assert_array_equal(ba.hi, bb.hi)
            assert ba.texture_seed == bb.texture_seed
        np.testing.assert_array_equal(a.background, b.background)

    def test_boxes_disjoint_and_inside(self):
        for seed in (1, 7, 23):
            scene = generate_scene(seed=seed, n_boxes=3)
            assert len(scene.boxes) == 3
            for b in scene.boxes:
                assert np.all(b.lo > scene.room_lo) and np.all(b.hi < scene.room_hi)
                assert np.all(b.lo < b.hi)
            for i in range(3):
                for j in range(i + 1, 3):
                    bi, bj = scene.boxes[i], scene.boxes[j]
                    overlap = np.all(bi.lo < bj.hi) and np.all(bi.hi > bj.lo)
                    assert not overlap


class TestSceneValidation:
    @pytest.mark.parametrize("field, value", [
        ("room_lo", (-np.inf, -3.2, 0.0)),
        ("room_hi", (3.2, np.nan, 3.2)),
        ("room_hi", (3.2, 3.2, np.inf)),
    ])
    def test_non_finite_room_bounds_rejected(self, field, value):
        room = generate_scene(seed=3, n_boxes=0)
        kw = dict(room_lo=room.room_lo, room_hi=room.room_hi, boxes=(),
                  background=room.background, wall_seed=room.wall_seed)
        kw[field] = np.array(value)
        with pytest.raises(ValueError, match=f"field {field}: room bounds must be finite"):
            SceneSpec(**kw)

    @pytest.mark.parametrize("value", [(np.nan, 0.5, 0.5), (0.5, np.inf, 0.5), (0.5, 0.5, -0.1),
                                       (1.0 + 1e-12, 0.5, 0.5)])
    def test_background_outside_unit_range_rejected(self, value):
        # raycast would shade a NaN background into NaN pixels, which an
        # 8-bit scene image cannot hold.
        room = generate_scene(seed=3, n_boxes=0)
        with pytest.raises(ValueError, match=r"field background: base albedo must lie in \[0, 1\]"):
            SceneSpec(room_lo=room.room_lo, room_hi=room.room_hi, boxes=(),
                      background=np.array(value), wall_seed=room.wall_seed)

    @pytest.mark.parametrize("value", [(0.2, np.nan, 0.4), (-np.inf, 0.3, 0.4), (0.2, 0.3, 2.0)])
    def test_box_color_outside_unit_range_rejected(self, value):
        with pytest.raises(ValueError, match=r"field color: base albedo must lie in \[0, 1\]"):
            TexturedBox(lo=np.zeros(3), hi=np.ones(3), texture_seed=1, color=np.array(value))

    def test_unit_range_endpoints_accepted(self):
        box = TexturedBox(lo=np.zeros(3), hi=np.ones(3), texture_seed=1, color=(0.0, 1.0, 0.5))
        assert box.color.tolist() == [0.0, 1.0, 0.5]


class TestValueNoise:
    def test_deterministic_and_bounded(self):
        x = np.linspace(-4, 4, 101)
        y = np.linspace(-3, 5, 101)
        a = value_noise(x, y, seed=42)
        b = value_noise(x, y, seed=42)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0) and np.all(a < 1)

    def test_seed_changes_field(self):
        x, y = np.meshgrid(np.linspace(0, 3, 32), np.linspace(0, 3, 32))
        assert not np.allclose(value_noise(x, y, 1), value_noise(x, y, 2))

    def test_has_variation_at_patch_scale(self):
        # A 4x4 full-res patch (~3-6 cm at scene depths) must see non-零
        # variance so the descriptor's variance metric stays discriminative.
        s = np.linspace(0.0, 0.06, 4)
        ss, tt = np.meshgrid(s, s)
        patch = surface_albedo(
            np.stack([ss.ravel(), tt.ravel(), np.zeros(16)], axis=1),
            np.full(16, 5),
            seed_base=99,
            base=np.array([0.6, 0.6, 0.6]),
        )
        assert patch.std() > 1e-3


# SHA-256 of the float64 depth and image bytes of one ray-cast view, one row
# per SIMD class.  The image goes through np.exp, whose AVX-512 kernel gives
# other last bits than the AVX2 and baseline ones; the depth does not.
RAYCAST_DEPTH_SHA256 = {
    "AVX-512": "3ea69e172b71686dbe17e43bca092e203c6b689df2af5dd937351478b057566e",
    "AVX2": "3ea69e172b71686dbe17e43bca092e203c6b689df2af5dd937351478b057566e",
    "baseline": "3ea69e172b71686dbe17e43bca092e203c6b689df2af5dd937351478b057566e",
}
RAYCAST_IMAGE_SHA256 = {
    "AVX-512": "6eeaa0b3f83ec3b2ed0a0107a2911dbfe43859a076ae17c852110cd5642c36fe",
    "AVX2": "77d36654831a8fdf5a59d3b42be3a68495cdbbe0b9d8ec2c8b96f9e8c397d6a0",
    "baseline": "77d36654831a8fdf5a59d3b42be3a68495cdbbe0b9d8ec2c8b96f9e8c397d6a0",
}


class TestRaycast:
    def test_wall_depth_exact(self):
        scene = generate_scene(seed=3, n_boxes=0)
        # Camera 2 m from the +x wall, principal point at an integer pixel so
        # the central ray is exactly the optical axis.
        k = Intrinsics(60.0, 60.0, 32.0, 24.0)
        view = CameraView(k, look_at([1.2, 0.0, 1.6], [3.2, 0.0, 1.6]), 64, 48)
        gt = raycast(scene, view)
        assert gt.depth[24, 32] == pytest.approx(2.0, abs=1e-12)
        assert gt.depth.min() > 0  # walls everywhere

    def test_box_occludes_wall(self):
        room = generate_scene(seed=3, n_boxes=0)
        box = TexturedBox(
            lo=np.array([2.0, -0.4, 1.2]),
            hi=np.array([2.6, 0.4, 2.0]),
            texture_seed=5,
            color=np.array([0.8, 0.2, 0.2]),
        )
        scene = SceneSpec(
            room_lo=room.room_lo,
            room_hi=room.room_hi,
            boxes=(box,),
            background=room.background,
            wall_seed=room.wall_seed,
        )
        view = CameraView(
            Intrinsics(60.0, 60.0, 32.0, 24.0),
            look_at([0.0, 0.0, 1.6], [3.2, 0.0, 1.6]),
            64,
            48,
        )
        gt = raycast(scene, view)
        # Central pixel hits the box front face (x = 2.0), corners the walls.
        assert gt.depth[24, 32] == pytest.approx(2.0, abs=1e-12)
        assert gt.depth[0, 0] > 2.6

    def test_matches_scalar_slab_oracle(self):
        scene = generate_scene(seed=11, n_boxes=2)
        view = make_trajectory(scene, 3, seed=4)[1]
        gt = raycast(scene, view)
        k = view.intrinsics
        rng = np.random.default_rng(0)
        origin = view.pose.camera_center()
        for _ in range(200):
            r = int(rng.integers(0, view.height))
            c = int(rng.integers(0, view.width))
            d_cam = np.array([(c - k.cx) / k.fx, (r - k.cy) / k.fy, 1.0])
            d_world = view.pose.rotation.T @ d_cam
            best = np.inf
            for axis in range(3):
                if d_world[axis] == 0:
                    continue
                bound = scene.room_hi[axis] if d_world[axis] > 0 else scene.room_lo[axis]
                best = min(best, (bound - origin[axis]) / d_world[axis])
            for b in scene.boxes:
                t = scalar_ray_box(origin, d_world, b.lo, b.hi)
                if t is not None:
                    best = min(best, t)
            assert gt.depth[r, c] == pytest.approx(best, abs=1e-9)

    def test_open_room_miss_sentinel(self):
        room = generate_scene(seed=3, n_boxes=0)
        scene = SceneSpec(
            room_lo=room.room_lo,
            room_hi=room.room_hi,
            boxes=(),
            background=room.background,
            wall_seed=room.wall_seed,
            walls=False,
        )
        view = CameraView(
            Intrinsics(60.0, 60.0, 31.5, 23.5),
            look_at([0.0, 0.0, 1.6], [1.0, 0.0, 1.6]),
            64,
            48,
        )
        gt = raycast(scene, view)
        assert np.all(gt.depth == 0.0)
        assert np.all(gt.image == 0.0)

    def test_camera_inside_box_rejected(self):
        room = generate_scene(seed=3, n_boxes=0)
        box = TexturedBox(
            lo=np.array([-0.5, -0.5, 1.0]),
            hi=np.array([0.5, 0.5, 2.2]),
            texture_seed=5,
            color=np.array([0.5, 0.5, 0.5]),
        )
        scene = SceneSpec(
            room_lo=room.room_lo,
            room_hi=room.room_hi,
            boxes=(box,),
            background=room.background,
            wall_seed=room.wall_seed,
        )
        view = CameraView(
            Intrinsics(60.0, 60.0, 31.5, 23.5),
            look_at([0.0, 0.0, 1.6], [1.0, 0.0, 1.6]),
            64,
            48,
        )
        with pytest.raises(ValueError, match="inside a box"):
            raycast(scene, view)

    def test_camera_outside_room_rejected(self):
        scene = generate_scene(seed=3, n_boxes=0)
        view = CameraView(
            Intrinsics(60.0, 60.0, 31.5, 23.5),
            look_at([9.0, 0.0, 1.6], [0.0, 0.0, 1.6]),
            64,
            48,
        )
        with pytest.raises(ValueError, match="inside the room"):
            raycast(scene, view)

    def test_deterministic(self):
        scene = generate_scene(seed=5, n_boxes=1)
        view = make_trajectory(scene, 2, seed=1)[0]
        a = raycast(scene, view)
        b = raycast(scene, view)
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.image, b.image)

    def test_image_in_unit_range(self):
        scene = generate_scene(seed=5, n_boxes=2)
        view = make_trajectory(scene, 2, seed=1)[0]
        gt = raycast(scene, view)
        assert gt.image.min() >= 0.0 and gt.image.max() <= 1.0

    def test_float64_output_pinned(self):
        # View 0 of criterion 12's seed-5 scene.  Scene files keep depth as
        # f32 and images as 8 bits, so the scene digest alone would miss a
        # change in the low bits of either.
        scene = generate_scene(seed=5, n_boxes=1)
        view = make_trajectory(scene, 3, seed=5, image_size=(128, 96))[0]
        gt = raycast(scene, view)
        assert_pinned("depth", hashlib.sha256(gt.depth.tobytes()).hexdigest(), RAYCAST_DEPTH_SHA256)
        assert_pinned("image", hashlib.sha256(gt.image.tobytes()).hexdigest(), RAYCAST_IMAGE_SHA256)


class TestTrajectory:
    def test_two_view_baseline(self):
        scene = generate_scene(seed=9, n_boxes=0)
        views = make_trajectory(scene, 2, seed=2)
        base = np.linalg.norm(
            views[0].pose.camera_center() - views[1].pose.camera_center()
        )
        assert 0.05 <= base <= 1.0

    def test_pairwise_baselines_bounded(self):
        scene = generate_scene(seed=9, n_boxes=2)
        views = make_trajectory(scene, 10, seed=2)
        centers = np.stack([v.pose.camera_center() for v in views])
        for i in range(10):
            for j in range(i + 1, 10):
                d = np.linalg.norm(centers[i] - centers[j])
                assert 0.05 <= d <= 1.0

    def test_deterministic(self):
        scene = generate_scene(seed=9, n_boxes=1)
        a = make_trajectory(scene, 5, seed=3)
        b = make_trajectory(scene, 5, seed=3)
        for va, vb in zip(a, b):
            np.testing.assert_array_equal(va.pose.rotation, vb.pose.rotation)
            np.testing.assert_array_equal(va.pose.translation, vb.pose.translation)

    def test_all_poses_accepted_by_raycast(self):
        scene = generate_scene(seed=9, n_boxes=2)
        for view in make_trajectory(scene, 10, seed=2):
            raycast(scene, view)  # must not raise

    def test_boxes_visible_from_trajectory(self):
        # Every box center should project inside most views.
        scene = generate_scene(seed=21, n_boxes=2)
        views = make_trajectory(scene, 6, seed=5)
        for b in scene.boxes:
            center = (b.lo + b.hi) / 2
            seen = sum(project(center, v)[3] for v in views)
            assert seen >= 4

    def test_too_many_views_rejected(self):
        scene = generate_scene(seed=9, n_boxes=0)
        with pytest.raises(ValueError):
            make_trajectory(scene, 30, seed=2)


class TestMultiViewConsistency:
    def test_albedo_is_view_independent(self):
        # The albedo function depends only on (point, face, seed): a second
        # evaluation of a hit point must reproduce the rendered pixel exactly.
        scene = generate_scene(seed=13, n_boxes=1)
        view = make_trajectory(scene, 2, seed=1)[0]
        gt = raycast(scene, view)
        k = view.intrinsics
        origin = view.pose.camera_center()
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = int(rng.integers(0, view.height))
            c = int(rng.integers(0, view.width))
            d_cam = np.array([(c - k.cx) / k.fx, (r - k.cy) / k.fy, 1.0])
            pt = origin + gt.depth[r, c] * (view.pose.rotation.T @ d_cam)
            # Identify the surface: nearest axis plane of the room or a box.
            matched = False
            for fid, (axis, bound) in enumerate(
                [(0, scene.room_lo[0]), (0, scene.room_hi[0]),
                 (1, scene.room_lo[1]), (1, scene.room_hi[1]),
                 (2, scene.room_lo[2]), (2, scene.room_hi[2])]
            ):
                if abs(pt[axis] - bound) < 1e-9:
                    color = surface_albedo(pt, np.array([fid]), scene.wall_seed, scene.background)
                    np.testing.assert_allclose(color[0], gt.image[r, c], atol=1e-12)
                    matched = True
                    break
            if not matched:
                for b in scene.boxes:
                    for fid, (axis, bound) in enumerate(
                        [(0, b.lo[0]), (0, b.hi[0]), (1, b.lo[1]),
                         (1, b.hi[1]), (2, b.lo[2]), (2, b.hi[2])]
                    ):
                        if abs(pt[axis] - bound) < 1e-9:
                            color = surface_albedo(pt, np.array([fid]), b.texture_seed, b.color)
                            np.testing.assert_allclose(color[0], gt.image[r, c], atol=1e-12)
                            matched = True
                            break
                    if matched:
                        break
            assert matched

    def test_depth_reprojection_consistency(self):
        # Backproject view A pixels at GT depth and project into view B: the
        # landing point may be occluded (strictly behind B's surface) but can
        # never sit in front of it beyond interpolation slack.
        scene = generate_scene(seed=17, n_boxes=2)
        views = make_trajectory(scene, 3, seed=6)
        a, b = views[0], views[2]
        gt_a, gt_b = raycast(scene, a), raycast(scene, b)
        k = a.intrinsics
        origin = a.pose.camera_center()
        rng = np.random.default_rng(2)
        consistent = 0
        total = 0
        for _ in range(400):
            r = int(rng.integers(0, a.height))
            c = int(rng.integers(0, a.width))
            if gt_a.depth[r, c] <= 0:
                continue
            d_cam = np.array([(c - k.cx) / k.fx, (r - k.cy) / k.fy, 1.0])
            pt = origin + gt_a.depth[r, c] * (a.pose.rotation.T @ d_cam)
            u, v, depth_b, valid = project(pt, b)
            if not valid:
                continue
            total += 1
            rr = int(np.clip(round(v), 0, b.height - 1))
            cc = int(np.clip(round(u), 0, b.width - 1))
            r0, r1 = max(0, rr - 1), min(b.height, rr + 2)
            c0, c1 = max(0, cc - 1), min(b.width, cc + 2)
            neighborhood = gt_b.depth[r0:r1, c0:c1]
            # 1 px of interpolation slack: the landing point sits between
            # pixel centers, so allow the local per-pixel depth variation.
            slack = float(neighborhood.max() - neighborhood.min()) + 1e-3
            assert depth_b >= neighborhood.min() - slack  # never in front
            if depth_b <= neighborhood.max() + slack:
                consistent += 1
        assert total > 100
        assert consistent / total > 0.8


def assert_bytes_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_raycast_matches_reference(scene, view):
    gt, ref = raycast(scene, view), reference_raycast(scene, view)
    assert_bytes_equal(gt.depth, ref.depth)
    assert_bytes_equal(gt.image, ref.image)
    assert_bytes_equal(gt.boxes, ref.boxes)
    return gt


def with_boxes(boxes, walls=True):
    """The seed-3 room holding the given (lo, hi) boxes."""
    room = generate_scene(seed=3, n_boxes=0)
    return SceneSpec(
        room_lo=room.room_lo,
        room_hi=room.room_hi,
        boxes=tuple(
            TexturedBox(lo=np.array(lo), hi=np.array(hi), texture_seed=11 + i,
                        color=np.array([0.7, 0.3 + 0.2 * i, 0.4]))
            for i, (lo, hi) in enumerate(boxes)
        ),
        background=room.background,
        wall_seed=room.wall_seed,
        walls=walls,
    )


def box_corners(box):
    return np.array([[x, y, z] for x in (box.lo[0], box.hi[0])
                     for y in (box.lo[1], box.hi[1]) for z in (box.lo[2], box.hi[2])])


# A 160x120 camera at the room's centre looking down +x.
FORWARD_VIEW = CameraView(
    Intrinsics(120.0, 120.0, 79.5, 59.5), look_at([0.0, 0.0, 1.6], [3.2, 0.0, 1.6]), 160, 120
)


class TestAgainstReference:
    """`raycast`, `surface_albedo` and `value_noise` give the bytes of
    `tests/scenegen_reference.py`, the per-corner, per-mask oracle."""

    @pytest.mark.parametrize("seed", [7, 23])
    def test_ten_view_scenes(self, seed):
        scene = generate_scene(seed=seed, n_boxes=2)
        for view in make_trajectory(scene, 10, seed=seed):
            assert_raycast_matches_reference(scene, view)

    def test_boxes_straddling_image_border(self):
        # One box crosses the side border, the other the bottom-side corner.
        scene = with_boxes([((2.0, 0.9, 1.0), (2.6, 1.8, 1.9)),
                            ((2.2, -1.5, 0.2), (2.8, -0.8, 0.9))])
        for box in scene.boxes:
            valid = project(box_corners(box), FORWARD_VIEW)[3]
            assert valid.any() and not valid.all()
            rows, cols = _box_window(FORWARD_VIEW, box.lo, box.hi)
            assert 0 < (rows.stop - rows.start) * (cols.stop - cols.start) < 160 * 120 / 4
        gt = assert_raycast_matches_reference(scene, FORWARD_VIEW)
        assert (gt.depth < 2.9).sum() > 100

    def test_box_corner_behind_camera(self):
        scene = with_boxes([((-1.0, 0.5, 1.0), (2.0, 1.2, 1.4))])
        depth = project(box_corners(scene.boxes[0]), FORWARD_VIEW)[2]
        assert (depth <= 0).any() and (depth > 0).any()
        box = scene.boxes[0]
        assert _box_window(FORWARD_VIEW, box.lo, box.hi) == (slice(0, 120), slice(0, 160))
        gt = assert_raycast_matches_reference(scene, FORWARD_VIEW)
        assert (gt.depth < 2.0).sum() > 100

    def test_box_outside_image(self):
        # In front of the camera, 65 degrees off its axis: no pixel is tested.
        scene = with_boxes([((0.5, 2.0, 1.4), (0.9, 2.6, 1.8))])
        box = scene.boxes[0]
        assert (project(box_corners(box), FORWARD_VIEW)[2] > 0).all()
        assert _box_window(FORWARD_VIEW, box.lo, box.hi) is None
        assert_raycast_matches_reference(scene, FORWARD_VIEW)

    def test_open_room(self):
        scene = with_boxes([((2.0, -0.4, 1.2), (2.6, 0.4, 2.0))], walls=False)
        gt = assert_raycast_matches_reference(scene, FORWARD_VIEW)
        assert (gt.depth == 0.0).any() and (gt.depth > 0.0).any()

    # A CameraView is at least 4x4 pixels, the smallest image there is.
    @pytest.mark.parametrize("size", [(4, 4), (200, 40), (4, 96)])
    def test_image_shapes(self, size):
        w, h = size
        scene = generate_scene(seed=11, n_boxes=2)
        k = Intrinsics(150.0, 150.0, (w - 1) / 2, (h - 1) / 2)
        for view in make_trajectory(scene, 3, seed=4, intrinsics=k, image_size=size):
            assert_raycast_matches_reference(scene, view)

    def test_default_size_view_with_long_face_run(self, monkeypatch):
        # A 320x240 trajectory view whose largest face run (51,122 points, a
        # wall) is shaded in more than three default albedo blocks.
        runs = []
        sorted_albedo = scenegen._sorted_albedo

        def recording(points, keys, surfaces):
            runs.extend(np.unique(keys, return_counts=True)[1])
            return sorted_albedo(points, keys, surfaces)

        monkeypatch.setattr(scenegen, "_sorted_albedo", recording)
        scene = generate_scene(seed=7, n_boxes=2)
        assert_raycast_matches_reference(scene, make_trajectory(scene, 10, seed=7)[0])
        assert max(runs) > 3 * scenegen._ALBEDO_BLOCK

    def test_surface_albedo_one_face_40k_points(self):
        points = np.random.default_rng(8).uniform(-3.0, 3.0, (40000, 3))
        base = np.array([0.55, 0.4, 0.7])
        assert_bytes_equal(surface_albedo(points, np.full(40000, 3), 29, base),
                           reference_albedo(points, np.full(40000, 3), 29, base))

    # Blocks of one point, of a prime count that splits every run unevenly,
    # and of a quarter of the default size.
    @pytest.mark.parametrize("block", [1, 37, 4096])
    def test_albedo_block_size_keeps_bytes(self, monkeypatch, block):
        monkeypatch.setattr(scenegen, "_ALBEDO_BLOCK", block)
        rng = np.random.default_rng(9)
        points = rng.uniform(-3.0, 3.0, (50, 3))
        face_ids = rng.integers(-1, 7, 50)
        base = np.array([0.3, 0.6, 0.9])
        assert_bytes_equal(surface_albedo(points, face_ids, 17, base),
                           reference_albedo(points, face_ids, 17, base))
        if block > 1:  # one call per point would take seconds on a whole view
            scene = with_boxes([((2.0, -0.4, 1.2), (2.6, 0.4, 2.0)),
                                ((2.2, -1.5, 0.2), (2.8, -0.8, 0.9))])
            assert_raycast_matches_reference(scene, FORWARD_VIEW)

    def test_surface_albedo(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(-3.0, 3.0, (500, 3))
        face_ids = rng.integers(-1, 7, 500)  # -1 and 6 are no face: albedo 0
        base = np.array([0.3, 0.6, 0.9])
        assert_bytes_equal(surface_albedo(points, face_ids, 17, base),
                           reference_albedo(points, face_ids, 17, base))
        assert_bytes_equal(surface_albedo(points[0], 2, 17, base),
                           reference_albedo(points[0], 2, 17, base))

    @pytest.mark.parametrize("size", [(320, 240), (64, 48)])
    def test_multiview_coverage(self, size):
        # Every view against all the others, at two image sizes.
        scene = generate_scene(seed=21, n_boxes=2)
        views = make_trajectory(scene, 5, seed=3, image_size=size)
        depths = [raycast(scene, v).depth for v in views]
        seen = set()
        for ref in range(len(views)):
            sources = [i for i in range(len(views)) if i != ref]
            cover = multiview_coverage(views, depths, ref, sources)
            assert_bytes_equal(cover, reference_coverage(views, depths, ref, sources))
            seen.update(np.unique(cover).tolist())
        assert {0, len(views) - 1} <= seen

    @pytest.mark.parametrize("case", ["scattered", "empty", "empty_2d", "0d", "nan", "inf",
                                      "all_nan", "spread_1e6"])
    def test_value_noise(self, case):
        rng = np.random.default_rng(5)
        x, y = {
            "scattered": lambda: rng.uniform(-40.0, 40.0, (2, 37, 29)),
            "empty": lambda: np.zeros((2, 0)),
            "empty_2d": lambda: np.zeros((2, 3, 0)),
            "0d": lambda: (np.float64(-2.3), np.float64(7.9)),
            "nan": lambda: rng.uniform(-4.0, 4.0, (2, 50)) * np.r_[1.0, np.nan, [1.0] * 48],
            "inf": lambda: np.array([[0.5, np.inf, 3.0], [1.5, 2.5, -np.inf]]),
            "all_nan": lambda: np.full((2, 9), np.nan),
            "spread_1e6": lambda: rng.uniform(0.0, 1e6, (2, 1000)),
        }[case]()
        with np.errstate(invalid="ignore", over="ignore"):
            assert_bytes_equal(value_noise(x, y, 42), reference_noise(x, y, 42))

    def test_value_noise_memory_bounded_on_wide_spread(self):
        # 1,000 points spread over 1e6 lattice cells along x: hashing the
        # covering lattice rectangle would take 2e6 cells (16 MB per array).
        x = np.random.default_rng(6).uniform(0.0, 1e6, 1000)
        y = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
        value_noise(x, y, 42)
        tracemalloc.start()
        try:
            value_noise(x, y, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 1000
