import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsweep.camera import CameraView, Intrinsics, Pose
from mvsweep.harness import formats
from mvsweep.harness.boxes import Box3D, extract_boxes, iou3d
from mvsweep.harness.config import (
    PipelineConfig,
    config_from_text,
    config_to_text,
    load_config,
)
from mvsweep.sampling import VoxelGrid, VoxelGridSpec
from mvsweep.scenegen import generate_scene
from mvsweep.splat import GaussianSplatSet


def random_views(rng, n=3):
    views = []
    for _ in range(n):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        views.append(
            CameraView(
                Intrinsics(*rng.uniform(50, 400, 2), *rng.uniform(10, 200, 2)),
                Pose(q, rng.uniform(-3, 3, 3)),
                320,
                240,
            )
        )
    return views


class TestConfig:
    def test_defaults_match_working_point(self):
        c = PipelineConfig()
        assert c.num_planes == 12
        assert (c.depth_min, c.depth_max) == (0.2, 5.0)
        assert c.top_k == 3
        assert c.match_window == 0.2
        assert c.grid_dims == (40, 40, 16)
        assert c.grid_pitch == (0.16, 0.16, 0.2)
        assert c.source_views == 2
        assert c.novel_source_views == 3
        assert c.planes().spacing == pytest.approx(4.8 / 11)
        assert c.grid_spec().n_voxels == 25600

    def test_round_trip(self):
        c = PipelineConfig(top_k=5, temperature=1.25e-3, grid_dims=(8, 8, 4))
        c2 = config_from_text(config_to_text(c))
        assert c2 == c

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_text("bogus_key=3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="line 2: duplicate config key 'top_k'"):
            config_from_text("top_k=2\ntop_k=3\n")

    @pytest.mark.parametrize("dims", ["inf,4,4", "1e30,4,4", "4.0,4,4"])
    def test_grid_dims_parse_as_integers(self, dims):
        with pytest.raises(ValueError, match="line 1: grid_dims="):
            config_from_text(f"grid_dims={dims}\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(top_k=0)
        with pytest.raises(ValueError):
            PipelineConfig(depth_min=2.0, depth_max=1.0)
        with pytest.raises(ValueError):
            PipelineConfig(box_threshold=0.0)

    def test_single_plane_rejected(self):
        with pytest.raises(ValueError, match="num_planes"):
            PipelineConfig(num_planes=1, top_k=1)

    @pytest.mark.parametrize("dims", [(0, 4, 4), (4, 4, -1), (4, 4)])
    def test_empty_grid_rejected(self, dims):
        with pytest.raises(ValueError, match="grid_dims"):
            PipelineConfig(grid_dims=dims)

    @pytest.mark.parametrize("name, value", [
        ("temperature", float("inf")),
        ("depth_max", float("inf")),
        ("cost_penalty", float("nan")),
        ("box_threshold", float("nan")),
        ("grid_pitch", (0.1, float("inf"), 0.1)),
        ("grid_origin", (float("-inf"), 0.0, 0.0)),
    ])
    def test_non_finite_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("text, message", [
        ("num_planes=12\ntop_k=0\n", r"line 2: top_k must lie in \[1, num_planes\]"),
        ("# sweep\n\nmatch_window=-1\n", "line 3: match_window must be positive"),
    ])
    def test_rejected_value_names_line_and_field(self, text, message):
        with pytest.raises(ValueError, match=message):
            config_from_text(text)

    def test_load_error_names_path_line_and_field(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("top_k=x\n")
        with pytest.raises(ValueError, match=r"config.txt: line 1: top_k='x' is not a valid int"):
            load_config(p)

    def test_every_field_has_a_key(self):
        from dataclasses import fields

        text = config_to_text(PipelineConfig())
        keys = {line.split("=")[0] for line in text.strip().splitlines()}
        assert keys == {f.name for f in fields(PipelineConfig)}


class TestCameraFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        views = random_views(rng)
        text = formats.cameras_to_text(views)
        loaded = formats.cameras_from_text(text)
        for a, b in zip(views, loaded):
            np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
            np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
            assert a.intrinsics == b.intrinsics
            assert (a.width, a.height) == (b.width, b.height)
        assert formats.cameras_to_text(loaded) == text

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            formats.cameras_from_text("1\n1 1 0 0 8 8\n1 0 0\n")

    def test_empty_listing_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            formats.cameras_from_text("")
        p = tmp_path / "cameras.txt"
        p.write_text("\n")
        with pytest.raises(ValueError, match="cameras.txt: camera listing: empty"):
            formats.load_cameras(p)

    def test_short_intrinsics_line_rejected(self):
        pose = " ".join(["1", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1", "0"])
        with pytest.raises(ValueError, match="view 0 intrinsics line must have 6 values"):
            formats.cameras_from_text(f"1\n1 1 0 0 8\n{pose}\n")


class TestPpm(object):
    def test_round_trip_after_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (12, 16, 3))
        p = tmp_path / "img.ppm"
        formats.save_ppm(p, img)
        loaded = formats.load_ppm(p)
        assert loaded.shape == img.shape
        assert np.max(np.abs(loaded - img)) <= 0.5 / 255 + 1e-12
        p2 = tmp_path / "img2.ppm"
        formats.save_ppm(p2, loaded)
        assert p.read_bytes() == p2.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValueError):
            formats.load_ppm(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "head.ppm"
        p.write_bytes(b"P6\n")
        with pytest.raises(ValueError, match="head.ppm: PPM header needs a width"):
            formats.load_ppm(p)


class TestRaster:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((7, 9, 4)).astype(np.float32).astype(np.float64)
        p = tmp_path / "x.mvsr"
        formats.save_raster(p, data)
        loaded = formats.load_raster(p)
        np.testing.assert_array_equal(loaded, data)
        p2 = tmp_path / "y.mvsr"
        formats.save_raster(p2, loaded)
        assert p.read_bytes() == p2.read_bytes()

    def test_two_dim_becomes_single_channel(self, tmp_path):
        p = tmp_path / "d.mvsr"
        formats.save_raster(p, np.ones((3, 4)))
        assert formats.load_raster(p).shape == (3, 4, 1)

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "t.mvsr"
        formats.save_raster(p, np.ones((3, 4)))
        data = p.read_bytes()
        p.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="truncated"):
            formats.load_raster(p)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        # 10^6 x 10^6 x 1 float32 values: 4e12 bytes declared, 16 held.
        p = tmp_path / "huge.mvsr"
        p.write_bytes(formats.MAGIC_RASTER + struct.pack("<III", 10**6, 10**6, 1) + bytes(16))
        with pytest.raises(ValueError, match="huge.mvsr: truncated data: raster header"):
            formats.load_raster(p)


class TestVolumeFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        spec = VoxelGridSpec((4, 3, 2), (-1.0, 0.0, 0.5), (0.25, 0.25, 0.5))
        grid = VoxelGrid(
            spec=spec,
            feature_mean=rng.uniform(0, 1, (4, 3, 2, 6)).astype(np.float32).astype(np.float64),
            score=rng.uniform(0, 1, (4, 3, 2)).astype(np.float32).astype(np.float64),
            valid_count=None,
        )
        p = tmp_path / "v.mvsv"
        formats.save_volume(p, grid)
        loaded = formats.load_volume(p)
        np.testing.assert_array_equal(loaded.feature_mean, grid.feature_mean)
        np.testing.assert_array_equal(loaded.score, grid.score)
        assert loaded.valid_count is None
        p2 = tmp_path / "v2.mvsv"
        formats.save_volume(p2, loaded)
        assert p.read_bytes() == p2.read_bytes()


def random_splats(rng, n=17):
    return GaussianSplatSet(
        means=rng.uniform(-3, 3, (n, 3)),
        opacities=rng.uniform(0, 1, n),
        sigmas=rng.uniform(0.01, 0.1, n),
        colors=rng.uniform(0, 1, (n, 3)),
        source_view=rng.integers(0, 5, n),
        pixel_rows=rng.integers(0, 60, n),
        pixel_cols=rng.integers(0, 80, n),
    )


class TestSplatFormat:
    def test_round_trip_exact(self, tmp_path):
        splats = random_splats(np.random.default_rng(4))
        p = tmp_path / "s.mvsg"
        formats.save_splats(p, splats)
        loaded = formats.load_splats(p)
        np.testing.assert_array_equal(loaded.means, splats.means)
        np.testing.assert_array_equal(loaded.sigmas, splats.sigmas)
        np.testing.assert_array_equal(loaded.source_view, splats.source_view)
        p2 = tmp_path / "s2.mvsg"
        formats.save_splats(p2, loaded)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("field, index, value", [
        ("quat", 0, 0.5), ("quat", 3, 1e-300), ("scale", 2, 0.05),
    ])
    def test_anisotropic_record_rejected(self, tmp_path, field, index, value):
        # Splats are isotropic: a record must hold the identity quaternion
        # and three equal scales.
        p = tmp_path / "aniso.mvsg"
        formats.save_splats(p, random_splats(np.random.default_rng(5)))
        data = bytearray(p.read_bytes())
        rec = np.frombuffer(data, dtype=formats._SPLAT_DTYPE, offset=8)
        rec[field][9, index] = value
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"aniso.mvsg: splat 9: {field} "):
            formats.load_splats(p)

    @pytest.mark.parametrize("field, value, rule", [
        ("scale", 0.0, "must be positive"),
        ("scale", np.nan, "must be positive"),
        ("alpha", 2.0, r"must lie in \[0, 1\]"),
        ("alpha", np.nan, r"must lie in \[0, 1\]"),
    ])
    def test_out_of_range_record_rejected(self, tmp_path, field, value, rule):
        p = tmp_path / "range.mvsg"
        formats.save_splats(p, random_splats(np.random.default_rng(5)))
        data = bytearray(p.read_bytes())
        rec = np.frombuffer(data, dtype=formats._SPLAT_DTYPE, offset=8)
        rec[field][11] = value  # all three scale slots, so they stay equal
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"range.mvsg: splat 11: {field} {rule}"):
            formats.load_splats(p)


class TestSceneFormat:
    def test_round_trip(self):
        scene = generate_scene(seed=5, n_boxes=2)
        text = formats.scene_to_text(scene)
        loaded = formats.scene_from_text(text)
        np.testing.assert_array_equal(loaded.room_lo, scene.room_lo)
        np.testing.assert_array_equal(loaded.background, scene.background)
        assert loaded.wall_seed == scene.wall_seed
        assert loaded.walls == scene.walls
        for a, b in zip(scene.boxes, loaded.boxes):
            np.testing.assert_array_equal(a.lo, b.lo)
            np.testing.assert_array_equal(a.hi, b.hi)
            assert a.texture_seed == b.texture_seed
        assert formats.scene_to_text(loaded) == text

    def test_bare_walls_record_rejected(self):
        text = formats.scene_to_text(generate_scene(seed=5, n_boxes=0)).replace("walls 1", "walls")
        with pytest.raises(ValueError, match=r"line 2: walls: 1 values expected, got 0 "
                                             r"\(field walls\)"):
            formats.scene_from_text(text)

    def test_short_box_record_rejected(self):
        with pytest.raises(ValueError, match=r"line 1: box: 10 values expected, got 3 "
                                             r"\(field hi\)"):
            formats.scene_from_text("box 1 2 3\n")

    def test_unparsable_field_named(self):
        with pytest.raises(ValueError, match="line 1: box: field texture_seed: '1.5' is not"):
            formats.scene_from_text("box 1 2 3 4 5 6 1.5 0 0 0\n")

    def test_short_room_record_rejected_with_path(self, tmp_path):
        p = tmp_path / "scene.txt"
        p.write_text("room 1 2\n")
        with pytest.raises(ValueError, match=r"scene.txt: scene listing: line 1: room: 6 values "
                                             r"expected, got 2 \(field lo\)"):
            formats.load_scene_spec(p)


    def test_box_outside_room_names_line_and_field(self, tmp_path):
        scene = generate_scene(seed=5, n_boxes=2)
        text = formats.scene_to_text(scene).splitlines()
        vals = text[5].split()
        vals[4] = "9.0"  # hi y beyond the room's 3.2
        text[5] = " ".join(vals)
        p = tmp_path / "scene.txt"
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="scene.txt: scene listing: line 6: box: field hi: "
                                             "not strictly inside the room"):
            formats.load_scene_spec(p)

    def test_degenerate_room_names_line(self):
        with pytest.raises(ValueError, match="line 2: room: field hi: must lie strictly above lo"):
            formats.scene_from_text("walls 1\nroom 1 1 1 0 2 2\n")

    def test_inverted_box_names_line(self):
        with pytest.raises(ValueError, match="line 1: box: box min corner must be strictly below"):
            formats.scene_from_text("box 1 2 3 0 5 6 1 0 0 0\n")


class TestBoxAndMetricsText:
    def test_boxes_round_trip(self):
        boxes = [
            Box3D(center=[0.1, -0.2, 1.3], size=[0.5, 0.6, 0.7], yaw=0.0, score=0.25),
            Box3D(center=[1.0, 2.0, 0.5], size=[1.0, 1.0, 1.0], yaw=0.0, score=1.0),
        ]
        text = formats.boxes_to_text(boxes)
        loaded = formats.boxes_from_text(text)
        for a, b in zip(boxes, loaded):
            np.testing.assert_array_equal(a.center, b.center)
            np.testing.assert_array_equal(a.size, b.size)
            assert a.score == b.score
        assert formats.boxes_to_text(loaded) == text

    @pytest.mark.parametrize("record, message", [
        ("1 2 3", r"line 2: 8 values expected, got 3 \(field size\)"),
        ("1 2 x 4 5 6 0 1", r"line 2: field center: 'x' is not a number"),
        ("1 2 3 4 0 6 0 1", r"line 2: box sizes must be positive"),
    ])
    def test_bad_box_record_names_path_line_and_field(self, tmp_path, record, message):
        p = tmp_path / "boxes.txt"
        p.write_text("0 0 0 1 1 1 0 1\n" + record + "\n")
        with pytest.raises(ValueError, match="boxes.txt: box listing: " + message):
            formats.load_boxes(p)

    def test_metrics_round_trip(self):
        metrics = {"depth_rmse_view0": 0.12345678901234567, "n_boxes": 3.0}
        text = formats.metrics_to_text(metrics)
        assert formats.metrics_from_text(text) == metrics

    def test_metric_without_value_rejected_with_path(self, tmp_path):
        p = tmp_path / "metrics.txt"
        p.write_text("n_boxes 2.0\na\n")
        with pytest.raises(ValueError, match="metrics.txt: metrics: line 2: a: '' is not a number"):
            formats.load_metrics(p)


class TestIou3d:
    def test_identical(self):
        b = Box3D(center=[0, 0, 0], size=[1, 2, 3])
        assert iou3d(b, b) == 1.0

    def test_disjoint(self):
        a = Box3D(center=[0, 0, 0], size=[1, 1, 1])
        b = Box3D(center=[5, 0, 0], size=[1, 1, 1])
        assert iou3d(a, b) == 0.0

    def test_half_offset_unit_cubes(self):
        a = Box3D(center=[0, 0, 0], size=[1, 1, 1])
        b = Box3D(center=[0.5, 0, 0], size=[1, 1, 1])
        assert iou3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_rotated(self):
        a = Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=0.3)
        with pytest.raises(ValueError):
            iou3d(a, a)

    @settings(max_examples=50)
    @given(
        c1=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
        c2=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
        s1=st.tuples(*[st.floats(0.1, 2) for _ in range(3)]),
        s2=st.tuples(*[st.floats(0.1, 2) for _ in range(3)]),
    )
    def test_symmetric_and_bounded(self, c1, c2, s1, s2):
        a = Box3D(center=c1, size=s1)
        b = Box3D(center=c2, size=s2)
        v = iou3d(a, b)
        assert v == iou3d(b, a)
        assert 0.0 <= v <= 1.0


def make_grid(score, pitch=(0.5, 0.5, 0.5), origin=(0.0, 0.0, 0.0)):
    dims = score.shape
    return VoxelGrid(
        spec=VoxelGridSpec(dims, origin, pitch),
        feature_mean=np.zeros(dims + (2,)),
        score=score.astype(np.float64),
        valid_count=(score > 0).astype(np.int64),
    )


class TestExtractBoxes:
    def test_empty_grid(self):
        assert extract_boxes(make_grid(np.zeros((4, 4, 4)))) == []

    def test_single_block(self):
        score = np.zeros((6, 6, 6))
        score[2:4, 2:4, 2:4] = 0.9
        boxes = extract_boxes(make_grid(score), threshold_ratio=0.5, min_voxels=4)
        assert len(boxes) == 1
        b = boxes[0]
        # Block spans voxel centers 1.25..1.75 (pitch 0.5) plus half a pitch.
        np.testing.assert_allclose(b.lo, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(b.hi, [2.0, 2.0, 2.0], atol=1e-12)
        assert b.score == pytest.approx(0.9)

    def test_two_separated_blocks(self):
        score = np.zeros((10, 6, 6))
        score[0:2, 0:2, 0:2] = 0.5
        score[7:9, 3:5, 3:5] = 1.0
        boxes = extract_boxes(make_grid(score), threshold_ratio=0.4, min_voxels=4)
        assert len(boxes) == 2
        assert boxes[0].score > boxes[1].score  # ordered by descending score

    def test_min_size_filters(self):
        score = np.zeros((6, 6, 6))
        score[0, 0, 0] = 1.0
        assert extract_boxes(make_grid(score), min_voxels=4) == []

    def test_threshold_relative_to_max(self):
        score = np.zeros((6, 6, 6))
        score[0:2, 0:2, 0:2] = 1.0
        score[4:6, 4:6, 4:6] = 0.3  # below 0.5 * max
        boxes = extract_boxes(make_grid(score), threshold_ratio=0.5, min_voxels=4)
        assert len(boxes) == 1

    def test_boxes_contain_all_member_centers(self):
        # Every member voxel center of a component must lie inside its box,
        # and the union of boxes must cover every hot voxel of a component
        # large enough to be emitted.
        from scipy import ndimage

        rng = np.random.default_rng(6)
        score = (rng.uniform(0, 1, (8, 8, 8)) > 0.7).astype(float)
        grid = make_grid(score)
        boxes = extract_boxes(grid, threshold_ratio=0.5, min_voxels=1)
        centers = grid.spec.centers()
        labels, count = ndimage.label(score > 0.5, structure=np.ones((3, 3, 3), bool))
        covered = np.zeros(score.shape, dtype=bool)
        for box in boxes:
            covered |= np.all((centers >= box.lo) & (centers <= box.hi), axis=-1)
        assert np.all(covered[score > 0.5])

    def test_26_connectivity_bridges_diagonals(self):
        score = np.zeros((4, 4, 4))
        score[0, 0, 0] = score[1, 1, 1] = score[2, 2, 2] = score[3, 3, 3] = 1.0
        boxes = extract_boxes(make_grid(score), threshold_ratio=0.5, min_voxels=4)
        assert len(boxes) == 1
