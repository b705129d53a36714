import re
import struct
import warnings

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


def append_bytes(path, n):
    with open(path, "ab") as fh:
        fh.write(bytes(n))


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

    def test_voxel_count_bounded(self):
        # 10**30 voxels used to be accepted and to fail later, in
        # VoxelGridSpec.centers, with an error that named no field.
        from mvsweep.harness.config import MAX_VOXELS

        with pytest.raises(ValueError, match="grid_dims"):
            PipelineConfig(grid_dims=(10**30, 4, 4))
        with pytest.raises(ValueError, match="line 2: grid_dims"):
            config_from_text(f"top_k=2\ngrid_dims={MAX_VOXELS // 16 + 1},4,4\n")
        assert PipelineConfig(grid_dims=(MAX_VOXELS // 16, 4, 4)).grid_dims[0] == MAX_VOXELS // 16

    def test_plane_depths_bounded(self):
        # depth_max=1.7e308 used to be accepted, and the sweep then overflowed.
        from mvsweep.harness.config import MAX_MAGNITUDE

        above = float(np.nextafter(MAX_MAGNITUDE, np.inf))
        with pytest.raises(ValueError, match=r"depth_max must be finite and at most 1e\+06 in "
                                             r"magnitude, got 1.7e\+308"):
            PipelineConfig(depth_max=1.7e308)
        with pytest.raises(ValueError, match="line 2: depth_max must be finite and at most"):
            config_from_text(f"num_planes=4\ndepth_max={above!r}\n")
        with pytest.raises(ValueError, match="line 1: depth_min must be finite and at most"):
            config_from_text(f"depth_min={above!r}\ndepth_max=1e300\n")
        assert PipelineConfig(depth_max=MAX_MAGNITUDE).planes().depths[-1] == MAX_MAGNITUDE

    @pytest.mark.parametrize("name, value", [
        ("top_k", 2.5),
        ("grid_dims", (4.7, 4, 4)),
        ("grid_dims", (4, float("inf"), 4)),
        ("num_planes", float("nan")),
        ("min_component", "4"),
    ])
    def test_non_integral_int_rejected(self, name, value):
        # 2.5 used to reach sample_topk as a slice bound, and 4.7 was
        # silently truncated to 4.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PipelineConfig(**{name: value})

    def test_whole_float_int_becomes_int(self):
        c = PipelineConfig(top_k=2.0, grid_dims=(8.0, 8, 4))
        assert type(c.top_k) is int and c.top_k == 2
        assert c.grid_dims == (8, 8, 4) and all(type(d) is int for d in c.grid_dims)

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


IDENTITY_RT = "1 0 0 0 0 1 0 0 0 0 1 0"


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

    def test_negative_view_count_rejected(self):
        with pytest.raises(ValueError, match=r"camera listing: line 1: field views: must be >= 0, "
                                             r"got -1"):
            formats.cameras_from_text("-1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "-1e308"])
    @pytest.mark.parametrize("index, field", [(0, "R"), (5, "R"), (10, "R"), (3, "t"), (11, "t")])
    def test_bad_pose_entry_names_line_and_field(self, value, index, field):
        # Rejected before Pose checks the rotation, so no overflow warning.
        entries = IDENTITY_RT.split()
        entries[index] = value
        text = f"2\n1 1 0 0 8 8\n{IDENTITY_RT}\n1 1 0 0 8 8\n{' '.join(entries)}\n"
        message = rf"line 5: view 1 \[R\|t\]: field {field}: {re.escape(repr(float(value)))} is not"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                formats.cameras_from_text(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
    @pytest.mark.parametrize("index, field", [(0, "fx"), (1, "fy"), (2, "cx"), (3, "cy")])
    def test_bad_intrinsics_entry_names_line_and_field(self, value, index, field):
        # Rejected before Intrinsics or any projection sees it, so no warning.
        head = "1 1 0 0 8 8".split()
        head[index] = value
        text = f"2\n1 1 0 0 8 8\n{IDENTITY_RT}\n{' '.join(head)}\n{IDENTITY_RT}\n"
        message = (rf"line 4: view 1 intrinsics: field {field}: "
                   rf"{re.escape(repr(float(value)))} is not")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                formats.cameras_from_text(text)

    @pytest.mark.parametrize("head, rt, message", [
        ("1 1 0 0 8 8", "1 0 0 0 0 1 0 0 0 0 0.5 0", r"line 3: view 0 \[R\|t\]: rotation is not "
                                                     r"orthonormal"),
        ("1 1 0 0 8 8", "1 0 0 0 0 1 0 0 0 0 -1 0", r"line 3: view 0 \[R\|t\]: rotation must have "
                                                    r"determinant \+1"),
        ("-1 1 0 0 8 8", IDENTITY_RT, "line 2: view 0 intrinsics: focal lengths must be positive"),
    ])
    def test_camera_error_names_the_line(self, head, rt, message):
        with pytest.raises(ValueError, match="camera listing: " + message):
            formats.cameras_from_text(f"1\n{head}\n{rt}\n")

    def test_short_intrinsics_line_rejected(self):
        pose = " ".join(["1", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1", "0"])
        with pytest.raises(ValueError, match=r"line 2: view 0 intrinsics: 6 values expected, "
                                             r"got 5 \(field height\)"):
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_image_rejected_with_path(self, tmp_path, value):
        img = np.full((4, 5, 3), 0.5)
        img[2, 3, 1] = value
        with pytest.raises(ValueError, match="nan.ppm: image has non-finite values"):
            formats.save_ppm(tmp_path / "nan.ppm", img)
        assert not (tmp_path / "nan.ppm").exists()

    def test_comment_lines_after_the_magic_are_skipped(self, tmp_path):
        # As GIMP writes a P6 file: a `# CREATOR` line between the magic and
        # the size.
        rng = np.random.default_rng(2)
        plain, commented = tmp_path / "plain.ppm", tmp_path / "commented.ppm"
        formats.save_ppm(plain, rng.uniform(0, 1, (6, 10, 3)))
        data = plain.read_bytes()
        commented.write_bytes(b"P6\n# CREATOR: GIMP PNM Filter Version 1.1\n" + data[3:])
        assert formats.ppm_size(commented) == (10, 6)
        np.testing.assert_array_equal(formats.load_ppm(commented), formats.load_ppm(plain))

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValueError):
            formats.load_ppm(p)

    @pytest.mark.parametrize("size", [b"0 2", b"2 0"])
    def test_empty_size_rejected(self, tmp_path, size):
        p = tmp_path / "empty.ppm"
        p.write_bytes(b"P6\n" + size + b"\n255\n")
        got = size.decode().replace(" ", "x")
        message = f"empty.ppm: PPM width and height must be positive, got {got}$"
        for read in (formats.ppm_size, formats.load_ppm):
            with pytest.raises(ValueError, match=message):
                read(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "head.ppm"
        p.write_bytes(b"P6\n")
        with pytest.raises(ValueError, match="head.ppm: PPM header needs a width"):
            formats.load_ppm(p)

    def test_size_from_header_checks_the_payload(self, tmp_path):
        p = tmp_path / "img.ppm"
        formats.save_ppm(p, np.zeros((6, 10, 3)))
        assert formats.ppm_size(p) == (10, 6)
        p.write_bytes(p.read_bytes()[:-1])
        for read in (formats.ppm_size, formats.load_ppm):
            with pytest.raises(ValueError, match="img.ppm: truncated data: PPM header 10x6 "
                                                 "declares 180 bytes, the file holds 179"):
                read(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "img.ppm"
        formats.save_ppm(p, np.zeros((4, 4, 3)))
        append_bytes(p, 1000)
        for read in (formats.ppm_size, formats.load_ppm):
            with pytest.raises(ValueError, match="img.ppm: trailing data: PPM header 4x4 "
                                                 "declares 48 bytes, the file holds 1048"):
                read(p)


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

    def test_shape_from_header_checks_the_payload(self, tmp_path):
        p = tmp_path / "t.mvsr"
        formats.save_raster(p, np.ones((3, 4, 2)))
        assert formats.raster_shape(p) == (3, 4, 2)
        p.write_bytes(p.read_bytes()[:-4])
        for read in (formats.raster_shape, formats.load_raster):
            with pytest.raises(ValueError, match="t.mvsr: truncated data: raster header"):
                read(p)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        # 10^6 x 10^6 x 1 float32 values: 4e12 bytes declared, 16 held.
        p = tmp_path / "huge.mvsr"
        p.write_bytes(formats.MAGIC_RASTER + struct.pack("<III", 10**6, 10**6, 1) + bytes(16))
        with pytest.raises(ValueError, match="huge.mvsr: truncated data: raster header"):
            formats.load_raster(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "t.mvsr"
        formats.save_raster(p, np.ones((3, 4)))
        append_bytes(p, 100)
        for read in (formats.raster_shape, formats.load_raster):
            with pytest.raises(ValueError, match=r"t.mvsr: trailing data: raster header rows x cols "
                                                 r"x channels 3x4x1 declares 48 bytes, the file "
                                                 r"holds 148"):
                read(p)


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

    def test_trailing_bytes_rejected(self, tmp_path):
        spec = VoxelGridSpec((4, 3, 2), (-1.0, 0.0, 0.5), (0.25, 0.25, 0.5))
        grid = VoxelGrid(spec=spec, feature_mean=np.zeros((4, 3, 2, 6)), score=np.zeros((4, 3, 2)),
                         valid_count=None)
        p = tmp_path / "v.mvsv"
        formats.save_volume(p, grid)
        append_bytes(p, 7)
        with pytest.raises(ValueError, match="v.mvsv: trailing data: volume header dims x channels "
                                             "4x3x2x6 declares 672 bytes, the file holds 679"):
            formats.load_volume(p)

    @pytest.mark.parametrize("field, index", [("origin", 0), ("origin", 2), ("pitch", 1)])
    def test_non_finite_geometry_rejected(self, tmp_path, field, index):
        spec = VoxelGridSpec((2, 2, 2), (-1.0, 0.0, 0.5), (0.25, 0.25, 0.5))
        grid = VoxelGrid(spec=spec, feature_mean=np.zeros((2, 2, 2, 6)), score=np.zeros((2, 2, 2)),
                         valid_count=None)
        p = tmp_path / "v.mvsv"
        formats.save_volume(p, grid)
        data = bytearray(p.read_bytes())
        # magic, four u32 dims, then the origin's and the pitch's three f32
        offset = 4 + 16 + 4 * (index + (3 if field == "pitch" else 0))
        data[offset:offset + 4] = struct.pack("<f", np.nan)
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="v.mvsv: volume origin and pitch must be finite"):
            formats.load_volume(p)


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


# The splat loader's bound on a center coordinate or sigma, and the next
# double above it.
SPLAT_BOUND = 1e10
ABOVE_SPLAT_BOUND = float(np.nextafter(SPLAT_BOUND, np.inf))


class TestSplatFormat:
    @pytest.mark.parametrize("mean, sigma", [
        ((SPLAT_BOUND, 0.0, 0.0), SPLAT_BOUND),
        ((-SPLAT_BOUND, 0.0, 0.0), 1e-3),
        ((0.0, SPLAT_BOUND, 0.0), 1e-3),
        ((0.0, -SPLAT_BOUND, 0.0), SPLAT_BOUND),
        ((0.0, 0.0, 0.0), SPLAT_BOUND),
        ((SPLAT_BOUND, 0.0, 0.0), 1e-300),
    ])
    def test_splat_at_the_bound_loads_and_renders(self, tmp_path, mean, sigma):
        # A splat 2 EPS_Z in front of the default 320x240 camera, its center
        # coordinate or sigma at the loader's bound, renders with no warning:
        # its 2D covariance, the covariance's determinant and its pixel
        # bounds stay finite and inside int64.
        from mvsweep.camera import EPS_Z
        from mvsweep.splat import rasterize

        splats = GaussianSplatSet(
            means=np.array([mean]), opacities=np.array([0.5]), sigmas=np.array([sigma]),
            colors=np.full((1, 3), 0.5), source_view=np.zeros(1, dtype=np.int64),
            pixel_rows=np.zeros(1, dtype=np.int64), pixel_cols=np.zeros(1, dtype=np.int64),
        )
        p = tmp_path / "bound.mvsg"
        formats.save_splats(p, splats)
        view = CameraView(Intrinsics(300.0, 300.0, 159.5, 119.5),
                          Pose(np.eye(3), np.array([0.0, 0.0, 2 * EPS_Z])), 320, 240)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rasterize(formats.load_splats(p), view)
        assert np.all(np.isfinite(out.color)) and np.all(np.isfinite(out.depth))

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

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "s.mvsg"
        formats.save_splats(p, random_splats(np.random.default_rng(4)))
        append_bytes(p, 124)  # one more record's worth
        with pytest.raises(ValueError, match="s.mvsg: trailing data: splat header count 17 "
                                             "declares 2108 bytes, the file holds 2232"):
            formats.load_splats(p)

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
        ("scale", np.inf, "must be positive and finite"),
        ("mean", [np.inf, 0.0, 1.0], "must be finite"),
        ("mean", [0.0, 0.0, -np.inf], "must be finite"),
        ("mean", [0.0, np.nan, 1.0], "must be finite"),
        ("color", [np.nan, 0.5, 0.5], r"must lie in \[0, 1\]"),
        ("color", [0.5, 1.5, 0.5], r"must lie in \[0, 1\]"),
        ("color", [0.5, 0.5, -0.25], r"must lie in \[0, 1\]"),
        ("color", [0.5, 0.5, np.inf], r"must lie in \[0, 1\]"),
        ("mean", [1e200, 0.0, 1.0], r"must be finite and at most 1e\+10 in magnitude"),
        ("mean", [0.0, -ABOVE_SPLAT_BOUND, 1.0], r"must be finite and at most 1e\+10"),
        ("scale", 1e200, r"must be positive and finite, at most 1e\+10"),
        ("scale", ABOVE_SPLAT_BOUND, r"must be positive and finite, at most 1e\+10"),
    ])
    def test_out_of_range_record_rejected(self, tmp_path, field, value, rule):
        # Rejected on load, with no warning, before any render reads them.
        p = tmp_path / "range.mvsg"
        formats.save_splats(p, random_splats(np.random.default_rng(5)))
        data = bytearray(p.read_bytes())
        rec = np.frombuffer(data, dtype=formats._SPLAT_DTYPE, offset=8)
        rec[field][11] = value  # a scalar fills all three scale slots, so they stay equal
        p.write_bytes(bytes(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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

    # Line 1 is the room, line 4 the background, line 5 the first box; the
    # index counts the record name as value 0.
    @pytest.mark.parametrize("line, index, value, message", [
        (1, 2, "nan", r"line 1: room: field lo: room bounds must be finite"),
        (1, 2, "-inf", r"line 1: room: field lo: room bounds must be finite"),
        (1, 5, "inf", r"line 1: room: field hi: room bounds must be finite"),
        (4, 2, "nan", r"line 4: background: field background: base albedo must lie in \[0, 1\]"),
        (4, 2, "1.5", r"line 4: background: field background: base albedo must lie in \[0, 1\]"),
        (5, 9, "nan", r"line 5: box: field color: base albedo must lie in \[0, 1\]"),
    ])
    def test_non_finite_or_out_of_range_value_names_line(self, line, index, value, message):
        text = formats.scene_to_text(generate_scene(seed=5, n_boxes=1)).splitlines()
        vals = text[line - 1].split()
        vals[index] = value
        text[line - 1] = " ".join(vals)
        with pytest.raises(ValueError, match=message):
            formats.scene_from_text("\n".join(text) + "\n")

    # A second record of a kind used to replace the first without a word.
    @pytest.mark.parametrize("record", [
        "room -9 -9 0 9 9 9", "walls 0", "wall_seed 3", "background 0.5 0.5 0.5",
    ])
    def test_duplicate_record_names_path_and_line(self, tmp_path, record):
        p = tmp_path / "scene.txt"
        p.write_text(formats.scene_to_text(generate_scene(seed=5, n_boxes=1)) + record + "\n")
        kind = record.split()[0]
        with pytest.raises(ValueError, match=f"scene.txt: scene listing: line 6: {kind}: "
                                             "duplicate record"):
            formats.load_scene_spec(p)

    def test_inverted_box_names_line(self):
        with pytest.raises(ValueError, match="line 1: box: box min corner must be strictly below"):
            formats.scene_from_text("box 1 2 3 0 5 6 1 0 0 0\n")


class TestBoxAndMetricsText:
    def test_boxes_round_trip(self):
        boxes = [
            Box3D(center=[0.1, -0.2, 1.3], size=[0.5, 0.6, 0.7], score=0.25),
            Box3D(center=[1.0, 2.0, 0.5], size=[1.0, 1.0, 1.0], score=1.0),
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
        # A rotated or non-finite box used to load and fail late, in iou3d
        # or in the box metrics, naming neither the file nor the line.
        ("0 0 0 1 1 1 nan 1.0", r"line 2: field yaw: nan is not finite"),
        ("0 0 0 1 1 1 1 1.0", r"line 2: field yaw: 1.0: boxes are axis-aligned, so yaw must be 0"),
        ("0 0 0 1 1 1 -0.3 1.0", r"line 2: field yaw: -0.3: boxes are axis-aligned"),
        ("0 inf 0 1 1 1 0 1", r"line 2: field center: inf is not finite"),
        ("0 0 0 1 nan 1 0 1", r"line 2: field size: nan is not finite"),
        ("0 0 0 1 1 inf 0 1", r"line 2: field size: inf is not finite"),
        ("0 0 0 1 1 1 0 -inf", r"line 2: field score: -inf is not finite"),
        ("0 0 0 1 1 1 0 nan", r"line 2: field score: nan is not finite"),
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

    def test_duplicate_metric_rejected_with_path(self, tmp_path):
        # The second `a` used to replace the first without a word.
        p = tmp_path / "metrics.txt"
        p.write_text("a 1.0\nn_boxes 2.0\na 3.0\n")
        with pytest.raises(ValueError, match="metrics.txt: metrics: line 3: duplicate key 'a'"):
            formats.load_metrics(p)

    def test_metric_without_value_rejected_with_path(self, tmp_path):
        p = tmp_path / "metrics.txt"
        p.write_text("n_boxes 2.0\na\n")
        with pytest.raises(ValueError, match="metrics.txt: metrics: line 2: a: '' is not a number"):
            formats.load_metrics(p)


def _text_listings():
    """pytest params of each text format: file name, text and loader."""
    boxes = [Box3D(center=[0.1, -0.2, 1.3], size=[0.5, 0.6, 0.7])]
    listings = [
        ("cameras.txt", formats.cameras_to_text(random_views(np.random.default_rng(0))),
         formats.load_cameras),
        ("scene.txt", formats.scene_to_text(generate_scene(seed=3, n_boxes=1)),
         formats.load_scene_spec),
        ("boxes.txt", formats.boxes_to_text(boxes), formats.load_boxes),
        ("metrics.txt", formats.metrics_to_text({"n_boxes": 2.0, "rmse": 0.5}),
         formats.load_metrics),
        ("config.txt", config_to_text(PipelineConfig()), load_config),
    ]
    return [pytest.param(*listing, id=listing[0]) for listing in listings]


class TestTextEncoding:
    @pytest.mark.parametrize("name, text, load", _text_listings())
    def test_non_utf8_byte_names_the_path(self, tmp_path, name, text, load):
        p = tmp_path / name
        raw = text.encode("utf-8")
        cut = raw.index(b"\n") + 1
        p.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
        with pytest.raises(ValueError, match=rf"{name}: 'utf-8' codec can't decode byte 0xff in "
                                             rf"position {cut}") as info:
            load(p)
        assert not isinstance(info.value, UnicodeDecodeError)

    def test_text_is_written_and_read_as_utf8(self, tmp_path):
        p = tmp_path / "notes.txt"
        formats.save_text(p, "caf\u00e9 \u2264 1\n")
        assert p.read_bytes() == b"caf\xc3\xa9 \xe2\x89\xa4 1\n"
        assert formats.load_text(p, str) == "caf\u00e9 \u2264 1\n"


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
        # Boxes are axis-aligned: there is no yaw to give.
        with pytest.raises(TypeError):
            Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=0.3)

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
        grid = make_grid(np.zeros((4, 4, 4)))
        assert extract_boxes(grid, threshold_ratio=0.5, min_voxels=4) == []

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
        assert extract_boxes(make_grid(score), threshold_ratio=0.5, min_voxels=4) == []

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
