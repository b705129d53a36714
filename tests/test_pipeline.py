import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

from mvsweep.harness import formats, pipeline
from mvsweep.harness.cli import main as cli_main
from mvsweep.harness.config import PipelineConfig, save_config
from mvsweep.harness.pipeline import (
    evaluate_outputs,
    holdout_novel_indices,
    load_scene,
    run_pipeline,
)
from mvsweep.scenegen import generate_scene, make_trajectory
from mvsweep.splat import GaussianSplatSet

import pipeline_reference
from simd_pins import SCRIPT, SIMD_CLASS, X86_CLASSES, assert_pinned, emulation_env, golden_hash


def write_scene(tmp_path, seed=5, n_boxes=1, n_views=4, image_size=(128, 96)):
    scene_dir = tmp_path / f"scene_{seed}"
    scene = generate_scene(seed=seed, n_boxes=n_boxes)
    views = make_trajectory(scene, n_views, seed=seed, image_size=image_size)
    pipeline.write_scene(scene_dir, scene, views)
    return scene_dir


def small_config(**kw):
    defaults = dict(
        grid_dims=(16, 16, 8),
        grid_pitch=(0.4, 0.4, 0.4),
        grid_origin=(-3.2, -3.2, 0.0),
        min_component=2,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestHoldout:
    def test_interior_evenly_spaced(self):
        assert holdout_novel_indices(10, 2) == [3, 7]
        assert holdout_novel_indices(5, 2) == [2, 3]

    def test_rejects_excessive_holdout(self):
        with pytest.raises(ValueError):
            holdout_novel_indices(3, 2)

    def test_matches_clamped_deduplicated_oracle(self):
        # The rounded positions are already distinct, increasing and below
        # n_views for every allowed holdout, so neither a clamp nor a
        # de-duplication changes them.
        for n_views in range(2, 400):
            for n_novel in range(n_views - 1):
                assert holdout_novel_indices(n_views, n_novel) == \
                    pipeline_reference.holdout_novel_indices(n_views, n_novel)


class TestLoadScene:
    def test_missing_camera_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="cameras.txt"):
            load_scene(tmp_path)

    def test_missing_image_named(self, tmp_path):
        scene_dir = write_scene(tmp_path)
        os.remove(scene_dir / "view_002.ppm")
        with pytest.raises(FileNotFoundError, match="view_002.ppm"):
            load_scene(scene_dir)

    def test_size_mismatch_reported(self, tmp_path):
        scene_dir = write_scene(tmp_path)
        formats.save_ppm(scene_dir / "view_001.ppm", np.zeros((32, 32, 3)))
        with pytest.raises(ValueError, match="view_001.ppm"):
            load_scene(scene_dir)

    def test_missing_later_depth_raster_named(self, tmp_path):
        # depth_000.mvsr makes the ground truth required for every view.
        scene_dir = write_scene(tmp_path)
        os.remove(scene_dir / "depth_002.mvsr")
        with pytest.raises(FileNotFoundError,
                           match="scene has depth_000.mvsr but is missing .*depth_002.mvsr$"):
            load_scene(scene_dir)

    def test_loads_everything(self, tmp_path):
        scene_dir = write_scene(tmp_path, n_boxes=2)
        data = load_scene(scene_dir)
        assert len(data.views) == 4
        assert len(data.image_paths) == 4
        assert data.depth_paths is not None and len(data.depth_paths) == 4
        assert len(data.gt_boxes) == 2
        # Decoding a view gives the eager loader's arrays, byte for byte.
        ref = pipeline_reference.load_scene(scene_dir)
        for i in range(4):
            image = formats.load_ppm(data.image_paths[i])
            for got, want in ((image, ref.images[i]), (data.gt_depth(i), ref.gt_depths[i])):
                assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestSceneListingUnread:
    """`run`, `refine` and `eval` read no scene listing: with `scene.txt`
    truncated they give what they give on the intact scene, though the
    listing's own loader names the file."""

    @pytest.mark.parametrize("refine", [False, True])
    def test_truncated_listing_changes_nothing(self, tmp_path, refine):
        scene_dir = write_scene(tmp_path, n_views=5, image_size=(64, 48))
        config = small_config(refine_steps=1)
        intact, cut = tmp_path / "intact", tmp_path / "cut"
        run_pipeline(scene_dir, config, out_dir=intact, refine=refine)
        evaluated = evaluate_outputs(scene_dir, intact, config)
        listing = scene_dir / "scene.txt"
        text = listing.read_bytes()
        listing.write_bytes(text[: len(text) // 2])
        with pytest.raises(ValueError, match=re.escape(str(listing))):
            formats.load_scene_spec(listing)
        run_pipeline(scene_dir, config, out_dir=cut, refine=refine)
        names = sorted(os.listdir(intact))
        assert names == sorted(os.listdir(cut))
        for name in names:
            assert (intact / name).read_bytes() == (cut / name).read_bytes(), name
        assert evaluate_outputs(scene_dir, intact, config) == evaluated


class TestGroundTruthDepthChecked:
    """A ground-truth depth raster that does not fit its camera, or holds a
    non-finite value, is a ValueError naming the file, from `run` and from
    `eval` alike."""

    CASES = {
        "size": (np.ones((32, 32)), "depth_001.mvsr: depth raster is 32x32x1 but the camera "
                                    "listing says 80x60x1"),
        "channels": (np.ones((60, 80, 2)), "depth_001.mvsr: depth raster is 80x60x2 but the "
                                           "camera listing says 80x60x1"),
        "nan": (np.full((60, 80), np.nan), "depth_001.mvsr: ground-truth depth has 4800 "
                                           "non-finite values"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_by_run_and_eval(self, tmp_path, case):
        scene_dir = write_scene(tmp_path, n_views=4, image_size=(80, 60))
        out = tmp_path / "out"
        run_pipeline(scene_dir, small_config(), out_dir=out)
        data, message = self.CASES[case]
        formats.save_raster(scene_dir / "depth_001.mvsr", data)
        with pytest.raises(ValueError, match=message):
            run_pipeline(scene_dir, small_config())
        with pytest.raises(ValueError, match=message):
            evaluate_outputs(scene_dir, out, small_config())


class TestResultsDepthChecked:
    """A results depth raster that is off its view's quarter grid, has more
    than one channel or holds a non-finite value is a ValueError from `eval`
    naming the file."""

    CASES = {
        "size": (np.ones((5, 7)), "depth_001.mvsr: depth raster is 7x5x1 but the camera "
                                  "listing says 20x15x1 at 1/4 resolution"),
        "channels": (np.ones((15, 20, 2)), "depth_001.mvsr: depth raster is 20x15x2 but the "
                                           "camera listing says 20x15x1 at 1/4 resolution"),
        "nan": (np.full((15, 20), np.nan), "depth_001.mvsr: depth has 300 non-finite values"),
        "inf": (np.full((15, 20), np.inf), "depth_001.mvsr: depth has 300 non-finite values"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_by_eval(self, tmp_path, case):
        scene_dir = write_scene(tmp_path, n_views=4, image_size=(80, 60))
        out = tmp_path / "out"
        run_pipeline(scene_dir, small_config(), out_dir=out)
        data, message = self.CASES[case]
        formats.save_raster(out / "depth_001.mvsr", data)
        with pytest.raises(ValueError, match=message):
            evaluate_outputs(scene_dir, out, small_config())


class TestStreamingDecode:
    """Each view's image is decoded once, where it is used, and dropped
    before the next; ground truth is decoded only to score it."""

    @staticmethod
    def track_decodes(monkeypatch):
        """Wrap formats.load_ppm; returns, per call, the decoded file's name
        and how many images decoded earlier were still alive."""
        real = formats.load_ppm
        decoded, calls = [], []

        def load_ppm(path):
            calls.append((os.path.basename(path), sum(ref() is not None for ref in decoded)))
            image = real(path)
            decoded.append(weakref.ref(image))
            return image

        monkeypatch.setattr(formats, "load_ppm", load_ppm)
        return calls

    @pytest.mark.parametrize("refine", [False, True])
    def test_one_image_alive_and_each_decoded_once(self, tmp_path, monkeypatch, refine):
        scene_dir = write_scene(tmp_path, n_views=5, image_size=(64, 48))
        calls = self.track_decodes(monkeypatch)
        config = small_config(refine_steps=1, refine_novel_views=2)
        run_pipeline(scene_dir, config, out_dir=tmp_path / "out", refine=refine)
        assert sorted(name for name, _ in calls) == [f"view_{i:03d}.ppm" for i in range(5)]
        assert [alive for _, alive in calls] == [0] * 5

    def test_refined_volumes_are_dropped_before_the_first_evaluation(self, tmp_path,
                                                                      monkeypatch):
        # The refined views' volumes are handed over to the refinement, which
        # drops them once it has their logits: while it renders, only the
        # unrefined detection views' volumes are alive.
        import mvsweep.splat as splat_module

        volumes, alive = [], []
        real_probability = pipeline.cost_to_probability
        real_loss = splat_module.refinement_loss_and_grad

        def cost_to_probability(*args, **kwargs):
            volume = real_probability(*args, **kwargs)
            volumes.append(weakref.ref(volume))
            return volume

        def refinement_loss_and_grad(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in volumes))
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(pipeline, "cost_to_probability", cost_to_probability)
        monkeypatch.setattr(splat_module, "refinement_loss_and_grad", refinement_loss_and_grad)
        scene_dir = write_scene(tmp_path, n_views=6, image_size=(64, 48))
        config = small_config(refine_steps=2, refine_novel_views=1, novel_source_views=3)
        result = run_pipeline(scene_dir, config, refine=True)
        assert len(volumes) == 5 and len(result.refined_views) == 3
        assert alive and set(alive) == {2}

    def test_eval_decodes_no_image(self, tmp_path, monkeypatch):
        scene_dir = write_scene(tmp_path)
        run_pipeline(scene_dir, small_config(), out_dir=tmp_path / "out")
        calls = self.track_decodes(monkeypatch)
        metrics = evaluate_outputs(scene_dir, tmp_path / "out", small_config())
        assert "depth_rmse_mean" in metrics
        assert calls == []

    @pytest.mark.parametrize("case", ["short_ppm", "depth_header"])
    def test_bad_header_fails_in_load_scene_before_compute(self, tmp_path, monkeypatch, case):
        scene_dir = write_scene(tmp_path)
        if case == "short_ppm":
            path = scene_dir / "view_002.ppm"
            path.write_bytes(path.read_bytes()[:-1])
            message = "view_002.ppm: truncated data: PPM header 128x96"
        else:
            formats.save_raster(scene_dir / "depth_002.mvsr", np.ones((96, 64)))
            message = "depth_002.mvsr: depth raster is 64x96x1"
        calls = self.track_decodes(monkeypatch)
        computed = []
        monkeypatch.setattr(pipeline, "extract_features", lambda image: computed.append(1))
        with pytest.raises(ValueError, match=message):
            load_scene(scene_dir)
        with pytest.raises(ValueError, match=message):
            run_pipeline(scene_dir, small_config())
        assert calls == [] and computed == []

    @pytest.mark.parametrize("name,message", [
        ("view_002.ppm", "PPM header 128x96 declares 36864 bytes, the file holds 36865"),
        ("depth_002.mvsr", "raster header rows x cols x channels 96x128x1 declares 49152 bytes, "
                           "the file holds 49153"),
    ], ids=["ppm", "depth"])
    def test_trailing_bytes_fail_in_load_scene(self, tmp_path, name, message):
        scene_dir = write_scene(tmp_path)
        with open(scene_dir / name, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ValueError, match=f"{name}: trailing data: {message}"):
            load_scene(scene_dir)


class TestRunPipeline:
    def test_produces_artifacts_and_metrics(self, tmp_path):
        scene_dir = write_scene(tmp_path, n_boxes=1, n_views=4)
        out = tmp_path / "out"
        result = run_pipeline(scene_dir, small_config(), out_dir=out)
        assert len(result.prob_volumes) == 4
        for probs in result.prob_volumes:
            np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)
        for i in range(4):
            assert (out / f"prob_{i:03d}.mvsr").exists()
            assert (out / f"depth_{i:03d}.mvsr").exists()
        assert (out / "volume.mvsv").exists()
        assert (out / "boxes.txt").exists()
        assert (out / "metrics.txt").exists()
        metrics = formats.load_metrics(out / "metrics.txt")
        assert "depth_rmse_view0" in metrics
        assert "depth_rmse_mean" in metrics
        assert "box0_best_iou" in metrics

    def test_one_view_scene_rejected(self, tmp_path):
        scene_dir = write_scene(tmp_path, n_views=2, image_size=(64, 48))
        formats.save_cameras(scene_dir / "cameras.txt", load_scene(scene_dir).views[:1])
        with pytest.raises(ValueError, match="^need at least two views$"):
            run_pipeline(scene_dir, small_config())

    def test_refine_checks_the_splat_sigmas_before_the_sweep(self, tmp_path, monkeypatch):
        # On the default cameras (quarter-res focal 75) a footprint of 1e6
        # at depth_max 1e6 gives sigmas up to 1.33e10, past the splat
        # loader's 1e10: `refine` names the field before any sweep, while
        # `run`, which places no splat, gets as far as the sweep.
        class Swept(Exception):
            pass

        def sweep(*args, **kwargs):
            raise Swept

        scene_dir = write_scene(tmp_path, image_size=(320, 240))
        monkeypatch.setattr(pipeline, "build_cost_volume", sweep)
        config = PipelineConfig(splat_footprint=1e6, depth_max=1e6)
        message = (r"^splat_footprint=1000000.0 gives splat sigmas up to 1.33333e\+10, "
                   r"more than 1e\+10$")
        with pytest.raises(ValueError, match=message):
            run_pipeline(scene_dir, config, refine=True)
        with pytest.raises(Swept):
            run_pipeline(scene_dir, config)

    def test_byte_identical_reruns(self, tmp_path):
        scene_dir = write_scene(tmp_path, n_boxes=1, n_views=3)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_pipeline(scene_dir, small_config(), out_dir=out_a)
        run_pipeline(scene_dir, small_config(), out_dir=out_b)
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_ten_view_scene_defaults(self, tmp_path):
        # Ten views, default plane/grid configuration: the metrics report
        # carries one depth RMSE entry per view and at least one box comes
        # out of the extractor.
        scene_dir = write_scene(tmp_path, seed=31, n_boxes=2, n_views=10, image_size=(160, 120))
        result = run_pipeline(scene_dir, PipelineConfig())
        rmse_keys = [k for k in result.metrics if k.startswith("depth_rmse_view")]
        assert len(rmse_keys) == 10
        assert result.metrics["n_boxes"] >= 1

    def test_topk_ablation_rmse_trend(self, tmp_path):
        # k only affects the volume stage; regressed depth is identical, so
        # the k=3 mean RMSE is trivially <= the k=1 mean RMSE.
        scene_dir = write_scene(tmp_path, seed=8, n_boxes=0, n_views=3)
        r3 = run_pipeline(scene_dir, small_config(top_k=3))
        r1 = run_pipeline(scene_dir, small_config(top_k=1))
        assert r3.metrics["depth_rmse_mean"] <= r1.metrics["depth_rmse_mean"] + 1e-12

    def test_refine_mode_artifacts(self, tmp_path):
        scene_dir = write_scene(tmp_path, n_boxes=0, n_views=5, image_size=(64, 48))
        out = tmp_path / "out"
        config = small_config(refine_steps=2, refine_novel_views=2)
        result = run_pipeline(scene_dir, config, out_dir=out, refine=True)
        assert result.refined_views
        assert result.loss_trace is not None
        assert all(
            result.loss_trace[i + 1] <= result.loss_trace[i]
            for i in range(len(result.loss_trace) - 1)
        )
        assert (out / "splats.mvsg").exists()
        assert (out / "loss_trace.txt").exists()
        # held-out novel views produce no depth raster
        novel = holdout_novel_indices(5, 2)
        for i in range(5):
            assert (out / f"depth_{i:03d}.mvsr").exists() == (i not in novel)


class TestEvaluate:
    def test_eval_reproduces_refine_metrics(self, tmp_path):
        # Sources are picked among the detection views only, as the run picks
        # them; eval scores the float32 rasters, so depth keys agree to 1e-6,
        # and the box and refinement-loss keys are equal.
        scene_dir = write_scene(tmp_path, n_boxes=1, n_views=6, image_size=(64, 48))
        out = tmp_path / "out"
        config = small_config(refine_steps=1)
        run_pipeline(scene_dir, config, out_dir=out, refine=True)
        ran = formats.load_metrics(out / "metrics.txt")
        evaluated = evaluate_outputs(scene_dir, out, config)
        depth_keys = [k for k in ran if k.startswith("depth_")]
        assert depth_keys and set(depth_keys) == {k for k in evaluated if k.startswith("depth_")}
        for key in depth_keys:
            assert evaluated[key] == pytest.approx(ran[key], abs=1e-6), key
        rest = {k: v for k, v in ran.items() if k not in depth_keys}
        assert {"n_boxes", "box0_best_iou", "refine_loss_initial", "refine_loss_final"} <= set(rest)
        assert {k: v for k, v in evaluated.items() if k not in depth_keys} == rest


class TestCli:
    def test_scene_gen_run_eval_render(self, tmp_path):
        scene_dir = tmp_path / "scene"
        out_dir = tmp_path / "results"
        cfg_path = tmp_path / "config.txt"
        save_config(cfg_path, small_config())
        assert cli_main([
            "--seed", "5", "--out", str(scene_dir), "scene-gen", "--boxes", "1", "--views", "3",
        ]) == 0
        assert (scene_dir / "cameras.txt").exists()
        assert (scene_dir / "view_002.ppm").exists()
        assert (scene_dir / "depth_002.mvsr").exists()
        assert (scene_dir / "scene.txt").exists()

        assert cli_main([
            "--config", str(cfg_path), "--out", str(out_dir), "run", "--scene", str(scene_dir),
        ]) == 0
        assert (out_dir / "metrics.txt").exists()

        metrics_path = tmp_path / "metrics_eval.txt"
        assert cli_main([
            "--config", str(cfg_path), "--out", str(metrics_path),
            "eval", "--scene", str(scene_dir), "--results", str(out_dir),
        ]) == 0
        metrics = formats.load_metrics(metrics_path)
        assert "depth_rmse_view0" in metrics

    def test_run_prints_the_metrics_text(self, tmp_path, capsys):
        # `run` prints its metrics as metrics.txt holds them, then where its
        # artifacts went.
        scene_dir = write_scene(tmp_path, n_views=3, image_size=(64, 48))
        out_dir = tmp_path / "results"
        cfg_path = tmp_path / "config.txt"
        save_config(cfg_path, small_config())
        capsys.readouterr()
        assert cli_main([
            "--config", str(cfg_path), "--out", str(out_dir), "run", "--scene", str(scene_dir),
        ]) == 0
        metrics_text = (out_dir / "metrics.txt").read_text()
        assert metrics_text
        assert capsys.readouterr().out == metrics_text + f"artifacts written to {out_dir}\n"

    def test_render_subcommand(self, tmp_path):
        scene_dir = tmp_path / "scene"
        out_dir = tmp_path / "refined"
        render_dir = tmp_path / "render"
        cfg = small_config(refine_steps=1, refine_novel_views=1)
        cfg_path = tmp_path / "config.txt"
        save_config(cfg_path, cfg)
        cli_main(["--seed", "7", "--out", str(scene_dir), "scene-gen", "--boxes", "0", "--views", "4"])
        cli_main(["--config", str(cfg_path), "--out", str(out_dir), "refine", "--scene", str(scene_dir)])
        assert (out_dir / "splats.mvsg").exists()
        assert cli_main([
            "--out", str(render_dir), "render",
            "--splats", str(out_dir / "splats.mvsg"),
            "--cameras", str(scene_dir / "cameras.txt"),
            "--view", "1",
        ]) == 0
        assert (render_dir / "render_001.ppm").exists()
        img = formats.load_ppm(render_dir / "render_001.ppm")
        assert img.shape[2] == 3 and img.max() > 0

    def test_eval_on_a_directory_without_depth_rasters(self, tmp_path):
        # A missing results directory, or one with no depth_*.mvsr, is an
        # error that names it, not an empty report.
        scene_dir = write_scene(tmp_path, n_views=3, image_size=(64, 48))
        (tmp_path / "empty").mkdir()
        for results in (tmp_path / "missing", tmp_path / "empty"):
            with pytest.raises(FileNotFoundError, match=re.escape(str(results))):
                cli_main(["eval", "--scene", str(scene_dir), "--results", str(results)])

    @pytest.mark.parametrize("args, what", [
        (["scene-gen"], "scene-gen"),
        (["run", "--scene", "scene"], "run/refine"),
        (["refine", "--scene", "scene"], "run/refine"),
        (["render", "--splats", "s.mvsg", "--cameras", "cameras.txt"], "render"),
    ])
    def test_out_is_required(self, args, what):
        # Checked before any input is read.
        with pytest.raises(SystemExit, match=f"^--out is required for {what}$"):
            cli_main(args)

    @pytest.mark.parametrize("view", [-1, 2])
    def test_render_view_out_of_range(self, tmp_path, view):
        scene_dir = write_scene(tmp_path, n_views=2, image_size=(64, 48))
        splats = GaussianSplatSet(
            means=np.zeros((1, 3)), opacities=np.full(1, 0.5), sigmas=np.full(1, 0.1),
            colors=np.zeros((1, 3)), source_view=np.zeros(1, dtype=np.int64),
            pixel_rows=np.zeros(1, dtype=np.int64), pixel_cols=np.zeros(1, dtype=np.int64),
        )
        formats.save_splats(tmp_path / "s.mvsg", splats)
        with pytest.raises(SystemExit, match=f"^--view {view} out of range \\(have 2 cameras\\)$"):
            cli_main(["--out", str(tmp_path / "render"), "render", "--splats",
                      str(tmp_path / "s.mvsg"), "--cameras", str(scene_dir / "cameras.txt"),
                      "--view", str(view)])
        assert not (tmp_path / "render").exists()

    def test_threads_flag_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["--threads", "0", "--out", str(tmp_path), "scene-gen"])


# SHA-256 over every `--out` file of a `run` on criterion 12's seed-5 scene,
# of a `refine` on it (one novel view, 4 steps), over the files of the scene
# directory itself, and over the float64 depth and image of every ray-cast
# view, as printed by `scripts/golden_hash.py --seed 5`, one row per SIMD
# class.  A change that keeps the pipeline's behaviour fixed keeps all four
# digests.  The refine digest was re-pinned when the splat forward pass took
# up 3D Gaussian Splatting's saturation rule (a pair behind a transmittance
# below 1e-4 is dropped), and again when isotropic splats were projected in
# closed form, sigma^2 J J^T + dilation.  The golden and refine digests were
# re-pinned when the plane sweep took its warp in closed form, d a + b per
# plane, and its bilinear samples from one coefficient gather, which moves
# costs in the last bits.  The refine digest was re-pinned again when the
# splat backward pass began to walk the forward pass's chunks back to
# front: a pair's colour suffix is now the rest of its run from its chunk's
# own cumulative sum plus the later chunks' running total, not a difference
# of one view-long cumulative sum, which moves gradients in their last
# bits.  The AVX2 and baseline rows are
# equal: numpy 2.4.6 has the same float64 exp, log and log1p bits on both.
# The scene files keep depth as f32 and images as 8 bits, so the scene digest
# is equal on all three.
GOLDEN_DIGEST_SEED5 = {
    "AVX-512": "e46fa53e26a2adceca0e83829c2b2a27ea72a444913859c941a9979dd7748c1a",
    "AVX2": "304a54dd2a65583065b141d2226100d05f0fde2e2449cf21138b0ca4e90c2b83",
    "baseline": "304a54dd2a65583065b141d2226100d05f0fde2e2449cf21138b0ca4e90c2b83",
}
REFINE_DIGEST_SEED5 = {
    "AVX-512": "1812787747a937af5c6340d33991f0d0ea484289689f73feb188df24f0e47182",
    "AVX2": "c94cea3b933d15dc1c15e19c5577fd0e6ebf662b49f95ce00fc0ecfbc43556ce",
    "baseline": "c94cea3b933d15dc1c15e19c5577fd0e6ebf662b49f95ce00fc0ecfbc43556ce",
}
SCENE_DIGEST_SEED5 = {
    "AVX-512": "7c4b5e698631ecc5d8d67b05b3999a556bbf9b9948cba41c4ea19b73ff79339f",
    "AVX2": "7c4b5e698631ecc5d8d67b05b3999a556bbf9b9948cba41c4ea19b73ff79339f",
    "baseline": "7c4b5e698631ecc5d8d67b05b3999a556bbf9b9948cba41c4ea19b73ff79339f",
}
RAYCAST_DIGEST_SEED5 = {
    "AVX-512": "07bfa2ddc0ad9a87a600ff42deb5e81632aa3ce9f499cd034e231210eb1fcb0e",
    "AVX2": "837e1c492898de23720774f13a0119efc7b881f63089af2597e14aa50287329e",
    "baseline": "837e1c492898de23720774f13a0119efc7b881f63089af2597e14aa50287329e",
}
DIGESTS_SEED5 = {"golden": GOLDEN_DIGEST_SEED5, "refine": REFINE_DIGEST_SEED5,
                 "scene": SCENE_DIGEST_SEED5, "raycast": RAYCAST_DIGEST_SEED5}


@pytest.fixture(scope="module")
def seed5_run(tmp_path_factory):
    # One pass of `golden_hash.digests(5, ...)`: its four digests by name, and
    # the argument lists of every `write_scene` call it made.
    writes = []
    write = golden_hash.write_scene
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(golden_hash, "write_scene", lambda *args: writes.append(args) or write(*args))
        found = golden_hash.digests(5, tmp_path_factory.mktemp("golden"))
        return dict(zip(DIGESTS_SEED5, found, strict=True)), writes


@pytest.mark.parametrize("name", DIGESTS_SEED5)
def test_digest(seed5_run, name):
    assert_pinned(f"{name} digest", seed5_run[0][name], DIGESTS_SEED5[name])


def test_digests_write_the_scene_once(seed5_run):
    assert len(seed5_run[1]) == 1


@pytest.mark.parametrize("cls", X86_CLASSES)
def test_golden_hash_script_per_simd_class(cls):
    # The script in a fresh process whose numpy dispatches as `cls`: it names
    # that class and prints that class's row of all four digests.
    env = emulation_env(cls)
    if env is None:
        pytest.skip(f"this host cannot emulate SIMD class {cls} (it is {SIMD_CLASS})")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, SCRIPT, "--seed", "5"], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    *digests, runtime = proc.stdout.splitlines()
    assert f" simd class {cls} found: " in runtime
    for (name, rows), actual in zip(DIGESTS_SEED5.items(), digests, strict=True):
        assert_pinned(f"{name} digest", actual, rows, cls)


def test_golden_hash_script_stops_quietly_when_its_output_is_closed():
    # As under `golden_hash.py | head -1`: the reader takes the first digest
    # and closes the pipe while the script computes the second.  Unbuffered,
    # every line is written as it is printed.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, SCRIPT, "--seed", "5"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert re.fullmatch(rb"[0-9a-f]{64}\n", first)
    assert stderr == b""


def test_missing_simd_row_names_the_class_and_the_value():
    with pytest.raises(AssertionError, match="no row for SIMD class 'AVX2': add 'AVX2': 'ab12'"):
        assert_pinned("golden digest", "ab12", {"AVX-512": "ab12"}, "AVX2")
