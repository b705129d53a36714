#!/usr/bin/env python3
"""Fast self-test of the benchmark's correctness checks, at a tiny size.

Each check must pass on what the real program produces and must fail on a
corrupted copy of it.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import os
import shutil
import struct
import tempfile
import unittest

import run

run._import_engine()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Room scenes at 160x120 (at 80x60 the sweep no longer beats a constant depth
# on every view); refine-plateau scenes at 80x60.
ROOM_SCALE = 0.5
PLATEAU_SCALE = 0.25


def write_raster(path, data):
    data = np.asarray(data, dtype="<f4")
    if data.ndim == 2:
        data = data[..., None]
    with open(path, "wb") as fh:
        fh.write(b"MVSR" + struct.pack("<III", *data.shape) + data.tobytes())


class TinyScenes(unittest.TestCase):
    """Builds each kind of input once, in a scratch directory of the checkout."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        cls.addClassCleanup(shutil.rmtree, cls.tmp, True)
        cls.room = workloads.build_room_scene(
            workloads.room_seeds(3, 1)[0], cls.path("room"), cls.path("room-out"), ROOM_SCALE
        )
        cls.plateau = workloads.build_plateau_scene(
            workloads.plateau_seeds(3, 1)[0], cls.path("p"), cls.path("p-out"), PLATEAU_SCALE
        )

    @classmethod
    def path(cls, name):
        return os.path.join(cls.tmp, name)

    def corrupt_copy(self, scene, edit):
        """A copy of the scene whose artifact directory went through `edit`."""
        copy = workloads.Scene(**{**scene.__dict__, "out": self.path(f"bad-{self.id()}")})
        shutil.copytree(scene.out, copy.out)
        edit(copy.out)
        return copy


class DetectChecks(TinyScenes):
    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        cls.seconds = workloads.detect_op(cls.room, spans.NullTracer())
        cls.result_views = sorted(
            int(n[5:8]) for n in os.listdir(cls.room.out) if n.startswith("prob_")
        )

    def edit_raster(self, name, change):
        def edit(out):
            path = os.path.join(out, name)
            data = checks.read_raster(path)
            change(data)
            write_raster(path, data)
        return edit

    def test_real_outputs_pass_and_repeat_identically(self):
        self.assertIsNotNone(self.room.rmse)
        self.assertEqual(workloads._check_artifacts(self.room, self.result_views, True),
                         self.room.rmse)
        workloads.detect_op(self.room, spans.NullTracer())  # checks the repeat

    def test_volume_not_summing_to_one_fails(self):
        def scale(d):
            d[3, 4] *= 1.001
        bad = self.corrupt_copy(self.room, self.edit_raster("prob_000.mvsr", scale))
        with self.assertRaisesRegex(checks.CheckFailed, "sum to 1"):
            workloads._check_artifacts(bad, self.result_views, True)

    def test_negative_probability_fails(self):
        def negate(d):  # keeps the pixel's sum at 1
            d[0, 0, 1] += d[0, 0, 0] + 0.01
            d[0, 0, 0] = -0.01
        bad = self.corrupt_copy(self.room, self.edit_raster("prob_001.mvsr", negate))
        with self.assertRaisesRegex(checks.CheckFailed, "negative"):
            workloads._check_artifacts(bad, self.result_views, True)

    def test_depth_outside_range_fails(self):
        def push(d):
            d[2, 2] = workloads.CONFIG.depth_max + 0.01
        bad = self.corrupt_copy(self.room, self.edit_raster("depth_002.mvsr", push))
        with self.assertRaisesRegex(checks.CheckFailed, "leaves"):
            workloads._check_artifacts(bad, self.result_views, True)

    def test_depth_no_better_than_a_constant_fails(self):
        gt = self.room.gt_depth_q[0]
        mask = (gt >= workloads.CONFIG.depth_min) & (gt <= workloads.CONFIG.depth_max)

        def constant(d):
            d[...] = 2.0 * gt[mask].mean() - gt[..., None]  # mirrored about the mean
            np.clip(d, workloads.CONFIG.depth_min, workloads.CONFIG.depth_max, out=d)
        bad = self.corrupt_copy(self.room, self.edit_raster("depth_000.mvsr", constant))
        with self.assertRaisesRegex(checks.CheckFailed, "constant predictor"):
            workloads._check_artifacts(bad, self.result_views, True)

    def test_changed_artifact_on_repeat_fails(self):
        def flip(out):
            with open(os.path.join(out, "boxes.txt"), "a") as fh:
                fh.write("\n")
        bad = self.corrupt_copy(self.room, flip)
        with self.assertRaisesRegex(checks.CheckFailed, "boxes.txt"):
            workloads._check_repeat(bad)


class RefineChecks(TinyScenes):
    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        workloads.refine_op(cls.room, spans.NullTracer())
        workloads.plateau_op(cls.plateau, spans.NullTracer())

    def test_real_outputs_pass(self):
        self.assertGreater(self.room.loss_final, 0.0)
        self.assertGreater(self.plateau.loss_final, 0.0)
        self.assertIsNotNone(self.plateau.rmse)

    def test_loss_trace_with_one_increase_fails(self):
        with self.assertRaisesRegex(checks.CheckFailed, "rises at step 2"):
            checks.check_loss_trace([0.3, 0.2, 0.2000001, 0.1], 3)

    def test_loss_trace_of_wrong_length_or_flat_fails(self):
        with self.assertRaisesRegex(checks.CheckFailed, "entries"):
            checks.check_loss_trace([0.3, 0.2], 3)
        with self.assertRaisesRegex(checks.CheckFailed, "did not fall"):
            checks.check_loss_trace([0.3, 0.3, 0.3], 2)

    def test_refined_volume_not_summing_to_one_fails(self):
        probs = self.plateau.volumes[0].copy()
        checks.check_distribution(probs, checks.F64_SUM_TOL, "start volume")
        probs[1, 1, 1] += 1e-6
        with self.assertRaises(checks.CheckFailed):
            checks.check_distribution(probs, checks.F64_SUM_TOL, "refined volume")

    def test_splats_whose_rendered_loss_is_off_fail(self):
        from mvsweep.harness import formats

        splats = formats.load_splats(os.path.join(self.room.out, "splats.mvsg"))
        loss = workloads._render(spans.NullTracer(), splats, self.room)
        checks.check_loss_matches(loss, self.room.loss_final)
        splats.colors[::7] *= 0.99
        with self.assertRaisesRegex(checks.CheckFailed, "rendering the refined splats"):
            checks.check_loss_matches(
                workloads._render(spans.NullTracer(), splats, self.room), self.room.loss_final
            )


class TraceAccounting(TinyScenes):
    def test_layer_self_times_add_up_to_the_operation(self):
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            workloads.refine_op(self.room, tracer)
        finally:
            spans.restore(saved)
        m = {k: v for k, (v, _) in spans.layer_metrics(tracer, self.room.loss_final).items()}
        layer_sum = sum(v for k, v in m.items() if k.endswith("_s") and k not in
                        ("trace.op_s", "scenegen.raycast_s", "splat.rasterize_s"))
        self.assertAlmostEqual(layer_sum, m["trace.op_s"], delta=1e-9 * len(tracer.spans))
        self.assertEqual(m["splat.evaluations"],
                         1 + m["splat.accepted_steps"] + m["splat.rejected_trials"])
        self.assertEqual(m["splat.accepted_steps"], workloads.REFINE_STEPS)
        self.assertGreater(m["costvol.warp_samples"], 0)
        self.assertGreater(m["splat.rasterize_s"], 0)
        from mvsweep import costvol
        from mvsweep.harness import pipeline

        self.assertIs(pipeline.build_cost_volume, costvol.build_cost_volume)


if __name__ == "__main__":
    unittest.main()
