"""Span recorder for traced benchmark runs.

The benchmark wraps the public function of each mvsweep layer where the
caller looks it up (for example ``mvsweep.harness.pipeline.build_cost_volume``)
so that every call becomes a span with a name, a start, an end and a parent.
A span's self time is its duration minus the time its direct children cover.
Spans are kept in memory and written out once, when the run ends.

Root spans name the phase of the run: ``setup`` (building inputs), ``op``
(one timed operation) and ``render`` (one rendered view).  Counters are
attached to the innermost open root.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        # Each span: [name, parent index, root index, start, end, child seconds].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.refine_losses: list[float] | None = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][2] if parent >= 0 else len(self.spans)
        index = len(self.spans)
        self.spans.append([name, parent, root, time.perf_counter(), 0.0, 0.0])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            rec = self.spans[index]
            rec[4] = time.perf_counter()
            if parent >= 0:
                self.spans[parent][5] += rec[4] - rec[3]

    def count(self, name, value):
        if self._stack:
            self.counters[self._stack[0]][name] += value

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s[1] == -1 and s[0] == name]

    def self_times(self, root_name):
        """Summed self seconds per span name over all spans under the roots
        called ``root_name``, and the number of those roots."""
        roots = set(self.roots(root_name))
        totals: dict[str, float] = defaultdict(float)
        for name, parent, root, start, end, child in self.spans:
            if root in roots:
                totals[name] += (end - start) - child
        return totals, len(roots)

    def counter_totals(self, root_name):
        totals: dict[str, float] = defaultdict(float)
        for root in self.roots(root_name):
            for name, value in self.counters[root].items():
                totals[name] += value
        return totals

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {
            "spans": [
                {"name": n, "parent": p, "root": r, "start_s": s - t0, "end_s": e - t0}
                for n, p, r, s, e, _ in self.spans
            ],
            "counters": {str(k): dict(v) for k, v in self.counters.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _wrap(tracer, module, attr, name, after=None, before=None):
    fn = getattr(module, attr)

    def traced(*args, **kwargs):
        with tracer.span(name):
            if before is not None:
                before(tracer)
            out = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, out)
        return out

    setattr(module, attr, traced)
    return module, attr, fn


def _cost_volume_counts(tracer, args, kwargs, vol):
    ref_feat, src_feats, planes = args[0], args[2], args[4]
    h, w = ref_feat.shape[:2]
    tracer.count("costvol.warp_samples", h * w * planes.count * len(src_feats))
    tracer.count("costvol.volume_bytes", vol.costs.nbytes + vol.valid_views.nbytes)
    tracer.count("costvol.penalty_cells", int((vol.valid_views < 2).sum()))
    tracer.count("costvol.cells", vol.valid_views.size)


def _volume_counts(tracer, args, kwargs, grid):
    tracer.count("sampling.voxel_view_tests", grid.spec.n_voxels * len(args[0]))
    tracer.count("sampling.gated_tests", int(grid.valid_count.sum()))


def _refine_begin(tracer):
    tracer.refine_losses = []


def _refine_counts(tracer, args, kwargs, result):
    losses = tracer.refine_losses or []
    tracer.refine_losses = None
    # The line search keeps a trial when its loss does not exceed the last
    # kept loss; the first evaluation is the starting point.
    accepted = 0
    if losses:
        best = losses[0]
        for loss in losses[1:]:
            if loss <= best:
                best = loss
                accepted += 1
    tracer.count("splat.accepted_steps", accepted)
    tracer.count("splat.rejected_trials", max(len(losses) - 1 - accepted, 0))


def _loss_grad_counts(tracer, args, kwargs, out):
    tracer.count("splat.evaluations", 1)
    if tracer.refine_losses is not None:
        tracer.refine_losses.append(out[0])


def _save_counts(tracer, args, kwargs, out):
    tracer.count("formats.bytes_written", os.path.getsize(args[0]))


_LOADS = ("load_cameras", "load_ppm", "load_raster", "load_boxes", "load_scene_spec",
          "load_splats")
_SAVES = ("save_cameras", "save_ppm", "save_raster", "save_volume", "save_boxes",
          "save_metrics", "save_splats", "save_scene")


def install(tracer):
    """Wrap every layer's public function; returns what restore() undoes."""
    from mvsweep import scenegen, splat
    from mvsweep.harness import formats, pipeline

    saved = [
        _wrap(tracer, scenegen, "raycast", "scenegen.raycast",
              lambda t, a, k, gt: t.count("scenegen.pixels_cast", gt.depth.size)),
        _wrap(tracer, pipeline, "load_scene", "pipeline.load_scene"),
        _wrap(tracer, pipeline, "extract_features", "costvol.extract_features"),
        _wrap(tracer, pipeline, "build_cost_volume", "costvol.build_cost_volume",
              _cost_volume_counts),
        _wrap(tracer, pipeline, "cost_to_probability", "costvol.cost_to_probability"),
        _wrap(tracer, pipeline, "regress_depth", "costvol.regress_depth"),
        _wrap(tracer, pipeline, "sample_topk", "sampling.sample_topk"),
        _wrap(tracer, pipeline, "build_volume", "sampling.build_volume", _volume_counts),
        _wrap(tracer, pipeline, "extract_boxes", "boxes.extract_boxes",
              lambda t, a, k, boxes: t.count("boxes.count", len(boxes))),
        _wrap(tracer, splat, "refinement_loss_and_grad", "splat.refinement_loss_and_grad",
              _loss_grad_counts),
        _wrap(tracer, splat, "rasterize", "splat.rasterize"),
    ]
    for module in (pipeline, splat):
        saved.append(_wrap(tracer, module, "build_splats", "splat.build_splats",
                           lambda t, a, k, s: t.count("splat.primitives", len(s))))
        saved.append(_wrap(tracer, module, "refine_probability_volume",
                           "splat.refine_probability_volume", _refine_counts,
                           before=_refine_begin))
    saved += [_wrap(tracer, formats, n, "formats.load") for n in _LOADS]
    saved += [_wrap(tracer, formats, n, "formats.save", _save_counts) for n in _SAVES]
    return saved


def restore(saved):
    for module, attr, fn in reversed(saved):
        setattr(module, attr, fn)


# Self-time metrics and the span name each one sums.
_SELF_TIMES = {
    "formats.load_s": "formats.load",
    "formats.save_s": "formats.save",
    "pipeline.load_scene_s": "pipeline.load_scene",
    "pipeline.glue_s": "op",
    "costvol.extract_features_s": "costvol.extract_features",
    "costvol.build_cost_volume_s": "costvol.build_cost_volume",
    "costvol.cost_to_probability_s": "costvol.cost_to_probability",
    "costvol.regress_depth_s": "costvol.regress_depth",
    "sampling.sample_topk_s": "sampling.sample_topk",
    "sampling.build_volume_s": "sampling.build_volume",
    "boxes.extract_boxes_s": "boxes.extract_boxes",
    "splat.refine_probability_volume_s": "splat.refine_probability_volume",
    "splat.refinement_loss_and_grad_s": "splat.refinement_loss_and_grad",
    "splat.build_splats_s": "splat.build_splats",
}
_OP_COUNTS = (
    "formats.bytes_written", "costvol.warp_samples", "costvol.volume_bytes",
    "sampling.voxel_view_tests", "boxes.count", "splat.primitives", "splat.evaluations",
    "splat.accepted_steps", "splat.rejected_trials",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, loss_final):
    """Per-layer metrics of a traced run.

    Times and counts are summed per operation (means over the run's
    operations); scenegen figures are per set-up and splat.rasterize_s is per
    rendered view.  The self times of one operation add up to trace.op_s.
    """
    op_self, n_ops = tracer.self_times("op")
    op_counts = tracer.counter_totals("op")
    setup_self, n_setups = tracer.self_times("setup")
    setup_counts = tracer.counter_totals("setup")
    render_self, n_renders = tracer.self_times("render")
    op_wall = sum(tracer.spans[i][4] - tracer.spans[i][3] for i in tracer.roots("op"))

    out = {
        "trace.op_s": (_ratio(op_wall, n_ops), "s"),
        "scenegen.raycast_s": (_ratio(setup_self["scenegen.raycast"], n_setups), "s"),
        "scenegen.pixels_cast": (_ratio(setup_counts["scenegen.pixels_cast"], n_setups), "count"),
        "splat.rasterize_s": (_ratio(render_self["splat.rasterize"], n_renders), "s"),
        "splat.loss_final": (loss_final, "mse"),
        "costvol.penalty_cell_frac": (
            _ratio(op_counts["costvol.penalty_cells"], op_counts["costvol.cells"]), "fraction"),
        "sampling.gated_voxel_frac": (
            _ratio(op_counts["sampling.gated_tests"], op_counts["sampling.voxel_view_tests"]),
            "fraction"),
        "splat.accept_ratio": (
            _ratio(op_counts["splat.accepted_steps"], op_counts["splat.evaluations"]),
            "fraction"),
    }
    for metric, span in _SELF_TIMES.items():
        out[metric] = (_ratio(op_self[span], n_ops), "s")
    for name in _OP_COUNTS:
        out[name] = (_ratio(op_counts[name], n_ops), "B" if "bytes" in name else "count")
    return out
