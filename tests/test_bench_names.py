"""The benchmark's span recorder still reaches every engine function it wraps.

`perfbench/spans.py` replaces each layer's public function, by name, in the
module where its caller looks it up.  A function that is renamed, moved, or
called some other way makes its per-layer metric read 0 without any error.
This test runs a tiny traced scene write, refinement run and render, and
checks that every span name the recorder wraps was entered.
"""

import inspect
import os
import types

from mvsweep import splat
from mvsweep.harness import formats, pipeline
from mvsweep.harness.config import PipelineConfig
from mvsweep.scenegen import generate_scene, make_trajectory

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    """perfbench/spans.py as a module, compiled in memory so nothing is
    written next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = SPANS
    with open(SPANS) as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


def test_every_wrapped_name_is_entered(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        wrapped = {inspect.getclosurevars(getattr(module, attr)).nonlocals["name"]
                   for module, attr, _ in saved}
        scene = generate_scene(seed=3, n_boxes=1)
        views = make_trajectory(scene, 4, seed=3, image_size=(64, 48))
        config = PipelineConfig(grid_dims=(8, 8, 4), grid_pitch=(0.8, 0.8, 0.8),
                                refine_steps=1, refine_novel_views=1, min_component=1)
        with tracer.span("op"):
            pipeline.write_scene(tmp_path / "scene", scene, views)
            pipeline.run_pipeline(tmp_path / "scene", config, out_dir=tmp_path / "out",
                                  refine=True)
            splat.rasterize(formats.load_splats(tmp_path / "out" / "splats.mvsg"), views[0])
    finally:
        spans.restore(saved)
    assert wrapped - {name for name, *_ in tracer.spans} == set()
    counts = tracer.counter_totals("op")
    assert counts["costvol.volume_bytes"] > 0
    assert counts["sampling.voxel_view_tests"] > 0
