"""The benchmark's span recorder still reaches every engine function it wraps.

`perfbench/spans.py` replaces each layer's public function, by name, in the
module where its caller looks it up.  A function that is renamed, moved, or
called some other way makes its per-layer metric read 0 without any error.
These tests run a tiny traced scene write, refinement run and render, and
check that every span name the recorder wraps was entered, and only from
the calling thread: the recorder keeps one span stack and is not
thread-safe.
"""

import inspect
import os
import threading
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


def run_traced(tmp_path, tracer, n_views=4, novel_views=1):
    """A tiny scene write, refinement run and render under `tracer`; the
    span names the recorder wraps."""
    spans = load_spans()
    saved = spans.install(tracer)
    try:
        wrapped = {inspect.getclosurevars(getattr(module, attr)).nonlocals["name"]
                   for module, attr, _ in saved}
        scene = generate_scene(seed=3, n_boxes=1)
        views = make_trajectory(scene, n_views, seed=3, image_size=(64, 48))
        config = PipelineConfig(grid_dims=(8, 8, 4), grid_pitch=(0.8, 0.8, 0.8),
                                refine_steps=1, refine_novel_views=novel_views, min_component=1)
        with tracer.span("op"):
            pipeline.write_scene(tmp_path / "scene", scene, views)
            pipeline.run_pipeline(tmp_path / "scene", config, out_dir=tmp_path / "out",
                                  refine=True)
            splat.rasterize(formats.load_splats(tmp_path / "out" / "splats.mvsg"), views[0])
    finally:
        spans.restore(saved)
    return wrapped


def test_every_wrapped_name_is_entered(tmp_path):
    tracer = load_spans().Tracer()
    wrapped = run_traced(tmp_path, tracer)
    assert wrapped - {name for name, *_ in tracer.spans} == set()
    counts = tracer.counter_totals("op")
    assert counts["costvol.volume_bytes"] > 0
    assert counts["sampling.voxel_view_tests"] > 0


def test_wrapped_names_entered_on_the_calling_thread(tmp_path, monkeypatch):
    # The recorder keeps one span stack, so a wrapped name entered from a
    # worker thread would nest its span under whatever the caller has open.
    # Refinement renders its second novel view on a worker; that worker must
    # call only unwrapped passes.
    tracer = load_spans().Tracer()
    entered = []
    span = tracer.span

    def recording_span(name):
        entered.append((name, threading.get_ident()))
        return span(name)

    tracer.span = recording_span
    forward_threads = set()
    render_forward = splat._render_forward

    def recording_forward(*args):
        forward_threads.add(threading.get_ident())
        return render_forward(*args)

    monkeypatch.setattr(splat, "_render_forward", recording_forward)
    run_traced(tmp_path, tracer, n_views=5, novel_views=2)
    caller = threading.get_ident()
    assert forward_threads - {caller}  # some forward pass ran on a worker
    assert "splat.refinement_loss_and_grad" in {name for name, _ in entered}
    assert [name for name, thread in entered if thread != caller] == []
