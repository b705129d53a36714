"""Every PipelineConfig value gives a result or a ValueError that names a
field, never a MemoryError, an overflow warning or an error that names none.

Each draw changes up to three fields of a config that runs a tiny scene, and
takes each value from the field's valid, boundary, huge and non-finite
values, values of the wrong shape and values that are no number.  A config
the constructor accepts is run with refinement in one worker process, which
generates a 4-view 64x48 scene once and limits its own address space
(`resource.setrlimit` on itself; nothing outside it changes), so a run that
asks for gigabytes fails fast with a MemoryError instead of paging.
Warnings are errors, in the test and in the worker.

The same draws hold the config listing's writer and reader, and the
constructor on values of their fields' shapes, to
`tests/config_reference.py`.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from mvsweep.harness.config import PipelineConfig, config_from_text, config_to_text

import config_reference
from config_reference import outcome

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Reads one JSON-encoded config listing per line and answers one JSON line:
# ["ok"], or the exception's type name and message.
_WORKER = """
import json, os, resource, sys, warnings
from mvsweep.harness import pipeline
from mvsweep.harness.config import config_from_text
from mvsweep.scenegen import generate_scene, make_trajectory

scene_dir, out_dir = sys.argv[1:]
scene = generate_scene(seed=5, n_boxes=1)
pipeline.write_scene(scene_dir, scene, make_trajectory(scene, 4, seed=5, image_size=(64, 48)))
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
print(json.dumps(["ready"]), flush=True)
for line in sys.stdin:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = config_from_text(json.loads(line))
            pipeline.run_pipeline(scene_dir, config, out_dir=out_dir, refine=True)
        answer = ["ok"]
    except Exception as exc:
        answer = [type(exc).__name__, str(exc)]
    print(json.dumps(answer), flush=True)
"""

# The config every draw starts from: the default working point on a grid
# that fits the tiny scene, with one refinement step and one novel view.
BASE = dict(grid_dims=(16, 16, 8), grid_pitch=(0.4, 0.4, 0.4), grid_origin=(-3.2, -3.2, 0.0),
            min_component=2, refine_steps=1, refine_novel_views=1)

NAMES = [f.name for f in fields(PipelineConfig)]
DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}
_INT_EDGES = [1, 0, -1, 10**7, 10**18, math.nan, math.inf]
_FLOAT_EDGES = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, sys.float_info.max, math.nan, math.inf,
                -math.inf]


def _values(f) -> list:
    """A field's valid values (its base and a second working value), then its
    boundary, huge and non-finite ones, then values of the wrong shape (a
    scalar, two or four items for a tuple field; one or two items for a
    scalar field) and values that are no number."""
    base = BASE.get(f.name, f.default)
    if f.name == "grid_dims":
        shaped = [base, (8, 8, 4), (1, 1, 1), (0, 16, 8), (16, 16, -1), (10**7, 16, 8),
                  (10**18, 1, 1), (16, math.nan, 8), (math.inf, 16, 8)]
    elif isinstance(base, tuple):
        shaped = [base, tuple(0.5 * v for v in base)] + [(v, v, v) for v in _FLOAT_EDGES]
    elif isinstance(base, int):
        shaped = [base, 2 * base] + _INT_EDGES
    else:
        shaped = [base, 0.5 * base] + _FLOAT_EDGES
    if isinstance(base, tuple):
        wrong = [base[0], base[:2], base + base[:1]]
    else:
        wrong = [(base,), (base, base)]
    return shaped + wrong + ["1", None]


def _well_shaped(name: str, value) -> bool:
    """Whether value has its field's shape: a tuple of three numbers for a
    tuple field, one number for a scalar field."""
    many = isinstance(DEFAULTS[name], tuple)
    items = value if many and isinstance(value, tuple) else (value,)
    return len(items) == (3 if many else 1) and all(isinstance(v, (int, float)) for v in items)


def _written(value) -> list:
    """The comma-separated values of value's line in a listing."""
    return [repr(v) for v in value] if isinstance(value, tuple) else [repr(value)]


def _listing(kwargs) -> str:
    return "".join(f"{name}={','.join(_written(v))}\n" for name, v in kwargs.items())


def _typed(config) -> list:
    """Every field's value beside its type and the types of its items."""
    return [(v, type(v), tuple(map(type, v)) if isinstance(v, tuple) else ())
            for v in (getattr(config, name) for name in NAMES)]


VALUES = {f.name: _values(f) for f in fields(PipelineConfig)}


@pytest.fixture(scope="module")
def worker(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _WORKER, str(root / "scene"), str(root / "out")],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert json.loads(proc.stdout.readline() or "null") == ["ready"], proc.stderr.read()[-3000:]
        yield proc
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)
        proc.stdout.close()
        proc.stderr.close()


def _names_a_field(message: str) -> bool:
    return any(re.search(rf"\b{name}\b", message) for name in NAMES)


# Up to three (field, value) changes to BASE.
CHANGES = st.lists(
    st.sampled_from(NAMES).flatmap(lambda n: st.tuples(st.just(n), st.sampled_from(VALUES[n]))),
    max_size=3, unique_by=lambda change: change[0],
)


@settings(max_examples=200, deadline=None)
@given(changes=CHANGES)
@example(changes=[("num_planes", 10**7)])
@example(changes=[("splat_footprint", 1e300)])
@example(changes=[("refine_steps", 10**7)])
def test_every_config_runs_or_names_a_field(worker, changes):
    kwargs = dict(BASE, **dict(changes))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = PipelineConfig(**kwargs)
    except ValueError as exc:
        event("rejected by PipelineConfig")
        assert _names_a_field(str(exc)), f"{changes}: {exc}"
        return
    worker.stdin.write(json.dumps(config_to_text(config)) + "\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    assert line, f"{changes}: the worker died: {worker.stderr.read()[-3000:]}"
    answer = json.loads(line)
    event(f"run: {answer[0]}")
    if answer != ["ok"]:
        kind, message = answer
        assert kind == "ValueError" and _names_a_field(message), f"{changes}: {kind}: {message}"


@settings(max_examples=300, deadline=None)
@given(changes=CHANGES)
def test_constructor_casts_and_checks_as_the_reference_does(changes):
    # On values of their fields' shapes the constructor accepts and rejects
    # what the reference does, with equal values; a float field given an int
    # now holds a float (tests/test_harness.py tests that apart).
    assume(all(_well_shaped(name, v) for name, v in changes))
    kwargs = dict(BASE, **dict(changes))
    ours = outcome(lambda kw: PipelineConfig(**kw), kwargs)
    theirs = outcome(config_reference.pipeline_config, kwargs)
    if not (isinstance(ours, str) and isinstance(theirs, str)):
        assert ours == theirs
        return
    # Two deliberate changes of order: every field is shaped in field order,
    # where the reference cast grid_dims before any other field, and the >= 1
    # checks, grid_dims' among them in their wording, come right after
    # num_planes'.  With several bad values the message is the reference's
    # for one of them alone.
    alone = [outcome(config_reference.pipeline_config, dict(BASE, **{name: v}))
             for name, v in changes]
    reworded = [m.replace("grid_dims must be three sizes >= 1", "grid_dims must be >= 1")
                for m in alone if isinstance(m, str)]
    assert ours == theirs or ours in reworded, f"{changes}: {ours}"


@settings(max_examples=200, deadline=None)
@given(changes=CHANGES)
def test_listing_written_and_read_as_the_reference_does(changes):
    # A listing of the drawn values, accepted or not, reads back as the
    # reference reads it when each line holds as many values as its field
    # takes; a config the constructor accepts is written as the reference
    # writes it, and reads back to itself, types included.
    kwargs = dict(BASE, **dict(changes))
    text = _listing(kwargs)
    wrong = {name for name, v in changes if len(_written(v)) != len(_written(DEFAULTS[name]))}
    if wrong:
        # Rejected, naming the line of a value the reader rejects on its own,
        # as it rejects each value of the wrong count.
        alone = {name for name, v in changes
                 if isinstance(outcome(config_from_text, _listing(dict(BASE, **{name: v}))), str)}
        message = outcome(config_from_text, text)
        line = re.match(r"ValueError: line (\d+): ", str(message))
        assert line, f"{changes}: {message}"
        key = text.splitlines()[int(line[1]) - 1].partition("=")[0]
        assert wrong <= alone and key in alone and re.search(rf"\b{key}\b", message), message
        return
    assert outcome(config_from_text, text) == outcome(config_reference.config_from_text, text)
    try:
        config = PipelineConfig(**kwargs)
    except ValueError:
        return
    assert config_to_text(config) == config_reference.config_to_text(config)
    assert _typed(config_from_text(config_to_text(config))) == _typed(config)
