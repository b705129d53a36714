"""Reference oracle for `mvsweep.harness.config`: the constructor's casts
and checks with the grid fields cast by hand and an int/tuple branch in the
field loop; the writer with one branch for a tuple field and one for a
scalar; and the reader with its own line loop, each raise site spelling out
the line it names.

It is the yardstick, byte for byte and message for message, for the
engine's writer and reader, which read the listing through the text-record
reader of `mvsweep.harness.formats` and name the line in one place, and,
on values of their fields' shapes, for the engine's constructor, which
shapes every field by one rule read from its default.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields

from mvsweep.harness.config import (
    MAX_MAGNITUDE,
    MAX_REFINE_STEPS,
    MAX_VOXELS,
    MIN_POSITIVE,
    PipelineConfig,
)


def _parse_type(f):
    return type(f.default[0] if isinstance(f.default, tuple) else f.default)


def _integral(name, value):
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return whole


def _values(value):
    return value if isinstance(value, tuple) else (value,)


def pipeline_config(kwargs: dict) -> PipelineConfig:
    """PipelineConfig(**kwargs), cast and checked as the reference
    constructor does: the grid fields cast by hand, a float field given an
    int keeping the int, and the checks in the order below."""
    self = object.__new__(PipelineConfig)
    for f in fields(PipelineConfig):
        setattr(self, f.name, kwargs.get(f.name, f.default))
    self.grid_dims = tuple(_integral("grid_dims", v) for v in self.grid_dims)
    self.grid_pitch = tuple(float(v) for v in self.grid_pitch)
    self.grid_origin = tuple(float(v) for v in self.grid_origin)
    for f in fields(self):
        value = getattr(self, f.name)
        if _parse_type(f) is int:
            if not isinstance(value, tuple):
                setattr(self, f.name, _integral(f.name, value))
            continue
        if not all(abs(v) <= MAX_MAGNITUDE for v in _values(value)):
            raise ValueError(f"{f.name} must be finite and at most {MAX_MAGNITUDE:g} "
                             f"in magnitude, got {value!r}")
    if self.num_planes < 2:
        raise ValueError("num_planes must be >= 2")
    if len(self.grid_dims) != 3 or min(self.grid_dims) < 1:
        raise ValueError("grid_dims must be three sizes >= 1")
    voxels = math.prod(self.grid_dims)
    if voxels > MAX_VOXELS:
        raise ValueError(f"grid_dims {self.grid_dims} give {voxels} voxels, more than {MAX_VOXELS}")
    if not (1 <= self.top_k <= self.num_planes):
        raise ValueError("top_k must lie in [1, num_planes]")
    if not 0.0 < self.depth_min < self.depth_max:
        raise ValueError("need 0 < depth_min < depth_max")
    for name in ("match_window", "temperature", "cost_penalty", "splat_footprint",
                 "refine_step_size", "grid_pitch"):
        if not min(_values(getattr(self, name))) >= MIN_POSITIVE:
            raise ValueError(f"{name} must be positive, at least {MIN_POSITIVE:g}")
    for name in ("source_views", "refine_steps", "refine_novel_views",
                 "novel_source_views", "min_component"):
        if getattr(self, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    if self.refine_steps > MAX_REFINE_STEPS:
        raise ValueError(f"refine_steps must be at most {MAX_REFINE_STEPS}")
    if not 0.0 < self.box_threshold <= 1.0:
        raise ValueError("box_threshold must lie in (0, 1]")
    return self


def config_to_text(config: PipelineConfig) -> str:
    lines = []
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            lines.append(f"{f.name}={','.join(repr(x) for x in v)}")
        else:
            lines.append(f"{f.name}={v!r}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> PipelineConfig:
    known = {f.name: f for f in fields(PipelineConfig)}
    values, line_of = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise ValueError(f"line {ln}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {ln}: duplicate config key {key!r}")
        cast = _parse_type(known[key])
        try:
            if isinstance(known[key].default, tuple):
                values[key] = tuple(cast(p) for p in val.split(","))
            else:
                values[key] = cast(val)
        except ValueError:
            raise ValueError(f"line {ln}: {key}={val!r} is not a valid {cast.__name__}") from None
        line_of[key] = ln
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        named = [line_of[w] for w in re.findall(r"\w+", str(exc)) if w in line_of]
        if not named:
            raise
        raise ValueError(f"line {named[0]}: {exc}") from None


def outcome(parse, text):
    """parse(text), or the message of the ValueError it raises, for holding
    a reader's or a constructor's results and messages to this module's."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"
