"""Pipeline configuration and its flat key=value text form."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from mvsweep.costvol import DepthPlanes
from mvsweep.harness.formats import load_text, save_text
from mvsweep.sampling import VoxelGridSpec


@dataclass
class PipelineConfig:
    """Every tunable of the end-to-end pipeline.

    The sweep defaults follow the standard working point: 12 uniform planes
    over [0.2, 5] m, 3 depth proposals, a +-0.2 m match window, 2 source
    views per reference, a 40x40x16 voxel grid at 0.16 x 0.16 x 0.2 m pitch,
    and 3 nearby sources per novel view.  The softmax temperature default is
    calibrated to the 6-channel descriptor's variance scale.
    """

    num_planes: int = 12
    depth_min: float = 0.2
    depth_max: float = 5.0
    top_k: int = 3
    match_window: float = 0.2
    temperature: float = 5e-4
    cost_penalty: float = 10.0
    source_views: int = 2
    grid_dims: tuple[int, int, int] = (40, 40, 16)
    grid_pitch: tuple[float, float, float] = (0.16, 0.16, 0.2)
    grid_origin: tuple[float, float, float] = (-3.2, -3.2, 0.0)
    splat_footprint: float = 1.0
    refine_steps: int = 30
    refine_step_size: float = 6.0
    refine_novel_views: int = 2
    novel_source_views: int = 3
    box_threshold: float = 0.5
    min_component: int = 4

    def __post_init__(self):
        self.grid_dims = tuple(int(v) for v in self.grid_dims)
        self.grid_pitch = tuple(float(v) for v in self.grid_pitch)
        self.grid_origin = tuple(float(v) for v in self.grid_origin)
        for f in fields(self):
            if _parse_type(f) is int:
                continue
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{f.name} must be finite")
        if self.num_planes < 2:
            raise ValueError("num_planes must be >= 2")
        if len(self.grid_dims) != 3 or min(self.grid_dims) < 1:
            raise ValueError("grid_dims must be three sizes >= 1")
        if not (1 <= self.top_k <= self.num_planes):
            raise ValueError("top_k must lie in [1, num_planes]")
        if not 0.0 < self.depth_min < self.depth_max:
            raise ValueError("need 0 < depth_min < depth_max")
        for name in ("match_window", "temperature", "cost_penalty", "splat_footprint",
                     "refine_step_size"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("source_views", "refine_steps", "refine_novel_views",
                     "novel_source_views", "min_component"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.box_threshold <= 1.0:
            raise ValueError("box_threshold must lie in (0, 1]")

    def planes(self) -> DepthPlanes:
        return DepthPlanes.uniform(self.num_planes, self.depth_min, self.depth_max)

    def grid_spec(self) -> VoxelGridSpec:
        return VoxelGridSpec(self.grid_dims, self.grid_origin, self.grid_pitch)


def _parse_type(f):
    """The type a field's text value parses to: that of its default, or of
    the default's items for a tuple field.  Every default is a literal int,
    float or tuple of one of these."""
    return type(f.default[0] if isinstance(f.default, tuple) else f.default)


def config_to_text(config: PipelineConfig) -> str:
    """Flat key=value listing, one field per line, full float precision."""
    lines = []
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            lines.append(f"{f.name}={','.join(repr(x) for x in v)}")
        else:
            lines.append(f"{f.name}={v!r}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> PipelineConfig:
    """Parse a key=value listing; unknown keys are errors."""
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
        # Integers parse as int(token), as config_to_text writes them.
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
        # Blame the line of the first field the message names that the text set.
        named = [line_of[w] for w in re.findall(r"\w+", str(exc)) if w in line_of]
        if not named:
            raise
        raise ValueError(f"line {named[0]}: {exc}") from None


def save_config(path, config: PipelineConfig) -> None:
    save_text(path, config_to_text(config))


def load_config(path) -> PipelineConfig:
    return load_text(path, config_from_text)
