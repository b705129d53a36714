"""Pipeline configuration and its flat key=value text form."""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields

from mvsweep.costvol import DepthPlanes
from mvsweep.harness.formats import _blame, _records, load_text, save_text
from mvsweep.sampling import VoxelGridSpec

# The largest voxel grid a config may ask for; its (nx, ny, nz, 3) centers
# alone take 400 MB.
MAX_VOXELS = 1 << 24
# The largest magnitude of every float field: plane depths and grid extents
# in meters far beyond any scene, yet shallow enough that the splats placed
# on the planes stay inside the splat loader's 1e10 bound; and every scale.
MAX_MAGNITUDE = 1e6
# The smallest value of every field that must be positive: with
# cost_penalty <= MAX_MAGNITUDE, tempered scores stay far from overflow.
MIN_POSITIVE = 1.0 / MAX_MAGNITUDE
# The most refinement steps a config may ask for; the loss trace holds one
# more entry.
MAX_REFINE_STEPS = 10_000


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
        for f in fields(self):
            setattr(self, f.name, _shaped(f, getattr(self, f.name)))
        if self.num_planes < 2:
            raise ValueError("num_planes must be >= 2")
        for name in ("grid_dims", "source_views", "refine_steps", "refine_novel_views",
                     "novel_source_views", "min_component"):
            if min(_values(getattr(self, name))) < 1:
                raise ValueError(f"{name} must be >= 1")
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
        if self.refine_steps > MAX_REFINE_STEPS:
            raise ValueError(f"refine_steps must be at most {MAX_REFINE_STEPS}")
        if not 0.0 < self.box_threshold <= 1.0:
            raise ValueError("box_threshold must lie in (0, 1]")

    def planes(self) -> DepthPlanes:
        return DepthPlanes.uniform(self.num_planes, self.depth_min, self.depth_max)

    def grid_spec(self) -> VoxelGridSpec:
        return VoxelGridSpec(self.grid_dims, self.grid_origin, self.grid_pitch)


def _shaped(f, value):
    """value cast to the shape and item type of its field's default.  A
    tuple field takes exactly three items, from a tuple or a list, and holds
    a tuple; a scalar field takes one value.  An int item goes through
    _integral; a float item must be a real number of magnitude at most
    MAX_MAGNITUDE and is held as a float.  Anything else is a ValueError
    naming the field."""
    many = isinstance(f.default, tuple)
    if isinstance(value, (tuple, list)) != many or (many and len(value) != 3):
        raise ValueError(f"{f.name} takes {'three values' if many else 'one value'}, got {value!r}")
    items = tuple(value) if many else (value,)
    kind = _item_type(f)
    if kind is float and not all(isinstance(v, numbers.Real) and abs(v) <= MAX_MAGNITUDE
                                 for v in items):
        raise ValueError(f"{f.name} must be finite and at most {MAX_MAGNITUDE:g} in magnitude, "
                         f"got {value!r}")
    items = tuple(float(v) if kind is float else _integral(f.name, v) for v in items)
    return items if many else items[0]


def _integral(name: str, value) -> int:
    """value as an int, or a ValueError naming the field when it is not a
    whole number (2.5, inf, NaN, "3")."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return whole


def _values(value) -> tuple:
    """A field's value as a tuple: a tuple field's items, or the value alone."""
    return value if isinstance(value, tuple) else (value,)


def _item_type(f):
    """The type of a field's value, or of each of its items for a tuple
    field: that of its default's.  Every default is a literal int, float or
    tuple of three of one of these."""
    return type(f.default[0] if isinstance(f.default, tuple) else f.default)


def config_to_text(config: PipelineConfig) -> str:
    """Flat key=value listing, one field per line, full float precision; a
    tuple field's items are comma-separated."""
    lines = [f"{f.name}={','.join(repr(v) for v in _values(getattr(config, f.name)))}"
             for f in fields(config)]
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> PipelineConfig:
    """Parse a key=value listing, read as the other text records are: blank
    lines are skipped, each line is stripped, and `#` lines are comments.
    Unknown and duplicate keys are errors, and every error names its line."""
    known = {f.name: f for f in fields(PipelineConfig)}
    values, line_of = {}, {}
    for ln, line in _records(text):
        if line.startswith("#"):
            continue
        with _blame(f"line {ln}"):
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if key in values:
                raise ValueError(f"duplicate config key {key!r}")
            # Integers parse as int(token), as config_to_text writes them;
            # the constructor decides whether the count of tokens fits.
            cast = _item_type(known[key])
            try:
                items = tuple(cast(p) for p in val.split(","))
            except ValueError:
                raise ValueError(f"{key}={val!r} is not a valid {cast.__name__}") from None
            values[key] = items if len(items) > 1 else items[0]
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
