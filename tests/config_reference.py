"""Reference oracle for the config listing of `mvsweep.harness.config`: the
writer with one branch for a tuple field and one for a scalar, and the
reader with its own line loop, each raise site spelling out the line it
names.

It is the yardstick, byte for byte and message for message, for the
engine's writer and reader, which read the listing through the text-record
reader of `mvsweep.harness.formats` and name the line in one place.
"""

from __future__ import annotations

import re
from dataclasses import fields

from mvsweep.harness.config import PipelineConfig


def _parse_type(f):
    return type(f.default[0] if isinstance(f.default, tuple) else f.default)


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
    a reader's results and messages to this one's."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"
