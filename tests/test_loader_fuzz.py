"""The loaders under corruption.  A binary file the engine wrote, truncated
at any offset or with one byte changed in its header or its payload, and a
text file the engine wrote (cameras, scene listing, boxes, metrics, config),
truncated anywhere, with a token swapped for `nan`, `inf`, `-1` or `1e308`,
or with a token duplicated or deleted, either loads or raises a ValueError
(or FileNotFoundError) that names the file.  No other exception and no
RuntimeWarning is allowed.

Over the same corruptions, each loader of `mvsweep.harness.formats` loads
the same value as `formats_reference`, byte for byte, or raises the same
exception type with the same message."""

from __future__ import annotations

import dataclasses
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formats_reference
from mvsweep.harness import formats, pipeline
from mvsweep.harness.config import PipelineConfig, load_config, save_config
from mvsweep.sampling import VoxelGrid, VoxelGridSpec
from mvsweep.scenegen import generate_scene, make_trajectory
from mvsweep.splat import GaussianSplatSet


def _ppm(path):
    rng = np.random.default_rng(0)
    formats.save_ppm(path, rng.uniform(0, 1, size=(6, 8, 3)))
    return len(b"P6\n8 6\n255\n")


def _raster(path):
    formats.save_raster(path, np.random.default_rng(1).uniform(0, 5, size=(5, 4, 2)))
    return 4 + 12


def _volume(path):
    rng = np.random.default_rng(2)
    spec = VoxelGridSpec((3, 2, 2), (-1.0, -0.5, 0.0), (0.25, 0.5, 0.2))
    formats.save_volume(path, VoxelGrid(spec=spec, feature_mean=rng.uniform(0, 1, (3, 2, 2, 2)),
                                        score=rng.uniform(0, 1, (3, 2, 2)), valid_count=None))
    return 4 + 16 + 24


def _splats(path):
    rng = np.random.default_rng(3)
    n = 5
    formats.save_splats(path, GaussianSplatSet(
        means=rng.uniform(-3, 3, (n, 3)), opacities=rng.uniform(0, 1, n),
        sigmas=rng.uniform(0.01, 0.1, n), colors=rng.uniform(0, 1, (n, 3)),
        source_view=rng.integers(0, 5, n), pixel_rows=rng.integers(0, 60, n),
        pixel_cols=rng.integers(0, 80, n),
    ))
    return 4 + 4


# name: (file suffix, writer returning the header length, loader)
LOADERS = {
    "ppm": (".ppm", _ppm, formats.load_ppm),
    "raster": (".mvsr", _raster, formats.load_raster),
    "volume": (".mvsv", _volume, formats.load_volume),
    "splats": (".mvsg", _splats, formats.load_splats),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """name: (bytes the engine wrote, header length, loader, path to corrupt)."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, (suffix, write, load) in LOADERS.items():
        path = root / f"{name}{suffix}"
        header = write(path)
        load(path)  # the uncorrupted file loads
        out[name] = (path.read_bytes(), header, load, root / f"corrupt{suffix}")
    return out


def _loads_or_names_the_file(load, path, data: bytes) -> None:
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load(path)
        except (ValueError, FileNotFoundError) as exc:
            assert str(path) in str(exc)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file(originals, name, cut):
    data, _, load, path = originals[name]
    _loads_or_names_the_file(load, path, data[: int(cut * len(data))])


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), in_header=st.booleans(),
       where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_flipped_byte(originals, name, in_header, where, flip):
    data, header, load, path = originals[name]
    lo, hi = (0, header) if in_header else (header, len(data))
    at = lo + int(where * (hi - lo))
    corrupt = bytearray(data)
    corrupt[at] ^= flip
    _loads_or_names_the_file(load, path, bytes(corrupt))


# name: (file name, loader) of the text files; `text_originals` writes them.
TEXT_LOADERS = {
    "cameras": ("cameras.txt", formats.load_cameras),
    "scene": ("scene.txt", formats.load_scene_spec),
    "boxes": ("boxes.txt", formats.load_boxes),
    "metrics": ("metrics.txt", formats.load_metrics),
    "config": ("config.txt", load_config),
}
# A token of a text file: a run of characters other than whitespace and the
# config listing's `=` and `,`.
TOKEN = re.compile(r"[^\s=,]+")
SWAPS = ("nan", "inf", "-1", "1e308")


@pytest.fixture(scope="module")
def text_originals(tmp_path_factory):
    """name: (text the engine wrote, its token spans, loader, path to
    corrupt): a 3-view 64x48 scene directory, the boxes and metrics of a
    detection run on it, and the default config."""
    root = tmp_path_factory.mktemp("text_fuzz")
    scene = generate_scene(seed=7, n_boxes=2)
    pipeline.write_scene(root / "scene", scene, make_trajectory(scene, 3, seed=7,
                                                                image_size=(64, 48)))
    config = PipelineConfig(grid_dims=(16, 16, 8), grid_pitch=(0.4, 0.4, 0.4), min_component=1)
    result = pipeline.run_pipeline(root / "scene", config)
    formats.save_boxes(root / "run_boxes.txt", result.boxes)
    formats.save_metrics(root / "metrics.txt", result.metrics)
    save_config(root / "config.txt", PipelineConfig())
    written = {"cameras": root / "scene" / "cameras.txt", "scene": root / "scene" / "scene.txt",
               "boxes": root / "run_boxes.txt", "metrics": root / "metrics.txt",
               "config": root / "config.txt"}
    out = {}
    for name, (file_name, load) in TEXT_LOADERS.items():
        text = written[name].read_text()
        load(written[name])  # the uncorrupted file loads
        spans = [m.span() for m in TOKEN.finditer(text)]
        out[name] = (text, spans, load, root / f"corrupt_{file_name}")
    assert formats.load_boxes(written["boxes"])  # the run found boxes to corrupt
    return out


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(TEXT_LOADERS)), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_text(text_originals, name, cut):
    text, _, load, path = text_originals[name]
    _loads_or_names_the_file(load, path, text[: int(cut * len(text))].encode())


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(TEXT_LOADERS)), where=st.floats(0.0, 1.0, exclude_max=True),
       edit=st.sampled_from(SWAPS + ("duplicate", "delete")))
def test_edited_token(text_originals, name, where, edit):
    text, spans, load, path = text_originals[name]
    lo, hi = spans[int(where * len(spans))]
    token = {"duplicate": text[lo:hi] + " " + text[lo:hi], "delete": ""}.get(edit, edit)
    _loads_or_names_the_file(load, path, (text[:lo] + token + text[hi:]).encode())


def test_missing_text_file_names_the_path(tmp_path):
    for file_name, load in TEXT_LOADERS.values():
        with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / file_name))):
            load(tmp_path / file_name)


# The loaders held against `formats_reference` and the corpus file each one
# reads: truncations of every file, byte flips in the binary ones and token
# edits in the text ones.
BINARY_ORACLES = {"load_ppm": "ppm", "ppm_size": "ppm", "load_raster": "raster",
                  "raster_shape": "raster", "load_volume": "volume", "load_splats": "splats"}
TEXT_ORACLES = {"load_cameras": "cameras", "load_scene_spec": "scene", "load_boxes": "boxes",
                "load_metrics": "metrics"}


def _canonical(x):
    """A comparable form of a loaded value: floats and arrays by their bytes,
    so NaNs and signed zeros compare as the bits they are."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_canonical(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return tuple((k, _canonical(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__,) + tuple(_canonical(v) for v in x)
    if isinstance(x, float):
        return (type(x).__name__, struct.pack("<d", x))
    return (type(x).__name__, x)


def _outcome(load, path):
    """("value", the canonical loaded value) or (exception type, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "value", _canonical(load(path))
        except Exception as exc:  # the reference decides which are right
            return type(exc), str(exc)


def _same_as_reference(fn, path, data: bytes) -> None:
    path.write_bytes(data)
    assert _outcome(getattr(formats, fn), path) == _outcome(getattr(formats_reference, fn), path)


@settings(max_examples=200, deadline=None)
@given(fn=st.sampled_from(sorted(BINARY_ORACLES)), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file_matches_reference(originals, fn, cut):
    data, _, _, path = originals[BINARY_ORACLES[fn]]
    _same_as_reference(fn, path, data[: int(cut * len(data))])


@settings(max_examples=300, deadline=None)
@given(fn=st.sampled_from(sorted(BINARY_ORACLES)), in_header=st.booleans(),
       where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_flipped_byte_matches_reference(originals, fn, in_header, where, flip):
    data, header, _, path = originals[BINARY_ORACLES[fn]]
    lo, hi = (0, header) if in_header else (header, len(data))
    corrupt = bytearray(data)
    corrupt[lo + int(where * (hi - lo))] ^= flip
    _same_as_reference(fn, path, bytes(corrupt))


@settings(max_examples=200, deadline=None)
@given(fn=st.sampled_from(sorted(TEXT_ORACLES)), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_text_matches_reference(text_originals, fn, cut):
    text, _, _, path = text_originals[TEXT_ORACLES[fn]]
    _same_as_reference(fn, path, text[: int(cut * len(text))].encode())


@settings(max_examples=400, deadline=None)
@given(fn=st.sampled_from(sorted(TEXT_ORACLES)), where=st.floats(0.0, 1.0, exclude_max=True),
       edit=st.sampled_from(SWAPS + ("duplicate", "delete")))
def test_edited_token_matches_reference(text_originals, fn, where, edit):
    text, spans, _, path = text_originals[TEXT_ORACLES[fn]]
    lo, hi = spans[int(where * len(spans))]
    token = {"duplicate": text[lo:hi] + " " + text[lo:hi], "delete": ""}.get(edit, edit)
    _same_as_reference(fn, path, (text[:lo] + token + text[hi:]).encode())
