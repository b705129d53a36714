"""The binary loaders under corruption: a file the engine wrote, truncated at
any offset or with one byte changed in its header or its payload, either
loads or raises a ValueError that names the file.  No other exception and
no RuntimeWarning is allowed."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsweep.harness import formats
from mvsweep.sampling import VoxelGrid, VoxelGridSpec
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
        except ValueError as exc:
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
