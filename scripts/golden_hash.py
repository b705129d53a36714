#!/usr/bin/env python3
"""Golden digests of a pipeline run, of a refining run and of a scene.

Generates the scene of acceptance criterion 12 for the given seed (1 box,
3 views at 128x96), writes it once to a temporary directory, runs the
detection pipeline on it with criterion 12's config, and prints the SHA-256
over every file the run writes to its output directory.  The second line is
the same digest for a refining run on that scene: one held-out novel view
and 4 refinement steps.  The third is the digest of the scene directory
itself, and the fourth the SHA-256 over the float64 depth and image bytes of
every ray-cast view of that scene, which the scene files keep only as f32
depth and 8-bit images.  A change that claims to keep behaviour fixed must keep all four
digests; `tests/test_pipeline.py` pins them for seed 5, one row per SIMD
class.  A last line names the numpy version, the SIMD class and the SIMD
extensions numpy found on this CPU (the `found` list of
`np.show_runtime()`): the pinned bytes hold for one numpy version on one
SIMD class, so a mismatch is traced to its class from it.  When standard
output is closed before every line is written (`| head -4`, say), the
script stops there without a traceback, with exit status 1.

    PYTHONPATH=src python scripts/golden_hash.py --seed 5
"""

import argparse
import dataclasses
import hashlib
import os
import platform
import sys
import tempfile

import numpy as np

from mvsweep.harness.config import PipelineConfig
from mvsweep.harness.pipeline import run_pipeline, write_scene
from mvsweep.scenegen import generate_scene, make_trajectory, raycast


def output_digest(out_dir) -> str:
    """SHA-256 over the files of a directory in name order: each file adds
    its name, a NUL byte, its size and a NUL byte, then its bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# Criterion 12's pipeline config.
CONFIG = PipelineConfig(grid_dims=(16, 16, 8), grid_pitch=(0.4, 0.4, 0.4), min_component=2)


def digests(seed: int, workdir):
    """Yield criterion 12's four digests for `seed`, each as soon as it is
    known: its scene (1 box, 3 views at 128x96) is generated once and written
    to `workdir/scene`, then the digests of a run's outputs, of a refining
    run's outputs (one held-out novel view, 4 steps), of the scene directory,
    and the SHA-256 over the float64 depth bytes, then the image bytes, of
    each `raycast` view in view order."""
    scene = generate_scene(seed=seed, n_boxes=1)
    views = make_trajectory(scene, 3, seed=seed, image_size=(128, 96))
    scene_dir = os.path.join(workdir, "scene")
    write_scene(scene_dir, scene, views)
    run_pipeline(scene_dir, CONFIG, out_dir=os.path.join(workdir, "out"))
    yield output_digest(os.path.join(workdir, "out"))
    config = dataclasses.replace(CONFIG, refine_novel_views=1, refine_steps=4)
    run_pipeline(scene_dir, config, out_dir=os.path.join(workdir, "refine"), refine=True)
    yield output_digest(os.path.join(workdir, "refine"))
    yield output_digest(scene_dir)
    h = hashlib.sha256()
    for view in views:
        gt = raycast(scene, view)
        h.update(gt.depth.tobytes())
        h.update(gt.image.tobytes())
    yield h.hexdigest()


def simd_found() -> list[str]:
    """The SIMD extensions numpy dispatches to on this CPU: the `found` list
    of `np.show_runtime()`, after any `NPY_DISABLE_CPU_FEATURES`."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [f for f in __cpu_dispatch__ if __cpu_features__[f]]


def simd_class(found: list[str]) -> str:
    """The class of numpy kernels a `found` list selects.  On x86-64 numpy's
    AVX-512 kernels give other last bits than its AVX2 ones, and its baseline
    kernels give the AVX2 bits; other machines are named by their list."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"{platform.machine()} {' '.join(found) or 'baseline'}"
    return "AVX-512" if "X86_V4" in found else "AVX2" if "X86_V3" in found else "baseline"


def runtime_line() -> str:
    """The numpy version, the SIMD class and the SIMD extensions numpy
    dispatches to on this CPU."""
    found = simd_found()
    return (f"numpy {np.__version__} simd class {simd_class(found)} "
            f"found: {' '.join(found) or 'none'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for digest in digests(args.seed, tmp):
            print(digest)
    print(runtime_line())


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # Standard output was closed early: drop what is left, the flush at
        # exit included.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
