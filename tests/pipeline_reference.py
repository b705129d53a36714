"""Reference oracle for scene loading: an eager loader that decodes every
view's image and every ground-truth depth raster up front, each with its own
copy of the decoders (two full-size float64 arrays per image); and the
held-out view indices as clamped and de-duplicated rounded positions.

It holds a whole scene's pixels at once, and serves only as the yardstick
the tests hold `mvsweep.harness.pipeline.load_scene` and its per-view
decoding, and `holdout_novel_indices`, against.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from mvsweep.harness import formats


def load_ppm(path) -> np.ndarray:
    """A P6 PPM as float64 in [0, 1]."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P6":
            raise ValueError(f"{path}: not a P6 PPM")
        dims = fh.readline().split()
        while dims and dims[0].startswith(b"#"):
            dims = fh.readline().split()
        w, h = (int(d) for d in dims)
        if int(fh.readline()) != 255:
            raise ValueError(f"{path}: only 8-bit PPM supported")
        raw = fh.read(w * h * 3)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).astype(np.float64) / 255.0


def load_raster(path) -> np.ndarray:
    """An MVSR raster as (rows, cols, channels) float64."""
    with open(path, "rb") as fh:
        if fh.read(4) != formats.MAGIC_RASTER:
            raise ValueError(f"{path}: bad raster magic")
        rows, cols, ch = struct.unpack("<III", fh.read(12))
        raw = fh.read(rows * cols * ch * 4)
    return np.frombuffer(raw, dtype="<f4").reshape(rows, cols, ch).astype(np.float64)


@dataclass
class EagerScene:
    views: list
    images: list[np.ndarray]
    gt_depths: list[np.ndarray] | None
    gt_boxes: list | None
    spec: object | None


def load_scene(scene_dir) -> EagerScene:
    """Cameras, every decoded image, and (optionally) every decoded
    ground-truth depth raster, the boxes and the scene listing."""
    cam_path = os.path.join(scene_dir, "cameras.txt")
    if not os.path.exists(cam_path):
        raise FileNotFoundError(f"scene is missing its camera listing: {cam_path}")
    views = formats.load_cameras(cam_path)

    images = []
    for i in range(len(views)):
        img_path = os.path.join(scene_dir, f"view_{i:03d}.ppm")
        if not os.path.exists(img_path):
            raise FileNotFoundError(f"scene is missing image for view {i}: {img_path}")
        img = load_ppm(img_path)
        if img.shape[:2] != (views[i].height, views[i].width):
            raise ValueError(
                f"{img_path}: image is {img.shape[1]}x{img.shape[0]} but the camera "
                f"listing says {views[i].width}x{views[i].height}"
            )
        images.append(img)

    gt_depths = None
    depth0 = os.path.join(scene_dir, "depth_000.mvsr")
    if os.path.exists(depth0):
        gt_depths = []
        for i in range(len(views)):
            dpath = os.path.join(scene_dir, f"depth_{i:03d}.mvsr")
            if not os.path.exists(dpath):
                raise FileNotFoundError(f"scene has depth_000.mvsr but is missing {dpath}")
            gt_depths.append(load_raster(dpath)[..., 0])

    gt_boxes = None
    boxes_path = os.path.join(scene_dir, "boxes.txt")
    if os.path.exists(boxes_path):
        gt_boxes = formats.load_boxes(boxes_path)

    spec = None
    spec_path = os.path.join(scene_dir, "scene.txt")
    if os.path.exists(spec_path):
        spec = formats.load_scene_spec(spec_path)

    return EagerScene(views=views, images=images, gt_depths=gt_depths, gt_boxes=gt_boxes,
                      spec=spec)


def holdout_novel_indices(n_views: int, n_novel: int) -> list[int]:
    """Evenly spaced interior view indices held out as novel render targets."""
    if n_novel >= n_views - 1:
        raise ValueError("holdout would leave fewer than one detection view")
    idx = sorted({int(round((j + 1) * n_views / (n_novel + 1))) for j in range(n_novel)})
    return [min(i, n_views - 1) for i in idx]
