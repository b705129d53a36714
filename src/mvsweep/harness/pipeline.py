"""End-to-end driver: scene directory in, per-view depth probability volumes,
voxel feature volume, extracted boxes and a metrics report out."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from mvsweep.camera import DOWNSAMPLE, nearest_views
from mvsweep.costvol import (
    block_mean,
    build_cost_volume,
    cost_to_probability,
    eval_depth,
    extract_features,
    regress_depth,
    require_finite,
)
from mvsweep.harness.boxes import Box3D, extract_boxes, iou3d
from mvsweep.harness.config import MAX_VOXELS, PipelineConfig
from mvsweep.harness import formats
from mvsweep.sampling import VoxelGrid, build_volume, sample_topk
from mvsweep import scenegen
# build_splats is not called here; perfbench/spans.py wraps
# `pipeline.build_splats` by name.
from mvsweep.splat import (
    GaussianSplatSet,
    build_splats,
    check_sigma_bound,
    refine_probability_volume,
)


@dataclass
class SceneData:
    """A checked scene directory: cameras and boxes parsed, and each view's
    image and ground-truth depth known by path, their headers checked
    against its camera.  No pixel is held: each decode is fresh, so the
    caller decides how long the pixels live."""

    views: list
    image_paths: list[str]
    depth_paths: list[str] | None
    gt_boxes: list[Box3D] | None

    def gt_depth(self, i: int) -> np.ndarray:
        """View i's ground-truth depth; a non-finite value is a ValueError
        naming the file."""
        return _load_depth(self.depth_paths[i], "ground-truth depth")


def _check_depth_raster(path, view, scale: int) -> None:
    """Raise a ValueError naming `path` unless its header declares a
    one-channel raster on `view`'s 1/scale grid."""
    _, w, h = view.scaled(scale)
    rows, cols, ch = formats.raster_shape(path)
    if (rows, cols, ch) != (h, w, 1):
        raise ValueError(f"{path}: depth raster is {cols}x{rows}x{ch} but the camera listing "
                         f"says {w}x{h}x1 at 1/{scale} resolution (width x height x channels)")


def _load_depth(path, what: str) -> np.ndarray:
    """The one channel of the depth raster at `path`; a non-finite value is a
    ValueError naming the file and `what`."""
    depth = formats.load_raster(path)[..., 0]
    require_finite(depth, f"{path}: {what}")
    return depth


@dataclass
class PipelineResult:
    view_indices: list[int]  # original indices of the detection views
    prob_volumes: list[np.ndarray]
    depth_maps: list[np.ndarray]
    volume: VoxelGrid
    boxes: list[Box3D]
    metrics: dict[str, float]
    loss_trace: list[float] | None = None
    splats: GaussianSplatSet | None = None


def write_scene(scene_dir, spec, views) -> None:
    """Write a scene directory: the scene listing, and the cameras,
    ground-truth boxes and each view's ray-cast image and depth raster that
    load_scene reads."""
    os.makedirs(scene_dir, exist_ok=True)
    formats.save_scene(os.path.join(scene_dir, "scene.txt"), spec)
    formats.save_cameras(os.path.join(scene_dir, "cameras.txt"), views)
    formats.save_boxes(
        os.path.join(scene_dir, "boxes.txt"), [Box3D.from_corners(b.lo, b.hi) for b in spec.boxes]
    )
    for i, view in enumerate(views):
        gt = scenegen.raycast(spec, view)
        formats.save_ppm(os.path.join(scene_dir, f"view_{i:03d}.ppm"), gt.image)
        formats.save_raster(os.path.join(scene_dir, f"depth_{i:03d}.mvsr"), gt.depth)


def load_scene(scene_dir) -> SceneData:
    """Read cameras and (optionally) ground-truth boxes, and check each
    view's image and (optional) ground-truth depth raster from its header:
    its size against the camera, a depth raster's one channel, and that the
    file holds exactly the payload its header declares.  No pixel is
    decoded here; see SceneData.  The scene listing `scene.txt` is not
    read: nothing that runs on a scene uses it.

    Raises errors naming the offending file when anything required is
    missing or malformed.
    """
    cam_path = os.path.join(scene_dir, "cameras.txt")
    if not os.path.exists(cam_path):
        raise FileNotFoundError(f"scene is missing its camera listing: {cam_path}")
    views = formats.load_cameras(cam_path)

    image_paths = []
    for i, view in enumerate(views):
        img_path = os.path.join(scene_dir, f"view_{i:03d}.ppm")
        if not os.path.exists(img_path):
            raise FileNotFoundError(f"scene is missing image for view {i}: {img_path}")
        w, h = formats.ppm_size(img_path)
        if (w, h) != (view.width, view.height):
            raise ValueError(
                f"{img_path}: image is {w}x{h} but the camera "
                f"listing says {view.width}x{view.height}"
            )
        image_paths.append(img_path)

    depth_paths = None
    depth0 = os.path.join(scene_dir, "depth_000.mvsr")
    if os.path.exists(depth0):
        depth_paths = []
        for i, view in enumerate(views):
            dpath = os.path.join(scene_dir, f"depth_{i:03d}.mvsr")
            if not os.path.exists(dpath):
                raise FileNotFoundError(f"scene has depth_000.mvsr but is missing {dpath}")
            _check_depth_raster(dpath, view, 1)
            depth_paths.append(dpath)

    gt_boxes = None
    boxes_path = os.path.join(scene_dir, "boxes.txt")
    if os.path.exists(boxes_path):
        gt_boxes = formats.load_boxes(boxes_path)

    return SceneData(views=views, image_paths=image_paths, depth_paths=depth_paths,
                     gt_boxes=gt_boxes)


def holdout_novel_indices(n_views: int, n_novel: int) -> list[int]:
    """Evenly spaced interior view indices held out as novel render targets."""
    if n_novel >= n_views - 1:
        raise ValueError(f"refine_novel_views={n_novel} would leave fewer than one detection "
                         f"view of {n_views}")
    return [round((j + 1) * n_views / (n_novel + 1)) for j in range(n_novel)]


def _depth_metrics(config, views, gt_depths, ref_index, src_indices, depth_map):
    """The DepthMetrics of one detection view's depth map over the pixels
    whose ground truth lies in the plane range and is seen by its sources,
    or None when there is no such pixel."""
    gt_q = scenegen.quarter_depth(gt_depths[ref_index])
    cover = scenegen.multiview_coverage(views, gt_depths, ref_index, src_indices)
    mask = (
        (gt_q >= config.depth_min)
        & (gt_q <= config.depth_max)
        & (cover >= min(2, len(src_indices)))
    )
    return eval_depth(depth_map, gt_q, mask) if mask.any() else None


def _detection_sources(views, det_idx: list[int], source_views: int) -> dict[int, list[int]]:
    """Plane-sweep sources of each detection view: its nearest other
    detection views, never a held-out novel view."""
    det_views = [views[i] for i in det_idx]
    n_src = min(source_views, len(det_idx) - 1)
    return {
        i: [det_idx[p] for p in nearest_views(det_views, det_views[pos], n_src, exclude=pos)]
        for pos, i in enumerate(det_idx)
    }


def _scene_metrics(config, scene: SceneData, sources, depth_maps, boxes,
                   loss_trace) -> dict[str, float]:
    """Depth metrics of every detection view and their mean, then box
    metrics when boxes are given, then the first and last refinement loss
    when a loss trace is."""
    metrics: dict[str, float] = {}
    if scene.depth_paths is not None:
        # Decoded for scoring and dropped after it; every source is a scored
        # detection view too.
        gt_depths = {i: scene.gt_depth(i) for i in depth_maps}
        rmses = []
        for i, depth_map in depth_maps.items():
            m = _depth_metrics(config, scene.views, gt_depths, i, sources[i], depth_map)
            if m is not None:
                metrics[f"depth_rmse_view{i}"] = m.rmse
                metrics[f"depth_absrel_view{i}"] = m.abs_rel
                rmses.append(m.rmse)
        if rmses:
            metrics["depth_rmse_mean"] = float(np.mean(rmses))
    if boxes is not None:
        if scene.gt_boxes is not None:
            for j, gt_box in enumerate(scene.gt_boxes):
                metrics[f"box{j}_best_iou"] = max((iou3d(gt_box, b) for b in boxes), default=0.0)
        metrics["n_boxes"] = float(len(boxes))
    if loss_trace:
        metrics["refine_loss_initial"] = loss_trace[0]
        metrics["refine_loss_final"] = loss_trace[-1]
    return metrics


def _check_scale(config: PipelineConfig, views, refine: bool) -> None:
    """Raise a ValueError naming the field when the config asks the scene's
    cameras for a sweep above MAX_VOXELS cells per view, or, when refining,
    for splats at depths up to depth_max whose sigmas break the splat
    layer's bound."""
    _, gw, gh = max(views, key=lambda v: v.width * v.height).scaled(DOWNSAMPLE)
    if config.num_planes * gw * gh > MAX_VOXELS:
        raise ValueError(f"num_planes={config.num_planes} on a {gw}x{gh} quarter grid gives "
                         f"{config.num_planes * gw * gh} sweep cells, more than {MAX_VOXELS}")
    if refine:
        for view in views:
            check_sigma_bound(view, config.splat_footprint, config.depth_max, "splat_footprint")


def run_pipeline(scene_dir, config: PipelineConfig, out_dir=None, refine: bool = False) -> PipelineResult:
    """Full sweep: features, per-view cost and probability volumes, top-k
    proposals, depth-gated voxel aggregation and box extraction; optionally a
    splat-refinement stage on held-out novel views first.

    When out_dir is given, writes per-view probability and depth rasters, the
    voxel volume, boxes and a metrics report (plus the refined splats and the
    loss trace when refining).  Identical inputs produce byte-identical
    outputs.
    """
    scene = load_scene(scene_dir)
    views = scene.views
    n = len(views)
    if n < 2:
        raise ValueError("need at least two views")
    _check_scale(config, views, refine)
    planes = config.planes()

    novel_idx = holdout_novel_indices(n, config.refine_novel_views) if refine else []
    det_idx = [i for i in range(n) if i not in novel_idx]

    # Each image is decoded where it is used and dropped right after, so at
    # most one full-res image is alive at a time.
    features = {i: extract_features(formats.load_ppm(scene.image_paths[i])) for i in det_idx}

    # Per-reference plane sweep over its nearest detection-view sources.
    det_views = [views[i] for i in det_idx]
    volumes = {}
    sources = _detection_sources(views, det_idx, config.source_views)
    for i in det_idx:
        vol = build_cost_volume(
            features[i],
            views[i],
            [features[j] for j in sources[i]],
            [views[j] for j in sources[i]],
            planes,
            cost_penalty=config.cost_penalty,
        )
        volumes[i] = cost_to_probability(vol, temperature=config.temperature)

    loss_trace = splats = None
    if refine:
        selected: set[int] = set()
        for nv in novel_idx:
            picks = nearest_views(det_views, views[nv], min(config.novel_source_views, len(det_views)))
            selected.update(det_idx[p] for p in picks)
        refined_views = sorted(selected)
        # The volumes are popped, not kept here: refinement drops them once
        # it has the logits, and the refined volumes take their place.  It
        # reads quarter-res colours only: a refined view's are its features'
        # first three channels (the block mean of its image, to the bit), a
        # novel view's the block mean of its image, decoded here.
        refined = refine_probability_volume(
            [volumes.pop(i) for i in refined_views],
            planes,
            [views[i] for i in refined_views],
            [features[i][..., :3] for i in refined_views],
            [views[i] for i in novel_idx],
            [block_mean(formats.load_ppm(scene.image_paths[i])) for i in novel_idx],
            steps=config.refine_steps,
            step_size=config.refine_step_size,
            footprint_scale=config.splat_footprint,
        )
        volumes.update(zip(refined_views, refined.volumes))
        loss_trace, splats = refined.loss_trace, refined.splats
        # The refinement numbers its sources by position; the artifact by view.
        splats.source_view = np.asarray(refined_views)[splats.source_view]

    depth_maps = {i: regress_depth(volumes[i], planes) for i in det_idx}
    proposals = {i: sample_topk(volumes[i], planes, config.top_k) for i in det_idx}
    grid = build_volume(
        [(features[i], views[i], proposals[i]) for i in det_idx],
        config.grid_spec(),
        window=config.match_window,
    )
    # Nothing reads the descriptors or the proposals after aggregation.
    del features, proposals
    boxes = extract_boxes(grid, config.box_threshold, config.min_component)

    metrics = _scene_metrics(config, scene, sources, depth_maps, boxes, loss_trace)

    result = PipelineResult(
        view_indices=det_idx,
        prob_volumes=[volumes[i] for i in det_idx],
        depth_maps=[depth_maps[i] for i in det_idx],
        volume=grid,
        boxes=boxes,
        metrics=metrics,
        loss_trace=loss_trace,
        splats=splats,
    )
    if out_dir is not None:
        write_artifacts(out_dir, result)
    return result


def write_artifacts(out_dir, result: PipelineResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, (probs, depth) in zip(result.view_indices, zip(result.prob_volumes, result.depth_maps)):
        formats.save_raster(os.path.join(out_dir, f"prob_{i:03d}.mvsr"), probs)
        formats.save_raster(os.path.join(out_dir, f"depth_{i:03d}.mvsr"), depth)
    formats.save_volume(os.path.join(out_dir, "volume.mvsv"), result.volume)
    formats.save_boxes(os.path.join(out_dir, "boxes.txt"), result.boxes)
    formats.save_metrics(os.path.join(out_dir, "metrics.txt"), result.metrics)
    if result.loss_trace is not None:
        formats.save_metrics(
            os.path.join(out_dir, "loss_trace.txt"),
            {f"step{k}": v for k, v in enumerate(result.loss_trace)},
        )
    if result.splats is not None:
        formats.save_splats(os.path.join(out_dir, "splats.mvsg"), result.splats)


def evaluate_outputs(scene_dir, results_dir, config: PipelineConfig) -> dict[str, float]:
    """Recompute depth, box and refinement-loss metrics from serialized
    pipeline outputs.

    The detection views are those with a written depth raster, and each
    one's sources are picked among them as run_pipeline picks them.  Depth
    is scored as stored, in float32.  A `results_dir` that is missing or
    holds no depth raster is a FileNotFoundError that names it; a depth
    raster off its view's quarter grid, with more than one channel or with a
    non-finite value is a ValueError that names the file.
    """
    scene = load_scene(scene_dir)
    views = scene.views
    depth_paths = {i: os.path.join(results_dir, f"depth_{i:03d}.mvsr") for i in range(len(views))}
    det_idx = [i for i, path in depth_paths.items() if os.path.exists(path)]
    if not det_idx:
        raise FileNotFoundError(f"{results_dir}: no depth_XXX.mvsr raster of a pipeline run")
    for i in det_idx:
        _check_depth_raster(depth_paths[i], views[i], DOWNSAMPLE)
    depth_maps = {i: _load_depth(depth_paths[i], "depth") for i in det_idx}
    sources = _detection_sources(views, det_idx, config.source_views)
    boxes_path = os.path.join(results_dir, "boxes.txt")
    boxes = formats.load_boxes(boxes_path) if os.path.exists(boxes_path) else None
    trace_path = os.path.join(results_dir, "loss_trace.txt")
    loss_trace = list(formats.load_metrics(trace_path).values()) if os.path.exists(trace_path) else None
    return _scene_metrics(config, scene, sources, depth_maps, boxes, loss_trace)
