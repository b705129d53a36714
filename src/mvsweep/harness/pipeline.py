"""End-to-end driver: scene directory in, per-view depth probability volumes,
voxel feature volume, extracted boxes and a metrics report out."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from mvsweep.camera import nearest_views
from mvsweep.costvol import (
    block_mean,
    build_cost_volume,
    cost_to_probability,
    eval_depth,
    extract_features,
    regress_depth,
)
from mvsweep.harness.boxes import Box3D, extract_boxes, iou3d
from mvsweep.harness.config import PipelineConfig
from mvsweep.harness import formats
from mvsweep.sampling import VoxelGrid, build_volume, sample_topk
from mvsweep import scenegen
from mvsweep.splat import (
    GaussianSplatSet,
    build_splats,
    concat_splats,
    refine_probability_volume,
)


@dataclass
class SceneData:
    views: list
    images: list[np.ndarray]
    gt_depths: list[np.ndarray] | None
    gt_boxes: list[Box3D] | None
    spec: object | None


@dataclass
class PipelineResult:
    view_indices: list[int]  # original indices of the detection views
    prob_volumes: list[np.ndarray]
    depth_maps: list[np.ndarray]
    volume: VoxelGrid
    boxes: list[Box3D]
    metrics: dict[str, float]
    refined_views: list[int] | None = None
    loss_trace: list[float] | None = None
    splats: GaussianSplatSet | None = None


def write_scene(scene_dir, spec, views) -> None:
    """Write the scene directory load_scene reads: scene listing, cameras,
    ground-truth boxes, and each view's ray-cast image and depth raster."""
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
    """Read cameras, images and (optionally) ground-truth depth and boxes.

    Raises errors naming the offending file when anything required is
    missing or malformed.
    """
    cam_path = os.path.join(scene_dir, "cameras.txt")
    if not os.path.exists(cam_path):
        raise FileNotFoundError(f"scene is missing its camera listing: {cam_path}")
    views = formats.load_cameras(cam_path)

    images = []
    for i in range(len(views)):
        img_path = os.path.join(scene_dir, f"view_{i:03d}.ppm")
        if not os.path.exists(img_path):
            raise FileNotFoundError(f"scene is missing image for view {i}: {img_path}")
        img = formats.load_ppm(img_path)
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
            gt_depths.append(formats.load_raster(dpath)[..., 0])

    gt_boxes = None
    boxes_path = os.path.join(scene_dir, "boxes.txt")
    if os.path.exists(boxes_path):
        gt_boxes = formats.load_boxes(boxes_path)

    spec = None
    spec_path = os.path.join(scene_dir, "scene.txt")
    if os.path.exists(spec_path):
        spec = formats.load_scene_spec(spec_path)

    return SceneData(views=views, images=images, gt_depths=gt_depths, gt_boxes=gt_boxes, spec=spec)


def holdout_novel_indices(n_views: int, n_novel: int) -> list[int]:
    """Evenly spaced interior view indices held out as novel render targets."""
    if n_novel >= n_views - 1:
        raise ValueError("holdout would leave fewer than one detection view")
    idx = sorted({int(round((j + 1) * n_views / (n_novel + 1))) for j in range(n_novel)})
    return [min(i, n_views - 1) for i in idx]


def _depth_metrics(config, views, gt_depths, ref_index, src_indices, depth_map, metrics, tag):
    gt_q = scenegen.quarter_depth(gt_depths[ref_index])
    cover = scenegen.multiview_coverage(views, gt_depths, ref_index, src_indices)
    mask = (
        (gt_q >= config.depth_min)
        & (gt_q <= config.depth_max)
        & (cover >= min(2, len(src_indices)))
    )
    if not mask.any():
        return
    m = eval_depth(depth_map, gt_q, mask)
    metrics[f"depth_rmse_{tag}"] = m.rmse
    metrics[f"depth_absrel_{tag}"] = m.abs_rel


def _detection_sources(views, det_idx: list[int], source_views: int) -> dict[int, list[int]]:
    """Plane-sweep sources of each detection view: its nearest other
    detection views, never a held-out novel view."""
    det_views = [views[i] for i in det_idx]
    n_src = min(source_views, len(det_idx) - 1)
    return {
        i: [det_idx[p] for p in nearest_views(det_views, det_views[pos], n_src, exclude=pos)]
        for pos, i in enumerate(det_idx)
    }


def _scene_metrics(config, scene: SceneData, sources, depth_maps, boxes) -> dict[str, float]:
    """Depth metrics of every detection view and their mean, then box
    metrics when boxes are given."""
    metrics: dict[str, float] = {}
    if scene.gt_depths is not None:
        for i, depth_map in depth_maps.items():
            _depth_metrics(
                config, scene.views, scene.gt_depths, i, sources[i], depth_map, metrics, f"view{i}"
            )
        rmses = [v for k, v in metrics.items() if k.startswith("depth_rmse_view")]
        if rmses:
            metrics["depth_rmse_mean"] = float(np.mean(rmses))
    if boxes is not None:
        if scene.gt_boxes is not None:
            for j, gt_box in enumerate(scene.gt_boxes):
                metrics[f"box{j}_best_iou"] = max((iou3d(gt_box, b) for b in boxes), default=0.0)
        metrics["n_boxes"] = float(len(boxes))
    return metrics


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
    planes = config.planes()

    if refine:
        novel_idx = holdout_novel_indices(n, config.refine_novel_views)
    else:
        novel_idx = []
    det_idx = [i for i in range(n) if i not in novel_idx]

    features = {i: extract_features(scene.images[i]) for i in det_idx}
    if refine:
        # Refinement and its splats read quarter-res colours only: a
        # detection view's are its features' first three channels (the block
        # mean of its image, to the bit), a novel view's one block mean.  The
        # full-res images are not read again.
        colors = {i: features[i][..., :3] for i in det_idx}
        colors.update((i, block_mean(scene.images[i])) for i in novel_idx)
        scene.images.clear()

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

    refined_views = None
    loss_trace = None
    splats = None
    if refine:
        selected: set[int] = set()
        for nv in novel_idx:
            picks = nearest_views(det_views, views[nv], min(config.novel_source_views, len(det_views)))
            selected.update(det_idx[p] for p in picks)
        refined_views = sorted(selected)
        result = refine_probability_volume(
            [volumes[i] for i in refined_views],
            planes,
            [views[i] for i in refined_views],
            [colors[i] for i in refined_views],
            [views[i] for i in novel_idx],
            [colors[i] for i in novel_idx],
            steps=config.refine_steps,
            step_size=config.refine_step_size,
            footprint_scale=config.splat_footprint,
        )
        for i, vol in zip(refined_views, result.volumes):
            volumes[i] = vol
        loss_trace = result.loss_trace
        splats = concat_splats(
            [
                build_splats(
                    views[i], volumes[i], planes, colors[i],
                    footprint_scale=config.splat_footprint, source_index=i,
                )
                for i in refined_views
            ]
        )

    depth_maps = {i: regress_depth(volumes[i], planes) for i in det_idx}
    proposals = {i: sample_topk(volumes[i], planes, config.top_k) for i in det_idx}
    grid = build_volume(
        [(features[i], views[i], proposals[i]) for i in det_idx],
        config.grid_spec(),
        window=config.match_window,
    )
    boxes = extract_boxes(grid, config.box_threshold, config.min_component)

    metrics = _scene_metrics(config, scene, sources, depth_maps, boxes)
    if loss_trace is not None:
        metrics["refine_loss_initial"] = loss_trace[0]
        metrics["refine_loss_final"] = loss_trace[-1]

    result = PipelineResult(
        view_indices=det_idx,
        prob_volumes=[volumes[i] for i in det_idx],
        depth_maps=[depth_maps[i] for i in det_idx],
        volume=grid,
        boxes=boxes,
        metrics=metrics,
        refined_views=refined_views,
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
    """Recompute depth and box metrics from serialized pipeline outputs.

    The detection views are those with a written depth raster, and each
    one's sources are picked among them as run_pipeline picks them.  Depth
    is scored as stored, in float32.
    """
    scene = load_scene(scene_dir)
    views = scene.views
    depth_paths = {i: os.path.join(results_dir, f"depth_{i:03d}.mvsr") for i in range(len(views))}
    det_idx = [i for i, path in depth_paths.items() if os.path.exists(path)]
    depth_maps = {i: formats.load_raster(depth_paths[i])[..., 0] for i in det_idx}
    sources = _detection_sources(views, det_idx, config.source_views)
    boxes_path = os.path.join(results_dir, "boxes.txt")
    boxes = formats.load_boxes(boxes_path) if os.path.exists(boxes_path) else None
    return _scene_metrics(config, scene, sources, depth_maps, boxes)
