"""The paper's coarse-sweep claim: top-k depth proposals with soft weighting
"circumvent the requirement for a large number of depth planes".

On four fresh room scenes, chosen before anything was measured on them, the
detection layers run as `run_pipeline` runs them, at 12 and at 24 planes.
Recall at k is the share of the scored pixels that have one of their first k
proposals within `match_window` of the true depth; the scored pixels are
those of the depth metrics: ground truth inside the plane range and seen by
at least two of the view's sources.  Top-3 recall at 12 planes must reach
0.9 of top-1 recall at 24 planes, for half the sweep, and recall never
falls as k grows.
"""

from __future__ import annotations

import numpy as np
import pytest

from mvsweep.costvol import build_cost_volume, cost_to_probability, extract_features
from mvsweep.harness import formats, pipeline
from mvsweep.harness.config import PipelineConfig
from mvsweep.sampling import sample_topk
from mvsweep.scenegen import generate_scene, make_trajectory, multiview_coverage, quarter_depth

# (scene, trajectory) seeds: 10 views of 320x240 around 2 boxes each.
SCENES = [(101, 101), (102, 102), (103, 103), (104, 104)]
PLANE_COUNTS = (12, 24)
TOP_K = 3


def _recall(scene_dir, num_planes: int) -> np.ndarray:
    """Recall at k = 1..TOP_K over every scored pixel of every view of the
    scene at `scene_dir`, swept with `num_planes` planes."""
    config = PipelineConfig(num_planes=num_planes)
    planes = config.planes()
    scene = pipeline.load_scene(scene_dir)
    views, det_idx = scene.views, list(range(len(scene.views)))
    features = [extract_features(formats.load_ppm(path)) for path in scene.image_paths]
    gt_depths = {i: scene.gt_depth(i) for i in det_idx}
    sources = pipeline._detection_sources(views, det_idx, config.source_views)
    hits, scored = np.zeros(TOP_K), 0
    for i in det_idx:
        volume = build_cost_volume(features[i], views[i], [features[j] for j in sources[i]],
                                   [views[j] for j in sources[i]], planes,
                                   cost_penalty=config.cost_penalty)
        probs = cost_to_probability(volume, temperature=config.temperature)
        proposals = sample_topk(probs, planes, TOP_K).depths
        gt = quarter_depth(gt_depths[i])
        cover = multiview_coverage(views, gt_depths, i, sources[i])
        mask = (gt >= config.depth_min) & (gt <= config.depth_max) & (cover >= 2)
        near = np.abs(proposals[mask] - gt[mask][:, None]) <= config.match_window
        hits += np.logical_or.accumulate(near, axis=1).sum(axis=0)
        scored += int(mask.sum())
    return hits / scored


@pytest.fixture(scope="module")
def recalls(tmp_path_factory):
    """{scene seeds: {num_planes: recall at k = 1..TOP_K}}."""
    table = {}
    for seeds in SCENES:
        scene_dir = tmp_path_factory.mktemp(f"scene_{seeds[0]}")
        spec = generate_scene(seed=seeds[0], n_boxes=2)
        pipeline.write_scene(scene_dir, spec, make_trajectory(spec, 10, seed=seeds[1]))
        table[seeds] = {m: _recall(scene_dir, m) for m in PLANE_COUNTS}
    return table


def test_top3_on_a_coarse_sweep_reaches_top1_on_a_fine_one(recalls):
    for seeds, by_planes in recalls.items():
        coarse, fine = by_planes[12], by_planes[24]
        assert coarse[TOP_K - 1] >= 0.9 * fine[0], (seeds, coarse, fine)


def test_recall_never_falls_as_k_grows(recalls):
    for seeds, by_planes in recalls.items():
        for num_planes, recall in by_planes.items():
            assert np.all(np.diff(recall) >= 0), (seeds, num_planes, recall)
            assert 0 < recall[0] and recall[-1] <= 1, (seeds, num_planes, recall)
