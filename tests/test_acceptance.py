"""End-to-end acceptance suite.

Each test prints one `criterion NN PASS/FAIL` line with its runtime.  The
thresholds are pinned; derived calibrations (surface-discrimination factor,
refinement protocol constants, box-scene extraction parameters) were fixed by
oracle runs and are documented inline.
"""

import os
import time

import numpy as np
import pytest

from mvsweep.camera import (
    CameraView,
    Intrinsics,
    Pose,
    homography_warp,
    nearest_views,
    project,
    relative_pose,
)
from mvsweep.costvol import (
    CostVolume,
    DepthPlanes,
    build_cost_volume,
    cost_to_probability,
    extract_features,
    regress_depth,
)
from mvsweep.harness import formats
from mvsweep.harness.boxes import Box3D, extract_boxes, iou3d
from mvsweep.harness.config import PipelineConfig, config_from_text, config_to_text
from mvsweep.harness.pipeline import run_pipeline
from mvsweep.sampling import (
    VoxelGridSpec,
    build_volume,
    build_volume_vanilla,
    proposals_from_depth,
    sample_topk,
)
from mvsweep.scenegen import (
    generate_scene,
    make_trajectory,
    multiview_coverage,
    quarter_depth,
    raycast,
    surface_free_masks,
)
from mvsweep.splat import refine_probability_volume, refinement_loss_and_grad

CONFIG = PipelineConfig()
PLANES = CONFIG.planes()

# Seeded scene suites (deterministic forever).
DEPTH_SUITE = [(101, 11), (102, 12), (103, 13), (104, 14), (105, 15)]  # box-free, 3 views
BOX_SUITE = [(214, 114), (218, 118), (227, 127)]  # 2 boxes, 8 views
REFINE_SUITE = [(10, 4), (20, 1), (33, 8)]  # 1 box, 5 views

# Box-criterion extraction calibration (oracle-pinned): a grid fitted around
# the scene content, a match window just above the worst-case plane
# quantization distance, and a threshold below the lukewarm horizontal faces.
BOX_WINDOW = 0.25
BOX_THRESHOLD = 0.4
BOX_GRID_MARGIN = 0.45

# Refinement protocol (oracle-pinned): weak ground-truth prior (0.1) plus iid
# logit noise, sharp splat footprint, normalized-gradient steps.
REFINE_PRIOR = 0.1
REFINE_NOISE = 1.2
REFINE_STEPS = 60
REFINE_STEP_SIZE = 6.0
REFINE_FOOTPRINT = 0.35


def report(num: int, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} ({elapsed:.1f}s) {detail}")


def random_pose(rng) -> Pose:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return Pose(q, rng.uniform(-2, 2, size=3))


@pytest.fixture(scope="module")
def depth_suite():
    """Scenes, views, ground truth, features and probability volumes for the
    five-scene depth suite; shared by criteria 5, 6, 8 and 9."""
    suite = []
    for sseed, tseed in DEPTH_SUITE:
        scene = generate_scene(seed=sseed, n_boxes=0)
        views = make_trajectory(scene, 3, seed=tseed)
        gts = [raycast(scene, v) for v in views]
        feats = [extract_features(g.image) for g in gts]
        volumes = []
        sources = []
        for i in range(3):
            src = nearest_views(views, views[i], CONFIG.source_views, exclude=i)
            sources.append(src)
            vol = build_cost_volume(
                feats[i], views[i], [feats[j] for j in src], [views[j] for j in src],
                PLANES, CONFIG.cost_penalty,
            )
            volumes.append(cost_to_probability(vol, CONFIG.temperature))
        suite.append(
            dict(scene=scene, views=views, gts=gts, feats=feats,
                 volumes=volumes, sources=sources)
        )
    return suite


def test_criterion_01_normalization():
    """Probability volumes and proposal scores stay normalized over 1000
    randomized inputs."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    for trial in range(500):
        m = int(rng.integers(2, 13))
        costs = rng.uniform(0, 10, size=(4, 5, 6, m))
        probs = cost_to_probability(
            CostVolume(costs, np.full((4, 5, m), 3)),
            temperature=float(rng.uniform(1e-4, 1.0)),
        )
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)
    planes12 = DepthPlanes.uniform(12, 0.2, 5.0)
    for trial in range(500):
        probs = rng.dirichlet(np.ones(12), size=(5, 4))
        k = int(rng.integers(1, 13))
        ps = sample_topk(probs, planes12, k)
        assert np.all(ps.scores > 0)
        np.testing.assert_allclose(ps.scores.sum(axis=-1), 1.0, atol=1e-6)
    elapsed = time.time() - t0
    report(1, True, elapsed, "1000 randomized inputs")
    assert elapsed < 5.0


def test_criterion_02_homography_oracle():
    """Plane-induced warping agrees with direct two-view projection within
    1e-5 px on 100 random pose/plane/point triples."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    checked = 0
    worst = 0.0
    while checked < 100:
        k_ref = Intrinsics(rng.uniform(40, 120), rng.uniform(40, 120), 31.5, 23.5)
        k_src = Intrinsics(rng.uniform(40, 120), rng.uniform(40, 120), 31.5, 23.5)
        ref = CameraView(k_ref, random_pose(rng), 64, 48)
        src = CameraView(k_src, random_pose(rng), 64, 48)
        depth = rng.uniform(0.2, 5.0)
        u, v = rng.uniform(0, 63), rng.uniform(0, 47)
        cam_pt = np.array(
            [(u - k_ref.cx) / k_ref.fx * depth, (v - k_ref.cy) / k_ref.fy * depth, depth]
        )
        world = ref.pose.rotation.T @ (cam_pt - ref.pose.translation)
        u2, v2, d2, _ = project(world, src)
        if not d2 > 1e-3:
            continue
        checked += 1
        uv, _, ok = homography_warp(
            np.array([u, v]), depth, k_ref, k_src, relative_pose(ref.pose, src.pose)
        )
        assert ok
        err = float(max(abs(uv[0] - u2), abs(uv[1] - v2)))
        worst = max(worst, err)
        assert err < 1e-5
    elapsed = time.time() - t0
    report(2, True, elapsed, f"worst {worst:.2e} px")
    assert elapsed < 1.0


def test_criterion_03_topk_oracle():
    """sample_topk matches an exhaustive sort oracle on 50 random 8x8x6
    volumes, including engineered ties."""
    t0 = time.time()
    rng = np.random.default_rng(2)
    planes6 = DepthPlanes.uniform(6, 0.5, 4.5)
    for trial in range(50):
        probs = rng.dirichlet(np.ones(6), size=(8, 8))
        if trial % 2:  # engineer ties by coarse quantization
            probs = np.round(probs, 1) + 1e-3
            probs /= probs.sum(axis=-1, keepdims=True)
        k = int(rng.integers(1, 7))
        ps = sample_topk(probs, planes6, k)
        for r in range(8):
            for c in range(8):
                order = sorted(range(6), key=lambda i: (-probs[r, c, i], i))[:k]
                total = probs[r, c, order].sum()
                np.testing.assert_array_equal(ps.plane_indices[r, c], order)
                np.testing.assert_allclose(
                    ps.scores[r, c], probs[r, c, order] / total, atol=1e-12
                )
    elapsed = time.time() - t0
    report(3, True, elapsed, "50 volumes, ties included")
    assert elapsed < 1.0


def test_criterion_04_degenerate_to_vanilla():
    """Uniform volumes, k = M and a range-wide window reduce depth-aware
    aggregation to the vanilla mean within 1e-6."""
    t0 = time.time()
    scene = generate_scene(seed=12, n_boxes=1)
    views = make_trajectory(scene, 3, seed=3)
    rng = np.random.default_rng(3)
    feats = []
    for v in views:
        gh, gw = v.height // 4, v.width // 4
        feats.append(rng.uniform(0, 1, size=(gh, gw, 6)))
    uniform = np.full(feats[0].shape[:2] + (PLANES.count,), 1.0 / PLANES.count)
    props = [sample_topk(uniform, PLANES, PLANES.count) for _ in views]
    spec = CONFIG.grid_spec()
    aware = build_volume(list(zip(feats, views, props)), spec, window=5.0)
    vanilla = build_volume_vanilla(list(zip(feats, views)), spec)
    seen = vanilla.valid_count > 0
    max_err = float(np.abs(aware.feature_mean[seen] - vanilla.feature_mean[seen]).max())
    assert max_err < 1e-6
    np.testing.assert_allclose(aware.score[seen], 1.0 / PLANES.count, atol=1e-9)
    elapsed = time.time() - t0
    report(4, True, elapsed, f"{int(seen.sum())} in-frustum voxels, max err {max_err:.1e}")
    assert elapsed < 10.0


def _suite_depth_stats(entry):
    """Pooled regressed-depth RMSE and quantization baseline over the valid
    pixels (in sweep range, surface observed by both selected sources)."""
    depths = [g.depth for g in entry["gts"]]
    sq_err = sq_quant = 0.0
    n = 0
    for i in range(3):
        gt_q = quarter_depth(depths[i])
        cover = multiview_coverage(entry["views"], depths, i, entry["sources"][i])
        mask = (gt_q >= CONFIG.depth_min) & (gt_q <= CONFIG.depth_max) & (cover >= 2)
        est = regress_depth(entry["volumes"][i], PLANES)
        quant = PLANES.depths[PLANES.nearest_index(gt_q)]
        sq_err += float(((est - gt_q)[mask] ** 2).sum())
        sq_quant += float(((quant - gt_q)[mask] ** 2).sum())
        n += int(mask.sum())
    return np.sqrt(sq_err / n), np.sqrt(sq_quant / n)


def test_criterion_05_depth_accuracy(depth_suite):
    """Per scene: regressed-depth RMSE below the plane spacing and strictly
    below the nearest-plane quantization baseline."""
    t0 = time.time()
    details = []
    for (sseed, _), entry in zip(DEPTH_SUITE, depth_suite):
        rmse, quant = _suite_depth_stats(entry)
        details.append(f"{sseed}: {rmse:.3f}<{quant:.3f}")
        assert rmse < PLANES.spacing
        assert rmse < quant
    elapsed = time.time() - t0
    report(5, True, elapsed, "; ".join(details))
    assert elapsed < 30.0


def _discrimination(entry, proposals):
    spec = CONFIG.grid_spec()
    grid = build_volume(
        [(f, v, p) for f, v, p in zip(entry["feats"], entry["views"], proposals)],
        spec,
        window=CONFIG.match_window,
    )
    surf, free = surface_free_masks(
        entry["scene"], entry["views"], spec, depths=[g.depth for g in entry["gts"]]
    )
    return float(grid.score[surf].mean()), float(grid.score[free].mean())


def test_criterion_06_surface_discrimination(depth_suite):
    """Mean surface score over GT-surface voxels dominates free space.

    The contractual floor is 2x; the pinned factor from the first oracle run
    is 10x (observed 36x-79x across the suite).
    """
    t0 = time.time()
    details = []
    for (sseed, _), entry in zip(DEPTH_SUITE, depth_suite):
        props = [sample_topk(b, PLANES, CONFIG.top_k) for b in entry["volumes"]]
        s_mean, f_mean = _discrimination(entry, props)
        ratio = s_mean / max(f_mean, 1e-12)
        details.append(f"{sseed}: x{ratio:.0f}")
        assert s_mean >= 2.0 * f_mean  # contractual floor
        assert s_mean >= 10.0 * f_mean  # pinned calibration
    elapsed = time.time() - t0
    report(6, True, elapsed, "; ".join(details))
    assert elapsed < 30.0


def test_criterion_07_refinement_efficacy():
    """From noisy probability volumes, 60 refinement steps cut depth RMSE by
    at least 20% with a non-increasing loss trace, on 3 scenes with 2
    held-out novel views each."""
    t0 = time.time()
    details = []
    for sseed, tseed in REFINE_SUITE:
        scene = generate_scene(seed=sseed, n_boxes=1)
        views = make_trajectory(scene, 5, seed=tseed)
        gts = [raycast(scene, v) for v in views]
        src_idx, novel_idx = [0, 1, 2], [3, 4]
        rng = np.random.default_rng(0)
        volumes = []
        for i in src_idx:
            gt_q = quarter_depth(gts[i].depth)
            logits = -REFINE_PRIOR * (PLANES.depths - gt_q[..., None]) ** 2 / (
                2 * (PLANES.spacing / 2) ** 2
            )
            logits += rng.normal(0, REFINE_NOISE, logits.shape)
            e = np.exp(logits - logits.max(-1, keepdims=True))
            volumes.append(e / e.sum(-1, keepdims=True))

        def depth_rmse(vols):
            tot, n = 0.0, 0
            for b, i in zip(vols, src_idx):
                gt_q = quarter_depth(gts[i].depth)
                mask = (gt_q >= CONFIG.depth_min) & (gt_q <= CONFIG.depth_max)
                tot += float(((regress_depth(b, PLANES) - gt_q)[mask] ** 2).sum())
                n += int(mask.sum())
            return np.sqrt(tot / n)

        initial = depth_rmse(volumes)
        result = refine_probability_volume(
            volumes, PLANES,
            [views[i] for i in src_idx], [gts[i].image for i in src_idx],
            [views[i] for i in novel_idx], [gts[i].image for i in novel_idx],
            steps=REFINE_STEPS, step_size=REFINE_STEP_SIZE,
            footprint_scale=REFINE_FOOTPRINT,
        )
        final = depth_rmse(result.volumes)
        trace = result.loss_trace
        improvement = (initial - final) / initial
        details.append(f"{sseed}: {initial:.3f}->{final:.3f} ({improvement:.0%})")
        assert REFINE_STEPS >= 20
        assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
        assert improvement >= 0.20
    elapsed = time.time() - t0
    report(7, True, elapsed, "; ".join(details))
    assert elapsed < 180.0


def test_criterion_08_topk_ablation_trend(depth_suite):
    """k = 3 versus k = 1: mean depth RMSE and surface-discrimination ratio
    at k = 3 must be at least as good as at k = 1 across the suite."""
    t0 = time.time()
    rmse_by_k = {}
    ratios = {1: [], 3: []}
    for k in (1, 3):
        total = []
        for entry in depth_suite:
            rmse, _ = _suite_depth_stats(entry)  # depth regression is k-free
            total.append(rmse)
            props = [sample_topk(b, PLANES, k) for b in entry["volumes"]]
            s_mean, f_mean = _discrimination(entry, props)
            ratios[k].append(s_mean / max(f_mean, 1e-12))
        rmse_by_k[k] = float(np.mean(total))
    rmse_ok = rmse_by_k[3] <= rmse_by_k[1] + 1e-12
    ratio_ok = float(np.mean(ratios[3])) >= float(np.mean(ratios[1]))
    elapsed = time.time() - t0
    report(
        8,
        rmse_ok and ratio_ok,
        elapsed,
        f"rmse k3={rmse_by_k[3]:.3f} vs k1={rmse_by_k[1]:.3f}; "
        f"ratio k3={np.mean(ratios[3]):.0f} vs k1={np.mean(ratios[1]):.0f}",
    )
    assert elapsed < 60.0
    assert rmse_ok
    # Known-red clause: under the pinned surface-score formulas, k = 1
    # carries unit confidences, which inflates its mean-score ratio on any
    # scene clean enough to satisfy the depth-accuracy criterion.  See the
    # decisions ledger for the measured analysis.
    assert ratio_ok


def test_criterion_09_ground_truth_upper_bound(depth_suite):
    """Volumes built from exact ground-truth depth proposals discriminate at
    least as well as the estimated pipeline on every scene."""
    t0 = time.time()
    details = []
    for (sseed, _), entry in zip(DEPTH_SUITE, depth_suite):
        props = [sample_topk(b, PLANES, CONFIG.top_k) for b in entry["volumes"]]
        s_est, f_est = _discrimination(entry, props)
        gt_props = [proposals_from_depth(quarter_depth(g.depth)) for g in entry["gts"]]
        s_gt, f_gt = _discrimination(entry, gt_props)
        ratio_est = s_est / max(f_est, 1e-12)
        ratio_gt = s_gt / max(f_gt, 1e-12)
        details.append(f"{sseed}: gt x{ratio_gt:.0f} >= est x{ratio_est:.0f}")
        assert ratio_gt >= ratio_est
    elapsed = time.time() - t0
    report(9, True, elapsed, "; ".join(details))
    assert elapsed < 30.0


def _fitted_box_grid(scene):
    los = np.min([b.lo for b in scene.boxes], axis=0) - BOX_GRID_MARGIN
    his = np.max([b.hi for b in scene.boxes], axis=0) + BOX_GRID_MARGIN
    los = np.maximum(los, scene.room_lo)
    his = np.minimum(his, scene.room_hi)
    pitch = np.asarray(CONFIG.grid_pitch)
    dims = np.maximum(np.ceil((his - los) / pitch).astype(int), 1)
    return VoxelGridSpec(tuple(dims), tuple(los), tuple(pitch))


def test_criterion_10_box_extraction():
    """On 2-box scenes, every GT box is matched by an extracted box with
    IoU >= 0.25 (content-fitted grid; window/threshold oracle-pinned)."""
    t0 = time.time()
    details = []
    for sseed, tseed in BOX_SUITE:
        scene = generate_scene(seed=sseed, n_boxes=2)
        views = make_trajectory(scene, 8, seed=tseed)
        gts = [raycast(scene, v) for v in views]
        feats = [extract_features(g.image) for g in gts]
        items = []
        for i in range(len(views)):
            src = nearest_views(views, views[i], CONFIG.source_views, exclude=i)
            vol = build_cost_volume(
                feats[i], views[i], [feats[j] for j in src], [views[j] for j in src],
                PLANES, CONFIG.cost_penalty,
            )
            probs = cost_to_probability(vol, CONFIG.temperature)
            items.append((feats[i], views[i], sample_topk(probs, PLANES, CONFIG.top_k)))
        grid = build_volume(items, _fitted_box_grid(scene), window=BOX_WINDOW)
        boxes = extract_boxes(grid, BOX_THRESHOLD, CONFIG.min_component)
        for j, gt_box in enumerate(scene.boxes):
            gt = Box3D.from_corners(gt_box.lo, gt_box.hi)
            best = max((iou3d(gt, b) for b in boxes), default=0.0)
            details.append(f"{sseed}.{j}: {best:.2f}")
            assert best >= 0.25
    elapsed = time.time() - t0
    report(10, True, elapsed, "; ".join(details))
    assert elapsed < 30.0


def test_criterion_11_gradient_check():
    """Analytic refinement gradients match central finite differences within
    1e-3 relative on 50 random logits."""
    t0 = time.time()
    from mvsweep.costvol import block_mean

    scene = generate_scene(seed=3, n_boxes=1)
    views = make_trajectory(scene, 4, seed=5, image_size=(64, 48))
    gts = [raycast(scene, v) for v in views]
    planes6 = DepthPlanes.uniform(6, 0.5, 4.5)
    src_views, src_imgs = views[:2], [gts[0].image, gts[1].image]
    novel_views, novel_imgs = [views[3]], [block_mean(gts[3].image)]
    rng = np.random.default_rng(0)
    logits = [rng.normal(0, 1.0, (12, 16, 6)) for _ in range(2)]
    _, grads = refinement_loss_and_grad(
        logits, planes6, src_views, src_imgs, novel_views, novel_imgs
    )
    h = 1e-4
    worst = 0.0
    for _ in range(50):
        vi = int(rng.integers(0, 2))
        r, c, m = (int(rng.integers(0, s)) for s in (12, 16, 6))
        plus = [x.copy() for x in logits]
        plus[vi][r, c, m] += h
        minus = [x.copy() for x in logits]
        minus[vi][r, c, m] -= h
        fp, _ = refinement_loss_and_grad(plus, planes6, src_views, src_imgs, novel_views, novel_imgs)
        fm, _ = refinement_loss_and_grad(minus, planes6, src_views, src_imgs, novel_views, novel_imgs)
        fd = (fp - fm) / (2 * h)
        an = grads[vi][r, c, m]
        rel = abs(fd - an) / max(abs(fd) + abs(an), 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-3
    elapsed = time.time() - t0
    report(11, True, elapsed, f"50 logits, worst rel {worst:.1e}")
    assert elapsed < 30.0


def test_criterion_12_determinism_and_round_trips(tmp_path):
    """run_pipeline twice gives byte-identical outputs; every file format
    round-trips losslessly."""
    t0 = time.time()
    scene_dir = tmp_path / "scene"
    os.makedirs(scene_dir)
    scene = generate_scene(seed=5, n_boxes=1)
    views = make_trajectory(scene, 3, seed=5, image_size=(128, 96))
    formats.save_scene(scene_dir / "scene.txt", scene)
    formats.save_cameras(scene_dir / "cameras.txt", views)
    formats.save_boxes(
        scene_dir / "boxes.txt", [Box3D.from_corners(b.lo, b.hi) for b in scene.boxes]
    )
    for i, v in enumerate(views):
        gt = raycast(scene, v)
        formats.save_ppm(scene_dir / f"view_{i:03d}.ppm", gt.image)
        formats.save_raster(scene_dir / f"depth_{i:03d}.mvsr", gt.depth)

    config = PipelineConfig(grid_dims=(16, 16, 8), grid_pitch=(0.4, 0.4, 0.4), min_component=2)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ra = run_pipeline(scene_dir, config, out_dir=out_a)
    run_pipeline(scene_dir, config, out_dir=out_b)
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b)) and names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    # Round trips: rewriting a loaded artifact reproduces the bytes.
    for name in names:
        path = out_a / name
        copy = tmp_path / f"rt_{name}"
        if name.endswith(".mvsr"):
            formats.save_raster(copy, formats.load_raster(path))
        elif name.endswith(".mvsv"):
            formats.save_volume(copy, formats.load_volume(path))
        elif name == "boxes.txt":
            formats.save_boxes(copy, formats.load_boxes(path))
        else:
            formats.save_metrics(copy, formats.load_metrics(path))
        assert copy.read_bytes() == path.read_bytes(), name
    for name in ("cameras.txt", "scene.txt", "view_000.ppm"):
        path = scene_dir / name
        copy = tmp_path / f"rt_{name}"
        if name.endswith(".ppm"):
            formats.save_ppm(copy, formats.load_ppm(path))
        elif name == "cameras.txt":
            formats.save_cameras(copy, formats.load_cameras(path))
        else:
            formats.save_scene(copy, formats.load_scene_spec(path))
        assert copy.read_bytes() == path.read_bytes(), name
    # splats and config round-trip through their text/binary forms
    from mvsweep.splat import build_splats

    probs = ra.prob_volumes[0]
    splats = build_splats(views[0], probs, config.planes(), formats.load_ppm(scene_dir / "view_000.ppm"))
    sp_a, sp_b = tmp_path / "s1.mvsg", tmp_path / "s2.mvsg"
    formats.save_splats(sp_a, splats)
    formats.save_splats(sp_b, formats.load_splats(sp_a))
    assert sp_a.read_bytes() == sp_b.read_bytes()
    assert config_from_text(config_to_text(config)) == config
    elapsed = time.time() - t0
    report(12, True, elapsed, f"{len(names)} artifacts byte-stable")
    assert elapsed < 30.0
