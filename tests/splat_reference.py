"""Reference oracle for the splat rasterizer: projection, pair order,
compositing and the backward pass, in their direct per-pair form.

World covariances are sigma^2 I, projected with einsum; every (primitive,
pixel) pair is enumerated in primitive-index order and ordered with a
three-key lexsort; compositing is 3D Gaussian Splatting's per-pixel loop,
front to back, multiplying the transmittance by 1 - alpha and skipping
every pair whose incoming transmittance is below T_MIN; the backward pass
carries (P, 3) colour suffix sums over the composited pairs, gathers each
pair's (2, 2) inverse covariance, and runs the projection backward with
einsum.  It is slow and memory-hungry, and serves only as the yardstick the
tests hold `mvsweep.splat` against, to tolerances: `mvsweep.splat` sums
log-transmittances chunk by chunk where this multiplies per pixel.
quaternion_to_rotation builds the rotated views the tests render into.

refinement_loss_and_grad is the serial form of `mvsweep.splat`'s: it runs
the engine's own forward and backward passes, one novel view after the
other on the calling thread, and is the yardstick, to the bit, for how the
engine spreads those passes over threads and sums their results.
"""

from __future__ import annotations

import math

import numpy as np

from mvsweep.camera import DOWNSAMPLE, EPS_Z, ray_grid
from mvsweep.costvol import softmax
from mvsweep.splat import (
    ALPHA_CLAMP,
    COV_DILATION,
    EPS_ALPHA,
    POWER_CUTOFF,
    T_MIN,
    RenderTarget,
    _render_backward,
    _render_forward,
    build_splats,
    concat_splats,
)


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z) -> rotation matrices, vectorized."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=-2,
    )


def project_gaussians(splats, view):
    """(keep, x_cam, z, mean2d, cov2d (n, 2, 2), jac (n, 2, 3), cov_cam, k,
    gw, gh) over the primitives in front of the camera."""
    k, gw, gh = view.scaled(DOWNSAMPLE)
    r = view.pose.rotation
    x_cam = splats.means @ r.T + view.pose.translation
    z = x_cam[:, 2]
    keep = z > EPS_Z
    x_cam = x_cam[keep]
    z = z[keep]
    mean2d = np.stack(
        [k.fx * x_cam[:, 0] / z + k.cx, k.fy * x_cam[:, 1] / z + k.cy], axis=1
    )
    jac = np.zeros((x_cam.shape[0], 2, 3))
    jac[:, 0, 0] = k.fx / z
    jac[:, 0, 2] = -k.fx * x_cam[:, 0] / z**2
    jac[:, 1, 1] = k.fy / z
    jac[:, 1, 2] = -k.fy * x_cam[:, 1] / z**2
    cov_world = (splats.sigmas[keep] ** 2)[:, None, None] * np.eye(3)
    cov_cam = np.einsum("ij,njk,lk->nil", r, cov_world, r)
    cov2d = np.einsum("nij,njk,nlk->nil", jac, cov_cam, jac)
    cov2d[:, 0, 0] += COV_DILATION
    cov2d[:, 1, 1] += COV_DILATION
    return keep, x_cam, z, mean2d, cov2d, jac, cov_cam, k, gw, gh


def gather_pairs_unsorted(mean2d, cov2d, gw, gh):
    """All (primitive, pixel) pairs within the 3-sigma support, primitives in
    index order and each bbox row-major.

    Returns prim (P,), pixel id (P,), delta (P, 2), inv_cov (N, 2, 2) and
    power (P,).
    """
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    lam_max = 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    radius = 3.0 * np.sqrt(lam_max)
    x0 = np.maximum(np.ceil(mean2d[:, 0] - radius), 0).astype(np.int64)
    x1 = np.minimum(np.floor(mean2d[:, 0] + radius), gw - 1).astype(np.int64)
    y0 = np.maximum(np.ceil(mean2d[:, 1] - radius), 0).astype(np.int64)
    y1 = np.minimum(np.floor(mean2d[:, 1] + radius), gh - 1).astype(np.int64)
    nx = np.maximum(x1 - x0 + 1, 0)
    ny = np.maximum(y1 - y0 + 1, 0)
    counts = nx * ny
    idx = np.flatnonzero(counts > 0)

    reps = counts[idx]
    prim = np.repeat(idx, reps)
    offsets = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    w_per = np.repeat(nx[idx], reps)
    px = np.repeat(x0[idx], reps) + offsets % w_per
    py = np.repeat(y0[idx], reps) + offsets // w_per

    det = a * c - b * b
    inv = np.empty_like(cov2d)
    inv[:, 0, 0] = c / det
    inv[:, 1, 1] = a / det
    inv[:, 0, 1] = inv[:, 1, 0] = -b / det

    delta = np.stack([px - mean2d[prim, 0], py - mean2d[prim, 1]], axis=1)
    pinv = inv[prim]
    power = 0.5 * (
        delta[:, 0] ** 2 * pinv[:, 0, 0]
        + 2.0 * delta[:, 0] * delta[:, 1] * pinv[:, 0, 1]
        + delta[:, 1] ** 2 * pinv[:, 1, 1]
    )
    inside = power <= POWER_CUTOFF
    pid = (py[inside] * gw + px[inside]).astype(np.int64)
    return prim[inside], pid, delta[inside], inv, power[inside]


def gather_pairs(mean2d, cov2d, z, gw, gh):
    """The unsorted pairs ordered by (pixel, depth, primitive index)."""
    prim, pid, delta, inv, power = gather_pairs_unsorted(mean2d, cov2d, gw, gh)
    order = np.lexsort((prim, z[prim], pid))
    return prim[order], pid[order], delta[order], inv, power[order]


def composite(prim, pid, power, alphas, colors, n_px):
    """Front-to-back blending over pixel-sorted pairs, by the per-pixel
    loop: a pair is composited only if the transmittance arriving at it is
    at least T_MIN.

    Returns the (n_px, 3) colour and the mask of composited pairs, then,
    over the composited pairs: the blend weight, falloff, alpha_eff,
    transmittance and clamped mask, and each pixel run's start and length.
    """
    g_pair = np.exp(-power)
    alpha_raw = alphas[prim] * g_pair
    clamped = alpha_raw > ALPHA_CLAMP
    alpha_eff = np.where(clamped, ALPHA_CLAMP, alpha_raw)
    trans = np.zeros(prim.size)
    kept = np.zeros(prim.size, dtype=bool)
    t = {}  # transmittance per pixel so far
    for i, (p, a) in enumerate(zip(pid.tolist(), alpha_eff.tolist())):
        t_in = t.get(p, 1.0)
        if t_in < T_MIN:
            continue
        kept[i] = True
        trans[i] = t_in
        t[p] = t_in * (1.0 - a)
    prim, pid, g_pair, alpha_eff, trans, clamped = (
        a[kept] for a in (prim, pid, g_pair, alpha_eff, trans, clamped)
    )
    seg_start = np.flatnonzero(np.r_[True, pid[1:] != pid[:-1]])
    seg_len = np.diff(np.r_[seg_start, pid.size])
    w_pair = alpha_eff * trans
    contrib = w_pair[:, None] * colors[prim]  # (P, 3)
    color = np.stack(
        [np.bincount(pid, weights=contrib[:, ch], minlength=n_px) for ch in range(3)], axis=1
    )
    return color, kept, w_pair, g_pair, alpha_eff, trans, clamped, seg_start, seg_len


def rasterize(splats, view):
    """The RenderTarget of `view`, from the reference passes above."""
    keep, x_cam, z, mean2d, cov2d, jac, cov_cam, k, gw, gh = project_gaussians(splats, view)
    prim, pid, delta, inv, power = gather_pairs(mean2d, cov2d, z, gw, gh)
    n_px = gh * gw
    color, kept, w, *_ = composite(
        prim, pid, power, splats.opacities[keep], splats.colors[keep], n_px
    )
    prim, pid = prim[kept], pid[kept]
    acc = np.bincount(pid, weights=w, minlength=n_px)
    depth_num = np.bincount(pid, weights=w * z[prim], minlength=n_px)
    depth = np.where(acc > EPS_ALPHA, depth_num / np.maximum(acc, EPS_ALPHA), 0.0)
    return RenderTarget(
        color=color.reshape(gh, gw, 3), depth=depth.reshape(gh, gw), alpha=acc.reshape(gh, gw)
    )


def render_vjp(splats, view, target_image):
    """Loss and (d_means, d_alphas, d_sigma) of the L2 rendering loss, by the
    per-pair (P, 3) suffix sums over the composited pairs and the einsum
    projection backward."""
    keep, x_cam, z, mean2d, cov2d, jac, cov_cam, k, gw, gh = project_gaussians(splats, view)
    alphas = splats.opacities[keep]
    colors = splats.colors[keep]
    prim, pid, delta, inv, power = gather_pairs(mean2d, cov2d, z, gw, gh)
    color, kept, w_pair, g_pair, alpha_eff, trans, clamped, seg_start, seg_len = composite(
        prim, pid, power, alphas, colors, gh * gw
    )
    prim, pid, delta = prim[kept], pid[kept], delta[kept]

    diff = color.reshape(gh, gw, 3) - target_image
    loss = float(np.mean(diff * diff))
    d_color = (2.0 / diff.size) * diff.reshape(-1, 3)

    n_kept = z.size
    csum = np.cumsum(w_pair[:, None] * colors[prim], axis=0)
    total = csum[seg_start + seg_len - 1]
    suffix = total[np.repeat(np.arange(seg_start.size), seg_len)] - csum
    dc = d_color[pid]
    d_alpha_eff = np.einsum(
        "pc,pc->p", dc, colors[prim] * trans[:, None] - suffix / (1.0 - alpha_eff)[:, None]
    )
    live = ~clamped
    d_g = np.where(live, alphas[prim] * d_alpha_eff, 0.0)
    d_alpha_pair = np.where(live, g_pair * d_alpha_eff, 0.0)
    gp = d_g * g_pair

    pd = np.einsum("pij,pj->pi", inv[prim], delta)
    d_mean2d_pair = gp[:, None] * pd
    d_cov2d_pair = 0.5 * gp[:, None, None] * np.einsum("pi,pj->pij", pd, pd)

    d_alpha_kept = np.bincount(prim, weights=d_alpha_pair, minlength=n_kept)
    d_mean2d = np.stack(
        [np.bincount(prim, weights=d_mean2d_pair[:, i], minlength=n_kept) for i in range(2)],
        axis=1,
    )
    d_cov2d = np.stack(
        [
            np.bincount(prim, weights=d_cov2d_pair[:, i, j], minlength=n_kept)
            for i in range(2)
            for j in range(2)
        ],
        axis=1,
    ).reshape(n_kept, 2, 2)

    d_xcam = np.einsum("nji,nj->ni", jac, d_mean2d)
    d_jac = 2.0 * np.einsum("nij,njk,nkl->nil", d_cov2d, jac, cov_cam)
    d_cov_cam = np.einsum("nji,njk,nkl->nil", jac, d_cov2d, jac)

    fx, fy = k.fx, k.fy
    x, y = x_cam[:, 0], x_cam[:, 1]
    z2 = z * z
    d_xcam[:, 0] += d_jac[:, 0, 2] * (-fx / z2)
    d_xcam[:, 1] += d_jac[:, 1, 2] * (-fy / z2)
    d_xcam[:, 2] += (
        d_jac[:, 0, 0] * (-fx / z2)
        + d_jac[:, 1, 1] * (-fy / z2)
        + d_jac[:, 0, 2] * (2.0 * fx * x / (z2 * z))
        + d_jac[:, 1, 2] * (2.0 * fy * y / (z2 * z))
    )

    sigma = splats.sigmas[keep]
    keep_idx = np.flatnonzero(keep)
    d_means = np.zeros_like(splats.means)
    d_alphas = np.zeros(len(splats))
    d_sigmas = np.zeros(len(splats))
    d_means[keep_idx] = d_xcam @ view.pose.rotation
    d_alphas[keep_idx] = d_alpha_kept
    d_sigmas[keep_idx] = 2.0 * sigma * np.trace(d_cov_cam, axis1=1, axis2=2)
    return loss, d_means, d_alphas, d_sigmas


def refinement_loss_and_grad(
    logits, planes, source_views, source_images, novel_views, novel_images,
    footprint_scale=1.0, max_loss=math.inf, source_rays=None,
):
    """(loss, grads) or (loss, None), as `mvsweep.splat` computes them, with
    every forward and backward pass on the calling thread in view order."""
    if source_rays is None:
        source_rays = [ray_grid(v, DOWNSAMPLE) for v in source_views]
    probs = [softmax(lg) for lg in logits]
    sets = [
        build_splats(v, p, planes, img, footprint_scale, source_index=i, rays=rays)
        for i, (v, p, img, rays) in enumerate(zip(source_views, probs, source_images, source_rays))
    ]
    splats = concat_splats(sets)

    total_loss = 0.0
    states = []
    for view, img in zip(novel_views, novel_images):
        color, state = _render_forward(splats, view)
        _, gw, gh = view.scaled(DOWNSAMPLE)
        diff = color.reshape(gh, gw, 3) - img
        total_loss += float(np.mean(diff * diff))
        states.append((state, (2.0 / diff.size) * diff.reshape(-1, 3)))
    if not np.isfinite(total_loss):
        raise ValueError("rendering loss is not finite")
    if not total_loss <= max_loss:
        return total_loss, None

    d_means = np.zeros_like(splats.means)
    d_alphas = np.zeros(len(splats))
    d_sigmas = np.zeros(len(splats))
    for view, (state, d_color) in zip(novel_views, states):
        dm, da, ds = _render_backward(splats, view, state, d_color)
        d_means += dm
        d_alphas += da
        d_sigmas += ds

    grads = []
    offset = 0
    for view, p, (_, dirs, axis_cos) in zip(source_views, probs, source_rays):
        gh, gw = p.shape[:2]
        n = gh * gw
        dm = d_means[offset : offset + n].reshape(gh, gw, 3)
        da = d_alphas[offset : offset + n].reshape(gh, gw)
        ds = d_sigmas[offset : offset + n].reshape(gh, gw)
        offset += n

        k, _, _ = view.scaled(DOWNSAMPLE)
        f_mean = 0.5 * (k.fx + k.fy)
        d_depth = (
            np.einsum("hwc,hwc->hw", dm, dirs) / axis_cos + ds * footprint_scale / f_mean
        )
        up = d_depth[..., None] * planes.depths[None, None, :]
        arg = p.argmax(axis=2)
        rows, cols = np.meshgrid(np.arange(gh), np.arange(gw), indexing="ij")
        up_max = np.zeros_like(up)
        up_max[rows, cols, arg] = da
        up = up + up_max
        inner = (up * p).sum(axis=2, keepdims=True)
        grads.append(p * (up - inner))
    return total_loss, grads
