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
other on the calling thread, and forms the softmax VJP's argmax term in a
zeros buffer added to the whole upstream array.  It is the yardstick, to
the bit, for how the engine spreads those passes over threads, sums their
results and adds that term in place.

stored_forward, stored_target and stored_backward are the engine's chunk
walk and passes with every composited pair's pixel id and falloff stored in
the forward state; they are the yardstick, to the bit, for the engine's
run-length pixel ids and recomputed falloffs.

refine_probability_volume is the engine's line search as it was written
with an acceptance flag and two places that pad a stalled trace, returning
only the volumes and the trace; it is the yardstick, to the bit, for the
engine's trace, volumes and evaluation count.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

import mvsweep.splat as engine
from mvsweep.camera import DOWNSAMPLE, EPS_Z, ray_grid
from mvsweep.costvol import softmax
from mvsweep.splat import (
    ALPHA_CLAMP,
    COV_DILATION,
    EPS_ALPHA,
    LOG_T_MIN,
    POWER_CUTOFF,
    T_MIN,
    RenderTarget,
    _check_positive,
    _quarter,
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
        source_rays = [ray_grid(v) for v in source_views]
    probs = [softmax(lg) for lg in logits]
    sets = [
        build_splats(v, p, planes, img, footprint_scale, source_index=i, rays=rays)
        for i, (v, p, img, rays) in enumerate(zip(source_views, probs, source_images, source_rays))
    ]
    splats = concat_splats(sets)

    total_loss = 0.0
    records = []
    for view, img in zip(novel_views, novel_images):
        color, chunks = _render_forward(splats, view)
        _, gw, gh = view.scaled(DOWNSAMPLE)
        diff = color.reshape(gh, gw, 3) - img
        total_loss += float(np.mean(diff * diff))
        records.append((chunks, (2.0 / diff.size) * diff.reshape(-1, 3)))
    if not np.isfinite(total_loss):
        raise ValueError("rendering loss is not finite")
    if not total_loss <= max_loss:
        return total_loss, None

    d_means = np.zeros_like(splats.means)
    d_alphas = np.zeros(len(splats))
    d_sigmas = np.zeros(len(splats))
    for view, (chunks, d_color) in zip(novel_views, records):
        dm, da, ds = _render_backward(splats, view, chunks, d_color)
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


def refine_probability_volume(
    volumes, planes, source_views, source_images, novel_views, novel_images,
    steps, step_size, footprint_scale=1.0,
):
    """The engine's refinement loop with its line search written as an
    acceptance flag and two trace paddings.  Each evaluation calls
    `mvsweep.splat.refinement_loss_and_grad`, looked up at call time, so a
    test that replaces that function replaces it for both loops."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_positive(step_size=step_size, footprint_scale=footprint_scale)
    if not novel_views:
        raise ValueError("need at least one novel view")
    if len(novel_views) != len(novel_images):
        raise ValueError("novel views/images mismatch")
    novel_quarter = [_quarter(v, img) for v, img in zip(novel_views, novel_images)]
    source_quarter = [
        _quarter(v, np.asarray(img, dtype=np.float64)) for v, img in zip(source_views, source_images)
    ]
    logits = [np.log(np.clip(v, 1e-12, None)) for v in volumes]

    def evaluate(lgs, max_loss):
        return engine.refinement_loss_and_grad(
            lgs, planes, source_views, source_quarter, novel_views, novel_quarter,
            footprint_scale, max_loss=max_loss,
        )

    loss, grads = evaluate(logits, math.inf)
    trace = [loss]
    for step in range(steps):
        max_loss = trace[-1] if step + 1 < steps else -math.inf
        gmax = max(float(np.max(np.abs(g))) for g in grads)
        if gmax == 0.0:
            trace.extend([trace[-1]] * (steps + 1 - len(trace)))
            break
        direction = [g / gmax for g in grads]
        grads = trial_grads = None
        lr = step_size
        accepted = False
        for _ in range(9):
            trial = [lg - lr * d for lg, d in zip(logits, direction)]
            trial_loss, trial_grads = evaluate(trial, max_loss)
            if trial_loss <= trace[-1]:
                logits = trial
                loss, grads = trial_loss, trial_grads
                accepted = True
                break
            lr *= 0.5
        trace.append(loss if accepted else trace[-1])
        if not accepted:
            trace.extend([trace[-1]] * (steps + 1 - len(trace)))
            break
    return SimpleNamespace(volumes=[softmax(lg) for lg in logits], loss_trace=trace)


# ---------------------------------------------------------------------------
# The chunked engine with a stored per-pair state
# ---------------------------------------------------------------------------
#
# mvsweep.splat's chunk walk, forward pass, rasterize and backward pass as
# they ran when the forward state kept four arrays per composited pair:
# primitive, pixel id, Gaussian falloff g and transmittance.  The engine's
# forward pass now hands on only chunk records with run-length pixel ids,
# and its backward pass recomputes g and the per-primitive values; the
# tests hold it to these functions byte for byte (colour image, every
# RenderTarget field, loss and gradients).  Projection and footprints are
# the engine's own.


def _stored_pair_chunk(idx, bbox, mean2d, inv, gw, live=None):
    x0, y0, nx, ny = bbox
    inv00, inv01, inv11 = inv
    row_prim = np.repeat(idx, ny[idx])
    first_row = np.cumsum(ny[idx]) - ny[idx]
    row_y = np.repeat(y0[idx] - first_row, ny[idx]) + np.arange(row_prim.size)
    row_x0 = x0[row_prim]
    row_n = nx[row_prim]
    if live is not None:
        live_cum = np.zeros((live.shape[0], live.shape[1] + 1), dtype=np.int64)
        np.cumsum(live, axis=1, out=live_cum[:, 1:])
        rows = np.flatnonzero(live_cum[row_y, row_x0 + row_n] > live_cum[row_y, row_x0])
        row_prim, row_y, row_x0, row_n = (a.take(rows) for a in (row_prim, row_y, row_x0, row_n))
    row_dy = row_y - mean2d[row_prim, 1]
    first_px = np.cumsum(row_n) - row_n
    px = np.repeat(row_x0 - first_px, row_n) + np.arange(row_n.sum())
    pid = np.repeat(row_y * gw, row_n)
    pid += px
    dx = np.subtract(px, np.repeat(mean2d[row_prim, 0], row_n))
    del px
    power = np.square(dx)
    power *= np.repeat(inv00[row_prim], row_n)
    dx *= 2.0
    dx *= np.repeat(row_dy, row_n)
    dx *= np.repeat(inv01[row_prim], row_n)
    power += dx
    del dx
    power += np.repeat(row_dy**2 * inv11[row_prim], row_n)
    power *= 0.5
    inside = power <= POWER_CUTOFF
    if live is not None:
        inside &= live.take(pid)
    sel = np.flatnonzero(inside)
    return np.repeat(row_prim, row_n).take(sel), pid.take(sel), power.take(sel)


def _stored_pixel_order(pid, n_px):
    order = np.argsort(pid.astype(np.uint16), kind="stable")
    if n_px > 65536:
        order = order[np.argsort((pid[order] >> 16).astype(np.uint16), kind="stable")]
    return order


def _stored_pixel_chunks(mean2d, z, bbox, inv, gw, gh, log_t, pair_chunk):
    x0, y0, nx, ny = bbox
    counts = nx * ny
    rank = np.argsort(z, kind="stable")
    idx = rank[counts[rank] > 0]
    cum = np.cumsum(counts[idx])
    total = int(cum[-1]) if cum.size else 0
    cuts = np.searchsorted(cum, np.arange(pair_chunk, total, pair_chunk), side="right")
    bounds = np.unique(np.r_[0, cuts, idx.size])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        live = (log_t >= LOG_T_MIN).reshape(gh, gw)
        prim, pid, power = _stored_pair_chunk(
            idx[lo:hi], bbox, mean2d, inv, gw, None if live.all() else live
        )
        if pid.size:
            order = _stored_pixel_order(pid, gw * gh)
            yield prim.take(order), pid.take(order), power.take(order)


def _stored_runs(pid):
    new_run = np.ones(pid.size, dtype=bool)
    np.not_equal(pid[1:], pid[:-1], out=new_run[1:])
    start = np.flatnonzero(new_run)
    return start, np.diff(start, append=pid.size)


def _stored_opacity(alphas, prim, g):
    alpha_eff = alphas.take(prim)
    alpha_eff *= g
    clamped = alpha_eff > ALPHA_CLAMP
    alpha_eff[clamped] = ALPHA_CLAMP
    return alpha_eff, clamped


def stored_forward(splats, view):
    """(colour (n_px, 3), state): the forward pass, its state's `chunks`
    holding (prim, pid, g, trans) per composited pair, front to back."""
    from mvsweep import splat as engine

    keep, x_cam, z, mean2d, cov2d, jac, k, gw, gh = engine._project_gaussians(splats, view)
    alphas = splats.opacities[keep]
    colors = np.ascontiguousarray(splats.colors[keep].T)
    bbox, inv = engine._footprints(mean2d, cov2d, gw, gh)
    n_px = gh * gw
    log_t = np.zeros(n_px)
    color = np.zeros((n_px, 3))
    chunks = []
    for c_prim, c_pid, c_g in _stored_pixel_chunks(
        mean2d, z, bbox, inv, gw, gh, log_t, engine.PAIR_CHUNK
    ):
        np.exp(np.negative(c_g, out=c_g), out=c_g)
        alpha_eff = _stored_opacity(alphas, c_prim, c_g)[0]
        log_a = np.log1p(np.negative(alpha_eff))
        start, run_len = _stored_runs(c_pid)
        run_px = c_pid[start]
        excl = np.empty_like(log_a)
        excl[0] = 0.0
        np.cumsum(log_a[:-1], out=excl[1:])
        excl -= np.repeat(excl[start], run_len)
        excl += np.repeat(log_t[run_px], run_len)
        last = start + run_len - 1
        log_t[run_px] = excl[last] + log_a[last]
        sel = np.flatnonzero(excl >= LOG_T_MIN)
        k_prim, k_pid = c_prim.take(sel), c_pid.take(sel)
        trans = np.exp(excl.take(sel))
        w = alpha_eff.take(sel)
        w *= trans
        t = np.empty(sel.size)
        for c, col in enumerate(colors):
            np.take(col, k_prim, out=t, mode="clip")
            t *= w
            color[:, c] += np.bincount(k_pid, weights=t, minlength=n_px)
        chunks.append((k_prim.astype(np.int32), k_pid.astype(np.int32), c_g.take(sel), trans))
    state = SimpleNamespace(
        keep=keep, x_cam=x_cam, z=z, mean2d=mean2d, jac=jac, inv=inv,
        alphas=alphas, colors=colors, chunks=chunks,
    )
    return color, state


def stored_target(color, st, view):
    """The RenderTarget of `view` from stored_forward's colour and state,
    with the np.add.at sums `rasterize` forms in its forward walk, here in
    a second walk over the stored pairs; the state is left as it was."""
    _, gw, gh = view.scaled(DOWNSAMPLE)
    n_px = gh * gw
    acc = np.zeros(n_px)
    depth_num = np.zeros(n_px)
    for prim, pid, g, trans in st.chunks:
        w = _stored_opacity(st.alphas, prim, g)[0]
        w *= trans
        np.add.at(acc, pid, w)
        w *= st.z.take(prim)
        np.add.at(depth_num, pid, w)
    depth = np.where(acc > EPS_ALPHA, depth_num / np.maximum(acc, EPS_ALPHA), 0.0)
    return RenderTarget(
        color=color.reshape(gh, gw, 3), depth=depth.reshape(gh, gw), alpha=acc.reshape(gh, gw)
    )


def stored_backward(splats, view, st, d_color):
    """(d_means, d_alphas, d_sigmas) from stored_forward's state, which it
    consumes chunk by chunk, back to front."""
    k, gw, gh = view.scaled(DOWNSAMPLE)
    n_kept = st.z.size
    sums = np.zeros((6, n_kept))
    behind = np.zeros(gh * gw)
    while st.chunks:
        prim, pid, g, trans = st.chunks.pop()
        prim, pid = prim.astype(np.intp), pid.astype(np.intp)
        q = np.zeros(prim.size)
        for dc, col in zip(d_color.T, st.colors):
            t = dc.take(pid)
            t *= col.take(prim)
            q += t
        wq, clamped = _stored_opacity(st.alphas, prim, g)
        wq *= trans
        wq *= q
        u = q
        u *= trans
        start, run_len = _stored_runs(pid)
        run_px = pid[start]
        later = behind[run_px]
        behind[run_px] += np.add.reduceat(wq, start)
        csum = np.cumsum(wq, out=wq)
        later += csum[start + run_len - 1]
        suffix = np.repeat(later, run_len)
        suffix -= csum
        one_minus = _stored_opacity(st.alphas, prim, g)[0]
        suffix /= np.subtract(1.0, one_minus, out=one_minus)
        u -= suffix
        u *= g
        u[clamped] = 0.0
        sums[0] += np.bincount(prim, weights=u, minlength=n_kept)
        dx = np.subtract(pid % gw, st.mean2d[:, 0].take(prim))
        ux = u * dx
        sums[1] += np.bincount(prim, weights=ux, minlength=n_kept)
        dx *= ux
        sums[2] += np.bincount(prim, weights=dx, minlength=n_kept)
        dy = np.subtract(pid // gw, st.mean2d[:, 1].take(prim))
        ux *= dy
        sums[3] += np.bincount(prim, weights=ux, minlength=n_kept)
        uy = u
        uy *= dy
        sums[4] += np.bincount(prim, weights=uy, minlength=n_kept)
        dy *= uy
        sums[5] += np.bincount(prim, weights=dy, minlength=n_kept)
    d_alpha_kept = sums[0]
    m_x, m_xx, m_xy, m_y, m_yy = st.alphas * sums[1:]

    inv00, inv01, inv11 = st.inv
    d_mean0 = inv00 * m_x + inv01 * m_y
    d_mean1 = inv01 * m_x + inv11 * m_y
    d_cov00 = 0.5 * (inv00 * inv00 * m_xx + 2.0 * inv00 * inv01 * m_xy + inv01 * inv01 * m_yy)
    d_cov01 = 0.5 * (
        inv00 * inv01 * m_xx + (inv00 * inv11 + inv01 * inv01) * m_xy + inv01 * inv11 * m_yy
    )
    d_cov11 = 0.5 * (inv01 * inv01 * m_xx + 2.0 * inv01 * inv11 * m_xy + inv11 * inv11 * m_yy)

    j00, j02, j11, j12 = st.jac
    sigma = splats.sigmas[st.keep]
    two_s2 = 2.0 * sigma**2
    d_j00 = two_s2 * d_cov00 * j00
    d_j02 = two_s2 * (d_cov00 * j02 + d_cov01 * j12)
    d_j11 = two_s2 * d_cov11 * j11
    d_j12 = two_s2 * (d_cov01 * j02 + d_cov11 * j12)
    tr_d_cov_cam = (
        d_cov00 * (j00 * j00 + j02 * j02)
        + 2.0 * d_cov01 * j02 * j12
        + d_cov11 * (j11 * j11 + j12 * j12)
    )

    fx, fy = k.fx, k.fy
    x, y, z = st.x_cam[:, 0], st.x_cam[:, 1], st.z
    z2 = z * z
    d_xcam = np.stack(
        [
            j00 * d_mean0 + d_j02 * (-fx / z2),
            j11 * d_mean1 + d_j12 * (-fy / z2),
            j02 * d_mean0
            + j12 * d_mean1
            + d_j00 * (-fx / z2)
            + d_j11 * (-fy / z2)
            + d_j02 * (2.0 * fx * x / (z2 * z))
            + d_j12 * (2.0 * fy * y / (z2 * z)),
        ],
        axis=1,
    )

    keep_idx = np.flatnonzero(st.keep)
    d_means = np.zeros_like(splats.means)
    d_alphas = np.zeros(len(splats))
    d_sigmas = np.zeros(len(splats))
    d_means[keep_idx] = d_xcam @ view.pose.rotation
    d_alphas[keep_idx] = d_alpha_kept
    d_sigmas[keep_idx] = 2.0 * sigma * tr_d_cov_cam
    return d_means, d_alphas, d_sigmas
