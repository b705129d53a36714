"""Pixel-aligned Gaussian splats from depth probability volumes, a forward
alpha-blending rasterizer at feature (quarter) resolution, the L2 rendering
loss, and rendering-loss-driven refinement of the probability volumes.

One primitive per quarter-res pixel: its center sits on the pixel ray at the
regressed depth, its opacity is the peak probability, its covariance is
sigma^2 I with sigma one pixel footprint at that depth, and its color is the
block-pooled image color.  Splats are isotropic because refinement moves only
depth: no orientation or per-axis scale is ever optimized.
Refinement runs gradient descent on per-pixel plane logits; gradients flow
analytically through softmax -> depth regression -> splat parameters ->
projection -> alpha compositing, which a central finite-difference check can
verify end to end.

Compositing follows 3D Gaussian Splatting (Kerbl et al., SIGGRAPH 2023),
saturation rule included: each pixel blends its (primitive, pixel) pairs
front to back, ordered by (depth, primitive index), and stops once its
transmittance falls below T_MIN = 1e-4; a pair whose incoming transmittance
is below T_MIN adds no colour, alpha, depth or gradient.  Nothing switches
the rule off.

Rendering is split in two.  The forward pass (_render_forward) projects
the primitives, walks them front to back in chunks, and composites each
chunk's pairs, sorted by pixel, on top of a running per-pixel
log-transmittance, skipping the pixels already saturated; `rasterize` and
the refinement loss both run it.  It returns a compact per-view state, the
only per-pair arrays of which are the composited pairs' primitive, pixel
id, Gaussian falloff and transmittance, in (chunk, pixel) order.  The
backward pass (_render_backward) reads that state and recomputes everything
else it needs (alpha_eff, blend weights, pixel offsets) with the forward
pass's own operations on the same operands, so loss and gradients are the
same to the bit as a single fused pass.  The refinement line search asks
for a gradient only when it will use one, so rejected trials and the last
step's trials run the forward pass alone.

The novel views of one refinement evaluation are independent until their
losses and gradients are summed, so they run at once: the first on the
calling thread, each further view on a thread of its own that lives for
that evaluation and runs both its forward and its backward pass (numpy
releases the interpreter lock inside its array operations).  Every pass
computes exactly what it computes alone, and the sums are formed on the
calling thread in view order, so the results are the same to the bit as
one thread running every pass in turn, however the threads interleave.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, fields

import numpy as np

from mvsweep.camera import CameraView, DOWNSAMPLE, EPS_Z, ray_grid
from mvsweep.costvol import DepthPlanes, block_mean, regress_depth, softmax

# Alpha-compositing constants: per-primitive opacity clamp, the saturation
# transmittance (3D Gaussian Splatting's rule: a pair whose incoming
# transmittance is below T_MIN is not composited), support cutoff at 3 sigma
# (power = 0.5 * 3^2), screen-space covariance dilation, and the minimum
# accumulated alpha below which rendered depth is left at 0.
ALPHA_CLAMP = 0.999
T_MIN = 1e-4
LOG_T_MIN = math.log(T_MIN)
POWER_CUTOFF = 4.5
COV_DILATION = 0.3
EPS_ALPHA = 1e-4
# Pairs are gathered in primitive chunks of about this many bbox pixels.
PAIR_CHUNK = 1 << 16


@dataclass
class GaussianSplatSet:
    """Struct-of-arrays collection of isotropic 3D Gaussian primitives: the
    covariance of primitive i is sigmas[i]^2 I."""

    means: np.ndarray  # (N, 3) world centers, meters
    opacities: np.ndarray  # (N,) in [0, 1]
    sigmas: np.ndarray  # (N,) isotropic stddevs, meters, > 0
    colors: np.ndarray  # (N, 3) RGB in [0, 1]
    source_view: np.ndarray  # (N,) provenance view index
    pixel_rows: np.ndarray  # (N,)
    pixel_cols: np.ndarray  # (N,)

    def __post_init__(self):
        n = self.means.shape[0]
        for f in fields(self)[1:]:
            if getattr(self, f.name).shape[0] != n:
                raise ValueError(f"field {f.name} length mismatch")
        if not np.all(self.sigmas > 0):
            raise ValueError("sigmas must be positive")
        if not np.all((self.opacities >= 0) & (self.opacities <= 1)):
            raise ValueError("opacities must lie in [0, 1]")

    def __len__(self) -> int:
        return self.means.shape[0]


def concat_splats(sets: list[GaussianSplatSet]) -> GaussianSplatSet:
    return GaussianSplatSet(
        *[np.concatenate([getattr(s, f.name) for s in sets]) for f in fields(GaussianSplatSet)]
    )


@dataclass
class RenderTarget:
    color: np.ndarray  # (H, W, 3)
    depth: np.ndarray  # (H, W) camera-frame meters, 0 where alpha < EPS_ALPHA
    alpha: np.ndarray  # (H, W) accumulated alpha in [0, 1]


def build_splats(
    view: CameraView,
    probs: np.ndarray,
    planes: DepthPlanes,
    image: np.ndarray,
    footprint_scale: float = 1.0,
    source_index: int = 0,
    rays=None,
) -> GaussianSplatSet:
    """One Gaussian per quarter-res pixel of `view`.

    Center: pixel ray at the regressed depth.  Opacity: the peak plane
    probability.  Sigma: footprint_scale * depth / mean focal length at
    quarter scale (one pixel footprint).  Color: the 4x4 block mean of the
    full-res image, or `image` itself when it is already quarter
    resolution.  `rays`, when given, is the view's quarter-res `ray_grid`,
    computed once by a caller that builds splats for the same view many
    times.
    """
    k, gw, gh = view.scaled(DOWNSAMPLE)
    if probs.shape[:2] != (gh, gw):
        raise ValueError("probability volume does not match the view's feature grid")
    depth = regress_depth(probs, planes)  # (gh, gw)
    origin, dirs, axis_cos = ray_grid(view, DOWNSAMPLE) if rays is None else rays
    means = origin + (depth / axis_cos)[..., None] * dirs
    alphas = probs.max(axis=2)
    f_mean = 0.5 * (k.fx + k.fy)
    sigma = footprint_scale * depth / f_mean
    colors = _quarter(view, np.asarray(image, dtype=np.float64))
    n = gh * gw
    rows, cols = np.meshgrid(np.arange(gh), np.arange(gw), indexing="ij")
    return GaussianSplatSet(
        means=means.reshape(n, 3),
        opacities=alphas.reshape(n),
        sigmas=sigma.reshape(n),
        colors=colors.reshape(n, 3),
        source_view=np.full(n, source_index, dtype=np.int64),
        pixel_rows=rows.reshape(n).astype(np.int64),
        pixel_cols=cols.reshape(n).astype(np.int64),
    )


def _quarter(view: CameraView, image: np.ndarray) -> np.ndarray:
    """`image` at the quarter-res grid of `view`: block-mean pooled unless
    it is already that size."""
    return image if image.shape[0] == view.height // DOWNSAMPLE else block_mean(image)


def _project_gaussians(splats: GaussianSplatSet, view: CameraView):
    """Camera-frame centers, 2D means and 2D covariances for all primitives.

    Returns (keep, x_cam, z, mean2d, cov2d, jac, cov_cam, k, gw, gh) over the
    kept (in-front) primitives.  cov2d is the (a, b, c) triple of the
    symmetric 2D covariance [[a, b], [b, c]], screen-space dilation included;
    jac is (j00, j02, j11, j12), the nonzero entries of the perspective
    Jacobian [[j00, 0, j02], [0, j11, j12]].  Every covariance sum adds its
    terms one at a time in a fixed order; the pinned forward-pass tests hold
    that order fixed.
    """
    k, gw, gh = view.scaled(DOWNSAMPLE)
    r = view.pose.rotation
    x_cam = splats.means @ r.T + view.pose.translation  # (N, 3)
    z = x_cam[:, 2]
    keep = z > EPS_Z
    x_cam = x_cam[keep]
    z = z[keep]
    x, y = x_cam[:, 0], x_cam[:, 1]
    mean2d = np.stack([k.fx * x / z + k.cx, k.fy * y / z + k.cy], axis=1)
    j00 = k.fx / z
    j02 = -k.fx * x / z**2
    j11 = k.fy / z
    j12 = -k.fy * y / z**2

    # cov_cam = R (sigma^2 I) R^T.  Python's sum starts from integer 0, so an
    # entry whose terms are all zero is +0.0, as in the reference's einsum.
    s2 = splats.sigmas[keep] ** 2
    cov_cam = np.empty((z.size, 3, 3))
    for i in range(3):
        for l in range(3):
            cov_cam[:, i, l] = sum((r[i, j] * s2) * r[l, j] for j in range(3))
    # cov2d = J cov_cam J^T over the nonzero Jacobian entries.
    c = cov_cam
    c00 = (
        (j00 * c[:, 0, 0] * j00 + j00 * c[:, 0, 2] * j02)
        + j02 * c[:, 2, 0] * j00 + j02 * c[:, 2, 2] * j02
    ) + COV_DILATION
    c01 = (
        (j00 * c[:, 0, 1] * j11 + j00 * c[:, 0, 2] * j12)
        + j02 * c[:, 2, 1] * j11 + j02 * c[:, 2, 2] * j12
    )
    c11 = (
        (j11 * c[:, 1, 1] * j11 + j11 * c[:, 1, 2] * j12)
        + j12 * c[:, 2, 1] * j11 + j12 * c[:, 2, 2] * j12
    ) + COV_DILATION
    return keep, x_cam, z, mean2d, (c00, c01, c11), (j00, j02, j11, j12), cov_cam, k, gw, gh


def _footprints(mean2d, cov2d, gw, gh):
    """Per primitive: the 3-sigma bbox clipped to the grid, as (x0, y0, nx,
    ny), and the inverse 2D covariance entries (inv00, inv01, inv11)."""
    a, b, c = cov2d
    lam_max = 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    radius = 3.0 * np.sqrt(lam_max)
    x0 = np.maximum(np.ceil(mean2d[:, 0] - radius), 0).astype(np.int64)
    x1 = np.minimum(np.floor(mean2d[:, 0] + radius), gw - 1).astype(np.int64)
    y0 = np.maximum(np.ceil(mean2d[:, 1] - radius), 0).astype(np.int64)
    y1 = np.minimum(np.floor(mean2d[:, 1] + radius), gh - 1).astype(np.int64)
    nx = np.maximum(x1 - x0 + 1, 0)
    ny = np.maximum(y1 - y0 + 1, 0)
    det = a * c - b * b
    return (x0, y0, nx, ny), (c / det, -b / det, a / det)


def _pair_chunk(idx, bbox, mean2d, inv, gw, live=None):
    """The 3-sigma (primitive, pixel) pairs of the primitives `idx`,
    listed primitive by primitive, each bbox row-major: prim, pixel id and
    power.  `live`, when given, is a (gh, gw) mask of the pixels to list:
    bbox rows with no live pixel are dropped, found from the running count
    of live pixels along each grid row, before their pixels are listed."""
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
    # Then the pixels along each row; dy and the dy^2 term of the power are
    # per-row values.
    row_dy = row_y - mean2d[row_prim, 1]
    first_px = np.cumsum(row_n) - row_n
    px = np.repeat(row_x0 - first_px, row_n) + np.arange(row_n.sum())
    pid = np.repeat(row_y * gw, row_n)
    pid += px
    # power = 0.5 * (dx^2 inv00 + 2 dx dy inv01 + dy^2 inv11), formed in place
    # in that order.
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


def _pixel_order(pid, n_px):
    """The stable permutation that sorts pixel ids: numpy's radix sort on
    16-bit keys, one pass when the grid has at most 65,536 pixels, and above
    that a pass over the low 16 bits followed by a stable pass over the high
    16 bits (pixel ids fit 32 bits)."""
    order = np.argsort(pid.astype(np.uint16), kind="stable")
    if n_px > 65536:
        order = order[np.argsort((pid[order] >> 16).astype(np.uint16), kind="stable")]
    return order


def _pixel_chunks(mean2d, z, bbox, inv, gw, gh, log_t):
    """The (primitive, pixel) pairs within the 3-sigma support, front to
    back in chunks, each chunk sorted by pixel.

    One stable argsort of z ranks the primitives by (depth, index); the
    ranked primitives are cut into chunks of about PAIR_CHUNK bbox pixels,
    and each chunk lists its pairs primitive by primitive in rank order, each
    bbox row-major, then sorts them stably by pixel id, in cache.  Every
    pixel's pairs within a chunk therefore run front to back, and chunks
    come front to back, so the chunks in turn give every pixel's pairs in
    (depth, primitive index) order.

    `log_t` (gh*gw,) is the running per-pixel log-transmittance, which the
    caller lowers between chunks: a chunk skips the pixels where it is
    already below log(T_MIN), whose pairs the saturation rule drops anyway.
    All zeros gives every pair.  Empty chunks are not yielded.

    Yields prim, pixel id and power per chunk.
    """
    x0, y0, nx, ny = bbox
    counts = nx * ny
    rank = np.argsort(z, kind="stable")
    idx = rank[counts[rank] > 0]  # on-screen primitives in (depth, index) order
    cum = np.cumsum(counts[idx])
    total = int(cum[-1]) if cum.size else 0
    cuts = np.searchsorted(cum, np.arange(PAIR_CHUNK, total, PAIR_CHUNK), side="right")
    bounds = np.unique(np.r_[0, cuts, idx.size])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        live = (log_t >= LOG_T_MIN).reshape(gh, gw)
        prim, pid, power = _pair_chunk(
            idx[lo:hi], bbox, mean2d, inv, gw, None if live.all() else live
        )
        if pid.size:
            order = _pixel_order(pid, gw * gh)
            yield prim.take(order), pid.take(order), power.take(order)


def _take_into(values, idx, out):
    """values[idx] written into `out`.  The indices are always in range;
    mode="clip" only spares np.take the temporary copy of `out` it makes
    in its default mode."""
    return np.take(values, idx, out=out, mode="clip")


def _opacity(alphas, prim, g):
    """Per-pair alpha_eff = min(opacity * g, ALPHA_CLAMP) and the clamped
    mask.  The forward pass and the backward pass both call this, so the
    backward pass recomputes alpha_eff bit for bit instead of storing it."""
    alpha_eff = alphas.take(prim)
    alpha_eff *= g
    clamped = alpha_eff > ALPHA_CLAMP
    alpha_eff[clamped] = ALPHA_CLAMP
    return alpha_eff, clamped


@dataclass
class _ViewState:
    """What the backward pass reads from one view's forward pass.

    Per kept primitive: the projection (keep mask over all primitives,
    camera-frame centers, depth, 2D means, Jacobian entries, camera-frame
    covariances), the inverse 2D covariance entries, opacities and colours
    (channel-major, (3, n)).  Per composited pair, in (chunk, pixel) order:
    primitive and pixel id (int32, widened where a pass gathers with them),
    Gaussian falloff g and transmittance.  alpha_eff, the blend weight and
    the pixel offsets are recomputed from these with the forward pass's own
    operations, so they are not kept.
    """

    keep: np.ndarray
    x_cam: np.ndarray
    z: np.ndarray
    mean2d: np.ndarray
    jac: tuple
    cov_cam: np.ndarray
    inv: tuple
    alphas: np.ndarray
    colors: np.ndarray
    prim: np.ndarray
    pid: np.ndarray
    g: np.ndarray
    trans: np.ndarray


def _render_forward(splats: GaussianSplatSet, view: CameraView):
    """The forward pass: projection, then front-to-back alpha blending into
    the quarter-res grid of `view`, chunk by chunk, under the saturation
    rule.

    A running per-pixel log-transmittance starts at 0.  Within a chunk's
    pixel-sorted pairs, a pair's incoming log-transmittance is its pixel's
    running value plus the sum of log1p(-alpha_eff) over the pixel's earlier
    pairs in the chunk: the exclusive prefix sum over the chunk less its
    value at the run's first pair.  Each step of that is monotone in its
    rounded operands, so the value never increases along a pixel's pairs,
    and the first pair of a run gets the running value exactly.  A pair
    whose incoming transmittance is below T_MIN is dropped, so each run
    keeps a prefix of its pairs, at least one, since saturated pixels are
    skipped.  The kept pairs are written, in (chunk, pixel) order, straight
    into arrays sized for every bbox pixel, which are then shrunk in place,
    and their colours are added to the image while the chunk is in cache.

    Returns the (n_px, 3) colour image and the _ViewState the backward pass
    and `rasterize` read.
    """
    keep, x_cam, z, mean2d, cov2d, jac, cov_cam, k, gw, gh = _project_gaussians(splats, view)
    alphas = splats.opacities[keep]
    colors = np.ascontiguousarray(splats.colors[keep].T)  # (3, n) for per-channel gathers
    bbox, inv = _footprints(mean2d, cov2d, gw, gh)
    n_px = gh * gw
    total = int(np.sum(bbox[2] * bbox[3]))
    prim = np.empty(total, dtype=np.int32)
    pid = np.empty(total, dtype=np.int32)
    g = np.empty(total)
    trans = np.empty(total)
    log_t = np.zeros(n_px)
    color = np.zeros((n_px, 3))
    n = 0
    for c_prim, c_pid, c_g in _pixel_chunks(mean2d, z, bbox, inv, gw, gh, log_t):
        np.exp(np.negative(c_g, out=c_g), out=c_g)
        alpha_eff = _opacity(alphas, c_prim, c_g)[0]
        log_a = np.log1p(np.negative(alpha_eff))
        new_run = np.ones(c_pid.size, dtype=bool)
        np.not_equal(c_pid[1:], c_pid[:-1], out=new_run[1:])
        start = np.flatnonzero(new_run)
        run_len = np.diff(start, append=c_pid.size)
        run_px = c_pid[start]
        # Incoming log-transmittance: the exclusive prefix sum over the
        # chunk, less its value at the run's start, plus the running value.
        excl = np.empty_like(log_a)
        excl[0] = 0.0
        np.cumsum(log_a[:-1], out=excl[1:])
        excl -= np.repeat(excl[start], run_len)
        excl += np.repeat(log_t[run_px], run_len)
        last = start + run_len - 1
        log_t[run_px] = excl[last] + log_a[last]
        kept = excl >= LOG_T_MIN
        sel = np.flatnonzero(kept)
        m = sel.size
        k_prim, k_pid, k_trans = c_prim.take(sel), c_pid.take(sel), trans[n : n + m]
        prim[n : n + m] = k_prim
        pid[n : n + m] = k_pid
        _take_into(c_g, sel, g[n : n + m])
        _take_into(excl, sel, k_trans)
        w = alpha_eff.take(sel)
        w *= np.exp(k_trans, out=k_trans)
        t = np.empty(m)
        for c, col in enumerate(colors):
            _take_into(col, k_prim, t)
            t *= w
            color[:, c] += np.bincount(k_pid, weights=t, minlength=n_px)
        n += m
    for out in (prim, pid, g, trans):
        out.resize(n, refcheck=False)
    state = _ViewState(
        keep=keep, x_cam=x_cam, z=z, mean2d=mean2d, jac=jac, cov_cam=cov_cam,
        inv=inv, alphas=alphas, colors=colors, prim=prim, pid=pid, g=g, trans=trans,
    )
    return color, state


def rasterize(splats: GaussianSplatSet, view: CameraView) -> RenderTarget:
    """Render the splat set into the quarter-res grid of `view`.

    Primitives behind the camera are culled; each survivor is projected with
    the perspective Jacobian, dilated in screen space, and composited
    front-to-back (depth ties broken by primitive index) within 3 sigma of
    its 2D mean, until the pixel's transmittance falls below T_MIN.
    """
    color, st = _render_forward(splats, view)
    _, gw, gh = view.scaled(DOWNSAMPLE)
    n_px = gh * gw
    prim, pid = st.prim.astype(np.intp), st.pid.astype(np.intp)
    w = _opacity(st.alphas, prim, st.g)[0]
    w *= st.trans
    acc = np.bincount(pid, weights=w, minlength=n_px)
    depth_num = np.bincount(pid, weights=w * st.z.take(prim), minlength=n_px)
    depth = np.where(acc > EPS_ALPHA, depth_num / np.maximum(acc, EPS_ALPHA), 0.0)
    return RenderTarget(
        color=color.reshape(gh, gw, 3), depth=depth.reshape(gh, gw), alpha=acc.reshape(gh, gw)
    )


def rendering_loss(rendered: RenderTarget, target_image: np.ndarray) -> float:
    """Mean squared color error over pixels and channels."""
    if rendered.color.shape != target_image.shape:
        raise ValueError("rendered/target shape mismatch")
    diff = rendered.color - target_image
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# analytic backward pass and refinement
# ---------------------------------------------------------------------------


def _render_backward(splats: GaussianSplatSet, view: CameraView, st: _ViewState, d_color):
    """The backward pass of one view's L2 rendering loss from its forward
    state `st` and dL/d(colour image) `d_color` (n_px, 3).

    Returns (d_means (N, 3), d_alphas (N,), d_sigmas (N,)).

    The colour gradient is constant over a pixel's pairs, so the colour
    that later pairs blend in enters as one scalar suffix sum of
    w * (d_color . colour).  The forward state lists pairs in (chunk,
    pixel) order, so that suffix is the rest of the pair's run plus the
    totals of its pixel's runs in later chunks, which a backward walk over
    the run totals gives; no per-pair gather or scatter into pixel order is
    needed.  Pairs the saturation rule dropped are not in the state and
    contribute nothing.  Per-pair terms are summed per primitive as moments
    of the pixel offsets, which the primitive's inverse covariance P then
    maps in closed form: d_mean2d = P m and d_cov2d = P M P / 2, with m and
    M the first and (symmetric) second moments.

    alpha_eff and w come from _opacity and the stored transmittance, and
    the pixel offsets from the pixel id and the 2D mean, with the forward
    pass's own operations, so the gradients do not depend on what the
    forward pass kept.  Products are formed in place; each is a product of
    the same two operands as in a direct evaluation.
    """
    # The pass consumes `st`: each per-pair array it holds is released right
    # after its last read.
    k, gw, gh = view.scaled(DOWNSAMPLE)
    prim = st.prim.astype(np.intp)
    pid, g, trans = st.pid, st.g, st.trans  # pid stays int32
    st.prim = st.pid = st.g = st.trans = None

    # q = d_color . colour per pair, summed from 0 one channel at a time, in
    # cache-sized slices.
    q = np.zeros(prim.size)
    for lo in range(0, prim.size, PAIR_CHUNK):
        p_idx = prim[lo : lo + PAIR_CHUNK]
        x_idx = pid[lo : lo + PAIR_CHUNK].astype(np.intp)
        for dc, col in zip(d_color.T, st.colors):
            t = dc.take(x_idx)
            t *= col.take(p_idx)
            q[lo : lo + PAIR_CHUNK] += t
    # Its blend-weighted suffix over the pixel's later pairs is the colour
    # arriving from behind the pair.  A run is a maximal stretch of one
    # pixel's pairs, and a group a maximal stretch of runs with increasing
    # pixel ids (a chunk, or chunks whose pixel ranges follow on).  Groups
    # run front to back and hold each pixel at most once, so the suffix is
    # the rest of the pair's run plus the totals of its pixel's runs in
    # later groups, summed group by group from the back.
    wq, clamped = _opacity(st.alphas, prim, g)
    wq *= trans
    wq *= q
    # u = dL/d(opacity) per pair = g * dL/d(alpha_eff) off the clamp, with
    # dL/d(alpha_eff) = trans * q - suffix / (1 - alpha_eff); its first
    # product is formed now so that trans is released before the suffix.
    u = q
    u *= trans
    del trans
    new_run = np.ones(pid.size, dtype=bool)
    np.not_equal(pid[1:], pid[:-1], out=new_run[1:])
    start = np.flatnonzero(new_run)
    del new_run
    run_len = np.diff(start, append=pid.size)
    run_total = np.add.reduceat(wq, start) if wq.size else wq
    run_px = pid[start]
    bounds = np.r_[0, np.flatnonzero(run_px[1:] < run_px[:-1]) + 1, start.size]
    later = np.empty(start.size)
    behind = np.zeros(gh * gw)
    for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
        px = run_px[lo:hi]
        later[lo:hi] = behind[px]
        behind[px] += run_total[lo:hi]
    del run_total, behind, run_px
    csum = np.cumsum(wq, out=wq)
    later += csum[start + run_len - 1]
    suffix = np.repeat(later, run_len)
    suffix -= csum
    del later, csum, wq
    one_minus = _opacity(st.alphas, prim, g)[0]
    suffix /= np.subtract(1.0, one_minus, out=one_minus)
    u -= suffix
    del one_minus, suffix
    u *= g
    u[clamped] = 0.0
    del g, clamped

    n_kept = st.z.size
    alphas = st.alphas
    d_alpha_kept = np.bincount(prim, weights=u, minlength=n_kept)
    # dL/dpower = -opacity * u; moments of that over each primitive's pairs,
    # with the offsets dx, dy of each pair from its primitive's 2D mean.
    d = np.empty(prim.size)
    dx = np.subtract(pid % gw, _take_into(st.mean2d[:, 0], prim, d), out=d)
    ux = u * dx
    m_x = alphas * np.bincount(prim, weights=ux, minlength=n_kept)
    dx *= ux
    m_xx = alphas * np.bincount(prim, weights=dx, minlength=n_kept)
    dy = np.subtract(pid // gw, _take_into(st.mean2d[:, 1], prim, d), out=d)
    ux *= dy
    m_xy = alphas * np.bincount(prim, weights=ux, minlength=n_kept)
    del ux
    uy = u
    uy *= dy
    m_y = alphas * np.bincount(prim, weights=uy, minlength=n_kept)
    dy *= uy
    m_yy = alphas * np.bincount(prim, weights=dy, minlength=n_kept)

    inv00, inv01, inv11 = st.inv
    d_mean0 = inv00 * m_x + inv01 * m_y
    d_mean1 = inv01 * m_x + inv11 * m_y
    d_cov00 = 0.5 * (inv00 * inv00 * m_xx + 2.0 * inv00 * inv01 * m_xy + inv01 * inv01 * m_yy)
    d_cov01 = 0.5 * (
        inv00 * inv01 * m_xx + (inv00 * inv11 + inv01 * inv01) * m_xy + inv01 * inv11 * m_yy
    )
    d_cov11 = 0.5 * (inv01 * inv01 * m_xx + 2.0 * inv01 * inv11 * m_xy + inv11 * inv11 * m_yy)

    # Projection backward through cov2d = J C J^T + dilation and mean2d, with
    # J = [[j00, 0, j02], [0, j11, j12]]: d_jac = 2 D J C, d_cov_cam = J^T D J.
    j00, j02, j11, j12 = st.jac
    cov_cam = st.cov_cam
    jc0 = j00[:, None] * cov_cam[:, 0] + j02[:, None] * cov_cam[:, 2]  # row 0 of J C
    jc1 = j11[:, None] * cov_cam[:, 1] + j12[:, None] * cov_cam[:, 2]  # row 1 of J C
    d_j00 = 2.0 * (d_cov00 * jc0[:, 0] + d_cov01 * jc1[:, 0])
    d_j02 = 2.0 * (d_cov00 * jc0[:, 2] + d_cov01 * jc1[:, 2])
    d_j11 = 2.0 * (d_cov01 * jc0[:, 1] + d_cov11 * jc1[:, 1])
    d_j12 = 2.0 * (d_cov01 * jc0[:, 2] + d_cov11 * jc1[:, 2])
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

    sigma = splats.sigmas[st.keep]
    keep_idx = np.flatnonzero(st.keep)
    d_means = np.zeros_like(splats.means)
    d_alphas = np.zeros(len(splats))
    d_sigmas = np.zeros(len(splats))
    d_means[keep_idx] = d_xcam @ view.pose.rotation  # R^T applied row-wise
    d_alphas[keep_idx] = d_alpha_kept
    d_sigmas[keep_idx] = 2.0 * sigma * tr_d_cov_cam
    return d_means, d_alphas, d_sigmas


def _view_forward(splats: GaussianSplatSet, view: CameraView, image: np.ndarray):
    """One novel view's forward pass against its quarter-res target: the L2
    loss, the _ViewState and dL/d(colour image) (n_px, 3)."""
    color, state = _render_forward(splats, view)
    _, gw, gh = view.scaled(DOWNSAMPLE)
    diff = color.reshape(gh, gw, 3) - image
    return float(np.mean(diff * diff)), state, (2.0 / diff.size) * diff.reshape(-1, 3)


def _per_view(pools, fn, view_args):
    """fn(*args) for each view's args, in view order: the first view's on
    the calling thread and each further view's on its own pool's thread,
    all at once."""
    futures = [pool.submit(fn, *args) for pool, args in zip(pools, view_args[1:])]
    return [fn(*args) for args in view_args[:1]] + [f.result() for f in futures]


def refinement_loss_and_grad(
    logits: list[np.ndarray],
    planes: DepthPlanes,
    source_views: list[CameraView],
    source_images: list[np.ndarray],
    novel_views: list[CameraView],
    novel_images: list[np.ndarray],
    footprint_scale: float = 1.0,
    max_loss: float = math.inf,
    source_rays: list | None = None,
):
    """Summed rendering loss over the novel views and, when the loss is at
    most `max_loss`, its analytic gradient with respect to the per-pixel
    plane logits of every source view; (loss, grads) or (loss, None).

    novel_images must already be quarter resolution; source_images may be
    full or quarter resolution.  source_rays, when given, holds each source
    view's quarter-res `ray_grid`.  The gradient chains softmax -> (depth
    regression, peak-probability opacity) -> splat center and footprint ->
    projection -> alpha compositing.

    The forward pass runs once per novel view and keeps that view's compact
    _ViewState; the backward passes run from those states only once the
    summed loss is known to be at most `max_loss`, each state dropped as
    its pass consumes it.  There is never a second forward pass, and loss
    and gradient are the same to the bit whatever `max_loss` is.

    The views' passes run at once: the first view's on the calling thread,
    each further view's on a thread of its own that lives for this call,
    which runs both that view's forward and its backward pass.  Losses and
    gradients are summed here in view order, so they are the same to the
    bit as one thread running every pass in turn.
    """
    if source_rays is None:
        source_rays = [ray_grid(v, DOWNSAMPLE) for v in source_views]
    probs = [softmax(lg) for lg in logits]
    sets = [
        build_splats(v, p, planes, img, footprint_scale, source_index=i, rays=rays)
        for i, (v, p, img, rays) in enumerate(zip(source_views, probs, source_images, source_rays))
    ]
    splats = concat_splats(sets)

    with ExitStack() as stack:
        pools = [
            stack.enter_context(ThreadPoolExecutor(max_workers=1)) for _ in novel_views[1:]
        ]
        passes = _per_view(pools, _view_forward, [
            (splats, view, img) for view, img in zip(novel_views, novel_images)
        ])
        total_loss = 0.0
        for loss, _, _ in passes:
            total_loss += loss
        if not np.isfinite(total_loss):
            raise ValueError("rendering loss is not finite")
        if not total_loss <= max_loss:
            return total_loss, None
        view_grads = _per_view(pools, _render_backward, [
            (splats, view, state, d_color) for view, (_, state, d_color) in zip(novel_views, passes)
        ])

    d_means = np.zeros_like(splats.means)
    d_alphas = np.zeros(len(splats))
    d_sigmas = np.zeros(len(splats))
    for dm, da, ds in view_grads:
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
        # depth -> (center along ray, isotropic footprint)
        d_depth = (
            np.einsum("hwc,hwc->hw", dm, dirs) / axis_cos + ds * footprint_scale / f_mean
        )
        # softmax VJP: upstream on B is d_depth * plane + da on the argmax bin
        up = d_depth[..., None] * planes.depths[None, None, :]
        arg = p.argmax(axis=2)
        rows, cols = np.meshgrid(np.arange(gh), np.arange(gw), indexing="ij")
        up_max = np.zeros_like(up)
        up_max[rows, cols, arg] = da
        up = up + up_max
        inner = (up * p).sum(axis=2, keepdims=True)
        grads.append(p * (up - inner))
    return total_loss, grads


@dataclass
class RefinementResult:
    volumes: list[np.ndarray]  # refined probability volumes per source view
    loss_trace: list[float]  # initial loss followed by one entry per step


def refine_probability_volume(
    volumes: list[np.ndarray],
    planes: DepthPlanes,
    source_views: list[CameraView],
    source_images: list[np.ndarray],
    novel_views: list[CameraView],
    novel_images: list[np.ndarray],
    steps: int,
    step_size: float,
    footprint_scale: float = 1.0,
) -> RefinementResult:
    """Gradient-descent refinement of probability volumes under the summed
    novel-view rendering loss.

    Optimizes per-pixel plane logits (softmax keeps every volume normalized
    by construction).  Each step moves against the gradient, scaled so the
    largest logit update equals the step size, and is accepted only if the
    loss does not increase; otherwise the step is halved, up to 8 times.
    When no halving helps the remaining steps are skipped (the trace repeats
    the stalled loss so its length stays steps + 1).

    Each trial is one refinement_loss_and_grad call with max_loss set to
    the last kept loss, which is exactly the acceptance rule: a rejected
    trial runs no backward pass, and a kept one gets its gradient from the
    forward state of that same call.  The last step's gradient is never
    read, so its trials pass max_loss=-inf.  The quarter-res colours and
    ray grids of the views are computed once, not per evaluation.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not novel_views:
        raise ValueError("need at least one novel view")
    if len(novel_views) != len(novel_images):
        raise ValueError("novel views/images mismatch")
    # Per-view constants, computed once for every evaluation.
    novel_quarter = [_quarter(v, img) for v, img in zip(novel_views, novel_images)]
    source_quarter = [
        _quarter(v, np.asarray(img, dtype=np.float64)) for v, img in zip(source_views, source_images)
    ]
    source_rays = [ray_grid(v, DOWNSAMPLE) for v in source_views]
    logits = [np.log(np.clip(v, 1e-12, None)) for v in volumes]

    def evaluate(lgs, max_loss):
        return refinement_loss_and_grad(
            lgs, planes, source_views, source_quarter, novel_views, novel_quarter,
            footprint_scale, max_loss=max_loss, source_rays=source_rays,
        )

    loss, grads = evaluate(logits, math.inf)
    trace = [loss]
    for step in range(steps):
        # A trial's gradient is read only if the trial is kept and another
        # step follows, so the backward pass runs only then.
        max_loss = trace[-1] if step + 1 < steps else -math.inf
        gmax = max(float(np.max(np.abs(g))) for g in grads)
        if gmax == 0.0:
            trace.extend([trace[-1]] * (steps + 1 - len(trace)))
            break
        direction = [g / gmax for g in grads]
        lr = step_size
        accepted = False
        for _ in range(9):  # initial step plus up to 8 halvings
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
    return RefinementResult(volumes=[softmax(lg) for lg in logits], loss_trace=trace)
