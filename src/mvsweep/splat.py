"""Pixel-aligned Gaussian splats from depth probability volumes, a forward
alpha-blending rasterizer at feature (quarter) resolution, and refinement of
the probability volumes driven by the L2 rendering loss.

One primitive per quarter-res pixel: its center sits on the pixel ray at the
regressed depth, its opacity is the peak probability, its covariance is
sigma^2 I with sigma one pixel footprint at that depth, and its color is the
block-pooled image color.  Splats are isotropic because refinement moves only
depth: no orientation or per-axis scale is ever optimized, and sigma^2 I stays
sigma^2 I in every camera frame, so its 2D covariance is sigma^2 J J^T (J the
perspective Jacobian) plus a screen-space dilation.
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

Rendering is split in two.  The forward pass (_render_forward) projects the
primitives, walks them front to back in chunks, and composites each chunk's
pairs, sorted by pixel, on top of a running per-pixel log-transmittance,
skipping the pixels already saturated; `rasterize` and the refinement loss
both run it.  For `rasterize` the same walk sums each pixel's alpha and
depth from the blend weights it composites with, and hands on nothing
else.  For the refinement it hands on only its chunk records: for each
chunk, front to back, its composited pairs' primitive and transmittance, in
pixel order, and the pixel id and pair count of each pixel's run of them,
12 bytes per pair and 8 per run.  No per-primitive array is handed on: the
backward pass (_render_backward) forms the depths, 2D means, inverse 2D
covariances, opacities and colours again with the forward pass's own
operations (_primitives), then walks the chunk records back to front, as 3D
Gaussian Splatting walks each pixel's list, with a running per-pixel total
of the colour arriving from behind, so no per-pair array of it spans more
than one chunk.  Like 3D Gaussian Splatting's backward pass it recomputes
each pair's Gaussian falloff from the pixel offset and the inverse 2D
covariance instead of storing it, and it recomputes everything else it needs
(pixel ids, alpha_eff, blend weights, pixel offsets) too; after the chunks
it reprojects the camera-frame centers and Jacobian entries.  It always uses
the forward pass's own operations on the same operands, so loss and
gradients are the same to the bit as a single fused pass over the same
chunks.  The refinement holds no probability volume through its passes: it
forms each view's probabilities from the logits to build the splats, and
again for the softmax VJP.  The refinement line search asks for a gradient
only when it will use one, so rejected trials and the last step's trials run
the forward pass alone.

The novel views of one refinement evaluation are independent until their
losses and gradients are summed, so they run at once: the first on the
calling thread and each further view on a pool with one worker thread per
further view, which lives for that evaluation (numpy releases the
interpreter lock inside its array operations).  With 3 or more novel views
a view's backward pass may run on another worker than its forward pass;
the pass reads only the splats, the view and the chunk records it is
handed.  Every pass computes exactly what it computes alone, and the sums
are formed on the calling thread in view order, so the results are the
same to the bit as one thread running every pass in turn, however the
threads interleave.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial

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
# The largest magnitude of a splat's center coordinate or sigma, in meters,
# which build_splats and the splat loader hold to.  At 1e10 a splat seen
# from just in front of the default camera (depth 2e-6) keeps its 2D
# covariance, that covariance's determinant and its pixel bounds (below
# 1e18, inside int64) finite; at 1e200 they overflow.
MAX_SPLAT_MAGNITUDE = 1e10


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
    footprint_scale: float,
    source_index: int = 0,
    rays=None,
) -> GaussianSplatSet:
    """One Gaussian per quarter-res pixel of `view`.

    Center: pixel ray at the regressed depth.  Opacity: the peak plane
    probability.  Sigma: footprint_scale * depth / mean focal length at
    quarter scale (one pixel footprint).  Color: the 4x4 block mean of the
    full-res image, or `image` itself when it is already quarter
    resolution.  `rays`, when given, is the view's quarter-res `ray_grid`,
    formed by a caller that reads it again (the refinement's softmax VJP).
    A footprint_scale that is not finite and > 0, or that gives a sigma
    above MAX_SPLAT_MAGNITUDE (see check_sigma_bound), is a ValueError
    that names it.
    """
    _check_positive(footprint_scale=footprint_scale)
    _, gw, gh = view.scaled(DOWNSAMPLE)
    if probs.shape[:2] != (gh, gw):
        raise ValueError("probability volume does not match the view's feature grid")
    depth = regress_depth(probs, planes)  # (gh, gw)
    origin, dirs, axis_cos = ray_grid(view) if rays is None else rays
    means = origin + (depth / axis_cos)[..., None] * dirs
    alphas = probs.max(axis=2)
    check_sigma_bound(view, footprint_scale, depth.max())
    sigma = footprint_scale * depth / _mean_focal(view)
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


def _mean_focal(view: CameraView) -> float:
    """The mean of `view`'s quarter-res focal lengths: a splat at depth d has
    sigma footprint_scale * d over it, one quarter-res pixel's footprint."""
    k, _, _ = view.scaled(DOWNSAMPLE)
    return 0.5 * (k.fx + k.fy)


def check_sigma_bound(view: CameraView, footprint_scale: float, depth_max: float,
                      name: str = "footprint_scale") -> None:
    """Raise a ValueError naming the field `name` when `view`'s splats at
    depths up to depth_max would have sigmas above MAX_SPLAT_MAGNITUDE."""
    # The largest sigma, formed as build_splats forms a sigma but in Python
    # floats, which overflow to inf without a warning.
    sigma_max = float(footprint_scale) * float(depth_max) / float(_mean_focal(view))
    if sigma_max > MAX_SPLAT_MAGNITUDE:
        raise ValueError(f"{name}={footprint_scale!r} gives splat sigmas up to "
                         f"{sigma_max:g}, more than {MAX_SPLAT_MAGNITUDE:g}")


def _quarter(view: CameraView, image: np.ndarray) -> np.ndarray:
    """`image` at the quarter-res grid of `view`: block-mean pooled unless
    it is already that size."""
    return image if image.shape[0] == view.height // DOWNSAMPLE else block_mean(image)


def _project_gaussians(splats: GaussianSplatSet, view: CameraView):
    """Camera-frame centers, 2D means and 2D covariances for all primitives.

    Returns (keep, x_cam, z, mean2d, cov2d, jac, k, gw, gh) over the kept
    (in-front) primitives.  jac is (j00, j02, j11, j12), the nonzero entries
    of the perspective Jacobian J = [[j00, 0, j02], [0, j11, j12]].  A
    covariance sigma^2 I keeps that form under any rotation, so cov2d is
    sigma^2 J J^T plus the screen-space dilation, as the (a, b, c) triple of
    the symmetric 2D covariance [[a, b], [b, c]].
    """
    k, gw, gh = view.scaled(DOWNSAMPLE)
    x_cam = splats.means @ view.pose.rotation.T + view.pose.translation  # (N, 3)
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
    s2 = splats.sigmas[keep] ** 2
    c00 = s2 * (j00 * j00 + j02 * j02) + COV_DILATION
    c01 = s2 * (j02 * j12)
    c11 = s2 * (j11 * j11 + j12 * j12) + COV_DILATION
    return keep, x_cam, z, mean2d, (c00, c01, c11), (j00, j02, j11, j12), k, gw, gh


def _footprints(mean2d, cov2d, gw, gh):
    """Per primitive: the 3-sigma bbox clipped to the grid, as (x0, y0, nx,
    ny), and the inverse 2D covariance entries (inv00, inv01, inv11).

    A covariance whose determinant a c - b^2 is not finite and positive (it
    cancels to 0 for a splat far off-axis in both x and y) gets an empty
    bbox and zero inverse entries, so it covers no pixel and its gradient is
    0.  Bbox corners are clipped to the grid before the integer cast."""
    a, b, c = cov2d
    det = a * c - b * b
    ok = np.isfinite(det) & (det > 0)
    a, b, c, det = (np.where(ok, v, 1.0) for v in (a, b, c, det))
    lam_max = 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    radius = 3.0 * np.sqrt(lam_max)
    x0 = np.clip(np.ceil(mean2d[:, 0] - radius), 0, gw).astype(np.int64)
    x1 = np.clip(np.floor(mean2d[:, 0] + radius), -1, gw - 1).astype(np.int64)
    y0 = np.clip(np.ceil(mean2d[:, 1] - radius), 0, gh).astype(np.int64)
    y1 = np.clip(np.floor(mean2d[:, 1] + radius), -1, gh - 1).astype(np.int64)
    nx = np.maximum(x1 - x0 + 1, 0) * ok
    ny = np.maximum(y1 - y0 + 1, 0) * ok
    return (x0, y0, nx, ny), (c / det * ok, -b / det * ok, a / det * ok)


def _pair_chunk(idx, bbox, mean2d, inv, live):
    """The 3-sigma (primitive, pixel) pairs of the primitives `idx` on the
    pixels of the mask `live`, whose shape is the (gh, gw) grid's, listed
    primitive by primitive, each bbox row-major, then sorted stably by
    pixel id: prim, pixel id and power.  Bbox rows with no live pixel are
    dropped, found from the running count of live pixels along each grid
    row, before their pixels are listed; with every pixel live, every row
    and every pair is kept, in order."""
    x0, y0, nx, ny = bbox
    inv00, inv01, inv11 = inv
    gw = live.shape[1]
    row_prim = np.repeat(idx, ny[idx])
    first_row = np.cumsum(ny[idx]) - ny[idx]
    row_y = np.repeat(y0[idx] - first_row, ny[idx]) + np.arange(row_prim.size)
    row_x0 = x0[row_prim]
    row_n = nx[row_prim]
    live_cum = np.zeros((live.shape[0], gw + 1), dtype=np.int64)
    np.cumsum(live, axis=1, out=live_cum[:, 1:])
    at = row_y * (gw + 1) + row_x0  # each bbox row's first pixel in live_cum
    rows = np.flatnonzero(live_cum.take(at + row_n) > live_cum.take(at))
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
    inside &= live.take(pid)
    sel = np.flatnonzero(inside)
    sel = sel.take(_pixel_order(pid.take(sel), live.size))
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
    already below log(T_MIN), whose pairs the saturation rule drops anyway:
    each chunk is listed over the mask of the pixels still live.  All zeros
    gives every pair.

    Yields prim, pixel id and power per chunk, which may list no pair (all
    its pixels saturated, say).  The generator keeps no reference to a
    chunk it has yielded.
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
        yield _pair_chunk(idx[lo:hi], bbox, mean2d, inv, live)


def _runs(pid):
    """The start and the length of each run of the pair pixel ids `pid`: a
    maximal stretch of one pixel's pairs."""
    new_run = np.ones(pid.size, dtype=bool)
    np.not_equal(pid[1:], pid[:-1], out=new_run[1:])
    start = np.flatnonzero(new_run)
    del new_run
    return start, np.diff(start, append=pid.size)


def _opacity(alphas, prim, g):
    """Per-pair alpha_eff = min(opacity * g, ALPHA_CLAMP) and the clamped
    mask.  The forward pass and the backward pass both call this, so the
    backward pass recomputes alpha_eff bit for bit instead of storing it."""
    alpha_eff = alphas.take(prim)
    alpha_eff *= g
    clamped = alpha_eff > ALPHA_CLAMP
    alpha_eff[clamped] = ALPHA_CLAMP
    return alpha_eff, clamped


def _composite_chunk(alphas, colors, z, log_t, color, sums, listing):
    """Composite one chunk's pixel-sorted pairs `listing` (prim, pixel id,
    power) under the saturation rule: lower the running log-transmittance
    `log_t` (n_px,) and add the kept pairs' colours into `color` (n_px, 3).
    `sums`, when not None, is (alpha, depth numerator), each (n_px,): the
    kept pairs' blend weights w and w * z are added into them with
    np.add.at, which adds each pixel's pairs in turn, front to back.

    Without `sums`, returns the chunk's record (prim, run_px, run_len,
    trans) of its composited pairs in pixel order, which the backward pass
    reads: each pair's primitive (int32) and transmittance, and the pixel
    id and pair count of each run, one pixel's pairs (int32), 12 bytes per
    pair and 8 per run.  With `sums`, or when the chunk lists no pair, it
    returns None.  The listing and every per-pair temporary die on return.
    """
    prim, pid, g = listing
    if not pid.size:
        return None
    np.exp(np.negative(g, out=g), out=g)
    alpha_eff = _opacity(alphas, prim, g)[0]
    log_a = np.log1p(np.negative(alpha_eff))
    start, run_len = _runs(pid)
    run_px = pid[start]
    # Incoming log-transmittance: the exclusive prefix sum over the chunk,
    # less its value at the run's start, plus the running value.
    excl = np.empty_like(log_a)
    excl[0] = 0.0
    np.cumsum(log_a[:-1], out=excl[1:])
    excl -= np.repeat(excl[start], run_len)
    excl += np.repeat(log_t[run_px], run_len)
    last = start + run_len - 1
    log_t[run_px] = excl[last] + log_a[last]
    kept = excl >= LOG_T_MIN
    sel = np.flatnonzero(kept)
    k_prim, k_pid = prim.take(sel), pid.take(sel)
    trans = np.exp(excl.take(sel))
    w = alpha_eff.take(sel)
    w *= trans
    t = np.empty(sel.size)
    for c, col in enumerate(colors):
        # The indices are in range; mode="clip" only spares np.take the
        # temporary copy of `out` it makes in its default mode.
        np.take(col, k_prim, out=t, mode="clip")
        t *= w
        color[:, c] += np.bincount(k_pid, weights=t, minlength=log_t.size)
    if sums is not None:
        np.add.at(sums[0], k_pid, w)
        w *= z.take(k_prim)
        np.add.at(sums[1], k_pid, w)
        return None
    # Each run keeps a prefix of its pairs, at least one: its kept length.
    return (k_prim.astype(np.int32), run_px.astype(np.int32),
            np.add.reduceat(kept, start, dtype=np.int32), trans)


def _primitives(splats: GaussianSplatSet, view: CameraView):
    """Per kept (in-front) primitive, what the passes read: (keep, z, mean2d,
    inv, alphas, colors, bbox), the keep mask over all primitives, depth, 2D
    mean, inverse 2D covariance, opacity, colour (channel-major, (3, n), for
    per-channel gathers) and the bbox of _footprints, which only the forward
    pass reads.  Both passes call it, so the backward pass gets the forward
    pass's bits without either pass handing them on; the camera-frame
    centers, Jacobian entries and 2D covariances die here."""
    keep, _, z, mean2d, cov2d, _, _, gw, gh = _project_gaussians(splats, view)
    bbox, inv = _footprints(mean2d, cov2d, gw, gh)
    colors = np.ascontiguousarray(splats.colors[keep].T)
    return keep, z, mean2d, inv, splats.opacities[keep], colors, bbox


def _pairs(mean2d, inv, prim, run_px, run_len, gw):
    """A chunk record's pairs, for the backward pass: primitive and pixel id
    (intp), the pixel's offsets dx, dy from the primitive's 2D mean, and the
    falloff g, from the record and the 2D means and inverse 2D covariances
    of _primitives.  g is recomputed with _pair_chunk's operations on the
    same operands in its order, dx^2 inv00 + ((2 dx) dy) inv01 + dy^2
    inv11, halved, then exp(-power), so it has the bits the forward pass
    composited with."""
    prim = prim.astype(np.intp)
    pid = np.repeat(run_px.astype(np.intp), run_len)
    dx = np.subtract(np.repeat(run_px % gw, run_len), mean2d[:, 0].take(prim))
    dy = np.subtract(np.repeat(run_px // gw, run_len), mean2d[:, 1].take(prim))
    g = np.square(dx)
    g *= inv[0].take(prim)
    t = np.multiply(dx, 2.0)
    t *= dy
    t *= inv[1].take(prim)
    g += t
    np.square(dy, out=t)
    t *= inv[2].take(prim)
    g += t
    g *= 0.5
    np.exp(np.negative(g, out=g), out=g)
    return prim, pid, dx, dy, g


def _render_forward(splats: GaussianSplatSet, view: CameraView, sums=None):
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
    skipped; its pixel id and kept length stand for the pixel ids of its
    pairs.  Each chunk's colours are added to the image while the chunk is
    in cache; nothing is allocated per bbox pixel of the whole view.  map
    hands each chunk's listing to _composite_chunk and keeps no reference
    to it, so it dies before the next chunk is listed.

    `sums`, which only `rasterize` passes, holds its alpha and depth
    numerator accumulators, each (n_px,): each chunk adds its kept pairs'
    blend weights into them in the same walk (see _composite_chunk) and
    builds no record.  The refinement passes none, so its passes sum
    nothing more.

    Returns the (n_px, 3) colour image and the list of chunk records, front
    to back, that _composite_chunk built (empty with `sums`): all that the
    backward pass reads from this pass.  The per-primitive arrays die on
    return.
    """
    _, gw, gh = view.scaled(DOWNSAMPLE)
    _, z, mean2d, inv, alphas, colors, bbox = _primitives(splats, view)
    log_t = np.zeros(gh * gw)
    color = np.zeros((gh * gw, 3))
    composite = partial(_composite_chunk, alphas, colors, z, log_t, color, sums)
    listings = _pixel_chunks(mean2d, z, bbox, inv, gw, gh, log_t)
    return color, [c for c in map(composite, listings) if c]


def rasterize(splats: GaussianSplatSet, view: CameraView) -> RenderTarget:
    """Render the splat set into the quarter-res grid of `view`.

    Primitives behind the camera are culled; each survivor is projected with
    the perspective Jacobian, dilated in screen space, and composited
    front-to-back (depth ties broken by primitive index) within 3 sigma of
    its 2D mean, until the pixel's transmittance falls below T_MIN.
    Accumulated alpha and depth are summed in the forward pass's one walk,
    chunk by chunk with np.add.at, which adds each pixel's pairs in turn
    from 0, front to back, from the blend weights the colour is composited
    with; the pairs are not walked a second time.
    """
    _, gw, gh = view.scaled(DOWNSAMPLE)
    acc = np.zeros(gh * gw)
    depth_num = np.zeros(gh * gw)
    color, _ = _render_forward(splats, view, (acc, depth_num))
    depth = np.where(acc > EPS_ALPHA, depth_num / np.maximum(acc, EPS_ALPHA), 0.0)
    return RenderTarget(
        color=color.reshape(gh, gw, 3), depth=depth.reshape(gh, gw), alpha=acc.reshape(gh, gw)
    )


# ---------------------------------------------------------------------------
# analytic backward pass and refinement
# ---------------------------------------------------------------------------


def _render_backward(splats: GaussianSplatSet, view: CameraView, chunks: list, d_color):
    """The backward pass of one view's L2 rendering loss from the chunk
    records `chunks` of its forward pass over `splats` and dL/d(colour
    image) `d_color` (n_px, 3).

    Returns (d_means (N, 3), d_alphas (N,), d_sigmas (N,)).

    The forward pass hands on nothing per primitive: _primitives forms the
    kept primitives' depths, 2D means, inverse 2D covariances, opacities and
    colours again, with the forward pass's operations on the same operands,
    so they have its bits.

    The colour gradient is constant over a pixel's pairs, so the colour
    that later pairs blend in enters as one scalar suffix sum of
    w * (d_color . colour).  The pass walks the chunk records back to
    front, as 3D Gaussian Splatting walks each pixel's list, popping each
    off the list: within a chunk, a pair's suffix is the rest of its
    run (one pixel's pairs) from the chunk's own cumulative sum, plus
    `behind`, a running per-pixel total of the chunks already walked, to
    which the chunk's run totals are then added.  No per-pair array spans
    more than one chunk.  Pairs the saturation rule dropped are not in the
    records and contribute nothing.  Per-pair terms are summed per
    primitive as moments of the pixel offsets, which the primitive's
    inverse covariance P then maps in closed form: d_mean2d = P m and
    d_cov2d = P M P / 2, with m and M the first and (symmetric) second
    moments.  Every primitive's pairs lie in one chunk, so adding each
    chunk's per-primitive sums to those of the others is exact.

    Each chunk record's runs give its pixel ids and run ends; _pairs
    recomputes the pixel offsets and the falloff g, and alpha_eff and w
    come from _opacity and the recorded transmittance, all with the
    forward pass's own operations, so the gradients do not depend on what
    the forward pass kept.  Products are formed in place; each is a
    product of the same two operands as in a direct evaluation.  After the
    chunks, _project_gaussians reprojects the camera-frame centers and
    Jacobian entries, which _primitives dropped, with the same operations
    on the same operands, so they have the forward pass's bits.
    """
    k, gw, gh = view.scaled(DOWNSAMPLE)
    keep, z, mean2d, inv, alphas, colors = _primitives(splats, view)[:6]  # the bboxes die here
    n_kept = z.size
    # Per kept primitive: dL/d(opacity), then the sums over its pairs of
    # u dx, u dx^2, u dx dy, u dy and u dy^2 (see below).
    sums = np.zeros((6, n_kept))
    behind = np.zeros(gh * gw)
    while chunks:
        prim, run_px, run_len, trans = chunks.pop()
        prim, pid, dx, dy, g = _pairs(mean2d, inv, prim, run_px, run_len, gw)
        # q = d_color . colour per pair, summed from 0 one channel at a time.
        q = np.zeros(prim.size)
        for dc, col in zip(d_color.T, colors):
            t = dc.take(pid)
            t *= col.take(prim)
            q += t
        alpha_eff, clamped = _opacity(alphas, prim, g)
        wq = alpha_eff * trans
        wq *= q
        # u = dL/d(opacity) per pair = g * dL/d(alpha_eff) off the clamp, with
        # dL/d(alpha_eff) = trans * q - suffix / (1 - alpha_eff).
        u = q
        u *= trans
        # The colour arriving from behind a pair: the rest of its run, from
        # the chunk's cumulative sum of wq, plus its pixel's `behind`.
        last = np.cumsum(run_len) - 1  # each run's last pair
        later = behind[run_px]
        behind[run_px] += np.add.reduceat(wq, last - run_len + 1)
        csum = np.cumsum(wq, out=wq)
        later += csum[last]
        suffix = np.repeat(later, run_len)
        suffix -= csum
        suffix /= np.subtract(1.0, alpha_eff, out=alpha_eff)
        u -= suffix
        u *= g
        u[clamped] = 0.0
        # dL/dpower = -opacity * u; moments of that over each primitive's
        # pairs, with the offsets dx, dy of each pair from its primitive's
        # 2D mean.
        sums[0] += np.bincount(prim, weights=u, minlength=n_kept)
        ux = u * dx
        sums[1] += np.bincount(prim, weights=ux, minlength=n_kept)
        dx *= ux
        sums[2] += np.bincount(prim, weights=dx, minlength=n_kept)
        ux *= dy
        sums[3] += np.bincount(prim, weights=ux, minlength=n_kept)
        uy = u
        uy *= dy
        sums[4] += np.bincount(prim, weights=uy, minlength=n_kept)
        dy *= uy
        sums[5] += np.bincount(prim, weights=dy, minlength=n_kept)
    d_alpha_kept = sums[0]
    m_x, m_xx, m_xy, m_y, m_yy = alphas * sums[1:]

    inv00, inv01, inv11 = inv
    d_mean0 = inv00 * m_x + inv01 * m_y
    d_mean1 = inv01 * m_x + inv11 * m_y
    d_cov00 = 0.5 * (inv00 * inv00 * m_xx + 2.0 * inv00 * inv01 * m_xy + inv01 * inv01 * m_yy)
    d_cov01 = 0.5 * (
        inv00 * inv01 * m_xx + (inv00 * inv11 + inv01 * inv01) * m_xy + inv01 * inv11 * m_yy
    )
    d_cov11 = 0.5 * (inv01 * inv01 * m_xx + 2.0 * inv01 * inv11 * m_xy + inv11 * inv11 * m_yy)

    # Projection backward through cov2d = sigma^2 J J^T + dilation and mean2d,
    # with J = [[j00, 0, j02], [0, j11, j12]]: d_jac = 2 sigma^2 D J, and
    # the isotropic world covariance takes the trace of d_cov_cam = J^T D J.
    _, x_cam, _, _, _, (j00, j02, j11, j12), _, _, _ = _project_gaussians(splats, view)
    sigma = splats.sigmas[keep]
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
    x, y = x_cam[:, 0], x_cam[:, 1]
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

    keep_idx = np.flatnonzero(keep)
    d_means = np.zeros_like(splats.means)
    d_alphas = np.zeros(len(splats))
    d_sigmas = np.zeros(len(splats))
    d_means[keep_idx] = d_xcam @ view.pose.rotation  # R^T applied row-wise
    d_alphas[keep_idx] = d_alpha_kept
    d_sigmas[keep_idx] = 2.0 * sigma * tr_d_cov_cam
    return d_means, d_alphas, d_sigmas


def _view_forward(splats: GaussianSplatSet, view: CameraView, image: np.ndarray):
    """One novel view's forward pass against its quarter-res target: the L2
    loss, the pass's chunk records (all that its backward pass reads of it)
    and dL/d(colour image) (n_px, 3)."""
    color, chunks = _render_forward(splats, view)
    _, gw, gh = view.scaled(DOWNSAMPLE)
    diff = color.reshape(gh, gw, 3) - image
    return float(np.mean(diff * diff)), chunks, (2.0 / diff.size) * diff.reshape(-1, 3)


def _check_positive(**params):
    """ValueError naming the first of `params` that is not a finite number
    above 0."""
    for name, value in params.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_counts(kind, arrays, views, images, novel_views, novel_images):
    """ValueError naming the counts unless there is one of `arrays` (the
    volumes or logits) and one source image per source view, and one novel
    image per novel view, of which there is at least one: zip would drop
    the extra ones without a word."""
    if not len(arrays) == len(views) == len(images):
        raise ValueError(f"{len(arrays)} {kind}, {len(views)} source views and "
                         f"{len(images)} source images: the counts must be equal")
    if not len(novel_views) == len(novel_images) > 0:
        raise ValueError(f"{len(novel_views)} novel views and {len(novel_images)} novel images: "
                         "need at least one novel view and one novel image per view")


def _per_view(pool, fn, view_args):
    """fn(*args) for each view's args, in view order: the first view's on
    the calling thread and each further view's on a thread of `pool`, all
    at once."""
    futures = [pool.submit(fn, *args) for args in view_args[1:]]
    return [fn(*args) for args in view_args[:1]] + [f.result() for f in futures]


def refinement_loss_and_grad(
    logits: list[np.ndarray],
    planes: DepthPlanes,
    source_views: list[CameraView],
    source_images: list[np.ndarray],
    novel_views: list[CameraView],
    novel_images: list[np.ndarray],
    footprint_scale: float,
    max_loss: float = math.inf,
):
    """Summed rendering loss over the novel views and, when the loss is at
    most `max_loss`, its analytic gradient with respect to the per-pixel
    plane logits of every source view; (loss, grads) or (loss, None).

    novel_images must already be quarter resolution; source_images may be
    full or quarter resolution.  Each source view's quarter-res `ray_grid`
    is formed once per call, for its splats and for its softmax VJP.  The
    gradient chains softmax -> (depth regression, peak-probability opacity)
    -> splat center and footprint -> projection -> alpha compositing.

    The forward pass runs once per novel view and hands on only that
    view's chunk records; the backward passes run from those records only
    once the summed loss is known to be at most `max_loss`, forming the
    per-primitive values again, and each pass pops its view's records as
    it walks them.  There is never a second forward pass, and loss
    and gradient are the same to the bit whatever `max_loss` is.  No
    probability volume lives through the passes: softmax(logits) is formed
    for each view's splats and formed again for its softmax VJP.

    The views' passes run at once: the first view's on the calling thread,
    each further view's on a pool with one worker per further view that
    lives for this call.  With 3 or more novel views a view's backward pass
    may run on another worker than its forward pass.  Losses and gradients
    are summed here in view order, so they are the same to the bit as one
    thread running every pass in turn.  The logits, source views and source
    images must be equally many, and there must be one novel image per
    novel view, of which there is at least one; otherwise a ValueError
    names the counts.
    """
    _check_counts("logits", logits, source_views, source_images, novel_views, novel_images)
    source_rays = [ray_grid(v) for v in source_views]
    splats = concat_splats([
        build_splats(v, softmax(lg), planes, img, footprint_scale, source_index=i, rays=rays)
        for i, (v, lg, img, rays) in enumerate(zip(source_views, logits, source_images, source_rays))
    ])

    with ThreadPoolExecutor(max_workers=max(1, len(novel_views) - 1)) as pool:
        passes = _per_view(pool, _view_forward, [
            (splats, view, img) for view, img in zip(novel_views, novel_images)
        ])
        total_loss = sum(loss for loss, _, _ in passes)
        if not np.isfinite(total_loss):
            raise ValueError("rendering loss is not finite")
        if not total_loss <= max_loss:
            return total_loss, None
        view_grads = _per_view(pool, _render_backward, [
            (splats, view, chunks, dc) for view, (_, chunks, dc) in zip(novel_views, passes)
        ])

    # Each gradient summed over the views in view order, from zeros.
    d_means, d_alphas, d_sigmas = (sum(g, np.zeros_like(g[0])) for g in zip(*view_grads))
    grads = []
    offset = 0
    for view, lg, (_, dirs, axis_cos) in zip(source_views, logits, source_rays):
        p = softmax(lg)
        gh, gw = p.shape[:2]
        n = gh * gw
        dm = d_means[offset : offset + n].reshape(gh, gw, 3)
        da = d_alphas[offset : offset + n].reshape(gh, gw)
        ds = d_sigmas[offset : offset + n].reshape(gh, gw)
        offset += n

        # depth -> (center along ray, isotropic footprint)
        d_depth = (
            np.einsum("hwc,hwc->hw", dm, dirs) / axis_cos + ds * footprint_scale / _mean_focal(view)
        )
        # softmax VJP: upstream on B is d_depth * plane + da on the argmax bin
        up = d_depth[..., None] * planes.depths[None, None, :]
        arg = p.argmax(axis=2)[..., None]
        np.put_along_axis(up, arg, np.take_along_axis(up, arg, axis=2) + da[..., None], axis=2)
        inner = (up * p).sum(axis=2, keepdims=True)
        grads.append(p * (up - inner))
    return total_loss, grads


@dataclass
class RefinementResult:
    volumes: list[np.ndarray]  # refined probability volumes per source view
    loss_trace: list[float]  # initial loss followed by one entry per step
    splats: GaussianSplatSet  # the refined volumes' splats; source_view is the position


def refine_probability_volume(
    volumes: list[np.ndarray],
    planes: DepthPlanes,
    source_views: list[CameraView],
    source_images: list[np.ndarray],
    novel_views: list[CameraView],
    novel_images: list[np.ndarray],
    steps: int,
    step_size: float,
    footprint_scale: float,
) -> RefinementResult:
    """Gradient-descent refinement of probability volumes under the summed
    novel-view rendering loss.

    Optimizes per-pixel plane logits (softmax keeps every volume normalized
    by construction).  Each step moves against the gradient, scaled so the
    largest logit update equals the step size, and is accepted only if the
    loss does not increase; otherwise the step is halved, up to 8 times.
    When no halving helps, or the gradient is zero, the remaining steps are
    skipped (the trace repeats the last kept loss so its length stays
    steps + 1).

    Each trial is one refinement_loss_and_grad call with max_loss set to
    the last kept loss, which is exactly the acceptance rule: a rejected
    trial runs no backward pass, and a kept one gets its gradient from the
    chunk records of that same call's forward passes.  The last step's gradient is never
    read, so its trials pass max_loss=-inf.  The quarter-res colours of
    the views are computed once, not per evaluation.  Once the logits are
    formed the volumes are not read again, and the list `volumes` is
    dropped: a caller that hands over a list of its own (as run_pipeline
    does) frees them there.  The result holds the refined volumes, the
    trace, and the refined volumes' splats as the loss builds them, each
    splat's source_view its view's position in `source_views`.
    step_size and footprint_scale must be finite and > 0; either is checked
    on entry, and a ValueError names it.  There must be as many volumes
    and source images as source views, and one novel image per novel view,
    of which there is at least one; otherwise a ValueError names the
    counts.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_positive(step_size=step_size, footprint_scale=footprint_scale)
    _check_counts("volumes", volumes, source_views, source_images, novel_views, novel_images)
    # Per-view constants, computed once for every evaluation.
    novel_quarter = [_quarter(v, img) for v, img in zip(novel_views, novel_images)]
    source_quarter = [
        _quarter(v, np.asarray(img, dtype=np.float64)) for v, img in zip(source_views, source_images)
    ]
    logits = [np.log(np.clip(v, 1e-12, None)) for v in volumes]
    del volumes  # the last reference when the caller handed over its own

    def evaluate(lgs, max_loss):
        return refinement_loss_and_grad(
            lgs, planes, source_views, source_quarter, novel_views, novel_quarter,
            footprint_scale, max_loss=max_loss,
        )

    loss, grads = evaluate(logits, math.inf)
    trace = [loss]
    for step in range(steps):
        # A trial's gradient is read only if the trial is kept and another
        # step follows, so the backward pass runs only then.
        max_loss = trace[-1] if step + 1 < steps else -math.inf
        gmax = max(float(np.max(np.abs(g))) for g in grads)
        if gmax == 0.0:
            break
        direction = [g / gmax for g in grads]
        grads = trial_grads = None  # only the direction is read from here on
        lr = step_size
        for _ in range(9):  # initial step plus up to 8 halvings
            trial = [lg - lr * d for lg, d in zip(logits, direction)]
            trial_loss, trial_grads = evaluate(trial, max_loss)
            if trial_loss <= trace[-1]:
                logits, grads = trial, trial_grads
                trace.append(trial_loss)
                break
            lr *= 0.5
        else:  # no halving helped
            break
    trace.extend([trace[-1]] * (steps + 1 - len(trace)))  # a stalled search's last kept loss
    volumes = [softmax(lg) for lg in logits]
    splats = concat_splats([
        build_splats(v, p, planes, img, footprint_scale, source_index=i)
        for i, (v, p, img) in enumerate(zip(source_views, volumes, source_quarter))
    ])
    return RefinementResult(volumes, trace, splats)
