"""Correctness checks on what mvsweep produces.

Each check compares an output with a computation made here, apart from the
program, or with a property the method must have.  None compares with a
stored copy of an earlier output.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

# A float32 per-plane probability is off by at most half an ulp (6e-8) of its
# value, so a pixel's float32 probabilities sum to 1 within 1e-6 for any
# plane count the config allows.
F32_SUM_TOL = 1e-6
F64_SUM_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def read_raster(path) -> np.ndarray:
    """MVSR raster (magic, u32 rows/cols/channels, little-endian f32)."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16 or head[:4] != b"MVSR":
            raise CheckFailed(f"{path}: not an MVSR raster")
        rows, cols, ch = struct.unpack("<III", head[4:])
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != rows * cols * ch:
        raise CheckFailed(f"{path}: payload has {data.size} values, header says {rows * cols * ch}")
    return data.reshape(rows, cols, ch).astype(np.float64)


def quarter_depth(depth: np.ndarray) -> np.ndarray:
    """One ground-truth sample per 4x4 block, at offset (1, 1) of the block."""
    return depth[1::4, 1::4]


def quarter_image(image: np.ndarray) -> np.ndarray:
    """4x4 block mean of an (H, W, 3) image."""
    h, w = image.shape[:2]
    return image.reshape(h // 4, 4, w // 4, 4, 3).mean(axis=(1, 3))


def quantize_8bit(image: np.ndarray) -> np.ndarray:
    """The image as an 8-bit PPM stores it, decoded back to [0, 1]."""
    return np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8).astype(np.float64) / 255.0


def check_distribution(probs: np.ndarray, tol: float, what: str) -> None:
    """Non-negative and summing to 1 over the last axis at every pixel."""
    if not np.all(np.isfinite(probs)):
        raise CheckFailed(f"{what}: non-finite probability")
    if probs.min() < 0.0:
        raise CheckFailed(f"{what}: negative probability {probs.min()!r}")
    err = float(np.abs(probs.sum(axis=-1) - 1.0).max())
    if err > tol:
        raise CheckFailed(f"{what}: probabilities sum to 1 only within {err:.3g} (tolerance {tol})")


def check_depth_range(depth: np.ndarray, lo: float, hi: float, what: str) -> None:
    if not (np.all(np.isfinite(depth)) and depth.min() >= lo and depth.max() <= hi):
        raise CheckFailed(f"{what}: depth leaves [{lo}, {hi}]: [{depth.min()!r}, {depth.max()!r}]")


def depth_rmse(pred: np.ndarray, gt: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """RMSE of a quarter-res depth map against quarter-res ray-cast ground
    truth on the pixels whose true depth lies in [lo, hi], and the RMSE of
    the best constant predictor on the same pixels (the true depths' spread)."""
    mask = (gt >= lo) & (gt <= hi)
    if not mask.any():
        raise CheckFailed("no ground-truth pixel inside the depth range")
    err = pred[mask] - gt[mask]
    return float(np.sqrt(np.mean(err * err))), float(np.std(gt[mask]))


def check_beats_constant(rmse: float, constant_rmse: float, what: str) -> None:
    if not rmse < constant_rmse:
        raise CheckFailed(
            f"{what}: depth RMSE {rmse:.4f} m does not beat the constant predictor's "
            f"{constant_rmse:.4f} m"
        )


def check_loss_trace(trace, steps: int) -> None:
    """steps + 1 entries, never increasing, ending below the start."""
    if len(trace) != steps + 1:
        raise CheckFailed(f"loss trace has {len(trace)} entries, expected {steps + 1}")
    for k in range(steps):
        if trace[k + 1] > trace[k]:
            raise CheckFailed(f"loss rises at step {k + 1}: {trace[k]!r} -> {trace[k + 1]!r}")
    if not trace[-1] < trace[0]:
        raise CheckFailed(f"loss did not fall: {trace[0]!r} -> {trace[-1]!r}")


def rendered_loss(rendered_colors, targets) -> float:
    """Summed mean squared color error of rendered views against targets."""
    total = 0.0
    for color, target in zip(rendered_colors, targets):
        diff = color - target
        total += float(np.mean(diff * diff))
    return total


def check_loss_matches(rendered: float, loss_final: float) -> None:
    if rendered != loss_final:
        raise CheckFailed(
            f"rendering the refined splats gives loss {rendered!r}, "
            f"the trace ends at {loss_final!r}"
        )


def digest_dir(path) -> dict[str, str]:
    """sha256 of every file in a directory, by file name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_identical(first: dict[str, str], again: dict[str, str], what: str) -> None:
    if first != again:
        differ = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
        raise CheckFailed(f"{what}: a repeated operation wrote different artifacts: {differ}")
