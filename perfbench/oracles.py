"""Reference computations made apart from the program under test.

Nothing here imports ``evflow``: the camera model, track interpolation,
frame counting and downscaling are written again from their definitions,
so that a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import optimize

Box = Tuple[float, float, float, float]  # x, y, w, h


def _poly(pt, dist):
    k1, k2, p1, p2 = dist
    x, y = pt
    r2 = x * x + y * y
    f = 1 + k1 * r2 + k2 * r2 * r2
    return np.array([
        x * f + 2 * p1 * x * y + p2 * (r2 + 2 * x * x),
        y * f + p1 * (r2 + 2 * y * y) + 2 * p2 * x * y,
    ])


def _kmat(cam: dict) -> np.ndarray:
    return np.array([[cam["fx"], 0.0, cam["cx"]], [0.0, cam["fy"], cam["cy"]], [0.0, 0.0, 1.0]])


def transfer_point(px: Tuple[float, float], calib: dict) -> Tuple[float, float]:
    """RGB pixel -> DVS pixel for a point at infinity: matrix inverse plus root finding."""
    rgb, dvs = calib["cam_rgb"], calib["cam_dvs"]
    norm = np.linalg.inv(_kmat(rgb)) @ np.array([px[0], px[1], 1.0])
    target = norm[:2] / norm[2]
    sol = optimize.fsolve(lambda v: _poly(v, rgb["dist"]) - target, target)
    ray = np.asarray(calib["R"], dtype=float).reshape(3, 3) @ np.append(sol, 1.0)
    pd = _poly(ray[:2] / ray[2], dvs["dist"])
    out = _kmat(dvs) @ np.append(pd, 1.0)
    return float(out[0] / out[2]), float(out[1] / out[2])


def transfer_box(box: Box, calib: dict) -> Box:
    """Hull of the four transferred corners, clamped to the DVS sensor."""
    x, y, w, h = box
    pts = [transfer_point(c, calib) for c in ((x, y), (x + w, y), (x, y + h), (x + w, y + h))]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    wmax, hmax = calib["cam_dvs"]["size"][0] - 1.0, calib["cam_dvs"]["size"][1] - 1.0
    x0, x1 = max(min(xs), 0.0), min(max(xs), wmax)
    y0, y1 = max(min(ys), 0.0), min(max(ys), hmax)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"box {box} leaves the DVS sensor")
    return (x0, y0, x1 - x0, y1 - y0)


def densify(keyframes: Sequence[Tuple[int, Box]]) -> Dict[int, Box]:
    """Per-frame boxes by linear interpolation between keyframes."""
    idx = np.array([k for k, _ in keyframes], dtype=float)
    boxes = np.array([b for _, b in keyframes], dtype=float)
    frames = np.arange(int(idx[0]), int(idx[-1]) + 1)
    cols = [np.interp(frames, idx, boxes[:, c]) for c in range(4)]
    return {int(f): tuple(float(c[i]) for c in cols) for i, f in enumerate(frames)}


def count_frame(t, x, y, p, t0: int, duration: int, width: int, height: int):
    """(pos, neg) uint8 counts of events with t0 <= t < t0 + duration, by np.add.at."""
    sel = (t >= np.uint64(t0)) & (t < np.uint64(t0 + duration))
    counts = np.zeros((2, height, width), dtype=np.int64)
    np.add.at(counts, (p[sel].astype(np.intp), y[sel].astype(np.intp), x[sel].astype(np.intp)), 1)
    counts = np.minimum(counts, 255).astype(np.uint8)
    return counts[1], counts[0]


def halve(channel: np.ndarray) -> np.ndarray:
    """2x2 block mean rounded half up: area averaging at an exact factor of two."""
    h, w = channel.shape
    mean = channel.astype(np.float64).reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
    return np.minimum(np.floor(mean + 0.5), 255).astype(np.uint8)

