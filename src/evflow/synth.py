"""Synthetic moving-disc event generator with exact ground truth.

A solid disc of known radius translates at constant velocity. The sensor
only reacts to change, so a pixel emits while the disc *boundary* sweeps
over it: POSITIVE events while the pixel enters the disc (leading edge),
NEGATIVE while it leaves (trailing edge). For each pixel we solve the
crossing times of a sub-pixel band around the boundary circle in closed
form, draw a Poisson event count proportional to the dwell time inside
that band, and place the events uniformly over the dwell interval with a
small timestamp jitter. The band is slightly wider than half a pixel so
that grazing pixels near the tangent points stay populated (real edges
blur the same way); a static disc changes nothing and emits nothing.

Every event therefore sits within half a pixel (plus jitter) of the disc
boundary at its own timestamp, which is what makes the generator usable
as an oracle for accumulation, synchronization, and end-to-end detection
tests: the per-frame ground-truth box is just the disc's bounding square
at the frame midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .config import numbers
from .errors import ConfigInvalid, DegenerateTrajectory
from .events import EventStream, SensorGeometry
from .labels import BBox, Keyframe, Track

BAND_HALF_WIDTH_PX = 0.75
JITTER_US = 200


@dataclass(frozen=True)
class DiscTrajectory:
    center_start: Tuple[float, float]   # pixels
    velocity: Tuple[float, float]       # pixels / second
    radius: float                       # pixels
    duration: float                     # seconds
    event_rate_density: float           # events per boundary-pixel per second

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.event_rate_density <= 0:
            raise ValueError(f"event_rate_density must be positive, got {self.event_rate_density}")

    def center_at(self, t_s: float) -> Tuple[float, float]:
        return (
            self.center_start[0] + self.velocity[0] * t_s,
            self.center_start[1] + self.velocity[1] * t_s,
        )


def trajectory_from_config(values: Dict[str, str]) -> Tuple[DiscTrajectory, SensorGeometry]:
    """Read synth keys: center_start, velocity, radius, duration_s,
    event_rate_density, sensor."""
    w, h = numbers(values, "sensor", 2)
    try:
        traj = DiscTrajectory(
            center_start=tuple(numbers(values, "center_start", 2)),
            velocity=tuple(numbers(values, "velocity", 2)),
            radius=numbers(values, "radius", 1)[0],
            duration=numbers(values, "duration_s", 1)[0],
            event_rate_density=numbers(values, "event_rate_density", 1)[0],
        )
        geom = SensorGeometry(int(w), int(h))
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    return traj, geom


def _rect_distance(cx: float, cy: float, geom: SensorGeometry) -> float:
    dx = max(0.0 - cx, 0.0, cx - (geom.width - 1))
    dy = max(0.0 - cy, 0.0, cy - (geom.height - 1))
    return math.hypot(dx, dy)


def _min_rect_distance(traj: DiscTrajectory, geom: SensorGeometry) -> float:
    # distance from the moving center to the (convex) pixel rectangle is
    # convex in t, so ternary search is exact
    lo, hi = 0.0, traj.duration
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        d1 = _rect_distance(*traj.center_at(m1), geom)
        d2 = _rect_distance(*traj.center_at(m2), geom)
        if d1 <= d2:
            hi = m2
        else:
            lo = m1
    return _rect_distance(*traj.center_at(0.5 * (lo + hi)), geom)


def generate_disc_events(
    traj: DiscTrajectory, geom: SensorGeometry, seed: int
) -> EventStream:
    """Deterministic event stream for a moving disc; sorted by timestamp.

    Raises DegenerateTrajectory when the disc never overlaps the sensor.
    """
    if _min_rect_distance(traj, geom) > traj.radius:
        raise DegenerateTrajectory(
            f"disc (r={traj.radius}) never intersects {geom.width}x{geom.height}"
        )
    vx, vy = traj.velocity
    if vx == 0.0 and vy == 0.0:
        return EventStream.empty(geom)

    rng = np.random.default_rng(seed)
    cx0, cy0 = traj.center_start
    dur = traj.duration
    pad = traj.radius + BAND_HALF_WIDTH_PX + 1.0
    cx1, cy1 = traj.center_at(dur)
    x_lo = max(0, int(math.floor(min(cx0, cx1) - pad)))
    x_hi = min(geom.width - 1, int(math.ceil(max(cx0, cx1) + pad)))
    y_lo = max(0, int(math.floor(min(cy0, cy1) - pad)))
    y_hi = min(geom.height - 1, int(math.ceil(max(cy0, cy1) + pad)))
    if x_lo > x_hi or y_lo > y_hi:
        return EventStream.empty(geom)

    xs, ys = np.meshgrid(
        np.arange(x_lo, x_hi + 1, dtype=np.float64),
        np.arange(y_lo, y_hi + 1, dtype=np.float64),
    )
    xs, ys = xs.ravel(), ys.ravel()

    # squared distance pixel->center is the quadratic
    #   d2(t) = A t^2 - 2 b t + |a|^2,  a = pixel - c(0)
    ax, ay = xs - cx0, ys - cy0
    speed_sq = vx * vx + vy * vy
    b = ax * vx + ay * vy
    a2 = ax * ax + ay * ay
    r_out = traj.radius + BAND_HALF_WIDTH_PX
    r_in = max(traj.radius - BAND_HALF_WIDTH_PX, 0.0)

    disc_out = b * b - speed_sq * (a2 - r_out * r_out)
    hit = disc_out > 0.0
    if not np.any(hit):
        return EventStream.empty(geom)
    xs, ys, b, a2 = xs[hit], ys[hit], b[hit], a2[hit]
    sq_out = np.sqrt(disc_out[hit])
    t_outer_in = (b - sq_out) / speed_sq    # first touch of the outer band edge
    t_outer_out = (b + sq_out) / speed_sq   # last touch
    t_closest = b / speed_sq

    disc_in = b * b - speed_sq * (a2 - r_in * r_in)
    deep = disc_in > 0.0
    sq_in = np.sqrt(np.where(deep, disc_in, 0.0))
    t_inner_in = np.where(deep, (b - sq_in) / speed_sq, t_closest)
    t_inner_out = np.where(deep, (b + sq_in) / speed_sq, t_closest)

    parts = []
    for lo_t, hi_t, pol in (
        (t_outer_in, t_inner_in, 1),    # entering the disc: positive
        (t_inner_out, t_outer_out, 0),  # leaving the disc: negative
    ):
        lo_c = np.clip(lo_t, 0.0, dur)
        hi_c = np.clip(hi_t, 0.0, dur)
        dwell = np.maximum(hi_c - lo_c, 0.0)
        counts = rng.poisson(traj.event_rate_density * dwell)
        idx = np.repeat(np.arange(dwell.size), counts)
        if idx.size == 0:
            continue
        times = lo_c[idx] + rng.random(idx.size) * dwell[idx]
        times += rng.uniform(-JITTER_US * 1e-6, JITTER_US * 1e-6, idx.size)
        t_us = np.clip(np.round(times * 1e6), 0, dur * 1e6 - 1).astype(np.uint64)
        parts.append(
            (
                t_us,
                xs[idx].astype(np.uint16),
                ys[idx].astype(np.uint16),
                np.full(idx.size, pol, dtype=np.uint8),
            )
        )

    if not parts:
        return EventStream.empty(geom)
    t = np.concatenate([p[0] for p in parts])
    x = np.concatenate([p[1] for p in parts])
    y = np.concatenate([p[2] for p in parts])
    p = np.concatenate([p[3] for p in parts])
    order = np.lexsort((x, y, p, t))
    return EventStream(geom, t[order], x[order], y[order], p[order], check=False)


def ground_truth_boxes(traj: DiscTrajectory, frame_period: int, geom: SensorGeometry) -> Track:
    """Per-frame bounding squares of the disc, clipped to the sensor, as track "disc".

    Frame k covers [k*P, (k+1)*P) microseconds; the box is the disc's
    bounding square at the window midpoint. Frames whose midpoint falls
    beyond the trajectory duration, or whose clipped box has zero area,
    contribute no keyframe.
    """
    if frame_period <= 0:
        raise ValueError(f"frame_period must be positive, got {frame_period}")
    dur_us = traj.duration * 1e6
    kfs: List[Keyframe] = []
    k = 0
    while (k + 0.5) * frame_period < dur_us:
        t_mid = (k + 0.5) * frame_period * 1e-6
        cx, cy = traj.center_at(t_mid)
        x0 = max(0.0, cx - traj.radius)
        y0 = max(0.0, cy - traj.radius)
        x1 = min(float(geom.width), cx + traj.radius)
        y1 = min(float(geom.height), cy + traj.radius)
        if x1 > x0 and y1 > y0:
            kfs.append(Keyframe(k, BBox(x0, y0, x1 - x0, y1 - y0)))
        k += 1
    if not kfs:
        raise DegenerateTrajectory("disc bounding box never overlaps the sensor")
    return Track("disc", tuple(kfs))


def render_gray_frames(
    traj: DiscTrajectory, geom: SensorGeometry, frame_period: int, n_frames: int
) -> List[np.ndarray]:
    """Plain gray renderings of the disc (200) on a background (30) at each frame midpoint.

    Stands in for a conventional camera in synchronization tests; frame k
    shows the disc as of ((k + 0.5) * frame_period) microseconds.
    """
    ys, xs = np.mgrid[0 : geom.height, 0 : geom.width]
    out = []
    for k in range(n_frames):
        t_mid = (k + 0.5) * frame_period * 1e-6
        cx, cy = traj.center_at(t_mid)
        img = np.full((geom.height, geom.width), 30, dtype=np.uint8)
        img[(xs - cx) ** 2 + (ys - cy) ** 2 <= traj.radius**2] = 200
        out.append(img)
    return out
