"""Pinhole camera pair with radial-tangential distortion and label transfer.

Conventions: pixel coordinates are (u, v) with u along columns; normalized
image coordinates are (x, y) = ((u - cx) / fx, (v - cy) / fy) on the z = 1
plane. Distortion acts on normalized coordinates with the 4-coefficient
radial-tangential model (k1, k2, p1, p2):

    x' = x (1 + k1 r^2 + k2 r^4) + 2 p1 x y + p2 (r^2 + 2 x^2)
    y' = y (1 + k1 r^2 + k2 r^4) + p1 (r^2 + 2 y^2) + 2 p2 x y

Cross-camera point transfer treats scene points as infinitely distant:
drop the translation, rotate the undistorted ray, reproject. Undistortion
runs a damped Newton iteration in plain floats (analytic Jacobian, closed-form
2x2 step, at most 20 steps) from the distorted point; if it misses the
tolerance or ends at or past the fold of the radial profile, it restarts from
a bisection seed on the monotone radial branch, and then fails loudly rather
than return a wrong point if the residual is still above tolerance.

Calibration documents are flat ``key = value`` text (one key per line):

    cam_rgb.fx/.fy/.cx/.cy      focal lengths and principal point
    cam_rgb.dist = k1 k2 p1 p2
    cam_rgb.size = W H
    cam_dvs.*                   same keys for the event camera
    extrinsics.R = r11 r12 ... r33   (row-major, camera-rgb to camera-dvs)
    extrinsics.t = tx ty tz          (meters)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .config import numbers, parse_kv
from .errors import (
    BehindCamera,
    ConfigInvalid,
    EvflowError,
    NoConvergence,
    NonOrthonormalRotation,
    OffSensor,
)
from .events import SensorGeometry
from .labels import BBox, Keyframe, Track

UNDISTORT_TOL = 1e-6
UNDISTORT_MAX_ITER = 20


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got {self.fx}, {self.fy}")


@dataclass(frozen=True)
class Distortion:
    k1: float = 0.0
    k2: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.k1 == self.k2 == self.p1 == self.p2 == 0.0


@dataclass(frozen=True)
class Extrinsics:
    """Rigid transform from the first camera's frame to the second's."""

    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray  # (3,), meters

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("extrinsics need a 3x3 rotation and a 3-vector translation")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
            raise NonOrthonormalRotation("R^T R deviates from identity by more than 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise NonOrthonormalRotation(f"det(R) = {np.linalg.det(r):.12f}, expected +1")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "_rows", r.tolist())  # transfer_point's floats


@dataclass(frozen=True)
class Camera:
    intrinsics: Intrinsics
    distortion: Distortion
    geometry: SensorGeometry


@dataclass(frozen=True)
class CameraPair:
    cam_rgb: Camera
    cam_dvs: Camera
    extrinsics: Extrinsics


def distort(pt: Tuple[float, float], d: Distortion) -> Tuple[float, float]:
    """Apply the radial-tangential polynomial to normalized coordinates."""
    x, y = float(pt[0]), float(pt[1])
    r2 = x * x + y * y
    radial = 1.0 + d.k1 * r2 + d.k2 * r2 * r2
    xd = x * radial + 2.0 * d.p1 * x * y + d.p2 * (r2 + 2.0 * x * x)
    yd = y * radial + d.p1 * (r2 + 2.0 * y * y) + 2.0 * d.p2 * x * y
    return (xd, yd)


def fold_radius(d: Distortion) -> float | None:
    """Smallest radius where the radial profile r(1 + k1 r^2 + k2 r^4) folds.

    That is sqrt(u) for the smallest positive root u of its derivative
    1 + 3 k1 u + 5 k2 u^2, solved without cancellation. None when the
    profile is monotone for all r > 0 (e.g. barrel-free lenses with
    non-negative coefficients).
    """
    a, b = 5.0 * d.k2, 3.0 * d.k1
    if d.k2 == 0.0:
        roots = (-1.0 / b,) if b else ()
    elif b * b - 4.0 * a < 0.0:
        roots = ()
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a), b))
        roots = (q / a, 1.0 / q)  # the two roots' product is 1 / a
    positive = [u for u in roots if u > 0.0]
    return math.sqrt(min(positive)) if positive else None


def _radial_scale(r: float, d: Distortion) -> float:
    return r * (1.0 + d.k1 * r * r + d.k2 * r * r * r * r)  # r**4 raises OverflowError


def _radial_init(qx: float, qy: float, d: Distortion) -> float:
    """Scale s that seeds Newton at s * q, from inverting the radial profile
    alone by bisection on [0, fold radius], or on [0, 3 |q|] when there is
    no fold: then 1 + k1 u + k2 u^2 > 4/9 for all u, so the preimage radius
    is below 2.25 |q|."""
    rq = math.hypot(qx, qy)
    if rq < 1e-12 or (d.k1 == 0.0 and d.k2 == 0.0):
        return 1.0
    hi = fold_radius(d) or 3.0 * rq
    if _radial_scale(hi, d) < rq:
        # target beyond the principal branch; start at the fold and let
        # Newton report the residual honestly
        return hi / rq
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _radial_scale(mid, d) < rq:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / rq


def _newton(qx: float, qy: float, s: float, d: Distortion) -> Tuple[float, float, float]:
    """Damped Newton on distort(p) = q from p = s * q; returns (x, y, |distort(p) - q|)."""
    x, y = qx * s, qy * s
    ex, ey = distort((x, y), d)
    rx, ry = ex - qx, ey - qy
    rn = math.hypot(rx, ry)
    for _ in range(UNDISTORT_MAX_ITER):
        if rn <= 1e-13:
            break
        # the Jacobian of distort at (x, y) is symmetric: [[a, b], [b, c]]
        r2 = x * x + y * y
        radial = 1.0 + d.k1 * r2 + d.k2 * r2 * r2
        g = d.k1 + 2.0 * d.k2 * r2
        a = radial + 2.0 * x * x * g + 2.0 * d.p1 * y + 6.0 * d.p2 * x
        b = 2.0 * x * y * g + 2.0 * d.p1 * x + 2.0 * d.p2 * y
        c = radial + 2.0 * y * y * g + 6.0 * d.p1 * y + 2.0 * d.p2 * x
        det = a * c - b * b
        if det == 0.0:
            break
        sx, sy = (c * rx - b * ry) / det, (a * ry - b * rx) / det
        lam = 1.0
        for _ in range(10):  # backtrack: never accept a residual increase
            cx, cy = x - lam * sx, y - lam * sy
            ex, ey = distort((cx, cy), d)
            crx, cry = ex - qx, ey - qy
            crn = math.hypot(crx, cry)
            if crn < rn:
                x, y, rx, ry, rn = cx, cy, crx, cry, crn
                break
            lam *= 0.5
        else:
            break
    return x, y, rn


def undistort(pt: Tuple[float, float], d: Distortion) -> Tuple[float, float]:
    """Numerical inverse of distort: returns p with |distort(p) - pt| <=
    UNDISTORT_TOL, after at most UNDISTORT_MAX_ITER Newton steps per start.

    Raises NoConvergence when the residual stays above the tolerance, or is
    NaN, which happens outside the model's invertible region.
    """
    qx, qy = float(pt[0]), float(pt[1])
    if d.is_zero:
        return (qx, qy)
    x, y, rn = _newton(qx, qy, 1.0, d)
    if not rn <= UNDISTORT_TOL or math.hypot(x, y) >= (fold_radius(d) or math.inf):
        # missed, or converged on a branch past the fold: restart on the principal branch
        x, y, rn = _newton(qx, qy, _radial_init(qx, qy, d), d)
    if not rn <= UNDISTORT_TOL:
        raise NoConvergence(f"residual {rn:.3e} > {UNDISTORT_TOL:.0e} at normalized point {(qx, qy)}")
    return (x, y)


def transfer_point(px: Tuple[float, float], pair: CameraPair) -> Tuple[float, float]:
    """Map an RGB pixel to the event camera assuming zero disparity.

    Pixel -> normalized -> undistort -> rotate (translation dropped:
    points at infinity) -> distort -> pixel. The result may fall outside
    the event sensor; callers clamp.
    """
    k = pair.cam_rgb.intrinsics
    xn, yn = undistort(((px[0] - k.cx) / k.fx, (px[1] - k.cy) / k.fy), pair.cam_rgb.distortion)
    (a, b, c), (e, f, g), (h, i, j) = pair.extrinsics._rows
    z = h * xn + i * yn + j
    if z <= 0.0:
        raise BehindCamera(f"rotated ray has depth {z:.6f}")
    xd, yd = distort(((a * xn + b * yn + c) / z, (e * xn + f * yn + g) / z), pair.cam_dvs.distortion)
    k = pair.cam_dvs.intrinsics
    return (k.fx * xd + k.cx, k.fy * yd + k.cy)


@dataclass(frozen=True)
class TransferredBox:
    box: BBox
    clipped: bool      # some corner fell outside the event sensor
    degenerate: bool   # zero area after clamping


def transfer_bbox(b: BBox, pair: CameraPair) -> TransferredBox:
    """Axis-aligned hull of the four transferred corners, clamped to the sensor.

    Raises OffSensor when the whole hull lands outside the event frame.
    """
    pts = [transfer_point(c, pair) for c in b.corners]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w_max = pair.cam_dvs.geometry.width - 1.0
    h_max = pair.cam_dvs.geometry.height - 1.0
    if x1 < 0.0 or y1 < 0.0 or x0 > w_max or y0 > h_max:
        raise OffSensor(f"hull [{x0:.1f}, {x1:.1f}]x[{y0:.1f}, {y1:.1f}] outside the sensor")
    cx0, cx1 = max(x0, 0.0), min(x1, w_max)
    cy0, cy1 = max(y0, 0.0), min(y1, h_max)
    clipped = (cx0, cx1, cy0, cy1) != (x0, x1, y0, y1)
    box = BBox(cx0, cy0, cx1 - cx0, cy1 - cy0)
    return TransferredBox(box, clipped, box.area == 0.0)


def transfer_tracks(tracks: Sequence[Track], pair: CameraPair) -> Tuple[List[Track], int]:
    """Move every keyframe box into the event view with transfer_bbox.

    A box that cannot be transferred (off the sensor, behind the camera,
    no convergence) is skipped; a track left with no keyframe is dropped.
    Returns the moved tracks and the number of skipped boxes.
    """
    out: List[Track] = []
    skipped = 0
    for t in tracks:
        kfs = []
        for kf in t.keyframes:
            try:
                kfs.append(Keyframe(kf.frame_idx, transfer_bbox(kf.box, pair).box))
            except EvflowError:
                skipped += 1
        if kfs:
            out.append(Track(t.track_id, tuple(kfs)))
    return out, skipped


def nearest_rotation(r: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor of r (no reflection correction)."""
    u, _, vt = np.linalg.svd(r)
    return u @ vt


def load_calibration(doc: str) -> CameraPair:
    """Parse a flat key-value calibration document into a CameraPair.

    Rotations within 1e-6 of orthonormal are snapped to the nearest
    rotation; anything further off, or any reflection, is rejected.
    """
    values = parse_kv(doc)

    def camera(prefix: str) -> Camera:
        fx, fy, cx, cy = (numbers(values, f"{prefix}.{k}", 1)[0] for k in ("fx", "fy", "cx", "cy"))
        dist = Distortion(*numbers(values, f"{prefix}.dist", 4))
        w, h = numbers(values, f"{prefix}.size", 2, int)
        try:
            return Camera(Intrinsics(fx, fy, cx, cy), dist, SensorGeometry(w, h))
        except ValueError as exc:
            raise ConfigInvalid(f"{prefix}: {exc}") from None

    cam_rgb = camera("cam_rgb")
    cam_dvs = camera("cam_dvs")
    r = np.array(numbers(values, "extrinsics.R", 9)).reshape(3, 3)
    t = np.array(numbers(values, "extrinsics.t", 3))
    deviation = float(np.max(np.abs(r.T @ r - np.eye(3))))
    if deviation > 1e-6:
        raise NonOrthonormalRotation(f"R^T R off identity by {deviation:.3e} (> 1e-6)")
    fixed = nearest_rotation(r)
    if np.linalg.det(fixed) < 0.0:
        raise NonOrthonormalRotation("rotation is a reflection (det = -1)")
    return CameraPair(cam_rgb, cam_dvs, Extrinsics(fixed, t))
