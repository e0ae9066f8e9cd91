"""Workload specifications shared by the input generator and the runner.

Every workload is one RGB/DVS recording pair: a DVS event recording at
1280x720 of moving discs, a short gray RGB clip at 640x360 with an
injected frame delay, a camera calibration, keyframed label tracks in the
RGB view and, for ``prep-720p``, a seeded detection set. The workloads
differ in which layer their inputs stress (see README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

SENSOR = (1280, 720)
RGB = (640, 360)
WINDOW_US = 33_333
MAX_OFFSET = 10
STUB_MIN_AREA = 20               # stub_detector's minimum blob area, in pixels

# co-axial RGB camera at half the DVS focal length: u_dvs = 2 * u_rgb
COAXIAL_CALIB = {
    "cam_rgb": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 180.0,
                "dist": (0.0, 0.0, 0.0, 0.0), "size": RGB},
    "cam_dvs": {"fx": 1000.0, "fy": 1000.0, "cx": 640.0, "cy": 360.0,
                "dist": (0.0, 0.0, 0.0, 0.0), "size": SENSOR},
    "R": tuple(np.eye(3).ravel()),
    "t": (0.0, 0.0, 0.0),
}


def _axis_angle(axis, degrees):
    axis = np.asarray(axis, dtype=float)
    kx, ky, kz = axis / np.linalg.norm(axis)
    k = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    a = math.radians(degrees)
    return np.eye(3) + math.sin(a) * k + (1 - math.cos(a)) * (k @ k)


# side-by-side pair with lens distortion on both cameras and a 1.5 degree
# relative rotation; both radial profiles are monotone over the images
DISTORTED_CALIB = {
    "cam_rgb": {"fx": 520.0, "fy": 515.0, "cx": 322.0, "cy": 178.0,
                "dist": (-0.12, 0.03, 0.001, -0.0015), "size": RGB},
    "cam_dvs": {"fx": 1010.0, "fy": 1005.0, "cx": 645.0, "cy": 358.0,
                "dist": (0.06, -0.01, -0.0008, 0.0012), "size": SENSOR},
    "R": tuple(_axis_angle([0.3, -0.5, 1.0], 1.5).ravel()),
    "t": (0.05, 0.0, 0.0),
}


@dataclass(frozen=True)
class Disc:
    start: Tuple[float, float]   # DVS pixels
    velocity: Tuple[float, float]  # DVS pixels / s
    radius: float                # DVS pixels
    density: float               # events per boundary pixel per second
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    n_windows: int
    discs: Tuple[Disc, ...]
    sync_frames: int             # RGB clip length; events of the same span
    delay: int                   # injected RGB frame delay
    calib: dict
    downscale_to: Optional[Tuple[int, int]]
    keyframe_stride: int
    setup_reps: int              # set-up repetitions, about a second in all
    label_reps: int              # label jobs in each timed batch, four batches a round
    t2_reps: int                 # t2 B=1 passes per round
    label_grid: Optional[Tuple[int, int]] = None  # prep: (cols, rows) of label tracks


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def disc_720p(seed: int) -> Workload:
    # the ROADMAP's criterion-9 trajectory; --seed 99 reproduces its events
    disc = Disc((100.0, 100.0), (100.0, 55.0), 14.0, 700.0, seed)
    return Workload(
        name="disc-720p", seed=seed, n_windows=300, discs=(disc,),
        sync_frames=30, delay=int(_rng(seed, 1).integers(2, 8)),
        calib=COAXIAL_CALIB, downscale_to=None, keyframe_stride=10,
        setup_reps=40, label_reps=100, t2_reps=2,
    )


def busy_720p(seed: int) -> Workload:
    rng = _rng(seed, 2)
    discs = []
    for i in range(8):
        right = i % 2 == 0
        x0 = (110.0 if right else 1170.0) + float(rng.uniform(-20, 20))
        discs.append(Disc((x0, 60.0 + 85.0 * i), (600.0 if right else -600.0, 0.0),
                          25.0, 4000.0, seed * 16 + i))
    return Workload(
        name="busy-720p", seed=seed, n_windows=20, discs=tuple(discs),
        sync_frames=20, delay=int(_rng(seed, 1).integers(2, 8)),
        calib=COAXIAL_CALIB, downscale_to=RGB, keyframe_stride=10,
        setup_reps=8, label_reps=100, t2_reps=1,
    )


def prep_720p(seed: int) -> Workload:
    disc = Disc((300.0, 250.0), (240.0, 90.0), 20.0, 700.0, seed)
    return Workload(
        name="prep-720p", seed=seed, n_windows=48, discs=(disc,),
        sync_frames=40, delay=int(_rng(seed, 1).integers(2, 8)),
        calib=DISTORTED_CALIB, downscale_to=None, keyframe_stride=2,
        label_grid=(6, 4), setup_reps=40, label_reps=1, t2_reps=3,
    )


WORKLOADS = {"disc-720p": disc_720p, "busy-720p": busy_720p, "prep-720p": prep_720p}


def make(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed)


def reduced(w: Workload) -> Workload:
    """A small version of a workload, for the benchmark's own tests."""
    return replace(w, n_windows=16, discs=w.discs[:2], sync_frames=16, delay=min(w.delay, 3),
                   setup_reps=2, label_reps=1, t2_reps=1)
