"""Flat key-value config files: one ``key = value`` per line, # comments."""

from __future__ import annotations

from typing import Dict, Tuple

from .errors import ConfigInvalid
from .events import SensorGeometry
from .pipeline import PipelineConfig
from .synth import DiscTrajectory


def parse_kv(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _pair(raw: str, key: str) -> Tuple[float, float]:
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigInvalid(f"{key}: expected two values, got {raw!r}")
    return float(parts[0]), float(parts[1])


def trajectory_from_config(values: Dict[str, str]) -> Tuple[DiscTrajectory, SensorGeometry]:
    """Read synth keys: center_start, velocity, radius, duration_s,
    event_rate_density, sensor."""
    try:
        traj = DiscTrajectory(
            center_start=_pair(values["center_start"], "center_start"),
            velocity=_pair(values["velocity"], "velocity"),
            radius=float(values["radius"]),
            duration=float(values["duration_s"]),
            event_rate_density=float(values["event_rate_density"]),
        )
        w, h = _pair(values["sensor"], "sensor")
        geom = SensorGeometry(int(w), int(h))
    except KeyError as exc:
        raise ConfigInvalid(f"missing config key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    return traj, geom


def pipeline_from_config(values: Dict[str, str]) -> PipelineConfig:
    """Read pipeline keys; every key is optional and falls back to defaults."""
    cfg = PipelineConfig()
    try:
        if "integration_window_us" in values:
            cfg.integration_window = int(values["integration_window_us"])
        if "batch_size" in values:
            cfg.batch_size = int(values["batch_size"])
        if "detector" in values:
            cfg.detector = values["detector"]
        if "downscale_to" in values and values["downscale_to"].lower() != "none":
            w, h = _pair(values["downscale_to"], "downscale_to")
            cfg.downscale_to = (int(w), int(h))
        if "queue_capacity" in values:
            cfg.queue_capacity = int(values["queue_capacity"])
        if "stub_min_area" in values:
            cfg.stub_min_area = int(values["stub_min_area"])
        if "stub_activity_thresh" in values:
            cfg.stub_activity_thresh = int(values["stub_activity_thresh"])
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    cfg.validated_capacity()
    return cfg
