"""Flat ``key = value`` documents, one per line with # comments: the one
syntax of config and calibration files. The readers that build typed
objects live beside their types: pipeline.pipeline_from_config,
synth.trajectory_from_config and geometry.load_calibration.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from .errors import ConfigInvalid, MissingField


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


def numbers(values: Dict[str, str], key: str, n: int, kind: Callable = float) -> List:
    """The n finite values of key, read with kind; MissingField or ConfigInvalid if not."""
    if key not in values:
        raise MissingField(f"missing key {key!r}")
    parts = values[key].split()
    if len(parts) != n:
        raise ConfigInvalid(f"{key}: expected {n} values, got {len(parts)}")
    try:
        out = [kind(v) for v in parts]
    except ValueError:
        raise ConfigInvalid(f"{key}: expected {kind.__name__} values, got {values[key]!r}") from None
    if not all(math.isfinite(v) for v in out):
        raise ConfigInvalid(f"{key}: values must be finite, got {values[key]!r}")
    return out
