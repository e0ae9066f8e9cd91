"""Power-trace analysis and the batched-inference latency model.

Traces are uniformly sampled (voltage, current) pairs; instantaneous
power is their product. Per-frame energy integrates power over a time
window with the trapezoid rule and divides by the frames processed in it.
The latency model captures the real-time batching trade-off: a batch of B
frames takes B * frame_period to fill, then one inference pass; the batch
is serviceable in real time iff inference finishes before the next batch
is full. The model's result is one BenchRow per batch size:
batching_latency(batch_size, latency_s, frame_period) fills its latency
fields, sweep_batches adds the energy ones.

Power CSV: header ``t_s,voltage_v,current_a``, one sample per row.
Latency table CSV: header ``batch_size,latency_ms``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import IO, Dict, List, Mapping, Sequence, Union

import numpy as np

from .config import read_table
from .errors import (
    EmptyTrace,
    MissingInput,
    NegativeVoltage,
    NonUniformSampling,
    TraceTooShort,
    WindowOutOfRange,
    ZeroFrames,
)
from .frames import DEFAULT_WINDOW_US

DEFAULT_SMOOTH_WINDOW = 10


@dataclass(frozen=True)
class PowerTrace:
    sample_period: float  # seconds
    voltage: np.ndarray   # volts
    current: np.ndarray   # amperes

    def __post_init__(self):
        if not 0 < self.sample_period < math.inf:
            raise ValueError(f"sample_period must be finite and positive, got {self.sample_period}")
        v = np.asarray(self.voltage, dtype=np.float64)
        c = np.asarray(self.current, dtype=np.float64)
        if v.shape != c.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("voltage and current must be equal-length non-empty 1D arrays")
        if np.any(v < 0):
            raise NegativeVoltage(f"sample {int(np.argmax(v < 0))} has voltage < 0")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is what is checked
            finite = np.isfinite(v * c)
        if not finite.all():
            raise ValueError(f"sample {int(np.argmin(finite))} has a non-finite power V*I")
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "voltage", v)
        object.__setattr__(self, "current", c)

    def __len__(self) -> int:
        return int(self.voltage.size)

    @property
    def power(self) -> np.ndarray:
        """Instantaneous power in watts."""
        return self.voltage * self.current

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.sample_period

    @property
    def duration(self) -> float:
        return (len(self) - 1) * self.sample_period


def _power_sample(*fields: str) -> tuple:
    """One power CSV row as floats (t, V, I); the fields and V*I must be finite."""
    t, v, c = values = tuple(map(float, fields))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"fields must be finite, got {', '.join(fields)}")
    if not math.isfinite(v * c):
        raise ValueError(f"power {fields[1]} V * {fields[2]} A is not finite")
    return values


def load_power_trace(f: Union[str, IO[str]]) -> PowerTrace:
    """Read a power CSV and infer the sample period.

    The grid must be uniform: every timestamp within 1% of the inferred
    period from its nominal position.
    """
    rows = read_table(f, ("t_s", "voltage_v", "current_a"), _power_sample)
    if not rows:
        raise EmptyTrace("no samples")
    t, v, c = np.array(rows).T
    if len(rows) < 2:
        raise NonUniformSampling("need at least two samples to infer the period")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check below
        period = (t[-1] - t[0]) / (len(t) - 1)
        if not 0 < period < math.inf:
            raise NonUniformSampling("timestamps do not increase over a finite span")
        nominal = t[0] + np.arange(len(t)) * period
        worst = float(np.max(np.abs(t - nominal)))
    if not worst <= 0.01 * period:
        raise NonUniformSampling(
            f"timestamp deviates {worst:.3e}s from a uniform {period:.3e}s grid"
        )
    return PowerTrace(float(period), v, c)


def smooth(tr: PowerTrace, window: int = DEFAULT_SMOOTH_WINDOW) -> np.ndarray:
    """Moving average of instantaneous power; output length N - window + 1."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(tr) < window:
        raise TraceTooShort(f"{len(tr)} samples < window of {window}")
    p = tr.power
    return np.convolve(p, np.ones(window), mode="valid") / window


def energy_per_frame(
    tr: PowerTrace, t_start: float, t_end: float, frames_processed: int
) -> float:
    """Trapezoidal energy over [t_start, t_end] divided by frames, in millijoules."""
    if frames_processed < 1:
        raise ZeroFrames(f"frames_processed must be >= 1, got {frames_processed}")
    if not (0.0 <= t_start < t_end <= tr.duration + 1e-12):
        raise WindowOutOfRange(
            f"[{t_start}, {t_end}] outside trace extent [0, {tr.duration}]"
        )
    times = tr.times
    power = tr.power
    inside = (times > t_start) & (times < t_end)
    ts = np.concatenate([[t_start], times[inside], [t_end]])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
        joules = float(np.trapezoid(np.interp(ts, times, power), ts))
    mj = joules * 1e3 / frames_processed
    if not math.isfinite(mj):
        raise WindowOutOfRange(f"energy over [{t_start}, {t_end}] overflows a float")
    return mj


@dataclass(frozen=True)
class BenchRow:
    batch_size: int
    worst_case_ms: float
    throughput_fps: float
    realtime_feasible: bool
    energy_mj_per_frame: float | None = None
    mean_power_w: float | None = None


def batching_latency(
    batch_size: int, latency_s: float, frame_period: int = DEFAULT_WINDOW_US
) -> BenchRow:
    """Worst-case detection latency and feasibility of batch size B whose
    inference pass takes latency_s seconds, at frame_period microseconds, as
    a row without energy.

    A frame may wait for the whole batch to fill (B * frame_period) and
    then for one inference pass. Real-time feasible iff the pass finishes
    before the next batch is full.
    """
    b = batch_size
    if b < 1:
        raise ValueError(f"batch_size must be >= 1, got {b}")
    if frame_period <= 0:
        raise ValueError(f"frame_period must be positive, got {frame_period}")
    lat_s = float(latency_s)
    if not 0 < lat_s < math.inf:
        raise ValueError(f"inference latency must be finite and positive, got {lat_s}")
    fill_s = b * frame_period * 1e-6
    worst_ms = (fill_s + lat_s) * 1e3
    throughput = b / max(fill_s, lat_s)
    return BenchRow(b, worst_ms, throughput, lat_s <= fill_s)


@dataclass(frozen=True)
class EnergyInput:
    """One measured run: a trace window and the frames processed inside it."""

    trace: PowerTrace
    t_start: float
    t_end: float
    frames_processed: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple

    def to_json(self) -> str:
        return json.dumps({"rows": [asdict(r) for r in self.rows]}, indent=2, allow_nan=False)

    def format_table(self) -> str:
        table = [["B", "worst_ms", "fps", "feasible", "mJ/frame", "mean_W"]] + [
            [
                str(r.batch_size),
                f"{r.worst_case_ms:.1f}",
                f"{r.throughput_fps:.1f}",
                "yes" if r.realtime_feasible else "no",
                "-" if r.energy_mj_per_frame is None else f"{r.energy_mj_per_frame:.1f}",
                "-" if r.mean_power_w is None else f"{r.mean_power_w:.2f}",
            ]
            for r in self.rows
        ]
        widths = [max(map(len, column)) for column in zip(*table)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in table)


def sweep_batches(
    batch_sizes: Sequence[int],
    latency: Mapping[int, float],
    energy_inputs: Mapping[int, EnergyInput] | None = None,
    frame_period: int = DEFAULT_WINDOW_US,
) -> BenchReport:
    """One report row per batch size, ordered by batch size.

    When energy inputs are given they must cover every requested batch
    size; when omitted, the energy columns stay empty.
    """
    rows: List[BenchRow] = []
    for b in sorted(set(batch_sizes)):
        if b not in latency:
            raise MissingInput(f"no inference latency for batch size {b}")
        row = batching_latency(b, latency[b], frame_period)
        if energy_inputs is not None:
            if b not in energy_inputs:
                raise MissingInput(f"no trace for batch size {b}")
            ei = energy_inputs[b]
            energy = energy_per_frame(ei.trace, ei.t_start, ei.t_end, ei.frames_processed)
            mean_power = energy * ei.frames_processed / 1e3 / (ei.t_end - ei.t_start)
            row = replace(row, energy_mj_per_frame=energy, mean_power_w=mean_power)
        rows.append(row)
    return BenchReport(tuple(rows))


def load_latency_table(f: Union[str, IO[str]]) -> Dict[int, float]:
    """Read a latency table CSV into {batch_size: seconds}; each batch size
    1 <= B < 2^63 comes once, with a finite positive latency."""
    out: Dict[int, float] = {}

    def row(batch_size: str, ms: str) -> None:
        b, s = int(batch_size), float(ms) * 1e-3
        if not 1 <= b < 2**63 or not 0 < s < math.inf:
            raise ValueError(f"batch size {b}, latency {ms} ms: need 1 <= B < 2^63 and a finite positive latency")
        if b in out:
            raise ValueError(f"batch size {b} repeated")
        out[b] = s

    read_table(f, ("batch_size", "latency_ms"), row)
    if not out:
        raise MissingInput("latency table has no rows")
    return out
