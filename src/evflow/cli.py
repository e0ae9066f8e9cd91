"""Command-line front end.

Subcommands: synth, accumulate, sync, transfer-labels, eval, bench, run.
Success exits 0; data errors print one machine-parsable line to stderr
(``error: <Kind>: <detail>``) and exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional, Tuple

import numpy as np

from . import bench as bench_mod
from . import config as config_mod
from . import frames as frames_mod
from . import labels as labels_mod
from . import netpbm
from . import sync as sync_mod
from . import synth as synth_mod
from .errors import ConfigInvalid, EvflowError, MissingInput
from .events import decode_stream, encode_stream
from .geometry import load_calibration, transfer_tracks
from .pipeline import PipelineConfig, pipeline_from_config, run_pipeline


# argparse types: a value they reject with ValueError is a usage error (exit 2)


def positive_ints(text: str) -> List[int]:
    values = [int(v) for v in text.split(",")]
    if min(values) < 1:
        raise ValueError(text)
    return values


def positive_int(text: str) -> int:
    (value,) = positive_ints(text)
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def size(text: str) -> Tuple[int, int]:
    w, h = positive_ints(text)
    return w, h


def iou(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(text)
    return value


def time_window(text: str) -> Tuple[float, float]:
    t0, t1 = (float(v) for v in text.split(":"))
    return t0, t1


def power_trace(text: str) -> Tuple[int, str, int]:
    b, rest = text.split("=", 1)
    path, frames = rest.rsplit(":", 1)
    return positive_int(b), path, positive_int(frames)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_events(path: str):
    return decode_stream(_read(path))


def _cmd_synth(args) -> int:
    defaults = {"seed": "0", "frame_period_us": str(frames_mod.DEFAULT_WINDOW_US)}
    values = {**defaults, **config_mod.parse_kv(_read(args.config).decode())}
    traj, geom = synth_mod.trajectory_from_config(values)
    seed = args.seed if args.seed is not None else config_mod.numbers(values, "seed", 1, int)[0]
    if seed < 0:
        raise ConfigInvalid(f"seed must be non-negative, got {seed}")
    stream = synth_mod.generate_disc_events(traj, geom, seed)
    with open(args.out, "wb") as fh:
        fh.write(encode_stream(stream))
    print(f"wrote {len(stream)} events to {args.out}")
    if args.truth:
        period = config_mod.numbers(values, "frame_period_us", 1, int)[0]
        track = synth_mod.ground_truth_boxes(traj, period, geom)
        labels_mod.write_labels_csv([track], args.truth)
        print(f"wrote {len(track.keyframes)} ground-truth boxes to {args.truth}")
    return 0


def _cmd_accumulate(args) -> int:
    stream = _load_events(args.events)
    os.makedirs(args.out_dir, exist_ok=True)
    n = 0
    for n, f in enumerate(frames_mod.window_frames(stream, args.window_us), 1):
        if args.downscale:
            f = frames_mod.downscale(f, *args.downscale)
        base = os.path.join(args.out_dir, f"frame_{f.frame_index:06d}")
        with open(base + ".pfr1", "wb") as fh:
            fh.write(frames_mod.write_pfr1(f))
        if args.render:
            with open(base + ".ppm", "wb") as fh:
                fh.write(netpbm.write_ppm(frames_mod.render_rgb(f)))
    print(f"wrote {n} frames to {args.out_dir}")
    return 0


def _cmd_sync(args) -> int:
    stream = _load_events(args.events)
    names = sorted(
        n for n in os.listdir(args.frames_dir) if n.endswith((".pgm", ".ppm"))
    )
    if len(names) < 2:
        raise MissingInput(f"need at least two frames in {args.frames_dir}")
    gray = [
        netpbm.luminance(netpbm.read_netpbm(_read(os.path.join(args.frames_dir, n))))
        for n in names
    ]
    seq = sync_mod.GrayFrameSequence(
        gray[0].shape[1], gray[0].shape[0], args.frame_period_us, tuple(gray)
    )
    rgb_act = sync_mod.gray_activity_sequence(seq)
    ev_act = sync_mod.event_activity_sequence(stream, args.frame_period_us, len(rgb_act))
    result = sync_mod.find_offset(
        sync_mod.to_common_raster(ev_act),
        sync_mod.to_common_raster(rgb_act),
        args.max_offset,
    )
    doc = {
        "best_offset": result.best_offset,
        "best_score": result.best_score,
        "curve": [[d, s] for d, s in result.score_curve],
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_transfer_labels(args) -> int:
    pair = load_calibration(_read(args.calib).decode())
    out_tracks, skipped = transfer_tracks(labels_mod.load_labels_csv(args.labels), pair)
    labels_mod.write_labels_csv(out_tracks, args.out)
    if skipped:
        print(f"skipped {skipped} box(es) falling off the event sensor", file=sys.stderr)
    print(f"wrote {sum(len(t.keyframes) for t in out_tracks)} boxes to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    dets = labels_mod.load_detections_csv(args.detections)
    tracks = labels_mod.load_labels_csv(args.truth)
    gts = labels_mod.densify_tracks(tracks)
    report = labels_mod.evaluate_detections(dets, gts, args.iou)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_bench(args) -> int:
    latency = bench_mod.load_latency_table(args.latency_table)
    energy_inputs = None
    if args.trace:
        energy_inputs = {}
        for b, path, n_frames in args.trace:
            trace = bench_mod.load_power_trace(path)
            t0, t1 = args.window or (0.0, trace.duration)
            energy_inputs[b] = bench_mod.EnergyInput(trace, t0, t1, n_frames)
    batches = args.batch_sizes or sorted(latency)
    report = bench_mod.sweep_batches(
        batches, latency, energy_inputs, args.frame_period_us
    )
    print(report.to_json() if args.json else report.format_table())
    return 0


def _cmd_run(args) -> int:
    stream = _load_events(args.events)
    cfg = (
        pipeline_from_config(config_mod.parse_kv(_read(args.config).decode()))
        if args.config
        else PipelineConfig()
    )
    calib = load_calibration(_read(args.calib).decode()) if args.calib else None
    gts = labels_mod.load_labels_csv(args.truth) if args.truth else None
    result = run_pipeline(stream, cfg, calib=calib, gts=gts)
    if args.detections_out:
        labels_mod.write_detections_csv(result.detections, args.detections_out)
    doc = {
        **asdict(result.metrics),
        "n_detections": len(result.detections),
        "labels_skipped": result.labels_skipped,
    }
    if result.eval_report is not None:
        doc["eval"] = result.eval_report.to_dict()
    text = json.dumps(doc, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evflow", description="Event-camera detection pipeline toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic disc recording")
    p.add_argument("--config", required=True, help="trajectory key-value config")
    p.add_argument("--out", required=True, help="output EVB1 path")
    p.add_argument("--truth", help="also write ground-truth labels CSV")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("accumulate", help="convert events to polarity frames")
    p.add_argument("--events", required=True, help="EVB1 input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--window-us", type=int, default=frames_mod.DEFAULT_WINDOW_US)
    p.add_argument("--downscale", type=size, help="output size W,H")
    p.add_argument("--render", action="store_true", help="also write PPM renders")
    p.set_defaults(fn=_cmd_accumulate)

    p = sub.add_parser("sync", help="recover the event/frame temporal offset")
    p.add_argument("--events", required=True, help="EVB1 input")
    p.add_argument("--frames-dir", required=True, help="directory of PGM/PPM frames")
    p.add_argument("--frame-period-us", type=positive_int, required=True)
    p.add_argument("--max-offset", type=non_negative_int, default=10)
    p.add_argument("--out", help="write the JSON report here as well")
    p.set_defaults(fn=_cmd_sync)

    p = sub.add_parser("transfer-labels", help="map RGB labels into the event view")
    p.add_argument("--labels", required=True, help="labels CSV in RGB pixel space")
    p.add_argument("--calib", required=True, help="calibration key-value document")
    p.add_argument("--out", required=True, help="output labels CSV")
    p.set_defaults(fn=_cmd_transfer_labels)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--iou", type=iou, default=0.5)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("bench", help="batching latency / energy report")
    p.add_argument("--latency-table", required=True, help="CSV batch_size,latency_ms")
    p.add_argument("--trace", type=power_trace, action="append",
                   help="B=PATH:FRAMES power trace per batch size")
    p.add_argument("--window", type=time_window, help="integration window T0:T1 seconds")
    p.add_argument("--batch-sizes", type=positive_ints, help="comma list; defaults to the table's")
    p.add_argument("--frame-period-us", type=positive_int,
                   default=bench_mod.DEFAULT_FRAME_PERIOD_US)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("run", help="full accumulate->detect pipeline")
    p.add_argument("--events", required=True)
    p.add_argument("--config", help="pipeline key-value config")
    p.add_argument("--calib", help="transfer ground truth through this calibration")
    p.add_argument("--truth", help="labels CSV for scoring")
    p.add_argument("--detections-out", help="write detections CSV")
    p.add_argument("--report", help="write the JSON report here as well")
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # UnicodeDecodeError: a text input file that is not UTF-8; MemoryError: an
    # input whose window grid is too large to allocate
    except (EvflowError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
