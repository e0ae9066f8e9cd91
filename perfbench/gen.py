"""Generate one workload's inputs into a directory, from its seed.

Run as a separate process by ``run.py`` so that synthesis counts neither in
the measured set-up time nor in the measured peak memory:

    python3 perfbench/gen.py --workload disc-720p --seed 99 --out DIR

Files written: ``events.evb1``, ``gray/NNN.pgm``, ``labels.csv``,
``calib.txt``, ``detections.csv`` (prep only) and ``expect.json``, which
holds the values the checks compare against.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from evflow.events import EventStream, SensorGeometry, encode_stream  # noqa: E402
from evflow.labels import BBox, Detection, Keyframe, Track, write_detections_csv, write_labels_csv  # noqa: E402
from evflow.netpbm import write_pgm  # noqa: E402
from evflow.synth import DiscTrajectory, generate_disc_events, ground_truth_boxes, render_gray_frames  # noqa: E402

P = wl.WINDOW_US


def _trajectories(w: wl.Workload):
    dur = w.n_windows * P * 1e-6
    return [DiscTrajectory(d.start, d.velocity, d.radius, dur, d.density) for d in w.discs]


def _events(w: wl.Workload, geom: SensorGeometry) -> EventStream:
    parts = [generate_disc_events(tr, geom, seed=d.seed) for tr, d in zip(_trajectories(w), w.discs)]
    if len(parts) == 1:
        return parts[0]
    t = np.concatenate([s.t for s in parts])
    order = np.argsort(t, kind="stable")
    cols = [np.concatenate([getattr(s, c) for s in parts])[order] for c in "xyp"]
    return EventStream(geom, t[order], *cols, check=False)


def _gray_clip(w: wl.Workload):
    """RGB frames showing the discs at each frame midpoint, delayed by w.delay frames."""
    s = wl.RGB[0] / wl.SENSOR[0]  # the co-axial pair scales both axes alike
    rgb = SensorGeometry(*wl.RGB)
    per_disc = [
        render_gray_frames(DiscTrajectory((tr.center_start[0] * s, tr.center_start[1] * s),
                                          (tr.velocity[0] * s, tr.velocity[1] * s),
                                          tr.radius * s, tr.duration, tr.event_rate_density),
                           rgb, P, w.sync_frames)
        for tr in _trajectories(w)
    ]
    frames = [np.maximum.reduce(imgs) for imgs in zip(*per_disc)]
    return [frames[0]] * w.delay + frames[: len(frames) - w.delay]


def _disc_tracks(w: wl.Workload, geom: SensorGeometry):
    """Event-view truth per disc, and RGB-view keyframed tracks of the same discs."""
    assert w.calib is wl.COAXIAL_CALIB, "truth-derived RGB labels need the co-axial pair"
    sx = wl.RGB[0] / wl.SENSOR[0]
    truth, tracks = [], []
    for i, tr in enumerate(_trajectories(w)):
        kfs = ground_truth_boxes(tr, P, geom).keyframes
        truth.append([[kf.frame_idx, kf.box.x, kf.box.y, kf.box.w, kf.box.h] for kf in kfs])
        keep = list(range(0, len(kfs), w.keyframe_stride))
        if keep[-1] != len(kfs) - 1:
            keep.append(len(kfs) - 1)
        rgb = [Keyframe(kfs[j].frame_idx, BBox(kfs[j].box.x * sx, kfs[j].box.y * sx,
                                               kfs[j].box.w * sx, kfs[j].box.h * sx)) for j in keep]
        tracks.append(Track(f"disc{i}", tuple(rgb)))
    return truth, tracks


def _grid_tracks(w: wl.Workload):
    """RGB-view tracks, one per cell of a grid, each moving inside its own cell."""
    rng = wl._rng(w.seed, 3)
    cols, rows = w.label_grid
    x_lo, x_hi, y_lo, y_hi, margin = 60.0, 580.0, 40.0, 320.0, 8.0
    cw, ch = (x_hi - x_lo) / cols, (y_hi - y_lo) / rows
    tracks = []
    for r in range(rows):
        for c in range(cols):
            bw, bh = rng.uniform(14, 30), rng.uniform(12, 26)
            lo = np.array([x_lo + c * cw + margin, y_lo + r * ch + margin])
            hi = lo + np.array([cw - 2 * margin - bw, ch - 2 * margin - bh])
            a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
            # every track spans the recording, so the label work is the same on every seed
            last = w.n_windows - 1
            kfs = []
            for f in range(0, last + 1, w.keyframe_stride):
                u = f / last
                x, y = np.clip(a + u * (b - a) + rng.uniform(-1, 1, 2), lo, hi)
                kfs.append(Keyframe(f, BBox(float(x), float(y), float(bw), float(bh))))
            tracks.append(Track(f"t{r}{c}", tuple(kfs)))
    return tracks


def _seeded_detections(w: wl.Workload, gt_by_frame):
    """Detections with built-in outcomes, in fixed shares so that AP barely moves with
    the seed: every 7th box missed, every 20th hit duplicated at lower confidence,
    a false alarm in a corner no track reaches on every 10th frame."""
    rng = wl._rng(w.seed, 4)
    dets, tp, fp, j = [], 0, 0, 0
    for f in sorted(gt_by_frame):
        for (x, y, bw, bh) in gt_by_frame[f]:
            j += 1
            if j % 7 == 3:
                continue  # missed: counts as a false negative
            d = rng.uniform(-0.5, 0.5, 4)
            conf = float(rng.uniform(0.2, 1.0))
            dets.append(Detection(f, BBox(x + d[0], y + d[1], bw + d[2], bh + d[3]), conf))
            tp += 1
            if tp % 20 == 7:
                dets.append(Detection(f, BBox(x - d[0], y - d[1], bw, bh), conf * 0.5))
                fp += 1
        if f % 10 == 5:
            dets.append(Detection(f, BBox(float(rng.uniform(5, 40)), float(rng.uniform(5, 20)),
                                          20.0, 20.0), float(rng.uniform(0.2, 1.0))))
            fp += 1
    n_gt = sum(len(v) for v in gt_by_frame.values())
    return dets, {"tp": tp, "fp": fp, "fn": n_gt - tp}


def _calib_text(c: dict) -> str:
    lines = []
    for cam in ("cam_rgb", "cam_dvs"):
        v = c[cam]
        lines += [f"{cam}.{k} = {v[k]!r}" for k in ("fx", "fy", "cx", "cy")]
        lines.append(f"{cam}.dist = " + " ".join(repr(float(d)) for d in v["dist"]))
        lines.append(f"{cam}.size = {v['size'][0]} {v['size'][1]}")
    lines.append("extrinsics.R = " + " ".join(repr(float(r)) for r in c["R"]))
    lines.append("extrinsics.t = " + " ".join(repr(float(t)) for t in c["t"]))
    return "\n".join(lines) + "\n"


def generate(w: wl.Workload, out: Path) -> None:
    geom = SensorGeometry(*wl.SENSOR)
    out.mkdir(parents=True, exist_ok=True)
    stream = _events(w, geom)
    (out / "events.evb1").write_bytes(encode_stream(stream))
    t = stream.t
    windows = int(t[-1]) // P - int(t[0]) // P + 1
    edges = np.arange(int(t[0]) // P, int(t[-1]) // P + 2, dtype=np.uint64) * np.uint64(P)
    per_window = np.diff(np.searchsorted(t, edges))

    (out / "gray").mkdir(exist_ok=True)
    for k, img in enumerate(_gray_clip(w)):
        (out / "gray" / f"{k:03d}.pgm").write_bytes(write_pgm(img))

    if w.label_grid is None:
        truth, tracks = _disc_tracks(w, geom)
    else:
        truth, tracks = None, _grid_tracks(w)
    write_labels_csv(tracks, str(out / "labels.csv"))
    (out / "calib.txt").write_text(_calib_text(w.calib))

    transferred = {}
    gt_by_frame = {}
    for tr in tracks:
        kfs = [(kf.frame_idx, oracles.transfer_box((kf.box.x, kf.box.y, kf.box.w, kf.box.h), w.calib))
               for kf in tr.keyframes]
        transferred[str(tr.track_id)] = [[f, *b] for f, b in kfs]
        for f, b in oracles.densify(kfs).items():
            gt_by_frame.setdefault(f, []).append(b)

    expect = {
        "workload": w.name, "seed": w.seed, "windows": windows,
        "first_window": int(t[0]) // P, "events": int(t.size),
        "events_per_window_p50": float(np.median(per_window)),
        "delay": w.delay, "transferred": transferred, "truth": truth,
        "n_gt": sum(len(v) for v in gt_by_frame.values()),
    }
    if w.label_grid is not None:
        dets, counts = _seeded_detections(w, gt_by_frame)
        write_detections_csv(dets, str(out / "detections.csv"))
        expect["counts"] = counts
    (out / "expect.json").write_text(json.dumps(expect))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(wl.make(args.workload, args.seed), Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
