"""Correctness checks on the program's outputs.

Each check returns a list of problems, empty when the output is right, so
that the runner can report every fault of a run and the benchmark's tests
can feed each check a deliberately wrong output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

AP_FLOOR = 0.9
OFFSET_TOLERANCE = 1   # frames
BOX_TOLERANCE = 1e-3   # pixels


def detection_keys(dets) -> List[tuple]:
    return [(d.frame_idx, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence) for d in dets]


def check_pass(label: str, metrics, keys: Sequence[tuple], ref_keys: Sequence[tuple],
               windows: int) -> List[str]:
    """One pipeline pass: every window produced and inferred, none dropped, same detections."""
    out = []
    if metrics.frames_produced != windows or metrics.frames_inferred != windows:
        out.append(f"{label}: produced {metrics.frames_produced}, inferred "
                   f"{metrics.frames_inferred}, expected {windows} windows")
    if metrics.frames_dropped:
        out.append(f"{label}: dropped {metrics.frames_dropped} frames")
    if list(keys) != list(ref_keys):
        diff = next((i for i, (a, b) in enumerate(zip(keys, ref_keys)) if a != b),
                    min(len(keys), len(ref_keys)))
        out.append(f"{label}: detections differ from the t1 B=1 pass at index {diff} "
                   f"({len(keys)} vs {len(ref_keys)} detections)")
    return out


def check_ap(ap: float, floor: float = AP_FLOOR) -> List[str]:
    return [] if ap >= floor else [f"AP {ap:.4f} below {floor}"]


def check_counts(report, expected: Dict[str, int]) -> List[str]:
    got = {"tp": report.tp, "fp": report.fp, "fn": report.fn}
    return [] if got == expected else [f"evaluation counts {got} != built-in {expected}"]


def check_offset(offset: int, delay: int) -> List[str]:
    if abs(offset - delay) <= OFFSET_TOLERANCE:
        return []
    return [f"recovered offset {offset} is not within {OFFSET_TOLERANCE} of the injected delay {delay}"]


def _box_err(a: Sequence[float], b: Sequence[float]) -> float:
    return float(np.max(np.abs(np.subtract(a, b))))


def check_transfer(tracks, expected: Dict[str, List[list]], tol: float = BOX_TOLERANCE) -> List[str]:
    """Transferred keyframes against the independent camera model."""
    got = {str(t.track_id): [[k.frame_idx, k.box.x, k.box.y, k.box.w, k.box.h] for k in t.keyframes]
           for t in tracks}
    if sorted(got) != sorted(expected):
        return [f"transferred tracks {sorted(got)} != expected {sorted(expected)}"]
    for tid, ref in expected.items():
        mine = got[tid]
        if [k[0] for k in mine] != [k[0] for k in ref]:
            return [f"track {tid}: keyframe indices differ"]
        worst = max(_box_err(a[1:], b[1:]) for a, b in zip(mine, ref))
        if worst > tol:
            return [f"track {tid}: transferred box off the oracle by {worst:.3g} px (> {tol})"]
    return []


def check_truth(gt_by_frame: Dict[int, list], truth: List[List[list]],
                tol: float = BOX_TOLERANCE) -> List[str]:
    """Densified event-view labels against the trajectory-derived boxes."""
    ref: Dict[int, List[Tuple[float, ...]]] = {}
    for track in truth:
        for f, *box in track:
            ref.setdefault(int(f), []).append(tuple(box))
    if sorted(gt_by_frame) != sorted(ref):
        return [f"labelled frames {len(gt_by_frame)} != trajectory frames {len(ref)}"]
    for f, boxes in ref.items():
        mine = sorted((b.x, b.y, b.w, b.h) for b in gt_by_frame[f])
        if len(mine) != len(boxes):
            return [f"frame {f}: {len(mine)} label boxes, trajectory has {len(boxes)}"]
        worst = max(_box_err(a, b) for a, b in zip(mine, sorted(boxes)))
        if worst > tol:
            return [f"frame {f}: label box off the trajectory by {worst:.3g} px (> {tol})"]
    return []


def check_frame(label: str, frame, pos: np.ndarray, neg: np.ndarray) -> List[str]:
    bad = int(np.count_nonzero(frame.pos != pos) + np.count_nonzero(frame.neg != neg))
    return [f"{label}: {bad} cells differ from the reference"] if bad else []
