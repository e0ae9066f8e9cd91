"""Tests of the benchmark itself: its checks reject wrong outputs, and every
workload runs to its end at reduced size.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from evflow.events import EventStream, SensorGeometry  # noqa: E402
from evflow.frames import accumulate, downscale  # noqa: E402
from evflow.labels import BBox, Detection, EvalReport, Keyframe, Track  # noqa: E402
from evflow.pipeline import PipelineMetrics  # noqa: E402


def _dets():
    return [Detection(0, BBox(10.0, 20.0, 30.0, 40.0), 0.9), Detection(1, BBox(12.0, 21.0, 30.0, 40.0), 0.8)]


def test_check_pass_accepts_a_whole_lossless_pass():
    keys = checks.detection_keys(_dets())
    m = PipelineMetrics(frames_produced=300, frames_inferred=300, frames_dropped=0)
    assert checks.check_pass("t1_b1", m, keys, keys, 300) == []


def test_check_pass_rejects_one_detection_box_moved():
    dets = _dets()
    moved = dets[:1] + [replace(dets[1], box=replace(dets[1].box, x=dets[1].box.x + 1.0))]
    m = PipelineMetrics(frames_produced=300, frames_inferred=300)
    assert checks.check_pass("t2_b1", m, checks.detection_keys(moved), checks.detection_keys(dets), 300)


@pytest.mark.parametrize("produced,inferred,dropped", [(299, 299, 0), (300, 299, 0), (300, 298, 2)])
def test_check_pass_rejects_frame_count_off_by_one_or_drops(produced, inferred, dropped):
    keys = checks.detection_keys(_dets())
    m = PipelineMetrics(frames_produced=produced, frames_inferred=inferred, frames_dropped=dropped)
    assert checks.check_pass("t1_b4", m, keys, keys, 300)


def test_check_offset_rejects_an_offset_off_by_two():
    assert checks.check_offset(5, 5) == [] and checks.check_offset(6, 5) == []
    assert checks.check_offset(7, 5)
    assert checks.check_offset(3, 5)


def test_check_ap_rejects_below_floor():
    assert checks.check_ap(0.95) == []
    assert checks.check_ap(0.89)


def test_check_counts_rejects_a_wrong_count():
    report = EvalReport(0.8, tp=10, fp=2, fn=3, n_gt=13, iou_thresh=0.5)
    assert checks.check_counts(report, {"tp": 10, "fp": 2, "fn": 3}) == []
    assert checks.check_counts(report, {"tp": 10, "fp": 1, "fn": 3})


def test_check_transfer_rejects_a_box_off_the_oracle():
    track = Track("a", (Keyframe(0, BBox(1.0, 2.0, 3.0, 4.0)), Keyframe(4, BBox(5.0, 6.0, 3.0, 4.0))))
    expected = {"a": [[0, 1.0, 2.0, 3.0, 4.0], [4, 5.0, 6.0, 3.0, 4.0]]}
    assert checks.check_transfer([track], expected) == []
    off = {"a": [[0, 1.0, 2.0, 3.0, 4.0], [4, 5.0, 6.002, 3.0, 4.0]]}
    assert checks.check_transfer([track], off)


def test_check_truth_rejects_a_moved_label_box():
    gt = {0: [BBox(1.0, 2.0, 3.0, 4.0)], 1: [BBox(2.0, 2.0, 3.0, 4.0)]}
    truth = [[[0, 1.0, 2.0, 3.0, 4.0], [1, 2.0, 2.0, 3.0, 4.0]]]
    assert checks.check_truth(gt, truth) == []
    truth[0][1][1] += 0.01
    assert checks.check_truth(gt, truth)


def _stream(seed=0, n=40_000, w=64, h=48):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, 4 * wl.WINDOW_US, n)).astype(np.uint64)
    # half the events crowd a 2x2 corner, so that counts there saturate
    x = np.where(np.arange(n) % 2, rng.integers(0, w, n), rng.integers(0, 2, n))
    y = np.where(np.arange(n) % 2, rng.integers(0, h, n), rng.integers(0, 2, n))
    return EventStream(SensorGeometry(w, h), t, x, y, rng.integers(0, 2, n))


def test_frame_oracle_agrees_with_accumulate_and_rejects_one_cell():
    s = _stream()
    frame = accumulate(s, wl.WINDOW_US, wl.WINDOW_US)
    pos, neg = oracles.count_frame(s.t, s.x, s.y, s.p, wl.WINDOW_US, wl.WINDOW_US, s.width, s.height)
    assert pos.max() == 255
    assert checks.check_frame("w1", frame, pos, neg) == []
    pos = pos.copy()
    pos[3, 5] ^= 1
    assert checks.check_frame("w1", frame, pos, neg)


def test_halving_oracle_agrees_with_downscale():
    s = _stream(1)
    frame = accumulate(s, 0, wl.WINDOW_US)
    small = downscale(frame, s.width // 2, s.height // 2)
    assert checks.check_frame("w0", small, oracles.halve(frame.pos), oracles.halve(frame.neg)) == []


def test_same_seed_gives_same_inputs(tmp_path):
    w = wl.reduced(wl.make("prep-720p", 3))
    gen.generate(w, tmp_path / "a")
    gen.generate(w, tmp_path / "b")
    gen.generate(wl.reduced(wl.make("prep-720p", 4)), tmp_path / "c")
    for name in ("events.evb1", "labels.csv", "detections.csv", "expect.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "events.evb1").read_bytes() != (tmp_path / "c" / "events.evb1").read_bytes()


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [x["name"] for x in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_reduced_run_completes_with_every_check_passing(tmp_path, name, trace):
    w = wl.reduced(wl.make(name, 7))
    gen.generate(w, tmp_path)
    result, _ = harness.run(w, tmp_path, seconds=0, trace=trace,
                         trace_path=tmp_path / "trace.jsonl" if trace else None)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= w.setup_reps + 2 * 5
    want = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(want)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
