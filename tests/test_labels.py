import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evflow.errors import NoGroundTruth
from evflow.labels import (
    BBox,
    Detection,
    Keyframe,
    Track,
    densify_tracks,
    evaluate_detections,
    interpolate_track,
    iou,
    load_detections_csv,
    load_labels_csv,
    write_detections_csv,
    write_labels_csv,
)
from evflow import labels as labels_mod
from evflow.labels import _match_all


def det(frame, x, y, w, h, conf):
    return Detection(frame, BBox(x, y, w, h), conf)


# --- interpolation ---


def test_interpolation_linear_midpoint():
    t = Track("a", (Keyframe(0, BBox(0, 5, 10, 10)), Keyframe(10, BBox(100, 5, 10, 10))))
    b = interpolate_track(t, 5)
    assert (b.x, b.y, b.w, b.h) == (50.0, 5.0, 10.0, 10.0)


def test_interpolation_exact_at_keyframes():
    kf0, kf1 = Keyframe(3, BBox(1, 2, 3, 4)), Keyframe(9, BBox(9, 8, 7, 6))
    t = Track("a", (kf0, kf1))
    assert interpolate_track(t, 3) == kf0.box
    assert interpolate_track(t, 9) == kf1.box


def test_interpolation_no_extrapolation():
    t = Track("a", (Keyframe(5, BBox(0, 0, 1, 1)), Keyframe(20, BBox(5, 5, 1, 1))))
    assert interpolate_track(t, 3) is None
    assert interpolate_track(t, 21) is None


def test_interpolation_piecewise_continuous():
    t = Track(
        "a",
        (Keyframe(0, BBox(0, 0, 10, 10)), Keyframe(4, BBox(8, 0, 10, 10)),
         Keyframe(10, BBox(8, 30, 16, 10))),
    )
    xs = [interpolate_track(t, f).x for f in range(11)]
    assert xs == [0, 2, 4, 6, 8, 8, 8, 8, 8, 8, 8]
    ws = [interpolate_track(t, f).w for f in range(4, 11)]
    assert ws == [10 + i for i in range(7)]


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bbox_rejects_non_finite_fields(field, value):
    xywh = [1.0, 2.0, 3.0, 4.0]
    xywh[field] = value
    with pytest.raises(ValueError, match="finite"):
        BBox(*xywh)


def test_track_requires_increasing_keyframes():
    with pytest.raises(ValueError):
        Track("a", (Keyframe(5, BBox(0, 0, 1, 1)), Keyframe(5, BBox(0, 0, 1, 1))))
    with pytest.raises(ValueError):
        Track("a", ())


# --- IoU ---


def test_iou_self_is_one():
    b = BBox(3, 4, 10, 12)
    assert iou(b, b) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(BBox(0, 0, 5, 5), BBox(10, 10, 5, 5)) == 0.0


def test_iou_half_overlap_case():
    assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3)


def test_iou_symmetric_and_translation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = BBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
        b = BBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        dx, dy = rng.uniform(-20, 20, 2)
        a2 = BBox(a.x + dx, a.y + dy, a.w, a.h)
        b2 = BBox(b.x + dx, b.y + dy, b.w, b.h)
        assert iou(a2, b2) == pytest.approx(v, abs=1e-12)


def test_iou_zero_area_boxes():
    assert iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0


# --- matching ---


def test_match_single_exact_detection():
    gts = {0: [BBox(10, 10, 20, 20)]}
    rep = evaluate_detections([det(0, 10, 10, 20, 20, 0.9)], gts, 0.5)
    assert (rep.tp, rep.fp, rep.fn) == (1, 0, 0)


def test_match_two_detections_one_gt():
    gts = {0: [BBox(10, 10, 20, 20)]}
    dets = [det(0, 10, 10, 20, 20, 0.8), det(0, 11, 10, 20, 20, 0.9)]
    rep = evaluate_detections(dets, gts, 0.5)
    assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)
    assert rep.ap == 1.0  # the higher-confidence one wins, so it ranks first


def test_match_against_greedy_oracle():
    # exhaustive reimplementation of the greedy protocol on small frames
    rng = np.random.default_rng(6)
    for _ in range(300):
        n_d, n_g = rng.integers(0, 5), rng.integers(0, 5)
        dets = [
            det(0, rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(5, 25),
                rng.uniform(5, 25), round(float(rng.uniform(0, 1)), 6))
            for _ in range(n_d)
        ]
        gts = [
            BBox(rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(5, 25), rng.uniform(5, 25))
            for _ in range(n_g)
        ]
        flags, n_gt = _match_all(dets, {0: gts}, 0.5)

        taken = set()
        expect = []
        for i in sorted(range(len(dets)), key=lambda i: -dets[i].confidence):
            cands = [
                (iou(dets[i].box, g), j)
                for j, g in enumerate(gts)
                if j not in taken and iou(dets[i].box, g) >= 0.5
            ]
            if cands:
                best = max(cands, key=lambda c: c[0])
                taken.add(best[1])
            expect.append(bool(cands))
        assert flags == expect and n_gt == len(gts)


def oracle_match_all(all_dets, all_gts, iou_thresh):
    """The per-pair loop that _match_all replaced: one iou() call per
    (detection, untaken ground truth) pair, in ranking order."""
    n_gt = sum(len(v) for v in all_gts.values())
    order = sorted(range(len(all_dets)), key=lambda i: -all_dets[i].confidence)
    taken_by_frame = {f: [False] * len(v) for f, v in all_gts.items()}
    flags = []
    for i in order:
        box, f = all_dets[i].box, all_dets[i].frame_idx
        gts, taken = all_gts.get(f, ()), taken_by_frame.get(f, [])
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gts):
            if taken[j]:
                continue
            v = iou(box, g)
            if v > best_iou:
                best_j, best_iou = j, v
        hit = best_j >= 0 and best_iou >= iou_thresh
        if hit:
            taken[best_j] = True
        flags.append(hit)
    return flags, n_gt


# integer-grid boxes, zero-area ones included, so that IoUs tie exactly;
# frames 0-3 on both sides, so some frames have detections and no ground
# truth and others the reverse
grid_box = st.builds(BBox, st.integers(0, 8), st.integers(0, 8), st.integers(0, 5), st.integers(0, 5))


@settings(max_examples=300)
@given(
    dets=st.lists(
        st.builds(Detection, st.integers(0, 3), grid_box, st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        max_size=12,
    ),
    gts=st.dictionaries(st.integers(0, 3), st.lists(grid_box, max_size=5), max_size=4),
    thresh=st.one_of(st.sampled_from([1 / 3, 0.5, 1.0]), st.floats(0.01, 1.0)),
)
# the first detection ties at IoU 1/3 between both ground truths and must
# take the first; the second then finds only the one it does not overlap
@example(
    dets=[det(0, 1, 0, 2, 2, 0.9), det(0, 0, 0, 2, 2, 0.5)],
    gts={0: [BBox(0, 0, 2, 2), BBox(2, 0, 2, 2)]},
    thresh=1 / 3,
)
def test_match_all_equals_per_pair_oracle(dets, gts, thresh):
    assert _match_all(dets, gts, thresh) == oracle_match_all(dets, gts, thresh)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_match_all_in_small_blocks_equals_per_pair_oracle(monkeypatch, block):
    # blocks that split one detection's pairs, and frames of 0..6 ground truths
    monkeypatch.setattr(labels_mod, "_BLOCK_PAIRS", block)
    rng = np.random.default_rng(block)
    for _ in range(50):
        def box():
            return (*rng.integers(0, 8, 2), *rng.integers(0, 6, 2))

        gts = {f: [BBox(*box()) for _ in range(rng.integers(0, 7))] for f in range(3)}
        dets = [det(int(rng.integers(0, 4)), *box(), float(rng.choice([0.5, 0.9])))
                for _ in range(rng.integers(0, 9))]
        assert _match_all(dets, gts, 0.5) == oracle_match_all(dets, gts, 0.5)


def test_match_all_memory_is_bounded_by_blocks():
    # 1,000 detections against 1,000 ground truths on one frame: 1M pairs
    rng = np.random.default_rng(14)
    dets = [det(0, *rng.uniform(0, 500, 2), *rng.uniform(5, 50, 2), float(rng.uniform()))
            for _ in range(1000)]
    gts = {0: [BBox(*rng.uniform(0, 500, 2), *rng.uniform(5, 50, 2)) for _ in range(1000)]}
    tracemalloc.start()
    try:
        flags, n_gt = _match_all(dets, gts, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(flags), n_gt) == (1000, 1000) and any(flags)
    assert peak < 16 * 2**20


def test_match_validates_threshold():
    with pytest.raises(ValueError):
        evaluate_detections([], {0: [BBox(0, 0, 1, 1)]}, 0.0)


# --- average precision ---


def ap_oracle(flags, n_gt):
    """Independent AP: walk the envelope from the right, accumulating areas."""
    pts = []
    tp = 0
    for i, f in enumerate(flags, start=1):
        tp += f
        pts.append((tp / n_gt, tp / i))
    best = 0.0
    area = 0.0
    prev_r = None
    for r, p in reversed(pts):
        if prev_r is not None and r < prev_r:
            area += (prev_r - r) * best
        best = max(best, p)
        prev_r = r
    area += prev_r * best if prev_r else 0.0
    return area


def test_ap_perfect_detector():
    gts = {k: [BBox(10 * k, 5, 8, 8)] for k in range(10)}
    dets = [det(k, 10 * k, 5, 8, 8, 0.9) for k in range(10)]
    assert evaluate_detections(dets, gts, 0.5).ap == 1.0


def test_ap_no_detections_is_zero():
    gts = {0: [BBox(0, 0, 5, 5)]}
    assert evaluate_detections([], gts, 0.5).ap == 0.0


def test_ap_requires_ground_truth():
    with pytest.raises(NoGroundTruth):
        evaluate_detections([det(0, 0, 0, 5, 5, 0.5)], {}, 0.5)


def test_ap_worked_three_detection_example():
    # flags [TP, FP, TP] over 2 ground truths -> 0.5 * 1 + 0.5 * (2/3)
    gts = {0: [BBox(0, 0, 10, 10)], 1: [BBox(0, 0, 10, 10)]}
    dets = [
        det(0, 0, 0, 10, 10, 0.9),    # TP
        det(2, 0, 0, 10, 10, 0.8),    # FP (no gt on frame 2)
        det(1, 0, 0, 10, 10, 0.7),    # TP
    ]
    ap = evaluate_detections(dets, gts, 0.5).ap
    assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-12)
    assert ap == pytest.approx(ap_oracle([True, False, True], 2), abs=1e-12)
    assert ap == pytest.approx(0.8333333, abs=1e-6)


def test_ap_matches_oracle_on_random_rankings():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n_gt = int(rng.integers(1, 8))
        flags = [bool(rng.integers(0, 2)) for _ in range(rng.integers(1, 12))]
        flags = flags[: n_gt + sum(1 for f in flags if not f)]  # tp count <= n_gt
        while sum(flags) > n_gt:
            flags[flags.index(True)] = False
        # build a synthetic det/gt layout realizing exactly these flags
        gts = {}
        dets = []
        gt_i = 0
        for i, f in enumerate(flags):
            conf = 1.0 - i * 1e-3
            if f:
                gts[gt_i] = [BBox(0, 0, 10, 10)]
                dets.append(det(gt_i, 0, 0, 10, 10, conf))
                gt_i += 1
            else:
                dets.append(det(10_000 + i, 0, 0, 10, 10, conf))
        while gt_i < n_gt:
            gts[gt_i] = [BBox(50, 50, 5, 5)]
            gt_i += 1
        ap = evaluate_detections(dets, gts, 0.5).ap
        assert ap == pytest.approx(ap_oracle(flags, n_gt), abs=1e-12)


def test_ap_improves_when_fp_becomes_tp():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n_gt = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        flags = [bool(rng.integers(0, 2)) for _ in range(n)]
        while sum(flags) >= n_gt:
            flags[flags.index(True)] = False
        if True not in [not f for f in flags]:
            continue
        base = ap_oracle(flags, n_gt)
        improved = list(flags)
        improved[improved.index(False)] = True
        assert ap_oracle(improved, n_gt) >= base - 1e-12


def test_evaluate_detections_counts():
    gts = {0: [BBox(0, 0, 10, 10)], 1: [BBox(0, 0, 10, 10)]}
    dets = [det(0, 0, 0, 10, 10, 0.9), det(0, 30, 30, 5, 5, 0.8)]
    rep = evaluate_detections(dets, gts, 0.5)
    assert (rep.tp, rep.fp, rep.fn, rep.n_gt) == (1, 1, 1, 2)
    assert rep.iou_thresh == 0.5


# --- CSV round trips ---


def test_labels_csv_round_trip():
    tracks = [
        Track("drone_1", (Keyframe(0, BBox(1, 2, 3, 4)), Keyframe(8, BBox(5, 6, 7, 8)))),
        Track("drone_2", (Keyframe(4, BBox(9.5, 10.25, 11, 12)),)),
    ]
    buf = io.StringIO()
    write_labels_csv(tracks, buf)
    buf.seek(0)
    loaded = sorted(load_labels_csv(buf), key=lambda t: t.track_id)
    assert loaded == tracks


def test_detections_csv_round_trip():
    dets = [det(3, 1.5, 2.25, 3, 4, 0.75), det(9, 5, 6, 7, 8, 0.25)]
    buf = io.StringIO()
    write_detections_csv(dets, buf)
    buf.seek(0)
    assert load_detections_csv(buf) == dets


finite_box = st.builds(
    BBox, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0.0, 1e3), st.floats(0.0, 1e3)
)
track_keyframes = st.lists(st.tuples(st.integers(1, 6), finite_box), min_size=1, max_size=6)


@settings(max_examples=200)
@given(
    starts=st.lists(st.integers(0, 10), min_size=1, max_size=3),
    steps=st.lists(track_keyframes, min_size=3, max_size=3),
)
def test_densify_tracks_equals_interpolate_track_on_every_frame(starts, steps):
    tracks = []
    for n, (start, kfs) in enumerate(zip(starts, steps)):
        frame, keyframes = start, []
        for gap, box in kfs:
            keyframes.append(Keyframe(frame, box))
            frame += gap
        tracks.append(Track(n, tuple(keyframes)))
    want = {}
    for t in tracks:
        lo, hi = t.span
        for f in range(lo, hi + 1):
            want.setdefault(f, []).append(interpolate_track(t, f))
    got = densify_tracks(tracks)
    assert got == want and list(got) == list(want)


def test_densify_tracks_interpolates_span():
    t = Track("a", (Keyframe(2, BBox(0, 0, 10, 10)), Keyframe(4, BBox(20, 0, 10, 10))))
    gts = densify_tracks([t])
    assert sorted(gts) == [2, 3, 4]
    assert gts[3][0].x == 10.0
