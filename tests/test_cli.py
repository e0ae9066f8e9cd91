import contextlib
import io
import json
import os
import pathlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow.cli import main
from evflow.events import SensorGeometry, decode_stream
from evflow import frames as frames_mod
from evflow import netpbm
from evflow import sync as sync_mod
from evflow.frames import accumulate, downscale, read_pfr1, window_frames
from evflow.labels import (
    BBox,
    Detection,
    Keyframe,
    Track,
    load_labels_csv,
    write_detections_csv,
    write_labels_csv,
)
from evflow.netpbm import write_pgm
from evflow.synth import DiscTrajectory, render_gray_frames

TRAJ_CFG = """
# one disc crossing the sensor
center_start = 70 80
velocity = 95 40
radius = 14
duration_s = {dur}
event_rate_density = 700
sensor = 640 480
frame_period_us = 33333
seed = 5
"""


def write_traj_cfg(tmp_path, seconds):
    path = tmp_path / "traj.cfg"
    path.write_text(TRAJ_CFG.format(dur=seconds))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def synth_recording(tmp_path, capsys, seconds):
    ev = tmp_path / "rec.evb1"
    assert main(["synth", "--config", write_traj_cfg(tmp_path, seconds), "--out", str(ev)]) == 0
    capsys.readouterr()
    return str(ev)


def test_synth_writes_events_and_truth(tmp_path, capsys):
    cfg = write_traj_cfg(tmp_path, 1.0)
    ev = tmp_path / "rec.evb1"
    truth = tmp_path / "truth.csv"
    code, out, _ = run_cli(capsys, "synth", "--config", cfg, "--out", str(ev),
                           "--truth", str(truth))
    assert code == 0
    stream = decode_stream(ev.read_bytes())
    assert len(stream) > 1000
    tracks = load_labels_csv(str(truth))
    assert len(tracks) == 1 and len(tracks[0].keyframes) == 30


def test_accumulate_one_second_gives_30_frames(tmp_path, capsys):
    cfg = write_traj_cfg(tmp_path, 999_990e-6)  # exactly 30 windows of 33333 us
    ev = tmp_path / "rec.evb1"
    assert main(["synth", "--config", cfg, "--out", str(ev)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "frames"
    code, out, _ = run_cli(capsys, "accumulate", "--events", str(ev),
                           "--out-dir", str(out_dir), "--render")
    assert code == 0
    pfrs = sorted(out_dir.glob("*.pfr1"))
    assert len(pfrs) == 30
    frame = read_pfr1(pfrs[0].read_bytes())
    assert (frame.width, frame.height) == (640, 480)
    assert len(list(out_dir.glob("*.ppm"))) == 30


def test_accumulate_downscale_writes_the_downscaled_frames(tmp_path, capsys, monkeypatch):
    ev = synth_recording(tmp_path, capsys, 0.2)
    with open(ev, "rb") as fh:
        stream = decode_stream(fh.read())
    want = [downscale(f, 320, 240) for f in window_frames(stream, 33_333)]

    def no_full_frame(*args):
        raise AssertionError("a full-resolution frame was built")

    monkeypatch.setattr(frames_mod, "_scatter", no_full_frame)
    out_dir = tmp_path / "frames"
    code, _, _ = run_cli(capsys, "accumulate", "--events", ev,
                         "--out-dir", str(out_dir), "--downscale", "320,240")
    assert code == 0
    got = [read_pfr1(p.read_bytes()) for p in sorted(out_dir.glob("*.pfr1"))]
    assert len(got) == len(want) == 7  # 0.2 s reaches into a seventh window
    for g, w in zip(got, want):
        assert (g.width, g.height, g.t0, g.duration) == (320, 240, w.t0, 33_333)
        assert np.array_equal(g.pos, w.pos) and np.array_equal(g.neg, w.neg)


def test_eval_perfect_detections(tmp_path, capsys):
    track = Track("d", tuple(Keyframe(k, BBox(10.0 * k, 5, 20, 20)) for k in range(5)))
    truth = tmp_path / "truth.csv"
    write_labels_csv([track], str(truth))
    dets = [Detection(k, BBox(10.0 * k, 5, 20, 20), 0.9) for k in range(5)]
    det_path = tmp_path / "dets.csv"
    write_detections_csv(dets, str(det_path))
    code, out, _ = run_cli(capsys, "eval", "--detections", str(det_path),
                           "--truth", str(truth))
    assert code == 0
    doc = json.loads(out)
    assert doc["ap"] == 1.0
    assert doc["tp"] == 5 and doc["fp"] == 0 and doc["fn"] == 0


def test_eval_iou_threshold_decides_matches(tmp_path, capsys):
    track = Track("d", tuple(Keyframe(k, BBox(10.0 * k, 5, 20, 20)) for k in range(5)))
    truth = tmp_path / "truth.csv"
    write_labels_csv([track], str(truth))
    # shifted by 4 px: IoU = 320 / 480 = 2/3 with every ground-truth box
    dets = [Detection(k, BBox(10.0 * k + 4, 5, 20, 20), 0.9) for k in range(5)]
    det_path = tmp_path / "dets.csv"
    write_detections_csv(dets, str(det_path))
    for thresh, tp in (("0.6", 5), ("0.7", 0)):
        code, out, _ = run_cli(capsys, "eval", "--detections", str(det_path),
                               "--truth", str(truth), "--iou", thresh)
        assert code == 0
        doc = json.loads(out)
        assert (doc["tp"], doc["fp"], doc["fn"]) == (tp, 5 - tp, 5 - tp)
        assert doc["ap"] == (1.0 if tp else 0.0)


def test_bench_table_shows_batch16_below_one_second(tmp_path, capsys):
    lat = tmp_path / "lat.csv"
    lat.write_text("batch_size,latency_ms\n16,100\n")
    code, out, _ = run_cli(capsys, "bench", "--latency-table", str(lat), "--json")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["batch_size"] == 16
    assert abs(row["worst_case_ms"] - 633.3) < 0.5
    assert row["worst_case_ms"] < 1000
    assert row["realtime_feasible"]


def test_bench_with_power_trace(tmp_path, capsys):
    lat = tmp_path / "lat.csv"
    lat.write_text("batch_size,latency_ms\n1,50\n")
    trace = tmp_path / "power.csv"
    rows = ["t_s,voltage_v,current_a"]
    for i in range(2001):
        rows.append(f"{i * 0.0005:.6f},10,1")
    trace.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "bench", "--latency-table", str(lat),
                           "--trace", f"1={trace}:100", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["energy_mj_per_frame"] == pytest.approx(100.0)
    assert row["mean_power_w"] == pytest.approx(10.0)


def test_bench_window_integrates_only_inside_it(tmp_path, capsys):
    lat = tmp_path / "lat.csv"
    lat.write_text("batch_size,latency_ms\n1,50\n")
    trace = tmp_path / "power.csv"
    rows = ["t_s,voltage_v,current_a"]  # 10 W before t = 0.5 s, 20 W from then on
    for i in range(2001):
        rows.append(f"{i * 0.0005:.6f},10,{1 if i < 1000 else 2}")
    trace.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "bench", "--latency-table", str(lat),
                           "--trace", f"1={trace}:40", "--window", "0.6:1.0", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["energy_mj_per_frame"] == pytest.approx(200.0)  # 20 W * 0.4 s / 40 frames
    assert row["mean_power_w"] == pytest.approx(20.0)


@pytest.mark.parametrize("table,trace,line", [
    ("1,50\n1,60\n", None, 3),
    ("1,50\n", "0,10,1\n0.0005,nan,1\n0.001,10,1\n", 3),
    ("1,50\n", "0,1e200,1e200\n1,1e200,1e200\n2,1e200,1e200\n", 2),
], ids=["repeated_batch", "nan_voltage", "overflowing_power"])
def test_bench_bad_row_exits_1_naming_its_line(tmp_path, capsys, table, trace, line):
    lat = tmp_path / "lat.csv"
    lat.write_text("batch_size,latency_ms\n" + table)
    argv = ["bench", "--latency-table", str(lat), "--json"]
    if trace:
        power = tmp_path / "power.csv"
        power.write_text("t_s,voltage_v,current_a\n" + trace)
        argv += ["--trace", f"1={power}:10"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    (msg,) = err.splitlines()
    assert msg.startswith(f"error: BadRow: line {line}: ")


@pytest.mark.parametrize("flags,flag", [
    (["--trace", "1=p1.csv:10", "--trace", "1=p2.csv:10"], "--trace"),
    (["--trace", "1=p.csv:10", "--trace", "4=p.csv:10", "--trace", "1=p.csv:5"], "--trace"),
    (["--window", "0:0.5"], "--window"),
], ids=["repeated_batch", "repeated_batch_later", "window_without_trace"])
def test_bench_flags_that_would_drop_trace_data_are_usage_errors(capsys, flags, flag):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--latency-table", "t.csv", *flags])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip().splitlines()[-1].startswith(f"evflow: error: argument {flag}: ")


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON number {constant}")

    return json.loads(text, parse_constant=reject)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bench_on_finite_fields_prints_strict_json_or_one_error(data):
    b = data.draw(st.integers(1, 64) | st.integers(1, 10**400))
    table = f"batch_size,latency_ms\n{b},{data.draw(FINITE)!r}\n"
    n = data.draw(st.integers(2, 6))
    if data.draw(st.booleans()):  # a uniform grid, so that most traces load
        t0, dt = data.draw(FINITE), data.draw(FINITE)
        t = [t0 + k * dt for k in range(n)]
    else:
        t = data.draw(st.lists(FINITE, min_size=n, max_size=n))
    trace = "t_s,voltage_v,current_a\n" + "".join(
        f"{tk!r},{data.draw(FINITE)!r},{data.draw(FINITE)!r}\n" for tk in t
    )
    with tempfile.TemporaryDirectory() as d:
        lat, power = pathlib.Path(d, "lat.csv"), pathlib.Path(d, "power.csv")
        lat.write_text(table)
        power.write_text(trace)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["bench", "--latency-table", str(lat), "--batch-sizes", str(b),
                             "--trace", f"{b}={power}:{data.draw(st.integers(1, 1000))}", "--json"])
            except SystemExit as exc:
                code = exc.code
    if b >= 2**63:  # past int64, the --batch-sizes flag is a usage error
        assert (code, out.getvalue()) == (2, "")
        assert "error: argument --batch-sizes:" in err.getvalue()
    elif code == 0:
        (row,) = strict_json(out.getvalue())["rows"]
        assert row["batch_size"] == b
    else:
        assert (code, out.getvalue()) == (1, "")
        (msg,) = err.getvalue().splitlines()
        assert msg.startswith("error: ")


SYNC_DELAY = 3


def write_delayed_frames(frames_dir, encode=lambda img: ("pgm", write_pgm(img)), n=60):
    """The recording's gray frames, delayed by SYNC_DELAY, as frame_NNNN.<ext> files."""
    traj = DiscTrajectory((70.0, 80.0), (95.0, 40.0), 14.0, 2.0, 700.0)
    gray = render_gray_frames(traj, SensorGeometry(640, 480), 33_333, 60)
    delayed = [gray[0]] * SYNC_DELAY + gray[:-SYNC_DELAY]
    frames_dir.mkdir()
    for i, img in enumerate(delayed[:n]):
        ext, blob = encode(img)
        (frames_dir / f"frame_{i:04d}.{ext}").write_bytes(blob)
    return str(frames_dir)


def commented_ppm(img):
    """A colour copy of a gray image (equal channels) with # comments in its header."""
    h, w = img.shape
    header = f"P6\n# colour copy\n{w} {h}  # sides\n255\n".encode()
    return "ppm", header + np.repeat(img[:, :, None], 3, axis=2).tobytes()


def run_sync(capsys, ev, frames_dir, *extra):
    return run_cli(capsys, "sync", "--events", ev, "--frames-dir", frames_dir,
                   "--frame-period-us", "33333", "--max-offset", "6", *extra)


def test_sync_recovers_delay(tmp_path, capsys):
    ev = synth_recording(tmp_path, capsys, 2.0)
    report = tmp_path / "sync.json"
    code, out, _ = run_sync(capsys, ev, write_delayed_frames(tmp_path / "rgb"),
                            "--out", str(report))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["best_offset"] - SYNC_DELAY) <= 1
    assert len(doc["curve"]) == 13
    assert report.read_text() == out


def test_sync_reads_commented_colour_frames(tmp_path, capsys):
    ev = synth_recording(tmp_path, capsys, 2.0)
    _, gray_out, _ = run_sync(capsys, ev, write_delayed_frames(tmp_path / "gray"))
    code, out, _ = run_sync(capsys, ev, write_delayed_frames(tmp_path / "rgb", commented_ppm))
    assert code == 0
    assert json.loads(out) == json.loads(gray_out)  # BT.601 of equal channels is the gray


def test_sync_builds_no_polarity_frame(tmp_path, capsys, monkeypatch):
    # with frame building disabled, the activity grids and the offset must
    # still equal those computed from the windows' frames
    ev = synth_recording(tmp_path, capsys, 2.0)
    frames_dir = write_delayed_frames(tmp_path / "rgb")
    stream = decode_stream(pathlib.Path(ev).read_bytes())
    frames = (accumulate(stream, k * 33_333, 33_333) for k in range(59))
    want_ev = [np.add(f.pos, f.neg, dtype=np.uint16) for f in frames]
    gray = [netpbm.luminance(netpbm.read_netpbm(p.read_bytes()))
            for p in sorted(pathlib.Path(frames_dir).glob("*.pgm"))]
    rgb_act = sync_mod.gray_activity_sequence(sync_mod.GrayFrameSequence(640, 480, 33_333, gray))
    want = sync_mod.find_offset(sync_mod.to_common_raster(want_ev),
                                sync_mod.to_common_raster(rgb_act), 6)

    def no_frame(*args, **kwargs):
        raise AssertionError("sync built a polarity frame")

    monkeypatch.setattr(frames_mod, "_scatter", no_frame)
    monkeypatch.setattr(frames_mod.PolarityFrame, "__init__", no_frame)
    got_ev = sync_mod.event_activity_sequence(stream, 33_333, len(rgb_act))
    assert len(got_ev) == len(want_ev) == 59
    assert all(np.array_equal(g, w) for g, w in zip(got_ev, want_ev))
    code, out, _ = run_sync(capsys, ev, frames_dir)
    assert code == 0
    doc = json.loads(out)
    assert doc["best_offset"] == want.best_offset
    assert doc["curve"] == [[d, s] for d, s in want.score_curve]


def test_sync_needs_two_frames(tmp_path, capsys):
    ev = synth_recording(tmp_path, capsys, 0.2)
    code, _, err = run_sync(capsys, ev, write_delayed_frames(tmp_path / "rgb", n=1))
    assert code == 1
    assert err.startswith("error: MissingInput: need at least two frames")
    assert len(err.strip().splitlines()) == 1


CALIB_DOC = (
    "cam_rgb.fx = 500\ncam_rgb.fy = 500\ncam_rgb.cx = 320\ncam_rgb.cy = 240\n"
    "cam_rgb.dist = 0 0 0 0\ncam_rgb.size = 640 480\n"
    "cam_dvs.fx = 500\ncam_dvs.fy = 500\ncam_dvs.cx = 320\ncam_dvs.cy = 240\n"
    "cam_dvs.dist = 0 0 0 0\ncam_dvs.size = 640 480\n"
    "extrinsics.R = 1 0 0 0 1 0 0 0 1\nextrinsics.t = 0 0 0\n"
)


def test_transfer_labels_identity_calibration(tmp_path, capsys):
    track = Track("d", (Keyframe(0, BBox(100, 120, 40, 30)),
                        Keyframe(5, BBox(140, 150, 40, 30))))
    labels = tmp_path / "labels.csv"
    write_labels_csv([track], str(labels))
    calib = tmp_path / "calib.txt"
    calib.write_text(CALIB_DOC)
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "transfer-labels", "--labels", str(labels),
                         "--calib", str(calib), "--out", str(out_csv))
    assert code == 0
    moved = load_labels_csv(str(out_csv))
    assert len(moved) == 1
    for kf, ref in zip(moved[0].keyframes, track.keyframes):
        assert kf.box.x == pytest.approx(ref.box.x, abs=1e-6)
        assert kf.box.w == pytest.approx(ref.box.w, abs=1e-6)


def test_transfer_labels_reports_skipped_boxes(tmp_path, capsys):
    # the second keyframe lies past the 640x480 sensor under the identity calibration
    track = Track("d", (Keyframe(0, BBox(100, 120, 40, 30)),
                        Keyframe(5, BBox(900, 700, 40, 30))))
    labels = tmp_path / "labels.csv"
    write_labels_csv([track], str(labels))
    calib = tmp_path / "calib.txt"
    calib.write_text(CALIB_DOC)
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "transfer-labels", "--labels", str(labels),
                             "--calib", str(calib), "--out", str(out_csv))
    assert code == 0
    assert err == "skipped 1 box(es) falling off the event sensor\n"
    assert out == f"wrote 1 boxes to {out_csv}\n"
    (moved,) = load_labels_csv(str(out_csv))
    assert [kf.frame_idx for kf in moved.keyframes] == [0]


def test_run_full_pipeline_report(tmp_path, capsys):
    cfg = write_traj_cfg(tmp_path, 999_990e-6)  # exactly 30 windows
    ev = tmp_path / "rec.evb1"
    truth = tmp_path / "truth.csv"
    assert main(["synth", "--config", cfg, "--out", str(ev), "--truth", str(truth)]) == 0
    capsys.readouterr()
    pipe_cfg = tmp_path / "pipe.cfg"
    pipe_cfg.write_text(
        "integration_window_us = 33333\nbatch_size = 4\nqueue_capacity = 32\n"
        "detector = stub\nstub_min_area = 20\n"
    )
    dets_out = tmp_path / "dets.csv"
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "--events", str(ev), "--config", str(pipe_cfg),
                           "--truth", str(truth), "--detections-out", str(dets_out),
                           "--report", str(report))
    assert code == 0
    doc = json.loads(out)
    assert doc["frames_produced"] == 30
    assert doc["frames_dropped"] == 0
    assert doc["eval"]["ap"] >= 0.9
    assert dets_out.exists()
    assert report.read_text() == out


def test_run_default_capacity_drops_nothing(tmp_path, capsys):
    cfg = write_traj_cfg(tmp_path, 999_990e-6)  # exactly 30 windows
    ev = tmp_path / "rec.evb1"
    truth = tmp_path / "truth.csv"
    assert main(["synth", "--config", cfg, "--out", str(ev), "--truth", str(truth)]) == 0
    capsys.readouterr()
    pipe_cfg = tmp_path / "pipe.cfg"
    pipe_cfg.write_text("batch_size = 4\nstub_min_area = 20\n")  # default queue_capacity
    code, out, _ = run_cli(capsys, "run", "--events", str(ev), "--config", str(pipe_cfg),
                           "--truth", str(truth))
    assert code == 0
    doc = json.loads(out)
    assert doc["frames_produced"] == doc["frames_inferred"] == 30
    assert doc["frames_dropped"] == 0
    assert doc["labels_skipped"] == 0
    assert doc["eval"]["ap"] >= 0.9


def disc_with_truth(tmp_path, capsys):
    """The 30-window disc of test_pipeline.disc_recording(seconds=1.0), with its truth."""
    ev, truth = tmp_path / "rec.evb1", tmp_path / "truth.csv"
    assert main(["synth", "--config", write_traj_cfg(tmp_path, 30 * 33_333 * 1e-6), "--out", str(ev),
                 "--truth", str(truth), "--seed", "4"]) == 0
    capsys.readouterr()
    return str(ev), str(truth)


def test_run_downscale_scores_in_detector_frame(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EVFLOW_THREADS", "1")
    ev, truth = disc_with_truth(tmp_path, capsys)
    pipe_cfg = tmp_path / "pipe.cfg"
    pipe_cfg.write_text("downscale_to = 320 240\nstub_min_area = 4\n")
    code, out, _ = run_cli(capsys, "run", "--events", ev, "--config", str(pipe_cfg), "--truth", truth)
    assert code == 0
    assert json.loads(out)["eval"]["ap"] >= 0.9


def test_run_skips_off_sensor_ground_truth(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EVFLOW_THREADS", "1")
    ev, truth = disc_with_truth(tmp_path, capsys)
    (track,) = load_labels_csv(truth)
    off = Keyframe(track.keyframes[-1].frame_idx + 1, BBox(5000.0, 5000.0, 20.0, 20.0))
    write_labels_csv([Track(track.track_id, track.keyframes + (off,))], truth)
    calib = tmp_path / "calib.txt"
    calib.write_text(CALIB_DOC)  # the identity calibration
    pipe_cfg = tmp_path / "pipe.cfg"
    pipe_cfg.write_text("stub_min_area = 20\n")
    code, out, _ = run_cli(capsys, "run", "--events", ev, "--config", str(pipe_cfg),
                           "--calib", str(calib), "--truth", truth)
    assert code == 0
    doc = json.loads(out)
    assert doc["labels_skipped"] == 1
    assert doc["eval"]["ap"] >= 0.9


@pytest.mark.parametrize("size", ["0 0", "32 -5", "1.5 2.7"])
def test_run_non_positive_downscale_exits_1(tmp_path, capsys, size):
    ev = synth_recording(tmp_path, capsys, 0.2)
    pipe_cfg = tmp_path / "pipe.cfg"
    pipe_cfg.write_text(f"downscale_to = {size}\n")
    code, _, err = run_cli(capsys, "run", "--events", ev, "--config", str(pipe_cfg))
    assert code == 1
    assert err.startswith("error: ConfigInvalid: downscale_to")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("line", [f"batch_size = {10**19}", f"queue_capacity = {2**63}"])
def test_run_oversized_integer_exits_1(tmp_path, capsys, monkeypatch, line, threads):
    # past int64 a batch cannot be cut and a read-ahead cannot be bounded
    monkeypatch.setenv("EVFLOW_THREADS", threads)
    ev = synth_recording(tmp_path, capsys, 0.2)
    pipe_cfg = tmp_path / "pipe.cfg"
    pipe_cfg.write_text(line + "\n")
    code, _, err = run_cli(capsys, "run", "--events", ev, "--config", str(pipe_cfg))
    assert code == 1
    assert err.startswith("error: ConfigInvalid: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_data_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.evb1"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code, _, err = run_cli(capsys, "accumulate", "--events", str(bad),
                           "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith("error: BadMagic:")
    assert len(err.strip().splitlines()) == 1


def test_accumulate_polarity_above_one_exits_1(tmp_path, capsys):
    ev = tmp_path / "p2.evb1"  # 16x16, one event of polarity 2
    ev.write_bytes(b"EVB1" + struct.pack("<HHQHHB", 16, 16, 5, 3, 4, 2))
    code, _, err = run_cli(capsys, "accumulate", "--events", str(ev),
                           "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith("error: OutOfBounds: event at index 0: (3, 4) p=2")
    assert len(err.strip().splitlines()) == 1


def test_accumulate_window_past_uint64_exits_1(tmp_path, capsys):
    ev = tmp_path / "one.evb1"
    ev.write_bytes(b"EVB1" + struct.pack("<HHQHHB", 16, 16, 5, 3, 4, 1))
    code, _, err = run_cli(capsys, "accumulate", "--events", str(ev),
                           "--out-dir", str(tmp_path / "x"), "--window-us", "99999999999999999999")
    assert code == 1
    assert err.startswith("error: InvalidWindow:")
    assert len(err.strip().splitlines()) == 1


# at the default window the grid's bounds cannot be allocated; at 1-3 us they
# would pass numpy's array size limit, so the cutter refuses them first
@pytest.mark.parametrize("cmd,window,threads,error", [
    pytest.param("accumulate", None, None, "MemoryError", id="accumulate"),
    pytest.param("run", None, None, "MemoryError", id="run"),
    *(pytest.param("accumulate", w, None, "InvalidWindow", id=f"accumulate-{w}us") for w in (1, 2, 3)),
    *(pytest.param("run", w, t, "InvalidWindow", id=f"run-{w}us-t{t}") for w in (1, 2) for t in (1, 2)),
])
def test_window_grid_too_large_to_allocate_exits_1(tmp_path, capsys, monkeypatch, cmd, window, threads,
                                                   error):
    ev = tmp_path / "span.evb1"  # 16x16, events at t = 0 and t = 2^64-1
    ev.write_bytes(b"EVB1" + struct.pack("<HHQHHBQHHB", 16, 16, 0, 3, 4, 1, 2**64 - 1, 5, 6, 0))
    extra = ["--out-dir", str(tmp_path / "x")] if cmd == "accumulate" else []
    if window is not None and cmd == "accumulate":
        extra += ["--window-us", str(window)]
    elif window is not None:
        monkeypatch.setenv("EVFLOW_THREADS", str(threads))
        pipe_cfg = tmp_path / "pipe.cfg"
        pipe_cfg.write_text(f"integration_window_us = {window}\n")
        extra = ["--config", str(pipe_cfg)]
    code, _, err = run_cli(capsys, cmd, "--events", str(ev), *extra)
    assert code == 1
    assert err.startswith(f"error: {error}:")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_transfer_labels_malformed_calibration_exits_1(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    write_labels_csv([Track("d", (Keyframe(0, BBox(100, 120, 40, 30)),))], str(labels))
    calib = tmp_path / "calib.txt"
    calib.write_text(CALIB_DOC.replace("cam_rgb.fx = 500", "cam_rgb.fx = abc"))
    code, _, err = run_cli(capsys, "transfer-labels", "--labels", str(labels),
                           "--calib", str(calib), "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert err.startswith("error: ConfigInvalid:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("line,bad,kind", [
    ("seed = 5", "seed = five", "ConfigInvalid"),
    ("radius = 14", "radius = abc", "ConfigInvalid"),
    ("radius = 14", "radius = -3", "ConfigInvalid"),
    ("radius = 14", "", "MissingField"),
    ("seed = 5", "seed = -1", "ConfigInvalid"),
    ("sensor = 640 480", "sensor = 70000 480", "ConfigInvalid"),
    ("sensor = 640 480", "sensor = 320.7 240", "ConfigInvalid"),
    ("radius = 14", "radius = \xff", "UnicodeDecodeError"),  # not UTF-8
    # beyond the largest mean numpy's Poisson sampler accepts
    ("event_rate_density = 700", "event_rate_density = 1e300", "ConfigInvalid"),
])
def test_synth_malformed_config_exits_1(tmp_path, capsys, line, bad, kind):
    cfg = tmp_path / "traj.cfg"
    cfg.write_bytes(TRAJ_CFG.format(dur=1.0).replace(line, bad).encode("latin-1"))
    code, _, err = run_cli(capsys, "synth", "--config", str(cfg),
                           "--out", str(tmp_path / "rec.evb1"), "--truth", str(tmp_path / "t.csv"))
    assert code == 1
    assert err.startswith(f"error: {kind}:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "rec.evb1").exists()


@pytest.mark.parametrize("velocity,dur,density", [
    ("1e200 1e200", "1", "700"),
    ("1e153 0", "1", "700"),
    ("1e10 0", "1e300", "1e-290"),  # slow, but the center's end position overflows
])
def test_synth_overflowing_trajectory_exits_1(tmp_path, capsys, velocity, dur, density):
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(TRAJ_CFG.format(dur=dur).replace("70 80", "100 100")
                   .replace("95 40", velocity).replace("= 700", f"= {density}"))
    ev = tmp_path / "rec.evb1"
    code, out, err = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(ev))
    assert (code, out) == (1, "")
    assert err.startswith("error: ConfigInvalid: |velocity| * center reach must be below 1e150")
    assert len(err.strip().splitlines()) == 1
    assert not ev.exists()


@pytest.mark.parametrize("period,msg", [
    ("0", "ConfigInvalid: frame_period_us must be positive, got 0"),
    ("-5", "ConfigInvalid: frame_period_us must be positive, got -5"),
    # no window midpoint falls inside the 1 s trajectory
    ("2000001", "DegenerateTrajectory: disc bounding box never overlaps the sensor"),
], ids=["zero", "negative", "no_window_midpoint"])
def test_synth_bad_truth_period_exits_1_before_writing(tmp_path, capsys, period, msg):
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(TRAJ_CFG.format(dur=1.0).replace("33333", period))
    ev, truth = tmp_path / "rec.evb1", tmp_path / "t.csv"
    code, out, err = run_cli(capsys, "synth", "--config", str(cfg),
                             "--out", str(ev), "--truth", str(truth))
    assert (code, out, err) == (1, "", f"error: {msg}\n")
    assert not ev.exists() and not truth.exists()


def test_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "accumulate", "--events", str(tmp_path / "nope.evb1"),
                           "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith("error: FileNotFoundError:")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["accumulate"])  # missing required arguments
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["accumulate", "--events", "e.evb1", "--out-dir", "o", "--downscale", "10x10"],
    ["accumulate", "--events", "e.evb1", "--out-dir", "o", "--downscale", "2"],
    ["accumulate", "--events", "e.evb1", "--out-dir", "o", "--downscale", "0,0"],
    ["bench", "--latency-table", "t.csv", "--batch-sizes", "1,x"],
    ["bench", "--latency-table", "t.csv", "--batch-sizes", "0"],
    ["bench", "--latency-table", "t.csv", "--trace", "1=p.csv:abc"],
    ["bench", "--latency-table", "t.csv", "--window", "a:b"],
    ["bench", "--latency-table", "t.csv", "--frame-period-us", "0"],
    ["sync", "--events", "e.evb1", "--frames-dir", "d", "--frame-period-us", "0"],
    ["sync", "--events", "e.evb1", "--frames-dir", "d", "--frame-period-us", "1",
     "--max-offset", "-1"],
    ["eval", "--detections", "d.csv", "--truth", "t.csv", "--iou", "0"],
    # integers past int64
    ["bench", "--latency-table", "t.csv", "--frame-period-us", "1" + "0" * 400],
    ["bench", "--latency-table", "t.csv", "--trace", "1=p.csv:" + "1" * 401],
    ["sync", "--events", "e.evb1", "--frames-dir", "d", "--frame-period-us", "1",
     "--max-offset", str(2**64)],
    ["accumulate", "--events", "e.evb1", "--out-dir", "o", "--downscale", f"{10**400},1"],
], ids=lambda argv: " ".join(argv[-2:])[:40])
def test_malformed_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].startswith(f"evflow {argv[0]}: error: argument {argv[-2]}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("header,row", [
    ("frame_idx,class_id,confidence,x,y,w,h", "0,0,1.5,10,10,20,20"),  # confidence > 1
    ("frame_idx,class_id,confidence,x,y,w,h", "0,0,0.9,ten,10,20,20"),  # not a number
    ("frame_idx,class_id,x,y,w,h", "0,0,10,10,20,20"),                  # no confidence column
    ("frame_idx,class_id,confidence,x,y,w,h", "0,0,0.9,nan,10,20,20"),  # not finite
    ("frame_idx,class_id,confidence,x,y,w,h", "-5,0,0.9,1,1,3,4"),      # negative frame
])
def test_eval_malformed_detections_exit_1(tmp_path, capsys, header, row):
    dets = tmp_path / "dets.csv"
    dets.write_text(f"{header}\n{row}\n")
    truth = tmp_path / "truth.csv"
    write_labels_csv([Track("a", (Keyframe(0, BBox(10, 10, 20, 20)),))], str(truth))
    code, _, err = run_cli(capsys, "eval", "--detections", str(dets), "--truth", str(truth))
    assert code == 1
    assert err.startswith("error: BadRow: line ")
    assert len(err.strip().splitlines()) == 1


def sync_on_frames_of_two_sizes(tmp_path, capsys):
    frames_dir = tmp_path / "rgb"
    frames_dir.mkdir()
    (frames_dir / "000.pgm").write_bytes(write_pgm(np.zeros((48, 64), np.uint8)))
    (frames_dir / "001.pgm").write_bytes(write_pgm(np.zeros((24, 32), np.uint8)))
    return ["sync", "--events", synth_recording(tmp_path, capsys, 0.2),
            "--frames-dir", str(frames_dir), "--frame-period-us", "33333"]


def eval_against_labels(text):
    def argv(tmp_path, capsys):
        dets, truth = tmp_path / "dets.csv", tmp_path / "truth.csv"
        write_detections_csv([Detection(0, BBox(1, 1, 3, 4), 0.9)], str(dets))
        truth.write_bytes(b"frame_idx,track_id,x,y,w,h\n" + text)
        return ["eval", "--detections", str(dets), "--truth", str(truth)]
    return argv


@pytest.mark.parametrize("make_argv,kind", [
    pytest.param(sync_on_frames_of_two_sizes, "ShapeMismatch", id="sync-frames-of-two-sizes"),
    pytest.param(eval_against_labels(b"0,\xff,1,1,3,4\n"), "UnicodeDecodeError", id="labels-not-utf8"),
    pytest.param(eval_against_labels(b"0,a,1,1,-3,4\n"), "BadRow", id="labels-negative-width"),
    pytest.param(eval_against_labels(b"-1,a,1,1,3,4\n"), "BadRow", id="labels-negative-frame"),
])
def test_input_check_exits_1_with_one_error_line(tmp_path, capsys, make_argv, kind):
    code, _, err = run_cli(capsys, *make_argv(tmp_path, capsys))
    assert code == 1
    assert err.startswith(f"error: {kind}:")
    assert len(err.strip().splitlines()) == 1


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
