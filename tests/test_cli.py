import json
import os
import struct

import numpy as np
import pytest

from evflow.cli import main
from evflow.events import SensorGeometry, decode_stream
from evflow.frames import read_pfr1
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


def test_sync_recovers_delay(tmp_path, capsys):
    cfg = write_traj_cfg(tmp_path, 2.0)
    ev = tmp_path / "rec.evb1"
    assert main(["synth", "--config", cfg, "--out", str(ev)]) == 0
    capsys.readouterr()

    geom = SensorGeometry(640, 480)
    traj = DiscTrajectory((70.0, 80.0), (95.0, 40.0), 14.0, 2.0, 700.0)
    gray = render_gray_frames(traj, geom, 33_333, 60)
    delay = 3
    delayed = [gray[0]] * delay + gray[:-delay]
    frames_dir = tmp_path / "rgb"
    frames_dir.mkdir()
    for i, img in enumerate(delayed):
        (frames_dir / f"frame_{i:04d}.pgm").write_bytes(write_pgm(img))

    code, out, _ = run_cli(capsys, "sync", "--events", str(ev),
                           "--frames-dir", str(frames_dir),
                           "--frame-period-us", "33333", "--max-offset", "6")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["best_offset"] - delay) <= 1
    assert len(doc["curve"]) == 13


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
    code, out, _ = run_cli(capsys, "run", "--events", str(ev), "--config", str(pipe_cfg),
                           "--truth", str(truth), "--detections-out", str(dets_out))
    assert code == 0
    doc = json.loads(out)
    assert doc["frames_produced"] == 30
    assert doc["frames_dropped"] == 0
    assert doc["eval"]["ap"] >= 0.9
    assert dets_out.exists()


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


@pytest.mark.parametrize("cmd", ["accumulate", "run"])
def test_window_grid_too_large_to_allocate_exits_1(tmp_path, capsys, cmd):
    ev = tmp_path / "span.evb1"  # 16x16, events at t = 0 and t = 2^64-1
    ev.write_bytes(b"EVB1" + struct.pack("<HHQHHBQHHB", 16, 16, 0, 3, 4, 1, 2**64 - 1, 5, 6, 0))
    extra = ["--out-dir", str(tmp_path / "x")] if cmd == "accumulate" else []
    code, _, err = run_cli(capsys, cmd, "--events", str(ev), *extra)
    assert code == 1
    assert err.startswith("error: MemoryError:")
    assert len(err.strip().splitlines()) == 1


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
    ("radius = 14", "radius = \xff", "UnicodeDecodeError"),  # not UTF-8
])
def test_synth_malformed_config_exits_1(tmp_path, capsys, line, bad, kind):
    cfg = tmp_path / "traj.cfg"
    cfg.write_bytes(TRAJ_CFG.format(dur=1.0).replace(line, bad).encode("latin-1"))
    code, _, err = run_cli(capsys, "synth", "--config", str(cfg),
                           "--out", str(tmp_path / "rec.evb1"), "--truth", str(tmp_path / "t.csv"))
    assert code == 1
    assert err.startswith(f"error: {kind}:")
    assert len(err.strip().splitlines()) == 1


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
], ids=lambda argv: " ".join(argv[-2:]))
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


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
