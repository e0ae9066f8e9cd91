"""Input files reach the toolkit as a value or a typed EvflowError, never another exception.

Unit tests pin the CSV table reader and the binary headers; Hypothesis
properties then feed arbitrary text to every CSV loader and arbitrary
bytes to every binary reader.
"""

import io
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow.bench import load_latency_table, load_power_trace
from evflow.config import read_table
from evflow.errors import BadMagic, BadRow, EvflowError, InvalidWindow, NonUniformSampling, TruncatedRecord
from evflow.events import EVB1_MAGIC, decode_stream
from evflow.frames import PFR1_MAGIC, read_pfr1, window_frames
from evflow.labels import BBox, Detection, load_detections_csv, load_labels_csv
from evflow.netpbm import read_netpbm


def table(text):
    return read_table(io.StringIO(text), ("a", "b"), lambda a, b: (int(a), float(b)))


# --- the table reader ---


def test_read_table_takes_columns_in_any_order_and_ignores_extras():
    assert table("extra,b,a\nz,0.5,1\n\n x ,2.5,3\n") == [(1, 0.5), (3, 2.5)]


def test_read_table_empty_input_is_an_empty_table():
    assert table("") == []
    assert table("a,b\n") == []


@pytest.mark.parametrize("text,message", [
    ("a\n1\n", "line 1: missing column(s) b"),
    ("a,b\n1,2\n3\n", "line 3: 1 of 2 fields"),
    ("a,b\n1,2\n1.5,2\n", "line 3: invalid literal for int()"),
    ("a,b\n1," + "9" * 140_000 + "\n", "line 2: field larger than field limit"),
])
def test_read_table_bad_row_names_its_line(text, message):
    with pytest.raises(BadRow, match=re.escape(message)):
        table(text)


def test_labels_repeated_keyframe_is_bad_row():
    text = "frame_idx,track_id,x,y,w,h\n3,a,0,0,1,1\n3,a,5,5,1,1\n"
    with pytest.raises(BadRow, match="track 'a'"):
        load_labels_csv(io.StringIO(text))


@pytest.mark.parametrize("load,text", [
    (load_labels_csv, "frame_idx,track_id,x,y,w,h\n0,a,1,2,3,4\n1,a,nan,2,3,4\n"),
    (load_labels_csv, "frame_idx,track_id,x,y,w,h\n0,a,1,2,3,4\n1,a,1,2,inf,4\n"),
    (load_detections_csv, "frame_idx,class_id,confidence,x,y,w,h\n0,0,0.5,1,2,3,4\n1,0,0.5,1,-inf,3,4\n"),
    (load_detections_csv, "frame_idx,class_id,confidence,x,y,w,h\n0,0,0.5,1,2,3,4\n1,0,0.5,1,2,3,nan\n"),
])
def test_non_finite_box_is_bad_row(load, text):
    with pytest.raises(BadRow, match="line 3: box fields must be finite"):
        load(io.StringIO(text))


def test_detections_read_in_any_column_order():
    text = "h,w,y,x,confidence,class_id,frame_idx,note\n4,3,2,1,0.5,7,9,hi\n"
    assert load_detections_csv(io.StringIO(text)) == [Detection(9, BBox(1, 2, 3, 4), 0.5, 7)]


@pytest.mark.parametrize("row", ["0,50", "1,0", "1,-5", "1,nan", f"{2**63},50",
                                 pytest.param(f"{10**400},50", id="10^400,50")])
def test_latency_table_rejects_impossible_rows(row):
    with pytest.raises(BadRow):
        load_latency_table(io.StringIO(f"batch_size,latency_ms\n{row}\n"))


@pytest.mark.parametrize("rows,message", [
    ("1,50\n0,50\n", "line 3: batch size 0"),
    ("1,50\n2,inf\n", "line 3: batch size 2, latency inf ms"),
    ("1,50\n2,1e999\n", "line 3: batch size 2, latency 1e999 ms"),
    ("1,50\n4,70\n1,60\n", "line 4: batch size 1 repeated"),
], ids=["zero_batch", "inf_latency", "overflowing_latency", "repeated_batch"])
def test_latency_table_bad_row_names_its_line(rows, message):
    with pytest.raises(BadRow, match=re.escape(message)):
        load_latency_table(io.StringIO("batch_size,latency_ms\n" + rows))


@pytest.mark.parametrize("rows,line", [
    ("0,12,1\n0.0005,nan,1\n0.001,12,1\n", 3),
    ("0,12,1\n0.0005,12,1\nnan,12,1\n0.0015,12,1\n", 4),  # passes a NaN-blind grid check
    ("0,12,1\n0.0005,12,inf\n0.001,12,1\n", 3),
    ("0,12,1\n0.0005,12,1\n-inf,12,1\n", 4),
], ids=["nan_voltage", "nan_mid_timestamp", "inf_current", "inf_last_timestamp"])
def test_power_trace_non_finite_field_is_bad_row(rows, line):
    with pytest.raises(BadRow, match=f"line {line}: fields must be finite"):
        load_power_trace(io.StringIO("t_s,voltage_v,current_a\n" + rows))


@pytest.mark.parametrize("rows,line", [
    ("0,1e200,1e200\n1,1e200,1e200\n2,1e200,1e200\n", 2),
    ("0,12,1\n0.0005,1e308,-10\n0.001,12,1\n", 3),
], ids=["overflowing_power", "overflowing_negative_power"])
def test_power_trace_overflowing_power_is_bad_row(rows, line):
    with pytest.raises(BadRow, match=f"line {line}: power .* is not finite"):
        load_power_trace(io.StringIO("t_s,voltage_v,current_a\n" + rows))


@pytest.mark.parametrize("rows", [
    "-1e308,1,1\n1e308,1,1\n",  # the span overflows
    "0,1,1\n0,1,1\n0,1,1\n1.7976931348623157e308,1,1\n",  # the last nominal time overflows
], ids=["span", "nominal_time"])
def test_power_trace_overflowing_timestamps_are_non_uniform(rows):
    with pytest.raises(NonUniformSampling):
        load_power_trace(io.StringIO("t_s,voltage_v,current_a\n" + rows))


# --- binary headers ---


@pytest.mark.parametrize("blob", [
    b"P5\nab 2\n255\n",             # non-numeric width
    b"P5\n-1 -1\n255\n\x00",        # negative sides
    b"P5\n1 1\n65535\n\x00\x00",   # 16-bit samples
    b"P5 0 0 255",                  # zero sides, no byte after maxval
    b"P5 0 5 255",
    b"P6 4 0 255\n",
])
def test_netpbm_unsupported_header_is_bad_magic(blob):
    with pytest.raises(BadMagic):
        read_netpbm(blob)


@pytest.mark.parametrize("blob,error", [
    (b"P5 #a\n2 #b\n1 #c\n255\n\x07\x09", None),
    (b"P5#c\n2 1 255\n\x07\x09", None),
    (b"P5\t2\r1\x0b255\x0c\x07\x09", None),
    (b"P5 12#c\n1 255\n\x07\x09", BadMagic),  # a '#' inside a field does not start a comment
    (b"P5 2 1 #c", TruncatedRecord),
], ids=["comment_between_fields", "comment_after_magic", "tab_cr_vt_ff", "hash_in_field",
        "comment_ends_blob"])
def test_netpbm_header_spellings(blob, error):
    if error is None:
        assert read_netpbm(blob).tolist() == [[7, 9]]
    else:
        with pytest.raises(error):
            read_netpbm(blob)


def test_evb1_zero_side_is_bad_magic():
    with pytest.raises(BadMagic):
        decode_stream(b"EVB1\x00\x00\x04\x00")


@pytest.mark.parametrize("read,blob", [
    (decode_stream, EVB1_MAGIC + b"\x10"),                      # 5 of the 8 header bytes
    (read_pfr1, PFR1_MAGIC + struct.pack("<HHQ", 4, 4, 0)),     # 16 of the 24 header bytes
    (read_netpbm, b"P5 2 2 255\n\x00\x00\x00"),                 # 3 of the 4 pixel bytes
], ids=["evb1", "pfr1", "netpbm"])
def test_truncated_blob_is_truncated_record(read, blob):
    with pytest.raises(TruncatedRecord):
        read(blob)


def test_pfr1_zero_duration_is_invalid_window():
    # a frame's index is t0 // duration, so a zero duration is no frame
    with pytest.raises(InvalidWindow):
        read_pfr1(PFR1_MAGIC + struct.pack("<HHQQ", 1, 1, 5, 0) + b"\x00\x00")


# --- properties: any input yields a value or an EvflowError ---


def value_or_typed_error(read, arg):
    try:
        return read(arg)
    except EvflowError:
        return None


# Any of the first 256 code points (decoded bytes: full-Unicode text costs
# Hypothesis a 1.6 s table build per session), or comma-separated rows of
# short numeric-looking fields, so that rows often reach the record types.
FIELD = st.sampled_from(["0", "1", "-1", "0.5", "1.5", "nan", "inf", "1e999"]) | st.text(
    alphabet="0123456789.-+e nanif\"\u0663", max_size=8
)
CSV_TEXT = st.binary().map(lambda b: b.decode("latin-1")) | st.lists(
    st.lists(FIELD, max_size=8).map(",".join), max_size=6
).map("\n".join)


@pytest.mark.parametrize("load,header", [
    (load_labels_csv, "frame_idx,track_id,x,y,w,h\n"),
    (load_detections_csv, "frame_idx,class_id,confidence,x,y,w,h\n"),
    (load_power_trace, "t_s,voltage_v,current_a\n"),
    (load_latency_table, "batch_size,latency_ms\n"),
], ids=["labels", "detections", "power_trace", "latency_table"])
@settings(max_examples=100)
@given(with_header=st.booleans(), body=CSV_TEXT)
def test_csv_loaders_raise_only_typed_errors(load, header, with_header, body):
    value_or_typed_error(load, io.StringIO(header + body if with_header else body))


SIDE = st.integers(0, 0xFFFF)
HEADER_FIELD = st.integers(-1, 70_000)


# each reader gets arbitrary bytes, alone or after a well-formed header of arbitrary values
@pytest.mark.parametrize("read,header", [
    (decode_stream, st.tuples(SIDE, SIDE).map(lambda v: EVB1_MAGIC + struct.pack("<HH", *v))),
    (read_pfr1, st.tuples(SIDE, SIDE, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)).map(
        lambda v: PFR1_MAGIC + struct.pack("<HHQQ", *v))),
    (read_netpbm, st.sampled_from([b"P5 ", b"P6 "]) | st.tuples(
        st.sampled_from(["P5", "P6"]), HEADER_FIELD, HEADER_FIELD, HEADER_FIELD,
        st.sampled_from(["\n", ""]),  # maxval may end the blob
    ).map(lambda v: "{} {} {} {}{}".format(*v).encode())),
], ids=["evb1", "pfr1", "netpbm"])
@settings(max_examples=100)
@given(data=st.data())
def test_binary_readers_raise_only_typed_errors(read, header, data):
    prefix = data.draw(st.just(b"") | header)
    value = value_or_typed_error(read, prefix + data.draw(st.binary()))
    if read is read_pfr1 and value is not None:
        assert value.frame_index >= 0  # a frame that reads back has an index


# in-range coordinates and timestamps, so that most streams decode and reach accumulation
@settings(max_examples=100)
@given(data=st.data())
def test_evb1_stream_that_decodes_also_accumulates(data):
    w, h = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 16))
    record = st.tuples(st.integers(0, 3_000), st.integers(0, w), st.integers(0, h),
                       st.integers(0, 3))
    records = sorted(data.draw(st.lists(record, max_size=20)))
    blob = EVB1_MAGIC + struct.pack("<HH", w, h)
    blob += b"".join(struct.pack("<QHHB", *r) for r in records)
    try:
        s = decode_stream(blob)
    except EvflowError:
        return
    frames = list(window_frames(s, 1_000))
    assert sum(int(f.pos.sum()) + int(f.neg.sum()) for f in frames) == len(s)
