import io

import numpy as np
import pytest

from evflow.errors import (
    BadMagic,
    InvalidInterval,
    NonMonotonic,
    OutOfBounds,
    TruncatedRecord,
)
from evflow.events import (
    Event,
    EventStream,
    Polarity,
    SensorGeometry,
    concat_streams,
    decode_stream,
    encode_stream,
    read_csv,
    slice_interval,
    validate,
    write_csv,
)

HD = SensorGeometry(1280, 720)


def make_stream(geom, t, x, y, p):
    return EventStream(geom, t, x, y, p)


def random_stream(geom, n, seed, t_max=10_000_000):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, t_max, n).astype(np.uint64))
    x = rng.integers(0, geom.width, n, dtype=np.uint16)
    y = rng.integers(0, geom.height, n, dtype=np.uint16)
    p = rng.integers(0, 2, n, dtype=np.uint8)
    return EventStream(geom, t, x, y, p)


def header(width, height):
    return b"EVB1" + width.to_bytes(2, "little") + height.to_bytes(2, "little")


def record(t, x, y, p):
    return (
        t.to_bytes(8, "little") + x.to_bytes(2, "little") + y.to_bytes(2, "little")
        + p.to_bytes(1, "little")
    )


def test_decode_empty_stream():
    s = decode_stream(header(1280, 720))
    assert len(s) == 0
    assert s.geometry == HD


def test_decode_single_record():
    s = decode_stream(header(1280, 720) + record(1000, 10, 20, 1))
    assert len(s) == 1
    assert s[0] == Event(1000, 10, 20, Polarity.POSITIVE)


def test_decode_rejects_out_of_bounds_x():
    blob = header(640, 480) + record(0, 640, 10, 0)
    with pytest.raises(OutOfBounds):
        decode_stream(blob)


def test_decode_rejects_bad_magic():
    with pytest.raises(BadMagic):
        decode_stream(b"NOPE" + b"\x00" * 16)


def test_decode_rejects_truncated_record():
    blob = header(640, 480) + record(0, 1, 1, 1)[:-1]
    with pytest.raises(TruncatedRecord):
        decode_stream(blob)


def test_decode_rejects_nonmonotonic():
    blob = header(640, 480) + record(5, 0, 0, 0) + record(3, 0, 0, 0)
    with pytest.raises(NonMonotonic):
        decode_stream(blob)


def test_encode_empty_is_header_only():
    assert encode_stream(EventStream.empty(HD)) == header(1280, 720)


def test_round_trip_small():
    s = make_stream(HD, [1, 2, 2, 9], [0, 5, 1279, 3], [0, 7, 719, 2], [1, 0, 1, 0])
    assert decode_stream(encode_stream(s)) == s


def test_round_trip_million_random_events():
    s = random_stream(HD, 1_000_000, seed=11)
    blob = encode_stream(s)
    assert len(blob) == 8 + 13 * 1_000_000
    assert decode_stream(blob) == s


def test_validate_ok():
    assert validate(make_stream(HD, [1, 2, 3], [1, 2, 3], [4, 5, 6], [0, 1, 0])).ok


def test_validate_reports_nonmonotonic_index():
    s = EventStream(HD, np.array([5, 3], dtype=np.uint64), [0, 0], [0, 0], [0, 0], check=False)
    rep = validate(s)
    assert not rep.ok
    assert "NonMonotonic" in rep.violation and "index 1" in rep.violation


def test_validate_reports_out_of_bounds():
    s = EventStream(HD, [1], [1280], [0], [0], check=False)
    rep = validate(s)
    assert not rep.ok
    assert "OutOfBounds" in rep.violation


def test_lowest_index_violation_wins_in_decode_and_validate():
    # off-sensor x at index 1, decreasing timestamp at index 3
    t, x = [1, 2, 5, 4], [0, 1280, 0, 0]
    blob = header(1280, 720) + b"".join(record(ti, xi, 0, 0) for ti, xi in zip(t, x))
    with pytest.raises(OutOfBounds, match="index 1"):
        decode_stream(blob)
    rep = validate(EventStream(HD, t, x, [0] * 4, [0] * 4, check=False))
    assert rep.violation.startswith("OutOfBounds") and "index 1" in rep.violation


def test_decode_output_always_validates():
    # validation soundness: anything decode accepts, validate accepts
    for seed in range(5):
        s = random_stream(HD, 10_000, seed)
        assert validate(decode_stream(encode_stream(s))).ok


def test_slice_half_open_boundaries():
    s = make_stream(HD, [10, 20, 30], [1, 2, 3], [1, 2, 3], [1, 1, 1])
    out = slice_interval(s, 10, 30)
    assert [e.t for e in out] == [10, 20]


def test_slice_negative_start_is_clamped_to_zero():
    s = make_stream(HD, [0, 10, 20, 30], [1, 2, 3, 4], [1, 2, 3, 4], [1, 1, 1, 1])
    assert slice_interval(s, -5, 30) == slice_interval(s, 0, 30)


def test_slice_empty_interval():
    s = make_stream(HD, [10, 20], [1, 2], [1, 2], [1, 1])
    assert len(slice_interval(s, 0, 0)) == 0


def test_slice_rejects_inverted_interval():
    with pytest.raises(InvalidInterval):
        slice_interval(EventStream.empty(HD), 5, 4)


def test_slice_partition_reconstructs_stream():
    s = random_stream(HD, 50_000, seed=3, t_max=1_000_000)
    T = 33_333
    parts = [slice_interval(s, k * T, (k + 1) * T) for k in range(0, 1_000_000 // T + 2)]
    assert concat_streams(parts) == s


def test_csv_round_trip():
    s = random_stream(SensorGeometry(64, 48), 500, seed=9, t_max=100_000)
    buf = io.StringIO()
    write_csv(s, buf)
    buf.seek(0)
    assert read_csv(buf, s.geometry) == s


def test_csv_empty_round_trip():
    buf = io.StringIO()
    write_csv(EventStream.empty(HD), buf)
    buf.seek(0)
    assert read_csv(buf, HD) == EventStream.empty(HD)


def test_stream_is_immutable():
    s = random_stream(HD, 10, seed=0)
    with pytest.raises(AttributeError):
        s.t = None
    with pytest.raises(ValueError):
        s.t[0] = 0
