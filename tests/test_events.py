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
    EventStream,
    SensorGeometry,
    decode_stream,
    encode_stream,
    slice_interval,
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
    assert (s.t[0], s.x[0], s.y[0], s.p[0]) == (1000, 10, 20, 1)


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
    s = EventStream(HD, [1, 2, 3], [1, 2, 3], [4, 5, 6], [0, 1, 0], check=True)
    assert s.t.tolist() == [1, 2, 3] and s.p.tolist() == [0, 1, 0]


def test_validate_reports_nonmonotonic_index():
    with pytest.raises(NonMonotonic, match="index 1: 3 < 5"):
        EventStream(HD, np.array([5, 3], dtype=np.uint64), [0, 0], [0, 0], [0, 0], check=True)


def test_validate_reports_out_of_bounds():
    with pytest.raises(OutOfBounds, match=r"index 0: \(1280, 0\)"):
        EventStream(HD, [1], [1280], [0], [0], check=True)


def test_lowest_index_violation_wins_in_decode_and_validate():
    # off-sensor x at index 1, decreasing timestamp at index 3
    t, x = [1, 2, 5, 4], [0, 1280, 0, 0]
    blob = header(1280, 720) + b"".join(record(ti, xi, 0, 0) for ti, xi in zip(t, x))
    with pytest.raises(OutOfBounds, match="index 1"):
        decode_stream(blob)
    with pytest.raises(OutOfBounds, match="index 1"):
        EventStream(HD, t, x, [0] * 4, [0] * 4, check=True)


def test_polarity_above_one_is_out_of_bounds_in_decode_and_validate():
    geom = SensorGeometry(16, 16)
    with pytest.raises(OutOfBounds, match="index 1: .* p=2"):
        decode_stream(header(16, 16) + record(1, 3, 4, 1) + record(2, 3, 4, 2))
    with pytest.raises(OutOfBounds, match="index 1: .* p=2"):
        EventStream(geom, [1, 2], [3, 3], [4, 4], [1, 2], check=True)


def test_slice_half_open_boundaries():
    s = make_stream(HD, [10, 20, 30], [1, 2, 3], [1, 2, 3], [1, 1, 1])
    out = slice_interval(s, 10, 30)
    assert out.t.tolist() == [10, 20]


def test_slice_negative_start_is_clamped_to_zero():
    s = make_stream(HD, [0, 10, 20, 30], [1, 2, 3, 4], [1, 2, 3, 4], [1, 1, 1, 1])
    assert slice_interval(s, -5, 30) == slice_interval(s, 0, 30)


def test_slice_empty_interval():
    s = make_stream(HD, [10, 20], [1, 2], [1, 2], [1, 1])
    assert len(slice_interval(s, 0, 0)) == 0


def test_slice_bounds_past_the_uint64_range():
    s = make_stream(HD, [5, 2**64 - 1], [1, 2], [1, 2], [1, 1])
    assert slice_interval(s, 2**64 - 1, 2**64).t.tolist() == [2**64 - 1]
    assert slice_interval(s, 0, 2**70) == s
    assert len(slice_interval(s, 2**64, 2**65)) == 0


def test_slice_rejects_inverted_interval():
    with pytest.raises(InvalidInterval):
        slice_interval(EventStream.empty(HD), 5, 4)


def test_slice_partition_reconstructs_stream():
    s = random_stream(HD, 50_000, seed=3, t_max=1_000_000)
    T = 33_333
    parts = [slice_interval(s, k * T, (k + 1) * T) for k in range(0, 1_000_000 // T + 2)]
    for col in ("t", "x", "y", "p"):
        assert np.array_equal(np.concatenate([getattr(q, col) for q in parts]), getattr(s, col))


def test_stream_is_immutable():
    s = random_stream(HD, 10, seed=0)
    with pytest.raises(AttributeError):
        s.t = None
    with pytest.raises(ValueError):
        s.t[0] = 0
