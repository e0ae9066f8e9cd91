import collections
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow.errors import InvalidWindow, UpscaleUnsupported
from evflow.events import EventStream, SensorGeometry
from evflow.frames import (
    PolarityFrame,
    accumulate,
    area_sum,
    downscale,
    read_pfr1,
    render_rgb,
    window_activity,
    window_frames,
    window_range,
    write_pfr1,
)
from evflow.frames import _band_weights, _runs
from evflow.sync import to_common_raster

HD = SensorGeometry(1280, 720)
SMALL = SensorGeometry(64, 48)


def random_stream(geom, n, seed, t_max=1_000_000):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, t_max, n).astype(np.uint64))
    x = rng.integers(0, geom.width, n, dtype=np.uint16)
    y = rng.integers(0, geom.height, n, dtype=np.uint16)
    p = rng.integers(0, 2, n, dtype=np.uint8)
    return EventStream(geom, t, x, y, p)


def brute_force_counts(s, t0, t1, geom):
    """Independent per-pixel counter: int64 scatter-add, then clip."""
    pos = np.zeros((geom.height, geom.width), dtype=np.int64)
    neg = np.zeros((geom.height, geom.width), dtype=np.int64)
    sel = (s.t >= t0) & (s.t < t1)
    xs, ys, ps = s.x[sel], s.y[sel], s.p[sel]
    np.add.at(pos, (ys[ps == 1], xs[ps == 1]), 1)
    np.add.at(neg, (ys[ps == 0], xs[ps == 0]), 1)
    return np.minimum(pos, 255).astype(np.uint8), np.minimum(neg, 255).astype(np.uint8)


def test_empty_stream_gives_zero_frame():
    f = accumulate(EventStream.empty(SMALL), 0, 33_333)
    assert not f.pos.any() and not f.neg.any()


def test_saturation_at_255():
    n = 300
    s = EventStream(SMALL, np.arange(n, dtype=np.uint64), [7] * n, [5] * n, [1] * n)
    f = accumulate(s, 0, 33_333)
    assert f.pos[5, 7] == 255
    assert f.neg[5, 7] == 0


def test_accumulate_matches_brute_force():
    s = random_stream(SMALL, 10_000, seed=21, t_max=100_000)
    f = accumulate(s, 10_000, 50_000)
    pos, neg = brute_force_counts(s, 10_000, 60_000, SMALL)
    assert np.array_equal(f.pos, pos)
    assert np.array_equal(f.neg, neg)


def test_accumulate_order_independent():
    rng = np.random.default_rng(5)
    s = random_stream(SMALL, 5_000, seed=5, t_max=10_000)
    perm = rng.permutation(len(s))
    # events shuffled within the window, then re-sorted by t only
    order = np.argsort(s.t[perm], kind="stable")
    s2 = EventStream(SMALL, s.t[perm][order], s.x[perm][order], s.y[perm][order], s.p[perm][order])
    f1 = accumulate(s, 0, 10_000)
    f2 = accumulate(s2, 0, 10_000)
    assert np.array_equal(f1.pos, f2.pos) and np.array_equal(f1.neg, f2.neg)


def test_accumulate_rejects_zero_window():
    with pytest.raises(InvalidWindow):
        accumulate(EventStream.empty(SMALL), 0, 0)


def test_frame_payload_is_width_height_2():
    f = accumulate(EventStream.empty(HD), 0, 33_333)
    assert f.payload_bytes == 1280 * 720 * 2 == 1_843_200


def test_frame_sequence_spans_event_windows():
    s = EventStream(SMALL, [10, 40_000, 99_000], [1, 2, 3], [1, 2, 3], [1, 1, 1])
    frames = list(window_frames(s, 33_333))
    assert len(frames) == 3
    assert [f.t0 for f in frames] == [0, 33_333, 66_666]


def test_frame_sequence_conserves_events_below_saturation():
    s = random_stream(SMALL, 20_000, seed=13, t_max=500_000)
    frames = list(window_frames(s, 33_333))
    total = sum(int(f.pos.sum()) + int(f.neg.sum()) for f in frames)
    assert total == len(s)
    assert max(int(f.pos.max(initial=0)) for f in frames) < 255  # no cell saturated


def test_frame_sequence_rejects_zero_window():
    with pytest.raises(InvalidWindow):
        list(window_frames(EventStream.empty(SMALL), 0))


def test_frame_sequence_empty_stream():
    assert list(window_frames(EventStream.empty(SMALL), 33_333)) == []


def assert_same_frame(a, b):
    assert (a.t0, a.duration, a.width, a.height, a.events) == (
        b.t0, b.duration, b.width, b.height, b.events)
    assert np.array_equal(a.pos, b.pos) and np.array_equal(a.neg, b.neg)


def gap_stream():
    # events in windows 3-4 and 9, none in windows 5-8
    a = random_stream(SMALL, 2_000, seed=31, t_max=60_000)
    b = random_stream(SMALL, 1_000, seed=32, t_max=20_000)
    t = np.concatenate([a.t + 100_000, b.t + 300_000])
    return EventStream(SMALL, t, np.concatenate([a.x, b.x]), np.concatenate([a.y, b.y]),
                       np.concatenate([a.p, b.p]))


def test_window_frames_match_accumulate_across_gap():
    s, T = gap_stream(), 33_333
    frames = list(window_frames(s, T))
    assert [f.frame_index for f in frames] == list(range(3, 10))
    for f in frames:
        assert_same_frame(f, accumulate(s, f.t0, T))
    assert not any(f.pos.any() or f.neg.any() for f in frames[2:6])


def test_explicit_range_before_first_event_is_accumulate_per_window():
    # windows 0..11 as accumulate(s, k*T, T); window_frames yields 3..9 of them
    s, T = gap_stream(), 33_333
    frames = [accumulate(s, k * T, T) for k in range(12)]
    assert window_range(s, T) == range(3, 10)
    for f, g in zip(frames[3:10], window_frames(s, T), strict=True):
        assert_same_frame(f, g)
    assert [f.t0 for f in frames] == [k * T for k in range(12)]
    assert sum(int(f.pos.sum()) + int(f.neg.sum()) for f in frames) == len(s)
    assert sum(f.events for f in frames) == len(s)


def test_explicit_range_on_empty_stream_is_accumulate_per_window():
    s = EventStream.empty(SMALL)
    frames = [accumulate(s, k * 1000, 1000) for k in range(3)]
    assert window_range(s, 1000) == range(0) and list(window_frames(s, 1000)) == []
    assert [f.t0 for f in frames] == [0, 1000, 2000]
    assert not any(f.pos.any() or f.neg.any() for f in frames)


def test_window_frames_near_the_uint64_limit():
    # the last window's end, (k + 1) * T, is past 2^64 - 1
    s = EventStream(SensorGeometry(4, 4), [2**64 - 10, 2**64 - 9], [0, 1], [0, 1], [1, 0])
    (f,) = window_frames(s, 33_333)
    assert int(f.pos.sum()) + int(f.neg.sum()) == 2
    assert_same_frame(f, accumulate(s, f.t0, 33_333))


@pytest.mark.parametrize("T", [1, 2, 3, 2**63, 2**64 - 1])
def test_window_frames_hold_an_event_at_the_last_timestamp(T):
    s = EventStream(SensorGeometry(4, 4), [2**64 - 7, 2**64 - 1], [0, 1], [0, 1], [1, 0])
    frames = list(window_frames(s, T))
    assert sum(int(f.pos.sum()) + int(f.neg.sum()) for f in frames) == 2
    assert frames[-1].pos[1, 1] == 0 and frames[-1].neg[1, 1] == 1
    for f in frames:
        assert_same_frame(f, accumulate(s, f.t0, T))


def test_window_past_the_uint64_range_is_rejected():
    s = EventStream(SensorGeometry(4, 4), [1], [0], [0], [1])
    with pytest.raises(InvalidWindow):
        list(window_frames(s, 2**64))
    with pytest.raises(InvalidWindow):
        accumulate(s, 0, 2**64)


@pytest.mark.parametrize("T", [1, 2, 3, 16])
def test_window_grid_past_the_array_size_limit_is_invalid_window(T):
    # t = 0 to 2^64 - 1 spans 2^64 // T windows, too many for an int64 array of bounds
    s = EventStream(SensorGeometry(4, 4), [0, 2**64 - 1], [0, 1], [0, 1], [1, 0])
    ks = window_range(s, T)
    assert (ks.start, ks.stop) == (0, (2**64 - 1) // T + 1)
    with pytest.raises(InvalidWindow, match=f"{ks.stop} windows"):
        next(window_frames(s, T))


@settings(max_examples=150)
@given(data=st.data())
def test_window_frames_equal_brute_force(data):
    # bursts of one cell at consecutive microseconds on a few cells: counts past
    # 255, and windows between distant bursts left empty; window_activity over
    # windows 0..last, before the first event too
    geom = SensorGeometry(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4)))
    burst = st.tuples(st.integers(0, 40_000), st.integers(0, geom.width - 1),
                      st.integers(0, geom.height - 1), st.integers(0, 1), st.integers(1, 600))
    bursts = data.draw(st.lists(burst, min_size=1, max_size=8))
    t, x, y, p = zip(*sorted((t + i, x, y, p) for t, x, y, p, n in bursts for i in range(n)))
    s = EventStream(geom, t, x, y, p)
    T = data.draw(st.integers(100, 5_000))
    frames = list(window_frames(s, T))
    assert [f.frame_index for f in frames] == list(range(t[0] // T, t[-1] // T + 1))
    for f in frames:
        pos, neg = brute_force_counts(s, f.t0, f.t0 + T, geom)
        assert np.array_equal(f.pos, pos) and np.array_equal(f.neg, neg)
    for k, act in enumerate(window_activity(s, T, t[-1] // T + 1)):
        pos, neg = brute_force_counts(s, k * T, (k + 1) * T, geom)
        assert np.array_equal(act, np.add(pos, neg, dtype=np.uint16))


@settings(max_examples=100)
@given(data=st.data())
def test_window_frames_size_equals_downscale_of_each_frame(data):
    # integer and non-integer ratios; bursts past 255 on one cell; empty and gap
    # windows; a stream with no events
    geom = SensorGeometry(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 7)))
    size = (data.draw(st.integers(1, geom.width)), data.draw(st.integers(1, geom.height)))
    burst = st.tuples(st.integers(0, 40_000), st.integers(0, geom.width - 1),
                      st.integers(0, geom.height - 1), st.integers(0, 1), st.integers(1, 600))
    bursts = data.draw(st.lists(burst, max_size=8))
    events = sorted((t + i, x, y, p) for t, x, y, p, n in bursts for i in range(n))
    s = EventStream(geom, *zip(*events)) if events else EventStream.empty(geom)
    T = data.draw(st.integers(500, 8_000))
    want = [downscale(f, *size) for f in window_frames(s, T)]
    got = list(window_frames(s, T, size=size))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_frame(g, w)
        assert g.pos.flags.c_contiguous and g.neg.flags.c_contiguous


@pytest.mark.parametrize("size,error", [
    ((65, 48), UpscaleUnsupported), ((64, 49), UpscaleUnsupported),
    ((0, 48), ValueError), ((64, -1), ValueError),
])
@pytest.mark.parametrize("n", [0, 100])
def test_window_frames_size_is_checked_before_any_frame(size, error, n):
    frames = window_frames(random_stream(SMALL, n, seed=3), 33_333, size=size)
    with pytest.raises(error):
        next(frames)


def loop_overlap_weights(n_in, n_out):
    """Exact overlaps, in input cells, of output cell j with input cell i, by a double loop."""
    scale = Fraction(n_in, n_out)
    out = [[Fraction(0)] * n_in for _ in range(n_out)]
    for j in range(n_out):
        start, end = j * scale, (j + 1) * scale
        for i in range(math.floor(start), min(math.ceil(end), n_in)):
            out[j][i] = min(end, i + 1) - max(start, i)
    return out


@pytest.mark.parametrize("n_in,n_out", [(1280, 640), (1280, 427), (13, 7)])
def test_overlap_weights_equal_loop_oracle(n_in, n_out):
    w = _band_weights(n_in, n_out)
    assert w.dtype == np.int64
    assert np.array_equal(w.toarray(), np.array(loop_overlap_weights(n_in, n_out)) * n_out)
    assert (w.sum(axis=1) == n_in).all() and (w.sum(axis=0) == n_out).all()


def dense_overlap_weights(n_in, n_out):
    """(n_out, n_in) row-stochastic float matrix of interval overlaps."""
    scale = n_in / n_out
    j = np.arange(n_out)[:, None]
    i = np.arange(n_in)[None, :]
    overlap = np.minimum((j + 1) * scale, i + 1) - np.maximum(j * scale, i)
    return np.maximum(overlap, 0.0) / scale


def area_average(grid, out_w, out_h):
    """The dense float64 resampler area_sum replaced, kept as the oracle: wr @ grid @ wc.T."""
    h, w = grid.shape
    wr, wc = dense_overlap_weights(h, out_h), dense_overlap_weights(w, out_w)
    return wr @ grid.astype(np.float64) @ wc.T


def fraction_downscale(grid, out_w, out_h):
    """Area average in exact rationals, rounded half up, saturated at 255."""
    h, w = grid.shape
    wr = np.array(loop_overlap_weights(h, out_h), dtype=object)
    wc = np.array(loop_overlap_weights(w, out_w), dtype=object)
    area = Fraction(h, out_h) * Fraction(w, out_w)
    avg = wr @ grid.astype(object) @ wc.T / area
    return np.array([[min(int(a + Fraction(1, 2)), 255) for a in row] for row in avg])


def frame_of(pos, neg=None):
    neg = np.zeros_like(pos) if neg is None else neg
    return PolarityFrame(pos.shape[1], pos.shape[0], 0, 1000, pos, neg)


def test_downscale_rounds_exact_ties_half_up():
    # the dense float path put this cell's exact average 104.5 just below .5 and gave 104
    g = np.random.default_rng(18).integers(0, 256, (10, 10)).astype(np.uint8)
    out = downscale(frame_of(g), 3, 3)
    assert out.pos[2, 1] == 105
    assert np.array_equal(out.pos, fraction_downscale(g, 3, 3))


@settings(max_examples=100)
@given(data=st.data())
def test_downscale_equals_fraction_reference(data):
    h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    out_h, out_w = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
    cells = st.integers(0, 255) | st.sampled_from([0, 1, 254, 255])
    g = np.array(data.draw(st.lists(cells, min_size=h * w, max_size=h * w)), dtype=np.uint8)
    g = g.reshape(h, w)
    out = downscale(frame_of(g, 255 - g), out_w, out_h)
    assert np.array_equal(out.pos, fraction_downscale(g, out_w, out_h))
    assert np.array_equal(out.neg, fraction_downscale(255 - g, out_w, out_h))


@pytest.mark.parametrize("shape,raster", [((720, 1280), (320, 180)), ((48, 64), (17, 13))])
@pytest.mark.parametrize("dtype", [np.uint16, np.float64])
def test_common_raster_matches_dense_oracle(shape, raster, dtype):
    g = np.random.default_rng(4).uniform(0, 510, shape).astype(dtype)
    s, d = area_sum(g, *raster)
    assert s.dtype == (np.int64 if dtype == np.uint16 else np.float64)
    assert d == shape[0] * shape[1]
    (r,) = to_common_raster([g], raster)
    assert r.dtype == np.float64
    assert np.abs(r - area_average(g, *raster)).max() <= 1e-12


def assert_area_sum_is_uncropped(g, out_w, out_h):
    """area_sum equals the product over the whole grid, in value, dtype and type."""
    h, w = g.shape
    s, d = area_sum(g, out_w, out_h)
    want = _band_weights(h, out_h) @ g @ _band_weights(w, out_w).T
    assert type(s) is np.ndarray and s.dtype == want.dtype and s.shape == (out_h, out_w)
    assert np.array_equal(s, want) and d == g.size


@settings(max_examples=200)
@given(data=st.data())
def test_area_sum_over_the_nonzero_box_equals_the_whole_grid(data):
    h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    out_h, out_w = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
    dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.float64]))
    y0, x0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
    y1, x1 = data.draw(st.integers(y0 + 1, h)), data.draw(st.integers(x0 + 1, w))
    kind = data.draw(st.sampled_from(["empty", "cell", "top", "bottom", "left", "right", "whole", "any"]))
    y0, y1, x0, x1 = {
        "empty": (0, 0, 0, 0),
        "cell": (y0, y0 + 1, x0, x0 + 1),
        "top": (0, y1, x0, x1),
        "bottom": (y0, h, x0, x1),
        "left": (y0, y1, 0, x1),
        "right": (y0, y1, x0, w),
        "whole": (0, h, 0, w),
        "any": (y0, y1, x0, x1),
    }[kind]
    n = (y1 - y0) * (x1 - x0)
    if dtype == np.float64:
        high, cells = 1e6, st.floats(-1e6, 1e6)
    else:
        high = np.iinfo(dtype).max
        cells = st.integers(0, high)
    g = np.zeros((h, w), dtype=dtype)
    g[y0:y1, x0:x1] = np.reshape(data.draw(st.lists(cells, min_size=n, max_size=n)), (y1 - y0, x1 - x0))
    if n:  # nonzero corners make the drawn box the nonzero box
        g[y0, x0] = g[y1 - 1, x1 - 1] = high
    assert_area_sum_is_uncropped(g, out_w, out_h)


def test_area_sum_of_a_disc_sized_blob_at_720p():
    g = np.zeros((720, 1280), dtype=np.uint16)
    yy, xx = np.ogrid[:720, :1280]
    g[(yy - 301) ** 2 + (xx - 517) ** 2 <= 14**2] = 510  # one r = 14 px disc
    assert_area_sum_is_uncropped(g, 320, 180)
    assert_area_sum_is_uncropped(g.astype(np.float64), 320, 180)


def test_render_all_zero_is_black():
    f = accumulate(EventStream.empty(SMALL), 0, 1000)
    img = render_rgb(f)
    assert img.shape == (48, 64, 3)
    assert not img.any()


def test_render_single_positive_is_white():
    s = EventStream(SMALL, [5], [10], [20], [1])
    img = render_rgb(accumulate(s, 0, 1000))
    assert tuple(img[20, 10]) == (255, 255, 255)
    assert img.sum() == 765


def test_render_negative_is_blue_positive_wins_overlap():
    s = EventStream(SMALL, [1, 2, 3], [4, 4, 9], [4, 4, 9], [1, 0, 0])
    img = render_rgb(accumulate(s, 0, 1000))
    assert tuple(img[4, 4]) == (255, 255, 255)  # both polarities: white
    assert tuple(img[9, 9]) == (0, 0, 255)


def test_downscale_preserves_constants():
    pos = np.full((48, 64), 4, dtype=np.uint8)
    neg = np.full((48, 64), 4, dtype=np.uint8)
    f = PolarityFrame(64, 48, 0, 1000, pos, neg)
    out = downscale(f, 17, 13)
    assert (out.pos == 4).all() and (out.neg == 4).all()


def test_downscale_payload_matches_detector_input():
    f = accumulate(EventStream.empty(HD), 0, 33_333)
    out = downscale(f, 640, 480)
    assert (out.width, out.height) == (640, 480)
    assert out.payload_bytes == 640 * 480 * 2 == 614_400


def test_downscale_2x2_mean():
    pos = np.array([[0, 0], [4, 4]], dtype=np.uint8)
    f = PolarityFrame(2, 2, 0, 1000, pos, np.zeros((2, 2), dtype=np.uint8))
    out = downscale(f, 1, 1)
    assert out.pos[0, 0] == 2
    assert out.neg[0, 0] == 0


def test_downscale_rejects_upscale():
    f = accumulate(EventStream.empty(SMALL), 0, 1000)
    with pytest.raises(UpscaleUnsupported):
        downscale(f, 65, 48)


def test_area_average_against_manual_windows():
    # integer 2x factor reduces to plain block means
    rng = np.random.default_rng(3)
    g = rng.integers(0, 255, (8, 8)).astype(np.float64)
    manual = g.reshape(4, 2, 4, 2).mean(axis=(1, 3))
    s, d = area_sum(g, 4, 4)
    assert np.allclose(s / d, manual, atol=1e-12)
    assert np.allclose(area_average(g, 4, 4), manual, atol=1e-12)


def assert_activity_of_frames(s, T, n):
    """window_activity equals each frame's pos + neg without 8-bit overflow."""
    got = list(window_activity(s, T, n))
    want = [np.add(f.pos, f.neg, dtype=np.uint16) for f in (accumulate(s, k * T, T) for k in range(n))]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.uint16 and g.shape == (s.height, s.width) and g.flags.c_contiguous
        assert np.array_equal(g, w)
    return got


def test_activity_zero_frame():
    (act,) = assert_activity_of_frames(EventStream.empty(SMALL), 1000, 1)
    assert act.shape == (48, 64) and not act.any()


def test_activity_no_uint8_overflow():
    # 300 events of each polarity on one pixel: each saturates at 255, the sum is 510
    n = 300
    s = EventStream(SMALL, np.arange(2 * n, dtype=np.uint64), [3] * 2 * n, [4] * 2 * n,
                    [1, 0] * n)
    (act,) = assert_activity_of_frames(s, 1000, 1)
    assert act[4, 3] == 510 and act.sum() == 510


def test_activity_matches_elementwise_sum():
    s = random_stream(SMALL, 3_000, seed=8, t_max=10_000)
    (act,) = window_activity(s, 10_000, 1)
    f = accumulate(s, 0, 10_000)
    assert np.array_equal(act, f.pos.astype(int) + f.neg.astype(int))


def test_window_activity_across_gap_and_before_first_event():
    s, T = gap_stream(), 33_333
    grids = assert_activity_of_frames(s, T, 12)
    assert len(grids) == 12 and sum(int(g.sum()) for g in grids) == len(s)
    assert not any(g.any() for g in grids[:3] + grids[5:9] + grids[10:])


def test_window_activity_empty_stream():
    assert list(window_activity(EventStream.empty(SMALL), 33_333, 0)) == []
    grids = assert_activity_of_frames(EventStream.empty(SMALL), 1000, 3)
    assert len(grids) == 3 and not any(g.any() for g in grids)


def test_window_activity_rejects_bad_windows():
    s = random_stream(SMALL, 100, seed=3, t_max=20)
    for T in (0, 2**64):
        with pytest.raises(InvalidWindow):
            list(window_activity(s, T, 2))


@settings(max_examples=150)
@given(data=st.data())
def test_window_activity_equals_pos_plus_neg_of_each_frame(data):
    # bursts past 255 of either polarity on a few cells, so both polarities
    # share pixels; empty and gap windows; windows 0..n-1, also before the
    # first event, past the events or on no events
    geom = SensorGeometry(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5)))
    burst = st.tuples(st.integers(0, 40_000), st.integers(0, geom.width - 1),
                      st.integers(0, geom.height - 1), st.integers(0, 1), st.integers(1, 600))
    bursts = data.draw(st.lists(burst, max_size=8))
    events = sorted((t + i, x, y, p) for t, x, y, p, n in bursts for i in range(n))
    s = EventStream(geom, *zip(*events)) if events else EventStream.empty(geom)
    T = data.draw(st.integers(500, 8_000))
    assert_activity_of_frames(s, T, data.draw(st.integers(0, 41_000 // T + 1)))


@settings(max_examples=150)
@given(data=st.data())
def test_runs_equal_a_counter_and_leave_the_stream_alone(data):
    # scattered events plus bursts past 255 on a few cells, shuffled, over a random slice
    geom = SensorGeometry(data.draw(st.integers(1, 70)), data.draw(st.integers(1, 50)))
    cell = st.tuples(st.integers(0, 1), st.integers(0, geom.height - 1),
                     st.integers(0, geom.width - 1))
    pyx = data.draw(st.lists(cell, min_size=1, max_size=300))
    pyx += [c for c, n in data.draw(st.lists(st.tuples(cell, st.integers(1, 600)), max_size=3))
            for _ in range(n)]
    np.random.default_rng(data.draw(st.integers(0, 2**32))).shuffle(pyx)
    p, y, x = zip(*pyx)
    s = EventStream(geom, np.arange(len(pyx)), x, y, p)
    columns = [c.copy() for c in (s.t, s.x, s.y, s.p)]
    lo = data.draw(st.integers(0, len(pyx)))
    hi = data.draw(st.integers(lo, len(pyx)))
    cell_idx, n = _runs(s, lo, hi)
    want = sorted(collections.Counter(pyx[lo:hi]).items())
    assert cell_idx.dtype == np.uint32
    assert np.all(cell_idx[1:] > cell_idx[:-1])
    assert cell_idx.tolist() == [(p * geom.height + y) * geom.width + x for (p, y, x), _ in want]
    assert n.tolist() == [min(k, 255) for _, k in want]
    empty = _runs(s, lo, lo)
    assert empty[0].dtype == np.uint32 and empty[0].size == empty[1].size == 0
    for before, after in zip(columns, (s.t, s.x, s.y, s.p)):
        assert np.array_equal(before, after)


def test_runs_cell_index_does_not_wrap_on_huge_sensors():
    # 2*W*H > 2^32: the positive event at (0, 59999) must not wrap into the negative cells
    s = EventStream(SensorGeometry(60000, 60000), [5, 6], [0, 3], [59999, 2], [1, 0])
    cell, n = _runs(s, 0, 2)
    assert cell.tolist() == [2 * 60000 + 3, 7_199_940_000] and n.tolist() == [1, 1]


@pytest.mark.parametrize("height,dtype", [(32768, np.uint32), (32769, np.uint64)])
def test_runs_cell_index_widens_only_past_2_to_the_32(height, dtype):
    # 2*W*H is 2^32 - 65536 at height 32768 and 2^32 + 65534 at 32769
    w = 65535
    s = EventStream(SensorGeometry(w, height), [5], [w - 1], [height - 1], [1])
    cell, _ = _runs(s, 0, 1)
    assert cell.dtype == dtype and cell.tolist() == [2 * w * height - 1]


def test_pfr1_round_trip():
    s = random_stream(SMALL, 2_000, seed=17, t_max=33_333)
    f = accumulate(s, 0, 33_333)
    g = read_pfr1(write_pfr1(f))
    assert (g.width, g.height, g.t0, g.duration) == (f.width, f.height, f.t0, f.duration)
    assert np.array_equal(g.pos, f.pos) and np.array_equal(g.neg, f.neg)
    assert f.events == 2_000 and g.events is None  # PFR1 does not store the count
