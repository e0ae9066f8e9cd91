import io

import numpy as np
import pytest

from evflow.bench import (
    EnergyInput,
    PowerTrace,
    batching_latency,
    energy_per_frame,
    load_latency_table,
    load_power_trace,
    smooth,
    sweep_batches,
)
from evflow.errors import (
    EmptyTrace,
    MissingInput,
    NegativeVoltage,
    NonUniformSampling,
    TraceTooShort,
    WindowOutOfRange,
    ZeroFrames,
)


def csv(text):
    return io.StringIO(text)


def constant_trace(watts=10.0, volts=10.0, seconds=1.0, period=0.0005):
    n = int(round(seconds / period)) + 1
    v = np.full(n, volts)
    c = np.full(n, watts / volts)
    return PowerTrace(period, v, c)


# --- loading ---


def test_load_infers_half_millisecond_period():
    tr = load_power_trace(csv("t_s,voltage_v,current_a\n0,12,1\n0.0005,12,1\n0.001,12,1\n"))
    assert tr.sample_period == pytest.approx(0.0005)
    assert len(tr) == 3


def test_load_rejects_nonuniform():
    with pytest.raises(NonUniformSampling):
        load_power_trace(csv("t_s,voltage_v,current_a\n0,12,1\n0.0005,12,1\n0.002,12,1\n"))


def test_load_rejects_empty():
    with pytest.raises(EmptyTrace):
        load_power_trace(csv("t_s,voltage_v,current_a\n"))


def test_load_rejects_negative_voltage():
    with pytest.raises(NegativeVoltage):
        load_power_trace(csv("t_s,voltage_v,current_a\n0,12,1\n0.0005,-1,1\n0.001,12,1\n"))


@pytest.mark.parametrize("v,c", [
    ([12, 1e200, 12], [1, 1e200, 1]),
    ([12, np.nan, 12], [1, 1, 1]),
    ([12, 12, 12], [1, np.inf, 1]),
], ids=["overflow", "nan", "inf"])
def test_trace_power_must_be_finite(v, c):
    with pytest.raises(ValueError, match="sample 1 has a non-finite power"):
        PowerTrace(0.0005, v, c)


@pytest.mark.parametrize("period", [0.0, -0.0005, float("nan"), float("inf")])
def test_trace_sample_period_must_be_finite_and_positive(period):
    with pytest.raises(ValueError, match="sample_period must be finite and positive"):
        PowerTrace(period, [1, 1], [1, 1])


def test_load_rejects_single_sample():
    with pytest.raises(NonUniformSampling):
        load_power_trace(csv("t_s,voltage_v,current_a\n0,12,1\n"))


# --- smoothing ---


def test_smooth_constant_power():
    tr = constant_trace(watts=12.0, volts=12.0)
    out = smooth(tr, 10)
    assert out.shape == (len(tr) - 9,)
    assert np.allclose(out, 12.0)


def test_smooth_window_one_is_instantaneous_power():
    tr = constant_trace()
    assert np.array_equal(smooth(tr, 1), tr.power)


def test_smooth_matches_sliding_oracle():
    rng = np.random.default_rng(1)
    tr = PowerTrace(0.0005, rng.uniform(10, 14, 500), rng.uniform(0.5, 2.0, 500))
    out = smooth(tr, 10)
    p = tr.power
    oracle = np.array([p[i : i + 10].mean() for i in range(len(p) - 9)])
    assert np.max(np.abs(out - oracle)) <= 1e-12


def test_smooth_trace_too_short():
    tr = PowerTrace(0.0005, np.ones(5), np.ones(5))
    with pytest.raises(TraceTooShort):
        smooth(tr, 10)


# --- energy ---


def test_energy_constant_power():
    tr = constant_trace(watts=10.0, seconds=1.0)
    assert energy_per_frame(tr, 0.0, 1.0, 100) == pytest.approx(100.0)  # mJ/frame


def test_energy_linear_in_power():
    rng = np.random.default_rng(2)
    v = rng.uniform(10, 14, 1000)
    c = rng.uniform(0.5, 2.0, 1000)
    tr1 = PowerTrace(0.0005, v, c)
    tr2 = PowerTrace(0.0005, v, 2 * c)
    e1 = energy_per_frame(tr1, 0.01, 0.4, 10)
    e2 = energy_per_frame(tr2, 0.01, 0.4, 10)
    assert e2 == pytest.approx(2 * e1, rel=1e-12)


def test_energy_inverse_in_frames():
    tr = constant_trace()
    assert energy_per_frame(tr, 0.0, 1.0, 50) == pytest.approx(
        2 * energy_per_frame(tr, 0.0, 1.0, 100)
    )


def test_energy_sawtooth_matches_closed_form():
    # power ramps 5 -> 14.9 W each 50 ms tooth; piecewise linear, so the
    # trapezoid integral has an exact closed form: 20 teeth of mean 9.95 W
    period = 0.0005
    ramp = np.linspace(5.0, 15.0, 101)[:-1]  # one tooth, 100 samples
    power = np.append(np.tile(ramp, 20), 5.0)
    tr = PowerTrace(period, np.full(power.size, 10.0), power / 10.0)
    got_joules = energy_per_frame(tr, 0.0, 1.0, 1) / 1e3
    expected = 20 * 0.05 * (5.0 + 14.9) / 2
    assert got_joules == pytest.approx(expected, rel=1e-3)


def test_energy_window_validation():
    tr = constant_trace()
    with pytest.raises(WindowOutOfRange):
        energy_per_frame(tr, 0.5, 2.0, 10)
    with pytest.raises(ZeroFrames):
        energy_per_frame(tr, 0.0, 1.0, 0)


def test_energy_that_overflows_is_window_out_of_range():
    tr = PowerTrace(1e200, np.full(3, 1e100), np.full(3, 1e100))  # 1e200 W for 2e200 s
    with pytest.raises(WindowOutOfRange, match="overflows"):
        energy_per_frame(tr, 0.0, tr.duration, 1)


# --- batching model ---


def test_batch16_inference_100ms_stays_below_one_second():
    res = batching_latency(16, 0.100, frame_period=33_333)
    assert res.worst_case_ms == pytest.approx(633.3, abs=0.5)
    assert res.worst_case_ms < 1000.0
    assert res.realtime_feasible


def test_batch4_inference_150ms():
    res = batching_latency(4, 0.150, frame_period=33_333)
    assert res.worst_case_ms == pytest.approx(133.3 + 150.0, abs=0.5)
    assert not res.realtime_feasible  # 150 ms > 133 ms fill time


def test_batch1_boundary_case_is_feasible():
    res = batching_latency(1, 0.033333, frame_period=33_333)
    assert res.realtime_feasible
    assert res.worst_case_ms == pytest.approx(66.7, abs=0.1)


def test_worst_case_increases_with_batch_size():
    lat = {b: 0.05 + 0.004 * b for b in range(1, 33)}
    worst = [batching_latency(b, lat[b]).worst_case_ms for b in range(1, 33)]
    assert all(b2 > b1 for b1, b2 in zip(worst, worst[1:]))


def test_feasibility_monotone_under_sublinear_latency():
    # affine latency: L(B)/B is non-increasing, so feasibility cannot flip back
    lat = {b: 0.05 + 0.01 * b for b in range(1, 20)}
    feas = [batching_latency(b, lat[b]).realtime_feasible for b in range(1, 20)]
    assert not feas[0]
    first_true = feas.index(True)
    assert all(feas[first_true:])


@pytest.mark.parametrize("lat_s", [0.0, -0.05, float("nan"), float("inf")])
def test_latency_must_be_finite_and_positive(lat_s):
    with pytest.raises(ValueError, match="finite and positive"):
        sweep_batches([1], {1: lat_s})


@pytest.mark.parametrize("b,period,message", [
    (0, 33_333, "batch_size must be >= 1"),
    (1, 0, "frame_period must be positive"),
    (4, -1, "frame_period must be positive"),
])
def test_batching_latency_rejects_impossible_arguments(b, period, message):
    with pytest.raises(ValueError, match=message):
        batching_latency(b, 0.05, period)


# --- sweeping ---


def test_sweep_single_batch_row():
    rep = sweep_batches([1], {1: 0.040})
    assert len(rep.rows) == 1
    assert rep.rows[0].batch_size == 1
    assert rep.rows[0].energy_mj_per_frame is None


def test_sweep_energy_decreases_with_batch_size():
    # constant power, per-frame time shrinking with B: energy/frame must drop
    inputs = {}
    lat = {}
    for b in (1, 2, 4, 8):
        tr = constant_trace(watts=10.0, seconds=1.0)
        inputs[b] = EnergyInput(tr, 0.0, 1.0, frames_processed=10 * b)
        lat[b] = 0.01 * b
    rep = sweep_batches([1, 2, 4, 8], lat, inputs)
    energies = [r.energy_mj_per_frame for r in rep.rows]
    assert all(e2 < e1 for e1, e2 in zip(energies, energies[1:]))
    assert energies[0] == pytest.approx(1000.0)  # 10 W * 1 s / 10 frames
    assert rep.rows[0].mean_power_w == pytest.approx(10.0)


def test_sweep_feasibility_matches_direct_call():
    lat = {1: 0.05, 4: 0.12, 16: 0.1}
    rep = sweep_batches([1, 4, 16], lat)
    for row in rep.rows:
        assert row == batching_latency(row.batch_size, lat[row.batch_size])


def test_sweep_missing_latency_rejected():
    with pytest.raises(MissingInput, match="no inference latency for batch size 2"):
        sweep_batches([1, 2], {1: 0.05})


def test_sweep_missing_trace_rejected():
    with pytest.raises(MissingInput):
        sweep_batches([1, 2], {1: 0.05, 2: 0.08},
                      {1: EnergyInput(constant_trace(), 0.0, 1.0, 10)})


def test_sweep_report_formats():
    rep = sweep_batches([1, 16], {1: 0.05, 16: 0.1})
    table = rep.format_table()
    assert "worst_ms" in table and len(table.splitlines()) == 3
    assert '"batch_size": 1' in rep.to_json()


def test_load_latency_table():
    table = load_latency_table(csv("batch_size,latency_ms\n1,50\n16,100\n"))
    assert table == {1: 0.05, 16: 0.1}
    with pytest.raises(MissingInput):
        load_latency_table(csv("batch_size,latency_ms\n"))
