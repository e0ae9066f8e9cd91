import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from evflow.errors import (
    ConfigInvalid,
    BehindCamera,
    MissingField,
    NoConvergence,
    NonOrthonormalRotation,
    OffSensor,
)
from evflow.events import SensorGeometry
from evflow.geometry import (
    UNDISTORT_MAX_ITER,
    UNDISTORT_TOL,
    Camera,
    CameraPair,
    Distortion,
    Extrinsics,
    Intrinsics,
    distort,
    fold_radius,
    load_calibration,
    nearest_rotation,
    transfer_bbox,
    transfer_point,
    undistort,
)
from evflow.labels import BBox

RGB_GEOM = SensorGeometry(640, 480)
DVS_GEOM = SensorGeometry(640, 480)


def axis_angle_rotation(axis, degrees):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    a = math.radians(degrees)
    kx, ky, kz = axis
    K = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + math.sin(a) * K + (1 - math.cos(a)) * (K @ K)


def identity_pair(dist_rgb=Distortion(), dist_dvs=Distortion(), rotation=None):
    intr = Intrinsics(500.0, 500.0, 320.0, 240.0)
    r = np.eye(3) if rotation is None else rotation
    return CameraPair(
        Camera(intr, dist_rgb, RGB_GEOM),
        Camera(intr, dist_dvs, DVS_GEOM),
        Extrinsics(r, np.zeros(3)),
    )


# --- distort / undistort ---


def test_distort_zero_coefficients_is_identity():
    assert distort((0.3, -0.2), Distortion()) == (0.3, -0.2)


def test_distort_fixes_origin():
    assert distort((0.0, 0.0), Distortion(k1=-0.2, k2=0.05, p1=0.01, p2=-0.01)) == (0.0, 0.0)


def test_distort_radial_formula():
    xd, yd = distort((0.5, 0.0), Distortion(k1=0.1))
    assert xd == pytest.approx(0.5 * (1 + 0.1 * 0.25), abs=1e-15)
    assert yd == 0.0


def test_undistort_zero_coefficients_is_identity():
    assert undistort((0.4, 0.1), Distortion()) == (0.4, 0.1)


def safe_radius(d: Distortion) -> float:
    """Invertible-region radius: the fold of the radial profile or its sign flip."""
    cands = [1.5]
    f = fold_radius(d)
    if f is not None:
        cands.append(f)
    if abs(d.k2) < 1e-15:
        if d.k1 < 0:
            cands.append(math.sqrt(-1.0 / d.k1))
    else:
        disc = d.k1 * d.k1 - 4.0 * d.k2
        if disc >= 0:
            for u in ((-d.k1 - math.sqrt(disc)) / (2 * d.k2), (-d.k1 + math.sqrt(disc)) / (2 * d.k2)):
                if u > 0:
                    cands.append(math.sqrt(u))
    return min(cands)


def decimal_fold_radius(k1, k2):
    """sqrt of the smallest positive root of 1 + 3 k1 u + 5 k2 u^2, in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = 5 * Decimal(k2), 3 * Decimal(k1)
        if a == 0:
            roots = [-1 / b] if b else []
        elif b * b - 4 * a < 0:
            roots = []
        else:
            s = (b * b - 4 * a).sqrt()
            roots = [(-b - s) / (2 * a), (-b + s) / (2 * a)]
        positive = [u for u in roots if u > 0]
        return float(min(positive).sqrt()) if positive else None


@pytest.mark.parametrize("k1,k2", [
    (-1e-20, -1e-38),  # folds at 2.045e9: k2 matters although |5 k2| is far below 1e-15
    (0.06, -0.01), (-0.12, 0.03), (0.32, -0.13), (-5.0, 0.0), (0.0, -0.2), (0.3, 0.0),
    (1e-9, -1e-9), (-0.5, 0.0625), (0.0, -1e-300),
])
def test_fold_radius_equals_decimal_root(k1, k2):
    want = decimal_fold_radius(k1, k2)
    got = fold_radius(Distortion(k1, k2))
    assert (got is None) == (want is None)
    if want is not None:
        assert got == pytest.approx(want, rel=1e-12)


def test_undistort_round_trip_random_coefficients():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(2_000):
        d = Distortion(
            rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
            rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
        )
        r = 0.85 * safe_radius(d) * math.sqrt(rng.uniform())
        th = rng.uniform(0, 2 * math.pi)
        p = (r * math.cos(th), r * math.sin(th))
        q = distort(p, d)
        est = undistort(q, d)
        worst = max(worst, math.hypot(est[0] - p[0], est[1] - p[1]))
    assert worst <= 1e-6


def test_undistort_reports_no_convergence_outside_invertible_region():
    d = Distortion(k1=-5.0)
    with pytest.raises(NoConvergence):
        undistort((1.5, 0.0), d)
    with pytest.raises(NoConvergence):
        undistort((1.5 / math.sqrt(2), 1.5 / math.sqrt(2)), d)


def test_undistort_nan_is_no_convergence():
    # NaN compares false with everything, so a residual test written as
    # rn > tol would let a NaN point through as (nan, nan)
    with pytest.raises(NoConvergence):
        undistort((math.nan, 0.1), Distortion(k1=-0.1))


def _oracle_radial_scale(r, d):
    return r * (1.0 + d.k1 * r * r + d.k2 * r**4)


def oracle_undistort(pt, d):
    """The bisection-seeded damped Newton in numpy that undistort replaced:
    seed from inverting the radial profile alone, then Newton steps solved
    with np.linalg.solve, never accepting a residual increase. Only its
    final tolerance test is the NaN-safe one undistort now uses."""
    q = np.array([pt[0], pt[1]], dtype=np.float64)
    rq = float(np.hypot(q[0], q[1]))
    p = q.copy()
    if rq >= 1e-12 and not (d.k1 == 0.0 and d.k2 == 0.0):
        hi = fold_radius(d)
        if hi is None:
            hi = max(rq, 1.0)
            while _oracle_radial_scale(hi, d) < rq and hi < 1e3:
                hi *= 2.0
        if _oracle_radial_scale(hi, d) < rq:
            p = q * (hi / rq)
        else:
            lo = 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _oracle_radial_scale(mid, d) < rq:
                    lo = mid
                else:
                    hi = mid
            p = q * (0.5 * (lo + hi) / rq)

    def jacobian(x, y):
        r2 = x * x + y * y
        radial = 1.0 + d.k1 * r2 + d.k2 * r2 * r2
        g = d.k1 + 2.0 * d.k2 * r2
        jxy = 2.0 * x * y * g + 2.0 * d.p1 * x + 2.0 * d.p2 * y
        return np.array([
            [radial + 2.0 * x * x * g + 2.0 * d.p1 * y + 6.0 * d.p2 * x, jxy],
            [jxy, radial + 2.0 * y * y * g + 6.0 * d.p1 * y + 2.0 * d.p2 * x],
        ])

    resid = np.array(distort(p, d)) - q
    rn = float(np.hypot(*resid))
    for _ in range(UNDISTORT_MAX_ITER):
        if rn <= 1e-13:
            break
        try:
            step = np.linalg.solve(jacobian(p[0], p[1]), resid)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        for _ in range(10):
            cand = p - lam * step
            cres = np.array(distort(cand, d)) - q
            crn = float(np.hypot(*cres))
            if crn < rn:
                p, resid, rn = cand, cres, crn
                break
            lam *= 0.5
        else:
            break
    if not rn <= UNDISTORT_TOL:
        raise NoConvergence(f"residual {rn:.3e}")
    return (float(p[0]), float(p[1]))


@settings(max_examples=600)
@given(
    k1=st.integers(-500, 500), k2=st.integers(-500, 500),
    p1=st.integers(-200, 200), p2=st.integers(-200, 200),
    frac=st.integers(0, 1000), theta=st.integers(0, 3599),
)
@example(k1=320, k2=-130, p1=0, p2=0, frac=1000, theta=0)
def test_undistort_matches_bisection_seeded_oracle(k1, k2, p1, p2, frac, theta):
    # coefficients on a 1e-3 grid (1e-4 tangential), in [-0.5, 0.5] and
    # [-0.02, 0.02]; tiny ones, where the oracle itself breaks down, are
    # test_undistort_tiny_coefficients_round_trip's. Near the fold with
    # k1 > 0 > k2, as in the explicit example, Newton from q converges to a
    # preimage past the fold unless undistort restarts from the bisection seed.
    d = Distortion(k1 / 1e3, k2 / 1e3, p1 / 1e4, p2 / 1e4)
    r = 0.85 * safe_radius(d) * frac / 1e3
    theta = math.radians(theta / 10)
    q = distort((r * math.cos(theta), r * math.sin(theta)), d)
    try:
        want = oracle_undistort(q, d)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            undistort(q, d)
        return
    got = undistort(q, d)
    assert math.hypot(got[0] - want[0], got[1] - want[1]) <= 1e-9


@given(
    k1=st.floats(-1e-9, 1e-9), k2=st.floats(-1e-9, 1e-9),
    p1=st.floats(-1e-9, 1e-9), p2=st.floats(-1e-9, 1e-9),
    x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0),
)
def test_undistort_tiny_coefficients_round_trip(k1, k2, p1, p2, x, y):
    # the bisection-seeded oracle returns a far-branch point, inf or
    # NoConvergence here, or raises OverflowError: its fold_radius treats
    # |5 k2| < 1e-15 as 0, and 60 bisection steps cannot place a seed on a
    # fold radius of 1e9 or more. E.g. k1=-1e-20, k2=-1e-38 at (0.9, 0.3).
    d = Distortion(k1, k2, p1, p2)
    est = undistort(distort((x, y), d), d)
    assert math.hypot(est[0] - x, est[1] - y) <= 1e-9


@given(
    q=st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
    k=st.tuples(*[st.floats(-1e3, 1e3)] * 4),
)
def test_undistort_returns_or_raises_no_convergence(q, k):
    # e.g. k1=-1e-200 at (1e100, 0), where an r**4 in the bisection seed overflows
    try:
        undistort(q, Distortion(*k))
    except NoConvergence:
        pass


def test_distort_then_undistort_is_identity():
    d = Distortion(k1=0.12, k2=-0.04, p1=0.002, p2=-0.003)
    for p in [(0.0, 0.0), (0.5, 0.2), (-0.8, 0.6), (1.0, -0.3)]:
        q = undistort(distort(p, d), d)
        assert math.hypot(q[0] - p[0], q[1] - p[1]) <= 1e-6


# --- transfer ---


def test_identity_calibration_transfer_is_identity():
    pair = identity_pair()
    for px in [(0.0, 0.0), (320.0, 240.0), (639.0, 479.0), (123.4, 56.7)]:
        out = transfer_point(px, pair)
        assert math.hypot(out[0] - px[0], out[1] - px[1]) <= 1e-9


def test_principal_point_maps_to_principal_point():
    pair = CameraPair(
        Camera(Intrinsics(500.0, 480.0, 320.0, 240.0), Distortion(), RGB_GEOM),
        Camera(Intrinsics(700.0, 650.0, 345.0, 222.0), Distortion(), DVS_GEOM),
        Extrinsics(np.eye(3), np.array([0.05, 0.0, 0.0])),
    )
    out = transfer_point((320.0, 240.0), pair)
    assert out == pytest.approx((345.0, 222.0), abs=1e-9)


def oracle_transfer(px, pair):
    """Independent reimplementation: matrix inverse + scipy root finding."""
    def k_matrix(i):
        return np.array([[i.fx, 0.0, i.cx], [0.0, i.fy, i.cy], [0.0, 0.0, 1.0]])

    k1 = k_matrix(pair.cam_rgb.intrinsics)
    k2 = k_matrix(pair.cam_dvs.intrinsics)
    d1, d2 = pair.cam_rgb.distortion, pair.cam_dvs.distortion

    def poly(pt, d):
        x, y = pt
        r2 = x * x + y * y
        f = 1 + d.k1 * r2 + d.k2 * r2 * r2
        return np.array(
            [
                x * f + 2 * d.p1 * x * y + d.p2 * (r2 + 2 * x * x),
                y * f + d.p1 * (r2 + 2 * y * y) + 2 * d.p2 * x * y,
            ]
        )

    norm = np.linalg.inv(k1) @ np.array([px[0], px[1], 1.0])
    target = norm[:2] / norm[2]
    sol = optimize.fsolve(lambda v: poly(v, d1) - target, target, full_output=False)
    ray = pair.extrinsics.rotation @ np.append(sol, 1.0)
    pd = poly(ray[:2] / ray[2], d2)
    out = k2 @ np.append(pd, 1.0)
    return out[:2] / out[2]


def random_pair(rng):
    intr1 = Intrinsics(
        rng.uniform(400, 700), rng.uniform(400, 700),
        rng.uniform(300, 340), rng.uniform(220, 260),
    )
    intr2 = Intrinsics(
        rng.uniform(400, 700), rng.uniform(400, 700),
        rng.uniform(300, 340), rng.uniform(220, 260),
    )
    d1 = Distortion(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                    rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
    d2 = Distortion(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                    rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
    rot = axis_angle_rotation(rng.normal(size=3), rng.uniform(0, 5))
    return CameraPair(
        Camera(intr1, d1, RGB_GEOM),
        Camera(intr2, d2, DVS_GEOM),
        Extrinsics(rot, rng.normal(size=3) * 0.1),
    )


def test_transfer_matches_independent_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1_000):
        pair = random_pair(rng)
        px = (rng.uniform(200, 440), rng.uniform(160, 320))
        ours = transfer_point(px, pair)
        ref = oracle_transfer(px, pair)
        worst = max(worst, math.hypot(ours[0] - ref[0], ours[1] - ref[1]))
    assert worst <= 1e-3


def test_transfer_composition_round_trip():
    rot = axis_angle_rotation([0.3, 1.0, -0.2], 4.0)
    fwd = identity_pair(rotation=rot)
    back = identity_pair(rotation=rot.T)
    for px in [(200.0, 150.0), (320.0, 240.0), (450.0, 300.0)]:
        mid = transfer_point(px, fwd)
        out = transfer_point(mid, back)
        assert math.hypot(out[0] - px[0], out[1] - px[1]) <= 1e-6


def test_transfer_behind_camera():
    pair = identity_pair(rotation=axis_angle_rotation([0.0, 1.0, 0.0], 135.0))
    with pytest.raises(BehindCamera):
        transfer_point((320.0, 240.0), pair)


def test_transfer_bbox_identity():
    pair = identity_pair()
    res = transfer_bbox(BBox(100.0, 120.0, 40.0, 30.0), pair)
    assert res.box.x == pytest.approx(100.0, abs=1e-9)
    assert res.box.y == pytest.approx(120.0, abs=1e-9)
    assert res.box.w == pytest.approx(40.0, abs=1e-9)
    assert res.box.h == pytest.approx(30.0, abs=1e-9)
    assert not res.clipped and not res.degenerate


def test_transfer_bbox_in_plane_180_rotation_point_reflects():
    pair = identity_pair(rotation=axis_angle_rotation([0.0, 0.0, 1.0], 180.0))
    res = transfer_bbox(BBox(280.0, 200.0, 40.0, 30.0), pair)
    # reflection through the principal point (320, 240)
    assert res.box.x == pytest.approx(2 * 320 - (280 + 40), abs=1e-9)
    assert res.box.y == pytest.approx(2 * 240 - (200 + 30), abs=1e-9)
    assert res.box.w == pytest.approx(40.0, abs=1e-9)
    assert res.box.h == pytest.approx(30.0, abs=1e-9)


def test_transfer_bbox_clamps_at_right_edge():
    pair = identity_pair(rotation=axis_angle_rotation([0.0, 1.0, 0.0], 3.0))
    box = BBox(600.0, 220.0, 35.0, 30.0)
    corners_out = [transfer_point(c, pair) for c in box.corners]
    res = transfer_bbox(box, pair)
    assert res.clipped
    assert res.box.x + res.box.w == pytest.approx(639.0)  # clamped at width - 1
    assert max(c[0] for c in corners_out) > 639.0
    assert res.box.x == pytest.approx(min(c[0] for c in corners_out))


def test_transfer_bbox_off_sensor():
    pair = identity_pair(rotation=axis_angle_rotation([0.0, 1.0, 0.0], 45.0))
    with pytest.raises(OffSensor):
        transfer_bbox(BBox(630.0, 230.0, 9.0, 9.0), pair)


# --- calibration documents ---


CALIB_DOC = """
# rig calibration
cam_rgb.fx = 520.9
cam_rgb.fy = 521.4
cam_rgb.cx = 325.1
cam_rgb.cy = 249.4
cam_rgb.dist = -0.28 0.07 0.0003 -0.0002
cam_rgb.size = 640 480
cam_dvs.fx = 1066.0
cam_dvs.fy = 1068.2
cam_dvs.cx = 636.2
cam_dvs.cy = 371.1
cam_dvs.dist = -0.09 0.21 -0.001 0.0006
cam_dvs.size = 1280 720
extrinsics.R = 1 0 0 0 1 0 0 0 1
extrinsics.t = 0.021 -0.003 0.0005
"""


def test_load_calibration_well_formed():
    pair = load_calibration(CALIB_DOC)
    assert pair.cam_rgb.intrinsics.fx == 520.9
    assert pair.cam_dvs.distortion.k2 == 0.21
    assert pair.cam_dvs.geometry == SensorGeometry(1280, 720)
    assert np.allclose(pair.extrinsics.rotation, np.eye(3))
    assert pair.extrinsics.translation[0] == 0.021


def test_load_calibration_missing_field():
    doc = "\n".join(l for l in CALIB_DOC.splitlines() if "cam_dvs.fy" not in l)
    with pytest.raises(MissingField):
        load_calibration(doc)


@pytest.mark.parametrize("line,bad", [
    ("cam_rgb.fx = 520.9", "cam_rgb.fx = abc"),
    ("cam_rgb.fx = 520.9", "cam_rgb.fx = -1"),
    ("cam_rgb.dist = -0.28 0.07 0.0003 -0.0002", "cam_rgb.dist = 0 0 0"),
    ("cam_dvs.size = 1280 720", "cam_dvs.size = 0 720"),
    ("cam_dvs.size = 1280 720", "cam_dvs.size = 1280.9 720.5"),
    ("extrinsics.t = 0.021 -0.003 0.0005", "extrinsics.t = nan 0 0"),
    ("# rig calibration", "rig calibration"),
])
def test_load_calibration_rejects_malformed_value(line, bad):
    with pytest.raises(ConfigInvalid):
        load_calibration(CALIB_DOC.replace(line, bad))


def test_load_calibration_rejects_reflection():
    doc = CALIB_DOC.replace("extrinsics.R = 1 0 0 0 1 0 0 0 1",
                            "extrinsics.R = 1 0 0 0 1 0 0 0 -1")
    with pytest.raises(NonOrthonormalRotation):
        load_calibration(doc)


def test_load_calibration_rejects_far_from_orthonormal():
    doc = CALIB_DOC.replace("extrinsics.R = 1 0 0 0 1 0 0 0 1",
                            "extrinsics.R = 1 0.01 0 0 1 0 0 0 1")
    with pytest.raises(NonOrthonormalRotation):
        load_calibration(doc)


def test_load_calibration_reorthonormalizes_tiny_drift():
    r = axis_angle_rotation([0.1, 0.9, 0.2], 12.0)
    noisy = r + np.random.default_rng(4).normal(scale=3e-9, size=(3, 3))
    doc = CALIB_DOC.replace(
        "extrinsics.R = 1 0 0 0 1 0 0 0 1",
        "extrinsics.R = " + " ".join(f"{v:.17g}" for v in noisy.ravel()),
    )
    pair = load_calibration(doc)
    # polar-decomposition oracle: nearest rotation in Frobenius norm
    u, _, vt = np.linalg.svd(noisy)
    assert np.allclose(pair.extrinsics.rotation, u @ vt, atol=1e-12)
    assert np.max(np.abs(pair.extrinsics.rotation.T @ pair.extrinsics.rotation - np.eye(3))) < 1e-9


def test_nearest_rotation_projects_back():
    r = axis_angle_rotation([1.0, 2.0, 3.0], 30.0)
    assert np.allclose(nearest_rotation(r + 1e-8), r, atol=1e-7)


def test_extrinsics_validates_orthonormality():
    with pytest.raises(NonOrthonormalRotation):
        Extrinsics(np.eye(3) * 1.001, np.zeros(3))
