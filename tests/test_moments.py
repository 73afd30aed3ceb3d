"""Scaled frame covariances, the focus regression, derivative helper."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isarpose.moments import (EPS_VAR, MOMENT_DTYPE, moments_series,
                              time_derivative)
from isarpose.ship import report_array
from isarpose.simulate import (ScenarioConfig, build_angle_track, make_ship,
                               simulate_degraded)
from tests.conftest import frame_reports, one_frame_dwell, with_frames

_finite = st.floats(min_value=-100.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False)


def _frame(r, f, a, snr=None):
    return report_array(0.25, 20.0 if snr is None else snr, r, f, a)


def _record(reports, weighting="uniform", report_sigmas=None):
    """The moments record of a one-frame dwell of the reports at t = 0.25 s,
    not debiased unless given report sigmas."""
    return moments_series(one_frame_dwell(reports, report_sigmas),
                          weighting)[0]


def test_uniform_moments_match_covariance_oracle():
    r = [0.0, 10.0, 4.0, -2.0, 7.5]
    f = [1.0, -3.0, 2.0, 0.0, -1.5]
    a = [0.5, 1.0, -2.0, 0.3, 0.9]
    c = np.cov(np.array([r, f, a]), bias=True)
    mom = _record(_frame(r, f, a))
    assert mom.valid
    assert mom.n_targets == 5
    assert mom.cov_rf == pytest.approx(c[0, 1] / c[0, 0], rel=1e-12)
    assert mom.cov_ff == pytest.approx(c[1, 1] / c[0, 0], rel=1e-12)
    assert mom.cov_ra == pytest.approx(c[0, 2] / c[0, 0], rel=1e-12)
    assert mom.cov_fa == pytest.approx(c[1, 2] / c[0, 0], rel=1e-12)
    assert mom.crf == pytest.approx(c[0, 1] / np.sqrt(c[0, 0] * c[1, 1]),
                                    rel=1e-12)
    assert mom.d_intrinsic == pytest.approx(
        (c[1, 1] - c[0, 1] ** 2 / c[0, 0]) / c[0, 0], rel=1e-12)
    assert mom.r_var == pytest.approx(c[0, 0], rel=1e-12)
    assert (mom.r_min, mom.r_max) == (-2.0, 10.0)


def test_snr_weighting_matches_weighted_oracle():
    r = [0.0, 10.0, 4.0, -2.0]
    f = [1.0, -3.0, 2.0, 0.0]
    a = [0.5, 1.0, -2.0, 0.3]
    snr = [20.0, 26.0, 14.0, 23.0]
    w = 10.0 ** (np.array(snr) / 10.0)
    w = w / w.sum()
    rc = np.array(r) - w @ r
    fc = np.array(f) - w @ f
    rr = w @ rc ** 2
    mom = _record(_frame(r, f, a, snr=snr), "snr")
    assert mom.cov_rf == pytest.approx((w @ (rc * fc)) / rr, rel=1e-12)
    assert mom.cov_ff == pytest.approx((w @ fc ** 2) / rr, rel=1e-12)


def test_unknown_weighting_rejected():
    with pytest.raises(ValueError):
        _record(_frame([0, 1, 2], [0, 1, 2], [0, 1, 2]), "magic")


def test_underpopulated_or_spreadless_frames_invalid():
    assert not _record(_frame([1.0, 2.0], [0.0, 0.0], [0.0, 0.0])).valid
    same_r = _record(_frame([3.0] * 4, [0.0, 1.0, 2.0, 3.0], [0.0] * 4))
    assert not same_r.valid
    assert same_r.cov_rf == 0.0


@pytest.mark.parametrize("weighting", ["uniform", "snr"])
def test_debiased_moments_remove_the_noise_floor(weighting):
    # <rr> and <ff> lose sigma^2 (1 - sum w^2) each; every other moment is
    # divided by the debiased <rr>
    snr = [20.0, 26.0, 14.0, 23.0, 18.0]
    frame = _frame([0.0, 10.0, 4.0, -2.0, 7.5], [1.0, -3.0, 2.0, 0.0, -1.5],
                   [0.5, 1.0, -2.0, 0.3, 0.9], snr=snr)
    w = (np.ones(5) if weighting == "uniform"
         else 10.0 ** (np.array(snr) / 10.0))
    w = w / w.sum()
    sig = (0.5, 0.2, 0.1)
    dwell = one_frame_dwell(frame)
    raw = moments_series(dwell, weighting)[0]
    mom = moments_series(dataclasses.replace(dwell, report_sigmas=sig),
                         weighting)[0]
    floor = 1.0 - w @ w
    rr = raw.r_var - sig[0] ** 2 * floor
    ff = raw.cov_ff * raw.r_var - sig[1] ** 2 * floor
    assert mom.valid
    assert mom.r_var == pytest.approx(rr, rel=1e-12)
    assert mom.cov_ff == pytest.approx(ff / rr, rel=1e-12)
    for name in ("cov_rf", "cov_ra", "cov_fa"):
        assert mom[name] == pytest.approx(raw[name] * raw.r_var / rr,
                                          rel=1e-12), name
    assert mom.d_intrinsic == pytest.approx(ff / rr - mom.cov_rf ** 2,
                                            rel=1e-12)
    # a dwell built with the sigmas debiases alike
    assert _record(frame, weighting, sig).tobytes() == mom.tobytes()


@pytest.mark.parametrize("weighting", ["uniform", "snr"])
def test_moment_noise_sds_are_the_delta_method(weighting):
    # sd^2 = sigma_r^2 sum (d/d r_i)^2 + sigma_f^2 sum (d/d f_i)^2 of the
    # debiased cov_rf and d, the partials by central differences
    snr = [20.0, 26.0, 14.0, 23.0, 18.0]
    r = np.array([0.0, 10.0, 4.0, -2.0, 7.5])
    f = np.array([1.0, -3.0, 2.0, 0.0, -1.5])
    a = np.array([0.5, 1.0, -2.0, 0.3, 0.9])
    sig = (0.5, 0.2, 0.1)

    def debiased(r, f):
        frame = _frame(r, f, a, snr=snr)
        mom = _record(frame, weighting, sig)
        return np.array([mom.cov_rf, mom.d_intrinsic])

    var = np.zeros(2)
    h = 1e-6
    for col, sigma in ((r, sig[0]), (f, sig[1])):
        for i in range(5):
            col[i] += h
            up = debiased(r, f)
            col[i] -= 2 * h
            down = debiased(r, f)
            col[i] += h
            var += sigma ** 2 * ((up - down) / (2 * h)) ** 2
    mom = _record(_frame(r, f, a, snr=snr), weighting, sig)
    assert mom.sd_rf == pytest.approx(np.sqrt(var[0]), rel=1e-6)
    assert mom.sd_d == pytest.approx(np.sqrt(var[1]), rel=1e-6)
    # with no report sigmas there is no noise to propagate
    raw = _record(_frame(r, f, a, snr=snr), weighting)
    assert raw.sd_rf == 0.0 and raw.sd_d == 0.0


def test_moment_noise_sds_match_monte_carlo():
    # 200 report-noise draws of the canonical scene: per valid frame, the
    # mean delta-method sd over the std of the draws, for cov_rf and d
    ship = make_ship(120.0, n_scatterers=24, seed=3)
    draws = []
    for seed in range(200):
        cfg = ScenarioConfig(
            duration=60.0, frame_interval=0.5, integration_time=0.5,
            phi0=np.deg2rad(45.0), theta0=np.deg2rad(30.0),
            steady_aspect_rate=np.deg2rad(0.3),
            aspect_osc=(np.deg2rad(1.0), 12.0),
            tilt_osc=(np.deg2rad(1.0), 10.0),
            noise=(0.2, 0.03, 0.02), seed=seed)
        draws.append(moments_series(
            simulate_degraded(ship, build_angle_track(cfg), cfg)))
    valid = np.all([m.valid for m in draws], axis=0)
    assert valid.sum() > 100
    for value, sd in (("cov_rf", "sd_rf"), ("d_intrinsic", "sd_d")):
        x = np.array([m[value] for m in draws])[:, valid]
        s = np.array([m[sd] for m in draws])[:, valid]
        assert 0.9 <= np.median(s.mean(axis=0) / x.std(axis=0)) <= 1.2, value


@pytest.mark.parametrize("sig,valid", [
    ((1.0, 0.0, 0.0), False),    # <rr> = 2/3 - 1 * 2/3 = 0
    ((0.0, 2.0, 0.0), False),    # <ff> = 8/3 - 4 * 2/3 = 0
    ((1.5, 0.0, 0.0), False),    # pushed below zero
    ((0.99, 1.99, 0.0), True),
])
def test_frames_debiased_to_eps_var_are_invalid(sig, valid):
    # three uniform reports: <rr> = 2/3, <ff> = 8/3, 1 - sum w^2 = 2/3
    frame = _frame([-1.0, 0.0, 1.0], [2.0, -2.0, 0.0], [0.0, 0.0, 0.0])
    mom = _record(frame, report_sigmas=sig)
    assert mom.valid == valid
    if not valid:
        assert mom.r_var == mom.cov_ff == mom.cov_rf == 0.0
    else:
        assert mom.r_var > EPS_VAR and mom.cov_ff > EPS_VAR


def test_debiased_correlation_stays_within_one():
    # a string of pearls, f = 2 r: removing a Doppler floor it never had
    # leaves <rf>^2 > <rr><ff>, so crf would read 1.03 and d goes negative
    frame = _frame([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [0.0, 0.0, 0.0])
    mom = _record(frame, report_sigmas=(0.0, 0.5, 0.0))
    assert mom.crf == 1.0
    assert mom.d_intrinsic == pytest.approx(3.75 - 4.0, rel=1e-12)


@given(st.lists(st.tuples(_finite, _finite, _finite), min_size=3,
                max_size=12))
@settings(deadline=None)
def test_correlation_bounded_and_spread_nonnegative(rows):
    r, f, a = zip(*rows)
    mom = _record(_frame(r, f, a))
    if mom.valid:
        assert abs(mom.crf) <= 1.0 + 1e-9
        assert mom.d_intrinsic >= -1e-9 * max(1.0, abs(mom.cov_ff))


def test_focus_coefficients_recover_exact_plane():
    rng = np.random.default_rng(1)
    r = rng.normal(size=12)
    f = rng.normal(size=12)
    a = 0.4 * r - 1.2 * f
    mom = _record(_frame(r, f, a))
    assert mom.a_r == pytest.approx(0.4, abs=1e-9)
    assert mom.a_f == pytest.approx(-1.2, abs=1e-9)


def test_focus_coefficients_damped_near_collinearity():
    # r and f on one line: the determinant floor keeps the output finite
    r = np.linspace(-4.0, 4.0, 9)
    f = 2.0 * r + 1e-6 * np.cos(np.arange(9))
    a = 0.3 * r
    mom = _record(_frame(r, f, a))
    assert np.isfinite(mom.a_r) and np.isfinite(mom.a_f)
    assert abs(mom.a_r) < 1e3 and abs(mom.a_f) < 1e3


def test_moments_series_preserves_order_and_invalid_slots(ideal_dwell):
    # frame 7 keeps two reports: too few for moments, but it keeps its slot
    frames = [frame_reports(ideal_dwell, k)
              for k in range(len(ideal_dwell.counts))]
    frames[7] = frames[7][:2]
    dwell = with_frames(ideal_dwell, frames)
    mom = moments_series(dwell)
    assert mom.dtype == MOMENT_DTYPE and len(mom) == len(frames)
    assert np.array_equal(mom.t, (np.arange(len(frames)) + 0.5) * 0.5)
    assert np.flatnonzero(~mom.valid).tolist() == [7]
    assert mom.n_targets[7] == 2
    numeric = [n for n in MOMENT_DTYPE.names
               if n not in ("t", "n_targets", "valid")]
    assert all(mom[7][n] == 0.0 for n in numeric)
    assert all(mom[n][6] != 0.0 for n in ("cov_rf", "cov_ff", "r_var"))
    with pytest.raises(ValueError):
        mom.cov_rf[0] = 1.0


class TestTimeDerivative:
    def test_exact_on_quadratic_interior(self):
        t = 0.5 * np.arange(30)
        y = 3.0 * t ** 2 - 2.0 * t + 1.0
        dy = time_derivative(t, y)
        assert np.allclose(dy[1:-1], 6.0 * t[1:-1] - 2.0, rtol=1e-10)

    def test_gaps_use_true_timestamps(self):
        t = 0.5 * np.arange(30)
        y = 3.0 * t ** 2 - 2.0 * t + 1.0
        valid = np.ones(30, dtype=bool)
        valid[[7, 8, 9, 20]] = False
        dy = time_derivative(t, y, valid)
        assert np.all(np.isnan(dy[[7, 8, 9, 20]]))
        inner = np.flatnonzero(valid)[1:-1]
        assert np.allclose(dy[inner], 6.0 * t[inner] - 2.0, rtol=1e-10)

    def test_all_invalid_returns_nan(self):
        t = np.arange(5.0)
        dy = time_derivative(t, np.ones(5), np.zeros(5, dtype=bool))
        assert np.all(np.isnan(dy))
