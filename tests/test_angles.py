"""Angle estimation chain: model closure, solvers, the estimated track."""

import math

import numpy as np
import pytest

import isarpose.angles
from isarpose.acceptance import _ideal_config, _ideal_ship
from isarpose.angles import (HEAD, LM_TOL, LOSS_SCALE, NPOLY, _covs_of,
                             _jacobian, _residual, _times, _wave_problem,
                             estimate_angles, least_squares,
                             lowpass_aspect_solve, model_covariances,
                             waveband_joint_fit)
from isarpose.bands import chapeau_band_split, chapeau_smooth
from isarpose.moments import moments_series
from isarpose.motion import motion_rows, range_rate_rows, track_rows
from isarpose.ship import AngleTrack, angle_array, ship_moments
from isarpose.simulate import (ScenarioConfig, build_angle_track, make_ship,
                               simulate_degraded)
from tests.conftest import PHI0, THETA0


def test_model_covariances_match_quadratic_form():
    k = np.arange(40)
    track = AngleTrack(angle_array(
        0.5 * k, 0.7 + 0.004 * k + 0.02 * np.sin(0.6 * k),
        0.5 + 0.015 * np.cos(0.4 * k),
        phi_dot=0.004 + 0.012 * np.cos(0.6 * k),
        theta_dot=-0.006 * np.sin(0.4 * k),
        phi_ddot=-0.0072 * np.sin(0.6 * k),
        theta_ddot=-0.0024 * np.cos(0.4 * k)))
    bsq, hsq = 0.03, 0.015
    rows = track_rows(track)
    c = np.einsum("nij,j,nkj->nik", rows, np.array([1.0, bsq, hsq]), rows)
    mc = model_covariances(track, bsq, hsq)
    assert np.allclose(mc.cov_rf, c[:, 0, 1] / c[:, 0, 0], rtol=1e-12)
    assert np.allclose(mc.cov_ff, c[:, 1, 1] / c[:, 0, 0], rtol=1e-12)
    assert np.allclose(mc.cov_ra, c[:, 0, 2] / c[:, 0, 0], rtol=1e-12)
    assert np.allclose(mc.cov_fa, c[:, 1, 2] / c[:, 0, 0], rtol=1e-12)
    assert np.allclose(mc.d, mc.cov_ff - mc.cov_rf ** 2, rtol=1e-12)


def test_model_covariances_agree_with_simulated_moments(ideal_track,
                                                        ideal_ship,
                                                        ideal_moments):
    _, bsq, hsq = ship_moments(ideal_ship)
    mc = model_covariances(ideal_track, bsq, hsq)
    data_rf = np.array([m.cov_rf for m in ideal_moments])
    data_ff = np.array([m.cov_ff for m in ideal_moments])
    assert np.allclose(mc.cov_rf, data_rf, atol=1e-12)
    assert np.allclose(mc.cov_ff, data_ff, atol=1e-12)


def test_covariance_kernel_broadcasts_exactly():
    # the lockstep fit evaluates the residuals of many starts in one call;
    # each start must get, bit for bit, the row it would get on its own, so
    # that a batch fit ends where its lone fits would
    rng = np.random.default_rng(4)
    m, n = 7, 50
    ang = [0.7 + 0.05 * rng.standard_normal((m, n)),
           0.5 + 0.02 * rng.standard_normal((m, n)),
           0.01 * rng.standard_normal((m, n)),
           0.01 * rng.standard_normal((m, n)),
           1e-3 * rng.standard_normal((m, n)),
           1e-3 * rng.standard_normal((m, n))]
    bsq = rng.uniform(0.0, 0.9, (m, 1))
    hsq = rng.uniform(0.0, 2.0, (m, 1))
    rf_rows = _covs_of(range_rate_rows(*ang[:4]), bsq, hsq)
    full = _covs_of(np.moveaxis(motion_rows(*ang), (-2, -1), (0, 1)),
                    bsq, hsq)
    assert len(rf_rows) == 3 and len(full) == 5
    for i in range(m):
        one = _covs_of(range_rate_rows(*(a[i] for a in ang[:4])),
                       bsq[i, 0], hsq[i, 0])
        for stacked, single in zip(rf_rows, one):
            assert np.array_equal(stacked[i], single)
        for stacked, single in zip(full, one):
            assert np.array_equal(stacked[i], single)


def _record_solves(monkeypatch):
    # every least_squares call from here on: its arguments, its result and
    # the residual calls of each start
    solves = []
    real = isarpose.angles.least_squares

    def record(fun, x0, jac, bounds, x_scale, max_nfev, args=(), **kw):
        calls = np.zeros(len(x0), dtype=int)

        def counted(x, rows, *a):
            calls[rows] += 1
            return fun(x, rows, *a)

        res = real(counted, x0, jac, bounds, x_scale, max_nfev, args, **kw)
        solves.append(dict(fun=fun, jac=jac, x0=np.array(x0), bounds=bounds,
                           x_scale=x_scale, args=args, calls=calls, res=res))
        return res

    monkeypatch.setattr(isarpose.angles, "least_squares", record)
    return solves


def _series(m):
    return m.t, np.array([m.cov_rf, m.d_intrinsic])


def _noise_weight(mom):
    # the weights estimate_angles gives a table with report noise: each
    # valid frame 1/(LOSS_SCALE sd), each invalid one 0
    return 1.0 / (LOSS_SCALE * np.where(mom.valid, [mom.sd_rf, mom.sd_d], np.inf))


def test_analytic_jacobian_matches_central_differences():
    # the module-level residual and Jacobian of the noise-weighted fit of a
    # noisy canonical draw with frames 40-42 invalid, at the points
    # least_squares reaches from every start, with bsq moved onto its 0.9
    # bound
    _, _, mom = _canonical(11)
    mom = mom.copy()
    mom.valid[40:43] = False
    t, data = _series(mom)
    x0, bounds, x_scale, args = _wave_problem(
        t, data, _noise_weight(mom), 12.0, PHI0, THETA0)
    assert x0.shape == (4, HEAD + 10)
    rows = np.arange(4)
    x = least_squares(_residual, x0, _jacobian, bounds, x_scale, 400,
                      args=args).x
    x[:, NPOLY] = 0.9
    assert np.all(x[:, NPOLY] == bounds[1][:, NPOLY])
    analytic = _jacobian(x, rows, *args)
    f = _residual(x, rows, *args)
    npar = HEAD + 10
    assert analytic.shape == f.shape + (npar,)
    h = 1e-4 * x_scale
    for j in range(npar):
        step = np.zeros_like(x)
        step[:, j] = h[:, j]
        central = (_residual(x + step, rows, *args)
                   - _residual(x - step, rows, *args)) / (2 * h[:, j, None])
        peak = np.abs(central).max(axis=1, keepdims=True)
        assert np.all(peak > 0)
        assert np.all(np.abs(analytic[..., j] - central) <= 1e-6 * peak), j
    # the invalid frames weigh 0 in both the cov_rf and the d block, so
    # their rows of the residuals and the Jacobian are exactly 0
    n = f.shape[1] // 2
    bad = ~mom.valid
    for blocks in (f.reshape(4, 2, n, 1), analytic.reshape(4, 2, n, npar)):
        assert np.all(blocks[:, :, bad] == 0.0)
        assert np.all(np.any(blocks[:, :, ~bad] != 0.0, axis=-1))


def test_fit_scores_the_track_it_returns(ideal_moments, monkeypatch):
    # the residual of the winning start is, bit for bit, the data less the
    # model covariances of the returned track and shape ratios, weighted:
    # the track once had a builder of its own, 3e-13 off the scored one
    solves = _record_solves(monkeypatch)
    t, data = _series(ideal_moments)
    track, state = waveband_joint_fit(t, *data, 12.0, PHI0, THETA0)
    (solve,) = solves
    x, args = solve["res"].x, solve["args"]
    win = np.flatnonzero((x[:, NPOLY] == state.bsq_est)
                         & (x[:, NPOLY + 1] == state.hsq_est))
    assert len(win) == 1
    assert state.lines == tuple(2 * np.pi / x[win[0], HEAD + 4::5])
    mc = model_covariances(track, state.bsq_est, state.hsq_est)
    want = (data - np.array([mc.cov_rf, mc.d])) * args[2]
    assert np.array_equal(_residual(x[win], win, *args), want.reshape(1, -1))


def test_the_true_track_is_a_point_of_the_model():
    # on the perfect canonical dwell the slow aspect phi0 + 0.3 deg/s u is
    # the cubic (rate, 0, 0) and each true line a sin wt is (0, a, 0, 0, w)
    # on aspect or (0, 0, 0, a, w) on tilt, so the model at the true
    # parameters reproduces the data to rounding
    cfg, ship = _ideal_config(), _ideal_ship()
    t, data = _series(moments_series(simulate_degraded(
        ship, build_angle_track(cfg), cfg)))
    _, bsq, hsq = ship_moments(ship)
    (a_phi, p_phi), (a_theta, p_theta) = cfg.aspect_osc, cfg.tilt_osc
    x = np.array([[cfg.steady_aspect_rate, 0.0, 0.0, bsq, hsq,
                   0.0, a_phi, 0.0, 0.0, 2 * np.pi / p_phi,
                   0.0, 0.0, 0.0, a_theta, 2 * np.pi / p_theta]])
    f = _residual(x, np.arange(1), _times(t), data, np.ones_like(data),
                  cfg.phi0, cfg.theta0).reshape(data.shape)
    assert np.all(np.abs(f).max(axis=1) <= 1e-12 * np.abs(data).max(axis=1))


def test_a_period_that_does_not_fit_three_times_is_rejected(ideal_moments):
    # the 60 s dwell holds three 12 s periods but not three 25 s ones
    m = ideal_moments
    with pytest.raises(ValueError, match="does not fit three times"):
        waveband_joint_fit(m.t, m.cov_rf, m.d_intrinsic, 25.0, PHI0, THETA0)


def _weights_of(monkeypatch, mom):
    # the weight array of the one solve of estimate_angles on mom, and its
    # state
    solves = _record_solves(monkeypatch)
    _, state = estimate_angles(mom, PHI0, THETA0)
    (solve,) = solves
    return solve["args"][2], state


def test_each_frame_weighs_by_its_own_moment_noise(monkeypatch):
    # valid frames weigh 1/(LOSS_SCALE sd), invalid ones 0, with no trim at
    # the ends; the residual RMS is in noise units, about 1 on a clean fit
    _, _, mom = _canonical(11)
    mom = mom.copy()
    mom.valid[40:43] = False
    weight, state = _weights_of(monkeypatch, mom)
    assert state.weight_source == "report noise"
    assert np.array_equal(weight, _noise_weight(mom))
    assert np.all(weight[:, mom.valid] > 0)
    assert state.converged
    assert 0.7 <= state.residual_rms <= 1.2


def test_a_table_without_moment_noise_weighs_by_series_spread(monkeypatch):
    # all-zero sds, as a dwell without report sigmas gives: each series
    # weighs 1/its std over the window trimmed half a seed period at each
    # end, 0 outside it
    _, _, mom = _canonical(11)
    mom = mom.copy()
    mom.sd_rf = 0.0
    mom.sd_d = 0.0
    seed = isarpose.angles.dominant_wave_period(mom.t, mom.cov_rf)
    weight, state = _weights_of(monkeypatch, mom)
    assert state.weight_source == "series spread"
    trim = int(round(0.5 * seed / 0.5))   # frames 0.5 s apart
    _, data = _series(mom)
    inner = slice(trim, len(mom) - trim)
    want = np.zeros_like(data)
    want[0, inner] = 1.0 / np.std(data[0, inner])
    want[1, inner] = 1.0 / np.std(data[1, inner])
    assert np.array_equal(weight, want)


def _one(fn):
    # a function of one point as least_squares calls it for a batch of one:
    # (1, npar) points in, a fresh array with a leading axis of 1 out
    return lambda x, rows: np.array(fn(x[0]))[None]


class TestLeastSquares:
    def test_linear_problem_reaches_lstsq_solution(self):
        # residuals of ~1e-4 sit deep in the quadratic part of soft_l1, so
        # its minimum is the ordinary least-squares one to ~1e-8 relative;
        # the fit itself stops once the scaled step is under LM_TOL
        rng = np.random.default_rng(7)
        a = rng.standard_normal((60, 4))
        y = a @ np.array([1.5, -2.0, 0.25, 3.0]) \
            + 1e-4 * rng.standard_normal(60)
        ref = np.linalg.lstsq(a, y, rcond=None)[0]
        res = least_squares(_one(lambda x: a @ x - y), np.zeros((1, 4)),
                            jac=_one(lambda x: a),
                            bounds=(np.full(4, -np.inf), np.full(4, np.inf)),
                            x_scale=np.ones(4), max_nfev=100)
        assert res.status[0] > 0
        x = res.x[0]
        assert np.linalg.norm(x - ref) < 10 * LM_TOL * np.linalg.norm(ref)
        f = a @ x - y
        assert res.cost[0] == pytest.approx(np.sum(np.sqrt(1.0 + f * f) - 1.0))

    def test_minimum_outside_box_ends_on_bound(self):
        # unconstrained minimum at (2, -1); the box caps x0 at 1 and leaves
        # x1 free, so the constrained minimum is (1, -1)
        c = np.array([2.0, -1.0])
        res = least_squares(_one(lambda x: 0.1 * (x - c)), np.zeros((1, 2)),
                            jac=_one(lambda x: 0.1 * np.eye(2)),
                            bounds=(np.array([-5.0, -5.0]),
                                    np.array([1.0, 5.0])),
                            x_scale=np.array([1.0, 0.1]), max_nfev=200)
        assert res.status[0] > 0
        assert res.x[0, 0] == 1.0
        assert res.x[0, 1] == pytest.approx(-1.0, abs=1e-5)

    def test_outlier_fit_agrees_with_scipy_soft_l1(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        t = np.linspace(0.0, 4.0, 40)
        y = 2.0 * np.exp(-0.7 * t) + 0.5
        y[13] += 5.0

        def fun(p):
            return p[0] * np.exp(-p[1] * t) + p[2] - y

        def jac(p):
            e = np.exp(-p[1] * t)
            return np.stack([e, -p[0] * t * e, np.ones_like(t)], axis=1)

        x0 = np.array([1.0, 0.3, 0.0])
        lb, ub = np.array([0.0, 0.0, -1.0]), np.array([5.0, 2.0, 1.0])
        xsc = np.array([1.0, 0.1, 0.1])
        ref = scipy_optimize.least_squares(
            fun, x0, jac=jac, bounds=(lb, ub), x_scale=xsc,
            loss="soft_l1", f_scale=1.0, xtol=1e-12, ftol=1e-12, gtol=1e-12)
        res = least_squares(_one(fun), x0[None], jac=_one(jac),
                            bounds=(lb, ub), x_scale=xsc, max_nfev=400)
        assert res.status[0] > 0
        assert np.allclose(res.x[0], ref.x, rtol=0, atol=1e-4)
        assert res.cost[0] == pytest.approx(ref.cost, rel=1e-6)

    def test_held_lower_bound_reaches_constrained_minimum(self):
        # x[2] starts clipped onto its 0.6 lower bound and the cost pulls it
        # below: held there, the fit solves for x[0], x[1] alone and ends
        # at SciPy's constrained minimum in a few calls, where a clipped
        # full step crawls along the bound for over a hundred
        scipy_optimize = pytest.importorskip("scipy.optimize")
        t = np.linspace(0.0, 4.0, 40)
        y = 2.0 * np.exp(-0.7 * t) + 0.5
        calls = []

        def fun(p):
            calls.append(1)
            return p[0] * np.exp(-p[1] * t) + p[2] - y

        def jac(p):
            e = np.exp(-p[1] * t)
            return np.stack([e, -p[0] * t * e, np.ones_like(t)], axis=1)

        x0 = np.array([1.5, 0.5, 0.4])
        lb, ub = np.array([0.0, 0.0, 0.6]), np.array([5.0, 2.0, 1.0])
        xsc = np.array([0.5, 0.2, 0.1])
        ref = scipy_optimize.least_squares(
            fun, np.clip(x0, lb, ub), jac=jac, bounds=(lb, ub), x_scale=xsc,
            loss="soft_l1", f_scale=1.0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        calls.clear()
        res = least_squares(_one(fun), x0[None], jac=_one(jac),
                            bounds=(lb, ub), x_scale=xsc, max_nfev=400)
        assert res.status[0] > 0
        assert len(calls) == res.nfev <= 10
        assert res.x[0, 2] == 0.6
        assert np.allclose(res.x[0], ref.x, rtol=0, atol=1e-5)
        assert res.cost[0] == pytest.approx(ref.cost, rel=1e-8)

    def test_stop_held_variable_ends_its_start(self):
        # the fit above, with x[2] named in stop_held: a start stops with
        # status 4 on the first round x[2] is held, before any trial step;
        # a start that never holds it fits on
        t = np.linspace(0.0, 4.0, 40)
        y = 2.0 * np.exp(-0.7 * t) + 0.5

        def fun(p):
            return p[:, :1] * np.exp(-p[:, 1:2] * t) + p[:, 2:] - y

        def jac(p):
            e = np.exp(-p[:, 1:2] * t)
            return np.stack([e, -p[:, :1] * t * e, np.ones_like(e)], axis=-1)

        x0 = np.array([[1.5, 0.5, 0.4], [1.5, 0.5, 0.4]])
        # the second start's box holds the minimum at x[2] = 0.5
        lb = np.array([[0.0, 0.0, 0.6], [0.0, 0.0, 0.0]])
        ub = np.array([5.0, 2.0, 1.0])
        xsc = np.array([0.5, 0.2, 0.1])
        res = least_squares(lambda x, rows: fun(x), x0,
                            lambda x, rows: jac(x), (lb, ub), xsc, 400,
                            stop_held=[False, False, True])
        assert res.status[0] == 4
        assert res.x[0].tolist() == [1.5, 0.5, 0.6]
        assert res.status[1] in (2, 3)
        assert np.allclose(res.x[1], [2.0, 0.7, 0.5], atol=1e-6)

    def test_batch_matches_lone_starts_bit_for_bit(self):
        # each start of a batch ends where it ends alone, whatever its
        # neighbours do: start 0 stops on the cost test (noisy data), 1 on
        # the step test (exact data, zero cost), 2 on the budget; 3 has its
        # own bounds and x_scale, runs onto its x[2] >= 0.6 lower bound,
        # is held there and stops on the cost test
        t = np.linspace(0.0, 4.0, 40)
        clean = 2.0 * np.exp(-0.7 * t) + 0.5
        noise = 0.05 * np.random.default_rng(5).standard_normal(40)
        ys = np.array([clean + noise, clean, clean - noise, clean])

        def fun_of(y, calls):
            def fun(x, rows):
                calls[rows] += 1
                return (x[:, 0, None] * np.exp(-x[:, 1, None] * t)
                        + x[:, 2, None] - y[rows])
            return fun

        def jac(x, rows):
            e = np.exp(-x[:, 1, None] * t)
            return np.stack([e, -x[:, 0, None] * t * e, np.ones_like(e)],
                            axis=-1)

        x0 = np.array([[1.0, 0.3, 0.0], [1.0, 0.3, 0.0], [30.0, 5.0, -3.0],
                       [1.5, 0.5, 0.9]])
        lb = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, -1.0], [0.0, 0.0, -5.0],
                       [0.0, 0.0, 0.6]])
        ub = np.array([[5.0, 2.0, 1.0], [5.0, 2.0, 1.0], [50.0, 9.0, 5.0],
                       [5.0, 2.0, 1.0]])
        xsc = np.array([[1.0, 0.1, 0.1], [1.0, 0.1, 0.1], [10.0, 1.0, 1.0],
                        [0.5, 0.2, 0.1]])
        calls = np.zeros(4, dtype=int)
        batch = least_squares(fun_of(ys, calls), x0, jac, (lb, ub), xsc, 12)
        assert batch.status.tolist() == [2, 3, 0, 2]
        assert calls.tolist() == [9, 9, 12, 9]
        assert batch.x[3, 2] == 0.6
        nfev = njev = 0
        for i in range(4):
            one = slice(i, i + 1)
            alone = least_squares(fun_of(ys[one], np.zeros(1, dtype=int)),
                                  x0[one], jac, (lb[one], ub[one]), xsc[one],
                                  12)
            assert np.array_equal(alone.x[0], batch.x[i])
            assert alone.cost[0] == batch.cost[i]
            assert alone.status[0] == batch.status[i]
            nfev, njev = nfev + alone.nfev, njev + alone.njev
        assert (batch.nfev, batch.njev) == (nfev, njev)

    def test_budget_exhaustion_reports_status_zero(self):
        res = least_squares(_one(lambda x: np.exp(x) - 3.0), np.array([[5.0]]),
                            jac=_one(lambda x: np.exp(x)[:, None]),
                            bounds=(np.array([-np.inf]), np.array([np.inf])),
                            x_scale=np.ones(1), max_nfev=2)
        assert res.status[0] == 0
        assert res.nfev == 2


class TestLowpassAspect:
    def test_recovers_linear_drift(self):
        t = 0.5 * np.arange(120)
        tbar = t.mean()
        phi0 = np.deg2rad(40.0)
        rate = 1e-3
        phi_m = rate * (t - tbar)
        cp2 = math.cos(phi0) ** 2
        lhs = math.tan(phi0) * rate + phi_m * rate / cp2
        phi_mean = lowpass_aspect_solve(t, lhs, phi0)
        assert np.allclose(phi_mean, phi0 + phi_m, atol=2e-5)
        assert np.polyfit(t, phi_mean, 1)[0] == pytest.approx(rate, rel=0.05)

    def test_negative_discriminant_clamped_to_a_finite_aspect(self):
        # a low band this negative drives the late frames' discriminant
        # below 0; clamped to 0, each such frame sits at the parabola's
        # vertex instead of taking a NaN root
        t = 0.5 * np.arange(120)
        phi0 = np.deg2rad(40.0)
        phi_mean = lowpass_aspect_solve(t, np.full(120, -0.05), phi0)
        assert phi_mean.shape == t.shape
        assert np.isfinite(phi_mean).all()
        assert np.mean(phi_mean) == pytest.approx(phi0, abs=1e-12)

    def test_aspect_unobservable_near_zero_mean(self):
        t = 0.5 * np.arange(120)
        with pytest.raises(ValueError):
            lowpass_aspect_solve(t, np.zeros(120), 0.0)


class TestEstimateAngles:
    def test_converges_on_two_line_scene(self, ideal_fit, ideal_moments):
        track, state = ideal_fit
        assert state.converged
        assert not state.flags
        # either true line is a legitimate period; the fit refines nearby
        assert min(abs(state.period - 10.0), abs(state.period - 12.0)) < 0.5
        assert np.array_equal(track.samples.t, ideal_moments.t)

    def test_recovers_rate_histories(self, ideal_fit, ideal_track):
        est, true = ideal_fit[0].samples, ideal_track.samples
        assert np.corrcoef(true.phi_dot, est.phi_dot)[0, 1] > 0.999
        assert np.corrcoef(true.theta_dot, est.theta_dot)[0, 1] > 0.999

    def test_recovers_aspect_history(self, ideal_fit, ideal_track):
        err = ideal_fit[0].samples.phi - ideal_track.samples.phi
        assert np.sqrt(np.mean(err ** 2)) < np.deg2rad(0.1)

    def test_steady_rate_includes_fitted_slow_correction(self, ideal_fit):
        # the mean rate of the fit's slow cubic, as phi_mean and the track
        # carry it; the low-pass cubic that seeds it reads 0.2906 deg/s on
        # this scene
        assert ideal_fit[1].steady_rate == pytest.approx(np.deg2rad(0.3),
                                                         rel=0.01)

    def test_track_is_the_states_slow_part_plus_its_lines(self, ideal_fit):
        # the track and the state are read off one parameter vector
        track, state = ideal_fit
        lim = isarpose.angles.ANGLE_LIMIT
        assert len(state.lines) == 2
        assert np.array_equal(track.samples.phi, np.clip(
            state.phi_mean + state.phi_hat, -lim, lim))
        assert np.array_equal(track.samples.theta, np.clip(
            THETA0 + state.theta_hat, -lim, lim))

    def test_recovers_shape_ratios(self, ideal_fit, ideal_ship):
        _, state = ideal_fit
        _, bsq, hsq = ship_moments(ideal_ship)
        assert state.bsq_est == pytest.approx(bsq, rel=0.3)
        assert state.hsq_est == pytest.approx(hsq, rel=0.3)

    def test_supplied_period_skips_spectral_search(self, ideal_moments):
        # the converged line may settle on either true period; what the
        # argument pins is the seed, not the refined value
        _, state = estimate_angles(ideal_moments, PHI0, THETA0, period=10.0)
        assert state.converged
        assert min(abs(state.period - 10.0), abs(state.period - 12.0)) < 0.5

    def test_supplied_period_rescues_lineless_series(self):
        cfg = ScenarioConfig(
            duration=60.0, frame_interval=0.5, integration_time=0.5,
            phi0=PHI0, theta0=THETA0,
            steady_aspect_rate=np.deg2rad(0.3),
            noise=(0.0, 0.0, 0.0), seed=2)
        ship = make_ship(120.0)
        dwell = simulate_degraded(ship, build_angle_track(cfg), cfg)
        mom = moments_series(dwell)
        # no oscillation anywhere: the search path falls back
        _, free = estimate_angles(mom, PHI0, THETA0)
        assert "no wave solution" in free.flags
        # a supplied period keeps the full chain in play
        _, forced = estimate_angles(mom, PHI0, THETA0, period=10.0)
        assert "no wave solution" not in forced.flags
        assert forced.period > 0.0

    def test_too_few_valid_frames_rejected(self, ideal_moments):
        with pytest.raises(ValueError):
            estimate_angles(ideal_moments[:5], PHI0, THETA0)

    def test_calm_water_falls_back_to_slow_solution(self):
        cfg = ScenarioConfig(
            duration=30.0, frame_interval=0.5, integration_time=0.5,
            phi0=PHI0, theta0=THETA0,
            steady_aspect_rate=np.deg2rad(0.3),
            noise=(0.0, 0.0, 0.0), seed=1)
        ship = make_ship(120.0)
        dwell = simulate_degraded(ship, build_angle_track(cfg), cfg)
        track, state = estimate_angles(moments_series(dwell), PHI0, THETA0)
        assert "no wave solution" in state.flags
        assert np.allclose(track.samples.theta, THETA0)
        assert state.steady_rate == pytest.approx(np.deg2rad(0.3), rel=0.1)
        # with no fit, the steady rate is the mean of the track's own rate
        assert state.steady_rate == np.mean(track.samples.phi_dot)
        # the slow-only result is the fit's with the low-pass cubic and no line
        assert state.period == 0.0 and state.lines == ()
        assert not state.phi_hat.any() and not state.theta_hat.any()
        assert state.bsq_est == 0.0 and state.hsq_est == 0.0
        assert np.array_equal(track.samples.phi, state.phi_mean)


def _low_cubic(t, phi_mean):
    # the slow aspect's basis (u, u^2 less its mean, u^3) and the
    # least-squares cubic on it of a low-pass slow aspect about PHI0
    u = t - t.mean()
    basis = np.stack([u, u ** 2 - np.mean(u ** 2), u ** 3], axis=-1)
    return basis, np.linalg.lstsq(basis, phi_mean - PHI0, rcond=None)[0]


def test_a_dwell_shorter_than_three_periods_takes_the_slow_only_path():
    # canonical cut to 20 s: no wave fit runs, so no weights either; the
    # slow aspect is phi0 plus the least-squares cubic of the low-pass
    # solution of the smoothed -cov_rf
    cfg = ScenarioConfig(
        duration=20.0, frame_interval=0.5, integration_time=0.5,
        phi0=PHI0, theta0=THETA0, steady_aspect_rate=np.deg2rad(0.3),
        aspect_osc=(np.deg2rad(1.0), 12.0), tilt_osc=(np.deg2rad(1.0), 10.0),
        noise=(0.2, 0.03, 0.02), seed=11)
    ship = make_ship(120.0, n_scatterers=24, seed=3)
    mom = moments_series(simulate_degraded(ship, build_angle_track(cfg), cfg))
    assert mom.valid.all() and np.all(mom.sd_rf > 0)
    _, state = estimate_angles(mom, PHI0, THETA0)
    assert "no wave solution" in state.flags
    assert state.weight_source == "none"
    t = mom.t
    low = lowpass_aspect_solve(
        t, chapeau_smooth(t, -mom.cov_rf, (t[-1] - t[0]) / 5.0), PHI0)
    basis, cubic = _low_cubic(t, low)
    assert np.allclose(state.phi_mean, PHI0 + basis @ cubic, rtol=0.0,
                       atol=1e-15)
    assert not np.array_equal(state.phi_mean, low)


def _wave_corr(t, truth, est, period):
    # the wave-band rate correlation of the benchmark's accuracy metrics
    wa = chapeau_band_split(t, truth, period).wave
    wb = chapeau_band_split(t, est, period).wave
    return float(np.corrcoef(wa, wb)[0, 1])


def _canonical(seed, duration=60.0, rate_dps=0.3, n_scatterers=24,
               noise_scale=1.0, amplitudes_deg=(1.0, 1.0)):
    # the benchmark's canonical scene with its report noise times
    # noise_scale and its 12 s aspect and 10 s tilt lines of amplitudes_deg:
    # (ship, true track, moments); 300 s at 0.02 deg/s with 50 scatterers
    # is its long one
    aspect_deg, tilt_deg = amplitudes_deg
    cfg = ScenarioConfig(
        duration=duration, frame_interval=0.5, integration_time=0.5,
        phi0=PHI0, theta0=THETA0, steady_aspect_rate=np.deg2rad(rate_dps),
        aspect_osc=(np.deg2rad(aspect_deg), 12.0),
        tilt_osc=(np.deg2rad(tilt_deg), 10.0),
        noise=tuple(noise_scale * s for s in (0.2, 0.03, 0.02)), seed=seed)
    ship = make_ship(120.0, n_scatterers=n_scatterers, seed=3)
    truth = build_angle_track(cfg)
    return ship, truth, moments_series(simulate_degraded(ship, truth, cfg))


@pytest.mark.parametrize("seed", [11, 2011, 3011])
def test_recovers_noisy_canonical_track(seed):
    # on these draws an earlier solver settled with the tilt line's sign
    # flipped
    ship, truth, mom = _canonical(seed)
    track, state = estimate_angles(mom, PHI0, THETA0)
    assert state.converged
    for name in ("phi_dot", "theta_dot"):
        assert _wave_corr(truth.samples.t, truth.samples[name],
                          track.samples[name], state.period) >= 0.9, name
    _, bsq, hsq = ship_moments(ship)
    assert abs(state.bsq_est - bsq) <= 0.01
    assert abs(state.hsq_est - hsq) <= 0.01
    # the slow cubic leaves the mean aspect at phi0: a level shift of
    # 0.03 deg moves the length estimate by about 5 cm
    assert np.mean(state.phi_mean) == pytest.approx(PHI0, abs=1e-12)


def test_long_dwell_keeps_the_tilt_line_on_tilt():
    # on this draw the two-stage fit's cheaper one-line assignment put the
    # 12 s line on tilt-like shape ratios (bsq 0.54); a two-line fit grown
    # from it alone ended on the bsq bound with the aspect rate
    # anti-correlated
    ship, truth, mom = _canonical(11, duration=300.0, rate_dps=0.02,
                                  n_scatterers=50)
    track, state = estimate_angles(mom, PHI0, THETA0)
    assert state.converged
    for name in ("phi_dot", "theta_dot"):
        assert _wave_corr(truth.samples.t, truth.samples[name],
                          track.samples[name], state.period) >= 0.99, name
    _, bsq, hsq = ship_moments(ship)
    assert abs(state.bsq_est - bsq) <= 0.01
    assert abs(state.hsq_est - hsq) <= 0.01


def _canonical_solves(monkeypatch, seed, period=None):
    # the fitted period, the recorded solves and the result of
    # estimate_angles on a noisy canonical draw
    _, _, mom = _canonical(seed)
    real_fit = isarpose.angles.waveband_joint_fit
    periods = []

    def fit(t, cov_rf, d, period, *args):
        periods.append(period)
        return real_fit(t, cov_rf, d, period, *args)

    monkeypatch.setattr(isarpose.angles, "waveband_joint_fit", fit)
    solves = _record_solves(monkeypatch)
    return mom, periods, solves, estimate_angles(mom, PHI0, THETA0,
                                                 period=period)


def test_four_starts_in_midpoint_bands(monkeypatch):
    # one solve of four two-line starts: {first line on aspect, on tilt} x
    # {second line on aspect, on tilt}; each line's frequency keeps to a
    # band about its own start, and where two bands overlap they meet at
    # the midpoint of the starts. A given period of 11 s seeds the lines
    # at about 12.7 s and 9.8 s, closer than two bands
    mom, (per,), solves, _ = _canonical_solves(monkeypatch, 11, period=11.0)
    (solve,) = solves
    starts, (lb, ub) = solve["x0"], solve["bounds"]
    assert starts.shape == (4, HEAD + 10)
    band = 2 * np.pi * 0.75 / (mom.t[-1] - mom.t[0])
    # every start's slow aspect is the least-squares cubic of the low-pass
    # solution of the band split's low band, and its ratios are 0.02
    t = mom.t
    _, cubic = _low_cubic(t, lowpass_aspect_solve(
        t, -chapeau_band_split(t, mom.cov_rf, per).low, PHI0))
    assert np.allclose(starts[:, :NPOLY], cubic, rtol=1e-12, atol=0.0)
    assert np.all(starts[:, :HEAD] == starts[0, :HEAD])
    assert np.all(starts[:, NPOLY:HEAD] == 0.02)
    assert starts[0, 0] == pytest.approx(np.deg2rad(0.3), rel=0.1)
    first, second = starts[:, HEAD:HEAD + 5], starts[:, HEAD + 5:]
    # the first line starts within the band about the period's frequency,
    # the same in all four starts; so does the second
    assert abs(first[0, 4] - 2 * np.pi / per) <= band
    assert np.all(first[:, 4] == first[0, 4])
    assert np.all(second[:, 4] == second[0, 4])
    # starts 0, 1 hold the first line on aspect (c = e = 0), 2, 3 on tilt
    # (a = b = 0); starts 0, 2 the second line on aspect, 1, 3 on tilt; a
    # line's seed is the same in both starts that hold it
    for aspect, tilt in ((first[:2], first[2:]), (second[::2], second[1::2])):
        assert np.all(aspect[:, 2:4] == 0.0) and np.all(aspect[:, :2] != 0.0)
        assert np.all(tilt[:, :2] == 0.0) and np.all(tilt[:, 2:4] != 0.0)
        assert np.array_equal(aspect[0], aspect[1])
        assert np.array_equal(tilt[0], tilt[1])
    w0 = starts[:, HEAD + 4::5]
    lo, hi = np.sort(w0[0])
    mid = 0.5 * (lo + hi)
    assert hi - lo < 2 * band
    want_ub = np.where(w0 == lo, mid, w0 + band)
    want_lb = np.where(w0 == hi, mid, w0 - band)
    assert np.allclose(lb[:, HEAD + 4::5], want_lb, rtol=1e-15)
    assert np.allclose(ub[:, HEAD + 4::5], want_ub, rtol=1e-15)


def test_every_start_stops_within_30_residual_calls(monkeypatch):
    # every start converges or stops on a band edge within 30 residual
    # calls (19 at most here); without the midpoint bands the two lines of
    # a grid candidate whose band held no true line drifted together into a
    # beating pair, and some starts took up to 54 calls
    _, _, solves, (_, state) = _canonical_solves(monkeypatch, 11)
    (solve,) = solves
    assert state.converged
    assert np.all(solve["res"].status > 0)
    assert np.all(solve["calls"] <= 30), solve["calls"]


def test_one_solve_fits_every_start_of_a_calm_sea(monkeypatch):
    # with no line in the data the pursuit still seeds a second line, so
    # the fit has its four two-line starts, all fitted by one least_squares
    # call; the pursuit's old amplitude gate found no second line here and
    # fitted two one-line starts apart
    ship = make_ship(120.0, n_scatterers=24, seed=3)
    cfg = ScenarioConfig(
        duration=60.0, frame_interval=0.5, integration_time=0.5,
        phi0=PHI0, theta0=THETA0, steady_aspect_rate=np.deg2rad(0.3),
        noise=(0.2, 0.03, 0.02), seed=2)
    mom = moments_series(simulate_degraded(ship, build_angle_track(cfg), cfg))
    solves = _record_solves(monkeypatch)
    _, state = estimate_angles(mom, PHI0, THETA0, period=10.0)
    (solve,) = solves
    assert solve["x0"].shape == (4, HEAD + 10)
    assert state.lines == pytest.approx((12.397, 14.688), abs=5e-4)
    assert not state.converged


@pytest.mark.parametrize("amplitudes_deg, line_s", [
    ((1.0, 0.0), 12.0), ((0.0, 1.0), 10.0)], ids=["aspect-only", "tilt-only"])
@pytest.mark.parametrize("seed", [11, 23, 1011])
def test_one_line_sea_fits_its_line_first(seed, amplitudes_deg, line_s):
    # a sea with one line still gets two-line starts; the first fitted line
    # lands on the true one and the fit converges
    _, _, mom = _canonical(seed, amplitudes_deg=amplitudes_deg)
    _, state = estimate_angles(mom, PHI0, THETA0)
    assert state.converged
    assert len(state.lines) == 2
    assert abs(state.lines[0] - line_s) <= 0.05


@pytest.mark.parametrize("seed", [34, 1017])
def test_twice_the_noise_picks_a_converged_start(seed):
    # at twice the report noise the cheapest start of seed 34's fit at the
    # seed period stopped on a band edge; picked by cost it won, and the run
    # was flagged as not converged. A converged start wins whatever its
    # cost. Seed 1017 had the worst period error (0.22 s) of the twice-noise
    # sweep under the two-stage fit. Fitted at the seed period alone with
    # weights from the series' spread, not the moment noise, both seeds
    # lose the tilt line (correlation 0.77 and -0.98)
    ship, truth, mom = _canonical(seed, noise_scale=2.0)
    track, state = estimate_angles(mom, PHI0, THETA0)
    assert state.converged
    assert _wave_corr(truth.samples.t, truth.samples.theta_dot,
                      track.samples.theta_dot, state.period) >= 0.95


def test_long_dwell_of_1200_s_keeps_the_tilt_line():
    # a 2,400-frame dwell: with the pursuit run on a stage-1 residual the
    # second line landed beside the 12 s aspect line, not on the 10 s tilt
    # line, and the tilt rate correlation was 0.0001
    ship, truth, mom = _canonical(23, duration=1200.0, rate_dps=0.02,
                                  n_scatterers=50)
    track, state = estimate_angles(mom, PHI0, THETA0)
    assert state.converged
    assert _wave_corr(truth.samples.t, truth.samples.theta_dot,
                      track.samples.theta_dot, state.period) >= 0.99


def test_band_split_runs_once_on_cov_rf(monkeypatch):
    # the fit scores the raw cov_rf and d series, so only cov_rf is split,
    # once, at the seed period, for the slow aspect and the line seeds.
    # Frames 40-42 are invalid, so the split sees their bridged values
    _, _, mom = _canonical(11)
    mom = mom.copy()
    mom.valid[40:43] = False
    bad = ~mom.valid
    bridged = mom.cov_rf.copy()
    bridged[bad] = np.interp(mom.t[bad], mom.t[~bad], mom.cov_rf[~bad])
    real_split = isarpose.angles.chapeau_band_split
    splits = []

    def split(t, y, period):
        splits.append((np.array(y), period))
        return real_split(t, y, period)

    monkeypatch.setattr(isarpose.angles, "chapeau_band_split", split)
    estimate_angles(mom, PHI0, THETA0)
    ((y, period),) = splits
    assert np.array_equal(y, bridged)
    assert period == isarpose.angles.dominant_wave_period(mom.t, bridged)
