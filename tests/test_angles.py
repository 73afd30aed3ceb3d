"""Angle estimation chain: model closure, solvers, the estimated track."""

import math

import numpy as np
import pytest

import isarpose.angles
from isarpose.angles import (GRID_POINTS, HEAD, LM_TOL, NPOLY, _covs_of,
                             estimate_angles, least_squares,
                             lowpass_aspect_solve, model_covariances,
                             waveband_joint_fit)
from isarpose.bands import chapeau_band_split
from isarpose.moments import moments_series
from isarpose.motion import motion_rows, range_rate_rows, track_rows
from isarpose.ship import AngleTrack, Dwell, Frame, angle_array, ship_moments
from isarpose.simulate import (ScenarioConfig, build_angle_track, make_ship,
                               simulate_degraded, simulate_perfect)
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


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


@pytest.fixture(scope="module")
def recorded_stages(ideal_moments, monkeypatch_module):
    # every least_squares call of one two-candidate grid fit, with its result
    calls = []
    real = isarpose.angles.least_squares

    def record(fun, x0, jac, bounds, x_scale, max_nfev, args=(), **kw):
        res = real(fun, x0, jac, bounds, x_scale, max_nfev, args, **kw)
        calls.append(dict(fun=fun, jac=jac, bounds=bounds, x_scale=x_scale,
                          args=args, res=res))
        return res

    monkeypatch_module.setattr(isarpose.angles, "least_squares", record)
    m = ideal_moments
    waveband_joint_fit(m.t, m.cov_rf, m.d_intrinsic, (11.0, 12.0), PHI0, THETA0)
    return calls


@pytest.mark.parametrize("nl", [1, 2])
def test_analytic_jacobian_matches_central_differences(recorded_stages, nl):
    # stage nl fits nl lines; check the converged points of the first
    # candidate's two seeds, with bsq moved onto its 0.9 upper bound
    stage = recorded_stages[nl - 1]
    fun, args = stage["fun"], stage["args"]
    rows = np.array([0, 1])
    assert len(recorded_stages) == 2 and args[1] == nl
    assert np.all(args[0][rows] == 0)
    x = stage["res"].x[rows].copy()
    x[:, NPOLY] = 0.9
    assert np.all(x[:, NPOLY] == stage["bounds"][1][rows, NPOLY])
    analytic = stage["jac"](x, rows, *args)
    f = fun(x, rows, *args)
    npar = HEAD + 5 * nl
    assert analytic.shape == f.shape + (npar,)
    h = 1e-4 * stage["x_scale"][rows]
    for j in range(npar):
        step = np.zeros_like(x)
        step[:, j] = h[:, j]
        central = (fun(x + step, rows, *args)
                   - fun(x - step, rows, *args)) / (2 * h[:, j, None])
        peak = np.abs(central).max(axis=1, keepdims=True)
        assert np.all(peak > 0)
        assert np.all(np.abs(analytic[..., j] - central) <= 1e-6 * peak), j
    # the 11 s candidate trims 11 samples (half a period) at each end of
    # both the cov_rf and the d block, in the residuals and the Jacobian
    n = f.shape[1] // 2
    for blocks in (f.reshape(2, 2, n, 1), analytic.reshape(2, 2, n, npar)):
        assert np.all(blocks[:, :, :11] == 0.0)
        assert np.all(blocks[:, :, n - 11:] == 0.0)
        assert np.all(np.any(blocks[:, :, 11:n - 11] != 0.0, axis=-1))


def test_grid_fit_is_its_best_lone_candidate(ideal_moments):
    # a grid fit returns, bit for bit, the candidate of least residual that
    # a fit of that candidate alone returns: its track and its state
    m = ideal_moments
    series = (m.t, m.cov_rf, m.d_intrinsic)
    periods = (10.5, 11.5, 12.5)
    track, grid = waveband_joint_fit(*series, periods, PHI0, THETA0)
    alone = [waveband_joint_fit(*series, [p], PHI0, THETA0) for p in periods]
    best_track, best = min(alone, key=lambda fit: fit[1].residual_rms)
    assert len({state.residual_rms for _, state in alone}) == 3
    for name in ("period", "lines", "steady_rate", "bsq_est", "hsq_est",
                 "residual_rms", "converged", "flags"):
        assert getattr(grid, name) == getattr(best, name), name
    for name in ("phi_hat", "theta_hat", "phi_mean"):
        assert np.array_equal(getattr(grid, name), getattr(best, name)), name
    assert np.array_equal(track.samples, best_track.samples)



def test_candidates_that_do_not_fit_three_times_are_skipped(ideal_moments):
    # the 60 s dwell holds three 12 s periods but not three 25 s ones
    m = ideal_moments
    series = (m.t, m.cov_rf, m.d_intrinsic)
    track, state = waveband_joint_fit(*series, (12.0, 25.0), PHI0, THETA0)
    lone_track, lone = waveband_joint_fit(*series, [12.0], PHI0, THETA0)
    assert state.residual_rms == lone.residual_rms
    assert np.array_equal(track.samples, lone_track.samples)
    with pytest.raises(ValueError, match="no candidate period"):
        waveband_joint_fit(*series, (25.0, 30.0), PHI0, THETA0)


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
        phi0, P = np.deg2rad(40.0), 0.97
        rate = 1e-3
        phi_m = rate * (t - tbar)
        cp2 = math.cos(phi0) ** 2
        lhs = P * math.tan(phi0) * rate + (P / cp2) * phi_m * rate
        low = lowpass_aspect_solve(t, lhs, phi0, P)
        assert np.allclose(low.phi_mean, phi0 + phi_m, atol=2e-5)
        assert low.rate.mean() == pytest.approx(rate, rel=0.05)
        assert not low.flags

    def test_negative_discriminant_clamped_and_flagged(self):
        t = 0.5 * np.arange(120)
        low = lowpass_aspect_solve(t, np.full(120, -0.05), np.deg2rad(40.0),
                                   0.97)
        assert low.flags == ("lowpass discriminant clamped",)

    def test_aspect_unobservable_near_zero_mean(self):
        t = 0.5 * np.arange(120)
        with pytest.raises(ValueError):
            lowpass_aspect_solve(t, np.zeros(120), 0.0, 0.97)


class TestEstimateAngles:
    def test_converges_on_two_line_scene(self, ideal_fit, ideal_moments):
        track, state = ideal_fit
        assert state.converged
        assert not state.flags
        # either true line is a legitimate period; the grid refines nearby
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
        # the mean of the slow aspect's rate with the fit's cubic correction,
        # as phi_mean and the track carry it; the slow band's rate alone
        # reads 0.2903 deg/s on this scene
        assert ideal_fit[1].steady_rate == pytest.approx(np.deg2rad(0.3),
                                                         rel=0.01)

    def test_jittered_frame_times_pass_through(self, ideal_dwell):
        # the dwell takes a frame 0.9 ns off its slot (its tolerance is
        # 1e-9 s), so the track built on those times must take it too
        frames = list(ideal_dwell.frames)
        fr = frames[1]
        frames[1] = Frame(index=fr.index, t=fr.t + 0.9e-9,
                          integration_time=fr.integration_time,
                          reports=fr.reports)
        dwell = Dwell(tuple(frames), phi0=ideal_dwell.phi0,
                      theta0=ideal_dwell.theta0,
                      range_resolution=ideal_dwell.range_resolution,
                      frame_interval=ideal_dwell.frame_interval)
        track, state = estimate_angles(moments_series(dwell), PHI0, THETA0)
        assert track.samples.t[1] == fr.t + 0.9e-9
        assert state.converged

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
        dwell = simulate_perfect(ship, build_angle_track(cfg), cfg)
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
        dwell = simulate_perfect(ship, build_angle_track(cfg), cfg)
        track, state = estimate_angles(moments_series(dwell), PHI0, THETA0)
        assert "no wave solution" in state.flags
        assert np.allclose(track.samples.theta, THETA0)
        assert state.steady_rate == pytest.approx(np.deg2rad(0.3), rel=0.1)
        # with no fit, the steady rate is the mean of the track's own rate
        assert state.steady_rate == np.mean(track.samples.phi_dot)


def _wave_corr(t, truth, est, period):
    # the wave-band rate correlation of the benchmark's accuracy metrics
    wa = chapeau_band_split(t, truth, period).wave
    wb = chapeau_band_split(t, est, period).wave
    return float(np.corrcoef(wa, wb)[0, 1])


def _canonical(seed, duration=60.0, rate_dps=0.3, n_scatterers=24):
    # the benchmark's canonical scene with its report noise: (ship, true
    # track, moments); 300 s at 0.02 deg/s with 50 scatterers is its long one
    cfg = ScenarioConfig(
        duration=duration, frame_interval=0.5, integration_time=0.5,
        phi0=PHI0, theta0=THETA0, steady_aspect_rate=np.deg2rad(rate_dps),
        aspect_osc=(np.deg2rad(1.0), 12.0), tilt_osc=(np.deg2rad(1.0), 10.0),
        noise=(0.2, 0.03, 0.02), seed=seed)
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
    # the slow correction leaves the mean aspect at phi0: a level shift of
    # 0.03 deg moves the length estimate by about 5 cm
    assert np.mean(state.phi_mean) == pytest.approx(PHI0, abs=1e-12)


def test_long_dwell_keeps_the_tilt_line_on_tilt():
    # on this draw the cheaper stage-1 assignment puts the 12 s line on
    # tilt-like shape ratios (bsq 0.54); grown from it alone, the two-line
    # fit ended on the bsq bound with the aspect rate anti-correlated
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


def test_second_line_joins_both_stage1_fits(monkeypatch):
    # stage 2 grows each candidate's two stage-1 fits, each with both
    # assignment seeds of the second line: four starts a candidate
    _, _, mom = _canonical(11)
    real = isarpose.angles.least_squares
    stages = []

    def record(fun, x0, jac, bounds, x_scale, max_nfev, args=(), **kw):
        res = real(fun, x0, jac, bounds, x_scale, max_nfev, args, **kw)
        stages.append((np.array(x0), args[0], res, bounds))
        return res

    monkeypatch.setattr(isarpose.angles, "least_squares", record)
    estimate_angles(mom, PHI0, THETA0)
    (_, cand1, one, _), (x0, cand2, _, (lb, ub)) = stages
    assert np.array_equal(cand2, np.repeat(np.unique(cand2), 4))
    for g in np.unique(cand2):
        starts = x0[cand2 == g]
        for b in (0, 1):
            base = one.x[2 * g + b]
            for x in starts[2 * b:2 * b + 2]:
                # the whole one-line fit heads the two-line start
                assert np.array_equal(x[:HEAD + 5], base)
    # each line frequency keeps to a band about its own start
    band = 2 * np.pi * 0.75 / (mom.t[-1] - mom.t[0])
    w0 = x0[:, HEAD + 4::5]
    assert w0.shape == (len(cand2), 2)
    assert np.array_equal(lb[:, HEAD + 4::5], w0 - band)
    assert np.array_equal(ub[:, HEAD + 4::5], w0 + band)


def test_longest_candidate_stops_on_its_frequency_bound(monkeypatch):
    # both stage-1 starts of the longest grid period end on their line
    # frequency's upper bound and stop there (status 4), within as many
    # residual calls as the other starts; held but still fitted, their free
    # parameters crept on for 50 and 42 calls
    _, _, mom = _canonical(11)
    real = isarpose.angles.least_squares
    stages = []

    def counted(fun, x0, jac, bounds, x_scale, max_nfev, args=(), **kw):
        calls = np.zeros(len(x0), dtype=int)

        def fun_counted(x, rows, *a):
            calls[rows] += 1
            return fun(x, rows, *a)

        res = real(fun_counted, x0, jac, bounds, x_scale, max_nfev, args, **kw)
        stages.append((args[0], calls, res, bounds))
        return res

    monkeypatch.setattr(isarpose.angles, "least_squares", counted)
    estimate_angles(mom, PHI0, THETA0)
    cand, _, res, (_, ub) = stages[0]
    last = cand == GRID_POINTS - 1
    assert last.sum() == 2
    assert np.all(res.x[last, HEAD + 4] == ub[last, HEAD + 4])
    assert np.all(res.status[last] == 4)
    for cand, calls, res, _ in stages:
        last = cand == GRID_POINTS - 1
        assert np.all(res.status[last] > 0)
        assert np.all(calls[last] <= 40), calls[last]


def test_band_split_runs_once_per_candidate_on_cov_rf(monkeypatch):
    # the fit scores the raw cov_rf and d series, so only cov_rf is split:
    # once per fitted candidate, for its slow aspect and its line seeds.
    # Frames 40-42 are invalid, so the split sees their bridged values
    _, _, mom = _canonical(11)
    mom = mom.copy()
    mom.valid[40:43] = False
    bad = ~mom.valid
    bridged = mom.cov_rf.copy()
    bridged[bad] = np.interp(mom.t[bad], mom.t[~bad], mom.cov_rf[~bad])
    real_split = isarpose.angles.chapeau_band_split
    real_lsq = isarpose.angles.least_squares
    splits, stages = [], []

    def split(t, y, period):
        splits.append((np.array(y), period))
        return real_split(t, y, period)

    def lsq(fun, x0, jac, bounds, x_scale, max_nfev, args=(), **kw):
        stages.append(args[0])
        return real_lsq(fun, x0, jac, bounds, x_scale, max_nfev, args, **kw)

    monkeypatch.setattr(isarpose.angles, "chapeau_band_split", split)
    monkeypatch.setattr(isarpose.angles, "least_squares", lsq)
    estimate_angles(mom, PHI0, THETA0)
    fitted = np.unique(stages[0])
    assert len(fitted) == GRID_POINTS
    assert len(splits) == len(fitted)
    for y, _ in splits:
        assert np.array_equal(y, bridged)
    assert np.all(np.diff([period for _, period in splits]) > 0)
