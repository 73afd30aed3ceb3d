"""Per-frame inversion, classification, and composite accumulation."""

import dataclasses

import numpy as np
import pytest

from isarpose.acceptance import _invert
from isarpose.moments import moments_series
from isarpose.motion import motion_rows
from isarpose.pose import (CLASS_THRESHOLD, PEARLS_EPS, POSE_DTYPE,
                           THREE_D_BALANCE, FrameClass, classify_frames,
                           compose, invert_frame, motion_matrix, report_noise)
from isarpose.ship import AngleTrack, angle_array, report_array
from isarpose.simulate import (ScenarioConfig, build_angle_track, make_ship,
                               rfa_of, simulate_degraded)
from isarpose.validate import BadFitSeries
from tests.conftest import (LOA, PHI0, THETA0, classify_oracle,
                            frame_reports, make_dwell, one_frame_dwell)


def _reports(rfa, t=0.25, snr=20.0):
    """Reports from (r, f, a) rows."""
    rfa = np.asarray(rfa, dtype=float).reshape(-1, 3)
    return report_array(t, snr, rfa[:, 0], rfa[:, 1], rfa[:, 2])


def _pose(*scores, solved=True):
    """A POSE_DTYPE table of frames with the given (profile, plan, pearls)
    scores and unit noise variances."""
    pose = np.zeros(len(scores), POSE_DTYPE)
    pose["solved"] = solved
    pose["noise_var"] = 1.0
    for name, column in zip(("profile", "plan", "pearls"),
                            np.array(scores, dtype=float).reshape(-1, 3).T):
        pose[name] = column
    return pose


def _one_state(T, t=0.0, phi=PHI0, theta=THETA0, **rates):
    """Motion matrix and scaled condition number of one angle state."""
    m, cond = motion_matrix(AngleTrack(angle_array([t], phi, theta, **rates)), T)
    return m[0], cond[0]


def _invert_one(reports, m, cond, noise, mom=None):
    """invert_frame on a group of one frame, by default under the uniform,
    not debiased moments of its reports: its (1,) pose table and its
    coordinates, None when it is unsolved."""
    if mom is None:
        mom = moments_series(one_frame_dwell(reports))[0]
    pose, xyz = invert_frame(np.asarray(reports)[None], np.asarray(mom)[None],
                             m[None], np.reshape(cond, 1), noise)
    return pose, (xyz[0] if len(xyz) else None)


def _invert_all(dwell, track, T, noise):
    # the pose table under the uniform moments of the reports, not debiased
    m, cond = motion_matrix(track, T)
    mom = moments_series(dataclasses.replace(dwell, report_sigmas=None))
    return _invert(dwell, mom, m, cond, noise)[0]


def _badfit_flags(flagged):
    n = len(flagged)
    flagged = np.asarray(flagged, dtype=bool)
    return BadFitSeries(score=np.zeros(n), n_accel=np.zeros(n),
                        n_spread=np.zeros(n), flagged=flagged, threshold=3.0)


def test_report_noise_sigma_laws():
    sr, sf, sa = report_noise(0.5, 2.0)
    assert sr == 0.25
    assert sf == pytest.approx(0.15)
    assert sa == pytest.approx(0.25)
    # range sigma follows resolution; rate and accel follow 1/T and 1/T^2
    assert report_noise(1.0, 2.0)[0] == 0.5
    assert report_noise(0.5, 1.0)[1] == pytest.approx(2 * sf)
    assert report_noise(0.5, 1.0)[2] == pytest.approx(4 * sa)


class TestMotionMatrix:
    def test_static_geometry_is_singular(self):
        m, cond = _one_state(0.5, phi=0.0, theta=0.0)
        assert np.allclose(m[0], [1.0, 0.0, 0.0])
        assert np.allclose(m[1:], 0.0)
        assert not np.isfinite(cond)

    def test_pure_aspect_rotation_rows(self):
        w = 0.02
        m, _ = _one_state(0.5, phi=0.0, theta=0.0, phi_dot=w)
        assert np.allclose(m[1], [0.0, -w, 0.0], atol=1e-15)
        assert np.allclose(m[2], [-w ** 2, 0.0, 0.0], atol=1e-15)

    def test_rows_reproduce_forward_model(self, ideal_cfg, ideal_ship,
                                          ideal_track):
        samp = ideal_track.samples[37]
        m = motion_matrix(ideal_track, ideal_cfg.integration_time)[0][37]
        xyz = ideal_ship.xyz[:6]
        assert xyz @ m.T == pytest.approx(rfa_of(xyz, samp), rel=0, abs=1e-12)

    def test_condition_number_commensurates_rows(self):
        # without the (1, T, T^2) row scaling a slow two-rotation frame
        # looks hopeless; with it the frame is comfortably invertible
        m, cond = _one_state(2.0, phi_dot=0.005, theta_dot=0.008,
                             phi_ddot=1e-4, theta_ddot=2e-4)
        assert cond < 1e4 < np.linalg.cond(m)

    def test_stack_matches_per_frame_rows_bit_for_bit(self, ideal_fit):
        # the batched stack and condition numbers are, row for row, what a
        # per-frame motion_rows and np.linalg.cond would give
        track = ideal_fit[0]
        T = 0.5
        m, cond = motion_matrix(track, T)
        assert m.shape == (len(track.samples), 3, 3)
        assert cond.shape == (len(track.samples),)
        scale = np.diag([1.0, T, T ** 2])
        for k, s in enumerate(track.samples):
            one = motion_rows(s.phi, s.theta, s.phi_dot, s.theta_dot,
                              s.phi_ddot, s.theta_ddot)
            assert np.array_equal(m[k], one), k
            assert cond[k] == np.linalg.cond(scale @ one), k


class TestInvertFrame:
    def test_round_trip_at_zero_noise(self, ideal_cfg, ideal_ship,
                                      ideal_dwell, ideal_track,
                                      ideal_moments):
        m, cond = motion_matrix(ideal_track, ideal_cfg.integration_time)
        k = int(np.argmin(cond))
        pose, xyz = _invert_one(frame_reports(ideal_dwell, k), m[k], cond[k],
                                (0.25, 0.03, 0.01), ideal_moments[k])
        truth = ideal_ship.xyz - ideal_ship.xyz.mean(axis=0)
        assert pose["solved"][0] and xyz is not None
        assert np.max(np.abs(xyz - truth)) < 1e-9

    def test_noise_variance_propagation_formula(self, ideal_cfg, ideal_dwell,
                                                ideal_track, ideal_moments):
        noise = (0.25, 0.03, 0.01)
        m, cond = motion_matrix(ideal_track, ideal_cfg.integration_time)
        k = int(np.argmin(cond))
        pose, xyz = _invert_one(frame_reports(ideal_dwell, k), m[k], cond[k],
                                noise, ideal_moments[k])
        assert xyz is not None
        minv = np.linalg.inv(m[k])
        expect = (minv ** 2) @ np.array(noise) ** 2
        assert pose["noise_var"][0] == pytest.approx(expect, rel=1e-12)

    def test_underpopulated_frame_invalid(self):
        m, cond = _one_state(0.5, t=0.25, phi_dot=0.01, theta_dot=0.01)
        pose, xyz = _invert_one(_reports([(1.0, 0.0, 0.0)]), m, cond,
                                (0.25, 0.03, 0.01))
        assert xyz is None
        assert pose.tobytes() == np.zeros(1, POSE_DTYPE).tobytes()
        assert classify_frames(pose)[0] == [FrameClass.INVALID]

    def test_ill_conditioned_frame_invalid_without_coordinates(
            self, ideal_dwell, ideal_moments):
        m, cond = _one_state(0.5, t=0.25, theta_dot=1e-9)
        pose, xyz = _invert_one(frame_reports(ideal_dwell, 0), m, cond,
                                (0.25, 0.03, 0.01), ideal_moments[0])
        assert xyz is None
        assert pose.tobytes() == np.zeros(1, POSE_DTYPE).tobytes()
        assert classify_frames(pose)[0] == [FrameClass.INVALID]

    def test_pearls_score_uses_the_given_weighted_moments(self):
        # one loud report pulls the SNR-weighted range/rate correlation far
        # from the uniform one; the score must follow the moments passed in
        reports = _reports([(-10.0, -1.0, 0.1), (-3.0, 0.5, -0.2),
                            (2.0, 0.1, 0.05), (11.0, 0.9, 0.0),
                            (0.5, -0.6, 0.3)],
                           snr=np.array([30.0, 12.0, 12.0, 12.0, 12.0]))
        uniform = moments_series(one_frame_dwell(reports))[0]
        weighted = moments_series(one_frame_dwell(reports), "snr")[0]
        assert abs(weighted.crf - uniform.crf) > 0.1
        m, cond = _one_state(0.5, t=0.25, phi_dot=0.010, theta_dot=0.012,
                             phi_ddot=8e-3, theta_ddot=6e-3)
        for mom in (uniform, weighted):
            pose, xyz = _invert_one(reports, m, cond, (0.25, 0.03, 0.01), mom)
            assert xyz is not None
            assert pose["pearls"][0] == pytest.approx(
                mom.crf ** 2 / (1.0 - mom.crf ** 2 + PEARLS_EPS), rel=1e-15)

    def test_monte_carlo_variance_matches_propagation_at_two_T(
            self, ideal_ship):
        # the propagated (N_X, N_Y, N_Z) must predict the actual scatter of
        # recovered coordinates, and do so at both integration times, which
        # pins the 1/T and 1/T^2 sigma laws rather than just the algebra
        rates = dict(phi_dot=0.010, theta_dot=0.012, phi_ddot=8e-3,
                     theta_ddot=6e-3)
        truth = ideal_ship.xyz
        rng = np.random.default_rng(9)
        for T in (0.5, 1.0):
            m, cond = _one_state(T, **rates)
            noise = report_noise(0.5, T)
            rfa0 = truth @ m.T
            err = []
            for _ in range(400):
                rfa = rfa0 + rng.normal(size=rfa0.shape) * np.array(noise)
                _, xyz = _invert_one(_reports(rfa), m, cond, noise)
                centered = truth - truth.mean(axis=0)
                err.append(xyz - centered)
            meas = np.concatenate(err).var(axis=0)
            pred = _invert_one(_reports(rfa0), m, cond, noise)[0]["noise_var"][0]
            ratios = meas / pred
            assert np.all((ratios > 0.7) & (ratios < 1.4))


class TestClassification:
    @pytest.mark.parametrize("scores,expected", [
        ((9.0, 1.0, 0.0), FrameClass.PROFILE),
        ((1.0, 9.0, 0.0), FrameClass.PLAN),
        ((1.0, 2.0, 7.0), FrameClass.PEARLS),
        ((9.0, 8.0, 0.0), FrameClass.THREE_D),
        ((20.0, 5.0, 0.0), FrameClass.PROFILE),
        ((3.9, 3.9, 3.9), FrameClass.INVALID),
    ])
    def test_score_rules(self, scores, expected):
        classes, _ = classify_frames(_pose(scores))
        assert classes[0] is expected

    def test_missing_coordinates_stay_invalid(self):
        classes, _ = classify_frames(_pose((9.0, 1.0, 0.0), solved=False))
        assert classes[0] is FrameClass.INVALID

    def test_flagged_frames_score_with_inflated_noise(self):
        pose = _pose((30.0, 1.0, 0.0), (30.0, 1.0, 0.0), (300.0, 1.0, 0.0))
        classes, scores = classify_frames(pose,
                                          _badfit_flags([False, True, True]))
        assert classes[0] is FrameClass.PROFILE
        # tenfold noise divides the variance-ratio scores by ten
        assert classes[1] is FrameClass.INVALID
        assert scores[1, 0] == pytest.approx(3.0)
        assert classes[2] is FrameClass.PROFILE

    def test_collinearity_score_not_inflated(self):
        classes, scores = classify_frames(_pose((1.0, 1.0, 8.0)),
                                          _badfit_flags([True]))
        assert scores[0, 2] == 8.0
        assert classes[0] is FrameClass.PEARLS

    @pytest.mark.parametrize("threshold", [CLASS_THRESHOLD, 8.0])
    def test_array_decision_is_the_scalar_oracle(self, threshold):
        # every triple of scores from a grid that holds ties, the threshold
        # itself (40 and 80 reach it once flagged), min/max of exactly
        # THREE_D_BALANCE (5 and 10, or 50 and 100 flagged), inf and NaN;
        # each triple solved and unsolved, flagged and not
        grid = [0.0, 2.0, threshold, np.nextafter(threshold, np.inf), 5.0,
                10.0, 40.0, 50.0, 80.0, 100.0, np.inf, np.nan]
        assert THREE_D_BALANCE == 0.5
        triples = np.array(np.meshgrid(grid, grid, grid,
                                       indexing="ij")).reshape(3, -1).T
        n = len(triples)
        pose = _pose(*np.tile(triples, (4, 1)))
        pose["solved"] = np.repeat([True, False, True, False], n)
        flagged = np.repeat([False, False, True, True], n)
        classes, scores = classify_frames(pose, _badfit_flags(flagged),
                                          threshold)
        want = np.tile(triples, (4, 1))
        want[flagged, :2] /= 10.0
        assert scores.tobytes() == want.tobytes()
        expect = [classify_oracle(*row, threshold) if solved
                  else FrameClass.INVALID
                  for row, solved in zip(want.tolist(),
                                         pose["solved"].tolist())]
        assert classes == expect
        # the grid reaches every class
        assert set(classes) == set(FrameClass)

    def test_each_frame_gets_exactly_one_class(self, ideal_cfg, ideal_dwell,
                                               ideal_track):
        noise = (0.25, 0.03, 0.01)
        classes, scores = classify_frames(_invert_all(
            ideal_dwell, ideal_track, ideal_cfg.integration_time, noise))
        assert len(classes) == len(ideal_dwell.counts)
        assert scores.shape == (len(ideal_dwell.counts), 3)
        assert all(isinstance(c, FrameClass) for c in classes)

    def test_flat_ship_under_turn_reads_plan(self):
        noise = (0.25, 0.03, 0.01)
        cfg = ScenarioConfig(duration=20.0, frame_interval=2.0,
                             integration_time=2.0, phi0=PHI0, theta0=THETA0,
                             steady_aspect_rate=np.deg2rad(3.0),
                             noise=noise, seed=5)
        ship = make_ship(90.0, beam=32.0, height=0.0)
        track = build_angle_track(cfg)
        dwell = simulate_degraded(ship, track, cfg)
        classes, scores = classify_frames(_invert_all(dwell, track, 2.0,
                                                      noise))
        plan, prof = scores[:, 1], scores[:, 0]
        assert np.median(plan) > 10 * max(np.median(prof), 1.0)
        assert np.median(prof) < 3.0
        assert classes.count(FrameClass.PLAN) >= 8


class TestCompose:
    def _two_frame_scene(self, rate_b):
        """Opposite tilt rates seen on the same three-point profile."""
        w = 0.02
        x = [-10.0, 0.0, 10.0]
        z = [0.0, 2.0, 8.0]
        frames = []
        for k, td in enumerate((w, rate_b)):
            reports = _reports([(xi, -td * zi, 0.0) for xi, zi in zip(x, z)],
                               t=0.25 + 0.5 * k)
            frames.append(reports)
        dwell = make_dwell(frames, phi0=0.0, theta0=0.0, range_resolution=0.5,
                           frame_interval=0.5, integration_time=0.5)
        return dwell, [FrameClass.PROFILE] * 2

    def _track(self, rates):
        t = 0.25 + 0.5 * np.arange(len(rates))
        return AngleTrack(angle_array(t, 0.0, 0.0, theta_dot=rates))

    def test_single_frame_rendered_about_centroid(self):
        dwell, classes = self._two_frame_scene(0.02)
        comp = compose(dwell, classes[:1] + [FrameClass.INVALID],
                       self._track([0.02, 0.02]), FrameClass.PROFILE)
        assert comp.frames_used == (0,)
        assert comp.grid.sum() > 0
        rax, cax = np.meshgrid(comp.range_axis, comp.cross_axis)
        w = comp.grid
        assert abs((rax * w).sum() / w.sum()) <= 1.0
        assert abs((cax * w).sum() / w.sum()) <= 1.0

    def test_mirrored_opposite_rates_overlap(self):
        dwell, classes = self._two_frame_scene(-0.02)
        aligned = compose(dwell, classes, self._track([0.02, -0.02]),
                          FrameClass.PROFILE)
        # a track that misreports the second rate as positive skips the
        # mirror step, so the two frames accumulate apart
        naive = compose(dwell, classes, self._track([0.02, 0.02]),
                        FrameClass.PROFILE)
        assert aligned.frames_used == naive.frames_used == (0, 1)
        assert aligned.grid.max() > 1.9 * naive.grid.max()

    def test_slow_rotation_frames_excluded(self):
        dwell, classes = self._two_frame_scene(0.0005)
        comp = compose(dwell, classes, self._track([0.02, 0.0005]),
                       FrameClass.PROFILE)
        assert comp.frames_used == (0,)

    def test_no_qualifying_frames_gives_empty_composite(self):
        dwell, _ = self._two_frame_scene(0.02)
        comp = compose(dwell, [FrameClass.INVALID] * 2,
                       self._track([0.02, 0.02]),
                       FrameClass.PROFILE)
        assert comp.frames_used == ()
        assert comp.grid.shape == (1, 1)
        assert comp.grid.sum() == 0.0

    def test_only_profile_and_plan_compose(self):
        dwell, classes = self._two_frame_scene(0.02)
        track = self._track([0.02, 0.02])
        for kind in (FrameClass.PEARLS, FrameClass.INVALID,
                     FrameClass.THREE_D):
            with pytest.raises(ValueError):
                compose(dwell, classes, track, kind)

    def test_composite_extents_recover_hull_dimensions(self):
        """Profile composite spans the hull after projection correction.

        The range axis carries cos(theta)cos(phi) of the length plus a
        beam leak, exactly what the length estimator corrects for; the
        cross axis carries height sheared by the alongship coordinate.
        Both spans are taken between the 0.5% weighted quantiles.
        """
        noise = (0.25, 0.005, 0.01)
        cfg = ScenarioConfig(duration=60.0, frame_interval=2.0,
                             integration_time=2.0, phi0=PHI0, theta0=THETA0,
                             steady_aspect_rate=np.deg2rad(0.01),
                             tilt_osc=(np.deg2rad(2.0), 10.0),
                             noise=noise, seed=7)
        ship = make_ship(LOA)
        track = build_angle_track(cfg)
        dwell = simulate_degraded(ship, track, cfg)
        classes, _ = classify_frames(_invert_all(dwell, track, 2.0, noise))
        comp = compose(dwell, classes, track, FrameClass.PROFILE)
        assert len(comp.frames_used) >= 15
        rates = track.samples.theta_dot[list(comp.frames_used)]
        assert np.sum(rates < 0) >= 5

        def wspan(vals, w, q=0.005):
            order = np.argsort(vals)
            v, c = vals[order], np.cumsum(w[order]) / w.sum()
            return v[np.searchsorted(c, 1 - q)] - v[np.searchsorted(c, q)]

        rax, cax = np.meshgrid(comp.range_axis, comp.cross_axis)
        w = comp.grid.ravel()
        keep = w > 0
        rv, cv, w = rax.ravel()[keep], cax.ravel()[keep], w[keep]
        ct, cp = np.cos(THETA0), np.cos(PHI0)
        beam = 2 * ship.xyz[:, 1].max()
        loa_est = wspan(rv, w) / (ct * cp) - beam * np.tan(PHI0)
        assert loa_est == pytest.approx(LOA, rel=0.10)
        zs = ship.xyz[:, 2]
        height_est = wspan(-ct * (cv + np.tan(THETA0) * rv), w)
        assert height_est == pytest.approx(zs.max() - zs.min(), rel=0.10)
