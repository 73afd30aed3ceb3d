"""Forward model: parametric ships, angle tracks, report generation."""

import math

import numpy as np
import pytest

from isarpose.length import beam_rule
from isarpose.simulate import (DegradationSpec, ScenarioConfig,
                               angle_sample_at, build_angle_track, make_ship,
                               rfa_of, simulate_degraded, simulate_perfect)


def _cfg(**kw):
    base = dict(duration=20.0, frame_interval=0.5, integration_time=0.5,
                phi0=np.deg2rad(40.0), theta0=np.deg2rad(25.0),
                steady_aspect_rate=np.deg2rad(0.2),
                aspect_osc=(np.deg2rad(0.8), 12.0),
                tilt_osc=(np.deg2rad(1.2), 10.0),
                noise=(0.0, 0.0, 0.0), seed=5)
    base.update(kw)
    return ScenarioConfig(**base)


class TestMakeShip:
    def test_deck_corners_and_centerline_points_present(self):
        ship = make_ship(100.0, beam=14.0, height=10.0)
        pts = set(map(tuple, ship.xyz.tolist()))
        for sx in (+1, -1):
            for sy in (+1, -1):
                assert (sx * 50.0, sy * 7.0, 10.0) in pts
        assert (0.0, 0.0, 0.0) in pts
        assert (0.0, 0.0, 18.0) in pts

    def test_scatterer_count_at_least_requested(self):
        for n in (8, 24, 30):
            ship = make_ship(90.0, n_scatterers=n)
            assert n <= len(ship.xyz) == len(ship.rcs) < n + 4

    def test_beam_defaults_to_rule_of_thumb(self):
        ship = make_ship(120.0)
        assert 2 * ship.xyz[:, 1].max() == pytest.approx(
            beam_rule(120.0), rel=1e-12)

    def test_symmetric_cross_moments_vanish_exactly(self):
        # scatterers come in sign-mirrored quads with equal weight, so every
        # weighted cross term cancels pairwise; fsum keeps the cancellation
        # exact where a BLAS dot's lane ordering would not
        ship = make_ship(75.0, n_scatterers=40, seed=2)
        w = ship.rcs
        x, y, z = ship.xyz.T
        assert math.fsum(w * x) == 0.0
        assert math.fsum(w * y) == 0.0
        assert math.fsum(w * x * y) == 0.0
        assert math.fsum(w * x * z) == 0.0
        assert math.fsum(w * y * z) == 0.0

    def test_hull_ends_are_extreme_alongship(self):
        ship = make_ship(110.0, n_scatterers=36, seed=4)
        assert np.abs(ship.xyz[:, 0]).max() == 55.0

    def test_deterministic_per_seed(self):
        a = make_ship(80.0, seed=7)
        b = make_ship(80.0, seed=7)
        c = make_ship(80.0, seed=8)
        assert a.xyz.tobytes() == b.xyz.tobytes()
        assert a.rcs.tobytes() == b.rcs.tobytes()
        assert a.xyz.shape == c.xyz.shape
        assert a.xyz.tobytes() != c.xyz.tobytes()

    def test_zero_height_gives_flat_ship(self):
        ship = make_ship(90.0, height=0.0)
        assert (ship.xyz[:, 2] == 0.0).all()


class TestAngleTrack:
    def test_samples_sit_at_frame_centers(self):
        cfg = _cfg()
        track = build_angle_track(cfg)
        assert len(track.samples) == cfg.n_frames
        assert np.all(np.diff(track.samples.t) == cfg.frame_interval)
        assert track.samples[0].t == pytest.approx(0.25)
        assert track.samples[3].t == pytest.approx(1.75)

    def test_derivative_fields_match_finite_differences(self):
        cfg = _cfg()
        # second differences need a coarser step: at dt=1e-5 the rounding of
        # the angle values alone swamps the curvature signal
        dt, dt2 = 1e-5, 1e-3
        for t0 in (1.3, 7.9, 16.0):
            lo, mid, hi = (angle_sample_at(cfg, t0 + k * dt)
                           for k in (-1, 0, 1))
            lo2, hi2 = (angle_sample_at(cfg, t0 + k * dt2) for k in (-1, 1))
            assert mid.phi_dot == pytest.approx(
                (hi.phi - lo.phi) / (2 * dt), rel=1e-7)
            assert mid.theta_dot == pytest.approx(
                (hi.theta - lo.theta) / (2 * dt), rel=1e-7)
            assert mid.phi_ddot == pytest.approx(
                (hi2.phi - 2 * mid.phi + lo2.phi) / dt2 ** 2,
                rel=1e-4, abs=1e-9)
            assert mid.theta_ddot == pytest.approx(
                (hi2.theta - 2 * mid.theta + lo2.theta) / dt2 ** 2,
                rel=1e-4, abs=1e-9)

    def test_mean_aspect_holds_at_mid_dwell(self):
        # the steady term is anchored so phi(tbar) = phi0 + oscillation only
        cfg = _cfg(aspect_osc=(0.0, 12.0))
        tbar = 0.5 * cfg.n_frames * cfg.frame_interval
        assert angle_sample_at(cfg, tbar).phi == pytest.approx(cfg.phi0)

    def test_oscillation_period_must_be_resolvable(self):
        with pytest.raises(ValueError):
            _cfg(tilt_osc=(0.01, 0.9))


class TestPerfectReports:
    def test_every_scatterer_reported_with_exact_values(self):
        cfg = _cfg()
        ship = make_ship(60.0, n_scatterers=10)
        track = build_angle_track(cfg)
        dwell = simulate_perfect(ship, track, cfg)
        assert len(dwell.frames) == cfg.n_frames
        for k in (0, 11, 39):
            reps = dwell.frames[k].reports
            assert reps.truth_id.tolist() == list(range(len(ship.xyz)))
            # one state at a time: the same values to rounding
            want = rfa_of(ship.xyz, track.samples[k])
            assert want.shape == (len(ship.xyz), 3)
            got = np.column_stack([reps.r, reps.f, reps.a])
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_reports_are_the_forward_model_bit_for_bit(self):
        cfg = _cfg()
        ship = make_ship(120.0, n_scatterers=24, seed=3)
        track = build_angle_track(cfg)
        dwell = simulate_perfect(ship, track, cfg)
        want = rfa_of(ship.xyz, track.samples)
        assert want.shape == (cfg.n_frames, len(ship.xyz), 3)
        for k, fr in enumerate(dwell.frames):
            got = np.column_stack([fr.reports.r, fr.reports.f, fr.reports.a])
            assert got.tobytes() == want[k].tobytes()

    def test_dwell_carries_scenario_metadata(self):
        cfg = _cfg()
        dwell = simulate_perfect(make_ship(60.0), build_angle_track(cfg), cfg)
        assert dwell.phi0 == cfg.phi0
        assert dwell.theta0 == cfg.theta0
        assert dwell.frame_interval == cfg.frame_interval
        assert dwell.range_resolution == cfg.range_resolution
        # exact reports carry no noise, whatever the scenario's sigmas
        assert dwell.report_sigmas == (0.0, 0.0, 0.0)
        noisy = _cfg(noise=(0.3, 0.05, 0.02))
        assert simulate_perfect(make_ship(60.0), build_angle_track(noisy),
                                noisy).report_sigmas == (0.0, 0.0, 0.0)


class TestDegradedReports:
    def test_dwell_records_the_noise_sigmas(self):
        cfg = _cfg(noise=(0.3, 0.05, 0.02))
        dwell = simulate_degraded(make_ship(60.0), build_angle_track(cfg), cfg)
        assert dwell.report_sigmas == (0.3, 0.05, 0.02)

    @pytest.mark.parametrize("noise", [(-0.3, 0.05, 0.02),
                                       (0.3, math.inf, 0.02),
                                       (0.3, 0.05, math.nan)])
    def test_noise_sigmas_must_be_finite_and_nonnegative(self, noise):
        with pytest.raises(ValueError, match="noise sigmas"):
            _cfg(noise=noise)

    def test_zero_noise_reduces_to_perfect_values(self):
        cfg = _cfg()
        ship = make_ship(60.0)
        track = build_angle_track(cfg)
        perfect = simulate_perfect(ship, track, cfg)
        degraded = simulate_degraded(ship, track, cfg)
        for fp, fd in zip(perfect.frames, degraded.frames):
            assert fd.reports.r.tolist() == fp.reports.r.tolist()
            assert fd.reports.f.tolist() == fp.reports.f.tolist()
            assert fd.reports.a.tolist() == fp.reports.a.tolist()

    def test_same_seed_reproduces_reports_exactly(self):
        cfg = _cfg(noise=(0.3, 0.05, 0.02), fade_sigma=1.5)
        ship = make_ship(60.0)
        track = build_angle_track(cfg)
        a = simulate_degraded(ship, track, cfg)
        b = simulate_degraded(ship, track, cfg)
        assert all(fa.reports.tobytes() == fb.reports.tobytes()
                   for fa, fb in zip(a.frames, b.frames))

    def test_noise_standard_deviation_is_calibrated(self):
        cfg = _cfg(duration=60.0, noise=(0.5, 0.05, 0.02))
        ship = make_ship(60.0, n_scatterers=24)
        track = build_angle_track(cfg)
        perfect = simulate_perfect(ship, track, cfg)
        degraded = simulate_degraded(ship, track, cfg)
        resid = np.concatenate([
            fd.reports.r - fp.reports.r
            for fp, fd in zip(perfect.frames, degraded.frames)])
        assert np.std(resid) == pytest.approx(0.5, rel=0.05)
        assert abs(np.mean(resid)) < 0.02

    def test_snr_floor_drops_weak_scatterers(self):
        # base level is 20 dB; rcs 2 corners sit at 23 dB, the keel at 21.8
        cfg = _cfg(snr_floor=22.0)
        ship = make_ship(60.0)
        track = build_angle_track(cfg)
        dwell = simulate_degraded(ship, track, cfg)
        assert all(len(fr.reports) == 4 for fr in dwell.frames)
        assert all((fr.reports.snr >= 22.0).all() for fr in dwell.frames)

    def test_injected_reports_stay_inside_their_window(self):
        spec = DegradationSpec(kind="bogey", t_start=5.0, t_stop=9.0)
        cfg = _cfg(injectors=(spec,))
        ship = make_ship(60.0, n_scatterers=10)
        track = build_angle_track(cfg)
        dwell = simulate_degraded(ship, track, cfg)
        n_true = len(ship.xyz)
        for fr, t in zip(dwell.frames, dwell.t):
            extra = len(fr.reports) - n_true
            if 5.0 <= t < 9.0:
                assert extra == spec.density
            else:
                assert extra == 0

    def test_injected_reports_carry_no_truth_id(self):
        spec = DegradationSpec(kind="narrowband_interference",
                               t_start=2.0, t_stop=6.0)
        cfg = _cfg(injectors=(spec,))
        ship = make_ship(60.0, n_scatterers=10)
        dwell = simulate_degraded(ship, build_angle_track(cfg), cfg)
        injected = np.concatenate([fr.reports[fr.reports.truth_id < 0]
                                   for fr in dwell.frames])
        assert len(injected)
        assert ((2.0 <= injected["t"]) & (injected["t"] < 6.0)).all()

    @pytest.mark.parametrize("kind", ["bogey", "narrowband_interference",
                                      "broadband_interference"])
    def test_all_degradation_kinds_produce_reports(self, kind):
        spec = DegradationSpec(kind=kind, t_start=4.0, t_stop=10.0)
        cfg = _cfg(injectors=(spec,))
        ship = make_ship(60.0, n_scatterers=10)
        dwell = simulate_degraded(ship, build_angle_track(cfg), cfg)
        assert any((fr.reports.truth_id < 0).any() for fr in dwell.frames)

    def test_unknown_degradation_kind_rejected(self):
        with pytest.raises(ValueError):
            DegradationSpec(kind="meteor", t_start=0.0, t_stop=1.0)

    def test_degradation_window_must_fit_dwell(self):
        spec = DegradationSpec(kind="bogey", t_start=5.0, t_stop=30.0)
        with pytest.raises(ValueError):
            _cfg(injectors=(spec,))
