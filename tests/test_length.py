"""Length estimation: projection correction, guards, dwell aggregation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.workloads import WORKLOADS
from isarpose.length import (BEAM_CLAMP, MIN_PROJECTION, _extents, _screen,
                             beam_rule, estimate_loa, frame_loa)
from isarpose.runner import scenario_from_dict
from isarpose.ship import report_array
from isarpose.simulate import (ScenarioConfig, build_angle_track, make_ship,
                               simulate_degraded)
from isarpose.validate import BadFitSeries
from tests.conftest import LOA, PHI0, THETA0, frame_reports, make_dwell
from tests.test_group_pass import SIGMAS, _ragged_dwell, _ragged_track

FT_PER_M = 1.0 / 0.3048


def test_beam_rule_hand_value():
    # 120 m is 393.7 ft; 393.7^(2/3) + 1 = 54.72 ft, back to meters
    expect = ((120.0 * FT_PER_M) ** (2.0 / 3.0) + 1.0) * 0.3048
    assert beam_rule(120.0) == pytest.approx(expect, rel=1e-9)
    assert beam_rule(120.0) == pytest.approx(16.68, abs=0.02)


@given(st.floats(min_value=20.0, max_value=400.0),
       st.floats(min_value=1.0, max_value=50.0))
@settings(deadline=None, max_examples=40)
def test_beam_rule_monotone(loa, step):
    assert beam_rule(loa + step) > beam_rule(loa)


def _projection(phi, theta):
    """(proj, lever) of one frame: cos(phi) cos(theta) and |tan(phi)|."""
    return math.cos(phi) * math.cos(theta), abs(math.tan(phi))


class TestFrameLoa:
    def test_projection_and_width_correction(self):
        phi, theta = np.deg2rad(30.0), np.deg2rad(20.0)
        raw = 80.0 / (math.cos(phi) * math.cos(theta))
        got = frame_loa(-30.0, 50.0, *_projection(phi, theta), beam=12.0)
        assert got == pytest.approx(raw - 12.0 * math.tan(phi), rel=1e-12)

    def test_correction_clamped_to_half_raw(self):
        phi, theta = np.deg2rad(60.0), 0.0
        raw = 20.0 / math.cos(phi)
        got = frame_loa(0.0, 20.0, *_projection(phi, theta), beam=100.0)
        assert got == pytest.approx(0.5 * raw, rel=1e-12)

    def test_broadside_frames_unusable(self):
        got = frame_loa(np.zeros(3), np.full(3, 50.0),
                        *np.transpose([_projection(np.deg2rad(85.0), 0.0),
                                       _projection(0.0, np.deg2rad(86.0)),
                                       _projection(0.0, 0.0)]), 10.0)
        assert np.isnan(got[:2]).all() and got[2] == 50.0


class TestMultipathGuard:
    def _kept(self, ranges, snrs):
        """The ranges the screen keeps of one frame's reports."""
        r = np.array(ranges)
        return r[_screen(r[None], np.array(snrs)[None])[0]].tolist()

    def test_far_weak_echo_trimmed(self):
        ranges = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 120.0]
        snrs = [20.0, 21.0, 20.0, 22.0, 20.0, 21.0, 12.0]
        assert self._kept(ranges, snrs) == ranges[:-1]

    def test_far_strong_echo_kept(self):
        ranges = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 120.0]
        snrs = [20.0, 21.0, 20.0, 22.0, 20.0, 21.0, 19.0]
        assert self._kept(ranges, snrs) == ranges

    def test_weak_but_near_echo_kept(self):
        # low SNR alone is not evidence of a multipath ghost
        ranges = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
        snrs = [20.0, 21.0, 20.0, 22.0, 20.0, 5.0]
        assert self._kept(ranges, snrs) == ranges

    def test_small_frames_left_alone(self):
        ranges = [0.0, 50.0, 200.0]
        snrs = [20.0, 20.0, 1.0]
        assert self._kept(ranges, snrs) == ranges


def _one_frame_screen(r, snr):
    # the screen written for one frame with 1-D reductions, the reference
    # for the stacked one
    if len(r) < 5:
        return np.ones(len(r), dtype=bool)
    p90 = np.percentile(r, 90)
    mad = 1.4826 * np.median(np.abs(r - np.median(r)))
    far = r > p90 + 3.0 * max(mad, 1e-9)
    return ~(far & (snr <= np.median(snr) - 6.0))


def test_grouped_screen_matches_per_frame_guard():
    # frames of one report count (one of the dwell's frame_groups) are
    # screened together as the rows of one array; each must get, bit for
    # bit, the extent the one-frame screen leaves it: equal and ragged
    # counts, counts under five (no screen) and under three (no extent),
    # some frames with a far, weak ghost
    rng = np.random.default_rng(8)
    counts = [9, 9, 12, 9, 7, 12, 9, 5, 5, 4, 3, 2, 1, 0, 9, 6, 12]
    frames = []
    for k, n in enumerate(counts):
        r = rng.uniform(-30.0, 30.0, n)
        snr = rng.uniform(18.0, 24.0, n)
        if n >= 5 and k % 2 == 0:
            j = rng.integers(n)
            r[j], snr[j] = 300.0 + k, 5.0
        frames.append(report_array(0.5 * k + 0.25, snr, r, 0.0, 0.0))
    dwell = make_dwell(frames, phi0=PHI0, theta0=THETA0, range_resolution=0.5,
                       frame_interval=0.5, integration_time=0.5)
    r_lo, r_hi = _extents(dwell)
    dropped = 0
    for k, reports in enumerate(frames):
        ref = reports.r[_one_frame_screen(reports.r, reports.snr)]
        dropped += len(reports) - len(ref)
        if len(ref) < 3:
            assert np.isnan(r_lo[k]) and np.isnan(r_hi[k]), k
        else:
            assert r_lo[k] == ref.min() and r_hi[k] == ref.max(), k
    assert dropped == 7   # every ghost


class TestEstimateLoa:
    def test_ideal_dwell_recovers_length(self, ideal_dwell, ideal_track,
                                         ideal_ship):
        est = estimate_loa(ideal_dwell, ideal_track)
        assert est.loa == pytest.approx(LOA, abs=ideal_dwell.range_resolution)
        assert est.frames_used == len(ideal_dwell.counts)
        assert est.width_correction == pytest.approx(
            beam_rule(est.loa), rel=1e-3)
        assert np.isfinite(est.rmin_std) and np.isfinite(est.rmax_std)

    def test_translation_invariance(self, ideal_dwell, ideal_track):
        reports = ideal_dwell.reports.copy()
        reports["r"] += 500.0
        shifted = dataclasses.replace(ideal_dwell, reports=reports)
        a = estimate_loa(ideal_dwell, ideal_track)
        b = estimate_loa(shifted, ideal_track)
        assert b.loa == pytest.approx(a.loa, rel=1e-12)

    def test_flagged_frames_excluded(self, ideal_dwell, ideal_track):
        n = len(ideal_dwell.counts)
        flagged = np.zeros(n, dtype=bool)
        flagged[:10] = True
        bf = BadFitSeries(score=np.zeros(n), n_accel=np.zeros(n),
                          n_spread=np.zeros(n), flagged=flagged, threshold=3.0)
        est = estimate_loa(ideal_dwell, ideal_track, badfit_series=bf)
        assert est.frames_used == n - 10

    def test_broadside_dwell_rejected(self):
        cfg = ScenarioConfig(duration=10.0, frame_interval=0.5,
                             integration_time=0.5, phi0=np.deg2rad(86.0),
                             theta0=np.deg2rad(30.0), noise=(0.0, 0.0, 0.0),
                             seed=1)
        ship = make_ship(LOA)
        track = build_angle_track(cfg)
        dwell = simulate_degraded(ship, track, cfg)
        with pytest.raises(ValueError):
            estimate_loa(dwell, track)

    def test_track_length_mismatch_rejected(self, ideal_dwell, ideal_track):
        from isarpose.ship import AngleTrack
        short = AngleTrack(ideal_track.samples[:20])
        with pytest.raises(ValueError):
            estimate_loa(ideal_dwell, short)

    def test_iterated_width_correction_beats_one_pass(self, ideal_dwell,
                                                      ideal_track):
        """Evaluating the beam rule at the raw extent oversizes the beam.

        A single correction pass therefore undershoots the length; the
        fixed-point iteration should land much closer on clean data.
        """
        s = ideal_track.samples
        r_min, r_max = np.transpose([
            (frame_reports(ideal_dwell, k).r.min(),
             frame_reports(ideal_dwell, k).r.max())
            for k in range(len(ideal_dwell.counts))])
        proj, lever = np.transpose([_projection(phi, theta) for phi, theta
                                    in zip(s.phi.tolist(), s.theta.tolist())])
        raw = frame_loa(r_min, r_max, proj, lever, 0.0)
        one_beam = beam_rule(float(np.median(raw)))
        one_pass = float(np.median(frame_loa(r_min, r_max, proj, lever,
                                             one_beam)))
        est = estimate_loa(ideal_dwell, ideal_track)
        assert abs(est.loa - LOA) < 0.3 * abs(one_pass - LOA)


def _scalar_frame_loa(r_min, r_max, phi, theta, beam):
    # one frame's length in Python floats: the reference for frame_loa
    proj = math.cos(phi) * math.cos(theta)
    if abs(proj) <= MIN_PROJECTION:
        return float("nan")
    raw = (r_max - r_min) / abs(proj)
    corrected = raw - beam * abs(math.tan(phi))
    return max(corrected, BEAM_CLAMP * raw)


def _scalar_loa(dwell, track, flagged):
    # the beam fixed point one frame at a time, the reference for
    # estimate_loa: (loa, loa_series, frames_used, width_correction)
    phi, theta = track.samples.phi, track.samples.theta
    r_lo, r_hi = _extents(dwell)
    usable = np.isfinite(r_lo) & ~flagged
    usable &= np.abs(np.cos(phi) * np.cos(theta)) > MIN_PROJECTION
    loa = None
    for _ in range(5):
        beam = 0.0 if loa is None else beam_rule(loa)
        series = np.full(len(phi), np.nan)
        for k in np.flatnonzero(usable).tolist():
            series[k] = _scalar_frame_loa(float(r_lo[k]), float(r_hi[k]),
                                          float(phi[k]), float(theta[k]),
                                          beam)
        core = series[np.isfinite(series)]
        inner = float(np.median(core))
        near = core[np.abs(core - inner) <= 0.25 * inner]
        loa = float(np.median(near)) if near.size else inner
    return loa, series, int(usable.sum()), beam


def _benchmark_scene(name):
    cfg, ship, _ = scenario_from_dict(WORKLOADS[name].scenario, 11)
    track = build_angle_track(cfg)
    return simulate_degraded(ship, track, cfg), track


@pytest.mark.parametrize("scene", ["canonical", "dense", "ragged"])
def test_estimate_loa_is_the_scalar_fixed_point(scene):
    # seed 11 of two benchmark dwells and the ragged dwell of the group-pass
    # tests, each with every seventh frame flagged by the fit check
    if scene == "ragged":
        dwell = _ragged_dwell(1, SIGMAS)
        track = _ragged_track(dwell, 1)
    else:
        dwell, track = _benchmark_scene(scene)
    n = len(dwell.counts)
    flagged = np.arange(n) % 7 == 3
    bf = BadFitSeries(score=np.zeros(n), n_accel=np.zeros(n),
                      n_spread=np.zeros(n), flagged=flagged, threshold=3.0)
    est = estimate_loa(dwell, track, bf)
    loa, series, used, beam = _scalar_loa(dwell, track, flagged)
    assert np.array(est.loa).tobytes() == np.array(loa).tobytes()
    assert est.loa_series.tobytes() == series.tobytes()
    assert est.frames_used == used
    assert np.array(est.width_correction).tobytes() == np.array(beam).tobytes()
    assert 5 <= used < n
