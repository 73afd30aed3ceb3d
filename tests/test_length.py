"""Length estimation: projection correction, guards, dwell aggregation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isarpose.length import (_extents, beam_rule, estimate_loa, frame_loa,
                             multipath_guard)
from isarpose.ship import Dwell, Frame, report_array
from isarpose.simulate import (ScenarioConfig, build_angle_track, make_ship,
                               simulate_degraded)
from isarpose.validate import BadFitSeries
from tests.conftest import LOA, PHI0, THETA0

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


class TestFrameLoa:
    def test_projection_and_width_correction(self):
        phi, theta = np.deg2rad(30.0), np.deg2rad(20.0)
        raw = 80.0 / (math.cos(phi) * math.cos(theta))
        got = frame_loa(-30.0, 50.0, phi, theta, beam=12.0)
        assert got == pytest.approx(raw - 12.0 * math.tan(phi), rel=1e-12)

    def test_correction_clamped_to_half_raw(self):
        phi, theta = np.deg2rad(60.0), 0.0
        raw = 20.0 / math.cos(phi)
        got = frame_loa(0.0, 20.0, phi, theta, beam=100.0)
        assert got == pytest.approx(0.5 * raw, rel=1e-12)

    def test_broadside_frames_unusable(self):
        assert math.isnan(frame_loa(0.0, 50.0, np.deg2rad(85.0), 0.0, 10.0))
        assert math.isnan(frame_loa(0.0, 50.0, 0.0, np.deg2rad(86.0), 10.0))


class TestMultipathGuard:
    def _reports(self, ranges, snrs):
        return report_array(0.25, snrs, ranges, 0.0, 0.0)

    def test_far_weak_echo_trimmed(self):
        ranges = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 120.0]
        snrs = [20.0, 21.0, 20.0, 22.0, 20.0, 21.0, 12.0]
        kept = multipath_guard(self._reports(ranges, snrs))
        assert kept.r.tolist() == ranges[:-1]

    def test_far_strong_echo_kept(self):
        ranges = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 120.0]
        snrs = [20.0, 21.0, 20.0, 22.0, 20.0, 21.0, 19.0]
        kept = multipath_guard(self._reports(ranges, snrs))
        assert len(kept) == 7

    def test_weak_but_near_echo_kept(self):
        # low SNR alone is not evidence of a multipath ghost
        ranges = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
        snrs = [20.0, 21.0, 20.0, 22.0, 20.0, 5.0]
        kept = multipath_guard(self._reports(ranges, snrs))
        assert len(kept) == 6

    def test_small_frames_left_alone(self):
        ranges = [0.0, 50.0, 200.0]
        snrs = [20.0, 20.0, 1.0]
        kept = multipath_guard(self._reports(ranges, snrs))
        assert len(kept) == 3


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
    # screened together as the rows of one array; each must get, bit for bit, the extent the one-frame guard
    # leaves it: equal and ragged counts, counts under five (no screen) and
    # under three (no extent), some frames with a far, weak ghost
    rng = np.random.default_rng(8)
    counts = [9, 9, 12, 9, 7, 12, 9, 5, 5, 4, 3, 2, 1, 0, 9, 6, 12]
    frames = []
    for k, n in enumerate(counts):
        r = rng.uniform(-30.0, 30.0, n)
        snr = rng.uniform(18.0, 24.0, n)
        if n >= 5 and k % 2 == 0:
            j = rng.integers(n)
            r[j], snr[j] = 300.0 + k, 5.0
        frames.append(Frame(report_array(0.5 * k + 0.25, snr, r, 0.0, 0.0)))
    r_lo, r_hi = _extents(Dwell(frames=tuple(frames), phi0=PHI0,
                                theta0=THETA0, range_resolution=0.5,
                                frame_interval=0.5, integration_time=0.5))
    dropped = 0
    for k, fr in enumerate(frames):
        kept = multipath_guard(fr.reports)
        ref = fr.reports.r[_one_frame_screen(fr.reports.r, fr.reports.snr)]
        assert np.array_equal(kept.r, ref), k
        dropped += len(fr.reports) - len(kept)
        if len(kept) < 3:
            assert np.isnan(r_lo[k]) and np.isnan(r_hi[k]), k
        else:
            assert r_lo[k] == ref.min() and r_hi[k] == ref.max(), k
    assert dropped == 7   # every ghost


class TestEstimateLoa:
    def test_ideal_dwell_recovers_length(self, ideal_dwell, ideal_track,
                                         ideal_ship):
        est = estimate_loa(ideal_dwell, ideal_track)
        assert est.loa == pytest.approx(LOA, abs=ideal_dwell.range_resolution)
        assert est.frames_used == len(ideal_dwell.frames)
        assert est.width_correction == pytest.approx(
            beam_rule(est.loa), rel=1e-3)
        assert np.isfinite(est.rmin_std) and np.isfinite(est.rmax_std)

    def test_translation_invariance(self, ideal_dwell, ideal_track):
        shifted_frames = tuple(
            Frame(report_array(
                fr.reports.t, fr.reports.snr, fr.reports.r + 500.0,
                fr.reports.f, fr.reports.a, fr.reports.truth_id))
            for fr in ideal_dwell.frames)
        shifted = dataclasses.replace(ideal_dwell, frames=shifted_frames)
        a = estimate_loa(ideal_dwell, ideal_track)
        b = estimate_loa(shifted, ideal_track)
        assert b.loa == pytest.approx(a.loa, rel=1e-12)

    def test_flagged_frames_excluded(self, ideal_dwell, ideal_track):
        n = len(ideal_dwell.frames)
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
        phi, theta = ideal_track.samples.phi, ideal_track.samples.theta
        raw = []
        for k, fr in enumerate(ideal_dwell.frames):
            r = fr.reports.r
            raw.append(frame_loa(r.min(), r.max(), phi[k], theta[k], 0.0))
        one_beam = beam_rule(float(np.median(raw)))
        one_pass = float(np.median([
            frame_loa(fr.reports.r.min(), fr.reports.r.max(),
                      phi[k], theta[k], one_beam)
            for k, fr in enumerate(ideal_dwell.frames)]))
        est = estimate_loa(ideal_dwell, ideal_track)
        assert abs(est.loa - LOA) < 0.3 * abs(one_pass - LOA)
