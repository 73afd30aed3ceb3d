"""Shared fixtures: one zero-noise scene with both rotations, solved once."""

import numpy as np
import pytest

from isarpose.angles import estimate_angles
from isarpose.moments import moments_series
from isarpose.ship import REPORT_DTYPE, Dwell
from isarpose.simulate import (ScenarioConfig, build_angle_track, make_ship,
                               simulate_degraded)

PHI0 = np.deg2rad(45.0)
THETA0 = np.deg2rad(30.0)
LOA = 120.0


def make_dwell(frames, *metadata, **kw):
    """Dwell(reports, counts, *metadata, **kw) of the frames in order, each
    a 1-D REPORT_DTYPE array of one frame's reports (as report_array gives
    them), copied into the dwell's one table."""
    frames = list(frames)
    reports = np.concatenate([np.empty(0, REPORT_DTYPE)] + frames)
    return Dwell(reports, [len(fr) for fr in frames], *metadata, **kw)


def frame_reports(dwell, k):
    """Frame k's reports: its read-only slice of the dwell's table, as a
    record array (reports.r is a column)."""
    return dwell.reports[dwell.offsets[k]:dwell.offsets[k + 1]].view(
        np.recarray)


def one_frame_dwell(reports, report_sigmas=None):
    """A dwell of one 0.5 s frame holding the reports (times 0 to 0.5 s)."""
    return make_dwell((reports,), PHI0, THETA0, 0.5, 0.5, 0.5, report_sigmas)


def with_frames(dwell, frames):
    """A dwell of the given frames' reports with the metadata of `dwell`."""
    return make_dwell(frames, dwell.phi0, dwell.theta0,
                      dwell.range_resolution, dwell.frame_interval,
                      dwell.integration_time, dwell.report_sigmas)


@pytest.fixture(scope="session")
def ideal_cfg():
    return ScenarioConfig(
        duration=60.0, frame_interval=0.5, integration_time=0.5,
        phi0=PHI0, theta0=THETA0,
        steady_aspect_rate=np.deg2rad(0.3),
        aspect_osc=(np.deg2rad(1.0), 12.0),
        tilt_osc=(np.deg2rad(1.0), 10.0),
        noise=(0.0, 0.0, 0.0), seed=3)


@pytest.fixture(scope="session")
def ideal_ship():
    return make_ship(LOA, n_scatterers=24)


@pytest.fixture(scope="session")
def ideal_track(ideal_cfg):
    return build_angle_track(ideal_cfg)


@pytest.fixture(scope="session")
def ideal_dwell(ideal_cfg, ideal_ship, ideal_track):
    return simulate_degraded(ideal_ship, ideal_track, ideal_cfg)


@pytest.fixture(scope="session")
def ideal_moments(ideal_dwell):
    return moments_series(ideal_dwell)


@pytest.fixture(scope="session")
def ideal_fit(ideal_moments):
    # one full estimator run shared by every file that needs a solved track
    return estimate_angles(ideal_moments, PHI0, THETA0)
