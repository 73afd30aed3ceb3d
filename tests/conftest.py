"""Shared fixtures: one zero-noise scene with both rotations, solved once."""

import numpy as np
import pytest

from isarpose.angles import estimate_angles
from isarpose.moments import moments_series
from isarpose.simulate import (ScenarioConfig, build_angle_track, make_ship,
                               simulate_degraded)

PHI0 = np.deg2rad(45.0)
THETA0 = np.deg2rad(30.0)
LOA = 120.0


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
