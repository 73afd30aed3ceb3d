"""Frozen motion rows against a numeric differentiation oracle.

The rows claim to be d/dt and d2/dt2 of the range projection along an
arbitrary smooth angle history. The oracle below never uses the row
formulas: it differentiates the projection itself with central differences.
"""

import numpy as np
import pytest

from isarpose.motion import motion_rows, track_rows
from isarpose.ship import AngleTrack, angle_array


def _projection(phi, theta, s):
    return (np.cos(theta) * np.cos(phi) * s[0]
            - np.cos(theta) * np.sin(phi) * s[1]
            - np.sin(theta) * s[2])


def _angles(t):
    phi = 0.6 + 0.02 * t + 0.03 * np.sin(0.7 * t)
    theta = 0.4 + 0.05 * np.sin(0.9 * t + 0.3)
    return phi, theta


def _angle_state(t):
    # analytic derivatives of the test history, independent of motion_rows
    phi = 0.6 + 0.02 * t + 0.03 * np.sin(0.7 * t)
    phid = 0.02 + 0.03 * 0.7 * np.cos(0.7 * t)
    phidd = -0.03 * 0.7 ** 2 * np.sin(0.7 * t)
    theta = 0.4 + 0.05 * np.sin(0.9 * t + 0.3)
    thd = 0.05 * 0.9 * np.cos(0.9 * t + 0.3)
    thdd = -0.05 * 0.9 ** 2 * np.sin(0.9 * t + 0.3)
    return phi, theta, phid, thd, phidd, thdd


@pytest.mark.parametrize("t0", [0.0, 3.7, 11.2])
def test_rows_match_numeric_derivatives(t0):
    s = np.array([37.0, -5.0, 9.0])
    m = motion_rows(*_angle_state(t0))
    # the second difference loses ~4*eps*|r|/dt^2 to cancellation, so the
    # acceleration check needs a coarser step than the rate check
    dt, dt2 = 1e-5, 1e-3
    rate_fd = (_projection(*_angles(t0 + dt), s)
               - _projection(*_angles(t0 - dt), s)) / (2 * dt)
    accel_fd = (_projection(*_angles(t0 + dt2), s)
                - 2 * _projection(*_angles(t0), s)
                + _projection(*_angles(t0 - dt2), s)) / dt2 ** 2
    assert m[0] @ s == pytest.approx(_projection(*_angles(t0), s), rel=1e-12)
    # abs floor sits above the eps*|r|/dt cancellation noise of the central
    # difference, which dominates whenever the rate itself is near zero
    assert m[1] @ s == pytest.approx(rate_fd, rel=1e-8, abs=1e-8)
    assert m[2] @ s == pytest.approx(accel_fd, rel=1e-4, abs=1e-6)


def test_rows_shape_and_static_limit():
    m = motion_rows(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert m.shape == (3, 3)
    assert np.allclose(m[0], [1.0, 0.0, 0.0])
    assert np.allclose(m[1:], 0.0)


def test_pure_aspect_rotation_rows():
    w = 0.02
    m = motion_rows(0.0, 0.0, w, 0.0, 0.0, 0.0)
    assert np.allclose(m[1], [0.0, -w, 0.0], atol=1e-15)
    assert np.allclose(m[2], [-w ** 2, 0.0, 0.0], atol=1e-15)


def test_track_rows_stack_per_sample():
    k = np.arange(5)
    track = AngleTrack(angle_array(0.5 * k, 0.5 + 0.01 * k, 0.3,
                                   phi_dot=0.01, theta_dot=0.002 * k,
                                   phi_ddot=1e-4 * k))
    rows = track_rows(track)
    assert rows.shape == (5, 3, 3)
    for k, smp in enumerate(track.samples):
        one = motion_rows(smp.phi, smp.theta, smp.phi_dot, smp.theta_dot,
                          smp.phi_ddot, smp.theta_ddot)
        assert np.array_equal(rows[k], one)
