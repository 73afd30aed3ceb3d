"""Motion-matrix coefficient rows shared by the simulator, the angle
estimator, and the pose inverter.

The range of a scatterer at drydock position (x0, y0, z0) under aspect phi
and tilt theta is

    r = x0 cos(theta) cos(phi) - y0 cos(theta) sin(phi) - z0 sin(theta)

and the three rows returned here are the coefficient triples of (x0, y0, z0)
in r, dr/dt, and d2r/dt2. They are exact time derivatives of the range
expression, so M @ (x0, y0, z0) reproduces range/rate/acceleration to
machine precision for any angle state.
"""

from __future__ import annotations

import numpy as np


def range_rate_rows(phi, theta, phi_dot, theta_dot, accel=None):
    """Motion rows as (x0, y0, z0) coefficient triples broadcast over the
    inputs: range and rate, then acceleration when accel = (phi_ddot,
    theta_ddot) is given. The angle fit's cov_rf and d need only the first two.
    """
    phi = np.asarray(phi, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rows = [(ct * cp, -ct * sp, -st),
            (-st * cp * theta_dot - ct * sp * phi_dot,
             st * sp * theta_dot - ct * cp * phi_dot,
             -ct * theta_dot)]
    if accel is not None:
        phi_ddot, theta_ddot = accel
        sq = theta_dot ** 2 + phi_dot ** 2
        rows.append((
            -sq * ct * cp + 2 * st * sp * theta_dot * phi_dot
            - st * cp * theta_ddot - ct * sp * phi_ddot,
            sq * ct * sp + 2 * st * cp * theta_dot * phi_dot
            + st * sp * theta_ddot - ct * cp * phi_ddot,
            st * theta_dot ** 2 - ct * theta_ddot))
    return rows


def motion_rows(phi, theta, phi_dot, theta_dot, phi_ddot, theta_ddot):
    """Coefficient rows as an array of shape (..., 3, 3).

    Inputs broadcast; scalars give a single 3x3 matrix. Row order is
    (range, rate, acceleration); column order is (x0, y0, z0).
    """
    rows = range_rate_rows(phi, theta, phi_dot, theta_dot, (phi_ddot, theta_ddot))
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1)
                     for row in rows], axis=-2)


def track_rows(track) -> np.ndarray:
    """motion_rows evaluated at every sample of an AngleTrack, shape (n, 3, 3)."""
    s = track.samples
    return motion_rows(s.phi, s.theta, s.phi_dot, s.theta_dot, s.phi_ddot,
                       s.theta_ddot)
