"""Domain types shared by every stage: ships, angle tracks, target reports.

Drydock coordinates: x alongship (m), y cross-ship (m), z height (m).
All angles in radians. All types are immutable value data and safe to
share between threads. A frame is its reports; its dwell holds the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ShipModel:
    """A rigid set of point scatterers: xyz a read-only (n, 3) array of finite
    drydock coordinates (m), rcs a read-only (n,) array of their positive,
    finite linear reflectivities. loa_true, simulation-side truth only, is
    at least the alongship extent."""

    xyz: np.ndarray
    rcs: np.ndarray
    loa_true: float | None = None

    def __post_init__(self):
        xyz = np.array(self.xyz, dtype=np.float64)
        rcs = np.array(self.rcs, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError("xyz must be an (n, 3) array")
        if rcs.shape != (len(xyz),):
            raise ValueError("rcs needs one value per scatterer")
        if not np.isfinite(xyz).all():
            raise ValueError("scatterer coordinates must be finite")
        if not np.all((rcs > 0) & np.isfinite(rcs)):
            raise ValueError("rcs must be positive and finite")
        if (self.loa_true is not None and len(xyz)
                and np.ptp(xyz[:, 0]) > self.loa_true + 1e-9):
            raise ValueError("scatterers extend beyond loa_true")
        for name, arr in (("xyz", xyz), ("rcs", rcs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


ANGLE_DTYPE = np.dtype([(name, np.float64) for name in (
    "t", "phi", "theta", "phi_dot", "theta_dot", "phi_ddot", "theta_ddot")])
"""Aspect/tilt state at one instant per record: t (s); phi aspect angle
(rad), rotation in the horizontal plane; theta tilt angle (rad), effective
grazing rotation; their rates (rad/s) and accelerations (rad/s^2)."""


def in_angle_range(rad):
    """|rad| < pi/2 (False for NaN): the model's tangent-singularity bound."""
    return np.abs(rad) < math.pi / 2


def _record_array(dtype: np.dtype, cols: tuple) -> np.recarray:
    # one record per broadcast element, each field filled from its column
    out = np.recarray(np.broadcast_shapes(*map(np.shape, cols)), dtype=dtype)
    for name, col in zip(dtype.names, cols):
        out[name] = col
    return out


def angle_array(t, phi, theta, phi_dot=0.0, theta_dot=0.0, phi_ddot=0.0,
                theta_ddot=0.0) -> np.recarray:
    """Angle states from their columns; scalars broadcast."""
    return _record_array(ANGLE_DTYPE, (t, phi, theta, phi_dot, theta_dot,
                                       phi_ddot, theta_ddot))


@dataclass(frozen=True, eq=False)
class AngleTrack:
    """Angle history, one sample per image frame.

    samples is a read-only ANGLE_DTYPE record array, so each field is one
    column (track.samples.phi) and samples[k] is the state of frame k. Every
    field is finite, |phi|, |theta| < pi/2 (the model is valid only away
    from the tangent singularity), and the times increase in uniform steps.
    """

    samples: np.recarray

    def __post_init__(self):
        samples = np.asarray(self.samples).view(np.recarray)
        if samples.dtype != ANGLE_DTYPE or samples.ndim != 1:
            raise ValueError("samples must be a 1-D ANGLE_DTYPE array")
        if not all(np.isfinite(samples[name]).all() for name in ANGLE_DTYPE.names):
            raise ValueError("angle track fields must be finite")
        if not (np.all(in_angle_range(samples.phi))
                and np.all(in_angle_range(samples.theta))):
            raise ValueError("angles must satisfy |phi|, |theta| < pi/2")
        steps = np.diff(samples.t)
        # frame times (k + 0.5) * interval are rounded products, so the
        # steps of a uniform grid differ in their last bits only; 3e-9 of
        # the largest step (relative past 1 s) is far above that rounding
        if steps.size and not (steps.min() > 0 and np.ptp(steps)
                               <= 3e-9 * max(1.0, float(steps.max()))):
            raise ValueError("sample times must increase in uniform steps")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


REPORT_DTYPE = np.dtype([("t", np.float64), ("snr", np.float64),
                         ("r", np.float64), ("f", np.float64),
                         ("a", np.float64), ("truth_id", np.int64)])
"""One target report per record: t (s); snr in dB; r range offset (m);
f range-rate (m/s); a range-acceleration (m/s^2); truth_id the source
scatterer in simulation only, -1 for none."""


def report_array(t, snr, r, f, a, truth_id=-1) -> np.recarray:
    """Reports of one frame from their columns; scalars broadcast."""
    return _record_array(REPORT_DTYPE, (t, snr, r, f, a, truth_id))


@dataclass(frozen=True, eq=False)
class Frame:
    """All reports of one image frame; its index and times are its dwell's.

    reports is a read-only REPORT_DTYPE record array, so each field is one
    column (fr.reports.r); every float field must be finite.
    """

    reports: np.recarray

    def __post_init__(self):
        reports = np.asarray(self.reports).view(np.recarray)
        if reports.dtype != REPORT_DTYPE or reports.ndim != 1:
            raise ValueError("reports must be a 1-D REPORT_DTYPE array")
        if not all(np.isfinite(reports[name]).all()
                   for name in ("t", "snr", "r", "f", "a")):
            raise ValueError("report fields must be finite")
        reports.flags.writeable = False
        object.__setattr__(self, "reports", reports)


@dataclass(frozen=True)
class Dwell:
    """One continuous observation: at least one frame plus metadata.

    Frame k is centred at t[k] = (k + 0.5) * frame_interval and integrates
    for integration_time (both s, positive and finite); its reports lie within
    half an interval of t[k], with truth_id >= -1. phi0/theta0 are the
    externally supplied mean aspect/tilt (rad, in_angle_range), and
    range_resolution (m) is positive and finite.
    report_sigmas are the nominal report noise sigmas (range m, Doppler
    m/s, acceleration m/s^2), each finite and >= 0, or None when unknown.
    """

    frames: tuple[Frame, ...]
    phi0: float
    theta0: float
    range_resolution: float
    frame_interval: float
    integration_time: float
    report_sigmas: tuple[float, float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise ValueError("a dwell needs at least one frame")
        if not all(0 < v < math.inf for v in (
                self.frame_interval, self.integration_time,
                self.range_resolution)):
            raise ValueError("frame_interval, integration_time and "
                             "range_resolution must be positive and finite")
        if not (in_angle_range(self.phi0) and in_angle_range(self.theta0)):
            raise ValueError("mean angles must satisfy |phi0|, |theta0| < pi/2")
        # the reader's row checks: every dwell saves as a file it reads back
        half = 0.5 * self.frame_interval
        for k, (tk, fr) in enumerate(zip(self.t.tolist(), self.frames)):
            reports = fr.reports.view(np.ndarray)   # faster field reads
            if (np.abs(reports["t"] - tk) > half).any():
                raise ValueError(f"frame {k}: report time outside its slot")
            if (reports["truth_id"] < -1).any():
                raise ValueError(f"frame {k}: truth_id below -1")
        if self.report_sigmas is not None:
            sig = tuple(float(s) for s in self.report_sigmas)
            if len(sig) != 3 or not all(math.isfinite(s) and s >= 0 for s in sig):
                raise ValueError("report sigmas must be three finite numbers >= 0")
            object.__setattr__(self, "report_sigmas", sig)

    @property
    def t(self) -> np.ndarray:
        """Frame-centre times (s), one per frame."""
        return (np.arange(len(self.frames)) + 0.5) * self.frame_interval


def ship_moments(model: ShipModel) -> tuple[float, float, float]:
    """Second moments of centroid-removed drydock coordinates, unweighted.

    Returns (x2, bsq, hsq) where x2 = <x0^2> in m^2 and bsq = <y0^2>/<x0^2>,
    hsq = <z0^2>/<x0^2>. Centroid removal makes the result invariant under
    rigid translation; the ratios are invariant under uniform scaling.
    """
    if not len(model.xyz):
        raise ValueError("ship has no scatterers")
    x2, y2, z2 = model.xyz.var(axis=0).tolist()
    if x2 <= 0:
        raise ValueError("zero alongship variance")
    return x2, y2 / x2, z2 / x2
