"""Domain types shared by every stage: ships, angle tracks, target reports.

Drydock coordinates: x alongship (m), y cross-ship (m), z height (m).
All angles in radians. All types are immutable value data and safe to
share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scatterer:
    """One point scatterer in drydock coordinates with linear reflectivity."""

    x0: float
    y0: float
    z0: float
    rcs: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)
                and math.isfinite(self.z0)):
            raise ValueError("scatterer coordinates must be finite")
        if not (self.rcs > 0 and math.isfinite(self.rcs)):
            raise ValueError("rcs must be positive and finite")


@dataclass(frozen=True)
class ShipModel:
    """A rigid set of scatterers; loa_true is simulation-side truth only."""

    scatterers: tuple[Scatterer, ...]
    loa_true: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if self.loa_true is not None and self.scatterers:
            xs = [s.x0 for s in self.scatterers]
            if max(xs) - min(xs) > self.loa_true + 1e-9:
                raise ValueError("scatterers extend beyond loa_true")


@dataclass(frozen=True)
class AngleSample:
    """Aspect/tilt state at one instant.

    phi: aspect angle (rad), rotation in the horizontal plane.
    theta: tilt angle (rad), effective grazing rotation.
    Derivative fields are rad/s and rad/s^2.
    """

    t: float
    phi: float
    theta: float
    phi_dot: float = 0.0
    theta_dot: float = 0.0
    phi_ddot: float = 0.0
    theta_ddot: float = 0.0

    def __post_init__(self):
        # model is valid only away from the tangent singularity
        if not (abs(self.phi) < math.pi / 2 and abs(self.theta) < math.pi / 2):
            raise ValueError("angles must satisfy |phi|, |theta| < pi/2")


@dataclass(frozen=True)
class AngleTrack:
    """Uniformly sampled angle history, one sample per image frame."""

    samples: tuple[AngleSample, ...]
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        ts = [s.t for s in self.samples]
        for a, b in zip(ts, ts[1:]):
            if not (b > a and abs((b - a) - self.dt) <= 1e-9 * max(1.0, self.dt)):
                raise ValueError("sample times must increase by dt")

    @property
    def times(self):
        return tuple(s.t for s in self.samples)


REPORT_DTYPE = np.dtype([("t", np.float64), ("snr", np.float64),
                         ("r", np.float64), ("f", np.float64),
                         ("a", np.float64), ("truth_id", np.int64)])
"""One target report per record: t (s); snr in dB; r range offset (m);
f range-rate (m/s); a range-acceleration (m/s^2); truth_id the source
scatterer in simulation only, -1 for none."""


def report_array(t, snr, r, f, a, truth_id=-1) -> np.recarray:
    """Reports of one frame from their columns; scalars broadcast."""
    cols = (t, snr, r, f, a, truth_id)
    out = np.recarray(np.broadcast_shapes(*map(np.shape, cols)),
                      dtype=REPORT_DTYPE)
    for name, col in zip(REPORT_DTYPE.names, cols):
        out[name] = col
    return out


@dataclass(frozen=True, eq=False)
class Frame:
    """All reports of one image frame plus its integration time T (s).

    reports is a read-only REPORT_DTYPE record array, so each field is one
    column (fr.reports.r); every float field must be finite.
    """

    index: int
    t: float
    integration_time: float
    reports: np.recarray

    def __post_init__(self):
        reports = np.asarray(self.reports).view(np.recarray)
        if reports.dtype != REPORT_DTYPE or reports.ndim != 1:
            raise ValueError("reports must be a 1-D REPORT_DTYPE array")
        if not all(np.isfinite(reports[name]).all()
                   for name in ("t", "snr", "r", "f", "a")):
            raise ValueError(f"frame {self.index}: report fields must be finite")
        reports.flags.writeable = False
        object.__setattr__(self, "reports", reports)


@dataclass(frozen=True)
class Dwell:
    """One continuous observation: uniformly spaced frames plus metadata.

    phi0/theta0 are the externally supplied mean aspect/tilt (rad).
    """

    frames: tuple[Frame, ...]
    phi0: float
    theta0: float
    range_resolution: float
    frame_interval: float

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        ts = [fr.t for fr in self.frames]
        for a, b in zip(ts, ts[1:]):
            if abs((b - a) - self.frame_interval) > 1e-9 * max(1.0, self.frame_interval):
                raise ValueError("frame times must be uniformly spaced")

    @property
    def times(self):
        return tuple(fr.t for fr in self.frames)


def ship_moments(model: ShipModel) -> tuple[float, float, float]:
    """Second moments of centroid-removed drydock coordinates.

    Returns (x2, bsq, hsq) where x2 = <x0^2> in m^2 and bsq = <y0^2>/<x0^2>,
    hsq = <z0^2>/<x0^2>. Centroid removal makes the result invariant under
    rigid translation; the ratios are invariant under uniform scaling.
    """
    if not model.scatterers:
        raise ValueError("ship has no scatterers")
    n = len(model.scatterers)
    cx = sum(s.x0 for s in model.scatterers) / n
    cy = sum(s.y0 for s in model.scatterers) / n
    cz = sum(s.z0 for s in model.scatterers) / n
    x2 = sum((s.x0 - cx) ** 2 for s in model.scatterers) / n
    y2 = sum((s.y0 - cy) ** 2 for s in model.scatterers) / n
    z2 = sum((s.z0 - cz) ** 2 for s in model.scatterers) / n
    if x2 <= 0:
        raise ValueError("zero alongship variance")
    return x2, y2 / x2, z2 / x2
