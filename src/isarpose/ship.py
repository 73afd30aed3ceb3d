"""Domain types shared by every stage: ships, angle tracks, target reports.

Drydock coordinates: x alongship (m), y cross-ship (m), z height (m).
All angles in radians. All types are immutable value data and safe to
share between threads. A dwell holds every report in one table, frame by
frame, with each frame's report count, and every stage reads that table
or its frame groups. A Frame, one frame's reports as a view of the table,
remains only for benchmarks/tracing.py, which counts reports through
Dwell.frames.
The rules of dwell input are held here once, metadata_fault and
report_fault: every Dwell applies both, and the dwell file reader too.
"""

from __future__ import annotations

import functools
import math
import sys
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


def is_json_number(value) -> bool:
    """True for an int or float, which JSON numbers load as; not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for a JSON number that is finite as a float; not the NaN or
    Infinity that Python's json reads."""
    return (is_json_number(value)
            and -sys.float_info.max <= value <= sys.float_info.max)


def is_count(value) -> bool:
    """True for a non-negative integral JSON number, 120.0 included; not a
    bool, nor a fraction such as 2.7 that int() would truncate."""
    return is_number(value) and value == int(value) and value >= 0


MAX_INTEGRATION_TIME = math.sqrt(sys.float_info.max)
MIN_INTEGRATION_TIME = 1 / MAX_INTEGRATION_TIME
"""Integration times (s) whose square and inverse square are finite floats:
the pose stage scales motion-matrix rows by T^2, and report_noise divides
by it."""

SIGMA_KEYS = ("sigma_range_m", "sigma_doppler_mps", "sigma_accel_mps2")
"""Dwell file header keys of the report noise sigmas, in Dwell's order."""


def metadata_fault(n_frames, frame_interval, integration_time, phi0, theta0,
                   range_resolution, report_sigmas=None
                   ) -> tuple[str, str] | None:
    """(key, reason) of the first rule of dwell metadata that the values
    break, None if they break none. The dwell file header, ScenarioConfig
    and Dwell each check their metadata here and name the key behind their
    own prefix. Keys are the header's; phi0 and theta0 are in radians."""
    for key, value in (("frame_interval", frame_interval),
                       ("integration_time", integration_time),
                       ("range_resolution_m", range_resolution)):
        # the test fails NaN, and integers too large for a float
        if not 0 < value <= sys.float_info.max:
            return key, "must be positive and finite"
    if not MIN_INTEGRATION_TIME <= integration_time <= MAX_INTEGRATION_TIME:
        return "integration_time", (
            f"must be from {MIN_INTEGRATION_TIME!r} to "
            f"{MAX_INTEGRATION_TIME!r}, where its square and inverse square "
            "are finite")
    # < 2 ** 63 compares exactly, where an int64 would round to a float
    if not (is_count(n_frames) and 1 <= n_frames < 2 ** 63):
        return "n_frames", "must be an integer from 1 to the int64 maximum"
    for key, rad in (("phi0_deg", phi0), ("theta0_deg", theta0)):
        if not in_angle_range(rad):
            return key, "must be finite and strictly between -90 and 90"
    for key, sigma in zip(SIGMA_KEYS, report_sigmas or ()):
        if not (is_number(sigma) and sigma >= 0):
            return key, "must be a finite number >= 0"
    return None


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


def report_fault(frame_index, reports, truth_id, n_frames, frame_interval,
                 prev=(-1, -math.inf)) -> tuple[int, str] | None:
    """(row, reason) of the first report that breaks a report rule, None if
    none does; a report's rules run in the order below. Every report of a
    Dwell and every report line of a dwell file must pass them. The
    arguments hold consecutive reports, reports with REPORT_DTYPE's five
    float fields; prev is the (frame_index, t) before the first."""
    t = reports["t"]
    finite = np.logical_and.reduce([np.isfinite(reports[name])
                                    for name in REPORT_DTYPE.names[:5]])
    prev_idx = np.concatenate(([prev[0]], frame_index[:-1]))
    prev_t = np.concatenate(([prev[1]], t[:-1]))
    rules = (
        (~finite, "report fields must be finite"),
        ((frame_index < 0) | (frame_index >= n_frames),
         "frame_index {idx} outside 0..{last}"),
        (frame_index < prev_idx, "frame_index decreases"),
        ((t < prev_t) & (frame_index == prev_idx), "time decreases within a frame"),
        (np.abs(t - (frame_index + 0.5) * frame_interval)
         > 0.5 * frame_interval, "time {t} inconsistent with frame {idx}"),
        # -1 is none; the reader reads a cell of no valid id as below -1
        (truth_id < -1, "bad truth_id"),
    )
    faults = [(int(mask.argmax()), why) for mask, why in rules if mask.any()]
    if not faults:
        return None
    # the earliest row, and of its faults the first rule's
    row, why = min(faults, key=lambda fault: fault[0])
    return row, why.format(idx=int(frame_index[row]), t=float(t[row]),
                           last=n_frames - 1)


# Dwell checks runs of _RULE_ROWS reports, whose masks stay in cache
_RULE_ROWS = 8192
# a report as raw bytes, which NumPy copies faster than a record's fields
_RAW_REPORT = np.dtype((np.void, REPORT_DTYPE.itemsize))


@dataclass(frozen=True, eq=False)
class Frame:
    """All reports of one image frame; its index and times are its dwell's.

    reports is a read-only 1-D REPORT_DTYPE record array, so each field is
    one column (fr.reports.r). Its dwell holds the reports to report_fault.
    No stage takes a Frame: the views remain only for benchmarks/tracing.py,
    which counts a dwell's reports through Dwell.frames.
    """

    reports: np.recarray

    def __post_init__(self):
        reports = np.asarray(self.reports).view(np.recarray)
        if reports.dtype != REPORT_DTYPE or reports.ndim != 1:
            raise ValueError("reports must be a 1-D REPORT_DTYPE array")
        reports.flags.writeable = False
        object.__setattr__(self, "reports", reports)


@dataclass(frozen=True, eq=False)
class Dwell:
    """One continuous observation: at least one frame plus metadata.

    reports holds every report in one read-only plain REPORT_DTYPE table,
    frame by frame in order, and counts[k] is frame k's report count (a
    read-only int64 array), so frame k's reports are the table slice
    reports[offsets[k]:offsets[k + 1]]. Frame k is centred at
    t[k] = (k + 0.5) * frame_interval and integrates for integration_time
    (both s). phi0/theta0 are the externally supplied mean aspect/tilt
    (rad), and range_resolution is in m. report_sigmas are the nominal
    report noise sigmas (range m, Doppler m/s, acceleration m/s^2), or None
    when unknown. The metadata must pass metadata_fault; its error names
    the dwell file header's key ("phi0_deg must be ..."). The reports,
    frame k's with frame_index k, must pass report_fault, whose error
    follows "frame k: ". So every Dwell saves as a file that loads.
    """

    reports: np.ndarray
    counts: np.ndarray
    phi0: float
    theta0: float
    range_resolution: float
    frame_interval: float
    integration_time: float
    report_sigmas: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.report_sigmas is not None:
            sig = tuple(float(s) for s in self.report_sigmas)
            if len(sig) != len(SIGMA_KEYS):
                raise ValueError("report sigmas must be three numbers")
            object.__setattr__(self, "report_sigmas", sig)
        reports, counts = np.asarray(self.reports), np.asarray(self.counts)
        fault = metadata_fault(len(counts), self.frame_interval,
                               self.integration_time, self.phi0, self.theta0,
                               self.range_resolution, self.report_sigmas)
        if fault is not None:
            raise ValueError(" ".join(fault))
        if reports.dtype != REPORT_DTYPE or reports.ndim != 1:
            raise ValueError("reports must be a 1-D REPORT_DTYPE array")
        if not (counts.ndim == 1 and counts.dtype.kind in "iu"
                and (counts >= 0).all() and counts.sum() == len(reports)):
            raise ValueError("counts must be one report count per frame, "
                             "summing to the reports")
        # a read-only view of the caller's table, and a copy of the counts
        for name, arr in (("reports", reports.view(REPORT_DTYPE)),
                          ("counts", counts.astype(np.int64))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        index = np.repeat(np.arange(len(counts)), counts)
        t = self.reports["t"]
        for lo in range(0, len(t), _RULE_ROWS):
            run = self.reports[lo:lo + _RULE_ROWS]
            prev = (index[lo - 1], t[lo - 1]) if lo else (-1, -math.inf)
            fault = report_fault(index[lo:lo + _RULE_ROWS], run,
                                 run["truth_id"], len(counts),
                                 self.frame_interval, prev)
            if fault is not None:
                raise ValueError(f"frame {index[lo + fault[0]]}: {fault[1]}")

    @property
    def t(self) -> np.ndarray:
        """Frame-centre times (s), one per frame."""
        return (np.arange(len(self.counts)) + 0.5) * self.frame_interval

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """Frame k's reports are reports[offsets[k]:offsets[k + 1]]."""
        offsets = np.concatenate(([0], np.cumsum(self.counts)))
        offsets.flags.writeable = False
        return offsets

    @functools.cached_property
    def frames(self) -> tuple[Frame, ...]:
        """Each frame's reports as a Frame, a view of the table, built on
        first use. No stage reads them; benchmarks/tracing.py counts a
        dwell's reports through them."""
        return tuple(map(Frame, np.split(self.reports, self.offsets[1:-1])))

    @functools.cached_property
    def frame_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The frames grouped by report count, for stages that run one array
        pass per group: an (index, reports) pair per count, in increasing
        count order. index holds the group's k frame indices in order, and
        reports is their read-only (k, n) plain REPORT_DTYPE array, frame
        index[i]'s reports its row i. A group of consecutive frames is a
        view of the table; any other group is gathered once per dwell."""
        order = np.argsort(self.counts, kind="stable")
        groups = []
        starts = np.flatnonzero(np.diff(self.counts[order])) + 1
        for index in np.split(order, starts):
            k, n = len(index), int(self.counts[index[0]])
            if index[-1] - index[0] == k - 1:
                lo = int(self.offsets[index[0]])
                rows = self.reports[lo:lo + k * n].reshape(k, n)
            else:
                rows = self.reports.view(_RAW_REPORT)[
                    self.offsets[index, None] + np.arange(n)]
                rows = rows.view(REPORT_DTYPE)
                rows.flags.writeable = False
            groups.append((index, rows))
        return tuple(groups)


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
