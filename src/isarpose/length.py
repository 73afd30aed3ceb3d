"""Length-overall estimation from per-frame range extent.

The projected range extent of the hull shrinks with both rotations and is
widened by the beam whenever the aspect is off bow-on; inverting the
projection frame by frame and medianing kills most single-frame damage.
Multipath ghosts appear beyond the far end of the hull at depressed SNR, so
far-range outliers are screened before the extent is read off. All lengths
in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ship import Dwell, Frame

FOOT = 0.3048
MIN_PROJECTION = 0.1   # |cos(phi) cos(theta)| floor for a usable frame
BEAM_CLAMP = 0.5       # corrected length never drops under half the raw


@dataclass(frozen=True)
class LengthEstimate:
    loa: float
    loa_series: np.ndarray
    rmin_std: float
    rmax_std: float
    frames_used: int
    width_correction: float


def beam_rule(loa: float) -> float:
    """Rule-of-thumb beam for a hull of the given length.

    Working in feet: beam_ft = loa_ft^(2/3) + 1, converted back to meters.
    Monotone in loa and about 10 m for a 150 m hull.
    """
    if loa < 0:
        raise ValueError("length must be non-negative")
    loa_ft = loa / FOOT
    return (loa_ft ** (2.0 / 3.0) + 1.0) * FOOT


def frame_loa(r_min: float, r_max: float, phi: float, theta: float,
              beam: float) -> float:
    """Length from one frame's range extent at known angles.

    raw = (r_max - r_min) / (cos(phi) cos(theta)) undoes the projection;
    subtracting beam * |tan(phi)| removes the cross-ship widening. Frames
    too near broadside (projection under MIN_PROJECTION) return NaN, and
    the correction never removes more than half the raw length.
    """
    proj = math.cos(phi) * math.cos(theta)
    if abs(proj) <= MIN_PROJECTION:
        return float("nan")
    raw = (r_max - r_min) / abs(proj)
    corrected = raw - beam * abs(math.tan(phi))
    return max(corrected, BEAM_CLAMP * raw)


def multipath_guard(reports: np.recarray, k_mad: float = 3.0,
                    snr_drop_db: float = 6.0) -> np.recarray:
    """Drop far-range ghosts: beyond the 90th percentile by k_mad robust
    sigmas AND at least snr_drop_db below the frame median SNR. Near-range
    reports are never dropped (the bow is real). Needs five reports to have
    a usable percentile; smaller frames pass through."""
    if len(reports) < 5:
        return reports
    r, snr = reports.r, reports.snr
    p90 = np.percentile(r, 90)
    mad = 1.4826 * np.median(np.abs(r - np.median(r)))
    med_snr = np.median(snr)
    far = r > p90 + k_mad * max(mad, 1e-9)
    weak = snr <= med_snr - snr_drop_db
    keep = ~(far & weak)
    return reports[keep]


def _frame_extent(frame: Frame) -> tuple[float, float] | None:
    reports = multipath_guard(frame.reports)
    if len(reports) < 3:
        return None
    return float(reports.r.min()), float(reports.r.max())


def estimate_loa(dwell: Dwell, track, badfit_series=None) -> LengthEstimate:
    """Dwell-level length estimate.

    Per-frame lengths start with no beam correction, then the beam from the
    rule of thumb is iterated to a fixed point: the rule's argument must be
    the corrected length, not the raw extent, or the beam (and hence the
    correction) comes out oversized. The final value is a double median:
    the inner median sets a center, the outer median runs over frames
    within 25% of it, so stray frames cannot shift the answer. Frames
    flagged by the fit check, frames near broadside, and frames left with
    under three reports after the multipath screen are excluded; fewer
    than five survivors is an error.
    """
    phi, theta = track.samples.phi, track.samples.theta
    n = len(dwell.frames)
    if len(phi) != n:
        raise ValueError("angle track and dwell lengths disagree")
    extents = [_frame_extent(fr) for fr in dwell.frames]
    usable = np.array([e is not None for e in extents], dtype=bool)
    if badfit_series is not None:
        usable &= ~np.asarray(badfit_series.flagged, dtype=bool)
    usable &= np.abs(np.cos(phi) * np.cos(theta)) > MIN_PROJECTION

    def series(beam: float) -> np.ndarray:
        vals = np.full(n, np.nan)
        for k in range(n):
            if usable[k]:
                r_lo, r_hi = extents[k]
                vals[k] = frame_loa(r_lo, r_hi, phi[k], theta[k], beam)
        return vals

    def double_median(vals: np.ndarray) -> float:
        core = vals[np.isfinite(vals)]
        inner = float(np.median(core))
        near = core[np.abs(core - inner) <= 0.25 * inner]
        return float(np.median(near)) if near.size else inner

    if usable.sum() < 5:
        raise ValueError("insufficient frames for length estimation")
    beam = 0.0
    second = series(beam)
    loa = double_median(second)
    for _ in range(4):
        beam = beam_rule(loa)
        second = series(beam)
        loa = double_median(second)

    r_min = np.array([extents[k][0] if usable[k] else np.nan for k in range(n)])
    r_max = np.array([extents[k][1] if usable[k] else np.nan for k in range(n)])

    def extent_std(x: np.ndarray) -> float:
        x = x[np.isfinite(x)]
        if x.size < 3:
            return float("nan")
        return float(np.std(x))

    return LengthEstimate(loa=loa, loa_series=second,
                          rmin_std=extent_std(r_min),
                          rmax_std=extent_std(r_max),
                          frames_used=int(usable.sum()),
                          width_correction=beam)
