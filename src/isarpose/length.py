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

from .ship import Dwell
from .validate import MAD_TO_SIGMA

FOOT = 0.3048
MIN_PROJECTION = 0.1   # |cos(phi) cos(theta)| floor for a usable frame
BEAM_CLAMP = 0.5       # corrected length never drops under half the raw
GHOST_K_MAD = 3.0      # a ghost lies this many robust sigmas past the p90 ...
GHOST_SNR_DROP_DB = 6.0  # ... and this far under the frame's median SNR


@dataclass(frozen=True)
class LengthEstimate:
    """A dwell's length loa (m); loa_series its frame lengths (NaN on unused
    frames), read from the range extents r_min/r_max that the multipath
    screen leaves (NaN where under three reports survive it)."""

    loa: float
    loa_series: np.ndarray
    r_min: np.ndarray
    r_max: np.ndarray
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


def frame_loa(r_min, r_max, proj, lever, beam: float) -> np.ndarray:
    """Length of each frame from its range extent at known angles.

    r_min, r_max, proj = cos(phi) cos(theta) and lever = |tan(phi)| are
    arrays of one value per frame. raw = (r_max - r_min) / |proj| undoes
    the projection; subtracting beam * lever removes the cross-ship
    widening. Frames too near broadside (|proj| <= MIN_PROJECTION) give
    NaN, and the correction never removes more than half the raw length.
    """
    proj = np.abs(proj)
    raw = (r_max - r_min) / proj
    return np.where(proj > MIN_PROJECTION,
                    np.maximum(raw - beam * lever, BEAM_CLAMP * raw), np.nan)


def _screen(r: np.ndarray, snr: np.ndarray) -> np.ndarray:
    """Keep mask of the multipath screen over k frames of n reports each:
    r and snr are (k, n), one frame a row, and so is the mask. A far-range
    ghost lies beyond its frame's 90th percentile by GHOST_K_MAD robust
    sigmas AND at least GHOST_SNR_DROP_DB below its median SNR; near-range
    reports are never dropped (the bow is real). Frames of under five
    reports, too few for a usable percentile, keep every report."""
    if r.shape[1] < 5:
        return np.ones(r.shape, dtype=bool)
    p90 = np.percentile(r, 90, axis=1)
    mad = MAD_TO_SIGMA * np.median(np.abs(r - np.median(r, axis=1)[:, None]), axis=1)
    far = r > (p90 + GHOST_K_MAD * np.maximum(mad, 1e-9))[:, None]
    weak = snr <= (np.median(snr, axis=1) - GHOST_SNR_DROP_DB)[:, None]
    return ~(far & weak)


def _extents(dwell: Dwell) -> tuple[np.ndarray, np.ndarray]:
    """Range extent (r_min, r_max) of each frame's reports after the
    multipath screen, NaN where under three reports survive. The frames of
    each of dwell.frame_groups are screened together, one frame a row."""
    r_lo = np.full(len(dwell.counts), np.nan)
    r_hi = np.full(len(dwell.counts), np.nan)
    for index, reports in dwell.frame_groups:
        if reports.shape[1] < 3:
            continue
        r = reports["r"]
        keep = _screen(r, reports["snr"])
        ok = keep.sum(axis=1) >= 3
        r_lo[index[ok]] = np.where(keep, r, np.inf).min(axis=1)[ok]
        r_hi[index[ok]] = np.where(keep, r, -np.inf).max(axis=1)[ok]
    return r_lo, r_hi


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
    n = len(dwell.counts)
    if len(phi) != n:
        raise ValueError("angle track and dwell lengths disagree")
    r_lo, r_hi = _extents(dwell)
    usable = np.isfinite(r_lo)
    if badfit_series is not None:
        usable &= ~np.asarray(badfit_series.flagged, dtype=bool)
    # each frame's projection and beam lever, taken with math: NumPy's cos
    # and tan round differently from C's in the last bit now and then, and
    # the lengths keep the bits of their scalar formulas
    proj = np.array([math.cos(p) * math.cos(q)
                     for p, q in zip(phi.tolist(), theta.tolist())])
    lever = np.array([abs(math.tan(p)) for p in phi.tolist()])
    usable &= np.abs(proj) > MIN_PROJECTION
    used = np.flatnonzero(usable)

    def series(beam: float) -> np.ndarray:
        vals = np.full(n, np.nan)
        vals[used] = frame_loa(r_lo[used], r_hi[used], proj[used],
                               lever[used], beam)
        return vals

    def double_median(vals: np.ndarray) -> float:
        core = vals[np.isfinite(vals)]
        inner = float(np.median(core))
        near = core[np.abs(core - inner) <= 0.25 * inner]
        return float(np.median(near)) if near.size else inner

    if usable.sum() < 5:
        raise ValueError("insufficient frames for length estimation")
    loa = None
    for _ in range(5):
        beam = 0.0 if loa is None else beam_rule(loa)
        second = series(beam)
        loa = double_median(second)

    # usable frames have finite extents, and at least five of them
    return LengthEstimate(loa=loa, loa_series=second, r_min=r_lo, r_max=r_hi,
                          rmin_std=float(np.std(r_lo[usable])),
                          rmax_std=float(np.std(r_hi[usable])),
                          frames_used=int(usable.sum()),
                          width_correction=beam)
