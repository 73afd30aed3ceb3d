"""Per-frame second-moment summaries of target reports.

All covariances are centered on the frame mean and scaled by the range
variance, which removes ship size from the estimation problem:

    cov_rf = <r f> / <r r>   (1/s)      cov_ff = <f f> / <r r>   (1/s^2)
    cov_ra = <r a> / <r r>   (1/s^2)    cov_fa = <f a> / <r r>   (1/s^3)

crf = cov_rf / sqrt(cov_ff) is the range/rate correlation and
d_intrinsic = cov_ff - cov_rf^2 vanishes exactly when the frame is a
string of pearls (rate a linear function of range).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ship import Dwell, Frame

EPS_VAR = 1e-12


@dataclass(frozen=True)
class FrameMoments:
    """Scaled covariances of one frame. valid=False when fewer than three
    reports survive or the range spread is zero; numeric fields are then 0."""

    t: float
    n_targets: int
    valid: bool
    cov_rf: float = 0.0
    cov_ff: float = 0.0
    cov_ra: float = 0.0
    cov_fa: float = 0.0
    crf: float = 0.0
    d_intrinsic: float = 0.0
    r_var: float = 0.0
    r_min: float = 0.0
    r_max: float = 0.0
    a_r: float = 0.0
    a_f: float = 0.0


def snr_power(snr_db) -> np.ndarray:
    """Linear power from dB SNR, elementwise."""
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def _weights(snr_db: np.ndarray, weighting: str) -> np.ndarray:
    if weighting == "uniform":
        return np.ones(len(snr_db))
    if weighting == "snr":
        return snr_power(snr_db)
    raise ValueError(f"unknown weighting: {weighting}")


def _columns(reports: np.recarray) -> tuple[np.ndarray, ...]:
    # contiguous copies: BLAS sums a strided column's dot product in
    # another order, which would move the last bits of every moment
    return (np.array(reports.r), np.array(reports.f), np.array(reports.a))


def focus_regression(reports: np.recarray,
                     weights: np.ndarray | None = None) -> tuple[float, float]:
    """Acceleration regressed on (range, rate): a ~ A_r * r + A_f * f.

    Solves the centered normal equations directly:
        A_r = (<ra><ff> - <fa><rf>) / Det,  A_f = (<fa><rr> - <ra><rf>) / Det
    with Det = <rr><ff>(1 - crf^2). Near-collinear frames (crf^2 > 0.98) have
    Det shrunk toward zero, so the estimates are damped instead of exploding.
    """
    r, f, a = _columns(reports)
    w = np.ones_like(r) if weights is None else np.asarray(weights, dtype=float)
    w = w / w.sum()
    r = r - w @ r
    f = f - w @ f
    a = a - w @ a
    rr = w @ (r * r)
    ff = w @ (f * f)
    rf = w @ (r * f)
    ra = w @ (r * a)
    fa = w @ (f * a)
    if rr <= EPS_VAR or ff <= EPS_VAR:
        return 0.0, 0.0
    crf2 = rf * rf / (rr * ff)
    det = rr * ff * max(1.0 - crf2, 0.02)
    a_r = (ra * ff - fa * rf) / det
    a_f = (fa * rr - ra * rf) / det
    return float(a_r), float(a_f)


def frame_moments(frame: Frame, weighting: str = "uniform") -> FrameMoments:
    """Scaled covariances of a single frame; invalid when under-populated."""
    reports = frame.reports
    if len(reports) < 3:
        return FrameMoments(t=frame.t, n_targets=len(reports), valid=False)
    w = _weights(reports.snr, weighting)
    w = w / w.sum()
    r, f, a = _columns(reports)
    r = r - w @ r
    f = f - w @ f
    a = a - w @ a
    rr = float(w @ (r * r))
    if rr <= EPS_VAR:
        return FrameMoments(t=frame.t, n_targets=len(reports), valid=False)
    ff = float(w @ (f * f))
    rf = float(w @ (r * f))
    ra = float(w @ (r * a))
    fa = float(w @ (f * a))
    cov_rf = rf / rr
    cov_ff = ff / rr
    crf = cov_rf / np.sqrt(cov_ff) if cov_ff > EPS_VAR else 0.0
    a_r, a_f = focus_regression(reports, w)
    return FrameMoments(
        t=frame.t, n_targets=len(reports), valid=True,
        cov_rf=cov_rf, cov_ff=cov_ff, cov_ra=ra / rr, cov_fa=fa / rr,
        crf=float(crf), d_intrinsic=cov_ff - cov_rf ** 2, r_var=rr,
        r_min=float(reports.r.min()), r_max=float(reports.r.max()),
        a_r=a_r, a_f=a_f)


def moments_series(dwell: Dwell, weighting: str = "uniform") -> list[FrameMoments]:
    """frame_moments over a dwell, order preserved, invalid frames kept."""
    return [frame_moments(fr, weighting) for fr in dwell.frames]


def time_derivative(t: np.ndarray, y: np.ndarray,
                    valid: np.ndarray | None = None) -> np.ndarray:
    """Gap-aware time derivative of a frame series.

    Centered differences in the interior, one-sided at the ends, computed
    only over valid samples with their true (possibly gapped) timestamps.
    Invalid slots come back NaN.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if valid is None:
        valid = np.isfinite(y)
    else:
        valid = np.asarray(valid, dtype=bool) & np.isfinite(y)
    out = np.full(t.shape, np.nan)
    idx = np.flatnonzero(valid)
    if idx.size >= 2:
        out[idx] = np.gradient(y[idx], t[idx])
    return out
