"""Per-frame second-moment summaries of target reports.

All covariances are centered on the frame mean and scaled by the range
variance, which removes ship size from the estimation problem:

    cov_rf = <r f> / <r r>   (1/s)      cov_ff = <f f> / <r r>   (1/s^2)
    cov_ra = <r a> / <r r>   (1/s^2)    cov_fa = <f a> / <r r>   (1/s^3)

crf = cov_rf / sqrt(cov_ff) is the range/rate correlation and
d_intrinsic = cov_ff - cov_rf^2 vanishes exactly when the frame is a
string of pearls (rate a linear function of range).

Report noise of sigma raises a weighted second moment about the weighted
mean by sigma^2 (1 - sum w^2) in expectation, w the normalized weights.
Given the nominal report sigmas, that floor is removed from <rr> and <ff>
before anything else is derived from them; <rf>, <ra> and <fa> carry no
floor, since the three noises are independent. The same sigmas give the
noise sd of each frame's cov_rf and d by the delta method on its reports.
"""

from __future__ import annotations

import numpy as np

from .ship import Dwell, Frame

EPS_VAR = 1e-12

MOMENT_DTYPE = np.dtype([
    ("t", np.float64), ("n_targets", np.int64), ("valid", np.bool_),
    ("cov_rf", np.float64), ("cov_ff", np.float64), ("cov_ra", np.float64),
    ("cov_fa", np.float64), ("crf", np.float64), ("d_intrinsic", np.float64),
    ("r_var", np.float64), ("r_min", np.float64), ("r_max", np.float64),
    ("a_r", np.float64), ("a_f", np.float64), ("sd_rf", np.float64),
    ("sd_d", np.float64)])
"""Scaled covariances of one frame per record. valid is False when fewer
than three reports survive or the debiased <rr> or <ff> is at most
EPS_VAR; the numeric fields are then 0. a_r/a_f are the focus coefficients
of the regression a ~ a_r * r + a_f * f over the frame's centered
reports. sd_rf/sd_d are the noise sds of cov_rf and d_intrinsic under
the report sigmas whose floor was removed (0 without them)."""


def snr_power(snr_db) -> np.ndarray:
    """Linear power from dB SNR, elementwise."""
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def _weights(snr_db: np.ndarray, weighting: str) -> np.ndarray:
    if weighting == "uniform":
        return np.ones(len(snr_db))
    if weighting == "snr":
        return snr_power(snr_db)
    raise ValueError(f"unknown weighting: {weighting}")


def _row(frame: Frame, t: float, weighting: str, var_r: float,
         var_f: float) -> tuple:
    """One MOMENT_DTYPE record of a frame at time t (s), as a tuple in
    field order, with the noise floors of the report variances var_r (m^2)
    and var_f (m^2/s^2) removed from <rr> and <ff> and propagated to sd_rf,
    sd_d: sd^2 = var_r sum (d/d r_i)^2 + var_f sum (d/d f_i)^2.

    The focus coefficients solve the centered normal equations directly:
        a_r = (<ra><ff> - <fa><rf>) / Det,  a_f = (<fa><rr> - <ra><rf>) / Det
    with Det = <rr><ff>(1 - crf^2). Near-collinear frames (crf^2 > 0.98) have
    Det shrunk toward zero, so the estimates are damped instead of exploding.
    """
    # plain-array field reads: a recarray attribute read costs ~30x more
    reports = frame.reports.view(np.ndarray)
    n = len(reports)
    invalid = (t, n, False) + (0.0,) * (len(MOMENT_DTYPE) - 3)
    if n < 3:
        return invalid
    w = _weights(reports["snr"], weighting)
    w = w / w.sum()
    # contiguous copies: BLAS sums a strided column's dot product in
    # another order, which would move the last bits of every moment
    r, f, a = (np.array(reports["r"]), np.array(reports["f"]),
               np.array(reports["a"]))
    r_min, r_max = float(r.min()), float(r.max())
    r = r - w @ r
    f = f - w @ f
    a = a - w @ a
    spread = 1.0 - float(w @ w)
    rr = float(w @ (r * r)) - var_r * spread
    ff = float(w @ (f * f)) - var_f * spread
    if rr <= EPS_VAR or ff <= EPS_VAR:
        return invalid
    rf = float(w @ (r * f))
    ra = float(w @ (r * a))
    fa = float(w @ (f * a))
    cov_rf = rf / rr
    cov_ff = ff / rr
    # a rigid ship's |crf| is at most 1; debiasing can carry a string of
    # pearls frame past it, where the pearls score would change sign
    crf = min(max(cov_rf / np.sqrt(cov_ff), -1.0), 1.0)
    det = rr * ff * max(1.0 - rf * rf / (rr * ff), 0.02)
    a_r = (ra * ff - fa * rf) / det
    a_f = (fa * rr - ra * rf) / det
    # noise sds: with c = cov_rf and k = cov_ff - 2 c^2, the partials are
    # d c/d r_i = w_i (f_i - 2 c r_i) / rr, d c/d f_i = w_i r_i / rr,
    # d d/d r_i = -2 w_i (k r_i + c f_i) / rr, d d/d f_i = 2 w_i (f_i - c r_i) / rr,
    # whose squares sum to forms in the w^2-weighted moments of r and f
    w2 = w * w
    w2r = w2 * r
    s_rr, s_rf, s_ff = float(w2r @ r), float(w2r @ f), float((w2 * f) @ f)
    c, k = cov_rf, cov_ff - 2 * cov_rf ** 2
    sd_rf = max(var_r * (s_ff - 4 * c * s_rf + 4 * c * c * s_rr)
                + var_f * s_rr, 0.0) ** 0.5 / rr
    sd_d = 2 * max(var_r * (k * k * s_rr + 2 * k * c * s_rf + c * c * s_ff)
                   + var_f * (s_ff - 2 * c * s_rf + c * c * s_rr), 0.0) ** 0.5 / rr
    return (t, n, True, cov_rf, cov_ff, ra / rr, fa / rr, crf,
            cov_ff - cov_rf ** 2, rr, r_min, r_max, a_r, a_f, sd_rf, sd_d)


def _table(rows: list[tuple]) -> np.recarray:
    out = np.array(rows, dtype=MOMENT_DTYPE).view(np.recarray)
    out.flags.writeable = False
    return out


def frame_moments(frame: Frame, t: float,
                  weighting: str = "uniform") -> np.record:
    """Scaled covariances of a single frame at time t (s) as one MOMENT_DTYPE
    record; invalid when under-populated. No noise floor is removed."""
    return _table([_row(frame, t, weighting, 0.0, 0.0)])[0]


def moments_series(dwell: Dwell, weighting: str = "uniform") -> np.recarray:
    """Read-only MOMENT_DTYPE record array, one record per frame in order,
    invalid frames kept: mom.cov_rf is a column, mom[k] is frame k. The
    noise floor of the dwell's report_sigmas is removed; a dwell without
    them is not debiased."""
    sig_r, sig_f, _ = dwell.report_sigmas or (0.0, 0.0, 0.0)
    return _table([_row(fr, t, weighting, sig_r ** 2, sig_f ** 2)
                   for fr, t in zip(dwell.frames, dwell.t.tolist())])


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
