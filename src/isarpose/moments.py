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

Frames that share a report count are one group (Dwell.frame_groups), and
each group's weighted sums are taken in one array pass; the moments are
then formed from the sums of every frame at once. Each row's sums run in
the order a lone frame's 1-D dot products take them, so a frame's record
does not depend on the group it is in.
"""

from __future__ import annotations

import numpy as np

from .ship import Dwell

EPS_VAR = 1e-12

MOMENT_DTYPE = np.dtype([
    ("t", np.float64), ("valid", np.bool_), ("cov_rf", np.float64),
    ("cov_ff", np.float64), ("cov_ra", np.float64), ("cov_fa", np.float64),
    ("crf", np.float64), ("d_intrinsic", np.float64), ("r_var", np.float64),
    ("sd_rf", np.float64), ("sd_d", np.float64)])
"""Scaled covariances of one frame per record. valid is False when fewer
than three reports survive, the normalized weights are not finite, or
the debiased <rr> or <ff> is at most EPS_VAR; the numeric fields are then
0. sd_rf/sd_d are the noise sds of cov_rf and d_intrinsic under the report
sigmas whose floor was removed (0 without them). A frame's report count is
the dwell's (Dwell.counts), its range extent the length stage's."""


def snr_power(snr_db) -> np.ndarray:
    """Linear power from dB SNR, elementwise."""
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def _weights(snr_db: np.ndarray, weighting: str) -> np.ndarray:
    if weighting == "uniform":
        return np.ones(snr_db.shape)
    if weighting == "snr":
        return snr_power(snr_db)
    raise ValueError(f"unknown weighting: {weighting}")


def c_pow(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p element by element, as Python floats compute it through C pow.
    NumPy's square and sqrt round differently from it in the last bit now
    and then, and the moments and pose scores keep the bits of their scalar
    formulas."""
    return np.array([v ** p for v in x.tolist()])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, n) arrays of contiguous rows, each
    summed as the 1-D x[i] @ y[i] sums it (einsum and (x * y).sum(1) sum
    in other orders)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


# the weighted sums of a frame's reports that its moments are formed from
_SUMS = ("rr", "ff", "rf", "ra", "fa", "s_rr", "s_rf", "s_ff")


def _sums(reports: np.ndarray, weighting: str, var_r: float,
          var_f: float) -> np.ndarray:
    """The _SUMS of k frames of n >= 3 reports each, in one array pass, as
    a (len(_SUMS), k) array: reports is their (k, n) REPORT_DTYPE array, one
    frame a row. With w a frame's normalized weights and r, f, a its reports
    centered on their weighted means, rr = <r r> and ff = <f f> less the
    noise floors of the report variances var_r (m^2) and var_f (m^2/s^2);
    rf, ra, fa the other weighted moments; s_rr, s_rf, s_ff the
    w^2-weighted ones."""
    # an SNR whose power overflows, or a frame whose every weight underflows
    # to 0, leaves NaN weights and so NaN sums
    with np.errstate(over="ignore", invalid="ignore"):
        w = _weights(reports["snr"], weighting)
        w = w / w.sum(axis=1, keepdims=True)
    # contiguous rows: BLAS sums a strided row's dot product in another
    # order, which would move the last bits of every moment
    r, f, a = (np.array(reports[name]) for name in ("r", "f", "a"))
    r = r - _dot(w, r)[:, None]
    f = f - _dot(w, f)[:, None]
    a = a - _dot(w, a)[:, None]
    spread = 1.0 - _dot(w, w)
    w2 = w * w
    w2r = w2 * r
    return np.stack((_dot(w, r * r) - var_r * spread,
                     _dot(w, f * f) - var_f * spread,
                     _dot(w, r * f), _dot(w, r * a), _dot(w, f * a),
                     _dot(w2r, r), _dot(w2r, f), _dot(w2 * f, f)))


def _moments(groups, t: np.ndarray, weighting: str, var_r: float,
             var_f: float) -> np.recarray:
    """Read-only MOMENT_DTYPE table of frames at times t (s), given as groups
    of equal report count, (index, reports) pairs as Dwell.frame_groups
    holds them. One array pass per group gathers its frames' _SUMS; one
    pass over every frame forms the moments from them, with the noise
    floors var_r (m^2) and var_f (m^2/s^2) removed from <rr> and <ff> and
    propagated to sd_rf, sd_d: sd^2 = var_r sum (d/d r_i)^2 + var_f sum
    (d/d f_i)^2. Only valid frames reach the formulas."""
    out = np.zeros(len(t), MOMENT_DTYPE)
    out["t"] = t
    # a frame of under three reports keeps zero sums, which fail `valid`
    sums = np.zeros((len(_SUMS), len(t)))
    for index, reports in groups:
        if reports.shape[1] >= 3:
            sums[:, index] = _sums(reports, weighting, var_r, var_f)
    valid = (sums[0] > EPS_VAR) & (sums[1] > EPS_VAR)   # False for NaN sums
    rr, ff, rf, ra, fa, s_rr, s_rf, s_ff = sums[:, valid]
    cov_rf = rf / rr
    cov_ff = ff / rr
    # a rigid ship's |crf| is at most 1; debiasing can carry a string of
    # pearls frame past it, where the pearls score would change sign
    crf = np.clip(cov_rf / np.sqrt(cov_ff), -1.0, 1.0)
    # noise sds: with c = cov_rf and k = cov_ff - 2 c^2, the partials are
    # d c/d r_i = w_i (f_i - 2 c r_i) / rr, d c/d f_i = w_i r_i / rr,
    # d d/d r_i = -2 w_i (k r_i + c f_i) / rr, d d/d f_i = 2 w_i (f_i - c r_i) / rr,
    # whose squares sum to forms in the w^2-weighted moments of r and f
    c, c2 = cov_rf, c_pow(cov_rf, 2)
    k = cov_ff - 2 * c2
    columns = {
        "cov_rf": cov_rf, "cov_ff": cov_ff, "cov_ra": ra / rr,
        "cov_fa": fa / rr, "crf": crf, "d_intrinsic": cov_ff - c2,
        "r_var": rr,
        "sd_rf": c_pow(np.maximum(
            var_r * (s_ff - 4 * c * s_rf + 4 * c * c * s_rr)
            + var_f * s_rr, 0.0), 0.5) / rr,
        "sd_d": 2 * c_pow(np.maximum(
            var_r * (k * k * s_rr + 2 * k * c * s_rf + c * c * s_ff)
            + var_f * (s_ff - 2 * c * s_rf + c * c * s_rr), 0.0), 0.5) / rr}
    out["valid"] = valid
    for name, col in columns.items():
        out[name][valid] = col
    out = out.view(np.recarray)
    out.flags.writeable = False
    return out


def moments_series(dwell: Dwell, weighting: str = "uniform") -> np.recarray:
    """Read-only MOMENT_DTYPE record array, one record per frame in order,
    invalid frames kept: mom.cov_rf is a column, mom[k] is frame k. One array
    pass per group of dwell.frame_groups. The noise floor of the dwell's
    report_sigmas is removed; a dwell without them is not debiased."""
    sig_r, sig_f, _ = dwell.report_sigmas or (0.0, 0.0, 0.0)
    return _moments(dwell.frame_groups, dwell.t, weighting, sig_r ** 2,
                    sig_f ** 2)


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
