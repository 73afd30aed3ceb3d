"""Self-validation of the motion solution against unused data channels.

The acceleration covariances are never used by the angle estimator, so they
make an independent check twice over: once purely from data (the rigid-body
chain rule links cov_ra and cov_fa to time derivatives of cov_rf and
cov_ff), and once against the converged model (BadFit). Frames where either
disagrees carry targets that do not move with the ship.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import ModelCovariances
from .moments import time_derivative

MAD_TO_SIGMA = 1.4826
BADFIT_THRESHOLD = 3.0   # badfit flags a frame whose score is over this
PEARLS_LIMIT = 0.9       # crosscheck_focus judges frames under this crf^2

CONSISTENCY_DTYPE = np.dtype([
    ("valid", np.bool_), ("cov_ra_meas", np.float64),
    ("cov_ra_synth", np.float64), ("cov_fa_meas", np.float64),
    ("cov_fa_synth", np.float64)])
"""Measured vs synthesized acceleration covariances, one record per frame;
all 0 where valid is False."""


@dataclass(frozen=True)
class BadFitSeries:
    """Per-frame fit-quality score; flagged where score > threshold.
    score is inf on frames the check cannot judge."""

    score: np.ndarray
    n_accel: np.ndarray
    n_spread: np.ndarray
    flagged: np.ndarray
    threshold: float


@dataclass(frozen=True)
class FocusCheck:
    """Data-side vs model-side focus coefficients.

    rms_r/rms_f are relative RMS disagreements over frames away from the
    collinear (pearls) regime, where the coefficients are well conditioned.
    """

    a_r_data: np.ndarray
    a_f_data: np.ndarray
    a_r_out: np.ndarray
    a_f_out: np.ndarray
    conditioned: np.ndarray
    rms_r: float
    rms_f: float


def consistency_synth(mom: np.recarray) -> np.recarray:
    """Acceleration covariances predicted from the range/rate covariances.

    For rigid motion the scaled covariances obey
        cov_ra = d/dt(cov_rf) - cov_ff + 2 cov_rf^2
        cov_fa = d/dt(cov_ff)/2 + cov_ff cov_rf
    so both come from the measured series alone, no model fit involved.
    The derivatives are gap-aware and skip invalid frames. mom is a
    moments_series table; the result is a read-only CONSISTENCY_DTYPE
    record array aligned with it.
    """
    t, valid, cov_rf, cov_ff = mom.t, mom.valid, mom.cov_rf, mom.cov_ff
    rf_dot = time_derivative(t, cov_rf, valid)
    ff_dot = time_derivative(t, cov_ff, valid)
    ok = valid & np.isfinite(rf_dot) & np.isfinite(ff_dot)
    out = np.recarray(len(mom), dtype=CONSISTENCY_DTYPE)
    out.valid = ok
    out.cov_ra_meas = np.where(ok, mom.cov_ra, 0.0)
    out.cov_ra_synth = np.where(ok, rf_dot - cov_ff + 2.0 * cov_rf ** 2, 0.0)
    out.cov_fa_meas = np.where(ok, mom.cov_fa, 0.0)
    out.cov_fa_synth = np.where(ok, 0.5 * ff_dot + cov_ff * cov_rf, 0.0)
    out.flags.writeable = False
    return out


def _mad_normalize(delta: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Robust z-scores of a residual channel over its valid frames."""
    z = np.zeros_like(delta)
    dv = delta[valid]
    med = np.median(dv)
    scale = MAD_TO_SIGMA * np.median(np.abs(dv - med))
    scale = max(scale, 1e-12, 1e-6 * float(np.max(np.abs(dv)) if dv.size else 0.0))
    z[valid] = (delta[valid] - med) / scale
    return z


def badfit(mom: np.recarray, records: np.recarray, d_out: np.ndarray,
           threshold: float = BADFIT_THRESHOLD) -> BadFitSeries:
    """Per-frame score 0.7 * n_accel + 0.3 * n_spread.

    n_accel is the magnitude of the robustly normalized disagreement between
    measured and synthesized acceleration covariances; n_spread is the
    normalized disagreement between the measured intrinsic spread d and the
    converged model's d_out. Normalization is median/MAD over valid frames,
    so a handful of contaminated frames cannot drag the scale. When no frame
    is valid every frame is flagged. mom is a moments_series table and
    records its consistency_synth table.
    """
    n = len(mom)
    if len(records) != n or len(d_out) != n:
        raise ValueError("series lengths disagree")
    valid = mom.valid & records.valid
    if not valid.any():
        inf = np.full(n, np.inf)
        return BadFitSeries(score=inf, n_accel=inf, n_spread=inf,
                            flagged=np.ones(n, dtype=bool),
                            threshold=threshold)
    d_ra = records.cov_ra_meas - records.cov_ra_synth
    d_fa = records.cov_fa_meas - records.cov_fa_synth
    d_d = mom.d_intrinsic - np.asarray(d_out)
    z_ra = _mad_normalize(d_ra, valid)
    z_fa = _mad_normalize(d_fa, valid)
    z_d = _mad_normalize(d_d, valid)
    n_accel = np.hypot(z_ra, z_fa)
    n_spread = np.abs(z_d)
    score = 0.7 * n_accel + 0.3 * n_spread
    flagged = np.where(valid, score > threshold, True)
    score = np.where(valid, score, np.inf)
    return BadFitSeries(score=score, n_accel=n_accel, n_spread=n_spread,
                        flagged=flagged, threshold=threshold)


def _focus(cov_rf, cov_ff, cov_ra, cov_fa) -> np.ndarray:
    """Focus coefficients [a_r, a_f] of the regression a ~ a_r r + a_f f
    over a frame's centered reports, from its scaled covariances:
        a_r = (cov_ra cov_ff - cov_fa cov_rf) / D
        a_f = (cov_fa - cov_ra cov_rf) / D,   D = cov_ff - cov_rf^2,
    with D floored at 0.02 cov_ff so both stay finite as the frame
    approaches a perfect range/rate line."""
    d_eff = np.maximum(cov_ff - cov_rf ** 2, 0.02 * cov_ff)
    return np.array([cov_ra * cov_ff - cov_fa * cov_rf,
                     cov_fa - cov_ra * cov_rf]) / d_eff


def crosscheck_focus(mom: np.recarray, model: ModelCovariances) -> FocusCheck:
    """Focus coefficients of the data's covariances vs of the model's: both
    are _focus, of the moments_series table mom's columns (0 on its invalid
    frames) and of model's. Frames with crf^2 of PEARLS_LIMIT or more are
    excluded from the summary statistics."""
    valid = mom.valid
    data = np.zeros((2, len(mom)))
    data[:, valid] = _focus(mom.cov_rf[valid], mom.cov_ff[valid],
                            mom.cov_ra[valid], mom.cov_fa[valid])
    (a_r_data, a_f_data), (a_r_out, a_f_out) = data, _focus(
        model.cov_rf, model.cov_ff, model.cov_ra, model.cov_fa)
    conditioned = valid & (mom.crf ** 2 < PEARLS_LIMIT)
    if conditioned.any():
        def rel_rms(data, out):
            scale = max(float(np.sqrt(np.mean(out[conditioned] ** 2))), 1e-12)
            return float(np.sqrt(np.mean((data[conditioned] - out[conditioned]) ** 2))
                         / scale)
        rms_r = rel_rms(a_r_data, a_r_out)
        rms_f = rel_rms(a_f_data, a_f_out)
    else:
        rms_r = rms_f = float("inf")
    return FocusCheck(a_r_data=a_r_data, a_f_data=a_f_data,
                      a_r_out=a_r_out, a_f_out=a_f_out,
                      conditioned=conditioned, rms_r=rms_r, rms_f=rms_f)
