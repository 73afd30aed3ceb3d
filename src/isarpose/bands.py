"""Separating slow geometry drift from wave-induced oscillation.

A covariance series is split into low / wave / high bands by projecting onto
overlapped-hat (chapeau) bases of two knot spacings. Projection is least
squares, so the three bands always sum back to the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLOOR_FACTOR = 3.0   # a wave line's FFT peak over the median spectral floor


@dataclass(frozen=True)
class BandSplit:
    """low + wave + high == input (to solver precision)."""

    low: np.ndarray
    wave: np.ndarray
    high: np.ndarray
    flags: tuple[str, ...] = ()


def chapeau_smooth(t: np.ndarray, y: np.ndarray, spacing: float) -> np.ndarray:
    """Least-squares fit of y(t) on hat functions with the given knot spacing.

    Knots start one spacing before the first sample and cover the span with
    one extra on each side, so the fit has full support everywhere.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    span = t[-1] - t[0]
    nk = int(np.ceil(span / spacing)) + 3
    knots = t[0] - spacing + np.arange(nk) * spacing
    basis = np.maximum(0.0, 1.0 - np.abs(t[:, None] - knots[None, :]) / spacing)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return basis @ coef


def chapeau_band_split(t: np.ndarray, y: np.ndarray, period: float) -> BandSplit:
    """Three-band split around a known wave period.

    low: hat spacing 3*period (slow drift). wave: hat spacing period/3 fitted
    to the remainder (resolves the oscillation without tracking noise).
    high: what neither basis captured. A dwell shorter than 3 periods cannot
    support the low/wave distinction, so everything smooth goes to low and
    the result is flagged.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if period <= 0:
        raise ValueError("period must be positive")
    span = t[-1] - t[0]
    if span < 3 * period:
        low = chapeau_smooth(t, y, max(span / 3.0, 3 * np.median(np.diff(t))))
        return BandSplit(low=low, wave=np.zeros_like(y), high=y - low,
                         flags=("short dwell: wave band unresolved",))
    low = chapeau_smooth(t, y, 3 * period)
    wave = chapeau_smooth(t, y - low, period / 3.0)
    return BandSplit(low=low, wave=wave, high=y - low - wave)


def dominant_wave_period(t: np.ndarray, cov_rf: np.ndarray,
                         valid: np.ndarray | None = None) -> float:
    """Period (s) of the strongest oscillation line in cov_rf.

    Linear-detrended, Hann-windowed FFT; the peak bin must stand above
    FLOOR_FACTOR times the median spectral floor. The peak is refined by a
    parabolic fit through the three bins around it.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(cov_rf, dtype=float)
    if valid is None:
        valid = np.isfinite(y)
    else:
        valid = np.asarray(valid, dtype=bool) & np.isfinite(y)
    tv, yv = t[valid], y[valid]
    if tv.size < 16:
        raise ValueError("too few valid frames for spectral period search")
    dt = float(np.median(np.diff(tv)))
    detr = yv - np.polyval(np.polyfit(tv, yv, 1), tv)
    win = np.hanning(detr.size)
    spec = np.abs(np.fft.rfft(detr * win))
    freqs = np.fft.rfftfreq(detr.size, d=dt)
    spec[0] = 0.0
    k = int(np.argmax(spec))
    floor = float(np.median(spec[1:])) + 1e-30
    # parabolic refinement of the peak bin
    if 1 <= k < spec.size - 1:
        s0, s1, s2 = spec[k - 1], spec[k], spec[k + 1]
        denom = s0 - 2 * s1 + s2
        shift = 0.5 * (s0 - s2) / denom if abs(denom) > 0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    f_peak = freqs[k] + shift * (freqs[1] - freqs[0])
    if spec[k] <= FLOOR_FACTOR * floor or not f_peak > 0:
        raise ValueError("no wave line above the spectral floor")
    return float(1.0 / f_peak)
