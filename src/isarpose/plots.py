"""Minimal SVG line charts for run outputs. No plotting dependency; the
files are simple polylines with axis ticks, good enough to eyeball a run."""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
W, H = 720, 360
MARGIN = 54


def _ticks(lo: float, hi: float, n: int = 5) -> np.ndarray:
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        return np.array([lo])
    step = (hi - lo) / (n - 1)
    return lo + step * np.arange(n)


def svg_lines_text(t: np.ndarray, series: dict[str, np.ndarray], title: str,
                   ylabel: str = "", xlabel: str = "time (s)") -> str:
    t = np.asarray(t, dtype=float)
    arrays = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    finite = np.concatenate([v[np.isfinite(v)] for v in arrays.values()]) \
        if arrays else np.array([0.0])
    if finite.size == 0:
        finite = np.array([0.0])
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(t.min()), float(t.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (W - 2 * MARGIN)

    def sy(y):
        return H - MARGIN - (y - y_lo) / (y_hi - y_lo) * (H - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for xv in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{H - MARGIN}" '
                     f'x2="{sx(xv):.1f}" y2="{MARGIN}" stroke="#eee"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{H - MARGIN + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{xv:.3g}</text>')
    for yv in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{MARGIN}" y1="{sy(yv):.1f}" '
                     f'x2="{W - MARGIN}" y2="{sy(yv):.1f}" stroke="#eee"/>')
        parts.append(f'<text x="{MARGIN - 6}" y="{sy(yv):.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{yv:.3g}</text>')
    parts.append(f'<rect x="{MARGIN}" y="{MARGIN}" width="{W - 2 * MARGIN}" '
                 f'height="{H - 2 * MARGIN}" fill="none" stroke="#444"/>')
    for i, (name, y) in enumerate(arrays.items()):
        color = _COLORS[i % len(_COLORS)]
        ok = np.isfinite(y)
        pts = " ".join(f"{sx(tx):.1f},{sy(ty):.1f}"
                       for tx, ty in zip(t[ok], y[ok]))
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{W - MARGIN - 4}" y="{MARGIN + 14 + 14 * i}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append(f'<text x="{W / 2:.0f}" y="{H - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{H / 2:.0f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11" '
                     f'transform="rotate(-90 14 {H / 2:.0f})">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
