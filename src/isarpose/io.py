"""Dwell files: a one-line JSON header followed by CSV report rows.

Header keys: format, version, n_frames, frame_interval, integration_time,
phi0_deg, theta0_deg, range_resolution_m. Angles cross the file boundary in
degrees; everything in memory is radians. Report rows are
frame_index,t,snr_db,range_m,doppler_mps,accel_mps2 with an optional
truth_id column; a doppler_width_mps column is accepted and ignored. Floats
are written with shortest round-trip repr, so save -> load -> save is
byte-identical. A frame's reports load as one slice of a REPORT_DTYPE
record array; a malformed row, a non-finite field included, is named by
its line number.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .ship import REPORT_DTYPE, Dwell, Frame

FORMAT_NAME = "isar-dwell"
FORMAT_VERSION = 1
_COLUMNS = ("frame_index", "t", "snr_db", "range_m", "doppler_mps", "accel_mps2")
_OPTIONAL = ("truth_id", "doppler_width_mps")


def _exact_degrees(rad: float) -> float:
    """Degree value whose radians() reproduces rad exactly when one exists
    within rounding distance; plain conversion otherwise.  Ties go to the
    shortest decimal form so common angles print clean (30.0, not
    29.999999999999996)."""
    deg = math.degrees(rad)
    cands = (deg, math.nextafter(deg, math.inf), math.nextafter(deg, -math.inf))
    exact = [c for c in cands if math.radians(c) == rad]
    if not exact:
        return deg
    return min(exact, key=lambda c: len(repr(c)))


def save_dwell(dwell: Dwell, path: str | Path) -> None:
    Path(path).write_text(dwell_text(dwell))


def dwell_text(dwell: Dwell) -> str:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_frames": len(dwell.frames),
        "frame_interval": dwell.frame_interval,
        "integration_time": dwell.frames[0].integration_time,
        "phi0_deg": _exact_degrees(dwell.phi0),
        "theta0_deg": _exact_degrees(dwell.theta0),
        "range_resolution_m": dwell.range_resolution,
    }
    with_truth = any((fr.reports.truth_id >= 0).any() for fr in dwell.frames)
    cols = _COLUMNS + (("truth_id",) if with_truth else ())
    lines = [json.dumps(header, sort_keys=True), ",".join(cols)]
    for fr in dwell.frames:
        # tolist() yields Python floats, whose repr is the shortest round trip
        for t, snr, r, f, a, truth in fr.reports.tolist():
            row = f"{fr.index},{t!r},{snr!r},{r!r},{f!r},{a!r}"
            if with_truth:
                row += f",{truth}" if truth >= 0 else ","
            lines.append(row)
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line 1: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError("line 1: header must be a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"line 1: format must be '{FORMAT_NAME}'")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"line 1: unsupported version {header.get('version')!r}")
    for key in ("n_frames", "frame_interval", "integration_time",
                "phi0_deg", "theta0_deg", "range_resolution_m"):
        if key not in header:
            raise ValueError(f"line 1: header missing '{key}'")
        if not isinstance(header[key], (int, float)) or isinstance(header[key], bool):
            raise ValueError(f"line 1: header '{key}' must be a number")
    if int(header["n_frames"]) < 1:
        raise ValueError("line 1: n_frames must be at least 1")
    for key in ("frame_interval", "integration_time", "range_resolution_m"):
        if header[key] <= 0:
            raise ValueError(f"line 1: header '{key}' must be positive")
    return header


def load_dwell(path: str | Path) -> Dwell:
    """Parse a dwell file; schema violations name the offending line."""
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("line 1: file too short for header and column row")
    header = _parse_header(lines[0])
    cols = tuple(c.strip() for c in lines[1].split(","))
    if cols[:len(_COLUMNS)] != _COLUMNS:
        raise ValueError(f"line 2: columns must start with {','.join(_COLUMNS)}")
    for extra in cols[len(_COLUMNS):]:
        if extra not in _OPTIONAL:
            raise ValueError(f"line 2: unknown column '{extra}'")
    i_truth = cols.index("truth_id") if "truth_id" in cols else None

    n_frames = int(header["n_frames"])
    interval = float(header["frame_interval"])
    frame_of: list[int] = []
    rows: list[tuple] = []
    prev_idx, prev_t = -1, -math.inf
    for ln, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != len(cols):
            raise ValueError(f"line {ln}: expected {len(cols)} fields, got {len(parts)}")
        try:
            idx = int(parts[0])
            t, snr, r, f, a = map(float, parts[1:6])
        except ValueError as exc:
            raise ValueError(f"line {ln}: bad numeric field ({exc})") from exc
        if not all(map(math.isfinite, (t, snr, r, f, a))):
            raise ValueError(f"line {ln}: report fields must be finite")
        if not 0 <= idx < n_frames:
            raise ValueError(f"line {ln}: frame_index {idx} outside 0..{n_frames - 1}")
        if idx < prev_idx:
            raise ValueError(f"line {ln}: frame_index decreases")
        if t < prev_t and idx == prev_idx:
            raise ValueError(f"line {ln}: time decreases within a frame")
        expect_t = (idx + 0.5) * interval
        if abs(t - expect_t) > 0.5 * interval:
            raise ValueError(f"line {ln}: time {t} inconsistent with frame {idx}")
        truth = -1
        if i_truth is not None and parts[i_truth].strip():
            try:
                truth = int(parts[i_truth])
            except ValueError as exc:
                raise ValueError(f"line {ln}: bad truth_id") from exc
            if truth < 0:
                raise ValueError(f"line {ln}: bad truth_id")
        prev_idx, prev_t = idx, t
        frame_of.append(idx)
        rows.append((t, snr, r, f, a, truth))

    reports = np.array(rows, dtype=REPORT_DTYPE)
    # rows arrive in frame order, so each frame is one slice of the array
    bounds = np.searchsorted(np.array(frame_of, dtype=np.int64),
                             np.arange(n_frames + 1))
    frames = tuple(
        Frame(index=k, t=(k + 0.5) * interval,
              integration_time=float(header["integration_time"]),
              reports=reports[bounds[k]:bounds[k + 1]])
        for k in range(n_frames))
    return Dwell(frames=frames,
                 phi0=math.radians(float(header["phi0_deg"])),
                 theta0=math.radians(float(header["theta0_deg"])),
                 range_resolution=float(header["range_resolution_m"]),
                 frame_interval=interval)


def pgm_bytes(grid: np.ndarray) -> bytes:
    """A 2-D non-negative array as an 8-bit binary PGM, peak-scaled."""
    grid = np.asarray(grid, dtype=float)
    peak = float(grid.max()) if grid.size else 0.0
    img = (np.zeros(grid.shape, dtype=np.uint8) if peak <= 0 else
           np.clip(np.round(255.0 * grid / peak), 0, 255).astype(np.uint8))
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()
