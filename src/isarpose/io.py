"""Dwell files: a one-line JSON header followed by CSV report rows.

Header keys: format, version, n_frames, frame_interval, integration_time,
phi0_deg, theta0_deg, range_resolution_m, and optionally the nominal report
noise sigmas sigma_range_m, sigma_doppler_mps and sigma_accel_mps2: all
three or none, each a finite number >= 0. A reader that ignores them reads
the file correctly, so they need no new version. Angles cross the file
boundary in degrees, within +-90 (ship.in_angle_range in radians);
everything in memory is radians. Report rows are
frame_index,t,snr_db,range_m,doppler_mps,accel_mps2 with an optional
truth_id column; a doppler_width_mps column is accepted and ignored. Frame
k is frame_index k. Floats are written with shortest round-trip repr, so a
dwell whose reports pass the row checks loads back as saved, and save ->
load -> save is byte-identical. Neither direction holds the file as one
text. The writer gives one ASCII byte chunk per frame. The reader takes
the report lines from the open file in blocks of _BLOCK_ROWS; each block
is parsed by one np.loadtxt call, checked with whole-column masks and kept
as one REPORT_DTYPE record array, which each of its frames slices (a frame
that spans blocks joins its slices). The first malformed line, a
non-finite field included, is named by its line number. Numbers are ASCII
decimals: '_' separators and a frame_index beyond int64 are rejected.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from collections import deque
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .ship import REPORT_DTYPE, Dwell, Frame, in_angle_range, report_array

FORMAT_NAME = "isar-dwell"
FORMAT_VERSION = 1
_COLUMNS = ("frame_index", "t", "snr_db", "range_m", "doppler_mps", "accel_mps2")
_OPTIONAL = ("truth_id", "doppler_width_mps")
_SIGMA_KEYS = ("sigma_range_m", "sigma_doppler_mps", "sigma_accel_mps2")
_FLOATS = REPORT_DTYPE.names[:5]   # the five float report fields
_BAD_TRUTH = -2   # parsed truth_id of a cell that is not blank and not a valid id
_BLOCK_ROWS = 8192   # report lines parsed and checked together
_READ_CHARS = 1 << 18   # characters taken from the file per read
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"   # str.splitlines' breaks


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
    with Path(path).open("wb") as fh:
        fh.writelines(dwell_text(dwell))


def dwell_text(dwell: Dwell) -> list[bytes]:
    """The dwell file as ASCII byte chunks: the header and column rows,
    then one chunk of report rows per frame. Written in order, the chunks
    are the file."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_frames": len(dwell.frames),
        "frame_interval": dwell.frame_interval,
        "integration_time": dwell.integration_time,
        "phi0_deg": _exact_degrees(dwell.phi0),
        "theta0_deg": _exact_degrees(dwell.theta0),
        "range_resolution_m": dwell.range_resolution,
    }
    if dwell.report_sigmas is not None:
        header.update(zip(_SIGMA_KEYS, dwell.report_sigmas))
    with_truth = any((fr.reports.view(np.ndarray)["truth_id"] >= 0).any()
                     for fr in dwell.frames)
    cols = _COLUMNS + (("truth_id",) if with_truth else ())
    chunks = [f"{json.dumps(header, sort_keys=True)}\n{','.join(cols)}\n"
              .encode("ascii")]
    for k, fr in enumerate(dwell.frames):
        rows = []
        # tolist() yields Python floats, whose repr is the shortest round trip
        for t, snr, r, f, a, truth in fr.reports.tolist():
            row = f"{k},{t!r},{snr!r},{r!r},{f!r},{a!r}"
            if with_truth:
                row += f",{truth}" if truth >= 0 else ","
            rows.append(row + "\n")
        chunks.append("".join(rows).encode("ascii"))
    return chunks


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
        if not 0 < header[key] <= sys.float_info.max:
            raise ValueError(f"line 1: header '{key}' must be positive and finite")
    for key in ("phi0_deg", "theta0_deg"):
        # the range test fails NaN, and JSON integers too large for a float
        if not (abs(header[key]) <= sys.float_info.max
                and in_angle_range(math.radians(header[key]))):
            raise ValueError(f"line 1: header '{key}' must be finite and "
                             "strictly between -90 and 90")
    sigmas = [key for key in _SIGMA_KEYS if key in header]
    if sigmas and len(sigmas) < len(_SIGMA_KEYS):
        raise ValueError(f"line 1: header needs all of {', '.join(_SIGMA_KEYS)} "
                         "or none")
    for key in sigmas:
        value = header[key]
        # the range test also fails NaN, and JSON integers too large for a float
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not 0 <= value <= sys.float_info.max):
            raise ValueError(f"line 1: header '{key}' must be a finite number >= 0")
    return header


def _truth_cell(cell: str) -> int:
    """One truth_id cell: -1 when blank, _BAD_TRUTH unless it is a
    non-negative int64."""
    try:
        value = int(cell)
    except ValueError:
        return _BAD_TRUTH if cell.strip() else -1
    return value if 0 <= value < 2 ** 63 else _BAD_TRUTH


def _row_parser(cols: tuple[str, ...]):
    """parse(rows): one record per row of frame_index, the five float
    columns and, when the file has that column, truth_id. Raises
    ValueError when a field does not parse."""
    fields = [("frame_index", np.int64)] + [(n, np.float64) for n in _FLOATS]
    usecols = list(range(len(_COLUMNS)))
    converters = None
    if "truth_id" in cols:
        fields.append(("truth_id", np.int64))
        usecols.append(cols.index("truth_id"))
        converters = {usecols[-1]: _truth_cell}
    dtype = np.dtype(fields)

    def parse(rows: list[str]) -> np.ndarray:
        if not rows:   # loadtxt warns on empty input
            return np.zeros(0, dtype)
        with warnings.catch_warnings():
            # NumPy 1.x reads "1.0" as an int64 with only this warning
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(rows, dtype=dtype, delimiter=",",
                              comments=None, usecols=usecols,
                              converters=converters, ndmin=1)
    return parse


def _truth(table: np.ndarray) -> np.ndarray:
    """The table's truth_id column, -1 throughout when the file has none."""
    if "truth_id" in table.dtype.names:
        return table["truth_id"]
    return np.full(len(table), -1)


def _first_unparsable(rows: list[str], parse) -> int:
    """Index of the first row that parse rejects: blocks of 4096 rows are
    parsed in turn, and the first failing block is searched in blocks of
    256, 16 and 1."""
    lo, step = 0, 4096
    while step and lo < len(rows):
        try:
            parse(rows[lo:lo + step])
            lo += step
        except ValueError:
            step //= 16
    return lo


def _numeric_error(row: str) -> str:
    """Why a row's numeric fields do not parse, in the words of int() or
    float() where they reject a field too."""
    cells = row.split(",")
    for conv, cell in zip((int,) + (float,) * 5, cells):
        try:
            conv(cell)
        except ValueError as exc:
            return str(exc)
    return ("numbers must be ASCII decimals without '_' separators and "
            "frame_index must fit in int64")


def _check_rows(table: np.ndarray, truth: np.ndarray, line_no: np.ndarray,
                n_frames: int, interval: float, prev: tuple) -> None:
    """Raise for the first row that breaks a report check; prev is the
    (frame_index, t) of the row before the table's first. Within a row the
    checks run in the order listed, so the message is the one a row-by-row
    pass stopping at the first fault would give."""
    idx, t = table["frame_index"], table["t"]
    prev_idx = np.r_[prev[0], idx[:-1]]
    prev_t = np.r_[prev[1], t[:-1]]
    finite = np.logical_and.reduce([np.isfinite(table[name]) for name in _FLOATS])
    checks = (
        (~finite, "report fields must be finite"),
        ((idx < 0) | (idx >= n_frames), "frame_index {idx} outside 0..{last}"),
        (idx < prev_idx, "frame_index decreases"),
        ((t < prev_t) & (idx == prev_idx), "time decreases within a frame"),
        (np.abs(t - (idx + 0.5) * interval) > 0.5 * interval,
         "time {t} inconsistent with frame {idx}"),
        (truth == _BAD_TRUTH, "bad truth_id"),
    )
    firsts = [(int(mask.argmax()), order)
              for order, (mask, _) in enumerate(checks) if mask.any()]
    if firsts:
        k, order = min(firsts)
        why = checks[order][1].format(idx=int(idx[k]), t=float(t[k]),
                                      last=n_frames - 1)
        raise ValueError(f"line {line_no[k]}: {why}")


def _lines(f: TextIO) -> Iterator[str]:
    """The lines str.splitlines() gives for the file's text, read
    _READ_CHARS characters at a time. Newline translation has already
    turned each CR LF into one LF, so no line break spans two reads."""
    tail = ""
    for piece in iter(lambda: f.read(_READ_CHARS), ""):
        text = tail + piece
        lines = text.splitlines()
        # the last line is unfinished unless the text ends with a break
        tail = "" if text[-1] in _LINE_BREAKS else lines.pop()
        yield from lines
    if tail:
        yield tail


def _block_table(block: list[str], first_line: int, cols: tuple[str, ...],
                 parse, n_frames: int, interval: float,
                 prev: tuple) -> np.ndarray:
    """Parse and check one block of report lines, the first of which is
    line first_line of the file; prev is as for _check_rows."""
    kept = np.fromiter(map(bool, map(str.strip, block)), bool, len(block))
    rows = list(compress(block, kept))
    line_no = np.flatnonzero(kept) + first_line
    # loadtxt ignores fields past usecols, so the field count is checked here
    n_fields = np.fromiter(map(str.count, rows, repeat(",")), np.int64,
                           len(rows)) + 1
    # rows from `stop` on are not checked: row `stop` fails with `fault`
    # unless an earlier row fails first
    stop, fault = len(rows), None
    wrong = np.flatnonzero(n_fields != len(cols))
    if wrong.size:
        stop = int(wrong[0])
        fault = f"expected {len(cols)} fields, got {n_fields[stop]}"
    try:
        table = parse(rows[:stop])
    except ValueError:
        stop = _first_unparsable(rows[:stop], parse)
        fault = f"bad numeric field ({_numeric_error(rows[stop])})"
        table = parse(rows[:stop])
    _check_rows(table, _truth(table), line_no, n_frames, interval, prev)
    if fault is not None:
        raise ValueError(f"line {line_no[stop]}: {fault}")
    return table


def _report_blocks(lines: Iterator[str], cols: tuple[str, ...],
                   n_frames: int, interval: float) -> Iterator[np.ndarray]:
    """The checked table of each block of the report lines left in
    `lines`, which start at line 3; blocks of blank lines give none."""
    parse = _row_parser(cols)
    first_line = 3
    prev = (-1, -math.inf)   # no row before the first
    while block := list(islice(lines, _BLOCK_ROWS)):
        table = _block_table(block, first_line, cols, parse, n_frames,
                             interval, prev)
        if len(table):
            prev = (table["frame_index"][-1], table["t"][-1])
            yield table
        first_line += len(block)


def _read_dwell(lines: Iterator[str]) -> Dwell:
    head = list(islice(lines, 2))
    if len(head) < 2:
        raise ValueError("line 1: file too short for header and column row")
    header = _parse_header(head[0])
    cols = tuple(c.strip() for c in head[1].split(","))
    if cols[:len(_COLUMNS)] != _COLUMNS:
        raise ValueError(f"line 2: columns must start with {','.join(_COLUMNS)}")
    for extra in cols[len(_COLUMNS):]:
        if extra not in _OPTIONAL:
            raise ValueError(f"line 2: unknown column '{extra}'")

    n_frames = int(header["n_frames"])
    interval = float(header["frame_interval"])
    # rows arrive in frame order, so a frame's reports are one slice of
    # each block it spans; only a frame spanning blocks is copied, so the
    # reports are never held twice
    parts = [[] for _ in range(n_frames)]
    for table in _report_blocks(lines, cols, n_frames, interval):
        reports = report_array(*(table[name] for name in _FLOATS),
                               _truth(table))
        bounds = np.searchsorted(table["frame_index"], np.arange(n_frames + 1))
        for k in np.flatnonzero(np.diff(bounds)):
            parts[k].append(reports[bounds[k]:bounds[k + 1]])
    no_reports = report_array(*(np.zeros(0),) * 5)
    frames = tuple(
        Frame(p[0] if len(p) == 1 else np.concatenate([no_reports] + p))
        for p in parts)
    return Dwell(frames=frames,
                 phi0=math.radians(float(header["phi0_deg"])),
                 theta0=math.radians(float(header["theta0_deg"])),
                 range_resolution=float(header["range_resolution_m"]),
                 frame_interval=interval,
                 integration_time=float(header["integration_time"]),
                 report_sigmas=(tuple(header[key] for key in _SIGMA_KEYS)
                                if _SIGMA_KEYS[0] in header else None))


def load_dwell(path: str | Path) -> Dwell:
    """Parse a dwell file; schema violations name the first offending line."""
    path = Path(path)
    try:
        with path.open() as f:
            lines = _lines(f)
            try:
                return _read_dwell(lines)
            except ValueError:
                # a file that does not decode fails as that, whatever
                # else is wrong with it
                deque(lines, maxlen=0)
                raise
    except UnicodeDecodeError:
        # decoded whole, the error names the byte's offset in the file
        path.read_text()
        raise


def pgm_bytes(grid: np.ndarray) -> bytes:
    """A 2-D non-negative array as an 8-bit binary PGM, peak-scaled."""
    grid = np.asarray(grid, dtype=float)
    peak = float(grid.max()) if grid.size else 0.0
    img = (np.zeros(grid.shape, dtype=np.uint8) if peak <= 0 else
           np.clip(np.round(255.0 * grid / peak), 0, 255).astype(np.uint8))
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()
