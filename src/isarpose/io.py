"""Dwell files: a one-line JSON header followed by CSV report rows.

Header keys: format, version, n_frames, frame_interval, integration_time,
phi0_deg, theta0_deg, range_resolution_m, and optionally the nominal
report noise sigmas sigma_range_m, sigma_doppler_mps and sigma_accel_mps2,
all three or none. A reader that ignores the sigmas reads the file
correctly, so they need no new version. Each value is a JSON number, and
together they must pass ship.metadata_fault, the rules every Dwell holds.
Angles cross the file boundary in degrees; everything in memory is
radians. Report rows are frame_index,t,snr_db,range_m,doppler_mps,
accel_mps2 with an optional truth_id column; a doppler_width_mps column is
accepted and ignored. Frame k is frame_index k, and every row must pass
ship.report_fault, the report rules every Dwell holds. Floats are written
with shortest round-trip repr, so every Dwell loads back as saved, and
save -> load -> save is byte-identical. Neither direction holds the file
as one text. The writer gives one ASCII byte chunk per frame, a slice of
the dwell's report table. The reader takes the report lines from the open
file in blocks of _BLOCK_ROWS; each block is parsed natively, by one
np.loadtxt call on its final dtype, checked by report_fault and appended
to the one report table of the Dwell, whose frame counts it then takes.
Only a block that fails goes to the line-level diagnosis, which reads its
lines one by one with int() and float() and names the first line that is
malformed or breaks a report rule. Both parses take numbers as ASCII
decimals, blank-padded or not, and reject '_' separators and a
frame_index beyond int64.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import deque
from itertools import compress, repeat
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .ship import (REPORT_DTYPE, SIGMA_KEYS, Dwell, is_json_number,
                   is_number, metadata_fault, report_array, report_fault)

FORMAT_NAME = "isar-dwell"
FORMAT_VERSION = 1
_COLUMNS = ("frame_index", "t", "snr_db", "range_m", "doppler_mps", "accel_mps2")
_OPTIONAL = ("truth_id", "doppler_width_mps")
_FLOATS = REPORT_DTYPE.names[:5]   # the five float report fields
_BAD_TRUTH = -2   # a non-blank truth_id cell of no valid id; report_fault fails it
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
        "n_frames": len(dwell.counts),
        "frame_interval": dwell.frame_interval,
        "integration_time": dwell.integration_time,
        "phi0_deg": _exact_degrees(dwell.phi0),
        "theta0_deg": _exact_degrees(dwell.theta0),
        "range_resolution_m": dwell.range_resolution,
    }
    if dwell.report_sigmas is not None:
        header.update(zip(SIGMA_KEYS, dwell.report_sigmas))
    with_truth = bool((dwell.reports["truth_id"] >= 0).any())
    cols = _COLUMNS + (("truth_id",) if with_truth else ())
    chunks = [f"{json.dumps(header, sort_keys=True)}\n{','.join(cols)}\n"
              .encode("ascii")]
    for k, reports in enumerate(np.split(dwell.reports, dwell.offsets[1:-1])):
        t = reports["t"]
        bits = t.view(np.int64)
        # tolist() and item() yield Python floats, whose repr is the
        # shortest round trip. A frame whose reports share one time, as the
        # simulator's all do, has its row prefix formatted once; equal bits
        # keep a -0.0 apart from a 0.0
        if len(t) and (bits == bits[0]).all():
            heads = repeat(f"{k},{t[0].item()!r},")
        else:
            heads = (f"{k},{v!r}," for v in t.tolist())
        rows = []
        for head, (_, snr, r, f, a, truth) in zip(heads, reports.tolist()):
            row = f"{head}{snr!r},{r!r},{f!r},{a!r}"
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
        if not is_json_number(header[key]):
            raise ValueError(f"line 1: header '{key}' must be a number")
    # a JSON integer too large for a float fails the angle rule as NaN
    phi0, theta0 = (math.radians(header[key]) if is_number(header[key])
                    else math.nan for key in ("phi0_deg", "theta0_deg"))
    sigmas = [header[key] for key in SIGMA_KEYS if key in header]
    fault = metadata_fault(header["n_frames"], header["frame_interval"],
                           header["integration_time"], phi0, theta0,
                           header["range_resolution_m"],
                           sigmas if len(sigmas) == len(SIGMA_KEYS) else None)
    if fault is not None:
        raise ValueError("line 1: header '{}' {}".format(*fault))
    if sigmas and len(sigmas) < len(SIGMA_KEYS):
        raise ValueError(f"line 1: header needs all of {', '.join(SIGMA_KEYS)} "
                         "or none")
    return header


def _truth(table: np.ndarray) -> np.ndarray:
    """The table's truth_id column, -1 throughout when the file has none."""
    return (table["truth_id"] if "truth_id" in table.dtype.names
            else np.full(len(table), -1))


def _native_parser(cols: tuple[str, ...]):
    """parse(block, n_frames, interval, prev): the table of a block of
    report lines from one np.loadtxt call on a dtype of every column, which
    also rejects a row of the wrong field count. None when the call raises
    or warns or report_fault finds a fault: _block_table then names it.
    Only blank truth_id cells are rewritten first: in the last column a
    blank cell ends its line with ',' and becomes -1. The table must then
    hold as many -1 ids as cells rewritten, so a literal -1 still fails."""
    names = ("frame_index",) + _FLOATS + cols[len(_COLUMNS):]
    dtype = np.dtype([(name, np.int64 if name in ("frame_index", "truth_id")
                       else np.float64) for name in names])
    blank_truth = cols[-1] == "truth_id"

    def parse(block: list[str], n_frames: int, interval: float,
              prev: tuple) -> np.ndarray | None:
        blank = (list(compress(range(len(block)),
                               map(str.endswith, block, repeat(","))))
                 if blank_truth else [])
        rows = block
        if blank:
            rows = block.copy()
            for k in blank:
                rows[k] += "-1"
        try:
            with warnings.catch_warnings():
                # no data warns; NumPy 1.x warns when it reads "1.0" as an int
                warnings.simplefilter("error")
                # loadtxt skips empty lines and rejects a row of the wrong
                # field count
                table = np.loadtxt(rows, dtype=dtype, delimiter=",",
                                   comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
        truth = _truth(table)
        if "truth_id" in cols and np.count_nonzero(truth == -1) != len(blank):
            return None
        if report_fault(table["frame_index"], table, truth, n_frames,
                        interval, prev) is not None:
            return None
        return table
    return parse


def _blocks(f: TextIO) -> Iterator[list[str]]:
    """The lines str.splitlines() gives for the file's text, read
    _READ_CHARS characters at a time: the first two lines as one list, then
    the rest in lists of _BLOCK_ROWS lines, the last one shorter. Newline
    translation has already turned each CR LF into one LF, so no line break
    spans two reads."""
    size, buf, tail = 2, [], ""
    for piece in iter(lambda: f.read(_READ_CHARS), ""):
        text = tail + piece
        buf += text.splitlines()
        # the last line is unfinished unless the text ends with a break
        tail = "" if text[-1] in _LINE_BREAKS else buf.pop()
        start = 0
        while len(buf) - start >= size:
            yield buf[start:start + size]
            start, size = start + size, _BLOCK_ROWS
        del buf[:start]
    # fewer than `size` lines are left, the unfinished one included
    if tail:
        buf.append(tail)
    if buf:
        yield buf


_LINE_DTYPE = np.dtype([("frame_index", np.int64),
                        *((name, np.float64) for name in _FLOATS),
                        ("truth_id", np.int64)])
_GRAMMAR = ("numbers must be ASCII decimals without '_' separators and "
            "frame_index must fit in int64")


def _numbers(cells: list[str]) -> tuple:
    """frame_index and the five floats of a report line's cells, read as
    the native parse reads them: int() or float() of each cell stripped of
    whitespace, which must be ASCII without '_', and a frame_index that
    fits in int64. Otherwise ValueError, in the words of int() or float()
    on the first cell they reject as written, else naming that grammar."""
    cores = [cell.strip() for cell in cells[:len(_COLUMNS)]]
    if all(core.isascii() and "_" not in core for core in cores):
        try:
            idx = int(cores[0])
            if -2 ** 63 <= idx < 2 ** 63:
                return (idx, *map(float, cores[1:]))
        except ValueError:
            pass
    for conv, cell in zip((int,) + (float,) * 5, cells):
        conv(cell)
    raise ValueError(_GRAMMAR)


def _block_table(block: list[str], first_line: int, cols: tuple[str, ...],
                 n_frames: int, interval: float, prev: tuple) -> np.ndarray:
    """Parse and check, line by line, a block the native parse rejected;
    its first line is line first_line of the file. The first bad line
    raises after the rows before it are checked, as a row-by-row reader
    would. A block with none is returned: the native parse also rejects
    blank lines of spaces, a truth_id that only int() reads, such as
    '1_0', and a non-numeric doppler_width_mps."""
    truth_at = cols.index("truth_id") if "truth_id" in cols else None
    rows, line_no, fault = [], [], None
    for n, line in enumerate(block, first_line):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(cols):
            fault = f"line {n}: expected {len(cols)} fields, got {len(cells)}"
            break
        try:
            numbers = _numbers(cells)
        except ValueError as exc:
            fault = f"line {n}: bad numeric field ({exc})"
            break
        cell = "" if truth_at is None else cells[truth_at].strip()
        try:
            truth = int(cell) if cell else -1
        except ValueError:
            truth = _BAD_TRUTH
        if cell and not 0 <= truth < 2 ** 63:
            truth = _BAD_TRUTH
        rows.append((*numbers, truth))
        line_no.append(n)
    table = np.array(rows, _LINE_DTYPE)
    broken = report_fault(table["frame_index"], table, table["truth_id"],
                          n_frames, interval, prev)
    if broken is not None:
        raise ValueError(f"line {line_no[broken[0]]}: {broken[1]}")
    if fault is not None:
        raise ValueError(fault)
    return table


def _report_blocks(blocks: Iterator[list[str]], cols: tuple[str, ...],
                   n_frames: int, interval: float) -> Iterator[np.ndarray]:
    """The checked table of each block of report lines left in `blocks`,
    which start at line 3; blocks of blank lines give none."""
    native = _native_parser(cols)
    first_line = 3
    prev = (-1, -math.inf)   # no row before the first
    for block in blocks:
        table = native(block, n_frames, interval, prev)
        if table is None:
            table = _block_table(block, first_line, cols, n_frames, interval,
                                 prev)
        if len(table):
            prev = (table["frame_index"][-1], table["t"][-1])
            yield table
        first_line += len(block)


def _read_dwell(blocks: Iterator[list[str]]) -> Dwell:
    head = next(blocks, [])
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
    # each checked block joins the bytes of the one report table, which grow
    # in place, so the reports are never held twice; of its frames a block
    # keeps only their report counts
    raw, seen = bytearray(), []
    for table in _report_blocks(blocks, cols, n_frames, interval):
        raw += report_array(*(table[name] for name in _FLOATS),
                            _truth(table)).data
        seen.append(np.unique(table["frame_index"], return_counts=True))
    # the one frame-sized allocation, once every report is read
    try:
        counts = np.zeros(n_frames, dtype=np.int64)
    except (MemoryError, ValueError):
        raise ValueError(f"line 1: header 'n_frames' {n_frames} is more "
                         "frames than memory holds") from None
    for index, count in seen:
        counts[index] += count
    return Dwell(np.frombuffer(raw, REPORT_DTYPE), counts,
                 phi0=math.radians(float(header["phi0_deg"])),
                 theta0=math.radians(float(header["theta0_deg"])),
                 range_resolution=float(header["range_resolution_m"]),
                 frame_interval=interval,
                 integration_time=float(header["integration_time"]),
                 report_sigmas=(tuple(header[key] for key in SIGMA_KEYS)
                                if SIGMA_KEYS[0] in header else None))


def load_dwell(path: str | Path) -> Dwell:
    """Parse a dwell file; schema violations name the first offending line."""
    path = Path(path)
    try:
        with path.open() as f:
            blocks = _blocks(f)
            try:
                return _read_dwell(blocks)
            except ValueError:
                # a file that does not decode fails as that, whatever
                # else is wrong with it
                deque(blocks, maxlen=0)
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
