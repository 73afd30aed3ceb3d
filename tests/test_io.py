"""Dwell file round trips and schema diagnostics."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isarpose.io
from isarpose.io import _blocks, dwell_text, load_dwell, pgm_bytes, save_dwell
from isarpose.moments import moments_series
from isarpose.ship import report_array
from tests.conftest import make_dwell

_val = st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False)


def _text(dwell):
    """dwell_text's chunks joined into the file's text."""
    return b"".join(dwell_text(dwell)).decode("ascii")


@pytest.fixture(params=[(1, 1), (2, 7), (3, 64)],
                ids=["1-row", "2-rows", "3-rows"])
def small_blocks(request, monkeypatch):
    """Load in blocks of a few report lines, read a few characters at a
    time, so that a six-frame dwell spans several blocks and reads."""
    rows, chars = request.param
    monkeypatch.setattr(isarpose.io, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(isarpose.io, "_READ_CHARS", chars)


def _dwell(rows, interval=0.5, phi0=math.radians(45.0),
           theta0=math.radians(30.0), truth_ids=None, report_sigmas=None,
           integration_time=0.5):
    """rows: per-frame list of (snr, r, f, a) tuples; truth_ids: per-frame
    lists of ids (-1 for none), or None for a dwell without truth."""
    frames = []
    for k, frame_rows in enumerate(rows):
        t = (k + 0.5) * interval
        snr, r, f, a = np.array(frame_rows, dtype=float).reshape(-1, 4).T
        truth = -1 if truth_ids is None else truth_ids[k]
        frames.append(report_array(t, snr, r, f, a, truth))
    return make_dwell(frames, phi0=phi0, theta0=theta0,
                      range_resolution=0.5, frame_interval=interval,
                      integration_time=integration_time,
                      report_sigmas=report_sigmas)


def test_round_trip_preserves_every_field(tmp_path):
    dwell = _dwell([[(20.0, -3.125, 0.7071067811865476, -0.1)],
                    [(17.5, 1e-12, -4.4e8, 2.0), (21.0, 5.0, 0.0, 0.0)]],
                   truth_ids=[[0], [0, 1]])
    path = tmp_path / "dwell.csv"
    save_dwell(dwell, path)
    back = load_dwell(path)
    assert back.phi0 == dwell.phi0
    assert back.theta0 == dwell.theta0
    assert back.frame_interval == dwell.frame_interval
    assert back.range_resolution == dwell.range_resolution
    assert back.integration_time == dwell.integration_time
    for fa, fb in zip(dwell.frames, back.frames):
        # every field, truth_id included, bit for bit
        assert fa.reports.tobytes() == fb.reports.tobytes()


def test_save_load_save_is_byte_identical(tmp_path):
    dwell = _dwell([[(20.0, 0.1 + 0.2, 1.0 / 3.0, -7.0)],
                    [(19.0, 2.0, 3.0, 4.0)]])
    path = tmp_path / "dwell.csv"
    save_dwell(dwell, path)
    assert _text(load_dwell(path)) == path.read_text()


def test_report_sigmas_save_load_save_byte_identical(tmp_path):
    dwell = _dwell([[(20.0, 0.1, 0.2, 0.3)]],
                   report_sigmas=(0.2, 0.1 + 0.2, 0.0))
    path = tmp_path / "dwell.csv"
    save_dwell(dwell, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert (header["sigma_range_m"], header["sigma_doppler_mps"],
            header["sigma_accel_mps2"]) == (0.2, 0.1 + 0.2, 0.0)
    back = load_dwell(path)
    assert back.report_sigmas == (0.2, 0.1 + 0.2, 0.0)
    assert _text(back) == path.read_text()


def test_dwell_without_sigmas_loads_with_none(tmp_path):
    path = tmp_path / "dwell.csv"
    save_dwell(_dwell([[(20.0, 0.1, 0.2, 0.3)]]), path)
    assert "sigma_" not in path.read_text()
    assert load_dwell(path).report_sigmas is None


_span = st.floats(min_value=1e-3, max_value=1e3)


@given(st.lists(st.lists(st.tuples(_val, _val, _val, _val),
                         min_size=1, max_size=3),
                min_size=1, max_size=4), _span, _span)
@settings(deadline=None, max_examples=30)
def test_round_trip_property(tmp_path_factory, rows, interval,
                             integration_time):
    dwell = _dwell(rows, interval=interval, integration_time=integration_time,
                   report_sigmas=(0.3, 0.05, 0.0))
    path = tmp_path_factory.mktemp("io") / "d.csv"
    save_dwell(dwell, path)
    back = load_dwell(path)
    # the loaded dwell as a whole: metadata, frame grid and every report
    for name in ("phi0", "theta0", "range_resolution", "frame_interval",
                 "integration_time", "report_sigmas"):
        assert getattr(back, name) == getattr(dwell, name)
    assert back.t.tobytes() == dwell.t.tobytes()
    assert ([fr.reports.tobytes() for fr in back.frames]
            == [fr.reports.tobytes() for fr in dwell.frames])
    assert (moments_series(back).tobytes()
            == moments_series(dwell).tobytes())


def test_rows_match_the_per_row_reference_format(tmp_path):
    """A frame's `k,t,` prefix is formatted once only when all its report
    times have the same bits: 0.0 and -0.0 compare equal but print apart."""
    frames = (report_array([0.0, -0.0, 0.0], 20.0, 1.0, 2.0, 3.0),
              report_array([0.6, 0.75, 0.75, 0.9], 20.0, 0.1 + 0.2, -2.0,
                           1e-12, [1, -1, 2, 3]),
              report_array([1.25, 1.25], 21.0, 4.0, 5.0, 6.0),
              report_array(np.zeros(0), 0.0, 0.0, 0.0, 0.0))
    dwell = make_dwell(frames, phi0=0.5, theta0=0.3,
                       range_resolution=0.5, frame_interval=0.5,
                       integration_time=0.5)
    reference = [f"{k},{t!r},{snr!r},{r!r},{f!r},{a!r},"
                 + (str(truth) if truth >= 0 else "")
                 for k, fr in enumerate(frames)
                 for t, snr, r, f, a, truth in fr.tolist()]
    assert _text(dwell).splitlines()[2:] == reference
    assert [row.split(",")[1] for row in reference[:3]] == ["0.0", "-0.0",
                                                            "0.0"]
    path = tmp_path / "d.csv"
    save_dwell(dwell, path)
    assert _text(load_dwell(path)) == path.read_text()


def _per_frame_text(frames, with_truth):
    """The report lines of a dwell file written frame by frame and row by
    row from the frames themselves."""
    return "".join(
        f"{k},{t!r},{snr!r},{r!r},{f!r},{a!r}"
        + (("," + (str(truth) if truth >= 0 else "")) if with_truth else "")
        + "\n"
        for k, fr in enumerate(frames)
        for t, snr, r, f, a, truth in fr.tolist())


@pytest.mark.parametrize("seed", range(6))
def test_one_table_text_matches_the_per_frame_text(tmp_path, seed):
    # ragged frames of 0-5 reports, empty ones first, last and in runs,
    # times of 0.0 and -0.0 in frame 0 and blank truth_id cells; a dwell
    # without any truth id writes no truth_id column
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, 12)
    counts[[0, 5, 6, -1][seed % 4]] = 0
    frames = []
    for k, n in enumerate(counts.tolist()):
        t = (k + rng.uniform(0.0, 1.0, n)) * 0.5
        if k == 0:
            t = rng.choice([0.0, -0.0, 0.25], n)
        t.sort(kind="stable")
        truth = (rng.integers(-1, 30, n) if seed % 3 else np.full(n, -1))
        frames.append(report_array(
            t, rng.normal(20.0, 3.0, n), rng.normal(0.0, 40.0, n),
            rng.normal(0.0, 2.0, n), rng.normal(0.0, 0.1, n), truth))
    dwell = make_dwell(frames, phi0=0.5, theta0=0.3,
                       range_resolution=0.5, frame_interval=0.5,
                       integration_time=0.5)
    with_truth = any((fr.truth_id >= 0).any() for fr in frames)
    assert with_truth == bool(seed % 3)
    header, columns, rows = _text(dwell).split("\n", 2)
    assert json.loads(header)["n_frames"] == len(frames)
    assert columns.endswith(",truth_id") == with_truth
    assert rows == _per_frame_text(frames, with_truth)
    path = tmp_path / "d.csv"
    save_dwell(dwell, path)
    assert _text(load_dwell(path)) == path.read_text()


def test_angles_cross_boundary_in_degrees(tmp_path):
    dwell = _dwell([[(20.0, 0.0, 0.0, 0.0)]])
    path = tmp_path / "d.csv"
    save_dwell(dwell, path)
    header = path.read_text().splitlines()[0]
    assert '"phi0_deg": 45.0' in header
    assert '"theta0_deg": 30.0' in header


def test_empty_frames_preserved(tmp_path):
    dwell = _dwell([[(20.0, 0.0, 0.0, 0.0)], [], [(18.0, 1.0, 2.0, 3.0)]])
    path = tmp_path / "d.csv"
    save_dwell(dwell, path)
    back = load_dwell(path)
    assert [len(fr.reports) for fr in back.frames] == [1, 0, 1]


@pytest.mark.parametrize("truth_ids", [[[0, 1], [2]], None, [[0, -1], [-1]]],
                         ids=["present", "absent", "mixed"])
def test_truth_id_survives_save_load(tmp_path, truth_ids):
    dwell = _dwell([[(20.0, 0.0, 1.0, 2.0), (19.0, 1.0, 2.0, 3.0)],
                    [(18.0, 2.0, 3.0, 4.0)]], truth_ids=truth_ids)
    path = tmp_path / "d.csv"
    save_dwell(dwell, path)
    columns = path.read_text().splitlines()[1].split(",")
    assert ("truth_id" in columns) == (truth_ids is not None)
    back = load_dwell(path)
    assert ([fr.reports.truth_id.tolist() for fr in back.frames]
            == (truth_ids or [[-1, -1], [-1]]))
    assert _text(back) == path.read_text()


_GRAMMAR_FAULT = ("bad numeric field (numbers must be ASCII decimals without "
                  "'_' separators and frame_index must fit in int64)")


class TestSchemaErrors:
    def _lines(self, tmp_path):
        dwell = _dwell([[(20.0, 0.0, 0.0, 0.0)],
                        [(19.0, 1.0, 2.0, 3.0)]])
        path = tmp_path / "d.csv"
        save_dwell(dwell, path)
        return path, path.read_text().splitlines()

    def _expect(self, tmp_path, lines, needle):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=needle):
            load_dwell(bad)

    def test_header_must_be_json(self, tmp_path):
        path, lines = self._lines(tmp_path)
        self._expect(tmp_path, ["not json"] + lines[1:], "line 1")

    def test_format_name_checked(self, tmp_path):
        path, lines = self._lines(tmp_path)
        self._expect(tmp_path, ['{"format": "other", "version": 1}']
                     + lines[1:], "format")

    def test_missing_header_key_named(self, tmp_path):
        path, lines = self._lines(tmp_path)
        header = lines[0].replace('"frame_interval": 0.5, ', "")
        self._expect(tmp_path, [header] + lines[1:], "frame_interval")

    @pytest.mark.parametrize("sigmas,needle", [
        ('"sigma_range_m": 0.2, "sigma_doppler_mps": 0.03',
         "needs all of sigma_range_m"),
        ('"sigma_accel_mps2": 0.02', "needs all of sigma_range_m"),
        ('"sigma_range_m": -0.2, "sigma_doppler_mps": 0.03, '
         '"sigma_accel_mps2": 0.02', "'sigma_range_m' must be a finite"),
        ('"sigma_range_m": 0.2, "sigma_doppler_mps": NaN, '
         '"sigma_accel_mps2": 0.02', "'sigma_doppler_mps' must be a finite"),
        ('"sigma_range_m": 0.2, "sigma_doppler_mps": 0.03, '
         '"sigma_accel_mps2": Infinity', "'sigma_accel_mps2' must be a finite"),
        ('"sigma_range_m": 1' + "0" * 400 + ', "sigma_doppler_mps": 0.03, '
         '"sigma_accel_mps2": 0.02', "'sigma_range_m' must be a finite"),
        ('"sigma_range_m": "0.2", "sigma_doppler_mps": 0.03, '
         '"sigma_accel_mps2": 0.02', "'sigma_range_m' must be a finite"),
        ('"sigma_range_m": true, "sigma_doppler_mps": 0.03, '
         '"sigma_accel_mps2": 0.02', "'sigma_range_m' must be a finite"),
    ])
    def test_bad_report_sigmas_rejected(self, tmp_path, sigmas, needle):
        path, lines = self._lines(tmp_path)
        header = lines[0].replace("{", "{" + sigmas + ", ", 1)
        self._expect(tmp_path, [header] + lines[1:], "line 1: .*" + needle)

    @pytest.mark.parametrize("key, value", [
        ("phi0_deg", "NaN"), ("theta0_deg", "Infinity"),
        ("phi0_deg", "-Infinity"), ("theta0_deg", "-95"),
        ("phi0_deg", "90.0"), ("theta0_deg", "-90"),
        pytest.param("phi0_deg", "1" + "0" * 400, id="phi0_deg-1e400"),
    ])
    def test_bad_mean_angle_rejected(self, tmp_path, key, value):
        # before, NaN and Infinity failed later in the angle fit, and a mean
        # tilt of -95 deg loaded and was clipped without a word
        path, lines = self._lines(tmp_path)
        header = re.sub(f'"{key}": [^,}}]+', f'"{key}": {value}', lines[0])
        assert header != lines[0]
        self._expect(tmp_path, [header] + lines[1:],
                     f"^line 1: header '{key}' must be finite and strictly "
                     "between -90 and 90$")

    @pytest.mark.parametrize("value", ["1e999", "120.7", "1e300", "0"])
    def test_frame_count_must_be_an_int64_count(self, tmp_path, value):
        # before, 1e999 (Infinity) overflowed in int(), 120.7 loaded as 120
        # frames, and 1e300 built a report list for every frame it claimed
        path, lines = self._lines(tmp_path)
        header = re.sub('"n_frames": [^,}]+', f'"n_frames": {value}', lines[0])
        assert header != lines[0]
        self._expect(tmp_path, [header] + lines[1:],
                     "^line 1: header 'n_frames' must be an integer from 1 ")

    @pytest.mark.parametrize("value, loads", [
        ("1e300", False), ("1.3407807929942597e154", False),
        ("1.3407807929942596e154", True), ("1e-170", False)])
    def test_integration_time_needs_a_finite_square(self, tmp_path, value,
                                                    loads):
        # before, 1e300 loaded and failed in the pose stage, which squares
        # it, and so did 1e-170, whose square report_noise divides by
        path, lines = self._lines(tmp_path)
        header = re.sub('"integration_time": [^,}]+',
                        f'"integration_time": {value}', lines[0])
        assert header != lines[0]
        if loads:
            path.write_text("\n".join([header] + lines[1:]) + "\n")
            assert load_dwell(path).integration_time == float(value)
        else:
            self._expect(tmp_path, [header] + lines[1:],
                         "^line 1: header 'integration_time' must be from "
                         "7.458340731200208e-155 to 1.3407807929942596e\\+154, "
                         "where its square and inverse square are finite$")

    def test_mean_angle_just_inside_the_limit_loads(self, tmp_path):
        path, lines = self._lines(tmp_path)
        header = lines[0].replace('"theta0_deg": 30.0', '"theta0_deg": -89.9')
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        assert load_dwell(path).theta0 == math.radians(-89.9)

    def test_wrong_column_row_reported_on_line_2(self, tmp_path):
        path, lines = self._lines(tmp_path)
        cols = lines[1].replace("accel_mps2", "accel")
        self._expect(tmp_path, [lines[0], cols] + lines[2:], "line 2")

    def test_bad_numeric_field_names_line(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[3] = lines[3].replace("19.0", "abc")
        self._expect(tmp_path, lines, "line 4: bad numeric")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["t", "snr_db", "range_m",
                                        "doppler_mps", "accel_mps2"])
    def test_nonfinite_field_names_line(self, tmp_path, column, value):
        path, lines = self._lines(tmp_path)
        parts = lines[3].split(",")
        parts[lines[1].split(",").index(column)] = value
        lines[3] = ",".join(parts)
        self._expect(tmp_path, lines, "line 4: report fields must be finite")

    def test_negative_truth_id_names_line(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[1] += ",truth_id"
        lines[2] += ",0"
        lines[3] += ",-1"
        self._expect(tmp_path, lines, "line 4: bad truth_id")

    def test_decreasing_frame_index_names_line(self, tmp_path):
        path, lines = self._lines(tmp_path)
        self._expect(tmp_path, lines + [lines[2]],
                     "line 5: frame_index decreases")

    def test_time_inconsistent_with_frame_named(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[2] = lines[2].replace("0.25", "2.6", 1)
        self._expect(tmp_path, lines, "line 3")

    def test_frame_index_outside_header_count(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[3] = "7" + lines[3][1:]
        self._expect(tmp_path, lines, "line 4")

    def test_unknown_extra_column_rejected(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[1] += ",bogus"
        lines[2] += ",1"
        lines[3] += ",1"
        self._expect(tmp_path, lines, "bogus")

    def test_width_column_accepted_and_ignored(self, tmp_path):
        path, lines = self._lines(tmp_path)
        lines[1] += ",doppler_width_mps"
        lines[2] += ",0.4"
        lines[3] += ",0.5"
        good = tmp_path / "widths.csv"
        good.write_text("\n".join(lines) + "\n")
        back = load_dwell(good)
        assert len(back.frames) == 2

    def test_truncated_file_rejected(self, tmp_path):
        bad = tmp_path / "short.csv"
        bad.write_text("{}\n")
        with pytest.raises(ValueError, match="line 1"):
            load_dwell(bad)

    @pytest.mark.parametrize("line, message", [
        ("0,1_0.5,20.0,0.0,0.0,0.0", _GRAMMAR_FAULT),
        ("1_0,0.25,20.0,0.0,0.0,0.0", _GRAMMAR_FAULT),
        ("99999999999999999999,0.25,20.0,0.0,0.0,0.0", _GRAMMAR_FAULT),
        ("0.0,0.25,20.0,0.0,0.0,0.0",
         "bad numeric field (invalid literal for int() with base 10: '0.0')"),
        ("0,0.25,20.0,\u0661,0.0,0.0", _GRAMMAR_FAULT),
        ("0,0.25,20.0,\uff11,0.0,0.0", _GRAMMAR_FAULT),
        ("-9223372036854775809,0.25,20.0,0.0,0.0,0.0", _GRAMMAR_FAULT),
        ("9223372036854775807,0.25,20.0,0.0,0.0,0.0",
         "frame_index 9223372036854775807 outside 0..1"),
        ("0,0.25,20.0, 1,\t2,0.0", None),
        ("0,0.25,20.0,\xa01,\x1f2,0.0", None),
        ("0,0.25,20.0,Infinity,0.0,0.0", "report fields must be finite"),
        ("0,0.25,20.0,0.0,-nan,0.0", "report fields must be finite"),
    ], ids=["float-underscore", "int-underscore", "int-beyond-int64",
            "int-as-float", "arabic-indic-digit", "fullwidth-digit",
            "int64-min-less-one", "int64-max", "blank-padding",
            "unicode-blank-padding", "infinity", "minus-nan"])
    def test_narrow_number_grammar(self, tmp_path, monkeypatch, line,
                                   message):
        """Line 3 loads (message None) or fails with message, alike through
        the native block parse and the line-level diagnosis, which a fault
        on line 5 forces. float() and int() accept '_' separators, non-ASCII
        digits and integers beyond int64, which the dwell grammar does not;
        neither accepts a frame_index written as a float."""
        path, lines = self._lines(tmp_path)
        lines[2] = line
        want = f"line 3: {message}" if message else \
            "line 5: expected 6 fields, got 1"
        self._expect(tmp_path, lines + ["x"], f"^{re.escape(want)}$")
        if message:
            self._expect(tmp_path, lines, f"^{re.escape(want)}$")
            return

        def diagnose(*args):
            raise AssertionError("a clean block went to line-level diagnosis")

        monkeypatch.setattr(isarpose.io, "_block_table", diagnose)
        path.write_text("\n".join(lines) + "\n")
        assert load_dwell(path).frames[0].reports.tolist()[0][2:5] == \
            (1.0, 2.0, 0.0)


# _fault puts one fault of a kind on the cells of frame `frame`'s line in
# the six-frame dwell of _six_frame_lines (one report a frame, so frame k
# sits on line k + 3). _FAULT_MESSAGES lists the kinds in the order a
# line's checks run.
def _fault(kind, cells, frame):
    center = (frame + 0.5) * 0.5
    if kind == "count":
        cells.append("1")
    elif kind == "numeric":
        cells[2] = "abc"
    elif kind == "finite":
        cells[3] = "nan"
    elif kind == "range":
        cells[0] = "9"
    elif kind == "index":
        cells[:2] = [str(frame - 2), repr(center - 1.0)]
    elif kind == "time":
        cells[:2] = [str(frame - 1), repr(center - 0.6)]
    elif kind == "frame_time":
        cells[1] = repr(center + 0.3)
    elif kind == "truth":
        cells[6] = "-5"
    return cells


_FAULT_MESSAGES = {
    "count": "expected 7 fields, got 8",
    "numeric": "bad numeric field",
    "finite": "report fields must be finite",
    "range": "frame_index 9 outside 0..5",
    "index": "frame_index decreases",
    "time": "time decreases within a frame",
    "frame_time": "time .* inconsistent with frame",
    "truth": "bad truth_id",
}


def _six_frame_lines(tmp_path):
    dwell = _dwell([[(20.0 + k, k, -k, 0.5)] for k in range(6)],
                   truth_ids=[[k] for k in range(6)])
    path = tmp_path / "six.csv"
    save_dwell(dwell, path)
    return path.read_text().splitlines()


def _expect_first(tmp_path, lines, line_no, kind):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=f"^line {line_no}: {_FAULT_MESSAGES[kind]}"):
        load_dwell(bad)


@pytest.mark.parametrize("first,second",
                         list(itertools.permutations(_FAULT_MESSAGES, 2)))
def test_first_bad_line_wins_across_fault_kinds(tmp_path, first, second):
    """The earlier of two faulty lines is named, whichever check each
    line fails and wherever those checks sit in the check order."""
    lines = _six_frame_lines(tmp_path)
    for kind, at in ((first, 5), (second, 7)):
        lines[at - 1] = ",".join(_fault(kind, lines[at - 1].split(","),
                                        at - 3))
    _expect_first(tmp_path, lines, 5, first)


def test_line_numbers_count_blank_lines(tmp_path):
    lines = _six_frame_lines(tmp_path)
    lines[4] = ",".join(_fault("truth", lines[4].split(","), 2))
    _expect_first(tmp_path, lines[:3] + ["", "  "] + lines[3:], 7, "truth")


@pytest.mark.parametrize("first,second", [
    ("count", "numeric"), ("numeric", "finite"), ("finite", "range"),
    ("range", "truth"), ("index", "truth"), ("time", "truth"),
    ("frame_time", "truth")])
def test_check_order_within_a_line(tmp_path, first, second):
    lines = _six_frame_lines(tmp_path)
    cells = _fault(second, lines[5].split(","), 3)
    lines[5] = ",".join(_fault(first, cells, 3))
    _expect_first(tmp_path, lines, 6, first)


def _row_by_row(lines, n_frames, interval):
    """The per-row reader the columnar loader replaced, kept as its
    reference: the (frame_index, report) rows, or the first fault's
    message."""
    cols = tuple(c.strip() for c in lines[1].split(","))
    rows, prev_idx, prev_t = [], -1, -math.inf
    for ln, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != len(cols):
            return f"line {ln}: expected {len(cols)} fields, got {len(parts)}"
        try:
            idx = int(parts[0])
            t, snr, r, f, a = map(float, parts[1:6])
        except ValueError as exc:
            return f"line {ln}: bad numeric field ({exc})"
        if not all(map(math.isfinite, (t, snr, r, f, a))):
            return f"line {ln}: report fields must be finite"
        if not 0 <= idx < n_frames:
            return f"line {ln}: frame_index {idx} outside 0..{n_frames - 1}"
        if idx < prev_idx:
            return f"line {ln}: frame_index decreases"
        if t < prev_t and idx == prev_idx:
            return f"line {ln}: time decreases within a frame"
        if abs(t - (idx + 0.5) * interval) > 0.5 * interval:
            return f"line {ln}: time {t} inconsistent with frame {idx}"
        truth = -1
        cell = parts[cols.index("truth_id")]
        if cell.strip():
            try:
                truth = int(cell.strip())
            except ValueError:
                return f"line {ln}: bad truth_id"
            if truth < 0:
                return f"line {ln}: bad truth_id"
        prev_idx, prev_t = idx, t
        rows.append((idx, t, snr, r, f, a, truth))
    return rows


# truth_id cells the reader parses natively, rewrites, or leaves to its
# line-level diagnosis: blank and literal -1 both parse to -1, but only a
# blank cell is valid; both parses strip a cell, '\x1f' included
_TRUTH_CELLS = ["", "-1", "-0", "+3", " \t", "1_0", " 7 ", "\x1f5"]


@given(faults=st.lists(st.tuples(st.integers(0, 5),
                                 st.sampled_from(sorted(_FAULT_MESSAGES))),
                       max_size=3),
       blanks=st.lists(st.integers(2, 8), max_size=2),
       truths=st.lists(st.tuples(st.integers(0, 5),
                                 st.sampled_from(_TRUTH_CELLS)), max_size=3))
# blank cells on the first and last report line, which open and close a
# block, and on every line; a literal -1 between blank cells
@example(faults=[], blanks=[], truths=[(0, ""), (5, "")])
@example(faults=[], blanks=[], truths=[(k, "") for k in range(6)])
@example(faults=[], blanks=[], truths=[(0, ""), (3, "-1"), (5, "")])
# a padded id on a line the line-level diagnosis reads
@example(faults=[], blanks=[4], truths=[(0, "\x1f5")])
@settings(deadline=None, max_examples=60)
def test_columnar_loader_matches_row_by_row_reference(tmp_path_factory,
                                                      faults, blanks, truths):
    lines = _six_frame_lines(tmp_path_factory.mktemp("io"))
    for frame, cell in truths:
        lines[frame + 2] = ",".join(lines[frame + 2].split(",")[:6] + [cell])
    for frame, kind in faults:
        lines[frame + 2] = ",".join(_fault(kind, lines[frame + 2].split(","),
                                           frame))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, " ")
    expected = _row_by_row(lines, 6, 0.5)
    path = tmp_path_factory.mktemp("io") / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            load_dwell(path)
        assert str(err.value) == expected
    else:
        back = load_dwell(path)
        assert [(k,) + row for k, fr in enumerate(back.frames)
                for row in fr.reports.tolist()] == expected


@pytest.mark.parametrize("first,second",
                         list(itertools.permutations(_FAULT_MESSAGES, 2)))
def test_first_bad_line_wins_in_small_blocks(tmp_path, small_blocks, first,
                                             second):
    test_first_bad_line_wins_across_fault_kinds(tmp_path, first, second)


def test_line_numbers_count_blank_lines_in_small_blocks(tmp_path,
                                                        small_blocks):
    test_line_numbers_count_blank_lines(tmp_path)


@pytest.mark.parametrize("first,second", [
    ("count", "numeric"), ("numeric", "finite"), ("finite", "range"),
    ("range", "truth"), ("index", "truth"), ("time", "truth"),
    ("frame_time", "truth")])
def test_check_order_within_a_line_in_small_blocks(tmp_path, small_blocks,
                                                   first, second):
    test_check_order_within_a_line(tmp_path, first, second)


def test_columnar_loader_matches_reference_in_small_blocks(tmp_path_factory,
                                                           small_blocks):
    test_columnar_loader_matches_row_by_row_reference(tmp_path_factory)


@pytest.mark.parametrize("blank_block", [False, True],
                         ids=["adjacent", "past-a-blank-block"])
@pytest.mark.parametrize("kind", sorted(_FAULT_MESSAGES))
def test_fault_opens_a_later_block(tmp_path, monkeypatch, kind, blank_block):
    """Frames 0 and 1 fill the first two-line block, so frame 2's line
    opens a later one, optionally after a block of blank lines. The order
    checks must take frame 1's line, blocks back, as its predecessor:
    "index" and "time" fault only against it."""
    monkeypatch.setattr(isarpose.io, "_BLOCK_ROWS", 2)
    lines = _six_frame_lines(tmp_path)
    lines[4] = ",".join(_fault(kind, lines[4].split(","), 2))
    blanks = ["", " \t"] if blank_block else []
    _expect_first(tmp_path, lines[:4] + blanks + lines[4:],
                  5 + len(blanks), kind)


@pytest.mark.parametrize("with_truth", [True, False],
                         ids=["blank-truth-cells", "no-truth-column"])
def test_clean_file_never_reaches_line_level_diagnosis(tmp_path, monkeypatch,
                                                       with_truth):
    """A clean file loads through the native block parse alone, also when
    its blank truth_id cells need rewriting and they open or close a
    block."""
    def diagnose(*args):
        raise AssertionError("a clean block went to line-level diagnosis")

    monkeypatch.setattr(isarpose.io, "_block_table", diagnose)
    monkeypatch.setattr(isarpose.io, "_BLOCK_ROWS", 3)
    truth_ids = ([[-1, 0], [1, -1, 2], [-1], [3, 4, -1, -1]] if with_truth
                 else None)
    dwell = _dwell([[(20.0 + j, 0.5 * j, -1.25, 3.0) for j in range(n)]
                    for n in (2, 3, 1, 4)], truth_ids=truth_ids)
    path = tmp_path / "clean.csv"
    save_dwell(dwell, path)
    assert ("truth_id" in path.read_text()) == with_truth
    back = load_dwell(path)
    assert ([fr.reports.tobytes() for fr in back.frames]
            == [fr.reports.tobytes() for fr in dwell.frames])


_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]


@given(st.lists(st.sampled_from(["a", "0,1", " ", ""] + _BREAKS), max_size=12),
       st.integers(1, 5), st.integers(1, 3))
@settings(deadline=None, max_examples=200)
def test_lines_split_as_splitlines(tmp_path_factory, parts, chars, rows):
    text = "".join(parts)
    path = tmp_path_factory.mktemp("io") / "t.csv"
    path.write_text(text, newline="")
    lines = path.read_text().splitlines()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isarpose.io, "_READ_CHARS", chars)
        mp.setattr(isarpose.io, "_BLOCK_ROWS", rows)
        with path.open() as f:
            blocks = list(_blocks(f))
    # the two header lines, then blocks of `rows` lines
    assert blocks == [lines[:2]] * bool(lines) + [
        lines[i:i + rows] for i in range(2, len(lines), rows)]


def test_undecodable_byte_beats_an_earlier_fault(tmp_path, monkeypatch):
    """A byte that does not decode fails the load as a whole-file read
    names it, even after a malformed line and many reads into the file."""
    monkeypatch.setattr(isarpose.io, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(isarpose.io, "_READ_CHARS", 16)
    lines = _six_frame_lines(tmp_path)
    lines[2] = lines[2].replace("20.0", "abc")
    path = tmp_path / "bad.csv"
    path.write_bytes("\n".join(lines + [" "] * 10000).encode()
                     + b"\n\xff\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text()
    with pytest.raises(UnicodeDecodeError) as err:
        load_dwell(path)
    assert str(err.value) == str(whole.value)


def _plus_padded(cell):
    if not cell or cell.startswith("-"):
        return f" {cell} "
    return f"  +{cell}\t"


_LOOSE_VARIANTS = ["blank-lines", "crlf", "no-final-newline",
                   "blank-truth-cells", "width-column-text", "signs-and-spaces"]


@pytest.mark.parametrize("variant", _LOOSE_VARIANTS)
def test_loose_inputs_load_to_the_clean_bytes(tmp_path, variant):
    _loose_input_round_trip(tmp_path, variant)


@pytest.mark.parametrize("variant", _LOOSE_VARIANTS)
def test_loose_inputs_in_small_blocks(tmp_path, small_blocks, variant):
    _loose_input_round_trip(tmp_path, variant)


def _loose_input_round_trip(tmp_path, variant):
    dwell = _dwell([[(20.0, 0.5, -1.25, 3.0), (21.0, 1e-12, 2.0, -0.0)],
                    [], [(19.5, -4.4e8, 0.1 + 0.2, 7.0)]],
                   truth_ids=[[0, -1], [], [3]])
    clean = _text(dwell)
    head, cols, *rows = clean.splitlines()
    if variant == "blank-lines":
        text = "\n".join([head, cols, "", rows[0], "   \t", "", rows[1],
                          " ", rows[2], "", ""]) + "\n"
    elif variant == "crlf":
        text = clean.replace("\n", "\r\n")
    elif variant == "no-final-newline":
        text = clean.rstrip("\n")
    elif variant == "blank-truth-cells":
        text = clean.replace(",\n", ", \t \n")
    elif variant == "width-column-text":
        cells = ["n/a", "", "1_0 x"]
        text = "\n".join([head, cols + ",doppler_width_mps"]
                         + [f"{r},{c}" for r, c in zip(rows, cells)]) + "\n"
    else:
        text = "\n".join([head, cols] + [
            ",".join(map(_plus_padded, r.split(","))) for r in rows]) + "\n"
    path = tmp_path / "loose.csv"
    path.write_text(text, newline="")
    back = load_dwell(path)
    assert [fr.reports.tobytes() for fr in back.frames] == \
        [fr.reports.tobytes() for fr in dwell.frames]
    assert _text(back) == clean


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tail", ["", "\n  \n\n"], ids=["bare", "blank-lines"])
def test_zero_report_dwell_loads_empty_frames(tmp_path, tail):
    dwell = _dwell([[], [], []])
    text = _text(dwell)
    assert len(text.splitlines()) == 2
    path = tmp_path / "empty.csv"
    path.write_text(text + tail)
    back = load_dwell(path)
    assert [len(fr.reports) for fr in back.frames] == [0, 0, 0]
    assert _text(back) == text


def test_pgm_bytes_are_peak_scaled():
    data = pgm_bytes(np.array([[0.0, 127.5], [255.0, 510.0]]))
    assert data == b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])


def test_pgm_all_zero_grid():
    assert pgm_bytes(np.zeros((2, 3))) == b"P5\n3 2\n255\n" + bytes(6)


def test_pgm_empty_grid():
    assert pgm_bytes(np.zeros((0, 3))) == b"P5\n3 0\n255\n"
