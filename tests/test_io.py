"""Dwell file round trips and schema diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isarpose.io import dwell_text, load_dwell, pgm_bytes, save_dwell
from isarpose.ship import Dwell, Frame, report_array

_val = st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False)


def _dwell(rows, interval=0.5, phi0=math.radians(45.0),
           theta0=math.radians(30.0), truth_ids=None):
    """rows: per-frame list of (snr, r, f, a) tuples; truth_ids: per-frame
    lists of ids (-1 for none), or None for a dwell without truth."""
    frames = []
    for k, frame_rows in enumerate(rows):
        t = (k + 0.5) * interval
        snr, r, f, a = np.array(frame_rows, dtype=float).reshape(-1, 4).T
        truth = -1 if truth_ids is None else truth_ids[k]
        frames.append(Frame(index=k, t=t, integration_time=interval,
                            reports=report_array(t, snr, r, f, a, truth)))
    return Dwell(tuple(frames), phi0=phi0, theta0=theta0,
                 range_resolution=0.5, frame_interval=interval)


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
    for fa, fb in zip(dwell.frames, back.frames):
        assert fa.integration_time == fb.integration_time
        # every field, truth_id included, bit for bit
        assert fa.reports.tobytes() == fb.reports.tobytes()


def test_save_load_save_is_byte_identical(tmp_path):
    dwell = _dwell([[(20.0, 0.1 + 0.2, 1.0 / 3.0, -7.0)],
                    [(19.0, 2.0, 3.0, 4.0)]])
    path = tmp_path / "dwell.csv"
    save_dwell(dwell, path)
    assert dwell_text(load_dwell(path)) == path.read_text()


@given(st.lists(st.lists(st.tuples(_val, _val, _val, _val),
                         min_size=1, max_size=3),
                min_size=1, max_size=4))
@settings(deadline=None, max_examples=30)
def test_round_trip_property(tmp_path_factory, rows):
    dwell = _dwell(rows)
    path = tmp_path_factory.mktemp("io") / "d.csv"
    save_dwell(dwell, path)
    back = load_dwell(path)
    assert ([fr.reports.tolist() for fr in back.frames]
            == [fr.reports.tolist() for fr in dwell.frames])


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
    assert dwell_text(back) == path.read_text()


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


def test_pgm_bytes_are_peak_scaled():
    data = pgm_bytes(np.array([[0.0, 127.5], [255.0, 510.0]]))
    assert data == b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])


def test_pgm_all_zero_grid():
    assert pgm_bytes(np.zeros((2, 3))) == b"P5\n3 2\n255\n" + bytes(6)


def test_pgm_empty_grid():
    assert pgm_bytes(np.zeros((0, 3))) == b"P5\n3 0\n255\n"
