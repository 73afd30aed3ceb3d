"""Command-line entry points, exit codes, cross-mode agreement."""

import csv
import dataclasses
import errno
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import isarpose
import isarpose.io
import isarpose.runner
from isarpose.acceptance import _invert, run_all
from isarpose.angles import estimate_angles
from isarpose.cli import main
from isarpose.io import dwell_text, load_dwell, save_dwell
from isarpose.moments import moments_series
from isarpose.pose import (COND_GUARD, PEARLS_EPS, FrameClass, motion_matrix,
                           report_noise)
from isarpose.ship import SIGMA_KEYS, Dwell, Frame, report_array
from isarpose.simulate import ScenarioConfig
from tests.conftest import classify_oracle

SCENARIO = {
    "duration": 30.0,
    "frame_interval": 0.5,
    "integration_time": 0.5,
    "phi0_deg": 45.0,
    "theta0_deg": 30.0,
    "steady_aspect_rate_dps": 0.3,
    "aspect_osc": {"amplitude_deg": 1.0, "period_s": 12.0},
    "tilt_osc": {"amplitude_deg": 1.0, "period_s": 10.0},
    "noise": {"sigma_r": 0.2, "sigma_f": 0.03, "sigma_a": 0.02},
    "seed": 11,
    "ship": {"loa": 120.0},
}

# the benchmark's canonical scene: 60 s, 120 frames of the README ship
CANONICAL = {**SCENARIO, "duration": 60.0,
             "ship": {"loa": 120.0, "n_scatterers": 24, "seed": 3}}

ANALYSIS_FILES = ("covariances.csv", "angles.csv", "consistency.csv",
                  "badfit.csv", "focus.csv", "classes.csv", "length.csv")


def _write_config(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _with_header(sim_dir, tmp_path, key, value):
    """Path of a copy of sim_dir's dwell whose header sets key to the JSON
    text value."""
    lines = (sim_dir / "dwell.csv").read_text().splitlines(True)
    header = re.sub(f'"{key}": [^,}}]+', f'"{key}": {value}', lines[0])
    assert header != lines[0]
    path = tmp_path / "dwell.csv"
    path.write_text(header + "".join(lines[1:]))
    return str(path)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "sim"
    code = main(["simulate", "--config", _write_config(tmp, SCENARIO),
                 "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_written(self, sim_dir):
        names = {p.name for p in sim_dir.iterdir()}
        assert {"dwell.csv", "run_report.json", *ANALYSIS_FILES} <= names
        report = json.loads((sim_dir / "run_report.json").read_text())
        assert report["mode"] == "simulate"
        assert report["n_frames"] == 60
        assert set(report["manifest"]) == names

    def test_mean_aspect_is_the_slow_aspect_mean(self, sim_dir):
        # the report's mean aspect averages angles.csv's slow aspect, which
        # the fit keeps centred on the scenario's 45 deg
        report = json.loads((sim_dir / "run_report.json").read_text())
        mean_aspect = report["angle_summary"]["mean_aspect_deg"]
        phi_mean = [float(r["phi_mean_deg"])
                    for r in _rows(sim_dir / "angles.csv")]
        assert mean_aspect == pytest.approx(sum(phi_mean) / len(phi_mean),
                                            abs=1e-12)
        assert mean_aspect == pytest.approx(45.0, abs=1e-9)

    def test_seed_override_changes_dwell(self, sim_dir, tmp_path):
        out = tmp_path / "seeded"
        code = main(["simulate", "--config", _write_config(tmp_path, SCENARIO),
                     "--out", str(out), "--seed", "12"])
        assert code == 0
        assert (out / "dwell.csv").read_text() \
            != (sim_dir / "dwell.csv").read_text()

    def test_missing_scenario_key_is_config_error(self, tmp_path):
        broken = {k: v for k, v in SCENARIO.items() if k != "duration"}
        code = main(["simulate", "--config", _write_config(tmp_path, broken),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("change, key", [
        # a null value used to exit 1 with a TypeError traceback
        ({"steady_aspect_rate_dps": None}, "steady_aspect_rate_dps"),
        ({"degradations": [{"kind": "bogey", "t_start": 1.0, "t_stop": 2.0,
                            "density": None}]}, "degradations[0].density"),
        # a misspelled key used to run silently with the default
        ({"nosie": {"sigma_r": 1.0}}, "nosie"),
        ({"noise": {"sigma_r": 0.2, "sigma_x": 0.1}}, "noise.sigma_x"),
        ({"aspect_osc": {"amplitude": 2.0, "period_s": 12.0}},
         "aspect_osc.amplitude"),
        ({"tilt_osc": {"amplitude_deg": 1.0, "period": 10.0}}, "tilt_osc.period"),
        ({"ship": {"loa": 120.0, "n_scatters": 40}}, "ship.n_scatters"),
        ({"degradations": [{"kind": "bogey", "t_start": 1.0, "t_stop": 2.0,
                            "denisty": 9}]}, "degradations[0].denisty"),
        # a null oscillation or beam used to run as no oscillation or as the
        # rule-of-thumb beam; leaving the key out is how to ask for those
        ({"aspect_osc": None}, "aspect_osc"),
        ({"tilt_osc": None}, "tilt_osc"),
        ({"ship": {"loa": 120.0, "beam": None}}, "ship.beam"),
    ])
    def test_bad_scenario_key_is_config_error(self, tmp_path, capsys, change,
                                              key):
        code = main(["simulate", "--config",
                     _write_config(tmp_path, {**SCENARIO, **change}),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, key", [
        # bool() ran "false" as a perfect dwell and null as a noisy one
        ({"perfect": "false"}, "perfect"),
        ({"perfect": None}, "perfect"),
        ({"ship": {"loa": 120.0, "symmetric": 1}}, "ship.symmetric"),
        # int() truncated a fractional count and took a bool as 0 or 1
        ({"seed": 2.7}, "seed"),
        ({"ship": {"loa": 120.0, "n_scatterers": 24.5}}, "ship.n_scatterers"),
        ({"ship": {"loa": 120.0, "seed": True}}, "ship.seed"),
        ({"degradations": [{"kind": "bogey", "t_start": 1.0, "t_stop": 2.0,
                            "density": 6.9}]}, "degradations[0].density"),
        # a negative seed failed in the simulator as a pipeline error (exit
        # 4), or as a config error that named no key
        ({"seed": -1}, "seed"),
        ({"ship": {"loa": 120.0, "seed": -1}}, "ship.seed"),
        # Infinity overflowed in the frame count (exit 1); NaN failed later
        # in the pipeline (exit 4) with a message that named no key
        ({"duration": math.inf}, "duration"),
        ({"duration": math.nan}, "duration"),
        ({"phi0_deg": math.nan}, "phi0_deg"),
        ({"tilt_osc": {"amplitude_deg": 1.0, "period_s": math.nan}},
         "tilt_osc.period_s"),
        # a numeric string was read as its number, and an integer too large
        # for a float overflowed in the finite check (exit 1)
        ({"duration": "30"}, "duration"),
        ({"phi0_deg": 10 ** 400}, "phi0_deg"),
        # under one frame: a perfect dwell failed writing the file (exit 1),
        # a degraded one in the simulator (exit 4)
        ({"duration": 0.3}, "duration"),
        ({"duration": 0.3, "perfect": True}, "duration"),
        # a zero period divided by zero even at zero amplitude (exit 1)
        ({"tilt_osc": {"amplitude_deg": 0.0, "period_s": 0.0}}, "tilt_osc"),
        ({"aspect_osc": {"amplitude_deg": 0.0, "period_s": -12.0}},
         "aspect_osc"),
        # a mean angle at or beyond +-90 deg exited 4 from the simulator
        ({"theta0_deg": -90}, "theta0_deg"),
        ({"phi0_deg": 95}, "phi0_deg"),
        # a zero resolution exited 4; a negative fade applied no fading
        ({"range_resolution_m": 0}, "range_resolution_m"),
        ({"fade_sigma_db": -1}, "fade_sigma_db"),
    ])
    def test_mistyped_scenario_value_is_config_error(self, tmp_path, capsys,
                                                     change, key):
        code = main(["simulate", "--config",
                     _write_config(tmp_path, {**SCENARIO, **change}),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change", [
        {"duration": 1e300, "frame_interval": 1e-10}, {"duration": 1e300}],
        ids=["count-overflows", "count-beyond-int64"])
    def test_frame_count_beyond_int64_is_config_error(self, change):
        # the first raised OverflowError (exit 1); the second was accepted,
        # and simulating it would have allocated its 2e300 frames
        with pytest.raises(isarpose.runner.ConfigError,
                           match=r"^scenario 'duration': floor\(duration / "
                           r"frame_interval\) must be an integer from 1 to "
                           r"the int64 maximum$"):
            isarpose.runner.scenario_from_dict({**SCENARIO, **change})

    @pytest.mark.parametrize("seed", [-1, 2.7, True])
    def test_run_seed_must_be_a_non_negative_integer(self, tmp_path, seed):
        # the library path truncated 2.7 to 2 and took True as 1
        with pytest.raises(isarpose.runner.ConfigError,
                           match="seed must be a non-negative integer"):
            isarpose.runner.RunConfig(mode="simulate", output_dir=str(tmp_path),
                                      scenario=SCENARIO, seed=seed)

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--config", _write_config(tmp_path, SCENARIO),
                     "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_count_is_accepted(self):
        ship = {"loa": 120.0, "n_scatterers": 24, "seed": 3}
        cfg_i, ship_i, perfect_i = isarpose.runner.scenario_from_dict(
            {**SCENARIO, "seed": 5, "ship": ship})
        cfg_f, ship_f, perfect_f = isarpose.runner.scenario_from_dict(
            {**SCENARIO, "seed": 5.0, "ship": {**ship, "n_scatterers": 24.0}})
        assert (cfg_f, perfect_f) == (cfg_i, perfect_i)
        # a ship compares by identity, so its arrays are compared here
        assert ship_f.xyz.tobytes() == ship_i.xyz.tobytes()
        assert ship_f.rcs.tobytes() == ship_i.rcs.tobytes()
        assert ship_f.loa_true == ship_i.loa_true

    def test_unreadable_config_is_config_error(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path):
        # six frames cannot support the estimator; the run must fail
        # without leaving a half-written output directory behind
        short = dict(SCENARIO, duration=3.0)
        out = tmp_path / "partial"
        code = main(["simulate", "--config", _write_config(tmp_path, short),
                     "--out", str(out)])
        assert code == 4
        assert not out.exists() or not any(out.iterdir())

    def test_disk_full_mid_file_leaves_no_partial_outputs(self, sim_dir,
                                                          tmp_path,
                                                          monkeypatch):
        # the disk fills half way through dwell.csv, the first file
        # written: the half already on disk must not stay behind
        room = (sim_dir / "dwell.csv").stat().st_size // 2
        real_open = Path.open
        cut = []

        class FillingWriter:
            def __init__(self, fh):
                self.fh, self.room = fh, room

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                data = bytes(data)
                self.fh.write(data[:self.room])
                if len(data) > self.room:
                    cut.append(self.fh.tell())
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)
                return len(data)

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

        def filling_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if path.name == "dwell.csv" and "w" in mode:
                return FillingWriter(fh)
            return fh

        monkeypatch.setattr(Path, "open", filling_open)
        out = tmp_path / "full"
        code = main(["simulate", "--config", _write_config(tmp_path, SCENARIO),
                     "--out", str(out)])
        assert code == 4
        assert cut == [room]
        assert not out.exists() or not any(out.iterdir())

    def test_writer_fault_mid_file_leaves_no_outputs(self, sim_dir, tmp_path,
                                                     monkeypatch):
        # formatting fails half way through dwell.csv, the first file
        # written: the fault reaches the caller as raised, and the half
        # already on disk does not stay behind
        room = (sim_dir / "dwell.csv").stat().st_size // 2
        real = isarpose.runner.dwell_text
        fault = ValueError("frame formatting failed")
        cut = []

        class Faulty:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                if self.fh.tell() + len(data) > room:
                    cut.append(self.fh.tell())
                    raise fault
                return self.fh.write(data)

        monkeypatch.setattr(isarpose.runner, "dwell_text",
                            lambda dwell, fh: real(dwell, Faulty(fh)))
        out = tmp_path / "faulty"
        with pytest.raises(ValueError) as raised:
            isarpose.runner.run(isarpose.runner.RunConfig(
                mode="simulate", output_dir=str(out), scenario=SCENARIO))
        assert raised.value is fault
        assert len(cut) == 1 and 0 < cut[0] <= room
        assert not out.exists() or not any(out.iterdir())

    def test_flush_never_holds_the_dwell_text(self, tmp_path, monkeypatch):
        # 40 frames of 2,000 reports, a 7 MB dwell.csv: from the simulated
        # dwell on, traced memory never grows by the file's size, and
        # writing it adds a few frames' text, not the file's
        scenario = dict(SCENARIO, duration=20.0,
                        ship={"loa": 120.0, "n_scatterers": 2000})
        real_sim = isarpose.runner.simulate_degraded
        real_flush = isarpose.runner._Outputs.flush
        seen = {}

        def simulate(*args):
            dwell = real_sim(*args)
            tracemalloc.start()
            return dwell

        def flush(self):
            seen["held"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            real_flush(self)
            seen["peak"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(isarpose.runner, "simulate_degraded", simulate)
        monkeypatch.setattr(isarpose.runner._Outputs, "flush", flush)
        out = tmp_path / "sim"
        try:
            isarpose.runner.run(isarpose.runner.RunConfig(
                mode="simulate", output_dir=str(out), scenario=scenario))
        finally:
            tracemalloc.stop()
        size = (out / "dwell.csv").stat().st_size
        assert size > 5e6
        assert seen["peak"] - seen["held"] < size / 4
        assert seen["peak"] < size / 2

    @pytest.mark.parametrize("truth", [True, False], ids=["truth", "no-truth"])
    def test_every_dwell_writer_gives_the_same_bytes(self, tmp_path,
                                                     monkeypatch, truth):
        # the simulated dwell's first, middle and last frames are emptied,
        # and without truth ids its file has no truth_id column; the reloads
        # run in blocks of 7 report lines, so they cross block boundaries
        monkeypatch.setattr(isarpose.io, "_BLOCK_ROWS", 7)
        real = isarpose.runner.simulate_degraded
        empty = (0, 30, 59)   # of the scenario's 60 frames
        simulated = []

        def gappy(*args):
            dwell = real(*args)
            frame = np.repeat(np.arange(len(dwell.counts)), dwell.counts)
            reports = dwell.reports[~np.isin(frame, empty)]
            if not truth:
                reports["truth_id"] = -1
            counts = dwell.counts.copy()
            counts[list(empty)] = 0
            simulated.append(dataclasses.replace(dwell, reports=reports,
                                                 counts=counts))
            return simulated[-1]

        monkeypatch.setattr(isarpose.runner, "simulate_degraded", gappy)
        out = tmp_path / "gappy"
        code = main(["simulate", "--config", _write_config(tmp_path, SCENARIO),
                     "--out", str(out)])
        assert code == 0
        dwell, = simulated
        saved, again = tmp_path / "saved.csv", tmp_path / "again.csv"
        save_dwell(dwell, saved)
        save_dwell(load_dwell(saved), again)
        written = (out / "dwell.csv").read_bytes()
        assert written == saved.read_bytes() == again.read_bytes()
        buf = io.BytesIO()
        dwell_text(dwell, buf)
        assert written == buf.getvalue()
        columns = written.split(b"\n")[1].split(b",")
        assert (b"truth_id" in columns) == truth
        assert load_dwell(saved).counts[list(empty)].tolist() == [0, 0, 0]

    def test_snr_weighting_reaches_simulate_analysis(self, sim_dir, tmp_path):
        out = tmp_path / "sim-snr"
        code = main(["simulate", "--config", _write_config(tmp_path, SCENARIO),
                     "--out", str(out), "--weighting", "snr"])
        assert code == 0
        assert filecmp.cmp(out / "dwell.csv", sim_dir / "dwell.csv",
                           shallow=False)
        assert not filecmp.cmp(out / "covariances.csv",
                               sim_dir / "covariances.csv", shallow=False)
        again = tmp_path / "an-snr"
        code = main(["analyze", "--input", str(out / "dwell.csv"),
                     "--out", str(again), "--weighting", "snr"])
        assert code == 0
        match, mismatch, errors = filecmp.cmpfiles(
            out, again, ANALYSIS_FILES, shallow=False)
        assert not mismatch and not errors


class TestAnalyze:
    def test_reproduces_simulate_analysis(self, sim_dir, tmp_path):
        out = tmp_path / "an"
        code = main(["analyze", "--input", str(sim_dir / "dwell.csv"),
                     "--out", str(out)])
        assert code == 0
        match, mismatch, errors = filecmp.cmpfiles(
            sim_dir, out, ANALYSIS_FILES, shallow=False)
        assert not mismatch and not errors
        sim_report = json.loads((sim_dir / "run_report.json").read_text())
        an_report = json.loads((out / "run_report.json").read_text())
        for key in ("n_frames", "angle_summary", "class_counts", "loa",
                    "badfit_count"):
            assert an_report[key] == sim_report[key]
        assert an_report["mode"] == "analyze"

    def test_snr_weighting_reaches_pearls_score(self, sim_dir, tmp_path):
        # the pearls score must use the run's SNR-weighted crf (the one in
        # covariances.csv), not a uniform-weight recomputation; a supplied
        # period keeps the wave fit, so frames have tilt rate to invert with
        out = tmp_path / "snr"
        code = main(["analyze", "--input", str(sim_dir / "dwell.csv"),
                     "--out", str(out), "--weighting", "snr",
                     "--period", "9"])
        assert code == 0
        crf = [float(row["crf"]) for row in _rows(out / "covariances.csv")]
        pearls = [float(row["pearls_score"])
                  for row in _rows(out / "classes.csv")]
        dwell = load_dwell(str(sim_dir / "dwell.csv"))
        uniform = moments_series(
            dataclasses.replace(dwell, report_sigmas=None)).crf
        assert max(abs(a - b) for a, b in zip(crf, uniform)) > 1e-3
        scored = [(c, p) for c, p in zip(crf, pearls) if p > 0]
        assert scored
        for c, p in scored:
            assert p == pytest.approx(c ** 2 / (1.0 - c ** 2 + PEARLS_EPS),
                                      rel=1e-12)

    def test_dwell_without_sigmas_is_flagged_and_not_debiased(
            self, sim_dir, tmp_path):
        dwell = dataclasses.replace(load_dwell(str(sim_dir / "dwell.csv")),
                                    report_sigmas=None)
        path = tmp_path / "dwell.csv"
        save_dwell(dwell, path)
        out = tmp_path / "an"
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "run_report.json").read_text())
        assert "report noise unknown: moments not debiased" in report["flags"]
        cov_ff = [float(row["cov_ff"])
                  for row in _rows(out / "covariances.csv")]
        assert cov_ff == moments_series(dwell).cov_ff.tolist()
        sim_report = json.loads((sim_dir / "run_report.json").read_text())
        assert not any("report noise" in f for f in sim_report["flags"])

    @pytest.mark.parametrize("snr_db", [5000.0, -4000.0],
                             ids=["power-overflows", "weights-underflow"])
    def test_frame_of_non_finite_snr_weights_is_invalid(
            self, canonical_dir, tmp_path, snr_db):
        # 10^(SNR/10) overflows to inf past ~3,083 dB, and underflows to 0
        # below ~-3,240 dB; either way frame 5's normalized weights are not
        # finite, and the frame is invalid as an under-populated one is
        dwell = load_dwell(str(canonical_dir / "dwell.csv"))
        reports = dwell.reports.copy()
        reports["snr"][dwell.offsets[5]:dwell.offsets[6]] = snr_db
        odd = dataclasses.replace(dwell, reports=reports)
        path = tmp_path / "dwell.csv"
        save_dwell(odd, path)
        out = tmp_path / "an"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--input", str(path), "--out", str(out),
                         "--weighting", "snr"]) == 0
        rows = _rows(out / "covariances.csv")
        assert [k for k, row in enumerate(rows) if row["valid"] == "0"] == [5]
        # every other frame keeps the moments it has in the untouched dwell
        mom, before = moments_series(odd, "snr"), moments_series(dwell, "snr")
        assert all(mom[k].tobytes() == before[k].tobytes()
                   for k in range(len(dwell.counts)) if k != 5)

    def test_overflowing_snr_keeps_its_composite(self, canonical_dir,
                                                 tmp_path):
        # 10^(SNR/10) overflows past ~3,083 dB; a composite weighs its
        # reports by power relative to its strongest, so a Plan frame of
        # 5000 dB leaves every weight finite and the image not blank
        dwell = load_dwell(str(canonical_dir / "dwell.csv"))
        reports = dwell.reports.copy()
        reports["snr"][dwell.offsets[26]:dwell.offsets[27]] = 5000.0
        path = tmp_path / "dwell.csv"
        save_dwell(dataclasses.replace(dwell, reports=reports), path)
        out = tmp_path / "an"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--input", str(path), "--out", str(out),
                         "--weighting", "uniform"]) == 0
        plan = json.loads((out / "composite_plan.json").read_text())
        assert 26 in plan["frames_used"]
        pgm = (out / "composite_plan.pgm").read_bytes()
        width, height = plan["shape"][1], plan["shape"][0]
        pixels = pgm[-width * height:]
        assert any(pixels)

    def test_length_table_shows_the_extents_its_lengths_used(
            self, canonical_dir, tmp_path):
        # each frame gains a multipath ghost 200 m past its far end, 10 dB
        # under its median SNR: the length stage screens it out, and
        # length.csv's extents are the screened ones its lengths came from
        dwell = load_dwell(str(canonical_dir / "dwell.csv"))
        frames = []
        for k in range(len(dwell.counts)):
            reports = dwell.reports[dwell.offsets[k]:dwell.offsets[k + 1]]
            far = int(np.argmax(reports["r"]))
            ghost = report_array([reports["t"][far]],
                                 np.median(reports["snr"]) - 10.0,
                                 reports["r"][far] + 200.0, reports["f"][far],
                                 reports["a"][far])
            frames.append(np.concatenate([reports, ghost]))
        ghosted = Dwell(np.concatenate(frames),
                        [len(fr) for fr in frames], dwell.phi0, dwell.theta0,
                        dwell.range_resolution, dwell.frame_interval,
                        dwell.integration_time, dwell.report_sigmas)
        path = tmp_path / "dwell.csv"
        save_dwell(ghosted, path)
        out = tmp_path / "an"
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
        rows = _rows(out / "length.csv")
        r_max = np.array([float(row["r_max"]) for row in rows])
        r_min = np.array([float(row["r_min"]) for row in rows])
        assert r_max.tolist() == [float(fr["r"][:-1].max()) for fr in frames]
        assert r_min.tolist() == [float(fr["r"].min()) for fr in frames]
        assert sum(row["usable"] == "1" for row in rows) >= 5

        # a run whose length fails writes NaN extents beside its NaN lengths
        cfg = _write_config(tmp_path, {"badfit_threshold": 1e-12},
                            name="overrides.json")
        failed = tmp_path / "failed"
        assert main(["analyze", "--input", str(path), "--out", str(failed),
                     "--config", cfg]) == 0
        report = json.loads((failed / "run_report.json").read_text())
        assert report["loa"] is None
        assert any(f.startswith("length: ") for f in report["flags"])
        assert all(row[name] == "nan" for row in _rows(failed / "length.csv")
                   for name in ("loa_frame", "r_min", "r_max"))

    def test_header_frame_count_beyond_memory_is_data_error(self, tmp_path,
                                                            capsys):
        # the frame counts are allocated once every report is read; a count
        # no array can hold used to build a list per frame before any report
        header = {"format": "isar-dwell", "version": 1, "n_frames": 2 ** 62,
                  "frame_interval": 0.5, "integration_time": 0.5,
                  "phi0_deg": 45.0, "theta0_deg": 30.0,
                  "range_resolution_m": 0.5}
        path = tmp_path / "dwell.csv"
        path.write_text(json.dumps(header) + "\n"
                        "frame_index,t,snr_db,range_m,doppler_mps,accel_mps2\n"
                        "0,0.25,20.0,1.0,0.0,0.0\n"
                        "1,0.75,20.0,2.0,0.0,0.0\n"
                        "2,1.25,20.0,3.0,0.0,0.0\n")
        code = main(["analyze", "--input", str(path),
                     "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (
            3, "data error: line 1: header 'n_frames' 4611686018427387904 is "
            "more frames than memory holds\n")
        assert not (tmp_path / "out").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["analyze", "--input", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("key, value", [
        ("phi0_deg", "NaN"), ("theta0_deg", "Infinity"),
        ("phi0_deg", "-Infinity"), ("theta0_deg", "-95"),
    ])
    def test_bad_header_mean_angle_is_data_error(self, sim_dir, tmp_path,
                                                 capsys, key, value):
        # NaN and Infinity exited 4 from the angle fit; -95 deg exited 0
        code = main(["analyze", "--input",
                     _with_header(sim_dir, tmp_path, key, value),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert (f"data error: line 1: header '{key}' must be finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1e999", "120.7", "1e300"])
    def test_non_integer_header_frame_count_is_data_error(
            self, sim_dir, tmp_path, capsys, value):
        # 1e999 exited 1 with an OverflowError, 120.7 analyzed 120 frames
        # and 1e300 built a report list for every frame it claimed
        code = main(["analyze", "--input",
                     _with_header(sim_dir, tmp_path, "n_frames", value),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "data error: line 1: header 'n_frames' must be an integer")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb, code, error", [
        ("simulate", 2, "config error: scenario 'integration_time':"),
        ("analyze", 3, "data error: line 1: header 'integration_time'")],
        ids=["simulate", "analyze"])
    def test_huge_integration_time_is_rejected_at_the_boundary(
            self, sim_dir, tmp_path, capsys, verb, code, error):
        # before, every stage before pose ran, then exit 4: at 1e300 T^2 in
        # the motion matrix's scaling overflowed (an errno tuple for a
        # message), and at 1e-170 report_noise divided by an underflowed T^2
        for value in ("1e300", "1e-170"):
            if verb == "simulate":
                args = ["--config", _write_config(
                    tmp_path, {**SCENARIO, "integration_time": float(value)})]
            else:
                args = ["--input", _with_header(sim_dir, tmp_path,
                                                "integration_time", value)]
            assert main([verb, *args, "--out", str(tmp_path / "out")]) == code
            assert capsys.readouterr().err.startswith(
                f"{error} must be from 7.458340731200208e-155 to "
                "1.3407807929942596e+154, where its square and inverse square "
                "are finite")
            assert not (tmp_path / "out").exists()

    def test_bow_on_mean_aspect_is_an_angles_stage_error(
            self, sim_dir, tmp_path, capsys):
        # a 2 deg mean aspect loads, but the angle fit cannot observe it
        code = main(["analyze", "--input",
                     _with_header(sim_dir, tmp_path, "phi0_deg", "2.0"),
                     "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err.startswith("pipeline error: angles: ")
        assert not (tmp_path / "out").exists()

    def test_corrupt_dwell_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        code = main(["analyze", "--input", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("overrides,args,message", [
        ({"badfit_threshold": "x"}, [],
         "badfit_threshold must be a finite number"),
        ({"badfit_threshold": float("nan")}, [],
         "badfit_threshold must be a finite number"),
        ({"class_threshold": None}, [], "class_threshold must be a finite number"),
        ({"class_threshold": True}, [], "class_threshold must be a finite number"),
        # the overrides JSON holds the two thresholds only: the period and
        # the weighting are flags, and the report sigmas come from the dwell
        ({"period": "x"}, [], "unknown override key 'period'"),
        ({"noise_override": [0.2, 0.03, 0.02]}, [],
         "unknown override key 'noise_override'"),
        ({"period": -3.0}, [], "unknown override key 'period'"),
        ({}, ["--period", "nan"], "period must be a finite positive number"),
        ({}, ["--period", "inf"], "period must be a finite positive number"),
        ({}, ["--period", "0"], "period must be a finite positive number"),
        ({"weighting": "snr"}, [], "unknown override key 'weighting'"),
        # a misspelled key would otherwise run silently with the defaults
        ({"badfit_treshold": 0.5, "noise_overide": [1, 1, 1]}, [],
         "unknown override key 'badfit_treshold'"),
        # in range as numbers, but a negative BadFit threshold silently
        # flagged all 120 canonical frames
        ({"badfit_threshold": -1}, [],
         "badfit_threshold must be a finite positive number"),
        ({"class_threshold": 0}, [],
         "class_threshold must be a finite positive number"),
    ])
    def test_bad_numeric_override_is_config_error(self, sim_dir, tmp_path,
                                                  capsys, overrides, args,
                                                  message):
        cfg = _write_config(tmp_path, overrides, name="overrides.json")
        code = main(["analyze", "--input", str(sim_dir / "dwell.csv"),
                     "--out", str(tmp_path / "out"), "--config", cfg, *args])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


_POSITIVE = "must be positive and finite"
_ANGLE = "must be finite and strictly between -90 and 90"
_SIGMA = "must be a finite number >= 0"
_INTEGRATION = ("must be from 7.458340731200208e-155 to "
                "1.3407807929942596e+154, where its square and inverse "
                "square are finite")
_SCENARIO_SIGMAS = dict(zip(SIGMA_KEYS, ("noise.sigma_r", "noise.sigma_f",
                                         "noise.sigma_a")))


@pytest.mark.parametrize("key, value, reason", [
    *((key, value, _POSITIVE)
      for key in ("frame_interval", "integration_time", "range_resolution_m")
      for value in (0.0, -0.5, math.nan, math.inf)),
    *((key, value, _ANGLE) for key in ("phi0_deg", "theta0_deg")
      for value in (90.0, -90.0, 95.0)),
    *((key, value, _SIGMA) for key in SIGMA_KEYS
      for value in (-0.2, math.nan)),
    *(("integration_time", value, _INTEGRATION)
      for value in (1.3407807929942597e154, 1e-170)),
])
def test_dwell_rules_give_one_reason_at_every_boundary(sim_dir, tmp_path,
                                                       capsys, key, value,
                                                       reason):
    """A bad value of dwell metadata fails the dwell file header (exit 3),
    the scenario (exit 2) and Dwell with the same reason, each behind its
    own prefix: the rule is held once, in ship.metadata_fault. key is the
    header's, and angles are in degrees."""
    code = main(["analyze", "--input",
                 _with_header(sim_dir, tmp_path, key, json.dumps(value)),
                 "--out", str(tmp_path / "an")])
    assert (code, capsys.readouterr().err) == (
        3, f"data error: line 1: header '{key}' {reason}\n")

    scenario_key = _SCENARIO_SIGMAS.get(key, key)
    kw = {"frame_interval": 0.5, "integration_time": 0.5,
          "range_resolution": 0.5, "phi0": 0.5, "theta0": 0.3}
    sigmas = [0.2, 0.03, 0.02]
    if key in SIGMA_KEYS:
        sigmas[SIGMA_KEYS.index(key)] = value
    elif key in ("phi0_deg", "theta0_deg"):
        kw[key.removesuffix("_deg")] = math.radians(value)
    else:
        kw[key.removesuffix("_m")] = value
    with pytest.raises(ValueError) as err:
        ScenarioConfig(duration=30.0, noise=tuple(sigmas), **kw)
    assert str(err.value) == f"scenario '{scenario_key}': {reason}"
    # the scenario reader takes finite JSON numbers only, so NaN and
    # Infinity fail there, before the rule
    if math.isfinite(value):
        section, _, name = scenario_key.rpartition(".")
        scenario = {**SCENARIO, "noise": dict(SCENARIO["noise"])}
        (scenario[section] if section else scenario)[name] = value
        code = main(["simulate", "--config", _write_config(tmp_path, scenario),
                     "--out", str(tmp_path / "sim")])
        assert (code, capsys.readouterr().err) == (
            2, f"config error: scenario '{scenario_key}': {reason}\n")

    with pytest.raises(ValueError) as err:
        Dwell(report_array([0.25], 20.0, 0.0, 0.0, 0.0), [1],
              report_sigmas=sigmas, **kw)
    assert str(err.value) == f"{key} {reason}"


@pytest.fixture(scope="module")
def canonical_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("canonical")
    out = tmp / "sim"
    code = main(["simulate", "--config", _write_config(tmp, CANONICAL),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("weighting", ["uniform", "snr"])
def test_runs_build_no_frame_objects(tmp_path, monkeypatch, weighting):
    # every stage of a run, and every acceptance check, reads the dwell's
    # one report table; Frame views are built only for a caller that asks
    # for dwell.frames
    built = []
    init = Frame.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Frame, "__post_init__", counted)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", _write_config(tmp_path, CANONICAL),
                 "--out", str(sim), "--weighting", weighting]) == 0
    assert main(["analyze", "--input", str(sim / "dwell.csv"),
                 "--out", str(tmp_path / "an"), "--weighting", weighting]) == 0
    if weighting == "uniform":   # the checks take no weighting: run once
        assert all(passed for _, passed, _ in run_all())
    assert built == []
    assert len(load_dwell(str(sim / "dwell.csv")).frames) == len(built) == 120


def test_every_exported_name_resolves():
    assert [name for name in isarpose.__all__
            if not hasattr(isarpose, name)] == []


class TestReportSigmas:
    def test_noisy_canonical_run_scores_plan_frames(self, canonical_dir):
        # the header's sigmas, not pose.report_noise's radar-mode guess (20x
        # the scene's Doppler and 200x its acceleration sigma), let Plan score
        report = json.loads((canonical_dir / "run_report.json").read_text())
        assert report["class_counts"].get("Plan", 0) >= 10
        assert (canonical_dir / "composite_plan.pgm").exists()
        assert "no Plan composite" not in report["flags"]

    def test_zero_sigmas_score_like_unknown_ones(self, tmp_path):
        # a perfect dwell's all-zero sigmas would make every score
        # infinite, so its poses are scored with report_noise, as a dwell
        # whose header has no sigmas is
        out = tmp_path / "perfect"
        code = main(["simulate", "--config",
                     _write_config(tmp_path, {**CANONICAL, "perfect": True}),
                     "--out", str(out)])
        assert code == 0
        dwell = load_dwell(str(out / "dwell.csv"))
        assert dwell.report_sigmas == (0.0, 0.0, 0.0)
        # every scatterer reported at its own SNR, not a flat 20 dB
        ship = isarpose.runner.scenario_from_dict(CANONICAL)[1]
        snr = [20.0 + 10 * math.log10(w) for w in ship.rcs.tolist()]
        assert dwell.reports["snr"].tolist() == snr * len(dwell.counts)
        path = tmp_path / "unknown.csv"
        save_dwell(dataclasses.replace(dwell, report_sigmas=None), path)
        again = tmp_path / "an"
        assert main(["analyze", "--input", str(path), "--out", str(again)]) == 0
        assert filecmp.cmp(out / "classes.csv", again / "classes.csv",
                           shallow=False)
        scores = [float(row["plan_score"])
                  for row in _rows(out / "classes.csv")]
        assert all(math.isfinite(v) for v in scores)

    def test_header_sigmas_reach_profile_score(self, canonical_dir):
        dwell = load_dwell(str(canonical_dir / "dwell.csv"))
        mom = moments_series(dwell)
        track, _ = estimate_angles(mom, dwell.phi0, dwell.theta0)
        T = dwell.integration_time
        m, cond = motion_matrix(track, T)
        flagged = [row["flagged"] == "1"
                   for row in _rows(canonical_dir / "badfit.csv")]
        guess = report_noise(dwell.range_resolution, T)
        rows = _rows(canonical_dir / "classes.csv")
        pose, _ = _invert(dwell, mom, m, cond, dwell.report_sigmas)
        other, _ = _invert(dwell, mom, m, cond, guess)
        scored = np.flatnonzero(pose["solved"] & ~np.array(flagged))
        for k in scored.tolist():
            assert float(rows[k]["profile_score"]) == pose["profile"][k]
            assert other["profile"][k] != pose["profile"][k]
        assert len(scored) >= 10

    def test_valid_overrides_reach_every_class_decision(self, canonical_dir,
                                                        tmp_path):
        cfg = _write_config(tmp_path, {"class_threshold": 8.0,
                                       "badfit_threshold": 2.0},
                            name="overrides.json")
        out = tmp_path / "an"
        assert main(["analyze", "--input", str(canonical_dir / "dwell.csv"),
                     "--out", str(out), "--config", cfg]) == 0
        valid = [row["valid"] == "1"
                 for row in _rows(out / "covariances.csv")]
        rows = _rows(out / "classes.csv")
        for k, row in enumerate(rows):
            scores = [float(row[name]) for name in
                      ("profile_score", "plan_score", "pearls_score")]
            expect = (FrameClass.INVALID
                      if not valid[k] or float(row["cond"]) > COND_GUARD
                      else classify_oracle(*scores, 8.0))
            assert row["frame_class"] == expect.value, k
        # frames the lower BadFit threshold flags score with tenfold noise
        default = _rows(canonical_dir / "classes.csv")
        was = [row["flagged"] == "1"
               for row in _rows(canonical_dir / "badfit.csv")]
        now = [row["flagged"] == "1" for row in _rows(out / "badfit.csv")]
        newly = [k for k in range(len(rows)) if now[k] and not was[k]]
        assert newly
        for k in newly:
            for name in ("profile_score", "plan_score"):
                assert (float(rows[k][name])
                        == float(default[k][name]) / 10.0), (k, name)
        assert ([row["frame_class"] for row in rows]
                != [row["frame_class"] for row in default])


class TestSelftest:
    def test_list_names_without_running(self, capsys):
        assert main(["selftest", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert all(" " not in name for name in lines)


def test_cli_import_leaves_scipy_unloaded():
    # the benchmark's setup_s times a fresh `import isarpose.cli`: SciPy,
    # whose import would dominate it, and the acceptance checks load only
    # when a verb needs them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, isarpose.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m == 'isarpose.acceptance'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verb_is_required():
    with pytest.raises(SystemExit):
        main([])
