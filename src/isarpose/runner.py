"""End-to-end runs: simulate a dwell file, or analyze one into a report.

Every output is deterministic for a fixed config and seed: report JSON is
key-sorted, CSV floats use shortest round-trip repr, and nothing records
wall-clock time. Failures carry the stage name; no partial output
directory is left behind when a run dies.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .angles import FitState, estimate_angles, model_covariances
from .io import dwell_text, load_dwell, pgm_bytes
from .length import estimate_loa
from .moments import moments_series
from .plots import svg_lines_text
from .pose import (CLASS_THRESHOLD, POSE_DTYPE, CompositeImage, FrameClass,
                   classify_frames, compose, invert_frame, motion_matrix,
                   report_noise)
from .ship import AngleTrack, ShipModel, is_count, is_number
from .simulate import (DegradationSpec, ScenarioConfig, build_angle_track,
                       make_ship, simulate_degraded)
from .validate import (BADFIT_THRESHOLD, badfit, consistency_synth,
                       crosscheck_focus)


class ConfigError(Exception):
    """Bad run configuration (missing keys, wrong types, bad values)."""


class DataError(Exception):
    """Input dwell file missing or malformed."""


class PipelineError(Exception):
    """A processing stage failed; .stage names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Re-raise a ValueError from the block, np.linalg.LinAlgError included,
    or an ArithmeticError, such as the OverflowError of a huge integration
    time, as the PipelineError of stage `name`."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise PipelineError(name, str(exc)) from exc


def _number(value) -> float:
    # a finite JSON number only: float() also reads "20", NaN and Infinity
    if not is_number(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _flag(value) -> bool:
    # a JSON boolean only: bool() reads "false" as true and null as false
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _integer(value) -> int:
    # int() truncates 2.7 to 2, and every integer setting is a count or a seed
    if not is_count(value):
        raise TypeError(f"expected a non-negative integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RunConfig:
    """What to run and where to put it. scenario is the simulate-mode
    JSON-shaped dict (angles in degrees at this boundary)."""

    mode: str
    output_dir: str
    input_path: str | None = None
    scenario: dict | None = None
    seed: int | None = None
    emit_plots: bool = False
    weighting: str = "uniform"
    badfit_threshold: float = BADFIT_THRESHOLD
    class_threshold: float = CLASS_THRESHOLD
    period: float | None = None

    def __post_init__(self):
        if self.mode not in ("simulate", "analyze"):
            raise ConfigError(f"mode must be simulate or analyze, got {self.mode!r}")
        if self.mode == "simulate" and not isinstance(self.scenario, dict):
            raise ConfigError("simulate mode needs a scenario object")
        if self.mode == "analyze" and not self.input_path:
            raise ConfigError("analyze mode needs input_path")
        if self.seed is not None:
            try:
                _integer(self.seed)
            except TypeError:
                raise ConfigError("seed must be a non-negative integer, "
                                  f"got {self.seed!r}") from None
        if self.weighting not in ("uniform", "snr"):
            raise ConfigError(f"weighting must be uniform or snr, got {self.weighting!r}")
        if self.period is not None and not (is_number(self.period)
                                            and self.period > 0):
            raise ConfigError("period must be a finite positive number of "
                              f"seconds, got {self.period!r}")
        # a non-positive threshold passes every frame; it is not a setting
        for name in ("badfit_threshold", "class_threshold"):
            value = getattr(self, name)
            if not (is_number(value) and value > 0):
                raise ConfigError(f"{name} must be a finite positive number, "
                                  f"got {value!r}")


@dataclass(frozen=True)
class RunReport:
    mode: str
    n_frames: int
    angle_summary: dict
    class_counts: dict
    loa: dict | None
    badfit_count: int
    flags: tuple[str, ...]
    manifest: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def _section(d, where: str, keys: tuple[str, ...]):
    """A getter of d's values, once d is an object with no key outside keys
    (where is its key path, '' at the top). get(key, default, kind) returns
    d[key] as kind, or default if absent; a missing key without default and
    a value kind rejects, null included, are config errors naming the key."""
    def path(key):
        return f"{where}.{key}" if where else key
    if not isinstance(d, dict):
        raise ConfigError(f"scenario '{where}' must be an object")
    for key in d:
        if key not in keys:
            raise ConfigError(f"unknown scenario key '{path(key)}' "
                              f"(allowed: {', '.join(keys)})")

    def get(key, default=None, kind=_number):
        if key not in d and default is None:
            raise ConfigError(f"scenario missing '{path(key)}'")
        try:
            return kind(d.get(key, default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scenario '{path(key)}': {exc}") from exc
    return get


def _osc(d: dict, key: str) -> tuple[float, float]:
    if key not in d:
        return (0.0, 12.0)
    get = _section(d[key], key, ("amplitude_deg", "period_s"))
    return (math.radians(get("amplitude_deg", 0.0)), get("period_s", 12.0))


def scenario_from_dict(d: dict, seed: int | None = None
                       ) -> tuple[ScenarioConfig, ShipModel, bool]:
    """Build a scenario and ship from the JSON-shaped config; an unknown key
    at any level is a config error, as a missing or mistyped value is."""
    top = _section(d, "", (
        "duration", "frame_interval", "integration_time", "phi0_deg",
        "theta0_deg", "steady_aspect_rate_dps", "aspect_osc", "tilt_osc",
        "noise", "snr_floor_db", "fade_sigma_db", "seed", "degradations",
        "range_resolution_m", "ship", "perfect"))
    noise = _section(d.get("noise", {}), "noise", ("sigma_r", "sigma_f", "sigma_a"))
    items = d.get("degradations", [])
    if not isinstance(items, list):
        raise ConfigError("scenario 'degradations' must be a list")
    degr = []
    for i, item in enumerate(items):
        get = _section(item, f"degradations[{i}]", (
            "kind", "t_start", "t_stop", "rate", "doppler_offset",
            "doppler_width", "density"))
        try:
            degr.append(DegradationSpec(
                kind=item.get("kind", ""), t_start=get("t_start", 0.0),
                t_stop=get("t_stop", 0.0), rate=get("rate", 15.0),
                doppler_offset=get("doppler_offset", 2.0),
                doppler_width=get("doppler_width", 1.0),
                density=get("density", 6, _integer)))
        except ValueError as exc:
            raise ConfigError(f"degradations[{i}]: {exc}") from exc
    try:
        cfg = ScenarioConfig(
            duration=top("duration"), frame_interval=top("frame_interval"),
            integration_time=top("integration_time"),
            phi0=math.radians(top("phi0_deg")), theta0=math.radians(top("theta0_deg")),
            steady_aspect_rate=math.radians(top("steady_aspect_rate_dps", 0.0)),
            aspect_osc=_osc(d, "aspect_osc"),
            tilt_osc=_osc(d, "tilt_osc"),
            noise=(noise("sigma_r", 0.3), noise("sigma_f", 0.05),
                   noise("sigma_a", 0.05)),
            snr_floor=top("snr_floor_db", -20.0),
            fade_sigma=top("fade_sigma_db", 0.0),
            seed=int(seed) if seed is not None else top("seed", 0, _integer),
            injectors=tuple(degr),
            range_resolution=top("range_resolution_m", 0.5))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ship_d = d.get("ship", {})
    ship = _section(ship_d, "ship", ("loa", "beam", "height", "n_scatterers",
                                     "seed", "symmetric"))
    try:
        model = make_ship(
            loa=ship("loa", 120.0),
            beam=ship("beam") if "beam" in ship_d else None,
            height=ship("height", 12.0),
            n_scatterers=ship("n_scatterers", 24, _integer),
            seed=ship("seed", 1, _integer),
            symmetric=ship("symmetric", True, _flag))
    except ValueError as exc:
        raise ConfigError(f"ship: {exc}") from exc
    return cfg, model, top("perfect", False, _flag)


def _csv(columns: dict) -> str:
    # each column formatted once, by dtype: floats in shortest round-trip
    # repr, bools as 1/0, anything else (ints, class names) as str
    cells = []
    for col in columns.values():
        col = np.asarray(col)
        cell = {"f": repr, "b": lambda v: "1" if v else "0"}.get(col.dtype.kind, str)
        cells.append(map(cell, col.tolist()))
    lines = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Outputs:
    """Output files as writers: write(fh) fills one open binary file, and
    flush calls each in turn, so a file's bytes need exist only while it
    is written. The write is all-or-nothing."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.items: list[tuple[str, Callable[[BinaryIO], object]]] = []

    def add(self, name: str, write: Callable[[BinaryIO], object]) -> None:
        self.items.append((name, write))

    def add_bytes(self, name: str, data: bytes) -> None:
        self.add(name, lambda fh: fh.write(data))

    def add_text(self, name: str, text: str) -> None:
        self.add_bytes(name, text.encode("utf-8"))

    def manifest(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, _ in self.items))

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        try:
            for name, write in self.items:
                p = self.out_dir / name
                with p.open("wb") as fh:
                    # listed once opened, so a file cut short is removed too
                    written.append(p)
                    write(fh)
        except BaseException:
            # whatever a writer raises, a disk error or a fault in its
            # formatting, no file it or an earlier writer began stays
            for p in written:
                try:
                    p.unlink()
                except OSError:
                    pass
            raise


def _angle_summary(track: AngleTrack, state: FitState) -> dict:
    s = track.samples
    return {
        "period_s": state.period,
        "lines_s": [float(p) for p in state.lines],
        "steady_rate_dps": math.degrees(state.steady_rate),
        "mean_abs_aspect_rate_dps": math.degrees(float(np.mean(np.abs(s.phi_dot)))),
        "mean_abs_tilt_rate_dps": math.degrees(float(np.mean(np.abs(s.theta_dot)))),
        "mean_aspect_deg": math.degrees(float(np.mean(state.phi_mean))),
        "bsq": state.bsq_est,
        "hsq": state.hsq_est,
        "residual_rms": state.residual_rms,
        "weight_source": state.weight_source,
        "converged": state.converged,
        "flags": list(state.flags),
    }


def _pipeline(dwell, config: RunConfig, out: _Outputs) -> RunReport:
    """Moments through length on one dwell; fills `out` with figure files.

    Both modes funnel through here so an analyze run over a saved dwell
    reproduces the simulate run's analysis byte for byte."""
    flags: list[str] = []
    sigmas = dwell.report_sigmas
    if sigmas is None:
        flags.append("report noise unknown: moments not debiased")
    with _stage("moments"):
        mom = moments_series(dwell, config.weighting)

    with _stage("angles"):
        track, state = estimate_angles(mom, dwell.phi0, dwell.theta0,
                                       period=config.period)

    with _stage("validation"):
        model = model_covariances(track, state.bsq_est, state.hsq_est)
        records = consistency_synth(mom)
        bf = badfit(mom, records, model.d, config.badfit_threshold)
        focus = crosscheck_focus(mom, model)

    with _stage("pose"):
        T = dwell.integration_time
        # all-zero sigmas (a perfect dwell) would make every score infinite
        noise = (sigmas if any(sigmas or ())
                 else report_noise(dwell.range_resolution, T))
        m, cond = motion_matrix(track, T)
        pose = np.zeros(len(dwell.counts), POSE_DTYPE)
        rows = mom.view(np.ndarray)   # a recarray's fancy index costs ~2.5x
        for index, reports in dwell.frame_groups:
            pose[index], _ = invert_frame(reports, rows[index], m[index],
                                          cond[index], noise)
        classes, scores = classify_frames(pose, bf, config.class_threshold)
        composites: list[CompositeImage] = []
        for kind in (FrameClass.PROFILE, FrameClass.PLAN):
            img = compose(dwell, classes, track, kind)
            if img.frames_used:
                composites.append(img)
            else:
                flags.append(f"no {kind.value} composite")

    loa_dict = None
    loa_est = None
    try:
        loa_est = estimate_loa(dwell, track, bf)
        loa_dict = {
            "loa_m": loa_est.loa,
            "rmin_std_m": loa_est.rmin_std,
            "rmax_std_m": loa_est.rmax_std,
            "frames_used": loa_est.frames_used,
            "width_correction_m": loa_est.width_correction,
        }
    except ValueError as exc:
        flags.append(f"length: {exc}")

    t, cov_rf, angle = mom.t, mom.cov_rf, track.samples
    out.add_text("covariances.csv", _csv({
        "t": t, "valid": mom.valid, "n_targets": dwell.counts,
        "cov_rf": cov_rf, "cov_ff": mom.cov_ff, "cov_ra": mom.cov_ra,
        "cov_fa": mom.cov_fa, "crf": mom.crf, "d": mom.d_intrinsic,
        "sd_rf": mom.sd_rf, "sd_d": mom.sd_d, "model_cov_rf": model.cov_rf,
        "model_cov_ff": model.cov_ff, "model_d": model.d}))
    out.add_text("angles.csv", _csv({
        "t": t,
        "phi_deg": np.degrees(angle.phi),
        "theta_deg": np.degrees(angle.theta),
        "phi_dot_dps": np.degrees(angle.phi_dot),
        "theta_dot_dps": np.degrees(angle.theta_dot),
        "phi_mean_deg": np.degrees(state.phi_mean),
        "phi_wave_deg": np.degrees(state.phi_hat),
        "theta_wave_deg": np.degrees(state.theta_hat)}))
    out.add_text("consistency.csv", _csv({
        "t": t, **{name: records[name] for name in records.dtype.names}}))
    out.add_text("badfit.csv", _csv({
        "t": t, "score": bf.score, "n_accel": bf.n_accel,
        "n_spread": bf.n_spread, "flagged": bf.flagged}))
    out.add_text("focus.csv", _csv({
        "t": t, "a_r_data": focus.a_r_data, "a_r_out": focus.a_r_out,
        "a_f_data": focus.a_f_data, "a_f_out": focus.a_f_out,
        "conditioned": focus.conditioned}))
    out.add_text("classes.csv", _csv({
        "t": t,
        "frame_class": [c.value for c in classes],
        "profile_score": scores[:, 0], "plan_score": scores[:, 1],
        "pearls_score": scores[:, 2], "cond": cond}))
    loa_series, r_min, r_max = (
        (loa_est.loa_series, loa_est.r_min, loa_est.r_max)
        if loa_est is not None else np.full((3, len(t)), np.nan))
    out.add_text("length.csv", _csv({
        "t": t, "loa_frame": loa_series, "r_min": r_min, "r_max": r_max,
        "usable": np.isfinite(loa_series)}))
    for img in composites:
        base = f"composite_{img.kind.value.lower()}"
        out.add_bytes(base + ".pgm", pgm_bytes(img.grid))
        out.add_text(base + ".json", _json_text({
            "kind": img.kind.value,
            "cell_m": float(img.range_axis[1] - img.range_axis[0])
            if len(img.range_axis) > 1 else 1.0,
            "range_min_m": float(img.range_axis[0]),
            "cross_min_m": float(img.cross_axis[0]),
            "shape": list(img.grid.shape),
            "frames_used": list(img.frames_used)}))
    if config.emit_plots:
        out.add_text("angles.svg", svg_lines_text(
            t, {"aspect": np.degrees(angle.phi),
                "tilt": np.degrees(angle.theta)},
            "Estimated angles", ylabel="deg"))
        out.add_text("rates.svg", svg_lines_text(
            t, {"aspect rate": np.degrees(angle.phi_dot),
                "tilt rate": np.degrees(angle.theta_dot)},
            "Estimated angle rates", ylabel="deg/s"))
        out.add_text("covariances.svg", svg_lines_text(
            t, {"cov_rf data": cov_rf,
                "cov_rf model": model.cov_rf},
            "Range/rate covariance: data vs model", ylabel="1/s"))
        out.add_text("badfit.svg", svg_lines_text(
            t, {"score": np.where(np.isfinite(bf.score), bf.score, np.nan),
                "threshold": np.full(len(t), bf.threshold)},
            "Fit-quality score", ylabel="score"))
    names = tuple(sorted(out.manifest() + ("run_report.json",)))
    # a plain dict: asdict rebuilds a Counter from its (key, count) pairs,
    # which counts the pairs
    return RunReport(
        mode=config.mode, n_frames=len(dwell.counts),
        angle_summary=_angle_summary(track, state),
        class_counts=dict(Counter(c.value for c in classes)), loa=loa_dict,
        badfit_count=int(np.sum(bf.flagged)), flags=tuple(flags),
        manifest=names)


def run(config: RunConfig) -> RunReport:
    """Execute one configured run; see RunConfig. Raises ConfigError,
    DataError, or PipelineError with the failing stage in the message."""
    out = _Outputs(Path(config.output_dir))
    if config.mode == "simulate":
        cfg, ship, perfect = scenario_from_dict(config.scenario, config.seed)
        if perfect:
            cfg = replace(cfg, noise=(0.0, 0.0, 0.0), fade_sigma=0.0,
                          snr_floor=-math.inf, injectors=())
        with _stage("simulate"):
            dwell = simulate_degraded(ship, build_angle_track(cfg), cfg)
        # formatted frame by frame as flush writes it, never held whole
        out.add("dwell.csv", lambda fh: dwell_text(dwell, fh))
    else:
        try:
            dwell = load_dwell(config.input_path)
        except (OSError, ValueError) as exc:
            raise DataError(str(exc)) from exc
    report = _pipeline(dwell, config, out)
    out.add_text("run_report.json", _json_text(report.to_dict()))
    try:
        out.flush()
    except OSError as exc:
        raise PipelineError("outputs", str(exc)) from exc
    return report
