"""End-to-end runs: simulate a dwell file, or analyze one into a report.

Every output is deterministic for a fixed config and seed: report JSON is
key-sorted, CSV floats use shortest round-trip repr, and nothing records
wall-clock time. Failures carry the stage name; no partial output
directory is left behind when a run dies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .angles import FitState, estimate_angles, model_covariances
from .io import dwell_text, load_dwell, pgm_bytes
from .length import estimate_loa
from .moments import moments_series
from .plots import svg_lines_text
from .pose import (CLASS_THRESHOLD, CompositeImage, FrameClass,
                   classify_frames, compose, invert_frame, motion_matrix,
                   report_noise)
from .ship import AngleTrack, ShipModel
from .simulate import (DegradationSpec, ScenarioConfig, build_angle_track,
                       make_ship, simulate_degraded, simulate_perfect)
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


def is_number(value) -> bool:
    """True for a finite int or float, which JSON numbers load as; not a
    bool, and not the NaN or Infinity that Python's json also reads."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


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
    noise_override: tuple[float, float, float] | None = None
    period: float | None = None

    def __post_init__(self):
        if self.mode not in ("simulate", "analyze"):
            raise ConfigError(f"mode must be simulate or analyze, got {self.mode!r}")
        if self.mode == "simulate" and not isinstance(self.scenario, dict):
            raise ConfigError("simulate mode needs a scenario object")
        if self.mode == "analyze" and not self.input_path:
            raise ConfigError("analyze mode needs input_path")
        if self.weighting not in ("uniform", "snr"):
            raise ConfigError(f"weighting must be uniform or snr, got {self.weighting!r}")
        if self.period is not None and not (is_number(self.period)
                                            and self.period > 0):
            raise ConfigError("period must be a finite positive number of "
                              f"seconds, got {self.period!r}")
        # a zero noise sigma makes every pose score infinite, and a
        # non-positive threshold passes every frame; neither is a setting
        for name in ("badfit_threshold", "class_threshold"):
            value = getattr(self, name)
            if not (is_number(value) and value > 0):
                raise ConfigError(f"{name} must be a finite positive number, "
                                  f"got {value!r}")
        noise = self.noise_override
        if noise is not None and not (len(noise) == 3 and all(
                is_number(v) and v > 0 for v in noise)):
            raise ConfigError("noise_override sigmas must be finite positive "
                              f"numbers, got {noise!r}")


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
        return {
            "mode": self.mode,
            "n_frames": self.n_frames,
            "angle_summary": self.angle_summary,
            "class_counts": self.class_counts,
            "loa": self.loa,
            "badfit_count": self.badfit_count,
            "flags": list(self.flags),
            "manifest": list(self.manifest),
        }


def _need(d: dict, key: str, kind=float):
    if key not in d:
        raise ConfigError(f"scenario missing '{key}'")
    try:
        return kind(d[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario '{key}': {exc}") from exc


def _osc(d: dict, key: str) -> tuple[float, float]:
    sub = d.get(key)
    if sub is None:
        return (0.0, 12.0)
    if not isinstance(sub, dict):
        raise ConfigError(f"scenario '{key}' must be an object")
    return (math.radians(float(sub.get("amplitude_deg", 0.0))),
            float(sub.get("period_s", 12.0)))


def scenario_from_dict(d: dict, seed: int | None = None
                       ) -> tuple[ScenarioConfig, ShipModel, bool]:
    """Build a scenario and ship from the JSON-shaped config."""
    noise = d.get("noise", {})
    if not isinstance(noise, dict):
        raise ConfigError("scenario 'noise' must be an object")
    degr = []
    for i, item in enumerate(d.get("degradations", ())):
        if not isinstance(item, dict):
            raise ConfigError(f"degradations[{i}] must be an object")
        try:
            degr.append(DegradationSpec(
                kind=item.get("kind", ""),
                t_start=float(item.get("t_start", 0.0)),
                t_stop=float(item.get("t_stop", 0.0)),
                rate=float(item.get("rate", 15.0)),
                doppler_offset=float(item.get("doppler_offset", 2.0)),
                doppler_width=float(item.get("doppler_width", 1.0)),
                density=int(item.get("density", 6))))
        except ValueError as exc:
            raise ConfigError(f"degradations[{i}]: {exc}") from exc
    try:
        cfg = ScenarioConfig(
            duration=_need(d, "duration"),
            frame_interval=_need(d, "frame_interval"),
            integration_time=_need(d, "integration_time"),
            phi0=math.radians(_need(d, "phi0_deg")),
            theta0=math.radians(_need(d, "theta0_deg")),
            steady_aspect_rate=math.radians(float(d.get("steady_aspect_rate_dps", 0.0))),
            aspect_osc=_osc(d, "aspect_osc"),
            tilt_osc=_osc(d, "tilt_osc"),
            noise=(float(noise.get("sigma_r", 0.3)),
                   float(noise.get("sigma_f", 0.05)),
                   float(noise.get("sigma_a", 0.05))),
            snr_floor=float(d.get("snr_floor_db", -20.0)),
            fade_sigma=float(d.get("fade_sigma_db", 0.0)),
            seed=int(seed if seed is not None else d.get("seed", 0)),
            injectors=tuple(degr),
            range_resolution=float(d.get("range_resolution_m", 0.5)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ship_d = d.get("ship", {})
    if not isinstance(ship_d, dict):
        raise ConfigError("scenario 'ship' must be an object")
    try:
        ship = make_ship(
            loa=float(ship_d.get("loa", 120.0)),
            beam=(None if ship_d.get("beam") is None else float(ship_d["beam"])),
            height=float(ship_d.get("height", 12.0)),
            n_scatterers=int(ship_d.get("n_scatterers", 24)),
            seed=int(ship_d.get("seed", 1)),
            symmetric=bool(ship_d.get("symmetric", True)))
    except ValueError as exc:
        raise ConfigError(f"ship: {exc}") from exc
    return cfg, ship, bool(d.get("perfect", False))


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


def _csv(columns: dict) -> str:
    names = list(columns)
    n = len(next(iter(columns.values())))
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(_fmt(columns[name][i]) for name in names))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Outputs:
    """Collects output files in memory, each as a list of byte chunks;
    writes all-or-nothing."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.items: list[tuple[str, list[bytes]]] = []

    def add_chunks(self, name: str, chunks: list[bytes]) -> None:
        self.items.append((name, chunks))

    def add_text(self, name: str, text: str) -> None:
        self.add_chunks(name, [text.encode("utf-8")])

    def add_pgm(self, name: str, grid: np.ndarray) -> None:
        self.add_chunks(name, [pgm_bytes(grid)])

    def manifest(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, _ in self.items))

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        try:
            for name, chunks in self.items:
                p = self.out_dir / name
                with p.open("wb") as fh:
                    # listed once opened, so a file cut short is removed too
                    written.append(p)
                    fh.writelines(chunks)
        except OSError:
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
        "converged": state.converged,
        "flags": list(state.flags),
    }


def _pipeline(dwell, config: RunConfig, out: _Outputs) -> RunReport:
    """Moments through length on one dwell; fills `out` with figure files.

    Both modes funnel through here so an analyze run over a saved dwell
    reproduces the simulate run's analysis byte for byte."""
    flags: list[str] = []
    if config.noise_override is None and dwell.report_sigmas is None:
        flags.append("report noise unknown: moments not debiased")
    try:
        mom = moments_series(dwell, config.weighting, config.noise_override)
    except ValueError as exc:
        raise PipelineError("moments", str(exc)) from exc

    try:
        track, state = estimate_angles(mom, dwell.phi0, dwell.theta0,
                                       period=config.period)
    except ValueError as exc:
        raise PipelineError("angles", str(exc)) from exc

    try:
        model = model_covariances(track, state.bsq_est, state.hsq_est)
        records = consistency_synth(mom)
        bf = badfit(mom, records, model.d, config.badfit_threshold)
        focus = crosscheck_focus(mom, model)
    except ValueError as exc:
        raise PipelineError("validation", str(exc)) from exc

    try:
        T = dwell.frames[0].integration_time
        noise = config.noise_override or report_noise(dwell.range_resolution, T)
        m, cond = motion_matrix(track, T)
        sols = [invert_frame(fr, mom[k], m[k], cond[k], noise)
                for k, fr in enumerate(dwell.frames)]
        sols = classify_frames(sols, bf, config.class_threshold)
        composites: list[CompositeImage] = []
        for kind in (FrameClass.PROFILE, FrameClass.PLAN):
            img = compose(dwell, sols, track, kind)
            if img.frames_used:
                composites.append(img)
            else:
                flags.append(f"no {kind.value} composite")
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise PipelineError("pose", str(exc)) from exc

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
        "t": t, "valid": mom.valid, "n_targets": mom.n_targets,
        "cov_rf": cov_rf, "cov_ff": mom.cov_ff, "cov_ra": mom.cov_ra,
        "cov_fa": mom.cov_fa, "crf": mom.crf, "d": mom.d_intrinsic,
        "model_cov_rf": model.cov_rf, "model_cov_ff": model.cov_ff,
        "model_d": model.d}))
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
        "frame_class": [s.frame_class.value for s in sols],
        "profile_score": [s.scores[0] for s in sols],
        "plan_score": [s.scores[1] for s in sols],
        "pearls_score": [s.scores[2] for s in sols],
        "cond": [s.cond for s in sols]}))
    loa_series = (loa_est.loa_series if loa_est is not None
                  else np.full(len(mom), np.nan))
    out.add_text("length.csv", _csv({
        "t": t, "loa_frame": loa_series,
        "r_min": mom.r_min, "r_max": mom.r_max,
        "usable": np.isfinite(loa_series)}))
    for img in composites:
        base = f"composite_{img.kind.value.lower()}"
        out.add_pgm(base + ".pgm", img.grid)
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
    class_counts = {}
    for s in sols:
        class_counts[s.frame_class.value] = class_counts.get(s.frame_class.value, 0) + 1
    names = tuple(sorted(out.manifest() + ("run_report.json",)))
    return RunReport(
        mode=config.mode, n_frames=len(dwell.frames),
        angle_summary=_angle_summary(track, state),
        class_counts=class_counts, loa=loa_dict,
        badfit_count=int(np.sum(bf.flagged)), flags=tuple(flags),
        manifest=names)


def run(config: RunConfig) -> RunReport:
    """Execute one configured run; see RunConfig. Raises ConfigError,
    DataError, or PipelineError with the failing stage in the message."""
    out = _Outputs(Path(config.output_dir))
    if config.mode == "simulate":
        cfg, ship, perfect = scenario_from_dict(config.scenario, config.seed)
        try:
            track = build_angle_track(cfg)
            dwell = (simulate_perfect if perfect else simulate_degraded)(
                ship, track, cfg)
        except ValueError as exc:
            raise PipelineError("simulate", str(exc)) from exc
        out.add_chunks("dwell.csv", dwell_text(dwell))
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
