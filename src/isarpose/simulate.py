"""Forward model: target-report dwells from a ship and an angle track, with
report noise, fading dropouts and confuser/interference injectors for
robustness tests. A scenario with all of them off gives the exact reports.

Reports are sampled at frame-center times; integration-time smearing is not
modeled because target reports are per-frame point estimates. Simulation is
bit-reproducible for a fixed seed: every frame draws from its own child
generator keyed by (seed, frame index), so frame order and frame
parallelism never change the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .length import beam_rule
from .motion import motion_rows
from .ship import (SIGMA_KEYS, AngleTrack, Dwell, Frame, ShipModel,
                   angle_array, metadata_fault, report_array)

BASE_SNR_DB = 20.0  # reference SNR of a unit-rcs scatterer
# the scenario's own names for metadata_fault's keys, where they differ
_SCENARIO_KEYS = {"n_frames": "duration",
                  **dict(zip(SIGMA_KEYS, ("noise.sigma_r", "noise.sigma_f",
                                          "noise.sigma_a")))}


@dataclass(frozen=True)
class DegradationSpec:
    """One injected degradation.

    kind: 'bogey' sweeps extra reports rapidly through range with a small,
    inconsistent range-rate (a confuser at aliased Doppler). 'narrowband_interference'
    adds a persistent narrow band of reports whose Doppler center migrates
    across the scene. 'broadband_interference' adds episodic bursts spanning
    a wide Doppler extent.
    """

    kind: str
    t_start: float
    t_stop: float
    rate: float = 15.0          # bogey range sweep (m/s)
    # crossing targets report a range-rate far from the ship's own Doppler
    # spread yet small next to their range migration rate
    doppler_offset: float = 2.0
    doppler_width: float = 1.0   # interference band width (m/s)
    density: int = 6             # injected reports per affected frame

    def __post_init__(self):
        if self.kind not in ("bogey", "narrowband_interference",
                             "broadband_interference"):
            raise ValueError(f"unknown degradation kind: {self.kind}")
        if not self.t_stop > self.t_start:
            raise ValueError("degradation window must have t_stop > t_start")


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation scenario: geometry means, motion content, noise, dropouts.

    Angles in radians, times in seconds. aspect_osc and tilt_osc are
    (amplitude rad, period s) pairs; noise is (sigma_r m, sigma_f m/s,
    sigma_a m/s^2). Its dwell, of floor(duration / frame_interval) frames
    with noise as report sigmas, must pass ship.metadata_fault; the error
    names the scenario key ("scenario 'phi0_deg': must be ..."). The rest
    are the scenario's own rules: fading, oscillation periods, injectors.
    """

    duration: float
    frame_interval: float
    integration_time: float
    phi0: float
    theta0: float
    steady_aspect_rate: float = 0.0
    aspect_osc: tuple[float, float] = (0.0, 12.0)
    tilt_osc: tuple[float, float] = (0.0, 10.0)
    noise: tuple[float, float, float] = (0.3, 0.05, 0.05)
    snr_floor: float = -20.0
    fade_sigma: float = 0.0
    seed: int = 0
    injectors: tuple[DegradationSpec, ...] = ()
    range_resolution: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "injectors", tuple(self.injectors))
        # a zero interval fails the rule before the frame count is judged;
        # an inf or NaN count stays a float, which the count rule rejects
        frames = (self.duration / self.frame_interval if self.frame_interval
                  else 0.0)
        fault = metadata_fault(
            math.floor(frames) if math.isfinite(frames) else frames,
            self.frame_interval, self.integration_time, self.phi0,
            self.theta0, self.range_resolution, self.noise)
        if fault is not None:
            key, reason = fault
            if key == "n_frames":
                reason = f"floor(duration / frame_interval) {reason}"
            raise ValueError(f"scenario '{_SCENARIO_KEYS.get(key, key)}': "
                             f"{reason}")
        if not 0 <= self.fade_sigma < math.inf:
            raise ValueError("'fade_sigma_db' must be finite and >= 0")
        for name in ("aspect_osc", "tilt_osc"):
            amp, period = getattr(self, name)
            if not 0 < period < math.inf:
                raise ValueError(f"'{name}' period must be positive and finite")
            if amp != 0.0 and period <= 2 * self.frame_interval:
                raise ValueError("oscillation period must exceed 2x frame interval")
        for spec in self.injectors:
            if spec.t_start < 0 or spec.t_stop > self.duration:
                raise ValueError("degradation window outside dwell")

    @property
    def n_frames(self) -> int:
        return int(math.floor(self.duration / self.frame_interval))


def make_ship(loa: float, beam: float | None = None, height: float = 12.0,
              n_scatterers: int = 24, seed: int = 0,
              symmetric: bool = True) -> ShipModel:
    """Deterministic parametric ship.

    Places the four deck corners at (+-loa/2, +-beam/2, height), a keel line,
    a mast, and pseudo-random deck scatterers. beam defaults to the naval
    rule-of-thumb for the given length. With symmetric=True extra scatterers
    are added in (+-x, +-y) quads so all drydock cross-moments vanish
    exactly, which keeps the covariance closure exact for tests.
    """
    if beam is None:
        beam = beam_rule(loa)
    hl, hb = loa / 2.0, beam / 2.0
    xyz = [(sx * hl, sy * hb, height) for sx in (+1, -1) for sy in (+1, -1)]
    # keel line and mast: on the centerline so they add no cross-moment
    xyz += [(0.0, 0.0, 0.0), (0.0, 0.0, height * 1.8)]
    rcs = [2.0] * 4 + [1.5, 1.0]
    rng = np.random.default_rng(seed)
    while len(xyz) < n_scatterers:
        # keep deck clutter inboard of the hull ends so the bow and stern
        # corners stay the extreme-range points at working aspect angles
        x = float(rng.uniform(0.15, 0.75) * hl)
        y = float(rng.uniform(0.2, 0.9) * hb)
        z = float(rng.uniform(0.2, 1.0) * height)
        w = float(rng.lognormal(0.0, 0.4))
        if symmetric:
            pts = [(sx * x, sy * y, z) for sx in (+1, -1) for sy in (+1, -1)]
        else:
            pts = [(x * rng.choice((-1, 1)), y * rng.choice((-1, 1)), z)]
        xyz += pts
        rcs += [w] * len(pts)
    return ShipModel(np.array(xyz), np.array(rcs), loa_true=loa)


def rfa_of(xyz: np.ndarray, states) -> np.ndarray:
    """Range offset (m), range-rate (m/s) and range-acceleration (m/s^2) of
    the (n, 3) drydock points xyz at angle states: one ANGLE_DTYPE record
    gives shape (n, 3), an array of them (..., n, 3). Rate and acceleration
    are the exact first and second time derivatives of range."""
    rows = motion_rows(*(states[name] for name in (
        "phi", "theta", "phi_dot", "theta_dot", "phi_ddot", "theta_ddot")))
    return np.einsum("...ij,sj->...si", rows, xyz)


def _angle_states(cfg: ScenarioConfig, t: np.ndarray) -> np.recarray:
    """Continuous-time angle states of the scenario at the times t.

    phi(t) = phi0 + rate*(t - tbar) + A_phi*sin(2 pi t / P_phi)
    theta(t) = theta0 + A_theta*sin(2 pi t / P_theta)
    with all derivative fields filled analytically; tbar is mid-dwell.
    """
    tbar = 0.5 * cfg.n_frames * cfg.frame_interval
    a_amp, a_per = cfg.aspect_osc
    t_amp, t_per = cfg.tilt_osc
    wa = 2 * math.pi / a_per
    wt = 2 * math.pi / t_per
    return angle_array(
        t,
        cfg.phi0 + cfg.steady_aspect_rate * (t - tbar) + a_amp * np.sin(wa * t),
        cfg.theta0 + t_amp * np.sin(wt * t),
        cfg.steady_aspect_rate + a_amp * wa * np.cos(wa * t),
        t_amp * wt * np.cos(wt * t),
        -a_amp * wa * wa * np.sin(wa * t),
        -t_amp * wt * wt * np.sin(wt * t))


def angle_sample_at(cfg: ScenarioConfig, t: float) -> np.record:
    """The scenario's angle state at one instant, an ANGLE_DTYPE record."""
    return _angle_states(cfg, np.array([t], dtype=float))[0]


def build_angle_track(cfg: ScenarioConfig) -> AngleTrack:
    """Angle history of the scenario sampled at frame centers."""
    t = (np.arange(cfg.n_frames) + 0.5) * cfg.frame_interval
    return AngleTrack(_angle_states(cfg, t))


def _inject(spec: DegradationSpec, tk: float, rng,
            r_span: tuple[float, float], f_span: tuple[float, float]
            ) -> list[tuple[float, float, float, float]]:
    """Injected (snr, r, f, a) rows of one frame. Draws run row by row in
    field order, so a seed keeps its data."""
    if not (spec.t_start <= tk < spec.t_stop):
        return []
    r_lo, r_hi = r_span
    f_lo, f_hi = f_span
    if spec.kind == "bogey":
        # rapid monotone range migration; reported range-rate stays small and
        # does not match the migration (aliased velocity signature)
        r = r_lo + spec.rate * (tk - spec.t_start)

        def draw():
            return (25.0 + rng.normal(0, 1), r + rng.normal(0, 0.5),
                    spec.doppler_offset + rng.normal(0, 0.05),
                    rng.normal(0, 0.05))
    elif spec.kind == "narrowband_interference":
        # persistent narrow Doppler band whose center migrates across the scene
        frac = (tk - spec.t_start) / (spec.t_stop - spec.t_start)
        center = f_lo + frac * (f_hi - f_lo)

        def draw():
            return (22.0 + rng.normal(0, 1), rng.uniform(r_lo, r_hi),
                    center + rng.uniform(-0.5, 0.5) * spec.doppler_width,
                    rng.normal(0, 0.2))
    else:  # broadband_interference: episodic wide-band bursts
        if rng.uniform() < 0.5:
            return []

        def draw():
            return (22.0 + rng.normal(0, 1), rng.uniform(r_lo, r_hi),
                    rng.uniform(3 * f_lo, 3 * f_hi), rng.normal(0, 0.5))
    return [draw() for _ in range(spec.density)]


def simulate_degraded(model: ShipModel, track: AngleTrack,
                      cfg: ScenarioConfig) -> Dwell:
    """Every scatterer's exact (r, f, a) at SNR 20 dB + 10 log10(rcs), under
    the noise, fading, SNR floor and injectors of cfg; the dwell records
    cfg.noise as its report sigmas. A source whose sigma is 0 adds nothing,
    so a noise-free cfg reports the rfa_of values bit for bit."""
    vals = rfa_of(model.xyz, track.samples)
    # math.log10 per value: np.log10 can differ in the last bit
    rcs_db = np.array([10 * math.log10(w) for w in model.rcs.tolist()])
    r_span = (float(vals[..., 0].min()), float(vals[..., 0].max()))
    f_span = (float(vals[..., 1].min()), float(vals[..., 1].max()))
    n_s = len(model.xyz)
    frames = []
    for k, tk in enumerate(track.samples.t.tolist()):
        rng = np.random.default_rng([cfg.seed, k])
        snr = BASE_SNR_DB + rcs_db
        if cfg.fade_sigma > 0:
            snr = snr + rng.normal(0.0, cfg.fade_sigma, size=n_s)
        rfa = vals[k].copy()
        # range, rate, then acceleration noise; not even +0.0 at sigma 0
        for j, sig in enumerate(cfg.noise):
            if sig > 0:
                rfa[:, j] += rng.normal(0.0, sig, size=n_s)
        keep = np.flatnonzero(snr >= cfg.snr_floor)
        extra = np.array([row for spec in cfg.injectors
                          for row in _inject(spec, tk, rng, r_span, f_span)])
        frames.append(Frame(np.concatenate([
            report_array(tk, snr[keep], *rfa[keep].T, keep),
            report_array(tk, *extra.reshape(-1, 4).T)])))
    return Dwell(tuple(frames), cfg.phi0, cfg.theta0, cfg.range_resolution,
                 cfg.frame_interval, cfg.integration_time, cfg.noise)
