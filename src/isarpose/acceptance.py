"""Self-check suite covering the toolkit's shipped guarantees.

Each check builds its own scenario, drives the public API end to end, and
returns (passed, detail). The CLI selftest verb and the test suite both run
the same list, so a green selftest and a green test run mean the same thing.
Checks are deterministic: fixed seeds, no wall-clock dependence except the
one explicit runtime budget.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .angles import estimate_angles, model_covariances
from .bands import chapeau_band_split, dominant_wave_period
from .length import estimate_loa
from .moments import _moments, moments_series
from .pose import (FrameClass, classify_frames, invert_frame, motion_matrix,
                   report_noise)
from .runner import RunConfig, run
from .ship import Dwell, ShipModel, report_array, ship_moments
from .simulate import (DegradationSpec, ScenarioConfig, angle_sample_at,
                       build_angle_track, make_ship, rfa_of,
                       simulate_degraded)
from .validate import badfit, consistency_synth, crosscheck_focus

LOA_M = 120.0
PERIOD_TOL = 0.05         # wave-motion period error bound, x the spectral seed


def _ideal_config(noise=(0.0, 0.0, 0.0), seed=3, frame_interval=0.5,
                  injectors=()) -> ScenarioConfig:
    """Turning ship with two seaway oscillation lines; the canonical scene."""
    return ScenarioConfig(
        duration=60.0, frame_interval=frame_interval,
        integration_time=frame_interval,
        phi0=math.radians(45.0), theta0=math.radians(30.0),
        steady_aspect_rate=math.radians(0.3),
        aspect_osc=(math.radians(1.0), 12.0),
        tilt_osc=(math.radians(1.0), 10.0),
        noise=noise, seed=seed, injectors=injectors)


def _ideal_ship() -> ShipModel:
    return make_ship(LOA_M, n_scatterers=24)


def _line_ship() -> ShipModel:
    x = np.linspace(-45.0, 45.0, 24)
    return ShipModel(np.column_stack([x, np.zeros(24), np.zeros(24)]),
                     np.ones(24))


def check_wave_motion_recovery() -> tuple[bool, str]:
    """Both oscillation rates recovered from a perfect dwell, quickly."""
    cfg = _ideal_config()
    ship = _ideal_ship()
    track = build_angle_track(cfg)
    dwell = simulate_degraded(ship, track, cfg)
    t0 = time.perf_counter()
    mom = moments_series(dwell)
    est, state = estimate_angles(mom, cfg.phi0, cfg.theta0)
    elapsed = time.perf_counter() - t0
    t = track.samples.t
    corrs = []
    for name in ("phi_dot", "theta_dot"):
        wa = chapeau_band_split(t, track.samples[name], state.period).wave
        wb = chapeau_band_split(t, est.samples[name], state.period).wave
        corrs.append(float(np.corrcoef(wa, wb)[0, 1]))
    seed_period = dominant_wave_period(t, mom.cov_rf, valid=mom.valid)
    tol = PERIOD_TOL * seed_period
    period_err = min(abs(state.period - 10.0), abs(state.period - 12.0))
    ok = (min(corrs) > 0.95 and period_err <= tol and elapsed < 10.0)
    return ok, (f"rate corr {corrs[0]:.4f}/{corrs[1]:.4f}, "
                f"period {state.period:.3f} s (off {period_err:.3f}, "
                f"tol {tol:.3f}), {elapsed:.1f} s")


def check_forward_model_calculus() -> tuple[bool, str]:
    """Analytic rate/accel match second-order finite differences of range."""
    rng = np.random.default_rng(7)
    max_rel = {dt: 0.0 for dt in (1e-2, 5e-3, 1e-3)}
    for trial in range(3):
        ship = make_ship(float(rng.uniform(60, 180)),
                         height=float(rng.uniform(8, 20)),
                         n_scatterers=int(rng.integers(20, 28)), seed=trial)
        cfg = ScenarioConfig(
            duration=60.0, frame_interval=0.5, integration_time=0.5,
            phi0=math.radians(float(rng.uniform(20, 60))),
            theta0=math.radians(float(rng.uniform(10, 40))),
            steady_aspect_rate=math.radians(float(rng.uniform(-0.5, 0.5))),
            aspect_osc=(math.radians(float(rng.uniform(0.3, 2.0))),
                        float(rng.uniform(8, 15))),
            tilt_osc=(math.radians(float(rng.uniform(0.3, 2.0))),
                      float(rng.uniform(6, 12))),
            noise=(0.0, 0.0, 0.0), seed=trial)
        for tq in rng.uniform(5, 55, 6):
            for dt in max_rel:
                # (3, n, 3): every scatterer at tq - dt, tq and tq + dt
                vals = rfa_of(ship.xyz, np.array([
                    angle_sample_at(cfg, float(tq) + k * dt) for k in (-1, 0, 1)]))
                (rm, r0, rp), (_, f_an, a_an) = vals[..., 0], vals[1].T
                rel_f = np.abs((rp - rm) / (2 * dt) - f_an) / np.maximum(np.abs(f_an), 0.05)
                rel_a = np.abs((rp - 2 * r0 + rm) / dt**2 - a_an) / np.maximum(np.abs(a_an), 0.005)
                max_rel[dt] = max(max_rel[dt], float(max(rel_f.max(), rel_a.max())))
    # the truncation-dominated pair shows the quadratic law; at 1e-3 the
    # second difference sits near the float64 cancellation floor, so only
    # the absolute bound applies there
    ratio = max_rel[1e-2] / max(max_rel[5e-3], 1e-300)
    ok = max_rel[1e-3] <= 1e-4 and 3.0 <= ratio <= 5.5
    return ok, (f"max rel err {max_rel[1e-3]:.1e} at dt=1e-3, "
                f"halving ratio {ratio:.2f} at dt=1e-2")


def check_covariance_closure() -> tuple[bool, str]:
    """Frame moments equal the angle-domain model on a perfect dwell."""
    cfg = _ideal_config()
    ship = _ideal_ship()
    track = build_angle_track(cfg)
    dwell = simulate_degraded(ship, track, cfg)
    mom = moments_series(dwell)
    _, bsq, hsq = ship_moments(ship)
    model = model_covariances(track, bsq, hsq)
    worst = 0.0
    pairs = (
        (mom.cov_rf, model.cov_rf),
        (mom.cov_ff, model.cov_ff),
        (mom.cov_ra, model.cov_ra),
        (mom.cov_fa, model.cov_fa),
        (mom.d_intrinsic, model.d),
    )
    for data, ref in pairs:
        floor = 1e-3 * float(np.abs(ref).max())
        rel = np.abs(data - ref) / np.maximum(np.abs(ref), floor)
        worst = max(worst, float(rel.max()))
    return worst <= 1e-6, f"max per-frame relative mismatch {worst:.2e}"


def check_acceleration_consistency() -> tuple[bool, str]:
    """Synthesized accel covariances track measured ones, better when
    frames come faster."""
    ship = _ideal_ship()
    ratios = {}
    for interval in (0.5, 0.25):
        cfg = _ideal_config(frame_interval=interval)
        track = build_angle_track(cfg)
        dwell = simulate_degraded(ship, track, cfg)
        rec = consistency_synth(moments_series(dwell))
        ok = rec.valid & np.isfinite(rec.cov_ra_synth)
        worst = 0.0
        for meas, synth in ((rec.cov_ra_meas, rec.cov_ra_synth),
                            (rec.cov_fa_meas, rec.cov_fa_synth)):
            m, s = meas[ok], synth[ok]
            rms = float(np.sqrt(np.mean((s - m) ** 2)))
            worst = max(worst, rms / float(m.max() - m.min()))
        ratios[interval] = worst
    ok = ratios[0.5] <= 0.05 and ratios[0.25] < ratios[0.5]
    return ok, (f"worst RMS/dynamic-range {ratios[0.5]:.3f} at 0.5 s, "
                f"{ratios[0.25]:.3f} at 0.25 s")


def _invert(dwell, mom, m, cond, noise):
    """Each frame's FrameSolution, one invert_frame pass per frame group."""
    sols = [None] * len(dwell.counts)
    rows = mom.view(np.ndarray)
    for index, reports in dwell.frame_groups:
        group = invert_frame(reports, rows[index], m[index], cond[index],
                             noise)
        for k, sol in zip(index.tolist(), group):
            sols[k] = sol
    return sols


def check_pose_round_trip() -> tuple[bool, str]:
    """Exact coordinate recovery on clean frames; noise propagates as
    predicted."""
    cfg = _ideal_config()
    ship = _ideal_ship()
    track = build_angle_track(cfg)
    dwell = simulate_degraded(ship, track, cfg)
    noise = report_noise(dwell.range_resolution, cfg.integration_time)
    m, cond = motion_matrix(track, cfg.integration_time)
    mom = moments_series(dwell)   # zero report sigmas: nothing is debiased
    sols = _invert(dwell, mom, m, cond, noise)
    worst, inverted = 0.0, []
    for k, sol in enumerate(sols):
        if sol.xyz is None:
            continue
        reports = dwell.reports[dwell.offsets[k]:dwell.offsets[k + 1]]
        truth = ship.xyz[reports["truth_id"]]
        truth = truth - truth.mean(axis=0)
        worst = max(worst, float(np.abs(sol.xyz - truth).max()))
        inverted.append(k)
    # the best-conditioned frame, the first of equals
    best_k = inverted[int(np.argmin(cond[inverted]))]
    base = sols[best_k]
    # 500 noisy copies of that frame, one (r, f, a) draw per report, as one
    # group: one moments pass (uniform weights, nothing debiased) and one
    # inversion
    reps = dwell.reports[dwell.offsets[best_k]:dwell.offsets[best_k + 1]]
    d = np.random.default_rng(0).normal(0.0, noise, size=(500, len(reps), 3))
    noisy = np.repeat(reps[None], 500, axis=0)
    for j, name in enumerate(("r", "f", "a")):
        noisy[name] += d[..., j]
    noisy_mom = _moments([(np.arange(500), noisy)],
                         np.full(500, mom.t[best_k]), "uniform", 0.0, 0.0)
    noisy_sols = invert_frame(noisy, noisy_mom.view(np.ndarray),
                              np.broadcast_to(m[best_k], (500, 3, 3)),
                              np.full(500, cond[best_k]), noise)
    diffs = [sol.xyz - base.xyz for sol in noisy_sols]
    emp = np.array(diffs).reshape(-1, 3).var(axis=0)
    ratio = emp / np.asarray(base.noise_var)
    ok = (len(inverted) > 0 and worst <= 1e-6 * LOA_M
          and bool(np.all((ratio >= 0.5) & (ratio <= 2.0))))
    return ok, (f"{len(inverted)} frames, worst recovery err {worst:.1e} m; "
                f"MC var ratios {ratio[0]:.2f}/{ratio[1]:.2f}/{ratio[2]:.2f}")


def _classify_scene(ship, duration, asp_rate_dps, tilt_amp_deg,
                    tilt_period=10.0, T=2.0, seed=5):
    noise = (0.25, 0.03, 0.01)
    cfg = ScenarioConfig(
        duration=duration, frame_interval=0.5, integration_time=T,
        phi0=math.radians(45.0), theta0=math.radians(30.0),
        steady_aspect_rate=math.radians(asp_rate_dps),
        aspect_osc=(0.0, 12.0),
        tilt_osc=(math.radians(tilt_amp_deg), tilt_period),
        noise=noise, seed=seed)
    track = build_angle_track(cfg)
    dwell = simulate_degraded(ship, track, cfg)
    m, cond = motion_matrix(track, T)
    sols = _invert(dwell, moments_series(dwell), m, cond, dwell.report_sigmas)
    classes, _ = classify_frames(sols)
    counts = Counter(c.value for c in classes)
    n_classified = len(classes) - counts[FrameClass.INVALID.value]
    return counts, n_classified, len(classes)


def check_frame_classification() -> tuple[bool, str]:
    """Rolling ship reads Profile, turning flat ship reads Plan, mast line
    reads StringOfPearls."""
    tall = make_ship(90.0, beam=28.0, height=22.0, n_scatterers=24)
    c1, n1, _ = _classify_scene(tall, 60.0, asp_rate_dps=0.05, tilt_amp_deg=3.0)
    prof_frac = c1.get("Profile", 0) / max(n1, 1)
    ok1 = prof_frac >= 0.8 and c1.get("Plan", 0) == 0

    flat = make_ship(90.0, beam=32.0, height=0.0, n_scatterers=24)
    c2, n2, _ = _classify_scene(flat, 20.0, asp_rate_dps=3.0, tilt_amp_deg=0.0)
    plan_frac = c2.get("Plan", 0) / max(n2, 1)
    ok2 = plan_frac >= 0.8 and c2.get("Profile", 0) == 0

    c3, _, total3 = _classify_scene(_line_ship(), 20.0, asp_rate_dps=3.0,
                                    tilt_amp_deg=0.0)
    pearls_frac = c3.get("StringOfPearls", 0) / max(total3, 1)
    ok3 = pearls_frac > 0.5

    return ok1 and ok2 and ok3, (
        f"roll: {prof_frac:.0%} Profile ({c1.get('Plan', 0)} Plan); "
        f"turn: {plan_frac:.0%} Plan ({c2.get('Profile', 0)} Profile); "
        f"line: {pearls_frac:.0%} StringOfPearls")


def _noisy_pipeline(dwell):
    mom = moments_series(dwell)
    est, state = estimate_angles(mom, dwell.phi0, dwell.theta0)
    model = model_covariances(est, state.bsq_est, state.hsq_est)
    bf = badfit(mom, consistency_synth(mom), model.d)
    loa = estimate_loa(dwell, est, bf)
    return mom, bf, loa


def check_confuser_gating() -> tuple[bool, str]:
    """A crossing target inside a known window is flagged, not absorbed."""
    ship = _ideal_ship()
    sim_noise = (0.3, 0.05, 0.05)
    cfg_c = _ideal_config(noise=sim_noise, seed=11)
    track_c = build_angle_track(cfg_c)
    _, bf_c, loa_c = _noisy_pipeline(simulate_degraded(ship, track_c, cfg_c))
    bogey = DegradationSpec(kind="bogey", t_start=20.0, t_stop=25.0)
    cfg_b = _ideal_config(noise=sim_noise, seed=11, injectors=(bogey,))
    track_b = build_angle_track(cfg_b)
    mom_b, bf_b, loa_b = _noisy_pipeline(simulate_degraded(ship, track_b, cfg_b))
    t = mom_b.t
    win = (t >= 20.0) & (t < 25.0)
    frac_win = float(bf_b.flagged[win].mean())
    frac_clean = float(bf_b.flagged[~win].mean())
    loa_shift = abs(loa_b.loa - loa_c.loa) / loa_c.loa
    ok = frac_win >= 0.9 and frac_clean <= 0.1 and loa_shift <= 0.02
    return ok, (f"window flagged {frac_win:.0%}, clean flagged "
                f"{frac_clean:.1%}, LOA shift {loa_shift:.2%}")


def _ghost_dwell(dwell: Dwell, seed=3) -> Dwell:
    """Weak intermittent returns just beyond the far end of the ship: two
    ghost rows after the reports of every even, non-empty frame."""
    rng = np.random.default_rng(seed)
    haunted = [k for k in range(0, len(dwell.counts), 2) if dwell.counts[k]]
    ghosts = []
    for k in haunted:
        reports = dwell.reports[dwell.offsets[k]:dwell.offsets[k + 1]]
        r_far = reports["r"].max()
        # two ghosts, each drawn in field order (r, f, a)
        r, f, a = np.array([(r_far + rng.uniform(2.0, 8.0),
                             rng.normal(0, 0.2), rng.normal(0, 0.1))
                            for _ in range(2)]).T
        ghosts.append(report_array(dwell.t[k], np.median(reports["snr"]) - 3.0,
                                   r, f, a))
    ends = np.repeat(dwell.offsets[1:][haunted], 2)
    counts = dwell.counts.copy()
    counts[haunted] += 2
    return dataclasses.replace(
        dwell, reports=np.insert(dwell.reports, ends, np.concatenate(ghosts)),
        counts=counts)


def check_length_accuracy() -> tuple[bool, str]:
    """Length lands within a range cell clean, within 3% noisy, and the
    near end is the steadier one under far-end ghosts."""
    ship = _ideal_ship()
    cfg0 = _ideal_config()
    track0 = build_angle_track(cfg0)
    _, _, loa0 = _noisy_pipeline(simulate_degraded(ship, track0, cfg0))
    err0 = abs(loa0.loa - LOA_M)

    cfg_n = _ideal_config(noise=(0.5, 0.05, 0.05), seed=11)
    track_n = build_angle_track(cfg_n)
    dwell_n = simulate_degraded(ship, track_n, cfg_n)
    _, _, loa_n = _noisy_pipeline(dwell_n)
    err_n = abs(loa_n.loa - LOA_M) / LOA_M

    _, _, loa_g = _noisy_pipeline(_ghost_dwell(dwell_n))
    ok = (err0 <= cfg0.range_resolution and err_n <= 0.03
          and loa_g.rmin_std < loa_g.rmax_std)
    return ok, (f"clean err {err0:.2f} m (cell {cfg0.range_resolution} m), "
                f"noisy err {err_n:.2%}, ghost stds "
                f"{loa_g.rmin_std:.2f} < {loa_g.rmax_std:.2f}")


def check_run_determinism() -> tuple[bool, str]:
    """Identical config and seed give byte-identical output trees."""
    scenario = {
        "duration": 60.0, "frame_interval": 0.5, "integration_time": 0.5,
        "phi0_deg": 45.0, "theta0_deg": 30.0,
        "steady_aspect_rate_dps": 0.3,
        "aspect_osc": {"amplitude_deg": 1.0, "period_s": 12.0},
        "tilt_osc": {"amplitude_deg": 1.0, "period_s": 10.0},
        "noise": {"sigma_r": 0.3, "sigma_f": 0.05, "sigma_a": 0.05},
        "ship": {"loa": 120.0, "n_scatterers": 24},
        "degradations": [{"kind": "bogey", "t_start": 20.0, "t_stop": 25.0}],
    }
    with tempfile.TemporaryDirectory() as tmp:
        dirs = (Path(tmp) / "a", Path(tmp) / "b")
        reports = []
        for d in dirs:
            reports.append(run(RunConfig(mode="simulate", output_dir=str(d),
                                         scenario=scenario, seed=11,
                                         emit_plots=True)))
        names = sorted(p.name for p in dirs[0].iterdir())
        if names != sorted(p.name for p in dirs[1].iterdir()):
            return False, "output file lists differ"
        _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                               shallow=False)
        ok = not mismatch and not errors
        return ok, (f"{len(names)} files byte-identical across runs"
                    if ok else f"differ: {mismatch or errors}")


def check_focus_agreement() -> tuple[bool, str]:
    """Data-side and model-side focus parameters agree off the pearls
    regime, and the guard holds on a pure line target."""
    cfg = _ideal_config()
    ship = make_ship(90.0, beam=28.0, height=22.0, n_scatterers=24)
    track = build_angle_track(cfg)
    dwell = simulate_degraded(ship, track, cfg)
    mom = moments_series(dwell)
    _, bsq, hsq = ship_moments(ship)
    model = model_covariances(track, bsq, hsq)
    fc = crosscheck_focus(mom, model)
    n_cond = int(fc.conditioned.sum())

    dwell_l = simulate_degraded(_line_ship(), track, cfg)
    mom_l = moments_series(dwell_l)
    _, bl, hl = ship_moments(_line_ship())
    fl = crosscheck_focus(mom_l, model_covariances(track, bl, hl))
    valid_l = mom_l.valid
    finite = all(bool(np.isfinite(a[valid_l]).all())
                 for a in (fl.a_r_data, fl.a_f_data, fl.a_r_out, fl.a_f_out))
    crf2 = float(np.median(mom_l.crf ** 2))
    ok = (n_cond > 0 and fc.rms_r <= 0.10 and fc.rms_f <= 0.10 and finite)
    return ok, (f"focus RMS {fc.rms_r:.4f}/{fc.rms_f:.4f} over {n_cond} "
                f"frames; line target crf^2={crf2:.4f} stays finite")


def all_checks():
    """Name/callable pairs, in reporting order."""
    return [
        ("wave_motion_recovery", check_wave_motion_recovery),
        ("forward_model_calculus", check_forward_model_calculus),
        ("covariance_closure", check_covariance_closure),
        ("acceleration_consistency", check_acceleration_consistency),
        ("pose_round_trip", check_pose_round_trip),
        ("frame_classification", check_frame_classification),
        ("confuser_gating", check_confuser_gating),
        ("length_accuracy", check_length_accuracy),
        ("run_determinism", check_run_determinism),
        ("focus_agreement", check_focus_agreement),
    ]


def run_all():
    """Run every check; a crash inside one counts as its failure."""
    results = []
    for name, fn in all_checks():
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't abort the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
