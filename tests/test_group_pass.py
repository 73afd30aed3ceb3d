"""The group passes of moments and pose against per-frame oracles.

moments_series and the pose inversion run one array pass per group of
frames that share a report count (Dwell.frame_groups). The oracles below
are the per-frame scalar formulas, one frame at a time; every output must
equal theirs bit for bit, on ragged dwells that hold frames of 0-3
reports, runs of equal-count frames next to singletons, frames without
range or Doppler spread, near-collinear frames and frames whose motion
cannot be inverted.
"""


import numpy as np
import pytest

from isarpose.moments import EPS_VAR, MOMENT_DTYPE, moments_series
from isarpose.pose import (COND_GUARD, PEARLS_EPS, invert_frame,
                           motion_matrix)
from isarpose.ship import AngleTrack, angle_array, report_array
from tests.conftest import PHI0, THETA0, frame_reports, make_dwell, with_frames

NOISE = (0.25, 0.03, 0.01)
SIGMAS = (0.2, 0.03, 0.02)
# report counts in frame order: empty and under-populated frames, runs of
# one count, counts that recur apart, and singletons
COUNTS = [0, 1, 2, 3, 3, 3, 5, 8, 8, 3, 2, 13, 5, 40, 40, 40, 1, 7, 0,
          26, 26, 26, 9, 4, 4]
NO_RANGE_SPREAD = 4     # every report at one range
NO_DOPPLER_SPREAD = 12  # every report at one rate
COLLINEAR = 14          # rate a near-exact multiple of range
STATIC = (5, 13, 20)    # no rotation: a singular motion matrix
SLOW_TILT = (7, 21)     # a tilt rate so small the condition guard trips


def _oracle_row(reports, t, weighting, var_r, var_f):
    """One frame's MOMENT_DTYPE record as a tuple: the scalar formulas."""
    reports = np.asarray(reports)
    n = len(reports)
    invalid = (t, n, False) + (0.0,) * (len(MOMENT_DTYPE) - 3)
    if n < 3:
        return invalid
    w = (np.ones(n) if weighting == "uniform"
         else 10.0 ** (np.asarray(reports["snr"], dtype=float) / 10.0))
    w = w / w.sum()
    r, f, a = (np.array(reports["r"]), np.array(reports["f"]),
               np.array(reports["a"]))
    r_min, r_max = float(r.min()), float(r.max())
    r = r - w @ r
    f = f - w @ f
    a = a - w @ a
    spread = 1.0 - float(w @ w)
    rr = float(w @ (r * r)) - var_r * spread
    ff = float(w @ (f * f)) - var_f * spread
    if rr <= EPS_VAR or ff <= EPS_VAR:
        return invalid
    rf = float(w @ (r * f))
    ra = float(w @ (r * a))
    fa = float(w @ (f * a))
    cov_rf = rf / rr
    cov_ff = ff / rr
    crf = min(max(cov_rf / np.sqrt(cov_ff), -1.0), 1.0)
    det = rr * ff * max(1.0 - rf * rf / (rr * ff), 0.02)
    a_r = (ra * ff - fa * rf) / det
    a_f = (fa * rr - ra * rf) / det
    w2 = w * w
    w2r = w2 * r
    s_rr, s_rf, s_ff = float(w2r @ r), float(w2r @ f), float((w2 * f) @ f)
    c, k = cov_rf, cov_ff - 2 * cov_rf ** 2
    sd_rf = max(var_r * (s_ff - 4 * c * s_rf + 4 * c * c * s_rr)
                + var_f * s_rr, 0.0) ** 0.5 / rr
    sd_d = 2 * max(var_r * (k * k * s_rr + 2 * k * c * s_rf + c * c * s_ff)
                   + var_f * (s_ff - 2 * c * s_rf + c * c * s_rr), 0.0) ** 0.5 / rr
    return (t, n, True, cov_rf, cov_ff, ra / rr, fa / rr, crf,
            cov_ff - cov_rf ** 2, rr, r_min, r_max, a_r, a_f, sd_rf, sd_d)


def _oracle_invert(reports, mom, m, cond, noise):
    """One frame's (xyz, noise_var, scores): the per-frame inversion."""
    if not (mom.valid and np.isfinite(cond) and cond <= COND_GUARD):
        return None, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    reports = np.asarray(reports)
    rfa = np.column_stack((reports["r"], reports["f"], reports["a"]))
    rfa = rfa - rfa.mean(axis=0)
    minv = np.linalg.inv(m)
    xyz = rfa @ minv.T
    noise_var = (minv ** 2) @ (np.asarray(noise, dtype=float) ** 2)
    var_xyz = xyz.var(axis=0)
    profile = float(var_xyz[2] / noise_var[2]) if noise_var[2] > 0 else np.inf
    plan = float(var_xyz[1] / noise_var[1]) if noise_var[1] > 0 else np.inf
    pearls = float(mom.crf ** 2 / (1.0 - mom.crf ** 2 + PEARLS_EPS))
    return xyz, tuple(noise_var.tolist()), (profile, plan, pearls)


def _ragged_dwell(seed, sigmas):
    rng = np.random.default_rng(seed)
    frames = []
    for k, n in enumerate(COUNTS):
        r = rng.uniform(-60.0, 60.0, n)
        f = rng.normal(0.0, 1.5, n)
        a = rng.normal(0.0, 0.2, n)
        if k == NO_RANGE_SPREAD:
            r[:] = 3.0
        if k == NO_DOPPLER_SPREAD:
            f[:] = -0.4
        if k == COLLINEAR:
            f = 0.02 * r + rng.normal(0.0, 1e-4, n)
        snr = rng.uniform(5.0, 40.0, n)
        frames.append(report_array((k + 0.5) * 0.5, snr, r, f, a))
    return make_dwell(frames, phi0=PHI0, theta0=THETA0, range_resolution=0.5,
                      frame_interval=0.5, integration_time=0.5,
                      report_sigmas=sigmas)


def _ragged_track(dwell, seed):
    rng = np.random.default_rng(seed + 100)
    n = len(dwell.counts)
    rates = {name: rng.normal(0.0, scale, n) for name, scale in (
        ("phi_dot", 0.01), ("theta_dot", 0.012), ("phi_ddot", 8e-3),
        ("theta_ddot", 6e-3))}
    for k in STATIC:
        for rate in rates.values():
            rate[k] = 0.0
    for k in SLOW_TILT:
        rates["phi_dot"][k] = 0.0
        rates["theta_dot"][k] = 1e-9
        rates["phi_ddot"][k] = rates["theta_ddot"][k] = 0.0
    return AngleTrack(angle_array(dwell.t, PHI0 + rng.normal(0.0, 0.02, n),
                                  THETA0 + rng.normal(0.0, 0.02, n), **rates))


def test_ragged_dwell_groups_as_intended():
    dwell = _ragged_dwell(1, SIGMAS)
    groups = dwell.frame_groups
    assert [reports.shape[1] for _, reports in groups] == sorted(set(COUNTS))
    assert sorted(np.concatenate([index for index, _ in groups]).tolist()) \
        == list(range(len(COUNTS)))
    for index, reports in groups:
        assert reports.shape == (len(index), reports.shape[1])
        assert not reports.flags.writeable
        for row, k in zip(reports, index.tolist()):
            assert row.tobytes() == frame_reports(dwell, k).tobytes()
        if len(index) == 1:
            # a lone frame's group is a view of its own reports
            assert np.shares_memory(reports, frame_reports(dwell, index[0]))
    assert dwell.frame_groups is groups   # gathered once per dwell


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("sigmas", [SIGMAS, None], ids=["sigmas", "none"])
@pytest.mark.parametrize("weighting", ["uniform", "snr"])
def test_moments_series_is_the_per_frame_oracle(seed, sigmas, weighting):
    dwell = _ragged_dwell(seed, sigmas)
    var_r, var_f = ((sigmas[0] ** 2, sigmas[1] ** 2) if sigmas
                    else (0.0, 0.0))
    oracle = np.array([_oracle_row(frame_reports(dwell, k), t, weighting,
                                   var_r, var_f)
                       for k, t in enumerate(dwell.t.tolist())],
                      dtype=MOMENT_DTYPE)
    mom = moments_series(dwell, weighting)
    assert mom.tobytes() == oracle.tobytes()
    # the cases the dwell is built to hold
    invalid = {k for k, n in enumerate(COUNTS) if n < 3}
    invalid |= {NO_RANGE_SPREAD, NO_DOPPLER_SPREAD}
    assert set(np.flatnonzero(~mom.valid).tolist()) == invalid
    assert mom.crf[COLLINEAR] ** 2 > 0.98   # its Det is clamped


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("weighting", ["uniform", "snr"])
def test_pose_inversion_is_the_per_frame_oracle(seed, weighting):
    dwell = _ragged_dwell(seed, SIGMAS)
    mom = moments_series(dwell, weighting)
    m, cond = motion_matrix(_ragged_track(dwell, seed), dwell.integration_time)
    assert not np.isfinite(cond[list(STATIC)]).any()
    assert (cond[list(SLOW_TILT)] > COND_GUARD).all()
    grouped = [None] * len(dwell.counts)
    for index, reports in dwell.frame_groups:
        sols = invert_frame(reports, mom.view(np.ndarray)[index], m[index],
                            cond[index], NOISE)
        for k, sol in zip(index.tolist(), sols):
            grouped[k] = sol
    inverted = 0
    for k, sol in enumerate(grouped):
        xyz, noise_var, scores = _oracle_invert(
            frame_reports(dwell, k), mom[k], m[k], cond[k], NOISE)
        assert np.array(sol.scores).tobytes() == np.array(scores).tobytes(), k
        assert (np.array(sol.noise_var).tobytes()
                == np.array(noise_var).tobytes()), k
        if xyz is None:
            assert sol.xyz is None, k
        else:
            assert sol.xyz.shape == xyz.shape, k
            assert sol.xyz.tobytes() == xyz.tobytes(), k
        inverted += xyz is not None
    assert inverted >= 10


def test_a_group_whose_frames_all_fail_the_gate_inverts_none():
    dwell = _ragged_dwell(1, SIGMAS)
    mom = moments_series(dwell)
    index, reports = next(g for g in dwell.frame_groups
                          if g[1].shape[1] == 40)
    m = np.zeros((len(index), 3, 3))
    sols = invert_frame(reports, mom.view(np.ndarray)[index], m,
                        np.full(len(index), np.inf), NOISE)
    assert [sol.xyz for sol in sols] == [None] * len(index)
    assert [sol.scores for sol in sols] == [(0.0, 0.0, 0.0)] * len(index)


def test_a_replaced_dwell_groups_its_own_frames():
    # replacing one frame gives a new dwell, which groups its own frames
    dwell = _ragged_dwell(2, SIGMAS)
    frames = [frame_reports(dwell, k) for k in range(len(dwell.counts))]
    frames[3] = frames[3][:2]
    other = with_frames(dwell, frames)
    mom = moments_series(other)
    assert not mom.valid[3] and mom.n_targets[3] == 2
    assert mom[4].tobytes() == moments_series(dwell)[4].tobytes()
