"""Per-frame 3-D scatterer recovery and frame classification.

Each frame's centered (range, rate, acceleration) triples are the motion
matrix times the drydock coordinates, so inverting the matrix turns one
frame of reports into a 3-D point cloud up to the centroid. How much of
that cloud is believable depends on the instantaneous motion: tilt-rate
frames resolve height (Profile), aspect-rate frames resolve cross-ship
position (Plan), and frames with neither leave the reports strung along a
range/rate line (StringOfPearls).

Frames that share a report count (Dwell.frame_groups) are inverted in one
array pass per group; a single frame is a group of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .moments import c_pow, snr_power
from .motion import track_rows
from .ship import AngleTrack, Dwell, Frame
from .validate import BadFitSeries

PEARLS_EPS = 0.01
COND_GUARD = 1e4
CLASS_THRESHOLD = 4.0   # a score over this makes its class a candidate
THREE_D_BALANCE = 0.5   # ThreeD needs min/max of (profile, plan) over this
COMPOSITE_CELL = 1.0    # composite pixel size (m)
RATE_FLOOR_FRAC = 0.1   # composites skip frames under this x median rate


class FrameClass(str, enum.Enum):
    PROFILE = "Profile"
    PLAN = "Plan"
    THREE_D = "ThreeD"
    PEARLS = "StringOfPearls"
    INVALID = "Invalid"


@dataclass(frozen=True)
class FrameSolution:
    """Inverted frame: xyz is (n_reports, 3), or None when the frame
    cannot be inverted.

    noise_var holds the propagated report-noise variances (N_X, N_Y, N_Z).
    scores = (profile, plan, pearls): signal variance over noise variance
    for height and cross-ship, and the range/rate collinearity odds.
    """

    xyz: np.ndarray | None
    noise_var: tuple[float, float, float]
    scores: tuple[float, float, float]


@dataclass(frozen=True)
class CompositeImage:
    """SNR-weighted accumulation of frames of one kind.

    grid[i, j] indexes (cross-range, range); extents are in meters relative
    to the frame centroids.
    """

    kind: FrameClass
    grid: np.ndarray
    range_axis: np.ndarray
    cross_axis: np.ndarray
    frames_used: tuple[int, ...]


def report_noise(range_resolution: float, integration_time: float) -> tuple[float, float, float]:
    """Default report noise sigmas (m, m/s, m/s^2) for a radar mode."""
    return (0.5 * range_resolution,
            0.3 / integration_time,
            1.0 / integration_time ** 2)


def motion_matrix(track: AngleTrack,
                  integration_time: float) -> tuple[np.ndarray, np.ndarray]:
    """Motion matrices of every frame of a track, (n, 3, 3), and their
    scaled condition numbers, (n,).

    The condition number is taken after scaling the rows by (1, T, T^2) so
    range, rate, and acceleration rows are commensurate; T is the
    integration time.
    """
    m = track_rows(track)
    scale = np.array([1.0, integration_time, integration_time ** 2])
    return m, np.linalg.cond(scale[:, None] * m)


_NO_SOLUTION = FrameSolution(xyz=None, noise_var=(0.0, 0.0, 0.0),
                             scores=(0.0, 0.0, 0.0))


def invert_frame(frame, mom, m, cond, noise):
    """Recover centered drydock coordinates for every report of a frame, or
    of each frame of a group of equal report count in one array pass.

    frame is a Frame, and mom, m and cond are its moments record under the
    run's weighting, its motion matrix and its scaled condition number (a
    row of motion_matrix); the result is its FrameSolution, the group pass
    on that frame alone. Or frame is the (k, n) REPORT_DTYPE reports of k
    frames, one frame a row, as Dwell.frame_groups holds them, and mom, m
    and cond hold the k frames' rows; the result is their k FrameSolutions
    in order. The moments' validity gates the inversion and crf sets the
    pearls score.

    noise_var_k = sum_j (M^-1)_kj^2 sigma_j^2 propagates the report noise
    through the inversion. An invalid moments record, or a condition number
    beyond COND_GUARD (the instantaneous motion cannot separate the axes),
    leaves the frame without coordinates and with zero scores.
    """
    if isinstance(frame, Frame):
        return invert_frame(frame.reports.view(np.ndarray)[None],
                            np.asarray(mom)[None], np.asarray(m)[None],
                            np.reshape(cond, 1), noise)[0]
    cond = np.asarray(cond)
    ok = mom["valid"] & np.isfinite(cond) & (cond <= COND_GUARD)
    sols = [_NO_SOLUTION] * len(frame)
    if not ok.any():
        return sols
    reports = frame if ok.all() else frame[ok]
    rfa = np.stack([reports[name] for name in ("r", "f", "a")], axis=-1)
    rfa = rfa - rfa.mean(axis=1, keepdims=True)
    minv = np.linalg.inv(m[ok])
    xyz = rfa @ np.swapaxes(minv, 1, 2)
    sig = np.asarray(noise, dtype=float)
    noise_var = (minv ** 2) @ (sig ** 2)
    var_xyz = xyz.var(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(noise_var > 0, var_xyz / noise_var, np.inf)
    crf2 = c_pow(mom["crf"][ok], 2)
    pearls = crf2 / (1.0 - crf2 + PEARLS_EPS)
    for k, xyz_k, var_k, profile, plan, pearls_k in zip(
            np.flatnonzero(ok).tolist(), xyz, noise_var.tolist(),
            ratio[:, 2].tolist(), ratio[:, 1].tolist(), pearls.tolist()):
        sols[k] = FrameSolution(xyz=xyz_k, noise_var=tuple(var_k),
                                scores=(profile, plan, pearls_k))
    return sols


def _classify(profile: float, plan: float, pearls: float,
              threshold: float) -> FrameClass:
    if profile > threshold and plan > threshold:
        lo, hi = sorted((profile, plan))
        if lo / hi > THREE_D_BALANCE:
            return FrameClass.THREE_D
    scores = {FrameClass.PROFILE: profile, FrameClass.PLAN: plan,
              FrameClass.PEARLS: pearls}
    over = {k: v for k, v in scores.items() if v > threshold}
    if not over:
        return FrameClass.INVALID
    return max(over, key=over.get)


def classify_frames(solutions: list[FrameSolution],
                    badfit_series: BadFitSeries | None = None,
                    threshold: float = CLASS_THRESHOLD
                    ) -> tuple[list[FrameClass], np.ndarray]:
    """Each frame's class, and the (n, 3) scores it was decided on.

    Frames flagged by the fit check get their effective noise variances
    inflated tenfold before scoring, which demotes marginal Profile/Plan
    calls on contaminated frames; the collinearity score is geometric and
    stays as is. A frame without coordinates is Invalid.
    """
    scores = np.array([sol.scores for sol in solutions],
                      dtype=float).reshape(-1, 3)
    if badfit_series is not None:
        scores[np.asarray(badfit_series.flagged, dtype=bool), :2] /= 10.0
    classes = [FrameClass.INVALID if sol.xyz is None
               else _classify(*row, threshold)
               for sol, row in zip(solutions, scores.tolist())]
    return classes, scores


def compose(dwell: Dwell, classes: list[FrameClass], track: AngleTrack,
            kind: FrameClass) -> CompositeImage:
    """Accumulate frames of one class into a range/cross-range image;
    classes[k] is frame k's class, as classify_frames returns it.

    Cross-range is Doppler divided by the relevant rotation rate: tilt rate
    for Profile frames (maps to height), aspect rate for Plan frames (maps
    to cross-ship). Frames whose rate magnitude falls under RATE_FLOOR_FRAC
    of the dwell median are excluded (the division blows up); negative-rate
    frames are mirrored so all frames add coherently. Each frame is
    centroid-aligned and weighted by linear-power SNR.
    """
    if kind not in (FrameClass.PROFILE, FrameClass.PLAN):
        raise ValueError("composites exist for Profile and Plan only")
    rates = (track.samples.theta_dot if kind is FrameClass.PROFILE
             else track.samples.phi_dot)
    med_rate = float(np.median(np.abs(rates))) if len(rates) else 0.0
    pts_r: list[np.ndarray] = []
    pts_c: list[np.ndarray] = []
    wts: list[np.ndarray] = []
    used: list[int] = []
    for k, cls in enumerate(classes):
        if cls is not kind:
            continue
        rate = rates[k]
        if abs(rate) < RATE_FLOOR_FRAC * med_rate or rate == 0.0:
            continue
        reports = dwell.frames[k].reports.view(np.ndarray)
        cross = reports["f"] / abs(rate)
        r = reports["r"] - reports["r"].mean()
        cross = cross - cross.mean()
        # a reversed rotation sweeps Doppler the opposite way; mirroring
        # folds those frames onto the same cross-range axis
        if rate < 0:
            cross = -cross
        pts_r.append(r)
        pts_c.append(cross)
        wts.append(snr_power(reports["snr"]))
        used.append(k)
    if not used:
        return CompositeImage(kind=kind, grid=np.zeros((1, 1)),
                              range_axis=np.zeros(1), cross_axis=np.zeros(1),
                              frames_used=())
    r_all = np.concatenate(pts_r)
    c_all = np.concatenate(pts_c)
    w_all = np.concatenate(wts)
    r_lo, r_hi = float(r_all.min()), float(r_all.max())
    c_lo, c_hi = float(c_all.min()), float(c_all.max())
    nr = max(2, int(np.ceil((r_hi - r_lo) / COMPOSITE_CELL)) + 1)
    nc = max(2, int(np.ceil((c_hi - c_lo) / COMPOSITE_CELL)) + 1)
    grid = np.zeros((nc, nr))
    ir = np.clip(((r_all - r_lo) / COMPOSITE_CELL).astype(int), 0, nr - 1)
    ic = np.clip(((c_all - c_lo) / COMPOSITE_CELL).astype(int), 0, nc - 1)
    np.add.at(grid, (ic, ir), w_all)
    return CompositeImage(kind=kind, grid=grid,
                          range_axis=r_lo + COMPOSITE_CELL * np.arange(nr),
                          cross_axis=c_lo + COMPOSITE_CELL * np.arange(nc),
                          frames_used=tuple(used))
