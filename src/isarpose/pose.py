"""Per-frame 3-D scatterer recovery and frame classification.

Each frame's centered (range, rate, acceleration) triples are the motion
matrix times the drydock coordinates, so inverting the matrix turns one
frame of reports into a 3-D point cloud up to the centroid. How much of
that cloud is believable depends on the instantaneous motion: tilt-rate
frames resolve height (Profile), aspect-rate frames resolve cross-ship
position (Plan), and frames with neither leave the reports strung along a
range/rate line (StringOfPearls).

Frames that share a report count (Dwell.frame_groups) are inverted in one
array pass per group, into one POSE_DTYPE record per frame, and every
frame's class is decided in one array expression over those records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .moments import c_pow, snr_power
from .motion import track_rows
from .ship import AngleTrack, Dwell
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


POSE_DTYPE = np.dtype([
    ("solved", np.bool_), ("noise_var", np.float64, (3,)),
    ("profile", np.float64), ("plan", np.float64), ("pearls", np.float64)])
"""One inverted frame per record. solved is False when the frame has no
coordinates (invert_frame's gate); its numeric fields are then 0.
noise_var holds the propagated report-noise variances (N_X, N_Y, N_Z).
profile and plan are the signal variance over the noise variance of
height and of cross-ship position, and pearls the range/rate
collinearity odds."""


def invert_frame(reports, mom, m, cond, noise):
    """Recover centered drydock coordinates for every report of each frame
    of a group of equal report count, in one array pass.

    reports is the (k, n) REPORT_DTYPE array of the k frames, one frame a
    row, as Dwell.frame_groups holds them; mom, m and cond hold the k
    frames' moments records under the run's weighting, motion matrices and
    scaled condition numbers (rows of motion_matrix). Returns the k frames'
    POSE_DTYPE records in order, and the (k_solved, n, 3) coordinates of
    the solved ones in the same order. The moments' validity gates the
    inversion and crf sets the pearls score.

    noise_var_k = sum_j (M^-1)_kj^2 sigma_j^2 propagates the report noise
    through the inversion. An invalid moments record, or a condition number
    beyond COND_GUARD (the instantaneous motion cannot separate the axes),
    leaves the frame unsolved.
    """
    cond = np.asarray(cond)
    ok = mom["valid"] & np.isfinite(cond) & (cond <= COND_GUARD)
    pose = np.zeros(len(reports), POSE_DTYPE)
    if not ok.any():
        return pose, np.empty((0, reports.shape[1], 3))
    rows = reports if ok.all() else reports[ok]
    rfa = np.stack([rows[name] for name in ("r", "f", "a")], axis=-1)
    rfa = rfa - rfa.mean(axis=1, keepdims=True)
    minv = np.linalg.inv(m[ok])
    xyz = rfa @ np.swapaxes(minv, 1, 2)
    sig = np.asarray(noise, dtype=float)
    noise_var = (minv ** 2) @ (sig ** 2)
    var_xyz = xyz.var(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(noise_var > 0, var_xyz / noise_var, np.inf)
    crf2 = c_pow(mom["crf"][ok], 2)
    pose["solved"] = ok
    pose["noise_var"][ok] = noise_var
    pose["profile"][ok] = ratio[:, 2]
    pose["plan"][ok] = ratio[:, 1]
    pose["pearls"][ok] = crf2 / (1.0 - crf2 + PEARLS_EPS)
    return pose, xyz


# classify_frames' decisions, indexed by its codes: the first three are the
# (profile, plan, pearls) score columns
_CLASSES = np.array([FrameClass.PROFILE, FrameClass.PLAN, FrameClass.PEARLS,
                     FrameClass.THREE_D, FrameClass.INVALID], dtype=object)


def classify_frames(pose: np.ndarray,
                    badfit_series: BadFitSeries | None = None,
                    threshold: float = CLASS_THRESHOLD
                    ) -> tuple[list[FrameClass], np.ndarray]:
    """Each frame's class, and the (n, 3) (profile, plan, pearls) scores it
    was decided on; pose is the run's POSE_DTYPE table.

    Frames flagged by the fit check get their effective noise variances
    inflated tenfold before scoring, which demotes marginal Profile/Plan
    calls on contaminated frames; the collinearity score is geometric and
    stays as is. A frame is ThreeD when profile and plan are both over the
    threshold and min/max of the two is over THREE_D_BALANCE; otherwise it
    takes its highest score over the threshold, a tie going to the first
    of Profile, Plan, Pearls. A frame with no score over the threshold, or
    an unsolved one, is Invalid.
    """
    scores = np.stack([pose[name] for name in ("profile", "plan", "pearls")],
                      axis=-1)
    if badfit_series is not None:
        scores[np.asarray(badfit_series.flagged, dtype=bool), :2] /= 10.0
    over = scores > threshold
    profile, plan = scores[:, 0], scores[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        balanced = (np.minimum(profile, plan) / np.maximum(profile, plan)
                    > THREE_D_BALANCE)
    code = np.where(~pose["solved"] | ~over.any(axis=1), 4,
                    np.where(over[:, 0] & over[:, 1] & balanced, 3,
                             np.where(over, scores, -np.inf).argmax(axis=1)))
    return _CLASSES[code].tolist(), scores


def compose(dwell: Dwell, classes: list[FrameClass], track: AngleTrack,
            kind: FrameClass) -> CompositeImage:
    """Accumulate frames of one class into a range/cross-range image;
    classes[k] is frame k's class, as classify_frames returns it.

    Cross-range is Doppler divided by the relevant rotation rate: tilt rate
    for Profile frames (maps to height), aspect rate for Plan frames (maps
    to cross-ship). Frames whose rate magnitude falls under RATE_FLOOR_FRAC
    of the dwell median are excluded (the division blows up); negative-rate
    frames are mirrored so all frames add coherently. Each frame is
    centroid-aligned and weighted by linear-power SNR, taken relative to
    the strongest report so that no weight overflows.
    """
    if kind not in (FrameClass.PROFILE, FrameClass.PLAN):
        raise ValueError("composites exist for Profile and Plan only")
    rates = (track.samples.theta_dot if kind is FrameClass.PROFILE
             else track.samples.phi_dot)
    med_rate = float(np.median(np.abs(rates))) if len(rates) else 0.0
    pts_r: list[np.ndarray] = []
    pts_c: list[np.ndarray] = []
    snrs: list[np.ndarray] = []
    used: list[int] = []
    for k, cls in enumerate(classes):
        if cls is not kind:
            continue
        rate = rates[k]
        if abs(rate) < RATE_FLOOR_FRAC * med_rate or rate == 0.0:
            continue
        reports = dwell.reports[dwell.offsets[k]:dwell.offsets[k + 1]]
        cross = reports["f"] / abs(rate)
        r = reports["r"] - reports["r"].mean()
        cross = cross - cross.mean()
        # a reversed rotation sweeps Doppler the opposite way; mirroring
        # folds those frames onto the same cross-range axis
        if rate < 0:
            cross = -cross
        pts_r.append(r)
        pts_c.append(cross)
        snrs.append(reports["snr"])
        used.append(k)
    if not used:
        return CompositeImage(kind=kind, grid=np.zeros((1, 1)),
                              range_axis=np.zeros(1), cross_axis=np.zeros(1),
                              frames_used=())
    r_all = np.concatenate(pts_r)
    c_all = np.concatenate(pts_c)
    # power relative to the strongest report: every weight is finite and
    # the peak-scaled image is the same
    snr_all = np.concatenate(snrs)
    w_all = snr_power(snr_all - snr_all.max())
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
