"""Aspect/tilt angle history from scaled covariance series.

The estimation chain per candidate wave period:

1. split cov_rf into low/wave/high bands (see bands);
2. integrate the low band and solve a per-frame quadratic for the slow
   aspect excursion about the mean aspect (lowpass_aspect_solve);
3. jointly fit the wave bands of cov_rf and d with a spectral-line motion
   model: one or two sinusoid lines shared between aspect and tilt, a cubic
   slow-aspect correction, and the ship shape ratios bsq = <y^2>/<x^2>,
   hsq = <z^2>/<x^2> as bounded parameters (waveband_joint_fit);

estimate_angles runs the chain over a grid of nine candidate periods around
the spectral seed and keeps the candidate with the smallest joint residual.
The joint fit is minimized by least_squares, a bounded Levenberg-Marquardt
solver with a soft_l1 loss kept in this module, so the package needs NumPy
alone.

Angle conventions: aspect phi rotates the alongship axis in the slant plane,
tilt theta is the grazing rotation. Mean angles phi0/theta0 are externally
known; only excursions and rates are estimated. All angles radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BandSplit, chapeau_band_split, chapeau_smooth, dominant_wave_period
from .motion import motion_rows, range_rate_rows
from .ship import AngleSample, AngleTrack

MIN_ASPECT_DEG = 3.0    # below this mean aspect the slow solve is blind
NPOLY = 3               # slow-correction polynomial degrees 1..3
ANGLE_LIMIT = math.pi / 2 - 1e-6
FD_REL_STEP = np.finfo(float).eps ** 0.5   # 2-point finite-difference step
LM_TOL = 1e-6           # relative cost drop and scaled step that end the fit


@dataclass(frozen=True)
class ModelCovariances:
    """Noise-free scaled covariances implied by an angle track and shape."""

    cov_rf: np.ndarray
    cov_ff: np.ndarray
    cov_ra: np.ndarray
    cov_fa: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class LowpassAspect:
    """Slow aspect solution: phi_mean(t) about the external mean phi0."""

    phi_mean: np.ndarray
    rate: np.ndarray
    accel: np.ndarray
    steady_rate: float
    clamped: np.ndarray
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FitState:
    """Converged angle solution for one candidate period plus diagnostics.

    phi_hat/theta_hat are the wave-band excursions; phi/theta and the dot
    fields are the assembled full tracks. quad_* are the per-frame
    closed-form diagnostics (energy-partition quadratic), kept for
    validation only; n_floored counts frames whose partition had to be
    clamped to keep the quadratic roots real.
    """

    t: np.ndarray
    period: float
    lines: tuple[float, ...]
    phi_hat: np.ndarray
    theta_hat: np.ndarray
    phi_mean: np.ndarray
    phi_M: np.ndarray
    steady_rate: float
    bsq_est: float
    hsq_est: float
    P: float
    Q: float
    P_hat: np.ndarray
    denom: float
    residual_rms: float
    converged: bool
    n_floored: int
    quad_phi_hat: np.ndarray
    quad_theta_hat: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    phi_dot: np.ndarray
    theta_dot: np.ndarray
    phi_ddot: np.ndarray
    theta_ddot: np.ndarray
    flags: tuple[str, ...] = ()


def thin_ship_factors(phi0: float, theta0: float, bsq: float,
                      hsq: float) -> tuple[float, float, float]:
    """(P, Q, denom) shape factors at the mean angles.

    P = 1 - bsq, Q = 1 + bsq tan^2(phi0) - hsq / cos^2(phi0),
    denom = 1 + bsq tan^2(phi0) + hsq tan^2(theta0) / cos^2(phi0).
    """
    tp2 = math.tan(phi0) ** 2
    cp2 = math.cos(phi0) ** 2
    P = 1.0 - bsq
    Q = 1.0 + bsq * tp2 - hsq / cp2
    denom = 1.0 + bsq * tp2 + hsq * math.tan(theta0) ** 2 / cp2
    return P, Q, denom


def _covs_of(rows, bsq, hsq):
    """Scaled model covariances from motion rows.

    rows holds the range and rate rows, optionally the acceleration row,
    each an (x0, y0, z0) triple of arrays (as range_rate_rows returns
    them). With zero drydock cross-moments and moments (1, bsq, hsq) <x^2>,
    the second moment of two rows is the diagonal quadratic form in form(),
    summed x0, y0, z0 in that order. bsq and hsq broadcast against the row
    entries. Returns (cov_rf, cov_ff, d), then (cov_ra, cov_fa) when the
    acceleration row is present.
    """
    def form(i, j):
        u, v = rows[i], rows[j]
        return u[0] * v[0] + u[1] * bsq * v[1] + u[2] * hsq * v[2]

    rr = form(0, 0)
    cov_rf = form(0, 1) / rr
    cov_ff = form(1, 1) / rr
    out = (cov_rf, cov_ff, cov_ff - cov_rf ** 2)
    if len(rows) > 2:
        out += (form(0, 2) / rr, form(1, 2) / rr)
    return out


def model_covariances(track: AngleTrack, bsq: float, hsq: float) -> ModelCovariances:
    """Exact scaled covariances of a rigid ship with shape ratios (bsq, hsq).

    For any ship whose drydock cross-moments vanish these match the frame
    moments of a perfect simulation to machine precision.
    """
    if bsq < 0 or hsq < 0:
        raise ValueError("shape ratios must be non-negative")
    phi = np.array([s.phi for s in track.samples])
    th = np.array([s.theta for s in track.samples])
    phid = np.array([s.phi_dot for s in track.samples])
    thd = np.array([s.theta_dot for s in track.samples])
    phidd = np.array([s.phi_ddot for s in track.samples])
    thdd = np.array([s.theta_ddot for s in track.samples])
    m = motion_rows(phi, th, phid, thd, phidd, thdd)
    cov_rf, cov_ff, d, cov_ra, cov_fa = _covs_of(
        np.moveaxis(m, (-2, -1), (0, 1)), bsq, hsq)
    return ModelCovariances(cov_rf=cov_rf, cov_ff=cov_ff, cov_ra=cov_ra,
                            cov_fa=cov_fa, d=d)


def _zero_mean_integral(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    i = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])
    return i - i.mean()


def lowpass_aspect_solve(t: np.ndarray, lhs_low: np.ndarray, phi0: float,
                         P: float) -> LowpassAspect:
    """Slow aspect excursion from the low band of -cov_rf * denom.

    The running integral of the low band equals
    P tan(phi0) phi_M + (P / (2 cos^2 phi0)) phi_M^2 for small excursions
    phi_M about phi0, anchored to zero at mid-dwell. Each frame takes the
    smaller-magnitude quadratic root; negative discriminants are clamped to
    zero and reported. The excursion is re-centered so its mean vanishes
    (the external phi0 carries the absolute level).
    """
    if abs(math.tan(phi0)) <= math.tan(math.radians(MIN_ASPECT_DEG)):
        raise ValueError("aspect unobservable: mean aspect too close to broadside")
    t = np.asarray(t, dtype=float)
    lhs_low = np.asarray(lhs_low, dtype=float)
    tbar = t.mean()
    i = np.concatenate([[0.0], np.cumsum(0.5 * (lhs_low[1:] + lhs_low[:-1])
                                         * np.diff(t))])
    i = i - np.interp(tbar, t, i)
    a = 0.5 * P / math.cos(phi0) ** 2
    b = P * math.tan(phi0)
    disc = b * b + 4 * a * i
    clamped = disc < 0
    disc = np.maximum(disc, 0.0)
    r1 = (-b + np.sqrt(disc)) / (2 * a)
    r2 = (-b - np.sqrt(disc)) / (2 * a)
    phi_m = np.where(np.abs(r1) <= np.abs(r2), r1, r2)
    phi_m = phi_m - phi_m.mean()
    phi_mean = phi0 + phi_m
    rate = np.gradient(phi_mean, t)
    accel = np.gradient(rate, t)
    flags = ("lowpass discriminant clamped",) if clamped.any() else ()
    return LowpassAspect(phi_mean=phi_mean, rate=rate, accel=accel,
                         steady_rate=float(rate.mean()), clamped=clamped,
                         flags=flags)


def _pursuit_line(t: np.ndarray, resid: np.ndarray, w1: float,
                  snr_min: float = 3.0) -> float | None:
    """Strongest residual sinusoid inside the wave band, excluding a guard
    around w1. Fine-grid windowed projection, immune to FFT bin cancellation
    from the first line's sidelobes. Returns angular frequency or None."""
    f1 = w1 / (2 * np.pi)
    span = t[-1] - t[0]
    guard = 0.75 / span
    fgrid = np.linspace(0.5 * f1, 3.0 * f1, 241)
    win = np.hanning(len(t))
    y = resid * win
    ph = np.exp(-2j * np.pi * fgrid[:, None] * t[None, :])
    amp = np.abs(ph @ y) / np.sum(win)
    amp[np.abs(fgrid - f1) < guard] = 0.0
    i = int(np.argmax(amp))
    floor = np.median(amp[amp > 0])
    if amp[i] < snr_min * floor:
        return None
    return float(2 * np.pi * fgrid[i])


@dataclass(frozen=True)
class LsqResult:
    """Outcome of least_squares.

    cost is the soft_l1 cost at x; nfev counts residual calls and njev
    Jacobian calls. status 0 means the max_nfev budget ran out, 2 that an
    accepted step lowered the cost by less than LM_TOL of it, 3 that the
    scaled step fell below LM_TOL.
    """

    x: np.ndarray
    cost: float
    nfev: int
    njev: int
    status: int


def least_squares(fun, x0: np.ndarray, jac, bounds: tuple[np.ndarray, np.ndarray],
                  x_scale: np.ndarray, max_nfev: int, args: tuple = ()) -> LsqResult:
    """Bounded Levenberg-Marquardt fit of fun(x, *args) under a soft_l1 loss.

    Minimizes sum(sqrt(1 + f^2) - 1), the soft_l1 cost with f_scale 1, over
    lb <= x <= ub in the scaled variables z = x / x_scale. Each iteration
    reweights the Jacobian rows by sqrt(rho' + 2 rho'' f^2) = (1 + f^2)^-3/4
    and the residuals by rho' / that = (1 + f^2)^1/4, which turns the
    robust cost into an equivalent least-squares problem, and solves
    (Jr^T Jr + mu I) dz = -Jr^T fr. The damping mu starts at 1e-3 times the
    largest diagonal entry of Jr^T Jr and follows Nielsen's rule: after a
    step that lowers the cost it scales by max(1/3, 1 - (2 rho - 1)^3),
    where rho is the actual over the predicted reduction; after a rejected
    step it grows by a factor that doubles with every rejection in a row.
    Each trial point is clipped into the bounds, and the prediction is made
    for the clipped step. jac(x, *args) returns the (m, n) Jacobian.
    """
    lb, ub = bounds
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    f = fun(x, *args)
    cost = float(np.sum(np.sqrt(1.0 + f * f) - 1.0))
    nfev, njev, status = 1, 0, 0
    mu, nu, g = None, 2.0, None
    while nfev < max_nfev:
        if g is None:
            s = 1.0 + f * f
            jr = jac(x, *args) * x_scale * (s ** -0.75)[:, None]
            njev += 1
            g = jr.T @ (f * s ** 0.25)
            a = jr.T @ jr
            if mu is None:
                mu = 1e-3 * float(a.diagonal().max())
        dz = np.linalg.solve(a + mu * np.eye(len(x)), -g)
        x_new = np.clip(x + dz * x_scale, lb, ub)
        dz = (x_new - x) / x_scale
        if np.linalg.norm(dz) < LM_TOL * (LM_TOL + np.linalg.norm(x / x_scale)):
            status = 3
            break
        f_new = fun(x_new, *args)
        nfev += 1
        cost_new = float(np.sum(np.sqrt(1.0 + f_new * f_new) - 1.0))
        jdz = jr @ dz
        predicted = -float(g @ dz + 0.5 * (jdz @ jdz))
        rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
        if rho > 0:
            stalled = cost - cost_new < LM_TOL * cost
            x, f, cost, g = x_new, f_new, cost_new, None
            mu *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
            nu = 2.0
            if stalled:
                status = 2
                break
        else:
            mu *= nu
            nu *= 2
    return LsqResult(x=x, cost=cost, nfev=nfev, njev=njev, status=status)


def _forward_steps(x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Forward-difference steps of the classic 2-point rule.

    h = sqrt(eps) * sign(x) * max(1, |x|) with sign(0) = +1, flipped toward
    the interior where x + h leaves [lb, ub]. Every bounded interval of the
    wave fit is many steps wide, so a flipped step always fits.
    """
    h = FD_REL_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    xh = x + h
    h[(xh < lb) | (xh > ub)] *= -1
    return h


def waveband_joint_fit(cov_rf_wave: np.ndarray, d_wave: np.ndarray,
                       phi0: float, theta0: float,
                       phi_mean_track: LowpassAspect | np.ndarray,
                       *, t: np.ndarray, period: float,
                       cov_rf_low: np.ndarray | None = None,
                       d_low: np.ndarray | None = None,
                       max_iter: int = 20) -> FitState:
    """Joint wave-band fit of (cov_rf, d) for one candidate period.

    Stage 1 fits a single sinusoid line near the candidate frequency shared
    by aspect and tilt (two assignment seeds from the integrated wave band).
    Stage 2 hunts the residual for a second line by matching pursuit and
    refits with both lines; the richer model is kept only if it lowers the
    cost. Line frequencies are free parameters bounded to a 0.75/span band
    around their starts (the spectral search has only Rayleigh resolution;
    the fit needs the frequency to much better than one part in the cycle
    count, so it must converge the last fraction itself). bsq is bounded to
    [0, 0.9] (P = 1 - bsq stays positive) and hsq to [0, 2]. Half a period
    is trimmed at each end before scoring, where the band split has edge
    support.

    Each start is minimized by least_squares (bounded Levenberg-Marquardt,
    soft_l1 loss, at most 400 residual calls); a start that runs out of
    calls leaves the fit flagged 'wave fit did not converge'. The solver
    gets a forward-difference Jacobian evaluated in one stacked call: the
    base point and one probe per parameter form an (npar + 1, npar) array,
    and the track, motion rows, covariances and residuals all broadcast
    over that leading probe axis. The steps follow the 2-point rule
    (_forward_steps): h = sqrt(eps) sign(x) max(1, |x|), turned toward the
    interior where x + h leaves the bounds, divided by the representable
    dx = (x + h) - x. Each probe row computes bit for bit what a lone
    residual call would, so every column equals the forward difference of
    two lone residual calls. On the 120-frame one-line fit (npar = 10) one
    Jacobian costs about three residual calls instead of ten.

    The closed-form per-frame quadratic (energy partition between aspect and
    tilt) is evaluated afterwards as a diagnostic: it is iterated at most
    max_iter times to a 1e-4 relative fixed point and its root series are
    reported in quad_phi_hat/quad_theta_hat with the clamp count n_floored.
    """
    t = np.asarray(t, dtype=float)
    cov_rf_wave = np.asarray(cov_rf_wave, dtype=float)
    d_wave = np.asarray(d_wave, dtype=float)
    if isinstance(phi_mean_track, LowpassAspect):
        low = phi_mean_track
    else:
        pm = np.asarray(phi_mean_track, dtype=float)
        rate = np.gradient(pm, t)
        low = LowpassAspect(phi_mean=pm, rate=rate,
                            accel=np.gradient(rate, t),
                            steady_rate=float(rate.mean()),
                            clamped=np.zeros(t.shape, dtype=bool))
    cov_rf = cov_rf_wave + (0.0 if cov_rf_low is None else np.asarray(cov_rf_low))
    d_data = d_wave + (0.0 if d_low is None else np.asarray(d_low))
    flags: list[str] = list(low.flags)

    dt = float(np.median(np.diff(t)))
    w1 = 2 * np.pi / period
    n = len(t)
    trim = int(round(0.5 * period / dt))
    trim = max(0, min(trim, (n - 8) // 2))
    sl = slice(trim, n - trim)
    s_rf = max(float(np.std(cov_rf[sl])), 1e-12)
    s_d = max(float(np.std(d_data[sl])), 1e-14)
    tbar = t.mean()
    u = t - tbar
    a_int = _zero_mean_integral(t, -cov_rf_wave)

    # parameter layout per line count nl:
    # [poly(3) | aspect a,b per line | tilt c,e per line | w per line | bsq, hsq]
    # x may carry leading probe axes: every parameter enters as the column
    # x[..., j, None], which broadcasts against the time axis
    def freqs_of(x, nl):
        return x[NPOLY + 4 * nl:NPOLY + 5 * nl]

    u2, u3 = u ** 2, u ** 3

    def track_of(x, nl, accel=True):
        # (phi, theta, phi_dot, theta_dot[, phi_ddot, theta_ddot])
        def p(j):
            return x[..., j, None]
        phi = low.phi_mean + p(0) * u + p(1) * u2 + p(2) * u3
        phid = low.rate + p(0) + 2 * p(1) * u + 3 * p(2) * u2
        th = np.full_like(t, theta0)
        thd = np.zeros_like(t)
        if accel:
            phidd = low.accel + 2 * p(1) + 6 * p(2) * u
            thdd = np.zeros_like(t)
        for k in range(nl):
            w = p(NPOLY + 4 * nl + k)
            a, b = p(NPOLY + 2 * k), p(NPOLY + 1 + 2 * k)
            c, e = p(NPOLY + 2 * nl + 2 * k), p(NPOLY + 1 + 2 * nl + 2 * k)
            cw, sw = np.cos(w * t), np.sin(w * t)
            phi = phi + a * cw + b * sw
            phid = phid + w * (-a * sw + b * cw)
            th = th + c * cw + e * sw
            thd = thd + w * (-c * sw + e * cw)
            if accel:
                phidd = phidd - w * w * (a * cw + b * sw)
                thdd = thdd - w * w * (c * cw + e * sw)
        if not accel:
            return phi, th, phid, thd
        return phi, th, phid, thd, phidd, thdd

    def model_series(x, nl):
        # model (cov_rf, d); they need only the range and rate rows
        mrf, _, md = _covs_of(range_rate_rows(*track_of(x, nl, accel=False)),
                              x[..., -2, None], x[..., -1, None])
        return mrf, md

    def resid(x, nl):
        mrf, md = model_series(x, nl)
        return np.concatenate([(cov_rf - mrf)[..., sl] / s_rf,
                               (d_data - md)[..., sl] / s_d], axis=-1)

    span = t[-1] - t[0]
    w_band = 2 * np.pi * 0.75 / span

    def solve(ws0, starts):
        nl = len(ws0)
        npar = NPOLY + 5 * nl + 2
        lb = -np.inf * np.ones(npar)
        ub = np.inf * np.ones(npar)
        lb[-2:] = 0.0
        ub[-2], ub[-1] = 0.9, 2.0
        xsc = np.ones(npar)
        xsc[0], xsc[1], xsc[2] = 1e-3, 1e-5, 1e-6
        xsc[NPOLY:NPOLY + 4 * nl] = 0.02
        xsc[-2:] = 0.05
        for k, w0 in enumerate(ws0):
            j = NPOLY + 4 * nl + k
            lb[j] = w0 - w_band
            ub[j] = w0 + w_band
            xsc[j] = 0.01 * w0
        cols = np.arange(npar)

        def jac(x, nl):
            # base point and one forward probe per parameter, all in one
            # broadcast residual call
            h = _forward_steps(x, lb, ub)
            probes = np.tile(x, (npar + 1, 1))
            probes[cols + 1, cols] = x + h
            f = resid(probes, nl)
            dx = (x + h) - x
            return ((f[1:] - f[0]) / dx[:, None]).T

        best = None
        for x0 in starts:
            # the soft_l1 loss caps the pull of short corrupted stretches
            # (confuser targets, interference bursts) without touching clean
            # fits: normalized residuals sit well under 1 on good data
            r = least_squares(resid, x0, jac=jac, bounds=(lb, ub),
                              x_scale=xsc, max_nfev=400, args=(nl,))
            if best is None or r.cost < best.cost:
                best = r
        return best

    def line_amp(w):
        return 2 * np.mean(a_int * np.exp(-1j * w * t))

    tp0, tt0 = math.tan(phi0), math.tan(theta0)

    def seeds1(w):
        out = []
        z = line_amp(w)
        for assign in range(2):
            x0 = np.zeros(NPOLY + 5 + 2)
            x0[NPOLY + 4] = w
            x0[-2] = x0[-1] = 0.02
            if assign:
                x0[NPOLY + 2] = z.real / tt0
                x0[NPOLY + 3] = z.imag / tt0
            else:
                x0[NPOLY] = z.real / tp0
                x0[NPOLY + 1] = z.imag / tp0
            out.append(x0)
        return out

    def seeds2(w2, base):
        out = []
        z = line_amp(w2)
        w1_conv = freqs_of(base, 1)[0]
        for assign in range(2):
            x0 = np.zeros(NPOLY + 10 + 2)
            x0[:NPOLY] = base[:NPOLY]
            x0[NPOLY + 0:NPOLY + 2] = base[NPOLY + 0:NPOLY + 2]
            x0[NPOLY + 4:NPOLY + 6] = base[NPOLY + 2:NPOLY + 4]
            x0[NPOLY + 8] = w1_conv
            x0[NPOLY + 9] = w2
            x0[-2:] = base[-2:]
            if assign:
                x0[NPOLY + 6] = z.real / tt0
                x0[NPOLY + 7] = z.imag / tt0
            else:
                x0[NPOLY + 2] = z.real / tp0
                x0[NPOLY + 3] = z.imag / tp0
            out.append(x0)
        return out

    nl = 1
    best = solve([w1], seeds1(w1))
    mrf = model_series(best.x, nl)[0]
    w1_conv = float(freqs_of(best.x, 1)[0])
    w2 = _pursuit_line(t, cov_rf - mrf, w1_conv)
    if w2 is not None:
        cand = solve([w1_conv, w2], seeds2(w2, best.x))
        if cand.cost < best.cost:
            best, nl = cand, 2

    x = best.x
    phi, th, phid, thd, phidd, thdd = track_of(x, nl)
    ws_final = [float(w) for w in freqs_of(x, nl)]
    bsq, hsq = float(x[-2]), float(x[-1])
    res_rms = float(np.sqrt(2 * best.cost / (2 * max(n - 2 * trim, 1))))
    converged = bool(best.status > 0)
    if not converged:
        flags.append("wave fit did not converge")

    # reconstruct the pure wave-band series from the line coefficients
    phi_hat = np.zeros_like(t)
    theta_hat = np.zeros_like(t)
    for k, w in enumerate(ws_final):
        a, b = x[NPOLY + 2 * k], x[NPOLY + 1 + 2 * k]
        c, e = x[NPOLY + 2 * nl + 2 * k], x[NPOLY + 1 + 2 * nl + 2 * k]
        phi_hat = phi_hat + a * np.cos(w * t) + b * np.sin(w * t)
        theta_hat = theta_hat + c * np.cos(w * t) + e * np.sin(w * t)
    phi_slow = x[0] * u + x[1] * u ** 2 + x[2] * u ** 3

    # shape factors at the converged ratios
    P, Q, denom = thin_ship_factors(phi0, theta0, bsq, hsq)
    if P <= 0:
        bsq = 0.9
        P, Q, denom = thin_ship_factors(phi0, theta0, bsq, hsq)
        flags.append("alongship dominance clamped")

    # closed-form diagnostic: per-frame energy-partition quadratic
    phi_mean = low.phi_mean + phi_slow
    a_w = _zero_mean_integral(t, -cov_rf_wave * denom)
    p_hat = P * np.tan(phi_mean) * math.cos(phi0)
    g_fit = phi_hat / math.cos(phi0)
    h_fit = theta_hat / math.cos(theta0)
    st0 = math.sin(theta0)
    big_b = 0.5 * (P * g_fit ** 2 + Q * h_fit ** 2)
    n_floored = 0
    h_sel = h_fit.copy()
    for _ in range(max_iter):
        floor = a_w ** 2 / (2 * (p_hat ** 2 / P + Q * st0 ** 2))
        n_floored = int(np.sum(big_b < floor - 1e-18))
        b_eff = np.maximum(big_b, floor)
        aq = Q + (Q ** 2 * P / p_hat ** 2) * st0 ** 2
        bq = -2 * (a_w * Q * P / p_hat ** 2) * st0
        cq = (a_w ** 2 * P / p_hat ** 2) - 2 * b_eff
        disc = np.maximum(bq ** 2 - 4 * aq * cq, 0.0)
        hp = (-bq + np.sqrt(disc)) / (2 * aq)
        hm = (-bq - np.sqrt(disc)) / (2 * aq)
        h_new = np.where(np.abs(hp - h_sel) <= np.abs(hm - h_sel), hp, hm)
        g_new = (a_w - Q * st0 * h_new) / p_hat
        b_new = 0.5 * (P * g_new ** 2 + Q * h_new ** 2)
        step = float(np.max(np.abs(b_new - big_b)) / (np.max(np.abs(big_b)) + 1e-30))
        big_b, h_sel = b_new, h_new
        if step < 1e-4:
            break
    g_sel = (a_w - Q * st0 * h_sel) / p_hat

    return FitState(
        t=t, period=float(2 * np.pi / ws_final[0]),
        lines=tuple(2 * np.pi / w for w in ws_final),
        phi_hat=phi_hat, theta_hat=theta_hat, phi_mean=phi_mean,
        phi_M=low.phi_mean - phi0, steady_rate=low.steady_rate,
        bsq_est=bsq, hsq_est=hsq, P=P, Q=Q, P_hat=p_hat, denom=denom,
        residual_rms=res_rms, converged=converged, n_floored=n_floored,
        quad_phi_hat=g_sel * math.cos(phi0),
        quad_theta_hat=h_sel * math.cos(theta0),
        phi=phi, theta=th, phi_dot=phid, theta_dot=thd,
        phi_ddot=phidd, theta_ddot=thdd, flags=tuple(flags))


def _interp_invalid(t: np.ndarray, y: np.ndarray, valid: np.ndarray) -> np.ndarray:
    out = np.array(y, dtype=float)
    bad = ~valid
    if bad.any():
        out[bad] = np.interp(t[bad], t[valid], y[valid])
    return out


def _assemble_track(t: np.ndarray, phi, theta, phid, thd, phidd, thdd) -> AngleTrack:
    dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
    phi = np.clip(phi, -ANGLE_LIMIT, ANGLE_LIMIT)
    theta = np.clip(theta, -ANGLE_LIMIT, ANGLE_LIMIT)
    samples = tuple(
        AngleSample(t=float(t[k]), phi=float(phi[k]), theta=float(theta[k]),
                    phi_dot=float(phid[k]), theta_dot=float(thd[k]),
                    phi_ddot=float(phidd[k]), theta_ddot=float(thdd[k]))
        for k in range(len(t)))
    return AngleTrack(samples, dt=dt)


def estimate_angles(mom: np.recarray, phi0: float, theta0: float,
                    *, period: float | None = None,
                    grid_points: int = 9,
                    grid_halfwidth: float = 0.2) -> tuple[AngleTrack, FitState]:
    """Full angle history from a moments_series table.

    Invalid frames are bridged by interpolation so the spectral machinery
    sees a uniform series. The wave period seeds from the strongest cov_rf
    line and is refined on a grid_points-wide grid spanning
    +-grid_halfwidth; each candidate runs the whole chain and the smallest
    joint residual wins. With no spectral line (calm water or short dwell)
    the slow aspect solution is returned alone, tilt pinned at theta0, and
    the state is flagged 'no wave solution'.
    """
    t, valid = mom.t, mom.valid
    if valid.sum() < 8:
        raise ValueError("too few valid frames for angle estimation")
    cov_rf = _interp_invalid(t, mom.cov_rf, valid)
    cov_ff = _interp_invalid(t, mom.cov_ff, valid)
    d_data = _interp_invalid(t, mom.d_intrinsic, valid)
    span = t[-1] - t[0]

    if period is None:
        try:
            seed, _ = dominant_wave_period(t, cov_rf, cov_ff)
        except ValueError:
            seed = None
    else:
        seed = period

    if seed is None or span < 3 * seed:
        # slow-only fallback: no resolvable wave line
        low_series = chapeau_smooth(t, -cov_rf, span / 5.0)
        low = lowpass_aspect_solve(t, low_series, phi0, 1.0)
        zero = np.zeros_like(t)
        track = _assemble_track(t, low.phi_mean, np.full_like(t, theta0),
                                low.rate, zero, low.accel, zero)
        state = FitState(
            t=t, period=0.0, lines=(), phi_hat=zero, theta_hat=zero,
            phi_mean=low.phi_mean, phi_M=low.phi_mean - phi0,
            steady_rate=low.steady_rate, bsq_est=0.0, hsq_est=0.0,
            P=1.0, Q=1.0, P_hat=np.tan(low.phi_mean) * math.cos(phi0),
            denom=1.0, residual_rms=float(np.std(cov_rf + low_series)),
            converged=False, n_floored=0, quad_phi_hat=zero,
            quad_theta_hat=zero, phi=low.phi_mean,
            theta=np.full_like(t, theta0), phi_dot=low.rate, theta_dot=zero,
            phi_ddot=low.accel, theta_ddot=zero,
            flags=low.flags + ("no wave solution",))
        return track, state

    grid = seed * np.linspace(1 - grid_halfwidth, 1 + grid_halfwidth, grid_points)
    best: FitState | None = None
    for per in grid:
        if span < 3 * per:
            continue
        split_rf = chapeau_band_split(t, cov_rf, per)
        split_d = chapeau_band_split(t, d_data, per)
        low = lowpass_aspect_solve(t, -split_rf.low, phi0, 1.0)
        # the baseline keeps the high band so the fit sees the raw series;
        # only the wave band drives the line seeds and the diagnostics
        state = waveband_joint_fit(split_rf.wave, split_d.wave, phi0, theta0,
                                   low, t=t, period=float(per),
                                   cov_rf_low=split_rf.low + split_rf.high,
                                   d_low=split_d.low + split_d.high)
        if best is None or state.residual_rms < best.residual_rms:
            best = state
    if best is None:
        raise ValueError("no candidate period fits inside the dwell")
    track = _assemble_track(best.t, best.phi, best.theta, best.phi_dot,
                            best.theta_dot, best.phi_ddot, best.theta_ddot)
    return track, best
