"""Aspect/tilt angle history from scaled covariance series.

The estimation chain per candidate wave period:

1. split cov_rf into low/wave/high bands (see bands);
2. integrate the low band and solve a per-frame quadratic for the slow
   aspect excursion about the mean aspect (lowpass_aspect_solve);
3. jointly fit the raw cov_rf and d series, seeded from the integrated wave
   band, with a spectral-line motion model: one or two sinusoid lines shared
   between aspect and tilt, a cubic slow-aspect correction, and the ship
   shape ratios bsq = <y^2>/<x^2>, hsq = <z^2>/<x^2> as bounded parameters.

estimate_angles hands the raw series and GRID_POINTS (3) periods, 0.8, 1.0
and 1.2 times the spectral seed, to waveband_joint_fit, which runs steps 1-2
for each, then step 3 once for the whole grid, and keeps the candidate with
the smallest joint residual. The series are expected free of the report
noise floor (see moments), which the fit would read as ship height. The
joint fit is minimized by least_squares, a bounded Levenberg-Marquardt
solver with a soft_l1 loss kept in this module, so the package needs NumPy
alone. It runs a batch of starts in lockstep, so each
fit stage covers every candidate in one call, and takes the analytic
Jacobian of the joint residual (_cov_partials).

The joint fit's parameters are [poly(3) | bsq, hsq | a, b, c, e, w per line]:
line k's aspect (a, b) and tilt (c, e) coefficients and angular frequency w
are the block x[HEAD + 5k:HEAD + 5k + 5], so a one-line fit is the head of
any two-line start grown from it.

Angle conventions: aspect phi rotates the alongship axis in the slant plane,
tilt theta is the grazing rotation. Mean angles phi0/theta0 are externally
known; only excursions and rates are estimated. All angles radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import chapeau_band_split, chapeau_smooth, dominant_wave_period
from .motion import range_rate_rows, track_rows
from .ship import AngleTrack, angle_array

MIN_ASPECT_DEG = 3.0    # below this mean aspect the slow solve is blind
NPOLY = 3               # slow-correction polynomial degrees 1..3
HEAD = NPOLY + 2        # the polynomial and bsq, hsq precede the lines
ANGLE_LIMIT = math.pi / 2 - 1e-6
LM_TOL = 1e-6           # relative cost drop and scaled step that end the fit
GRID_POINTS = 3         # candidate periods of the joint fit ...
GRID_HALFWIDTH = 0.2    # ... spanning +-20% of the spectral seed
PURSUIT_SNR = 3.0       # a second line's peak over the median amplitude


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
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FitState:
    """What the fit of the winning candidate period knows beyond its track.

    period is its first line's period and lines every line's (s);
    phi_hat/theta_hat are the wave-band excursions, phi_mean the slow
    aspect and steady_rate the mean of its rate; bsq_est/hsq_est are the
    fitted shape ratios. The angle track itself is the AngleTrack returned
    beside it.
    """

    period: float
    lines: tuple[float, ...]
    phi_hat: np.ndarray
    theta_hat: np.ndarray
    phi_mean: np.ndarray
    steady_rate: float
    bsq_est: float
    hsq_est: float
    residual_rms: float
    converged: bool
    flags: tuple[str, ...] = ()


def _form(p, q, bsq, hsq):
    # second moment of motion rows p, q, each an (x0, y0, z0) triple: with
    # zero drydock cross-moments and moments (1, bsq, hsq) <x^2>, a diagonal
    # quadratic form summed x0, y0, z0 in that order; bsq, hsq broadcast
    return p[0] * q[0] + p[1] * bsq * q[1] + p[2] * hsq * q[2]


def _covs_of(rows, bsq, hsq):
    """Scaled model covariances from motion rows.

    rows holds the range and rate rows, optionally the acceleration row,
    each an (x0, y0, z0) triple of arrays (as range_rate_rows returns
    them); their second moments are _form's. Returns (cov_rf, cov_ff, d),
    then (cov_ra, cov_fa) when the acceleration row is present.
    """
    r, v = rows[0], rows[1]
    rr = _form(r, r, bsq, hsq)
    cov_rf = _form(r, v, bsq, hsq) / rr
    cov_ff = _form(v, v, bsq, hsq) / rr
    out = (cov_rf, cov_ff, cov_ff - cov_rf ** 2)
    if len(rows) > 2:
        out += (_form(r, rows[2], bsq, hsq) / rr,
                _form(v, rows[2], bsq, hsq) / rr)
    return out


def model_covariances(track: AngleTrack, bsq: float, hsq: float) -> ModelCovariances:
    """Exact scaled covariances of a rigid ship with shape ratios (bsq, hsq).

    For any ship whose drydock cross-moments vanish these match the frame
    moments of a perfect simulation to machine precision.
    """
    if bsq < 0 or hsq < 0:
        raise ValueError("shape ratios must be non-negative")
    cov_rf, cov_ff, d, cov_ra, cov_fa = _covs_of(
        np.moveaxis(track_rows(track), (-2, -1), (0, 1)), bsq, hsq)
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
    flags = ("lowpass discriminant clamped",) if np.any(disc < 0) else ()
    disc = np.maximum(disc, 0.0)
    r1 = (-b + np.sqrt(disc)) / (2 * a)
    r2 = (-b - np.sqrt(disc)) / (2 * a)
    phi_m = np.where(np.abs(r1) <= np.abs(r2), r1, r2)
    phi_m = phi_m - phi_m.mean()
    phi_mean = phi0 + phi_m
    rate = np.gradient(phi_mean, t)
    accel = np.gradient(rate, t)
    return LowpassAspect(phi_mean=phi_mean, rate=rate, accel=accel,
                         flags=flags)


def _pursuit_line(t: np.ndarray, resid: np.ndarray, w1: float) -> float | None:
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
    if amp[i] < PURSUIT_SNR * floor:
        return None
    return float(2 * np.pi * fgrid[i])


@dataclass(frozen=True)
class LsqResult:
    """Outcome of least_squares for a batch of B starts.

    x is (B, npar); cost and status are (B,): the soft_l1 cost at x, and
    status 0 when the start's max_nfev budget ran out, 2 when an accepted
    step lowered its cost by less than LM_TOL of it, 3 when its scaled step
    fell below LM_TOL, 4 when a stop_held variable was held on its bound.
    nfev and njev count the residual and Jacobian evaluations of all starts
    together.
    """

    x: np.ndarray
    cost: np.ndarray
    nfev: int
    njev: int
    status: np.ndarray


def _soft_l1(f: np.ndarray) -> np.ndarray:
    return np.sum(np.sqrt(1.0 + f * f) - 1.0, axis=-1)


def _normal_equations(j: np.ndarray, f: np.ndarray, xsc: np.ndarray):
    # (Jr^T fr, Jr^T Jr) of the soft_l1-reweighted problem in the scaled
    # variables; j, the (k, m, npar) Jacobian, is scaled in place
    s = 1.0 + f * f
    j *= xsc[:, None, :]
    j *= (s ** -0.75)[..., None]
    jt = np.swapaxes(j, 1, 2)
    return (jt @ (f * s ** 0.25)[..., None])[..., 0], jt @ j


def least_squares(fun, x0: np.ndarray, jac, bounds: tuple[np.ndarray, np.ndarray],
                  x_scale: np.ndarray, max_nfev: int, args: tuple = (),
                  stop_held=False) -> LsqResult:
    """Bounded Levenberg-Marquardt fits under a soft_l1 loss, one per start,
    run in lockstep.

    Each start minimizes sum(sqrt(1 + f^2) - 1), the soft_l1 cost with
    f_scale 1, over lb <= x <= ub in the scaled variables z = x / x_scale.
    Each iteration reweights the Jacobian rows by sqrt(rho' + 2 rho'' f^2) =
    (1 + f^2)^-3/4 and the residuals by rho' / that = (1 + f^2)^1/4, which
    turns the robust cost into an equivalent least-squares problem, and
    solves (A + mu I) dz = -Jr^T fr with A = Jr^T Jr. The damping mu starts
    at 1e-3 times the largest diagonal entry of A and follows Nielsen's
    rule: after a step that lowers the cost it scales by
    max(1/3, 1 - (2 rho - 1)^3), where rho is the actual over the predicted
    reduction -(g.dz + dz.A.dz / 2); after a rejected step it grows by a
    factor that doubles with every rejection in a row. A variable that sits
    on a bound with its gradient entry pointing out of the box (x <= lb and
    g > 0, or x >= ub and g < 0) is held: its row and column of A become an
    identity row and its entry of g is 0, so its step is exactly 0 and the
    free variables solve the reduced system. Each trial point is clipped
    into the bounds, and the prediction is made for the clipped step. A
    start with no held variable solves the full system. stop_held, an
    (npar,) boolean mask, names the variables whose hold ends a start
    instead: it stops with status 4 where one of them is first held.

    x0 is (B, npar), and bounds and x_scale broadcast against it, so every
    start may have its own. Each start keeps its own damping, budget of
    max_nfev residual evaluations and stop status, and leaves the batch
    when it stops. No arithmetic mixes two starts, so each ends bit for bit
    where it would alone. A round makes one fun(x, rows, *args) call for the
    starts that need a trial point and one jac(x, rows, *args) call for the
    starts whose last step was accepted: rows are their indices in the
    batch and x their (k, npar) points; the calls return (k, m) residuals
    and a new (k, m, npar) Jacobian array, which the solver scales in
    place.
    """
    x0 = np.asarray(x0, dtype=float)
    stop_held = np.asarray(stop_held, dtype=bool)
    lb, ub = (np.broadcast_to(np.asarray(b, dtype=float), x0.shape) for b in bounds)
    xsc = np.broadcast_to(np.asarray(x_scale, dtype=float), x0.shape)
    nb, npar = x0.shape
    x = np.clip(x0, lb, ub)
    f = fun(x, np.arange(nb), *args)
    cost = _soft_l1(f)
    nfev = np.ones(nb, dtype=int)
    njev = 0
    status = np.zeros(nb, dtype=int)
    live = np.ones(nb, dtype=bool)    # still iterating
    stale = np.ones(nb, dtype=bool)   # Jacobian not yet taken at x
    mu = np.full(nb, np.nan)
    nu = np.full(nb, 2.0)
    g = np.empty((nb, npar))
    a = np.empty((nb, npar, npar))
    eye = np.eye(npar)
    while True:
        live &= nfev < max_nfev
        rows = np.flatnonzero(live & stale)
        if rows.size:
            g[rows], a[rows] = _normal_equations(
                jac(x[rows], rows, *args), f[rows], xsc[rows])
            njev += rows.size
            first = rows[np.isnan(mu[rows])]
            mu[first] = 1e-3 * a[first].diagonal(axis1=1, axis2=2).max(axis=-1)
            stale[rows] = False
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        xr, gr = x[rows], g[rows]
        # held: on a bound, with the gradient pointing out of the box
        held = ((xr <= lb[rows]) & (gr > 0)) | ((xr >= ub[rows]) & (gr < 0))
        ends = (held & stop_held).any(axis=-1)
        status[rows[ends]] = 4
        live[rows[ends]] = False
        rows, xr, gr, held = rows[~ends], xr[~ends], gr[~ends], held[~ends]
        if not rows.size:
            continue
        sc = xsc[rows]
        free = ~held
        m = a[rows] + mu[rows, None, None] * eye
        m = np.where(free[:, :, None] & free[:, None, :], m, eye)
        gr = np.where(held, 0.0, gr)
        dz = np.linalg.solve(m, -gr[..., None])[..., 0]
        x_new = np.clip(xr + dz * sc, lb[rows], ub[rows])
        dz = (x_new - xr) / sc
        small = (np.linalg.norm(dz, axis=-1)
                 < LM_TOL * (LM_TOL + np.linalg.norm(xr / sc, axis=-1)))
        status[rows[small]] = 3
        live[rows[small]] = False
        rows, x_new, dz = rows[~small], x_new[~small], dz[~small]
        if not rows.size:
            continue
        f_new = fun(x_new, rows, *args)
        nfev[rows] += 1
        cost_new = _soft_l1(f_new)
        ad = (a[rows] @ dz[..., None])[..., 0]
        predicted = -(np.sum(g[rows] * dz, axis=-1)
                      + 0.5 * np.sum(dz * ad, axis=-1))
        drop = cost[rows] - cost_new
        rho = np.divide(drop, predicted, out=np.full_like(drop, -1.0),
                        where=predicted > 0)
        ok = rho > 0
        up, rho = rows[ok], rho[ok]
        stalled = drop[ok] < LM_TOL * cost[up]
        x[up], f[up], cost[up] = x_new[ok], f_new[ok], cost_new[ok]
        stale[up] = True
        mu[up] *= np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3)
        nu[up] = 2.0
        status[up[stalled]] = 2
        live[up[stalled]] = False
        down = rows[~ok]
        mu[down] *= nu[down]
        nu[down] *= 2
    return LsqResult(x=x, cost=cost, nfev=int(nfev.sum()), njev=njev,
                     status=status)


def _cov_partials(phi, theta, phi_dot, theta_dot, bsq, hsq):
    """Partial derivatives of the model (cov_rf, d) of _covs_of.

    Yields six (d cov_rf, d d) pairs, in (phi, theta, phi_dot, theta_dot,
    bsq, hsq) order, shaped like the broadcast inputs. The chain rule runs
    through F_ij = _form(row_i, row_j) of the range row r and the rate row
    v: cov_rf = F01 / F00 and d = F11 / F00 - cov_rf^2. Aspect turns the
    (x0, y0) entries of both rows, d/dphi (p, q) = (q, -p); the rate row's
    phi_dot and theta_dot partials are the range row's phi and theta ones.
    """
    r, v = range_rate_rows(phi, theta, phi_dot, theta_dot)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    r_th = (-st * cp, st * sp, -ct)
    v_th = (-ct * cp * theta_dot + st * sp * phi_dot,
            ct * sp * theta_dot + st * cp * phi_dot,
            st * theta_dot)
    p_along = 1.0 - bsq   # aspect partials weigh the x0, y0 terms 1 and -bsq
    rr01 = r[0] * r[1]
    f00 = _form(r, r, bsq, hsq)
    cov_rf = _form(r, v, bsq, hsq) / f00
    cov_ff = _form(v, v, bsq, hsq) / f00

    def pair(d00, d01, d11):
        # partials of (cov_rf, d) from those of (F00, F01, F11)
        d_rf = (d01 - cov_rf * d00) / f00
        return d_rf, (d11 - cov_ff * d00) / f00 - 2 * cov_rf * d_rf

    yield pair(2 * p_along * rr01, p_along * (r[1] * v[0] + r[0] * v[1]),
               2 * p_along * v[0] * v[1])
    yield pair(2 * _form(r, r_th, bsq, hsq),
               _form(r_th, v, bsq, hsq) + _form(r, v_th, bsq, hsq),
               2 * _form(v, v_th, bsq, hsq))
    yield pair(0.0, p_along * rr01, 2 * (v[0] * r[1] - bsq * v[1] * r[0]))
    yield pair(0.0, _form(r, r_th, bsq, hsq), 2 * _form(v, r_th, bsq, hsq))
    yield pair(r[1] ** 2, r[1] * v[1], v[1] ** 2)
    yield pair(r[2] ** 2, r[2] * v[2], v[2] ** 2)


def waveband_joint_fit(t: np.ndarray, cov_rf: np.ndarray, d: np.ndarray, periods,
                       phi0: float, theta0: float) -> tuple[AngleTrack, FitState]:
    """Joint fit of the raw (cov_rf, d) series over a grid of candidate periods.

    Every candidate scores the same cov_rf and d. A period that does not fit
    three times inside the dwell is skipped (ValueError when none is left);
    each other one splits cov_rf once, for the slow aspect solution of the low
    band (lowpass_aspect_solve) and the seeds of the wave band. Stage 1 fits a
    single sinusoid line near the candidate frequency shared by aspect and
    tilt (two assignment seeds). Stage 2 hunts the residual of the better
    stage-1 fit for a second line by matching pursuit and adds it, with both
    assignment seeds, to each of the two stage-1 fits; the richer model is
    kept only if it lowers the cost. In the module's parameter layout a
    stage-2 start is a whole stage-1 fit with the second line's block
    appended. Line frequencies are free parameters
    bounded to a 0.75/span band around their starts (the spectral search has
    only Rayleigh resolution; the fit needs the frequency to much better than
    one part in the cycle count, so it must converge the last fraction
    itself). bsq is bounded to [0, 0.9] (P = 1 - bsq stays positive) and hsq
    to [0, 2]. Half a period is trimmed at each end before scoring, where the
    band split has edge support. Of a candidate's starts the lower cost wins,
    the first on ties; of the candidates the smallest residual_rms wins, the
    first on ties.

    Each stage is one least_squares call (bounded Levenberg-Marquardt, soft_l1
    loss, at most 400 residual calls a start, a parameter held out of the step
    while it sits on a bound the cost pushes against) over the starts of every
    candidate: stage 1 over both seeds of all candidates, stage 2 over the
    four starts of each candidate where the pursuit found a second line. A
    start stops once a line frequency is held on the edge of its band: the
    line has left the band of its candidate, which a neighbouring candidate
    covers. A winner whose start ran out of calls or stopped on a band edge is
    flagged 'wave fit did not converge'. Residuals keep all 2n samples
    (cov_rf, then d) for every candidate: samples outside a candidate's
    trimmed window weigh 0, so its residual and Jacobian rows there are
    exactly 0. The Jacobian is analytic: _cov_partials gives the partials of
    (cov_rf, d) in the track (phi, theta, phi_dot, theta_dot) and in bsq, hsq,
    and each track partial is multiplied by its parameter's basis column (u,
    u^2 less its mean, u^3, cos wt, sin wt, and the t-weighted terms of a
    line frequency w).

    The track and the line series are built for the winner only; returns
    (track, state).
    """
    t = np.asarray(t, dtype=float)
    data = np.array([cov_rf, d], dtype=float)
    n = len(t)
    span = t[-1] - t[0]
    periods = [float(per) for per in periods if span >= 3 * per]
    if not periods:
        raise ValueError("no candidate period fits inside the dwell")
    splits = [chapeau_band_split(t, data[0], per) for per in periods]
    lows = [lowpass_aspect_solve(t, -s.low, phi0, 1.0) for s in splits]
    ncand = len(periods)
    dt = float(np.median(np.diff(t)))
    u = t - t.mean()
    u2, u3 = u ** 2, u ** 3
    # the quadratic slow term is taken about its mean, so that it leaves
    # the mean aspect, which phi0 fixes, where it is
    u2c = u2 - u2.mean()
    w_band = 2 * np.pi * 0.75 / span
    tp0, tt0 = math.tan(phi0), math.tan(theta0)

    # per candidate: window weights 1/std inside the trimmed window and 0
    # outside, and the slow aspect solution
    weight = np.zeros((ncand,) + data.shape)
    trims = []
    for g, per in enumerate(periods):
        trim = max(0, min(int(round(0.5 * per / dt)), (n - 8) // 2))
        sl = slice(trim, n - trim)
        weight[g, 0, sl] = 1.0 / max(float(np.std(data[0, sl])), 1e-12)
        weight[g, 1, sl] = 1.0 / max(float(np.std(data[1, sl])), 1e-14)
        trims.append(trim)
    phi_means = np.array([low.phi_mean for low in lows])
    rates = np.array([low.rate for low in lows])

    # x is (k, npar) for k starts of candidates c, or (npar,) for one start
    # of candidate c, laid out as the module docstring says; every
    # parameter enters as x[..., j, None]
    def lines_of(x, nl):
        # each line's (a, b, c, e, w) on the last axis
        return x[..., HEAD:].reshape(x.shape[:-1] + (nl, 5))

    def track_of(x, c, nl, accel=False):
        # ((phi, theta, phi_dot, theta_dot[, phi_ddot, theta_ddot]),
        #  [(w, cos wt, sin wt) per line])
        def p(j):
            return x[..., j, None]
        phi = phi_means[c] + p(0) * u + p(1) * u2c + p(2) * u3
        phid = rates[c] + p(0) + 2 * p(1) * u + 3 * p(2) * u2
        th = np.full_like(t, theta0)
        thd = np.zeros_like(t)
        if accel:
            phidd = lows[c].accel + 2 * p(1) + 6 * p(2) * u
            thdd = np.zeros_like(t)
        trig = []
        lines = lines_of(x, nl)
        for k in range(nl):
            a, b, cc, e, w = (lines[..., k, j, None] for j in range(5))
            cw, sw = np.cos(w * t), np.sin(w * t)
            phi = phi + a * cw + b * sw
            phid = phid + w * (-a * sw + b * cw)
            th = th + cc * cw + e * sw
            thd = thd + w * (-cc * sw + e * cw)
            if accel:
                phidd = phidd - w * w * (a * cw + b * sw)
                thdd = thdd - w * w * (cc * cw + e * sw)
            trig.append((w, cw, sw))
        if accel:
            return (phi, th, phid, thd, phidd, thdd), trig
        return (phi, th, phid, thd), trig

    def model_series(x, c, nl):
        # model (cov_rf, d) stacked on axis -2; they need only the range and
        # rate rows
        mrf, _, md = _covs_of(range_rate_rows(*track_of(x, c, nl)[0]),
                              x[..., NPOLY, None], x[..., NPOLY + 1, None])
        return np.stack([mrf, md], axis=-2)

    def resid(x, rows, cand, nl):
        c = cand[rows]
        f = (data - model_series(x, c, nl)) * weight[c]
        return f.reshape(len(rows), -1)

    def jac(x, rows, cand, nl):
        c = cand[rows]
        track, trig = track_of(x, c, nl)
        # partials of the residual in each track quantity and in bsq, hsq
        g_phi, g_th, g_phid, g_thd, g_bsq, g_hsq = (
            np.stack(pair, axis=-2) * -weight[c]
            for pair in _cov_partials(*track, x[:, NPOLY, None],
                                      x[:, NPOLY + 1, None]))
        jm = np.empty(g_phi.shape + (HEAD + 5 * nl,))
        jm[..., 0] = g_phi * u + g_phid
        jm[..., 1] = g_phi * u2c + g_phid * (2 * u)
        jm[..., 2] = g_phi * u3 + g_phid * (3 * u2)
        jm[..., NPOLY], jm[..., NPOLY + 1] = g_bsq, g_hsq
        lines = lines_of(x, nl)
        for k, (w, cw, sw) in enumerate(trig):
            w, cw, sw = w[:, None], cw[:, None], sw[:, None]
            wcw, wsw = w * cw, w * sw
            a, b, cc, e = (lines[:, k, j, None, None] for j in range(4))
            col = HEAD + 5 * k
            jm[..., col] = g_phi * cw - g_phid * wsw
            jm[..., col + 1] = g_phi * sw + g_phid * wcw
            jm[..., col + 2] = g_th * cw - g_thd * wsw
            jm[..., col + 3] = g_th * sw + g_thd * wcw
            # a line l = a cos wt + b sin wt adds l to its angle and w l_w to
            # the rate, l_w = -a sin wt + b cos wt; their w partials are
            # t l_w and l_w - w t l
            lw_a, lw_t = b * cw - a * sw, e * cw - cc * sw
            wt = w * t
            jm[..., col + 4] = (
                g_phi * (t * lw_a) + g_th * (t * lw_t)
                + g_phid * (lw_a - wt * (a * cw + b * sw))
                + g_thd * (lw_t - wt * (cc * cw + e * sw)))
        return jm.reshape(len(rows), 2 * n, -1)

    def solve(x0, cand, nl, per):
        # starts in runs of `per` per candidate, cand giving each start's;
        # returns (x, cost, status) of every start and the index of the
        # lowest-cost start of each run, the first on ties. Each line
        # frequency is bounded to a band about its own start. The soft_l1
        # loss caps the pull of short corrupted stretches (confuser targets,
        # interference bursts) without touching clean fits: normalized
        # residuals sit well under 1 on good data
        lb = np.full_like(x0, -np.inf)
        ub = np.full_like(x0, np.inf)
        lb[:, NPOLY:HEAD] = 0.0
        ub[:, NPOLY:HEAD] = 0.9, 2.0
        xsc = np.full_like(x0, 0.02)
        xsc[:, :HEAD] = 1e-3, 1e-5, 1e-6, 0.05, 0.05
        freq = slice(HEAD + 4, None, 5)   # every line's w
        w0 = x0[:, freq]
        lb[:, freq], ub[:, freq] = w0 - w_band, w0 + w_band
        xsc[:, freq] = 0.01 * w0
        held = np.zeros(x0.shape[1], dtype=bool)
        held[freq] = True
        r = least_squares(resid, x0, jac, (lb, ub), xsc, 400, args=(cand, nl),
                          stop_held=held)
        best = per * np.arange(len(cand) // per) + np.argmin(
            r.cost.reshape(-1, per), axis=1)
        return r.x, r.cost, r.status, best

    a_int = [_zero_mean_integral(t, -s.wave) for s in splits]

    def seeds(g, w, head):
        # the two assignment seeds of a new line at w appended to head, the
        # start's polynomial, shape ratios and any lines before it: the
        # first starts the line on aspect (a, b), the second on tilt (c, e)
        z = 2 * np.mean(a_int[g] * np.exp(-1j * w * t))
        return [np.r_[head, z.real / tp0, z.imag / tp0, 0.0, 0.0, w],
                np.r_[head, 0.0, 0.0, z.real / tt0, z.imag / tt0, w]]

    w1 = 2 * np.pi / np.asarray(periods, dtype=float)
    cand = np.repeat(np.arange(ncand), 2)
    head = np.r_[np.zeros(NPOLY), 0.02, 0.02]   # no slow term, ratios 0.02
    x0 = np.array([x for g in range(ncand) for x in seeds(g, w1[g], head)])
    x1, cost1, status1, best = solve(x0, cand, 1, 2)
    xs, nls = list(x1[best]), [1] * ncand
    cost, status = cost1[best], status1[best]
    resid1 = data[0] - model_series(x1[best], np.arange(ncand), 1)[:, 0]
    second = []
    for g in range(ncand):
        w2 = _pursuit_line(t, resid1[g], float(x1[best[g], HEAD + 4]))
        if w2 is not None:
            second.append((g, w2))
    if second:
        # the second line joins both one-line fits of its candidate, each
        # assignment's: the lower-cost one can hold the first line on the
        # wrong angle
        cand = np.repeat([g for g, _ in second], 4)
        x0 = np.array([x for g, w2 in second for b in (0, 1)
                       for x in seeds(g, w2, x1[2 * g + b])])
        x2, cost2, status2, best2 = solve(x0, cand, 2, 4)
        for (g, _), k in zip(second, best2):
            if cost2[k] < cost[g]:
                xs[g], nls[g], cost[g], status[g] = x2[k], 2, cost2[k], status2[k]

    rms = np.sqrt(2 * cost / (2 * np.maximum(n - 2 * np.array(trims), 1)))
    win = int(np.argmin(rms))
    x, nl, low = xs[win], nls[win], lows[win]
    track = _assemble_track(t, *track_of(x, win, nl, accel=True)[0])
    converged = bool(status[win] in (2, 3))
    flags = low.flags + (() if converged else ("wave fit did not converge",))

    # reconstruct the pure wave-band series from the line coefficients
    phi_hat = np.zeros_like(t)
    theta_hat = np.zeros_like(t)
    coef = lines_of(x, nl)
    for a, b, c, e, w in coef:
        phi_hat = phi_hat + a * np.cos(w * t) + b * np.sin(w * t)
        theta_hat = theta_hat + c * np.cos(w * t) + e * np.sin(w * t)
    phi_slow = x[0] * u + x[1] * u2c + x[2] * u3
    rate_slow = low.rate + x[0] + 2 * x[1] * u + 3 * x[2] * u2
    line_periods = tuple(float(2 * np.pi / w) for w in coef[:, 4])

    return track, FitState(
        period=line_periods[0], lines=line_periods,
        phi_hat=phi_hat, theta_hat=theta_hat,
        phi_mean=low.phi_mean + phi_slow, steady_rate=float(rate_slow.mean()),
        bsq_est=float(x[NPOLY]), hsq_est=float(x[NPOLY + 1]),
        residual_rms=float(rms[win]), converged=converged, flags=flags)


def _interp_invalid(t: np.ndarray, y: np.ndarray, valid: np.ndarray) -> np.ndarray:
    out = np.array(y, dtype=float)
    bad = ~valid
    if bad.any():
        out[bad] = np.interp(t[bad], t[valid], y[valid])
    return out


def _assemble_track(t: np.ndarray, phi, theta, phid, thd, phidd, thdd) -> AngleTrack:
    return AngleTrack(angle_array(
        t, np.clip(phi, -ANGLE_LIMIT, ANGLE_LIMIT),
        np.clip(theta, -ANGLE_LIMIT, ANGLE_LIMIT), phid, thd, phidd, thdd))


def estimate_angles(mom: np.recarray, phi0: float, theta0: float,
                    *, period: float | None = None) -> tuple[AngleTrack, FitState]:
    """Full angle history from a moments_series table.

    Invalid frames are bridged by interpolation so the spectral machinery
    sees a uniform series. The wave period seeds from the strongest cov_rf
    line (or is the given period), and waveband_joint_fit refines it over
    GRID_POINTS (3) candidate periods spanning +-GRID_HALFWIDTH (20%) of the
    seed.
    With no spectral line (calm water or short dwell) the slow aspect
    solution is returned alone, tilt pinned at theta0, and the state is
    flagged 'no wave solution'.
    """
    t, valid = mom.t, mom.valid
    if valid.sum() < 8:
        raise ValueError("too few valid frames for angle estimation")
    cov_rf = _interp_invalid(t, mom.cov_rf, valid)
    d_data = _interp_invalid(t, mom.d_intrinsic, valid)
    span = t[-1] - t[0]

    if period is None:
        try:
            seed = dominant_wave_period(t, cov_rf)
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
            period=0.0, lines=(), phi_hat=zero, theta_hat=zero,
            phi_mean=low.phi_mean, steady_rate=float(low.rate.mean()),
            bsq_est=0.0, hsq_est=0.0,
            residual_rms=float(np.std(cov_rf + low_series)),
            converged=False, flags=low.flags + ("no wave solution",))
        return track, state

    grid = seed * np.linspace(1 - GRID_HALFWIDTH, 1 + GRID_HALFWIDTH, GRID_POINTS)
    return waveband_joint_fit(t, cov_rf, d_data, grid, phi0, theta0)
