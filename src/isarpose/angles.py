"""Aspect/tilt angle history from scaled covariance series.

Aspect phi rotates the alongship axis in the slant plane, tilt theta is the
grazing rotation; both are radians about externally known means phi0 and
theta0, and only excursions and rates are estimated. One joint fit of the
raw cov_rf and d series fits the slow aspect phi0 + p0 u +
p1 (u^2 - mean u^2) + p2 u^3, u = t - mean(t), two sinusoid lines shared
between aspect and tilt, and the ship shape ratios bsq = <y^2>/<x^2>,
hsq = <z^2>/<x^2>: parameters [poly(3) | bsq, hsq | a, b, c, e, w per
line], line k's aspect (a, b) and tilt (c, e) coefficients and angular
frequency w at x[HEAD + 5k:HEAD + 5k + 5]. The cubic of the slow aspect
that lowpass_aspect_solve reads off the low band of cov_rf (see bands)
seeds the fit's, and is the answer when no wave line is found.

One model, _wave_model, turns parameter rows into the slow aspect and the
lines' sum. The fit's residual and analytic Jacobian (_residual,
_jacobian) score aspect = slow aspect + lines and tilt = theta0 + lines,
and _fit_result returns the same sums, so a run returns the track its fit
scored. waveband_joint_fit's one least_squares call (a bounded
Levenberg-Marquardt solver with a soft_l1 loss, kept here so the package
needs NumPy alone) fits its four starts in lockstep, each frame weighted by
its own moment noise (sd_rf, sd_d of the moments table). The series are
expected free of the report noise floor (see moments), which the fit would
read as ship height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import chapeau_band_split, chapeau_smooth, dominant_wave_period
from .motion import range_rate_rows, track_rows
from .ship import AngleTrack, angle_array

MIN_ASPECT_DEG = 3.0    # below this mean aspect the slow solve is blind
NPOLY = 3               # slow-aspect polynomial degrees 1..3
HEAD = NPOLY + 2        # the polynomial and bsq, hsq precede the lines
ANGLE_LIMIT = math.pi / 2 - 1e-6
LM_TOL = 1e-6           # relative cost drop and scaled step that end the fit
LOSS_SCALE = 3.0        # residuals in noise sds at which soft_l1 bends
PURSUIT_GRID = np.linspace(0.5, 3.0, 241)   # second-line search, in first-line units


@dataclass(frozen=True)
class ModelCovariances:
    """Noise-free scaled covariances implied by an angle track and shape."""

    cov_rf: np.ndarray
    cov_ff: np.ndarray
    cov_ra: np.ndarray
    cov_fa: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class FitState:
    """What the fit knows beyond its track.

    lines holds every line's period (s) and period is the first one's, 0
    with no line; phi_hat/theta_hat are the wave-band excursions, phi_mean
    the slow aspect (phi0 plus the fit's cubic) and steady_rate the mean of
    its rate; bsq_est/hsq_est are the fitted shape ratios; a wave fit's
    residual_rms is in the units of weight_source, "report noise" or
    "series spread" (waveband_joint_fit), and the slow-only answer reads
    "none". The angle track itself is the AngleTrack returned beside it.
    """

    lines: tuple[float, ...]
    phi_hat: np.ndarray
    theta_hat: np.ndarray
    phi_mean: np.ndarray
    steady_rate: float
    bsq_est: float
    hsq_est: float
    residual_rms: float
    converged: bool
    weight_source: str
    flags: tuple[str, ...] = ()

    @property
    def period(self) -> float:
        return self.lines[0] if self.lines else 0.0


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


def _cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    # running trapezoid integral of y(t), 0 at t[0]
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])


def lowpass_aspect_solve(t: np.ndarray, lhs_low: np.ndarray,
                         phi0: float) -> np.ndarray:
    """Slow aspect phi_mean(t) about the external mean phi0, from the low
    band of -cov_rf.

    The running integral of the low band equals
    tan(phi0) phi_M + phi_M^2 / (2 cos^2 phi0) for small excursions
    phi_M about phi0, anchored to zero at mid-dwell. Each frame takes the
    smaller-magnitude quadratic root; negative discriminants are clamped to
    zero. The excursion is re-centered so its mean vanishes (phi0 carries
    the absolute level); its cubic seeds the fit (_slow_cubic).
    """
    if abs(math.tan(phi0)) <= math.tan(math.radians(MIN_ASPECT_DEG)):
        raise ValueError("aspect unobservable: mean aspect too close to bow-on")
    t = np.asarray(t, dtype=float)
    i = _cumtrapz(t, np.asarray(lhs_low, dtype=float))
    i = i - np.interp(t.mean(), t, i)
    a, b = 0.5 / math.cos(phi0) ** 2, math.tan(phi0)
    disc = np.maximum(b * b + 4 * a * i, 0.0)
    r1 = (-b + np.sqrt(disc)) / (2 * a)
    r2 = (-b - np.sqrt(disc)) / (2 * a)
    phi_m = np.where(np.abs(r1) <= np.abs(r2), r1, r2)
    return phi0 + (phi_m - phi_m.mean())


def _projection(t: np.ndarray, y: np.ndarray, f: np.ndarray) -> np.ndarray:
    # amplitude of y at each frequency f (Hz) by a Hann-windowed projection:
    # a fine grid, immune to FFT bin cancellation from a line's sidelobes
    win = np.hanning(len(t))
    return np.abs(np.exp(-2j * np.pi * f[:, None] * t[None, :]) @ (y * win)) / np.sum(win)


def _pursuit_line(t: np.ndarray, y: np.ndarray, w1: float) -> float:
    """Angular frequency of the strongest sinusoid of y on the PURSUIT_GRID
    of w1, excluding a guard of 0.75/span around w1 and around 2 w1, where
    the band split's wave band carries a copy of the w1 line."""
    f1 = w1 / (2 * np.pi)
    fgrid = f1 * PURSUIT_GRID
    amp = _projection(t, y, fgrid)
    guard = 0.75 / (t[-1] - t[0])
    amp[(np.abs(fgrid - f1) < guard) | (np.abs(fgrid - 2 * f1) < guard)] = 0.0
    return float(2 * np.pi * fgrid[np.argmax(amp)])


@dataclass(frozen=True)
class LsqResult:
    """Outcome of least_squares for a batch of B starts.

    x is (B, npar) and fun (B, m), the residuals at x; cost and status are
    (B,): the soft_l1 cost at x, and status 0 when the start's max_nfev
    budget ran out, 2 when an accepted step lowered its cost by less than
    LM_TOL of it, 3 when its scaled step fell below LM_TOL, 4 when a
    stop_held variable was held on its bound. nfev and njev count the
    residual and Jacobian evaluations of all starts together.
    """

    x: np.ndarray
    cost: np.ndarray
    fun: np.ndarray
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
    return LsqResult(x=x, cost=cost, fun=f, nfev=int(nfev.sum()), njev=njev,
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


def _times(t: np.ndarray):
    # t, the slow cubic's basis u = t - mean(t), u^2 less its mean (which
    # leaves the mean aspect at phi0) and u^3, then u^2
    u = t - t.mean()
    u2 = u ** 2
    return t, u, u2 - u2.mean(), u ** 3, u2


def _slow_cubic(times, phi_mean: np.ndarray, phi0: float) -> np.ndarray:
    # the least-squares cubic (p0, p1, p2) of phi_mean - phi0
    return np.linalg.lstsq(np.stack(times[1:4], axis=-1), phi_mean - phi0,
                           rcond=None)[0]


def _wave_model(x: np.ndarray, times, phi0: float, accel: bool = False):
    """Slow aspect, lines' sum and trig of parameter rows x, (..., npar).

    times is _times(t). Returns the slow aspect phi0 + p0 u +
    p1 (u^2 - mean u^2) + p2 u^3 as (angle, rate), the lines' sum,
    (2, 2, ..., n), as (aspect, tilt) x (angle, rate), and each line's
    (w, cos wt, sin wt). With accel, the slow aspect and each line sum
    also carry their acceleration, last; the fit scores no acceleration.
    """
    t, u, u2c, u3, u2 = times
    p0, p1, p2 = (x[..., j, None] for j in range(NPOLY))
    slow = (phi0 + (p0 * u + p1 * u2c + p2 * u3),
            p0 + 2 * p1 * u + 3 * p2 * u2)
    if accel:
        slow += (2 * p1 + 6 * p2 * u,)
    wave = np.zeros((2, len(slow)) + slow[0].shape)
    lines = x[..., HEAD:].reshape(x.shape[:-1] + (-1, 5))
    trig = []
    for k in range(lines.shape[-2]):
        a, b, c, e, w = (lines[..., k, j, None] for j in range(5))
        wt = w * t
        cw, sw = np.cos(wt), np.sin(wt)
        for angle, (p, q) in zip(wave, ((a, b), (c, e))):
            line = p * cw + q * sw
            angle[0] += line
            angle[1] += w * (q * cw - p * sw)
            if accel:
                angle[2] -= w * w * line
        trig.append((w, cw, sw))
    return slow, wave, trig


def _scored(x, times, phi0, theta0):
    # the (phi, theta, phi_dot, theta_dot) the fit scores at rows x; each line's trig
    (phi, phi_dot), wave, trig = _wave_model(x, times, phi0)
    return (phi + wave[0, 0], theta0 + wave[1, 0], phi_dot + wave[0, 1],
            wave[1, 1]), trig


def _residual(x, rows, times, data, weight, phi0, theta0):
    """(data - model) x weight, (k, 2n), at x, (k, npar), with data and
    weight (2, n); a weight-0 sample has rows of 0s here and in _jacobian."""
    track, _ = _scored(x, times, phi0, theta0)
    mrf, _, md = _covs_of(range_rate_rows(*track), x[:, NPOLY, None],
                          x[:, NPOLY + 1, None])
    return ((data - np.stack([mrf, md], axis=-2)) * weight).reshape(len(x), -1)


def _jacobian(x, rows, times, data, weight, phi0, theta0):
    """_residual's analytic Jacobian, (k, 2n, npar): _cov_partials' partials
    of (cov_rf, d) in the track (phi, theta, phi_dot, theta_dot) and in bsq,
    hsq, each track partial times its parameter's basis column (u, u^2 less
    its mean, u^3, cos wt, sin wt, and a line frequency's t-weighted terms).
    """
    track, trig = _scored(x, times, phi0, theta0)
    g_phi, g_th, g_phid, g_thd, g_bsq, g_hsq = (
        np.stack(pair, axis=-2) * -weight
        for pair in _cov_partials(*track, x[:, NPOLY, None], x[:, NPOLY + 1, None]))
    t, u, u2c, u3, u2 = times
    jm = np.empty(g_phi.shape + x.shape[-1:])
    jm[..., 0] = g_phi * u + g_phid
    jm[..., 1] = g_phi * u2c + g_phid * (2 * u)
    jm[..., 2] = g_phi * u3 + g_phid * (3 * u2)
    jm[..., NPOLY], jm[..., NPOLY + 1] = g_bsq, g_hsq
    for k, (w, cw, sw) in enumerate(trig):
        col = HEAD + 5 * k
        w, cw, sw = w[:, None], cw[:, None], sw[:, None]
        wcw, wsw = w * cw, w * sw
        a, b, cc, e = (x[:, col + j, None, None] for j in range(4))
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
    return jm.reshape(len(x), 2 * len(t), -1)


def _wave_problem(t: np.ndarray, data: np.ndarray, weight: np.ndarray,
                  period: float, phi0: float, theta0: float):
    """The joint fit of waveband_joint_fit as least_squares takes it.

    Returns (x0, bounds, x_scale, args): the four starts, their bounds and
    scales, and args = (times, data, weight, phi0, theta0), the arguments
    of _residual and _jacobian.
    """
    span = t[-1] - t[0]
    times = _times(t)
    s = chapeau_band_split(t, data[0], period)
    tp0, tt0 = math.tan(phi0), math.tan(theta0)
    head = np.r_[_slow_cubic(times, lowpass_aspect_solve(t, -s.low, phi0),
                             phi0), 0.02, 0.02]   # ratios 0.02
    step = (PURSUIT_GRID[1] - PURSUIT_GRID[0]) / period
    k = int(0.75 / span / step)
    f = 1 / period + step * np.arange(-k, k + 1)
    w1 = 2 * np.pi * f[np.argmax(_projection(t, s.wave, f))]
    basis = np.array([np.cos(w1 * t), np.sin(w1 * t)]).T
    rest = s.wave - basis @ np.linalg.lstsq(basis, s.wave, rcond=None)[0]
    w2 = _pursuit_line(t, rest, w1)
    a_int = _cumtrapz(t, -s.wave)
    a_int -= a_int.mean()
    # each line seeded on aspect (a, b) and on tilt (c, e); the four starts
    # are {first on aspect, on tilt} x {second on aspect, on tilt}
    on = [[np.r_[z.real / tp0, z.imag / tp0, 0.0, 0.0, w],
           np.r_[0.0, 0.0, z.real / tt0, z.imag / tt0, w]]
          for w in (w1, w2) for z in [2 * np.mean(a_int * np.exp(-1j * w * t))]]
    x0 = np.array([np.r_[head, p, q] for p in on[0] for q in on[1]])
    lb, ub = np.full_like(x0, -np.inf), np.full_like(x0, np.inf)
    lb[:, NPOLY:HEAD], ub[:, NPOLY:HEAD] = 0.0, (0.9, 2.0)
    xsc = np.full_like(x0, 0.02)
    xsc[:, :HEAD] = 1e-3, 1e-5, 1e-6, 0.05, 0.05
    freq = slice(HEAD + 4, None, 5)   # every line's w
    w0 = x0[:, freq]
    mid = w0.mean(axis=1, keepdims=True)   # overlapping bands meet here
    w_band = 2 * np.pi * 0.75 / span
    lb[:, freq] = np.where(w0 > mid, np.maximum(w0 - w_band, mid), w0 - w_band)
    ub[:, freq] = np.where(w0 < mid, np.minimum(w0 + w_band, mid), w0 + w_band)
    xsc[:, freq] = 0.01 * w0
    return x0, (lb, ub), xsc, (times, data, weight, phi0, theta0)


def waveband_joint_fit(t: np.ndarray, cov_rf: np.ndarray, d: np.ndarray,
                       period: float, phi0: float, theta0: float,
                       sd: np.ndarray | None = None) -> tuple[AngleTrack, FitState]:
    """Joint fit of the raw (cov_rf, d) series about one wave period.

    sd, (2, n), is each sample's noise sd, inf where it carries none (an
    invalid frame). A sample weighs 1/(LOSS_SCALE sd), and residual_rms is
    the RMS of (data - model)/sd over the weighted samples: about 1 when
    the model explains the data. With sd None each series weighs 1/its std
    over the window trimmed half a period at each end, 0 outside it, and
    residual_rms is in those units. A period that does not fit three times
    in the dwell raises ValueError.

    cov_rf is split once, for the starts' slow cubic (of lowpass_aspect_solve
    of the low band) and the line seeds of the wave band. The first line
    starts at the strongest peak of a Hann-windowed projection of the wave band within
    0.75/span of 1/period; the second at the strongest peak that matching
    pursuit (_pursuit_line) finds in the wave band less its sinusoid at the
    first line's frequency. Each line is seeded on aspect and on tilt: four
    starts, {first line on aspect, on tilt} x {second on aspect, on tilt}.
    A line frequency is bounded to 0.75/span about its start, which the fit
    refines past the spectral search's Rayleigh resolution; where two bands
    overlap each stops at the midpoint of the starts, so the lines cannot
    drift into a beating pair. bsq is bounded to [0, 0.9] (P = 1 - bsq stays
    positive) and hsq to [0, 2].

    One least_squares call (_wave_problem builds it) fits the four starts:
    at most 400 residual calls a start, a parameter held out of the step
    while it sits on a bound the cost pushes against, and a soft_l1 loss
    that caps the pull of corrupted stretches (confuser targets,
    interference bursts). A start stops once a line frequency is held on
    its band's edge. A converged start (status 2 or 3) wins whatever the
    others' costs, then the lower cost; a winner that did not converge is
    flagged 'wave fit did not converge'. It is _fit_result's (track, state).
    """
    t = np.asarray(t, dtype=float)
    data = np.array([cov_rf, d], dtype=float)
    if t[-1] - t[0] < 3 * period:
        raise ValueError("the period does not fit three times inside the dwell")
    if sd is None:
        # each series weighs 1/its std inside the window trimmed half a
        # period at each end (the band split's edges), and 0 outside
        source, scale = "series spread", 1.0
        n = len(t)
        trim = max(0, min(int(round(0.5 * period / float(np.median(np.diff(t))))),
                          (n - 8) // 2))
        sl = slice(trim, n - trim)
        weight = np.zeros_like(data)
        weight[:, sl] = 1.0 / np.maximum(np.std(data[:, sl], axis=1, keepdims=True),
                                         [[1e-12], [1e-14]])
    else:
        source, scale = "report noise", LOSS_SCALE
        weight = 1.0 / (LOSS_SCALE * np.asarray(sd, dtype=float))
    x0, bounds, xsc, args = _wave_problem(t, data, weight, period, phi0, theta0)
    held = np.zeros(x0.shape[1], dtype=bool)
    held[HEAD + 4::5] = True   # every line's w
    r = least_squares(_residual, x0, _jacobian, bounds, xsc, 400, args=args,
                      stop_held=held)
    win = min(range(len(x0)), key=lambda k: (r.status[k] not in (2, 3), r.cost[k]))
    f = r.fun[win][weight.ravel() != 0]
    rms = scale * float(np.sqrt(np.mean(f * f)))
    converged = bool(r.status[win] in (2, 3))
    flags = () if converged else ("wave fit did not converge",)
    return _fit_result(t, r.x[win], phi0, theta0, rms, converged, source, flags)


def _fit_result(t: np.ndarray, x: np.ndarray, phi0: float, theta0: float,
                rms: float, converged: bool, weight_source: str,
                flags: tuple[str, ...]) -> tuple[AngleTrack, FitState]:
    """The angle track and fit state of parameters x about phi0 and theta0.

    x is laid out as the module docstring says, with two lines or none; the
    slow-only result is the low-pass cubic with no line and bsq = hsq = 0.
    The track is _wave_model's slow aspect plus its lines, the sums the fit
    scores, clipped to ANGLE_LIMIT.
    """
    (phi_mean, phi_dot, phi_ddot), wave, _ = _wave_model(x, _times(t), phi0,
                                                         accel=True)
    (phi_hat, phi_w, phi_ww), (theta_hat, theta_w, theta_ww) = wave
    track = AngleTrack(angle_array(
        t, np.clip(phi_mean + phi_hat, -ANGLE_LIMIT, ANGLE_LIMIT),
        np.clip(theta0 + theta_hat, -ANGLE_LIMIT, ANGLE_LIMIT),
        phi_dot + phi_w, theta_w, phi_ddot + phi_ww, theta_ww))
    return track, FitState(
        lines=tuple(float(2 * np.pi / w) for w in x[HEAD + 4::5]),
        phi_hat=phi_hat, theta_hat=theta_hat, phi_mean=phi_mean,
        steady_rate=float(phi_dot.mean()), bsq_est=float(x[NPOLY]),
        hsq_est=float(x[NPOLY + 1]), residual_rms=rms, converged=converged,
        weight_source=weight_source, flags=flags)


def estimate_angles(mom: np.recarray, phi0: float, theta0: float,
                    *, period: float | None = None) -> tuple[AngleTrack, FitState]:
    """Full angle history from a moments_series table.

    Invalid frames are bridged by interpolation so the spectral machinery
    sees a uniform series. The wave period seeds from the strongest cov_rf
    line (or is the given period), and waveband_joint_fit fits about it with
    sd = (sd_rf, sd_d), inf on invalid frames; or with sd None when a valid
    frame has a zero sd, as without report sigmas. With no spectral line
    (calm water or short dwell) the result is the zero-line _fit_result of
    the low-pass cubic, tilt pinned at theta0, flagged 'no wave solution',
    with weight_source "none": no weighted fit runs.
    """
    t, valid = mom.t, mom.valid
    if valid.sum() < 8:
        raise ValueError("too few valid frames for angle estimation")
    # np.interp returns a valid sample's own value at its time, bit for bit
    cov_rf = np.interp(t, t[valid], mom.cov_rf[valid])
    d_data = np.interp(t, t[valid], mom.d_intrinsic[valid])
    span = t[-1] - t[0]
    seed = period
    if seed is None:
        try:
            seed = dominant_wave_period(t, cov_rf)
        except ValueError:
            pass

    if seed is None or span < 3 * seed:
        # slow-only fallback: no resolvable wave line
        low_series = chapeau_smooth(t, -cov_rf, span / 5.0)
        phi_mean = lowpass_aspect_solve(t, low_series, phi0)
        x = np.r_[_slow_cubic(_times(t), phi_mean, phi0), 0.0, 0.0]
        return _fit_result(t, x, phi0, theta0, float(np.std(cov_rf + low_series)),
                           False, "none", ("no wave solution",))

    sd = np.array([mom.sd_rf, mom.sd_d])
    sd = np.where(valid, sd, np.inf) if np.all(sd[:, valid] > 0) else None
    return waveband_joint_fit(t, cov_rf, d_data, seed, phi0, theta0, sd)
