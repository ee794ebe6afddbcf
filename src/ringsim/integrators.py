"""Adaptive numerical integration engines.

An embedded Dormand-Prince 5(4) Runge-Kutta stepper with PI step-size
control and a 4th-order dense-output interpolant drives both entry points:
:func:`integrate_ode` for plain initial-value problems and
:func:`integrate_dde` for systems with a single constant lag whose state
before t0 is the initial state. One driver solves both by the method of
steps: each lag-length interval is integrated with delayed lookups read off
the dense interpolant of already-completed steps, a delayed instant before
t0 being clamped to t0. An ODE is the lag-free case, one interval long.

One evaluator reads every state off a trajectory, at a scalar instant or
at a 1-d array of them: the delayed lookups while integrating,
:meth:`Trajectory.evaluate` and, through it, the uniform-rate series of
:func:`ringsim.ring.sample`. One stage loop serves both entry points. Each
attempted step reads the delayed states of all its stages in one lookup,
over the step's five distinct stage instants (the last two stages share
t + h), and passes that batch through the caller's ``lag_map`` once, so
work that depends on the delayed state alone runs once per step; the ODE
path lags nothing. The stage loop works in buffers allocated once per
lag interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegratorConfig",
    "IntegrationError",
    "Trajectory",
    "integrate_ode",
    "integrate_dde",
]

# Dormand-Prince 5(4) tableau. The last stage is evaluated at the 5th-order
# solution, A[6] = B (FSAL: it is the derivative at the accepted point), and
# E = B - Bhat gives the embedded error weights.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Continuous-extension coefficients: y(t0 + theta*h) = y0 + h * (K^T P) @
# [theta, theta^2, theta^3, theta^4]; rows sum to B so the interpolant hits
# the accepted endpoint.
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_THETA_POWERS = np.arange(1.0, 5.0)[:, None]  # exponents 1..4 as a column
# Row of a step's delayed lookups that serves each stage 1..6: the lookups
# cover the distinct instants t + _C[1:6] * h, and _C[6] == _C[5].
_LAG_ROW = (None, 0, 1, 2, 3, 4, 4)
_C_STAGE = _C.tolist()  # as floats, t + c * h rounds as t + _C * h does
_NO_LAG = (None,) * 5  # the rows of an ODE, which lags nothing

_EPS = np.finfo(float).eps
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04        # PI controller: h' = h * safety * err^-(0.2-0.75b) * err_prev^-b
_ORDER_EXP = 0.2 - 0.75 * _BETA


@dataclass(frozen=True)
class IntegratorConfig:
    """Solver controls.

    rel_tol, abs_tol : per-step error bound, enforced componentwise as
        |err_i| <= abs_tol + rel_tol * |y_i|
    h_init : initial step size; None selects one automatically
    h_max : step-size cap (also capped at the lag for delay runs)
    max_steps : budget of attempted (accepted plus rejected) steps
    """

    rel_tol: float = 1e-3
    abs_tol: float = 1e-6
    h_init: float | None = None
    h_max: float = 0.1
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.h_max > 0:
            raise ValueError("h_max must be positive")
        if self.h_init is not None and not self.h_init > 0:
            raise ValueError("h_init must be positive when given")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


class IntegrationError(RuntimeError):
    """Integration could not be completed; carries the time reached."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(f"{message} (at t={t_reached:.6g})")
        self.t_reached = t_reached


def _dense(times, states, coeffs, hs, t) -> np.ndarray:
    """State at t, or states at a 1-d array of instants t, from stored steps.

    Each instant is read off the quartic continuous extension of the step
    that starts at or before it, so a stored instant sits at theta = 0 of
    its own step and returns its stored state exactly. The last stored
    instant has a zero step of unit length past it for that purpose.
    Instants must lie within times[0]..times[-1].
    """
    t = np.asarray(t, dtype=float)
    step = times.searchsorted(t, "right") - 1
    h = hs[step]
    theta = (t - times[step]) / h
    # float_power calls the C library's pow on each element (power may use
    # a vector pow with other rounding), and matmul runs one matrix-vector
    # product per instant: an instant gets the same bits alone or in a batch.
    powers = np.float_power(theta[..., None, None], _THETA_POWERS)
    return states[step] + h[..., None] * (coeffs[step] @ powers)[..., 0]


class Trajectory:
    """Accepted-step samples plus dense interpolation coefficients.

    times, states hold every accepted step endpoint (including the initial
    state). ``evaluate`` interpolates anywhere in the covered span and
    returns stored states exactly at stored instants. ``status`` is
    "completed" for a full span or "terminated" when a domain error stopped
    the run; ``events`` then holds one (time, exception) pair, the time
    being that of the last accepted state.
    """

    def __init__(self, times, states, step_coeffs, step_sizes, events, status):
        self.times = times
        self.states = states
        self._coeffs = step_coeffs      # (n, dim, 4), last row zero
        self._h = step_sizes            # (n,), last entry 1
        self.events = events
        self.status = status

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def evaluate(self, t) -> np.ndarray:
        """Dense-output state at t, or states at a 1-d array of instants t.

        Every instant must lie within the covered span.
        """
        times = self.times
        t = np.asarray(t, dtype=float)
        inside = (times[0] <= t) & (t <= times[-1])
        if not inside.all():
            raise ValueError(
                f"t={float(t[~inside][0])!r} outside the trajectory span "
                f"[{times[0]!r}, {times[-1]!r}]"
            )
        return _dense(times, self.states, self._coeffs, self._h, t)


class _Builder:
    """Growing storage for accepted steps, readable while integrating.

    Delay integration reads completed steps through ``evaluate`` while new
    ones are still being appended, so lookups are served from the same
    arrays the final Trajectory will own. Step rows start as a zero step of
    unit length, the one that follows the last stored instant.
    """

    def __init__(self, t0: float, y0: np.ndarray, max_steps: int):
        dim = y0.size
        cap = 512
        self.times = np.empty(cap)
        self.states = np.empty((cap, dim))
        self.coeffs = np.zeros((cap, dim, 4))
        self.hs = np.ones(cap)
        self.n = 1
        self.times[0] = t0
        self.states[0] = y0
        self.events: list[tuple[float, object]] = []
        self.attempts = 0
        self.max_steps = max_steps

    def _grow(self):
        self.times = np.concatenate([self.times, np.empty(self.times.size)])
        self.states = np.vstack([self.states, np.empty_like(self.states)])
        # np.zeros leaves the new pages untouched until they are written
        self.coeffs = np.concatenate([self.coeffs, np.zeros(self.coeffs.shape)])
        self.hs = np.concatenate([self.hs, np.ones_like(self.hs)])

    def append(self, t: float, y: np.ndarray, coeff: np.ndarray, h: float):
        if self.n == self.times.size:
            self._grow()
        self.times[self.n] = t
        self.states[self.n] = y
        self.coeffs[self.n - 1] = coeff
        self.hs[self.n - 1] = h
        self.n += 1

    @property
    def t_last(self) -> float:
        return float(self.times[self.n - 1])

    @property
    def y_last(self) -> np.ndarray:
        return self.states[self.n - 1]

    def evaluate(self, t) -> np.ndarray:
        # Causality guard: delayed lookups must never target uncomputed
        # solution. The method-of-steps interval layout keeps them at or
        # before the last instant, up to the rounding of t + h - tau (below
        # 16 eps of the instants' magnitude); the zero step past the last
        # instant gives its stored state. A batch is guarded by its latest
        # instant. Failing here is an internal logic error.
        t = np.asarray(t, dtype=float)
        latest = float(t.max())
        t_last = self.t_last
        if latest > t_last and latest - t_last > 16 * _EPS * max(abs(self.times[0]), abs(t_last)):
            raise AssertionError(f"lookup at t={latest!r} beyond computed solution")
        return _dense(self.times[: self.n], self.states, self.coeffs, self.hs, t)

    def finish(self, status: str) -> Trajectory:
        return Trajectory(
            self.times[: self.n].copy(),
            self.states[: self.n].copy(),
            self.coeffs[: self.n].copy(),
            self.hs[: self.n].copy(),
            self.events,
            status,
        )


def _initial_step(f, t0, y0, f0, rel_tol, abs_tol, h_cap, dom=()):
    """Automatic initial step size from local derivative magnitudes."""
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_cap)
    try:
        f1 = f(t0 + h0, y0 + h0 * f0)
        d2 = float(np.max(np.abs(f1 - f0) / scale)) / h0
    except dom:
        d2 = 0.0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, h_cap)


def _advance(f, lagged, builder, t_end, cfg, h_cap, dom, h_start):
    """Step from the builder's last state up to t_end.

    lagged maps a 1-d array of ascending instants to one row per instant,
    the delayed rows of a DDE, or is None for an ODE; f(t, y, z) is the
    derivative at t given the row z for t (None for an ODE). Each attempted
    step calls lagged once, on its distinct stage instants.

    Stage states and the error norm are computed in buffers allocated once
    per call, operation for operation as y + h * (A @ k) and
    max |h * (E @ k)| / scale, so the buffers change no bit of the result.

    Returns (status, h_next): status "completed" when t_end was hit,
    "terminated" when f raised the domain error dom at the start state or
    down to a vanishing step; the builder's events then hold that error.
    """

    def f_at(s, y):
        return f(s, y, None if lagged is None else lagged(np.array([s]))[0])

    t = builder.t_last
    y = builder.y_last.copy()
    k = np.empty((7, y.size))
    try:
        k[0] = f_at(t, y)
    except dom as exc:
        builder.events.append((t, exc))
        return "terminated", h_start
    if not (np.isfinite(y).all() and np.isfinite(k[0]).all()):
        # It would give a NaN step size, which never falls below the floor,
        # and be retried until the step budget ran out. Later steps start
        # from accepted states: a non-finite stage makes the error norm
        # non-finite, which rejects the step.
        raise IntegrationError("non-finite state or derivative", t)
    h = h_start if h_start is not None else _initial_step(
        f_at, t, y, k[0], cfg.rel_tol, cfg.abs_tol, h_cap, dom
    )
    err_prev = 1e-4
    just_rejected = False
    domain_exc = None  # the last domain error since the last accepted step
    y1, dy, scale, ay1 = (np.empty_like(y) for _ in range(4))
    ay = np.abs(y)  # |y| of the step's start state, for the error norm
    rows = _NO_LAG

    while t < t_end:
        h = min(h, h_cap, t_end - t)
        h_floor = 16 * _EPS * max(abs(t), abs(t_end))
        if h < h_floor:
            if domain_exc is not None:
                builder.events.append((t, domain_exc))
                return "terminated", h
            raise IntegrationError(
                "step size underflow; right-hand side too stiff or discontinuous", t
            )
        builder.attempts += 1
        if builder.attempts > builder.max_steps:
            raise IntegrationError("step budget exhausted", t)
        try:
            # the last stage's state is the accepted state, so every
            # accepted state has passed f's domain check
            if lagged is not None:
                rows = lagged(t + _C[1:6] * h)
            for i in range(1, 7):
                np.dot(_A[i], k[:i], out=dy)
                dy *= h
                np.add(y, dy, out=y1)
                k[i] = f(t + _C_STAGE[i] * h, y1, rows[_LAG_ROW[i]])
        except dom as exc:
            h *= 0.5
            domain_exc = exc
            just_rejected = True
            continue
        # err = max |h * (E @ k)| / (abs_tol + rel_tol * max(|y|, |y1|))
        np.dot(_E, k, out=dy)
        dy *= h
        np.abs(dy, out=dy)
        np.abs(y1, out=ay1)
        np.maximum(ay, ay1, out=scale)
        scale *= cfg.rel_tol
        scale += cfg.abs_tol
        dy /= scale
        err = float(dy.max())
        if not math.isfinite(err):
            # Overflow or NaN in a stage: treat as a hard rejection.
            h *= _MIN_FACTOR
            just_rejected = True
            continue
        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            just_rejected = True
            continue
        # accepted
        domain_exc = None
        coeff = k.T @ _P
        t_new = t + h
        if t_end - t_new < h_floor:
            t_new = t_end
        builder.append(t_new, y1, coeff, h)
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** -_ORDER_EXP * err_prev ** _BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if just_rejected:
            factor = min(1.0, factor)
            just_rejected = False
        err_prev = max(err, 1e-4)
        t = t_new
        y, y1 = y1, y
        ay, ay1 = ay1, ay
        k[0] = k[6]  # FSAL
        h *= factor
    return "completed", h


def _rows_as_given(z):
    return z


def _integrate(f, y0, tau, t_span, cfg, dom, lag_map=_rows_as_given) -> Trajectory:
    """dy/dt = f(t, y, y(t - tau)), with y = y0 before t0, by the method of steps.

    Each lag-length interval ends at a breakpoint t0 + k*tau, where the
    derivative may jump. Steps never cross it or exceed tau, so a delayed
    instant, clamped to t0, always lands in completed steps, and t0 reads
    the stored y0 exactly. lag_map turns each lookup's (m, dim) delayed
    states into the m rows f is given. An ODE is the lag-free case
    tau = inf: one interval, steps capped at h_max, no delayed state. An
    empty span evaluates nothing.
    """
    cfg = cfg or IntegratorConfig()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if t_end < t0:
        raise ValueError("backward integration is not supported")
    builder = _Builder(t0, np.asarray(y0, dtype=float), cfg.max_steps)
    past = None if tau == math.inf else (
        lambda ts: lag_map(builder.evaluate(np.maximum(ts - tau, t0))))
    h_cap = min(cfg.h_max, tau)
    status, h_next, k = "completed", cfg.h_init, 1
    while status == "completed" and builder.t_last < t_end:
        stop = min(t0 + k * tau, t_end)
        if stop > builder.t_last:
            status, h_next = _advance(f, past, builder, stop, cfg, h_cap, dom, h_next)
        k += 1
    return builder.finish(status)


def integrate_ode(f, y0, t_span, cfg: IntegratorConfig | None = None,
                  domain_error=()) -> Trajectory:
    """Integrate dy/dt = f(t, y) over t_span with adaptive RK 5(4).

    domain_error : exception type (or tuple) that f may raise for states
        outside its domain. A step whose stages raise it is retried at half
        the size. The run ends "terminated", with the last such exception
        as its event, when y0 raises it or the step falls below its floor
        before another step is accepted.
    """
    return _integrate(lambda t, y, _: f(t, y), y0, math.inf, t_span, cfg, domain_error)


def integrate_dde(f, y0, tau: float, t_span,
                  cfg: IntegratorConfig | None = None,
                  domain_error=(), lag_map=_rows_as_given) -> Trajectory:
    """Integrate dy/dt = f(t, y, y(t - tau)), with y = y0 for t <= t0.

    The lag tau must be positive and finite. Steps stop at every breakpoint
    t0 + k*tau and never exceed tau. domain_error is handled as in
    :func:`integrate_ode`.

    lag_map : maps the (m, dim) array of delayed states that one lookup
        reads to a sequence of m rows, and f receives row j in place of
        y(t_j - tau). Each attempted step makes one lookup over the m = 5
        distinct instants of its stages, so work that depends on the
        delayed state alone can run once per step on the whole batch
        instead of once per stage. The default passes the states as they
        are, so f receives y(t - tau) itself.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite; "
                         "use integrate_ode when there is no lag")
    return _integrate(f, y0, tau, t_span, cfg, domain_error, lag_map)
