"""Adaptive numerical integration engines.

An embedded Dormand-Prince 5(4) Runge-Kutta stepper with PI step-size
control and a 4th-order dense-output interpolant drives both entry points:
:func:`integrate_ode` for plain initial-value problems and
:func:`integrate_dde` for systems with a single constant lag whose state
before t0 is the initial state. One stepping loop solves both by the
method of steps: no step crosses a breakpoint t0 + k*tau, so each lag
interval reads its delayed states off the dense interpolant of completed
steps, a delayed instant before t0 being clamped to t0. A breakpoint only
bounds the step: the derivative there is the last step's final stage
(FSAL), and the step size and the controller's memory carry across it.
An ODE is the lag-free case, one interval long.

One evaluator reads every state off a trajectory, at a scalar instant or
at a 1-d array of them: the delayed lookups while integrating, the
instants of the sample grid and :meth:`Trajectory.evaluate`. The step cap
fixes nearly every step of a lag interval in advance, so each interval
starts with one lookup over the five distinct stage instants (the last
two stages share t + h) of every step it would take if each were
accepted at the cap. A step taken as planned uses its rows of that
batch; any other step (the ramp-up from the initial step size, a retry
after a rejection, a step that error control shortens) looks up its own
five instants by the same rule. Each lookup passes through the caller's
``lag_map`` once, so work that depends on the delayed state alone runs
once per lag interval on a run at the cap; the ODE path lags nothing.
Every step reads the bits it would read by a lookup of its own.

The dense output is stored once, in the Trajectory the solver returns.
Each accepted step appends its end state and four interpolation
coefficients per component, about 40 bytes per component, to storage
sized at the start for the steps the step cap implies, doubled for a run
that outgrows it, and returned cut to the stored rows, uncopied. Given
``sample_hz``, the solver lays out the sample grid, samples it as it goes
and keeps the coefficients (32 of the 40 bytes) in a window of fixed
size: the last tau of history. :meth:`Trajectory.final` keeps only the
end of a run, so that the rest can be freed once it has been sampled.
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
_SLACK_ROWS = 16  # rows stored beyond the step cap's count
_ROWS = 1024  # coefficient rows of a sampled run, sample instants per evaluation
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04        # PI controller: h' = h * safety * err^-(0.2-0.75b) * err_prev^b
_ORDER_EXP = 0.2 - 0.75 * _BETA


@dataclass(frozen=True)
class IntegratorConfig:
    """Solver controls.

    rel_tol, abs_tol : per-step error bound, enforced componentwise as
        |err_i| <= abs_tol + rel_tol * |y_i|. A stopped car's speed is held
        to abs_tol alone, and at abs_tol 1e-14 the jump of the standstill
        clamp there can end a run in "step size underflow" (see README).
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
    returns stored states exactly at stored instants. ``events`` holds one
    (time, exception) pair when a domain error stopped the run, the time
    being that of the last accepted state, and is empty for a full span.
    ``status`` is read off it: "terminated" with an event, else "completed".

    The solver fills a Trajectory of one instant, t0, as it integrates and
    reads its delayed states back from it while appending. The arrays start
    with room for ``rows`` instants and double when they fill. They are
    allocated uninitialised, so rows past the last written one take address
    space but no resident memory; the solver cuts the arrays to the stored
    rows, uncopied, before it returns them. The step row of the last stored
    instant is a zero step of unit length, written with the instant.
    ``samples`` holds the state at each instant of ``sample_times``, the
    grid at ``sample_hz`` (None: no grid) up to the run's end. When the
    coefficient window (``_coeffs[0]`` is step row ``_off``) fills, the
    pending instants before the new one are evaluated, and the rows later
    reads can land in, from the one holding the new instant less ``reach``
    (inf without a grid), move to its front; it doubles if they fill over
    half of it. ``attempts`` counts the run's attempted steps, accepted and
    rejected, across all its lag intervals; the step loop holds it to
    ``max_steps``.
    """

    def __init__(self, t0: float, y0: np.ndarray, rows: int = 1,
                 sample_hz: float | None = None, sample_times=(), reach=math.inf):
        self.times = np.empty(rows)
        self.states = np.empty((rows, y0.size))
        self._h = np.empty(rows)
        self.sample_hz, self._reach = sample_hz, reach
        self.sample_times = np.asarray(sample_times, dtype=float)
        self.samples = np.empty((self.sample_times.size, y0.size))
        self._coeffs = np.empty((rows if reach == math.inf else min(rows, _ROWS), y0.size, 4))
        self._off = self._m = 0  # _m: the instants of sample_times sampled
        self._n = 0
        self.events: list[tuple[float, object]] = []
        self.attempts = 0
        self._store(t0, y0)

    def _store(self, t: float, y: np.ndarray):
        """Write instant n and the zero step that follows it."""
        n = self._n
        if n == self.times.size:
            for name in ("times", "states", "_h"):
                old = getattr(self, name)
                new = np.empty((2 * n,) + old.shape[1:])
                new[:n] = old
                setattr(self, name, new)
        if n - self._off == len(self._coeffs):
            self._slide(t)
        self.times[n] = t
        self.states[n] = y
        self._coeffs[n - self._off] = 0.0
        self._h[n] = 1.0
        self._n = n + 1

    def _slide(self, t: float):
        """Make room in the full coefficient window for the row of instant t."""
        n, off = self._n, self._off
        self._sample(t, "left")
        keep = int(self.times[:n].searchsorted(max(t - self._reach, self.times[0]), "right")) - 1
        old = self._coeffs
        if 2 * (n - keep) > len(old):
            self._coeffs = np.empty((2 * len(old),) + old.shape[1:])
        self._coeffs[:n - keep] = old[keep - off:n - off]
        self._off = keep

    def _sample(self, t: float, side: str):
        """Evaluate the pending instants before t ("left") or through it ("right")."""
        end = int(self.sample_times.searchsorted(t, side))
        for i in range(self._m, end, _ROWS):
            j = min(i + _ROWS, end)
            self.samples[i:j] = self._read(self.sample_times[i:j])
        self._m = end

    def _read(self, t) -> np.ndarray:
        """_dense over the stored instants whose coefficient rows are kept."""
        off, n = self._off, self._n
        return _dense(self.times[off:n], self.states[off:n], self._coeffs, self._h[off:n], t)

    def append(self, t: float, y: np.ndarray, coeff: np.ndarray, h: float):
        self._coeffs[self._n - 1 - self._off] = coeff
        self._h[self._n - 1] = h
        self._store(t, y)

    def _end_on(self, t: float, exc: BaseException):
        """Record the domain error that ends the run at t, without its
        traceback: the solver frames it holds would keep this storage alive."""
        self.events.append((t, exc.with_traceback(None)))

    @property
    def status(self) -> str:
        return "terminated" if self.events else "completed"

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _lookup(self, t) -> np.ndarray:
        # Causality guard: delayed lookups must never target uncomputed
        # solution. The method-of-steps interval layout keeps them at or
        # before the last instant, up to the rounding of t + h - tau (below
        # 16 eps of the instants' magnitude); the zero step past the last
        # instant gives its stored state. A batch is guarded by its latest
        # instant, and by its earliest against the dropped coefficient rows.
        # Failing here is an internal logic error.
        t = np.asarray(t, dtype=float)
        latest = float(t.max())
        t_last = float(self.times[self._n - 1])
        if latest > t_last and latest - t_last > 16 * _EPS * max(abs(self.times[0]), abs(t_last)):
            raise AssertionError(f"lookup at t={latest!r} beyond computed solution")
        if float(t.min()) < self.times[self._off]:
            raise AssertionError(f"lookup at t={float(t.min())!r} before the kept rows")
        return self._read(t)

    def evaluate(self, t) -> np.ndarray:
        """Dense-output state at t, or states at a 1-d array of instants t.

        Every instant must lie within the covered span, ``times[_off]`` on.
        """
        times, off = self.times, self._off
        t = np.asarray(t, dtype=float)
        inside = (times[off] <= t) & (t <= times[-1])
        if not inside.all():
            span = "the trajectory span" if off == 0 else "the span of the kept rows"
            raise ValueError(f"t={float(t[~inside][0])!r} outside {span} "
                             f"[{float(times[off])!r}, {float(times[-1])!r}]")
        return self._read(t)

    def final(self) -> Trajectory:
        """The trajectory cut down to its last accepted instant, with the
        same events, in arrays of its own: it keeps none of the dense
        output of the earlier steps alive."""
        end = Trajectory(self.t_end, self.states[-1])
        end.events = self.events
        return end


def _grid(t0: float, t1: float, hz: float) -> np.ndarray:
    """The instants from t0 at rate hz; the last one never exceeds t1."""
    if not 0 < hz < math.inf:
        raise ValueError("sample_hz must be positive and finite")
    try:
        times = t0 + np.arange(int(math.floor((t1 - t0) * hz + 1e-9)) + 1) / hz
    except (OverflowError, ValueError, MemoryError) as exc:  # too many instants
        raise IntegrationError(f"sample grid too large: {exc}", t0) from None
    times[-1] = min(times[-1], t1)
    return times


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


def _clip(t, h, stop):
    """(h, h_floor, t_new) of a step of at most h from t, cut to end at stop.

    A step below h_floor is too small to take. t_new = t + h is snapped
    onto stop within h_floor of it, so each breakpoint is reached exactly.
    """
    h = min(h, stop - t)
    h_floor = 16 * _EPS * max(abs(t), abs(stop))
    t_new = t + h
    return h, h_floor, stop if stop - t_new < h_floor else t_new


def _plan(t, stop, h_cap):
    """The (t, h) of every step from t to stop if each is accepted at the
    cap, by the step loop's rule :func:`_clip`."""
    plan = []
    while t < stop:
        h, h_floor, t_new = _clip(t, h_cap, stop)
        if h < h_floor:
            break
        plan.append((t, h))
        t = t_new
    return plan


def _rows_as_given(z):
    return z


def _integrate(f, y0, tau, t_span, cfg, dom, lag_map=_rows_as_given, sample_hz=None):
    """dy/dt = f(t, y, y(t - tau)), with y = y0 before t0, by the method of steps.

    f(t, y, z) is the derivative at t given the row z that lag_map makes
    of y(t - tau) (None for an ODE). One loop steps from t0 to t_end.
    Steps never cross a breakpoint t0 + k*tau, where the derivative may
    jump, or exceed tau, so a delayed instant, clamped to t0, always lands
    in completed steps, and t0 reads the stored y0 exactly. An ODE is the
    lag-free case tau = inf: one interval, steps capped at h_max, no
    delayed state. An empty span evaluates nothing. Each instant of the
    grid at sample_hz is read off its own step row, as off a whole-run
    store, or the end state; a run that ends before its span samples the
    grid of its own span. A grid or a store too large raises
    IntegrationError before the first step.

    A breakpoint only bounds the step: the derivative is evaluated afresh
    only at t0, and FSAL, the step size and the controller's memory carry
    across every later one. At each breakpoint, t0 included, a DDE looks
    up the stage instants of every step that :func:`_plan` lays out for
    the next lag interval, by the rule of a step's own lookup. A step
    whose (t, h) is planned takes those rows; any other looks up its own.
    A delayed instant that rounds past t, the last stored instant, reads
    t's state only until the next step is stored, so the plan ends before
    the first later step that reads one. If the planned lookup raises dom,
    nothing is planned, and the error hits the step whose own lookup
    raises it.
    """
    cfg = cfg or IntegratorConfig()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if t_end < t0:
        raise ValueError("backward integration is not supported")
    h_cap = min(cfg.h_max, tau)
    # A completed run takes at least (t_end - t0) / h_cap steps, and a few
    # more while the initial step ramps up to the cap; the attempt budget
    # bounds the count.
    steps = math.ceil(min(cfg.max_steps, (t_end - t0) / h_cap))
    delayed = tau != math.inf
    y0 = np.asarray(y0, dtype=float)
    reach = math.inf if sample_hz is None else (tau if delayed else 0.0)
    grid = () if sample_hz is None else _grid(t0, t_end, sample_hz)
    try:
        traj = Trajectory(t0, y0, 1 + min(cfg.max_steps, steps + _SLACK_ROWS),
                          sample_hz, grid, reach)
    except (ValueError, MemoryError) as exc:  # too big for numpy, or for the host
        raise IntegrationError(f"solution store too large: {exc}", t0) from None

    def delays(t, h):  # the delayed instants of the stages t + _C[1:6] * h
        return np.maximum(t + _C[1:6] * h - tau, t0)

    def lookup(ds):
        return lag_map(traj._lookup(ds))

    def f_at(s, y):
        return f(s, y, lookup(np.maximum([s - tau], t0))[0] if delayed else None)

    t, y = t0, traj.states[0].copy()
    k = np.empty((7, y.size))
    stages = [k[:i] for i in range(7)]  # the stages before stage i
    abs_y, err_v = np.abs(y), np.empty(y.size)  # |y| of the accepted state; scratch
    h, rows, stop, n_stop = cfg.h_init, _NO_LAG, t0, 0
    # domain_exc: the last domain error since the last accepted step
    err_prev, just_rejected, domain_exc = 1e-4, False, None
    if t < t_end:  # an empty span evaluates nothing
        try:
            k[0] = f_at(t, y)
        except dom as exc:
            traj._end_on(t, exc)
            t_end = t  # no step is taken
        else:
            if not (np.isfinite(y).all() and np.isfinite(k[0]).all()):
                # It would give a NaN step size, which never falls below the
                # floor, retried until the step budget ran out. Later steps
                # start from accepted states; a non-finite stage rejects its step.
                raise IntegrationError("non-finite state or derivative", t)
            if h is None:
                h = _initial_step(f_at, t, y, k[0], cfg.rel_tol, cfg.abs_tol, h_cap, dom)

    while t < t_end:
        if t == stop:  # a breakpoint: plan the next lag interval
            while stop <= t:
                n_stop += 1
                stop = min(t0 + n_stop * tau, t_end)
            planned = {}
            plan = _plan(t, stop, h_cap) if delayed else []
            if plan:
                ds = delays(*np.array(plan).T[..., None]).ravel()  # t, h as columns
                # the delayed instants ascend; the first step may read past t,
                # as no other step is stored before it is attempted
                plan = plan[:max(1, ds.searchsorted(t, "right") // 5)]
                try:
                    batch = lookup(ds[:5 * len(plan)])
                    planned = {pair: batch[5 * j: 5 * j + 5] for j, pair in enumerate(plan)}
                except dom:
                    pass

        h, h_floor, t_new = _clip(t, min(h, h_cap), stop)
        if h < h_floor:
            if domain_exc is not None:
                traj._end_on(t, domain_exc)
                break
            raise IntegrationError(
                "step size underflow; right-hand side too stiff or discontinuous", t
            )
        traj.attempts += 1
        if traj.attempts > cfg.max_steps:
            raise IntegrationError("step budget exhausted", t)
        try:
            # the last stage's state is the accepted state, so every
            # accepted state has passed f's domain check
            if delayed:
                rows = planned.get((t, h))
                if rows is None:
                    rows = lookup(delays(t, h))
            for i in range(1, 7):
                y1 = y + h * np.dot(_A[i], stages[i])
                k[i] = f(t + _C_STAGE[i] * h, y1, rows[_LAG_ROW[i]])
        except dom as exc:
            h *= 0.5
            domain_exc = exc
            just_rejected = True
            continue
        abs_y1 = np.abs(y1)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_y1)
        np.dot(_E, k, out=err_v)
        err_v *= h
        np.abs(err_v, out=err_v)
        err_v /= scale
        err = float(err_v.max())  # max |h * E @ k| / scale
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
        traj.append(t_new, y1, k.T @ _P, h)
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** -_ORDER_EXP * err_prev ** _BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if just_rejected:
            factor = min(1.0, factor)
            just_rejected = False
        err_prev = max(err, 1e-4)
        t, y, abs_y = t_new, y1, abs_y1
        k[0] = k[6]  # FSAL
        h *= factor
    if traj.status == "terminated" and sample_hz is not None:  # ended before its span
        traj.sample_times = _grid(t0, t, sample_hz)
    traj._sample(t, "right")
    n = traj._n  # the returned arrays are views of the stored rows, uncopied
    traj.times, traj.states, traj._coeffs, traj._h, traj.samples = (
        traj.times[:n], traj.states[:n], traj._coeffs[:n - traj._off], traj._h[:n],
        traj.samples[:traj._m])
    return traj


def integrate_ode(f, y0, t_span, cfg: IntegratorConfig | None = None,
                  domain_error=(), *, sample_hz=None) -> Trajectory:
    """Integrate dy/dt = f(t, y) over t_span with adaptive RK 5(4).

    domain_error : exception type (or tuple) that f may raise for states
        outside its domain. A step whose stages raise it is retried at half
        the size. The run ends "terminated", with the last such exception
        as its event, when y0 raises it or the step falls below its floor
        before another step is accepted.
    sample_hz : positive finite rate of the grid from t0 to the run's end
        (:func:`_grid`) whose states fill ``samples``; only the coefficient
        rows later reads need are then kept. None samples nothing.
    """
    return _integrate(lambda t, y, _: f(t, y), y0, math.inf, t_span, cfg, domain_error,
                      sample_hz=sample_hz)


def integrate_dde(f, y0, tau: float, t_span,
                  cfg: IntegratorConfig | None = None,
                  domain_error=(), lag_map=_rows_as_given, *, sample_hz=None) -> Trajectory:
    """Integrate dy/dt = f(t, y, y(t - tau)), with y = y0 for t <= t0.

    The lag tau must be positive and finite. Steps stop at every breakpoint
    t0 + k*tau and never exceed tau. domain_error and sample_hz are handled
    as in :func:`integrate_ode`.

    lag_map : maps the (m, dim) array of delayed states that one lookup
        reads to a sequence of m rows, and f receives row j in place of
        y(t_j - tau). Each lag interval makes one lookup over the five
        distinct stage instants of every step it would take at the step
        cap h = min(h_max, tau): m = 5 * ceil(tau / h), 25 on the stock
        ring (tau 0.5 s, h_max 0.1 s), or fewer when a delayed instant
        rounds past the interval's start. A step off that plan makes one
        lookup over its own m = 5 instants; the derivative at t0 and the
        initial-step probe make one of m = 1 each. Work that depends on the
        delayed state alone thus runs on whole batches, not once per stage.
        The default passes the states as they are, so f receives
        y(t - tau) itself. A domain_error that lag_map raises hits the step
        whose own lookup reads the offending state, as if f raised it.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite; "
                         "use integrate_ode when there is no lag")
    return _integrate(f, y0, tau, t_span, cfg, domain_error, lag_map, sample_hz=sample_hz)
