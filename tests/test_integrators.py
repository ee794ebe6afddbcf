import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ringsim import integrators, ring
from ringsim.integrators import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    integrate_dde,
    integrate_ode,
)

TIGHT = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, h_max=10.0)


def decay(t, y):
    return -y


class TestExponentialDecay:
    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-9])
    def test_endpoint_accuracy(self, rel_tol):
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-3, h_max=10.0)
        traj = integrate_ode(decay, [1.0], (0.0, 1.0), cfg)
        assert traj.status == "completed"
        assert abs(traj.states[-1, 0] - math.exp(-1)) <= 10 * rel_tol

    def test_tolerance_monotonicity(self):
        errs = []
        for rel_tol in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-3, h_max=10.0)
            traj = integrate_ode(decay, [1.0], (0.0, 1.0), cfg)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1)))
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_convergence_order_from_tolerance_ladder(self):
        # global error against average step size across four tolerance decades
        errs, hs = [], []
        for rel_tol in (1e-3, 1e-5, 1e-7, 1e-9):
            cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-4, h_max=10.0)
            traj = integrate_ode(decay, [1.0], (0.0, 1.0), cfg)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1)))
            hs.append(1.0 / (len(traj.times) - 1))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 4.0

    def test_convergence_order_fixed_steps(self):
        # force fixed steps via h_init = h_max and a loose error bound
        errs = []
        steps = [0.2, 0.1, 0.05, 0.025]
        for h in steps:
            cfg = IntegratorConfig(rel_tol=1.0, abs_tol=1.0, h_init=h, h_max=h)
            traj = integrate_ode(decay, [1.0], (0.0, 1.0), cfg)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1)))
        orders = [math.log(a / b) / math.log(2) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 4.0


class TestHarmonicOscillator:
    def rhs(self, t, y):
        return np.array([y[1], -y[0]])

    def test_period_return(self):
        rel_tol = 1e-8
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-12, h_max=10.0)
        y0 = np.array([1.0, 0.0])
        traj = integrate_ode(self.rhs, y0, (0.0, 2 * math.pi), cfg)
        assert np.max(np.abs(traj.states[-1] - y0)) <= 100 * rel_tol

    def test_energy_drift_bounded(self):
        rel_tol = 1e-8
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-12, h_max=10.0)
        traj = integrate_ode(self.rhs, [1.0, 0.0], (0.0, 2 * math.pi), cfg)
        energy = (traj.states**2).sum(axis=1)
        assert np.max(np.abs(energy - 1.0)) <= 100 * rel_tol


class TestDenseOutput:
    def test_endpoints_match_stored_states(self):
        traj = integrate_ode(decay, [1.0, 2.0], (0.0, 3.0),
                             IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, h_max=0.5))
        for i, t in enumerate(traj.times):
            assert np.array_equal(traj.evaluate(float(t)), traj.states[i])

    def test_interior_point_near_endpoint_state(self):
        # interpolate a hair inside each step endpoint: continuity check
        traj = integrate_ode(decay, [1.0], (0.0, 3.0),
                             IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, h_max=0.5))
        for i in range(1, len(traj.times)):
            t = float(traj.times[i])
            inside = np.nextafter(t, 0.0)
            assert abs(traj.evaluate(inside)[0] - traj.states[i, 0]) < 1e-10

    def test_interior_accuracy(self):
        traj = integrate_ode(decay, [1.0], (0.0, 2.0),
                             IntegratorConfig(rel_tol=1e-8, abs_tol=1e-12, h_max=0.25))
        for t in np.linspace(0.05, 1.95, 37):
            assert abs(traj.evaluate(t)[0] - math.exp(-t)) < 1e-7

    def test_matches_step_quartic(self):
        # reference: the quartic of the enclosing step, with the powers of
        # theta taken one by one on Python floats. On y = t^4 the last bit
        # of a power reaches the state at a few of these instants.
        traj = integrate_ode(lambda t, y: 4 * t**3, [0.0], (0.0, 5.0),
                             IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9))
        instants = np.random.default_rng(3).uniform(0.0, 5.0, 3000)
        expected = []
        for t in instants:
            i = int(np.searchsorted(traj.times, t, side="right")) - 1
            h = traj._h[i]
            theta = float((t - traj.times[i]) / h)
            powers = np.array([theta, theta**2, theta**3, theta**4])
            expected.append(traj.states[i] + h * (traj._coeffs[i] @ powers))
            assert np.array_equal(traj.evaluate(t), expected[-1])
        assert np.array_equal(traj.evaluate(instants), expected)

    @pytest.mark.parametrize("delayed", [False, True])
    def test_samples_drop_rows_the_reads_are_past(self, delayed):
        # with sample_hz the samples are the whole store's evaluate at each
        # instant of the grid; the rows before the last lag are dropped, and
        # evaluate names the first kept row's instant for an instant before it
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, h_max=0.001)

        def run(**kw):
            if delayed:
                return integrate_dde(dde_rhs, [1.0], 0.3, (0.0, 3.0), cfg, **kw)
            return integrate_ode(decay, [1.0], (0.0, 3.0), cfg, **kw)

        whole, traj = run(), run(sample_hz=700 / 3)
        grid = traj.sample_times
        assert traj.sample_hz == 700 / 3 and whole.sample_hz is None
        assert grid.size == 701 and grid[-1] == 3.0
        assert np.array_equal(grid[:-1], np.arange(700) / (700 / 3))
        assert np.array_equal(traj.samples, whole.evaluate(grid))
        first = float(traj.times[traj._off])
        assert 2.0 < first <= (2.7 if delayed else 3.0)
        assert np.array_equal(traj.evaluate(first), whole.evaluate(first))
        with pytest.raises(ValueError, match=f"kept rows \\[{first!r}"):
            traj.evaluate(np.nextafter(first, 0.0))

    @pytest.mark.parametrize("sample_hz", [0.0, -1.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_sample_hz_must_be_positive_and_finite(self, sample_hz):
        with pytest.raises(ValueError, match="sample_hz must be positive and finite"):
            integrate_ode(decay, [1.0], (0.0, 1.0), sample_hz=sample_hz)
        with pytest.raises(ValueError, match="sample_hz must be positive and finite"):
            integrate_dde(dde_rhs, [1.0], 0.3, (0.0, 1.0), sample_hz=sample_hz)

    def test_outside_span_rejected(self):
        traj = integrate_ode(decay, [1.0], (0.0, 1.0))
        with pytest.raises(ValueError):
            traj.evaluate(1.5)
        with pytest.raises(ValueError):
            traj.evaluate(-0.1)
        with pytest.raises(ValueError):
            traj.evaluate(np.array([0.5, 1.5]))


class TestStepControl:
    def test_h_max_respected(self):
        traj = integrate_ode(decay, [1.0], (0.0, 5.0),
                             IntegratorConfig(rel_tol=1e-3, abs_tol=1e-6, h_max=0.1))
        assert np.max(np.diff(traj.times)) <= 0.1 + 1e-12

    def test_determinism_bit_identical(self):
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)
        a = integrate_ode(decay, [1.0, 0.5], (0.0, 4.0), cfg)
        b = integrate_ode(decay, [1.0, 0.5], (0.0, 4.0), cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_step_budget_exhaustion(self):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, h_max=1e-4, max_steps=50)
        with pytest.raises(IntegrationError, match="budget"):
            integrate_ode(decay, [1.0], (0.0, 10.0), cfg)

    def test_non_finite_state_fails_fast(self):
        # a NaN state gives a NaN step size, which no step-size floor catches
        cfg = IntegratorConfig(max_steps=5000)
        with pytest.raises(IntegrationError, match=r"non-finite state .*\(at t=0\)"):
            integrate_ode(decay, [math.nan], (0.0, 1.0), cfg)

    def test_non_finite_stage_is_a_hard_rejection(self):
        # y' = y from 1, with an infinite derivative above 1.5: a first step
        # of 0.4 has a stage state past 1.5 (exp(0.4) is 1.49), so its error
        # norm is not finite and the step is retried at a fifth of its size.
        def f(t, y):
            return np.where(y > 1.5, np.inf, y)

        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, h_init=1.0, h_max=1.0)
        # the rejected step's stage sums meet inf - inf
        with np.errstate(invalid="ignore"):
            traj = integrate_ode(f, [1.0], (0.0, 0.4), cfg)
        assert traj.status == "completed"
        assert traj.attempts > len(traj.times) - 1
        assert np.isfinite(traj.states).all()
        assert traj.times[-1] == 0.4
        assert abs(traj.states[-1, 0] - math.exp(0.4)) <= 10 * cfg.rel_tol

    def test_zero_span(self):
        traj = integrate_ode(decay, [1.0], (0.0, 0.0))
        assert traj.status == "completed"
        assert traj.times.shape == (1,)
        assert np.array_equal(traj.evaluate(0.0), [1.0])

    def test_backward_span_rejected(self):
        with pytest.raises(ValueError):
            integrate_ode(decay, [1.0], (1.0, 0.0))


class _Boom(ValueError):
    pass


class TestTerminalAndDomain:
    def test_domain_error_terminates_near_boundary(self):
        def f(t, y):
            if y[0] > 2.0:
                raise _Boom("outside")
            return np.ones(1)

        traj = integrate_ode(f, [0.0], (0.0, 10.0),
                             IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, h_max=0.5),
                             domain_error=_Boom)
        assert traj.status == "terminated"
        assert traj.states[-1, 0] <= 2.0
        assert traj.states[-1, 0] > 1.9
        ((t_ev, exc),) = traj.events
        assert t_ev == traj.times[-1]
        assert isinstance(exc, _Boom)

    @pytest.mark.parametrize("delayed", [False, True])
    def test_domain_error_at_start_terminates_at_t0(self, delayed):
        def f(t, y, ylag=None):
            raise _Boom("outside")

        if delayed:
            traj = integrate_dde(f, [5.0], 1.0, (0.0, 10.0), domain_error=_Boom)
        else:
            traj = integrate_ode(f, [5.0], (0.0, 10.0), domain_error=_Boom)
        assert traj.status == "terminated"
        assert traj.times.shape == (1,)
        ((t_ev, exc),) = traj.events
        assert t_ev == 0.0
        assert isinstance(exc, _Boom)

    def test_domain_errors_interleaved_with_rejections_terminate(self):
        # y[1] jumps by 1e15 per second once y[0] reaches 1, and y[0] leaves
        # the domain 1e-14 further on, just above the step-size floor. Near
        # the boundary, a step that crosses both raises the domain error;
        # a shorter one crosses only the jump and fails the error test, down
        # to the floor. The domain error since the last accepted step must
        # still end the run.
        def f(t, y):
            if y[0] >= 1.0 + 1e-14:
                raise _Boom("outside")
            return np.array([1.0, 1e15 if y[0] >= 1.0 else 0.0])

        traj = integrate_ode(f, [0.0, 0.0], (0.0, 2.0), domain_error=_Boom)
        assert traj.status == "terminated"
        ((t_ev, exc),) = traj.events
        assert isinstance(exc, _Boom)
        assert t_ev == traj.times[-1]
        assert traj.states[-1, 0] < 1.0
        assert 1.0 - 1e-13 < t_ev < 1.0

    def test_undeclared_exception_propagates(self):
        def f(t, y):
            if y[0] > 2.0:
                raise _Boom("outside")
            return np.ones(1)

        with pytest.raises(_Boom):
            integrate_ode(f, [0.0], (0.0, 10.0))


def dde_rhs(t, y, ylag):
    return -ylag


def simulate_delayed_ring():
    """60 s of the stock delayed IDM ring, started far from uniform flow."""
    scenario = ring.build_uniform_scenario("idm_delayed")
    return ring.simulate(replace(scenario, t_end=60.0, perturb_amp=0.5))


def dense_per_instant(times, states, coeffs, hs, t, dense=integrators._dense):
    """_dense, called once per instant."""
    t = np.asarray(t, dtype=float)
    rows = [dense(times, states, coeffs, hs, s) for s in t.ravel()]
    return np.array(rows).reshape(t.shape + states.shape[1:])


class TestDde:
    def test_first_interval_linear(self):
        # y'(t) = -y(t-1), history 1 on [-1, 0]: y(t) = 1 - t on [0, 1]
        traj = integrate_dde(dde_rhs, [1.0], 1.0, (0.0, 1.0), TIGHT)
        for t in np.linspace(0.0, 1.0, 21):
            assert abs(traj.evaluate(t)[0] - (1.0 - t)) < 1e-9

    def test_second_interval_quadratic(self):
        # on [1, 2]: y(t) = 1 - t + (t-1)^2/2
        traj = integrate_dde(dde_rhs, [1.0], 1.0, (0.0, 2.0), TIGHT)
        for t in np.linspace(1.0, 2.0, 21):
            exact = 1.0 - t + (t - 1.0) ** 2 / 2.0
            assert abs(traj.evaluate(t)[0] - exact) < 1e-9
        assert abs(traj.evaluate(2.0)[0] - (-0.5)) < 1e-9

    def test_breakpoints_are_step_endpoints(self):
        traj = integrate_dde(dde_rhs, [1.0], 0.3, (0.0, 1.0), TIGHT)
        for k in (1, 2, 3):
            assert np.isclose(traj.times, 0.3 * k, rtol=0, atol=1e-12).any()

    def test_step_size_never_exceeds_lag(self):
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, h_max=5.0)
        traj = integrate_dde(dde_rhs, [1.0], 0.5, (0.0, 4.0), cfg)
        assert np.max(np.diff(traj.times)) <= 0.5 + 1e-12

    def test_long_lag_degenerates_to_frozen_input(self):
        # lag beyond the span: identical to an ODE with the delayed state
        # frozen at the initial value
        y0 = np.array([0.7])
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, h_max=0.2)
        dde = integrate_dde(lambda t, y, ylag: -y + ylag, y0,
                            tau=50.0, t_span=(0.0, 2.0), cfg=cfg)
        ode = integrate_ode(lambda t, y: -y + y0, y0,
                            (0.0, 2.0), cfg)
        assert np.array_equal(dde.times, ode.times)
        assert np.array_equal(dde.states, ode.states)

    @pytest.mark.parametrize("h_max", [0.3, 10.0])
    def test_lag_not_above_step_cap(self, h_max):
        # steps then span whole lag intervals, and the delayed instant of
        # the last stage, t + h - tau, can round past the last breakpoint
        cfg = IntegratorConfig(h_max=h_max)
        traj = integrate_dde(dde_rhs, [1.0], 0.3, (0.0, 10.0), cfg)
        assert traj.status == "completed"
        assert traj.t_end == 10.0
        ref = integrate_dde(dde_rhs, [1.0], 0.3, (0.0, 10.0), TIGHT)
        assert abs(traj.states[-1, 0] - ref.states[-1, 0]) < 1e-3

    def test_lookup_past_last_instant(self):
        # a delayed lookup past the last stored instant by rounding reads
        # its state; one further on is a logic error. The public evaluate
        # admits nothing past the span.
        traj = Trajectory(0.0, np.zeros(1), 2)
        traj.append(3.9, np.ones(1), np.zeros((1, 4)), 3.9)
        assert np.array_equal(traj._lookup(3.9000000000000004), [1.0])
        with pytest.raises(AssertionError, match="beyond computed solution"):
            traj._lookup(3.9 + 1e-9)
        with pytest.raises(ValueError, match="outside the trajectory span"):
            traj.evaluate(np.nextafter(traj.t_end, np.inf))

    def test_future_lookup_still_guarded(self, monkeypatch):
        # a plan that ignores the breakpoints looks up uncomputed solution
        monkeypatch.setattr(integrators, "_plan", lambda t, t_end, h_cap: [(t, 10.0)])
        with pytest.raises(AssertionError, match="beyond computed solution"):
            integrate_dde(dde_rhs, [1.0], 0.3, (0.0, 10.0),
                          IntegratorConfig(h_max=10.0))

    def test_step_budget_spans_lag_intervals(self):
        # 3 steps reach the first breakpoint and 100 the end; a budget of 20
        # counts the attempts of every interval, not of the current one
        cfg = IntegratorConfig(h_max=0.1, max_steps=20)
        full = integrate_dde(dde_rhs, [1.0], 0.3, (0.0, 10.0), replace(cfg, max_steps=100))
        assert full.status == "completed"
        assert np.count_nonzero(full.times[1:] <= 0.3) == 3
        with pytest.raises(IntegrationError, match="step budget exhausted") as exc:
            integrate_dde(dde_rhs, [1.0], 0.3, (0.0, 10.0), cfg)
        assert exc.value.t_reached == pytest.approx(2.0)

    def test_nonpositive_lag_rejected(self):
        with pytest.raises(ValueError):
            integrate_dde(dde_rhs, [1.0], 0.0, (0.0, 1.0))

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_non_finite_lag_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            integrate_dde(dde_rhs, [1.0], tau, (0.0, 1.0))

    def test_lookups_return_stored_states_exactly(self, monkeypatch):
        # every stored instant sits at theta = 0 of its own step; the newest
        # one is served by the zero step stored past it
        filled = []
        append = Trajectory.append

        def checked_append(traj, t, y, coeff, h):
            if not filled:
                filled.append((traj, traj.times.size))
            append(traj, t, y, coeff, h)
            assert np.array_equal(traj._lookup(t), y)

        monkeypatch.setattr(Trajectory, "append", checked_append)
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, h_max=0.1)
        traj = integrate_dde(dde_rhs, [1.0, 0.5], 0.3, (0.0, 60.0), cfg)
        ((filling, start_rows),) = filled
        assert filling is traj
        # the tolerance, not the step cap, sets the step: the run outgrows
        # the storage sized from the cap, so lookups span a regrown copy
        assert traj.times.size > start_rows
        for i in range(traj.times.size):
            t = float(traj.times[i])
            assert np.array_equal(traj._lookup(t), traj.states[i])

    def test_batched_lookups_match_per_instant(self, monkeypatch, keep_whole_store):
        # a step's one lookup over its stage instants gives the bits of one
        # lookup per instant, over the whole run
        keep_whole_store()
        delayed = simulate_delayed_ring()
        monkeypatch.setattr(integrators, "_dense", dense_per_instant)
        oracle = simulate_delayed_ring()
        assert np.array_equal(delayed.times, oracle.times)
        assert np.array_equal(delayed.states, oracle.states)
        assert np.array_equal(delayed._coeffs, oracle._coeffs)
        assert np.array_equal(delayed._h, oracle._h)

    def test_one_lookup_per_interval_and_off_plan_step(self, monkeypatch):
        dense, lookup, plan = integrators._dense, Trajectory._lookup, integrators._plan
        integrate = integrators._integrate
        evaluations, lookups, plans, maps = [], [], [], []

        def counted_dense(*args):
            evaluations.append(np.size(args[-1]))
            return dense(*args)

        def counted_lookup(traj, t):
            lookups.append(np.shape(t))
            return lookup(traj, t)

        def counted_plan(*args):
            plans.append(args)
            return plan(*args)

        def counted_integrate(*args, **kwargs):
            *rest, lag_map = args

            def counted_map(z):
                maps.append(z.shape)
                return lag_map(z)

            return integrate(*rest, counted_map, **kwargs)

        monkeypatch.setattr(integrators, "_dense", counted_dense)
        monkeypatch.setattr(Trajectory, "_lookup", counted_lookup)
        monkeypatch.setattr(integrators, "_plan", counted_plan)
        monkeypatch.setattr(integrators, "_integrate", counted_integrate)
        traj = simulate_delayed_ring()
        intervals = len(plans)  # one plan per lag interval
        assert intervals == 120  # 60 s at tau = 0.5 s
        assert traj.attempts == traj.times.size - 1  # none rejected
        # the first interval's steps ramp up from the initial step size and
        # leave the grid of the cap; every later step is at the cap, as
        # planned: five to an interval
        ramp = int(np.count_nonzero(traj.times[1:] <= 0.5))
        assert ramp == 8
        assert np.allclose(traj._h[ramp:-1], 0.1, rtol=1e-12, atol=0.0)
        # one lookup per interval, over the five stage instants of each
        # planned step; one per off-plan step; one for the start derivative
        # at t0 and one for the probe that picks the initial step size
        assert Counter(lookups) == {(25,): intervals, (5,): ramp, (1,): 2}
        # the map sees each lookup's whole batch once
        assert Counter(maps) == {(25, 20): intervals, (5, 20): ramp, (1, 20): 2}
        # the other evaluations read the 1801 instants of the 30 Hz grid, once each
        assert len(evaluations) > len(lookups)
        assert sum(evaluations) - sum(math.prod(s) for s in lookups) == 1801

    def test_off_plan_steps_match_per_stage_lookups(self, monkeypatch):
        # from 1.5 s to about 9 s the tolerance, not the cap, sets the step,
        # and the steps leave their interval's plan. In 41 of the 200
        # intervals the last planned step's delayed instant rounds past the
        # interval's start, so the plan ends a step early (10 instants).
        # The oracle plans nothing and reads every stage's delayed state
        # alone.
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, h_max=0.1)
        dense = integrators._dense
        lookups = []

        def counted_dense(*args):
            lookups.append(np.size(args[-1]))
            return dense(*args)

        with monkeypatch.context() as m:
            m.setattr(integrators, "_dense", counted_dense)
            planned = integrate_dde(dde_rhs, [1.0, 0.5], 0.3, (0.0, 60.0), cfg)
        assert Counter(lookups) == {15: 159, 10: 41, 5: 114, 1: 2}
        monkeypatch.setattr(integrators, "_plan", lambda t, t_end, h_cap: [])
        monkeypatch.setattr(integrators, "_dense", dense_per_instant)
        oracle = integrate_dde(dde_rhs, [1.0, 0.5], 0.3, (0.0, 60.0), cfg)
        assert np.array_equal(planned.times, oracle.times)
        assert np.array_equal(planned.states, oracle.states)
        assert np.array_equal(planned._coeffs, oracle._coeffs)
        assert np.array_equal(planned._h, oracle._h)

    def test_lag_map_matches_map_folded_into_f(self):
        # f given the mapped rows gives the bits of f applying the map itself
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, h_max=0.1)
        batches = []

        def double(z):
            batches.append(z.shape)
            return 2 * z

        mapped = integrate_dde(lambda t, y, w: -(w / 2) + 0.1 * y, [1.0, 0.5], 0.3,
                               (0.0, 10.0), cfg, lag_map=double)
        folded = integrate_dde(lambda t, y, z: -((2 * z) / 2) + 0.1 * y, [1.0, 0.5],
                               0.3, (0.0, 10.0), cfg)
        # 33 intervals of 0.3 s plan three steps at the cap (two in the 3
        # whose last delayed instant rounds past the interval's start), the
        # last 0.1 s one, whose batch has the 5 rows of an off-plan step; the
        # tolerance sets the step, so 92 steps are off the plan
        assert Counter(batches) == {(15, 2): 30, (10, 2): 3, (5, 2): 1 + 92, (1, 2): 2}
        assert np.array_equal(mapped.times, folded.times)
        assert np.array_equal(mapped.states, folded.states)
        assert np.array_equal(mapped._coeffs, folded._coeffs)
        assert np.array_equal(mapped._h, folded._h)

    def test_lag_map_domain_error_matches_f_raising_it(self):
        # y[0] is a clock. The map rejects delayed states past 2.05 s, which
        # the lookups first reach inside the interval [2.1, 2.4]: the error
        # must hit the step whose own lookup reads them, not the interval's
        # planned batch, and end the run where f raising it ends the run
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, h_max=0.1)

        def check(z):
            if np.any(z[..., 0] > 2.05):
                raise _Boom("delayed clock past 2.05 s")
            return z

        def f(t, y, z):
            return np.array([1.0, -z[1]])

        mapped = integrate_dde(f, [0.0, 1.0], 0.3, (0.0, 10.0), cfg,
                               domain_error=_Boom, lag_map=check)
        folded = integrate_dde(lambda t, y, z: f(t, y, check(z)), [0.0, 1.0], 0.3,
                               (0.0, 10.0), cfg, domain_error=_Boom)
        assert mapped.status == folded.status == "terminated"
        ((t_ev, exc),) = mapped.events
        ((t_folded, exc_folded),) = folded.events
        assert t_ev == t_folded
        assert 2.3 < t_ev < 2.4
        assert isinstance(exc, _Boom) and isinstance(exc_folded, _Boom)
        assert np.array_equal(mapped.times, folded.times)
        assert np.array_equal(mapped.states, folded.states)
        assert np.array_equal(mapped._coeffs, folded._coeffs)
        assert np.array_equal(mapped._h, folded._h)

    def test_initial_state_from_history(self):
        traj = integrate_dde(dde_rhs, [2.5], 1.0, (0.0, 0.0))
        assert traj.states[0, 0] == 2.5

