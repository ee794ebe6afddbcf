from dataclasses import replace

import numpy as np
import pytest

from ringsim import integrators, ring
from ringsim.integrators import IntegratorConfig, integrate_ode
from ringsim.models import (
    CollisionError,
    FsParams,
    FsRegion,
    IdmParams,
    fs_accel,
    fs_boundary,
    fs_command,
    fs_region,
    idm_accel,
    idm_equilibrium_speed,
)
from ringsim.ring import (
    RingScenario,
    apply_perturbation,
    build_uniform_scenario,
    equilibrium_scenario,
    initial_state,
    rhs,
    sample,
    simulate,
)

TIGHT = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)


class TestPresets:
    def test_idm(self):
        sc = build_uniform_scenario("idm")
        assert sc.tau == 0.0
        assert sc.n_vehicles == 10
        assert sc.ring_length == 100.0
        assert sc.v_init == 5.0
        assert sc.perturb_amp == 1e-3
        assert sc.t_end == 1500.0
        assert sc.sample_hz == 30.0
        assert all(isinstance(p, IdmParams) for p in sc.controllers)

    def test_idm_delayed(self):
        sc = build_uniform_scenario("idm_delayed")
        assert sc.tau == 0.5
        assert all(isinstance(p, IdmParams) for p in sc.controllers)

    def test_mixed_delayed(self):
        sc = build_uniform_scenario("mixed_delayed")
        assert sc.tau == 0.5
        assert isinstance(sc.controllers[0], FsParams)
        assert all(isinstance(p, IdmParams) for p in sc.controllers[1:])

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_uniform_scenario("bogus")

    @pytest.mark.parametrize("preset", ["idm", "idm_delayed"])
    def test_equilibrium_scenario(self, preset):
        v_eq = idm_equilibrium_speed(10.0, IdmParams())
        want = replace(build_uniform_scenario(preset, seed=3), v_init=v_eq, perturb_amp=0.0)
        assert equilibrium_scenario(preset, seed=3) == want

    @pytest.mark.parametrize("preset", ["mixed", "mixed_delayed"])
    def test_equilibrium_scenario_rejects_follower_stopper(self, preset):
        # uniform flow at the IDM speed would start the FollowerStopper
        # vehicle off its equilibrium
        with pytest.raises(ValueError, match="FollowerStopper"):
            equilibrium_scenario(preset)

    def test_initial_spacing_exact(self):
        sc = build_uniform_scenario("idm")
        z = initial_state(sc)
        x = z[0::2]
        leaders = (np.arange(10) - 1) % 10
        gaps = (x[leaders] - x) % 100.0
        assert np.all(gaps == 10.0)

    def test_scenario_validation(self):
        idm = IdmParams()
        with pytest.raises(ValueError):
            RingScenario(ring_length=100.0, controllers=(idm,))
        with pytest.raises(ValueError):  # spacing below standstill gap
            RingScenario(ring_length=3.0, controllers=(idm, idm))
        with pytest.raises(ValueError):
            RingScenario(ring_length=100.0, controllers=(idm, idm), tau=-1.0)

    @pytest.mark.parametrize(
        "field", ["ring_length", "tau", "v_init", "perturb_amp", "t_end", "sample_hz"])
    def test_non_finite_field_rejected(self, field):
        # an infinite ring gives NaN initial positions
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RingScenario(**{"ring_length": 100.0, "controllers": (IdmParams(),) * 2,
                            field: np.inf})


class TestPerturbation:
    def test_zero_amplitude_identity(self):
        sc = build_uniform_scenario("idm")
        z = initial_state(sc)
        assert np.array_equal(apply_perturbation(z, 0.0, 42), z)

    def test_deterministic_and_bounded(self):
        z = initial_state(build_uniform_scenario("idm"))
        a = apply_perturbation(z, 1e-3, 42)
        b = apply_perturbation(z, 1e-3, 42)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a[1::2] - z[1::2])) <= 1e-3
        assert np.array_equal(a[0::2], z[0::2])
        c = apply_perturbation(z, 1e-3, 43)
        assert not np.array_equal(a, c)

    def test_clamped_at_zero(self):
        sc = replace(build_uniform_scenario("idm"), v_init=0.0)
        z = apply_perturbation(initial_state(sc), 1e-3, 7)
        assert np.all(z[1::2] >= 0.0)
        assert np.all(z[1::2] <= 1e-3)


class TestRhs:
    def test_position_derivatives_equal_velocity_slots(self):
        sc = build_uniform_scenario("idm")
        rng = np.random.default_rng(0)
        z = initial_state(sc)
        z[1::2] = rng.uniform(0.0, 8.0, 10)
        dz = rhs(0.0, z, z, sc)
        assert np.array_equal(dz[0::2], z[1::2])

    def test_equilibrium_is_fixed_point(self):
        sc = build_uniform_scenario("idm")
        v_e = idm_equilibrium_speed(10.0, IdmParams())
        z = initial_state(sc)
        z[1::2] = v_e
        dz = rhs(0.0, z, z, sc)
        assert np.max(np.abs(dz[1::2])) < 1e-11
        assert np.all(dz[0::2] == v_e)

    def test_standstill_never_reverses(self):
        # vehicle 1 stopped inside its standstill gap: the model demands
        # braking, but a stopped vehicle must not accelerate backwards
        sc = build_uniform_scenario("idm")
        z = initial_state(sc)
        z[2] = (z[0] - 1.5) % 100.0  # 1.5 m behind vehicle 0, below s0 = 2
        z[1::2] = 5.0
        z[3] = 0.0
        dz = rhs(0.0, z, z, sc)
        assert dz[3] == 0.0
        # the same state with the vehicle still moving would brake hard
        z[3] = 1.0
        dz = rhs(0.0, z, z, sc)
        assert dz[3] < 0.0

    def test_moving_vehicle_brakes_near_leader(self):
        sc = build_uniform_scenario("idm")
        z = initial_state(sc)
        z[2] = (z[0] - 2.5) % 100.0
        z[1::2] = 5.0
        dz = rhs(0.0, z, z, sc)
        assert dz[3] < -1.0

    def test_collision_raises(self):
        sc = build_uniform_scenario("idm")
        z = initial_state(sc)
        z[2] = z[0]
        with pytest.raises(CollisionError) as info:
            rhs(0.0, z, z, sc)
        assert info.value.vehicle == 1

    def test_delayed_inputs_feed_idm(self):
        # with tau > 0 the IDM must see the delayed state, not the current;
        # give the accessor a different state and check it is the one used
        sc = replace(build_uniform_scenario("idm_delayed"), tau=0.5)
        z_now = initial_state(sc)
        z_then = z_now.copy()
        z_then[1::2] = 2.0  # delayed speeds differ
        dz = rhs(0.0, z_now, z_then, sc)
        sc0 = replace(sc, tau=0.0)
        dz_ref = rhs(0.0, z_then, z_then, sc0)
        assert np.allclose(dz[1::2], dz_ref[1::2], atol=1e-15)
        # kinematics stays current
        assert np.array_equal(dz[0::2], z_now[1::2])

    def test_fs_vehicle_ignores_delay(self):
        sc = build_uniform_scenario("mixed_delayed")
        z_now = initial_state(sc)
        z_then = z_now.copy()
        z_then[1::2] = 0.0
        dz = rhs(0.0, z_now, z_then, sc)
        # vehicle 0 (FollowerStopper) reacts to the current state: gap 10 is
        # beyond the outermost envelope so it tracks r = 4.75 from v = 5
        assert dz[1] == pytest.approx(1.0 * (4.75 - 5.0), abs=1e-12)


def oracle_rhs(z, z_delayed, scenario):
    """Fleet derivative by a per-vehicle loop over the scalar laws."""
    n, length = scenario.n_vehicles, scenario.ring_length
    x, v = z[0::2], z[1::2]
    xd, vd = z_delayed[0::2], np.maximum(z_delayed[1::2], 0.0)
    out = np.empty_like(z)
    out[0::2] = v
    for i, p in enumerate(scenario.controllers):
        ldr = (i - 1) % n
        if isinstance(p, FsParams):
            cmd = fs_command(float((x[ldr] - x[i]) % length),
                             float(v[ldr] - v[i]), float(v[ldr]), p)
            acc = fs_accel(float(v[i]), cmd, p)
        else:
            acc = idm_accel(float((xd[ldr] - xd[i]) % length),
                            float(vd[i]), float(vd[i] - vd[ldr]), p)
        out[2 * i + 1] = 0.0 if v[i] <= 0.0 and acc < 0.0 else acc
    return out


def random_ring_state(rng, n, length, stopped=()):
    """Positive gaps summing to the ring length, speeds in [0, 8) m/s.

    The vehicles in ``stopped`` stand still 1 m behind their leader, inside
    every standstill gap, so the IDM asks them to brake.
    """
    gaps = rng.uniform(0.5, 1.5, n)
    gaps[list(stopped)] = 0.0
    gaps *= (length - len(stopped)) / gaps.sum()
    gaps[list(stopped)] = 1.0
    z = np.empty(2 * n)
    z[0::2] = (-np.cumsum(gaps) + gaps[0] + rng.uniform(0.0, length)) % length
    z[1::2] = rng.uniform(0.0, 8.0, n)
    z[2 * np.asarray(stopped, dtype=int) + 1] = 0.0
    return z


class TestRhsMatchesScalarOracle:
    """rhs against a per-vehicle loop over the 0-d control laws."""

    N = 12
    LENGTH = 120.0

    def scenario(self, fs_at, tau):
        rng = np.random.default_rng(5)
        controllers = [
            IdmParams(a=rng.uniform(0.5, 1.5), v0=rng.uniform(20.0, 35.0),
                      delta=rng.choice([2.0, 4.0, 4.5]), s0=rng.uniform(1.5, 3.0),
                      T=rng.uniform(1.0, 2.0), b=rng.uniform(1.0, 2.5))
            for _ in range(self.N)
        ]
        for i in fs_at:
            controllers[i] = FsParams(r=4.0 + i / 10)
        return RingScenario(ring_length=self.LENGTH, controllers=tuple(controllers),
                            tau=tau)

    @pytest.mark.parametrize("fs_at", [(), (0,), (6,), (0, 6)],
                             ids=["idm_only", "fs_first", "fs_middle", "two_fs"])
    @pytest.mark.parametrize("delayed", [False, True], ids=["now", "delayed"])
    def test_random_states(self, fs_at, delayed):
        sc = self.scenario(fs_at, 0.5 if delayed else 0.0)
        rng = np.random.default_rng(17)
        clamped = 0
        for k in range(40):
            stopped = (3, 9) if k % 2 else ()
            z = random_ring_state(rng, self.N, self.LENGTH, stopped)
            zd = random_ring_state(rng, self.N, self.LENGTH, stopped) if delayed else z
            got = rhs(0.0, z, zd, sc)
            want = oracle_rhs(z, zd, sc)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
            clamped += sum(got[2 * i + 1] == 0.0 for i in stopped)
        assert clamped >= 20  # the standstill clamp was exercised

    @pytest.mark.parametrize("region", list(FsRegion), ids=lambda r: r.name.lower())
    @pytest.mark.parametrize("delayed", [False, True], ids=["now", "delayed"])
    def test_follower_stopper_column_bit_exact(self, region, delayed):
        # the FollowerStopper acceleration is the scalar law on Python floats,
        # operation for operation: compared with ==, as a reordered operation
        # would hide inside the 1e-13 the IDM columns need for pow
        sc = self.scenario((0, 6), 0.5 if delayed else 0.0)
        fleet = ring._Fleet(sc)
        rng = np.random.default_rng(23)
        for _ in range(25):
            # no vehicle at standstill, so the clamp never acts; closing
            # speeds stay small, so every band fits inside half the ring
            v = rng.uniform(0.5, 4.0, self.N)
            gaps = rng.uniform(0.5, 1.5, self.N)
            for i in (0, 6):
                p = sc.controllers[i]
                d = [fs_boundary(j, v[i - 1] - v[i], p) for j in (1, 2, 3)]
                lo, hi = ([0.1] + d + [d[2] + 5.0])[region - 1:region + 1]
                gaps[i] = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
            gaps[1:6] *= (self.LENGTH / 2 - gaps[6]) / gaps[1:6].sum()
            gaps[7:] *= (self.LENGTH / 2 - gaps[0]) / gaps[7:].sum()
            z = np.empty(2 * self.N)
            z[0::2] = (rng.uniform(0.0, self.LENGTH) - np.cumsum(gaps) + gaps[0]) % self.LENGTH
            z[1::2] = v
            lag = None
            if delayed:
                zd = random_ring_state(rng, self.N, self.LENGTH)
                lag = next(zip(*ring._delayed_half(zd[None], fleet)))
            got = ring._deriv(z, lag, fleet)
            x = z[0::2]
            for i in (0, 6):
                p = sc.controllers[i]
                gap = float((x[i - 1] - x[i]) % self.LENGTH)
                v_i, v_lead = float(v[i]), float(v[i - 1])
                assert fs_region(gap, v_lead - v_i, p) is region
                want = fs_accel(v_i, fs_command(gap, v_lead - v_i, v_lead, p), p)
                assert got[2 * i + 1] == want

    def test_nonpositive_delayed_gap_raises(self):
        # current gaps positive, but at t - tau vehicle 1 sat on vehicle 0
        sc = build_uniform_scenario("idm_delayed")
        z_now = initial_state(sc)
        z_then = z_now.copy()
        z_then[2] = z_then[0]
        with pytest.raises(CollisionError) as info:
            rhs(0.0, z_now, z_then, sc)
        assert info.value.vehicle == 1

    def test_follower_stopper_delayed_gap_not_checked(self):
        # the FollowerStopper vehicle acts on the current state only
        sc = build_uniform_scenario("mixed_delayed")
        z_now = initial_state(sc)
        z_then = z_now.copy()
        z_then[0] = z_then[18]  # vehicle 0 on its leader, vehicle 9, at t - tau
        z_then[2] = (z_then[0] - 10.0) % 100.0
        dz = rhs(0.0, z_now, z_then, sc)
        np.testing.assert_allclose(dz, oracle_rhs(z_now, z_then, sc), rtol=1e-13, atol=1e-15)


def crash_scenario(tau):
    """A FollowerStopper vehicle at 10 m/s, 1 m behind a stopped IDM leader."""
    sc = RingScenario(ring_length=100.0, controllers=(FsParams(), IdmParams()),
                      tau=tau, t_end=10.0)
    return sc, [9.0, 10.0, 10.0, 0.0]


class TestSimulate:
    def test_gap_conservation(self):
        sc = replace(build_uniform_scenario("idm"), t_end=20.0)
        traj = simulate(sc, TIGHT)
        x = traj.states[:, 0::2]
        leaders = (np.arange(10) - 1) % 10
        gaps = (x[:, leaders] - x) % 100.0
        assert np.allclose(gaps.sum(axis=1), 100.0, rtol=1e-6)

    def test_rotational_symmetry(self):
        base = replace(build_uniform_scenario("idm"), t_end=10.0)
        z0 = apply_perturbation(initial_state(base), base.perturb_amp, base.seed)
        shift = 17.3
        traj_a = simulate(base, TIGHT, z0=z0)
        traj_b = simulate(base, TIGHT, z0=np.concatenate(
            [[x + shift, v] for x, v in zip(z0[0::2], z0[1::2])]))
        sa = sample(traj_a, base)
        sb = sample(traj_b, base)
        diff = (sb.positions - sa.positions - shift) % 100.0
        diff = np.minimum(diff, 100.0 - diff)
        assert np.max(diff) < 1e-6
        assert np.max(np.abs(sb.velocities - sa.velocities)) < 1e-6

    def test_relabeling_symmetry(self):
        # rotating vehicle labels permutes the trajectory bit-for-bit
        base = replace(build_uniform_scenario("idm"), t_end=5.0)
        z0 = apply_perturbation(initial_state(base), base.perturb_amp, base.seed)
        n = base.n_vehicles
        rot = np.empty_like(z0)
        for i in range(n):
            src = (i + 1) % n
            rot[2 * i:2 * i + 2] = z0[2 * src:2 * src + 2]
        traj_a = simulate(base, TIGHT, z0=z0)
        traj_b = simulate(base, TIGHT, z0=rot)
        assert np.array_equal(traj_a.times, traj_b.times)
        for i in range(n):
            src = (i + 1) % n
            assert np.array_equal(traj_b.states[:, 2 * i], traj_a.states[:, 2 * src])
            assert np.array_equal(traj_b.states[:, 2 * i + 1], traj_a.states[:, 2 * src + 1])

    def test_uniform_manifold_invariant_short(self):
        sc = replace(equilibrium_scenario("idm"), t_end=50.0)
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)
        traj = simulate(sc, cfg)
        dev = np.abs(traj.states[:, 1::2] - sc.v_init).max()
        assert dev < 1e-6 * 100

    def test_velocities_never_negative_in_series(self):
        # three-vehicle ring engineered to brake to standstill
        idm = IdmParams()
        sc = RingScenario(ring_length=24.0, controllers=(idm,) * 3,
                          v_init=8.0, perturb_amp=0.5, seed=3, t_end=40.0,
                          sample_hz=30.0)
        traj = simulate(sc, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9))
        assert traj.status == "completed"
        series = sample(traj, sc)
        assert np.all(series.velocities >= 0.0)
        # raw states may undershoot only within solver tolerance
        assert traj.states[:, 1::2].min() > -1e-6

    def test_determinism(self):
        sc = replace(build_uniform_scenario("mixed_delayed"), t_end=8.0)
        a = simulate(sc, TIGHT)
        b = simulate(sc, TIGHT)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_zero_duration(self):
        sc = replace(build_uniform_scenario("idm"), t_end=0.0)
        traj = simulate(sc)
        assert traj.status == "completed"
        assert traj.times.shape == (1,)
        series = sample(traj, sc)
        z0 = apply_perturbation(initial_state(sc), sc.perturb_amp, sc.seed)
        assert np.array_equal(series.times, [0.0])
        assert np.array_equal(series.positions, [z0[0::2]])
        assert np.array_equal(series.velocities, [z0[1::2]])

    @pytest.mark.parametrize("lap", [0.0, 100.0])
    def test_coincident_start_terminates_at_t0(self, lap):
        # vehicle 1 on top of its leader, vehicle 0: at the same position,
        # and one lap on, across the wrap point
        sc = build_uniform_scenario("idm")
        z0 = initial_state(sc)
        z0[2] = z0[0] + lap
        traj = simulate(sc, z0=z0)
        assert traj.status == "terminated"
        assert traj.times.shape == (1,)
        ((t_ev, exc),) = traj.events
        assert t_ev == 0.0
        assert isinstance(exc, CollisionError)
        assert exc.vehicle == 1

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_follower_stopper_crash_terminates(self, tau):
        # the FollowerStopper vehicle cannot brake in time; it must neither
        # drive through its leader nor end the run in a solver failure
        sc, z0 = crash_scenario(tau)
        traj = simulate(sc, z0=z0)
        assert traj.status == "terminated"
        ((t_ev, exc),) = traj.events
        assert isinstance(exc, CollisionError)
        assert exc.vehicle == 0
        assert t_ev == traj.t_end == pytest.approx(0.1058145, abs=1e-6)
        x = traj.states[:, 0::2]
        assert np.all(x[:, 1] - x[:, 0] > 0.0)

    @pytest.mark.parametrize("tau", [0.1, 0.05])
    def test_delay_not_above_step_cap(self, tau):
        sc = replace(build_uniform_scenario("idm_delayed"), tau=tau, t_end=5.0)
        traj = simulate(sc)
        assert traj.status == "completed"
        assert traj.t_end == 5.0


def simulate_per_stage(monkeypatch, scenario, z0=None):
    """simulate with the delayed half run once per stage, on that stage's
    1-d delayed state alone, instead of once per step on the batch."""
    dde = integrators.integrate_dde

    def per_stage(f, y0, tau, t_span, cfg=None, domain_error=(), lag_map=None):
        fleet = ring._Fleet(scenario, y0)
        return dde(lambda t, y, zd: f(t, y, ring._delayed_half(zd, fleet)),
                   y0, tau, t_span, cfg, domain_error)

    with monkeypatch.context() as m:
        m.setattr(integrators, "integrate_dde", per_stage)
        return simulate(scenario, z0=z0)


class TestDelayedBatch:
    """The delay path evaluates the IDM law once per attempted step, over
    the delayed states of all its stages."""

    @pytest.mark.parametrize("preset", ["idm_delayed", "mixed_delayed"])
    def test_matches_per_stage_evaluation(self, monkeypatch, preset):
        sc = replace(build_uniform_scenario(preset), t_end=60.0)
        batched = simulate(sc)
        oracle = simulate_per_stage(monkeypatch, sc)
        assert batched.status == oracle.status == "completed"
        assert np.array_equal(batched.times, oracle.times)
        assert np.array_equal(batched.states, oracle.states)
        assert np.array_equal(batched._coeffs, oracle._coeffs)
        assert np.array_equal(batched._h, oracle._h)

    def test_crash_matches_per_stage_evaluation(self, monkeypatch):
        # the collision raises in a stage of a batched step: the run must
        # end at the same step, naming the same vehicle
        sc, z0 = crash_scenario(0.5)
        batched = simulate(sc, z0=z0)
        oracle = simulate_per_stage(monkeypatch, sc, z0)
        assert np.array_equal(batched.times, oracle.times)
        assert np.array_equal(batched.states, oracle.states)
        assert np.array_equal(batched._coeffs, oracle._coeffs)
        assert np.array_equal(batched._h, oracle._h)
        ((t_ev, exc),) = batched.events
        ((t_oracle, exc_oracle),) = oracle.events
        assert t_ev == t_oracle == pytest.approx(0.1058145, abs=1e-6)
        assert exc.vehicle == exc_oracle.vehicle == 0

    def test_idm_law_once_per_lookup(self, monkeypatch):
        dense = integrators._dense
        laws, lookups = [], []

        def counted_law(s, v, dv, p):
            laws.append(np.shape(s))
            return idm_accel(s, v, dv, p)

        def counted_dense(*args):
            lookups.append(np.ndim(args[-1]))
            return dense(*args)

        monkeypatch.setattr(ring, "idm_accel", counted_law)
        monkeypatch.setattr(integrators, "_dense", counted_dense)
        sc = replace(build_uniform_scenario("idm_delayed"), t_end=60.0)
        traj = simulate(sc)
        assert len(laws) == len(lookups)
        # a step's lookup covers its five distinct stage instants; interval
        # starts and the initial-step probe look up one instant
        assert set(laws) == {(5, 10), (1, 10)}
        assert laws.count((5, 10)) >= traj.times.size - 1


class TestRingSeries:
    def test_sample_wraps_and_clamps(self):
        sc = replace(build_uniform_scenario("idm"), t_end=20.0)
        series = sample(simulate(sc, TIGHT), sc)
        assert np.all(series.positions >= 0.0)
        assert np.all(series.positions < 100.0)
        assert np.all(series.velocities >= 0.0)
        assert series.times[0] == 0.0
        assert series.times[-1] == pytest.approx(20.0, abs=1e-9)
        assert len(series.times) == 601  # 30 Hz for 20 s inclusive

    def test_grid_ends_within_span(self):
        # t_end * sample_hz lies within 1e-9 of 600, so the grid has 601
        # points, and point 600 at 20 s would lie past the trajectory end
        sc = replace(build_uniform_scenario("idm"), t_end=np.nextafter(20.0, 0.0))
        traj = simulate(sc, TIGHT)
        series = sample(traj, sc)
        assert len(series.times) == 601
        assert series.times[-1] == traj.t_end

    def test_gap_sums_to_ring_length(self):
        sc = replace(build_uniform_scenario("idm"), t_end=10.0)
        series = sample(simulate(sc, TIGHT), sc)
        assert np.allclose(series.gaps().sum(axis=1), 100.0, rtol=1e-9)

    def test_gaps_computed_once_read_only(self):
        sc = replace(build_uniform_scenario("idm"), t_end=2.0)
        series = sample(simulate(sc, TIGHT), sc)
        gaps = series.gaps()
        assert series.gaps() is gaps
        assert not gaps.flags.writeable
        pos = series.positions
        assert np.array_equal(gaps, (np.roll(pos, 1, axis=1) - pos) % 100.0)

    def test_rows_equal_dense_output(self, monkeypatch):
        # 1801 instants in blocks of 7, the last one partial
        monkeypatch.setattr(ring, "_SAMPLE_BLOCK", 7)
        sc = replace(build_uniform_scenario("mixed_delayed"), t_end=60.0)
        traj = simulate(sc)
        series = sample(traj, sc)
        states = np.array([traj.evaluate(t) for t in series.times])
        assert np.array_equal(series.positions, states[:, 0::2] % sc.ring_length)
        assert np.array_equal(series.velocities, np.maximum(states[:, 1::2], 0.0))

    def test_quartic_reproduced(self):
        # y' = 4 t^3 is solved by t^4, which the quartic continuous extension
        # of each step reproduces between the step endpoints
        sc = RingScenario(ring_length=100.0, controllers=(IdmParams(),) * 2,
                          t_end=2.0, sample_hz=30.0)
        traj = integrate_ode(lambda t, y: np.array([4 * t**3, 0.0] * 2),
                             np.zeros(4), (0.0, sc.t_end))
        series = sample(traj, sc)
        assert np.max(np.abs(series.positions - series.times[:, None] ** 4)) < 1e-12

    def test_window(self):
        sc = replace(build_uniform_scenario("idm"), t_end=10.0)
        series = sample(simulate(sc, TIGHT), sc)
        w = series.window(4.0, 6.0)
        assert w.times[0] >= 4.0
        assert w.times[-1] <= 6.0
        assert w.positions.shape[0] == w.times.size
