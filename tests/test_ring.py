import gc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim import integrators, ring
from ringsim.integrators import IntegratorConfig, integrate_ode
from ringsim.models import (
    CollisionError,
    FsParams,
    FsRegion,
    IdmColumns,
    IdmParams,
    _fs_select,
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

    # numpy integers, and seeds of one to seven 32-bit words: SeedSequence
    # mixes words past its pool of four in a loop of their own
    @given(seed=st.integers(0, 2**210) | st.integers(0, 2**64 - 1).map(np.uint64)
           | st.integers(0, 2**63 - 1).map(np.int64),
           amp=st.sampled_from([0.0, 5e-324, 1e-3, 1e300]), n=st.integers(2, 64))
    @settings(max_examples=300, deadline=None)
    def test_offsets_are_numpys_uniform_stream(self, seed, amp, n):
        want = np.random.default_rng(seed).uniform(-amp, amp, n)
        assert np.array(ring._uniform(seed, -amp, amp, n)).tobytes() == want.tobytes()

    def test_seed_1_offsets_are_fixed(self):
        # the stock start, fixed in the package whatever numpy's Generator does
        z = initial_state(build_uniform_scenario("idm"))
        assert apply_perturbation(z, 1e-3, 1)[1:8:2].tolist() == [
            5.0000236432494, 5.000900927392652, 4.999288319225439, 5.000897298894275]
        assert ring._uniform(1, -1e-3, 1e-3, 4) == [
            2.3643249400513537e-05, 0.0009009273926518706,
            -0.0007116807745607325, 0.0008972988942744877]

    def test_rejected_seed_and_amplitude(self):
        z = initial_state(build_uniform_scenario("idm"))
        with pytest.raises(ValueError, match="seed"):
            apply_perturbation(z, 1e-3, -1)
        with pytest.raises(ValueError, match="amplitude"):
            apply_perturbation(z, -1e-3, 1)
        with pytest.raises(OverflowError):  # the range 2 * amp overflows, as in numpy
            apply_perturbation(z, 1e308, 1)
        with pytest.raises(TypeError):
            apply_perturbation(z, 1e-3, 1.0)


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
                lag = ring._delayed_half(zd[None], fleet)[0]
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

    def test_delayed_half_checks_its_batch(self):
        # a batch of three delayed states of a fleet with FollowerStopper
        # vehicles 0 and 6; vehicle i sits on its leader i - 1 where
        # x_i = x_(i-1), a gap of 0
        sc = self.scenario((0, 6), 0.5)
        fleet = ring._Fleet(sc)
        rng = np.random.default_rng(29)
        zd = np.array([random_ring_state(rng, self.N, self.LENGTH) for _ in range(3)])
        zd[0, 0] = zd[0, 2 * 11]  # a FollowerStopper column is never checked
        got = ring._delayed_half(zd, fleet)
        assert got.shape == (3, self.N)
        for row, z in zip(got, zd):
            assert np.array_equal(row, ring._delayed_half(z, fleet))
        # FollowerStopper vehicle 0 and IDM vehicles 4 and 8 in state 1, and
        # IDM vehicle 2 in state 2: the first flagged IDM vehicle of the
        # first state that has one is named
        for k, i in [(1, 8), (1, 4), (1, 0), (2, 2)]:
            zd[k, 2 * i] = zd[k, 2 * i - 2]
        with pytest.raises(CollisionError) as info:
            ring._delayed_half(zd, fleet)
        assert info.value.vehicle == 4

    def test_delayed_gap_named_before_current_gap(self):
        # the delayed state is read first: with the FollowerStopper vehicle
        # 0 on its leader now and IDM vehicle 3 on its leader at t - tau,
        # the collision names vehicle 3
        sc = build_uniform_scenario("mixed_delayed")
        z_now = initial_state(sc)
        z_then = z_now.copy()
        z_now[0] = z_now[18]
        z_then[6] = z_then[4]
        with pytest.raises(CollisionError) as info:
            rhs(0.0, z_now, z_then, sc)
        assert info.value.vehicle == 3


def same_bits(a, b):
    """Equal shapes and equal bits: a -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFleetHalvesBitExact:
    """The two halves of the fleet derivative on a fleet built as simulate
    builds it, lap offsets included, against the control laws of
    ringsim.models on the same arrays, bit for bit."""

    N = TestRhsMatchesScalarOracle.N
    LENGTH = TestRhsMatchesScalarOracle.LENGTH
    scenario = TestRhsMatchesScalarOracle.scenario

    def states(self, rng, z0, count):
        """Unwrapped states near z0, so its lap offsets hold: all moving,
        some at standstill 1 m behind their leader, one at -0.0 or -1e-12
        m/s, and one or two on or through their leader."""
        n, length = self.N, self.LENGTH
        laps = -length * np.floor((np.roll(z0[0::2], 1) - z0[0::2]) / length)
        for k in range(count):
            z = z0.copy()
            z[0::2] += rng.uniform(-4.0, 4.0, n) + rng.uniform(0.0, 3 * length)
            z[1::2] = rng.uniform(0.0, 8.0, n)
            kind, picks = k % 5, rng.choice(n, 2, replace=False)
            if kind == 1:
                for i in sorted(picks):  # gap 1 m, inside every standstill gap
                    z[2 * i] = z[2 * i - 2] + laps[i] - 1.0
                    z[2 * i + 1] = 0.0
            elif kind in (2, 3):
                z[2 * picks[0] + 1] = -0.0 if kind == 2 else -1e-12
            elif kind == 4:
                for i, gap in zip(picks, [0.0, -0.5][:1 + k % 2]):
                    z[2 * i] = z[2 * i - 2] + laps[i] - gap
            yield z

    def oracle_gaps(self, z, z0):
        x, x0 = z[..., 0::2], z0[0::2]
        ldr = (np.arange(self.N) - 1) % self.N
        return x[..., ldr] - x - self.LENGTH * np.floor((x0[ldr] - x0) / self.LENGTH)

    def oracle_idm(self, gaps, v, sc):
        cols = IdmColumns.stack([p if isinstance(p, IdmParams) else IdmParams()
                                 for p in sc.controllers])
        v = np.maximum(v, 0.0)
        return idm_accel(gaps, v, v - v[..., (np.arange(self.N) - 1) % self.N], cols)

    def oracle_delayed(self, zd, z0, sc, fs_at):
        gaps = self.oracle_gaps(zd, z0)
        gaps[..., list(fs_at)] = 1.0
        hit = np.argwhere(gaps.reshape(-1, self.N) <= 0.0)
        if len(hit):
            return int(hit[0][1])
        return self.oracle_idm(gaps, zd[..., 1::2], sc)

    def oracle_current(self, z, acc_d, z0, sc):
        gaps, v = self.oracle_gaps(z, z0), z[1::2]
        hit = np.flatnonzero(gaps <= 0.0)
        if len(hit):
            return int(hit[0])
        out = np.empty_like(z)
        out[0::2] = v
        acc = out[1::2]
        acc[:] = self.oracle_idm(gaps, v, sc) if acc_d is None else acc_d
        for i, p in enumerate(sc.controllers):
            if isinstance(p, FsParams):
                v_i, v_lead = float(v[i]), float(v[i - 1])
                cmd = _fs_select(float(gaps[i]), v_lead - v_i, v_lead, p)[1]
                acc[i] = fs_accel(v_i, cmd, p)
        acc[(v <= 0.0) & (acc < 0.0)] = 0.0
        return out

    def outcome(self, half, *args):
        try:
            return half(*args)
        except CollisionError as exc:
            return exc.vehicle

    def assert_same(self, got, want):
        if isinstance(want, int):
            assert got == want
        else:
            assert same_bits(got, want)

    @pytest.mark.parametrize("fs_at", [(), (0, 6)], ids=["idm_only", "two_fs"])
    @pytest.mark.parametrize("delayed", [False, True], ids=["now", "delayed"])
    def test_current_half(self, fs_at, delayed):
        sc = self.scenario(fs_at, 0.5 if delayed else 0.0)
        z0 = apply_perturbation(initial_state(sc), sc.perturb_amp, sc.seed)
        fleet = ring._Fleet(sc, z0)
        rng = np.random.default_rng(31)
        kinds = Counter()
        for z in self.states(rng, z0, 60):
            acc_d = None
            if delayed:
                acc_d = self.oracle_delayed(next(self.states(rng, z0, 1)), z0, sc, fs_at)
            want = self.oracle_current(z, acc_d, z0, sc)
            self.assert_same(self.outcome(ring._deriv, z, acc_d, fleet), want)
            kinds["collision" if isinstance(want, int) else "clamped"
                  if np.any((z[1::2] <= 0.0) & (want[1::2] == 0.0)) else "plain"] += 1
        assert kinds["collision"] >= 10 and kinds["clamped"] >= 10 and kinds["plain"] >= 20

    @pytest.mark.parametrize("fs_at", [(), (0, 6)], ids=["idm_only", "two_fs"])
    def test_delayed_half_batch(self, fs_at):
        sc = self.scenario(fs_at, 0.5)
        z0 = apply_perturbation(initial_state(sc), sc.perturb_amp, sc.seed)
        fleet = ring._Fleet(sc, z0)
        rng = np.random.default_rng(37)
        states = list(self.states(rng, z0, 60))
        named = 0
        for m in (1, 3, 5):
            for j in range(0, len(states) - m, m):
                zd = np.array(states[j:j + m])
                want = self.oracle_delayed(zd, z0, sc, fs_at)
                self.assert_same(self.outcome(ring._delayed_half, zd, fleet), want)
                named += isinstance(want, int)
                if m == 1:
                    self.assert_same(self.outcome(ring._delayed_half, zd[0], fleet),
                                     want if isinstance(want, int) else want[0])
        assert named >= 10


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
        # and one lap on, across the wrap point. The run ends at t0, with
        # and without delay, and its series is the start state alone
        for tau in (0.0, 0.5):
            sc = replace(build_uniform_scenario("idm"), tau=tau)
            z0 = initial_state(sc)
            z0[2] = z0[0] + lap
            traj = simulate(sc, z0=z0)
            assert traj.status == "terminated"
            assert traj.times.shape == (1,)
            ((t_ev, exc),) = traj.events
            assert t_ev == 0.0
            assert isinstance(exc, CollisionError)
            assert exc.vehicle == 1
            series = sample(traj, sc)
            assert np.array_equal(series.times, [0.0])
            assert np.array_equal(series.positions, [z0[0::2] % sc.ring_length])
            assert np.array_equal(series.velocities, [np.maximum(z0[1::2], 0.0)])

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

    @pytest.mark.parametrize("preset, tau", [("mixed", 0.0), ("idm_delayed", 0.03)],
                             ids=["ode", "short_lag"])
    def test_six_derivatives_per_attempted_step(self, monkeypatch, preset, tau):
        # the last stage of a step is the derivative at its end (FSAL), also
        # at a breakpoint: beyond the six stages of each attempted step, the
        # derivative is evaluated only at t0 and by the initial-step probe.
        # At tau 0.03 s each of the 1000 lag intervals is one step.
        deriv, calls = ring._deriv, []

        def counted_deriv(*args):
            calls.append(None)
            return deriv(*args)

        monkeypatch.setattr(ring, "_deriv", counted_deriv)
        traj = simulate(replace(build_uniform_scenario(preset), tau=tau, t_end=30.0))
        assert traj.status == "completed" and not traj.events
        assert len(calls) == 6 * traj.attempts + 2

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

    def per_stage(f, y0, tau, t_span, cfg=None, domain_error=(), lag_map=None, *,
                  sample_hz=None):
        fleet = ring._Fleet(scenario, y0)
        return dde(lambda t, y, zd: f(t, y, ring._delayed_half(zd, fleet)),
                   y0, tau, t_span, cfg, domain_error, sample_hz=sample_hz)

    with monkeypatch.context() as m:
        m.setattr(integrators, "integrate_dde", per_stage)
        return simulate(scenario, z0=z0)


class TestDelayedBatch:
    """The delay path evaluates the IDM law once per lag interval, over the
    delayed states of all the stages of the steps it plans at the cap, and
    once more for each attempted step off that plan. The runs compared
    step by step keep their whole dense output."""

    @pytest.mark.parametrize("preset", ["idm_delayed", "mixed_delayed"])
    def test_matches_per_stage_evaluation(self, monkeypatch, preset, keep_whole_store):
        sc = replace(build_uniform_scenario(preset), t_end=60.0)
        keep_whole_store()
        batched = simulate(sc)
        oracle = simulate_per_stage(monkeypatch, sc)
        assert batched.status == oracle.status == "completed"
        assert np.array_equal(batched.times, oracle.times)
        assert np.array_equal(batched.states, oracle.states)
        assert np.array_equal(batched._coeffs, oracle._coeffs)
        assert np.array_equal(batched._h, oracle._h)

    def test_crash_matches_per_stage_evaluation(self, monkeypatch, keep_whole_store):
        # the collision raises in a stage of a batched step: the run must
        # end at the same step, naming the same vehicle
        sc, z0 = crash_scenario(0.5)
        keep_whole_store()
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

    @pytest.mark.parametrize("tau, t_end, rejects", [
        # below h_max: a plan of one step per interval
        (0.03, 20.0, False),
        # a planned step is rejected at 23.6 s, inside [22.5, 24]
        (1.5, 25.0, True),
    ], ids=["short_lag", "rejected"])
    def test_off_plan_steps_match_per_stage_evaluation(self, monkeypatch, tau, t_end,
                                                       rejects, keep_whole_store):
        sc = replace(build_uniform_scenario("mixed_delayed"), tau=tau, t_end=t_end)
        lookup, plan = integrators.Trajectory._lookup, integrators._plan
        events = []  # the size of each lag lookup, and None for each _plan call

        def counted_lookup(traj, t):
            events.append(np.size(t))
            return lookup(traj, t)

        def counted_plan(*args):
            events.append(None)
            return plan(*args)

        # the lookups of the sampled run, which simulate returns; the sample
        # instants it evaluates are not lag lookups
        with monkeypatch.context() as m:
            m.setattr(integrators.Trajectory, "_lookup", counted_lookup)
            m.setattr(integrators, "_plan", counted_plan)
            sampled = simulate(sc)
        keep_whole_store()
        batched = simulate(sc)
        oracle = simulate_per_stage(monkeypatch, sc)
        assert sampled.status == batched.status == oracle.status == "completed"
        assert sampled.attempts == batched.attempts
        assert np.array_equal(sampled.states, batched.states)
        assert np.array_equal(batched.times, oracle.times)
        assert np.array_equal(batched.states, oracle.states)
        assert np.array_equal(batched._coeffs, oracle._coeffs)
        assert np.array_equal(batched._h, oracle._h)
        attempts, intervals = batched.attempts, events.count(None)  # one plan per interval
        lookups = [e for e in events if e is not None]
        # the start derivative and the initial-step probe precede the first
        # plan; each plan is directly followed by its interval's lookup, and
        # every other lookup is an off-plan step's own
        first = events.index(None)
        assert events[:first] == [1, 1]
        assert None not in [b for a, b in zip(events, events[1:]) if a is None]
        own = [b for a, b in zip(events[first:], events[first + 1:])
               if a is not None and b is not None]
        assert set(own) == {5}
        off_plan = len(own)
        # some steps leave the plan and some follow it
        assert 0 < off_plan < attempts
        assert len(lookups) == intervals + off_plan + 2
        assert (attempts > batched.times.size - 1) == rejects

    def test_idm_law_once_per_lookup(self, monkeypatch):
        # the fleet calls the IDM law's unchecked body, its gaps checked
        lookup, law = integrators.Trajectory._lookup, ring._idm_law
        laws, lookups = [], []

        def counted_law(s, v, dv, p):
            laws.append(np.shape(s))
            return law(s, v, dv, p)

        def counted_lookup(traj, t):  # the lag lookups, not the sample instants
            lookups.append(np.ndim(t))
            return lookup(traj, t)

        monkeypatch.setattr(ring, "_idm_law", counted_law)
        monkeypatch.setattr(integrators.Trajectory, "_lookup", counted_lookup)
        sc = replace(build_uniform_scenario("idm_delayed"), t_end=60.0)
        simulate(sc)
        assert len(laws) == len(lookups)
        # each of the 120 intervals looks up the five stage instants of its
        # five planned steps at once; the 8 steps that ramp up from the
        # initial step size look up their own five, and the start
        # derivative at t0 and the initial-step probe one instant each
        assert Counter(laws) == {(25, 10): 120, (5, 10): 8, (1, 10): 2}


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

    def test_rows_equal_dense_output(self, monkeypatch, keep_whole_store):
        # 1801 instants, evaluated by the solver in blocks of 7, the last
        # one partial, from a coefficient window of 7 rows that drops the
        # rows no later read needs; the reference is the whole dense output
        monkeypatch.setattr(integrators, "_ROWS", 7)
        sc = replace(build_uniform_scenario("mixed_delayed"), t_end=60.0)
        traj = simulate(sc)
        series = sample(traj, sc)
        assert traj._off > 0
        keep_whole_store()
        whole = simulate(sc)
        states = np.array([whole.evaluate(t) for t in series.times])
        assert np.array_equal(series.positions, states[:, 0::2] % sc.ring_length)
        assert np.array_equal(series.velocities, np.maximum(states[:, 1::2], 0.0))

    def test_quartic_reproduced(self):
        # y' = 4 t^3 is solved by t^4, which the quartic continuous extension
        # of each step reproduces between the step endpoints
        sc = RingScenario(ring_length=100.0, controllers=(IdmParams(),) * 2,
                          t_end=2.0, sample_hz=30.0)
        traj = integrate_ode(lambda t, y: np.array([4 * t**3, 0.0] * 2),
                             np.zeros(4), (0.0, sc.t_end), sample_hz=sc.sample_hz)
        series = sample(traj, sc)
        assert np.max(np.abs(series.positions - series.times[:, None] ** 4)) < 1e-12


class TestSamples:
    """simulate's samples are the bits of Trajectory.evaluate on a store of
    the same run's whole dense output, at every instant of the grid."""

    @pytest.mark.parametrize("preset, changes", [
        ("mixed", {}),
        ("idm_delayed", {}),
        # instants off the step grid
        ("mixed", {"sample_hz": 7.0}),
        ("idm_delayed", {"sample_hz": 7.0}),
        # at h_max 0.1 the breakpoints, every 0.5 s, are sample instants
        ("idm_delayed", {"sample_hz": 10.0}),
        ("idm_delayed", {"t_end": 0.0}),
        # error control, not the cap, sets the steps
        ("mixed_delayed", {"tau": 1.5}),
    ], ids=["ode", "delay", "ode_7hz", "delay_7hz", "delay_10hz", "t_end_0", "tau_1.5"])
    def test_samples_equal_whole_store(self, preset, changes, keep_whole_store):
        sc = replace(build_uniform_scenario(preset), **{"t_end": 150.0, **changes})
        traj, whole, series = sample_with_whole_store(keep_whole_store, sc)
        assert traj.status == "completed"
        assert traj.samples.shape == (series.times.size, 2 * sc.n_vehicles)
        if sc.t_end > 0:
            assert traj._off > 0  # the window dropped rows
        if sc.sample_hz == 10.0:
            assert np.isin(series.times, traj.times).any()

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_collision_clamped_last_instant(self, tau, keep_whole_store):
        # a rate at which the grid's fourth instant lies within 1e-9 of a
        # sample interval past the collision: the solver lays the grid out
        # again up to the collision and samples that instant clamped onto it
        sc, z0 = crash_scenario(tau)
        t1 = simulate(sc, z0=z0).t_end
        hz = 3.0 / t1
        while 3.0 / hz <= t1:
            hz = float(np.nextafter(hz, 0.0))
        sc = replace(sc, sample_hz=hz)
        traj, _, series = sample_with_whole_store(keep_whole_store, sc, z0)
        assert traj.status == "terminated"
        assert series.times.size == 4 and series.times[-1] == t1
        assert traj.samples.shape[0] == 4
        assert np.array_equal(traj.sample_times, series.times)

    def test_another_rate_is_rejected(self, keep_whole_store):
        # samples taken at 30 Hz are not the states of a 7 Hz grid, and a
        # trajectory integrated without a rate holds no samples at all
        sc = replace(build_uniform_scenario("idm"), t_end=10.0)
        traj = simulate(sc)
        assert traj.sample_hz == 30.0
        with pytest.raises(ValueError, match="sampled at 30.0 Hz, not at the scenario's 7.0 Hz"):
            sample(traj, replace(sc, sample_hz=7.0))
        keep_whole_store()
        whole = simulate(sc)
        assert whole.sample_hz is None and whole.samples.shape == (0, 2 * sc.n_vehicles)
        with pytest.raises(ValueError, match="sampled at None Hz"):
            sample(whole, sc)


def sample_with_whole_store(keep_whole_store, sc, z0=None):
    """simulate and sample sc, and check the series and the solver's samples
    against evaluate on the whole dense output of the same run."""
    traj = simulate(sc, z0=z0)
    series = sample(traj, sc)
    with pytest.MonkeyPatch.context() as m:
        keep_whole_store(m)
        whole = simulate(sc, z0=z0)
    assert np.array_equal(traj.times, whole.times)
    assert np.array_equal(traj.states, whole.states)
    z = whole.evaluate(series.times)
    assert np.array_equal(traj.samples, z)
    assert np.array_equal(series.positions, z[:, 0::2] % sc.ring_length)
    assert np.array_equal(series.velocities, np.maximum(z[:, 1::2], 0.0))
    return traj, whole, series


def storage(traj):
    """The arrays a trajectory holds, with the rows past its stored ones."""
    arrays = (traj.times, traj.states, traj._coeffs, traj._h, traj.samples, traj.sample_times)
    return [a if a.base is None else a.base for a in arrays]


class TestMemory:
    def test_simulate_holds_its_dense_output_once(self, traced_peak, keep_whole_store):
        # the 22-car, 230 m ring of Sugiyama et al. over 300 s: storage is
        # sized from the step cap and the sample grid, never regrown, and
        # handed over uncopied. Beyond it the run holds at most one block
        # of sample instants' evaluation, and the window drops rows.
        sc = RingScenario(ring_length=230.0, controllers=(IdmParams(),) * 22, t_end=300.0)
        traj, peak = traced_peak(simulate, sc)
        assert traj.times.base.size == 1 + 3000 + 16
        assert traj._off > 0
        block = np.linspace(traj.times[traj._off], traj.t_end, integrators._ROWS)
        _, block_peak = traced_peak(traj.evaluate, block)
        held = sum(a.nbytes for a in storage(traj))
        assert peak <= held + block_peak + 65536
        # the whole store of the same run holds it once as well
        keep_whole_store()
        whole, peak = traced_peak(simulate, sc)
        assert peak <= 1.25 * sum(a.nbytes for a in storage(whole))

    def test_coefficient_window_does_not_grow_with_the_run(self):
        # the 22-car ring samples its grid as it goes and keeps a window of
        # coefficient rows of one size whatever the run length; the states
        # of every step are kept
        sizes = []
        for t_end in (300.0, 1200.0):
            sc = RingScenario(ring_length=230.0, controllers=(IdmParams(),) * 22,
                              t_end=t_end)
            traj = simulate(sc)
            assert traj.times.size > 10 * t_end
            sizes.append(traj._coeffs.base.nbytes)
        assert sizes[0] == sizes[1] == integrators._ROWS * 44 * 4 * 8

    def test_sample_holds_the_series_and_one_block(self, traced_peak):
        # 9001 instants. The solver has sampled them all, a block at a time
        # (see test_simulate_holds_its_dense_output_once), so beyond the
        # series it returns, sample holds nothing.
        sc = replace(build_uniform_scenario("idm"), t_end=300.0)
        traj = simulate(sc)
        series, peak = traced_peak(sample, traj, sc)
        assert series.times is traj.sample_times and series.times.size == 9001
        assert peak <= series.positions.nbytes + series.velocities.nbytes + 4096

    @pytest.mark.parametrize("case", ["completed", "collision", "regrown"])
    def test_final_frees_the_dense_output(self, monkeypatch, case, keep_whole_store):
        # without the cycle collector: the storage goes when the last
        # reference to the full trajectory does, a collision's event included.
        # The returned arrays hold exactly the stored rows, and the kept
        # coefficient rows, also of a run that outgrew the storage sized
        # from the step cap (712 steps); without sample instants those are
        # all of its rows.
        collision = case == "collision"
        cfg = None
        if collision:
            scenario, z0 = crash_scenario(0.5)
        elif case == "regrown":
            scenario, z0 = replace(build_uniform_scenario("mixed_delayed"), t_end=60.0), None
            cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        else:
            scenario, z0 = replace(build_uniform_scenario("idm_delayed"), t_end=20.0), None
        gc.disable()
        try:
            traj = simulate(scenario, cfg, z0=z0)
            rows = traj.times.size
            assert [a.shape[0] for a in (traj.states, traj._h)] == [rows] * 2
            assert traj._coeffs.shape[0] == rows - traj._off
            if case == "regrown":
                assert rows == 713
                assert traj.times.base.size > 617 > traj._off > 0
                with monkeypatch.context() as m:
                    keep_whole_store(m)
                    whole = simulate(scenario, cfg, z0=z0)
                assert whole._coeffs.shape[0] == whole.times.size == rows
                del whole
            stored = [weakref.ref(a) for a in storage(traj)]
            end = traj.final()
            status, events, last = traj.status, traj.events, traj.states[-1].copy()
            del traj
            assert [ref() for ref in stored] == [None] * len(stored)
        finally:
            gc.enable()
        assert status == ("terminated" if collision else "completed")
        assert end.status == status and end.events == events
        assert np.array_equal(end.states, [last]) and end.times.size == 1
        assert np.array_equal(end.evaluate(end.t_end), last)
