import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    idm_desired_gap,
    idm_equilibrium_speed,
)

P = IdmParams()      # a=0.73, v0=33.33, delta=4, s0=2, T=1.6, b=1.67
FS = FsParams()      # r=4.75, omega=(2.25,3,4.5), alpha=(1,0.7,0.5)


class TestDesiredGap:
    def test_standstill_collapses_to_s0(self):
        assert idm_desired_gap(0.0, 0.0, P) == 2.0

    def test_cruise_term(self):
        assert idm_desired_gap(5.0, 0.0, P) == pytest.approx(10.0, abs=1e-12)

    def test_closing_term(self):
        # 10 + 10 / (2*sqrt(0.73*1.67)), evaluated independently
        expected = 10.0 + 10.0 / (2.0 * math.sqrt(0.73 * 1.67))
        assert expected == pytest.approx(14.528457943140674, abs=1e-12)
        assert idm_desired_gap(5.0, 2.0, P) == pytest.approx(expected, abs=1e-12)

    def test_opening_gap_not_clamped(self):
        # strongly opening traffic can push the desired gap below s0
        assert idm_desired_gap(5.0, -10.0, P) < P.s0


class TestIdmAccel:
    def test_free_road_start(self):
        assert idm_accel(1e12, 0.0, 0.0, P) == pytest.approx(0.73, abs=1e-12)

    def test_desired_speed_equilibrium(self):
        acc = idm_accel(1e12, P.v0, 0.0, P)
        assert -1e-8 < acc <= 0.0

    def test_hand_value_at_10m(self):
        expected = 0.73 * (1.0 - (5.0 / 33.33) ** 4 - 1.0)
        assert expected == pytest.approx(-3.697103619636111e-4, abs=1e-12)
        assert idm_accel(10.0, 5.0, 0.0, P) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_nonpositive_gap_is_collision(self, s):
        with pytest.raises(CollisionError):
            idm_accel(s, 5.0, 0.0, P)

    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0), st.floats(0.5, 200.0))
    def test_strictly_decreasing_in_speed(self, v1, v2, s):
        lo, hi = sorted((v1, v2))
        if hi - lo < 1e-6:  # below float resolution of the acceleration
            return
        assert idm_accel(s, lo, 0.0, P) > idm_accel(s, hi, 0.0, P)

    @given(st.floats(0.5, 100.0), st.floats(0.5, 100.0),
           st.floats(0.0, 30.0), st.floats(-10.0, 10.0))
    def test_strictly_increasing_in_gap(self, s1, s2, v, dv):
        lo, hi = sorted((s1, s2))
        if hi - lo < 1e-6:
            return
        assert idm_accel(lo, v, dv, P) < idm_accel(hi, v, dv, P)


class TestEquilibriumSpeed:
    def test_standstill_gap(self):
        assert idm_equilibrium_speed(P.s0, P) == 0.0
        assert idm_equilibrium_speed(P.s0 / 2, P) == 0.0

    def test_free_flow_limit(self):
        assert idm_equilibrium_speed(1e9, P) == pytest.approx(P.v0, abs=1e-6)

    def test_ten_meter_gap_matches_independent_bisection(self):
        # independent oracle: plain bisection on the acceleration residual
        def residual(v):
            sstar = P.s0 + v * P.T
            return P.a * (1 - (v / P.v0) ** P.delta - (sstar / 10.0) ** 2)

        lo, hi = 0.0, P.v0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0:
                lo = mid
            else:
                hi = mid
        v_e = idm_equilibrium_speed(10.0, P)
        assert v_e == pytest.approx(mid, abs=1e-9)
        assert v_e == pytest.approx(4.998419136, abs=1e-6)

    @given(st.floats(2.5, 500.0))
    def test_residual_and_range(self, s):
        v_e = idm_equilibrium_speed(s, P)
        assert 0.0 <= v_e <= P.v0
        assert abs(idm_accel(s, v_e, 0.0, P)) < 1e-10

    @pytest.mark.parametrize("s", [10.0, 230.0 / 22.0, 9.60198, 1e9])
    def test_bisects_to_the_last_float(self, s):
        # the bracket shrinks to adjacent floats, so the residual is at the
        # rounding level of the law, not at a stopping tolerance
        assert abs(idm_accel(s, idm_equilibrium_speed(s, P), 0.0, P)) < 1e-15


class TestFsBoundary:
    def test_quiescent(self):
        assert fs_boundary(1, 0.0, FS) == 2.25

    def test_positive_dv_clamped(self):
        assert fs_boundary(1, 3.0, FS) == 2.25

    def test_closing_inflates(self):
        assert fs_boundary(1, -1.0, FS) == pytest.approx(2.75, abs=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            fs_boundary(0, 0.0, FS)

    @given(st.floats(-20.0, 5.0), st.floats(-20.0, 5.0),
           st.integers(min_value=1, max_value=3))
    def test_nonincreasing_in_dv(self, dv1, dv2, j):
        lo, hi = sorted((dv1, dv2))
        assert fs_boundary(j, lo, FS) >= fs_boundary(j, hi, FS)


class TestFsRegion:
    def test_examples(self):
        assert fs_region(1.0, 0.0, FS) is FsRegion.STOP
        assert fs_region(100.0, 0.0, FS) is FsRegion.FREE
        assert fs_region(3.5, 0.0, FS) is FsRegion.BLEND

    def test_half_open_bands(self):
        assert fs_region(2.25, 0.0, FS) is FsRegion.STOP
        assert fs_region(np.nextafter(2.25, 4.0), 0.0, FS) is FsRegion.FOLLOW
        assert fs_region(3.0, 0.0, FS) is FsRegion.FOLLOW
        assert fs_region(4.5, 0.0, FS) is FsRegion.BLEND

    def test_collision_state(self):
        with pytest.raises(CollisionError):
            fs_region(0.0, 0.0, FS)


def _random_fs_draws(n, seed=1234):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        omega = np.sort(rng.uniform(1.0, 6.0, 3))
        while omega[1] - omega[0] < 0.3 or omega[2] - omega[1] < 0.3:
            omega = np.sort(rng.uniform(1.0, 6.0, 3))
        alpha = np.sort(rng.uniform(0.3, 2.0, 3))[::-1]  # decreasing keeps d ordered
        p = FsParams(r=rng.uniform(2.0, 10.0), omega=tuple(omega), alpha=tuple(alpha))
        draws.append((p, rng.uniform(-10.0, 5.0), rng.uniform(-2.0, 12.0)))
    return draws


# Non-finite and signed-zero FollowerStopper inputs (dx, dv, v_lead), with
# the command and the region each gives
_EDGE_INPUTS = [
    ((3.5, math.nan, 5.0), 4.75, FsRegion.FREE),
    ((3.5, 0.0, math.nan), math.nan, FsRegion.BLEND),
    ((3.5, 0.0, math.inf), 4.75, FsRegion.BLEND),
    ((3.5, 0.0, -math.inf), 1.5833333333333333, FsRegion.BLEND),
    ((math.inf, 0.0, 5.0), 4.75, FsRegion.FREE),
    ((2.625, -0.0, 5.0), 2.375, FsRegion.FOLLOW),
    ((2.625, 0.0, -0.0), 0.0, FsRegion.FOLLOW),
    ((3.5, -math.inf, 5.0), 0.0, FsRegion.STOP),
    ((math.nan, 0.0, 5.0), 4.75, FsRegion.FREE),
]
_EDGE_IDS = ["nan_dv", "nan_leader", "inf_leader", "minus_inf_leader", "inf_gap",
             "minus_zero_dv", "minus_zero_leader", "minus_inf_dv", "nan_gap"]


class TestFsCommand:
    def test_stop_region(self):
        assert fs_command(1.0, 0.0, 5.0, FS) == 0.0

    def test_free_region_commands_r(self):
        assert fs_command(100.0, 0.0, 5.0, FS) == 4.75

    def test_follow_band_midpoint(self):
        assert fs_command(2.625, 0.0, 5.0, FS) == pytest.approx(2.375, abs=1e-12)

    def test_leader_speed_clamped_from_below(self):
        # backing leader counts as stopped
        assert fs_command(2.625, 0.0, -3.0, FS) == 0.0

    def test_continuity_at_boundaries(self):
        for p, dv, v_lead in _random_fs_draws(1000):
            for j in (1, 2, 3):
                d = fs_boundary(j, dv, p)
                here = fs_command(d, dv, v_lead, p)
                up = fs_command(np.nextafter(d, np.inf), dv, v_lead, p)
                down = fs_command(np.nextafter(d, 0.0), dv, v_lead, p)
                assert abs(up - here) < 1e-9
                assert abs(here - down) < 1e-9

    def test_range_and_monotonicity(self):
        for p, dv, v_lead in _random_fs_draws(200):
            dx = np.linspace(1e-3, 3 * fs_boundary(3, dv, p), 400)
            cmds = np.array([fs_command(d, dv, v_lead, p) for d in dx])
            assert np.all(cmds >= 0.0) and np.all(cmds <= p.r + 1e-12)
            assert np.all(np.diff(cmds) >= -1e-12)

    def test_collision_state(self):
        with pytest.raises(CollisionError):
            fs_command(-0.5, 0.0, 5.0, FS)

    @pytest.mark.parametrize("args, want, region", _EDGE_INPUTS, ids=_EDGE_IDS)
    def test_non_finite_and_signed_zero_inputs(self, args, want, region):
        # only the selected band is computed, so a discarded band that would
        # form inf - inf or 0 * inf never runs and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fs_command(*args, FS)
            got_region = fs_region(*args[:2], FS)
        assert type(got) is float
        assert repr(got) == repr(want)  # tells 0.0 from -0.0 and matches NaN to NaN
        assert type(got_region) is FsRegion and got_region is region

    @pytest.mark.parametrize("args", [
        (1.0, -1.0, 3.0), (3.0, -1.0, 3.0), (5.0, -1.0, 3.0), (100.0, -1.0, 3.0),
    ] + [args for args, _, _ in _EDGE_INPUTS],
        ids=["stop", "follow", "blend", "free"] + _EDGE_IDS)
    def test_float64_inputs_match_python_floats(self, args):
        # np.float64 is a float subclass and takes the float body: the same
        # bits, result types and (no) warnings as the Python float, whether
        # every input or only the gap is one
        def laws(dx, dv, v_lead):
            return ([fs_command(dx, dv, v_lead, FS), fs_region(dx, dv, FS)]
                    + [fs_boundary(j, dv, FS) for j in (1, 2, 3)])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = laws(*args)
            for given in ([np.float64(a) for a in args], [np.float64(args[0]), *args[1:]]):
                got = laws(*given)
                assert [type(g) for g in got] == [type(w) for w in want]
                assert [repr(g) for g in got] == [repr(w) for w in want]


class TestFsAccel:
    def test_on_command(self):
        assert fs_accel(4.75, 4.75, FS) == 0.0

    def test_tracking_up(self):
        assert fs_accel(0.0, 4.75, FS) == pytest.approx(4.75, abs=1e-15)

    def test_tracking_down(self):
        assert fs_accel(5.0, 0.0, FS) == pytest.approx(-5.0, abs=1e-15)


class TestParamValidation:
    def test_idm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IdmParams(a=0.0)
        with pytest.raises(ValueError):
            IdmParams(b=-1.0)
        with pytest.raises(ValueError):
            IdmParams(T=-0.1)

    def test_fs_rejects_unordered_omega(self):
        with pytest.raises(ValueError):
            FsParams(omega=(3.0, 2.25, 4.5))

    def test_fs_rejects_boundary_crossing(self):
        # omega ordered, but alpha makes d1 overtake d2 at large closing speed
        with pytest.raises(ValueError):
            FsParams(omega=(2.25, 3.0, 4.5), alpha=(0.2, 2.0, 2.0))

    def test_fs_accepts_defaults(self):
        FsParams()

    def test_fs_envelope_check_matches_grid(self):
        # oracle: the ordering checked on 1000 closing speeds over [-40, 0]
        grid = np.linspace(-40.0, 0.0, 1000)
        closing = np.minimum(grid, 0.0)
        q = closing * closing
        rng = np.random.default_rng(7)
        n_bad = 0
        for _ in range(2000):
            omega = tuple(np.sort(rng.uniform(0.5, 6.0, 3)))
            alpha = tuple(rng.uniform(0.05, 3.0, 3))
            d1, d2, d3 = (w + q / (2.0 * a) for w, a in zip(omega, alpha))
            bad = np.nonzero(~((d1 < d2) & (d2 < d3)))[0]
            if not bad.size:
                FsParams(omega=omega, alpha=alpha)
                continue
            n_bad += 1
            with pytest.raises(ValueError) as exc:
                FsParams(omega=omega, alpha=alpha)
            assert str(exc.value) == ("FsParams switching boundaries lose their ordering "
                                      f"at dv={grid[bad[0]]:.3f} m/s")
        assert 0 < n_bad < 2000


class TestArrayInputs:
    """The laws on arrays against the same laws called entry by entry."""

    def test_idm_accel_elementwise(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(0.5, 60.0, 500)
        v = rng.uniform(0.0, 30.0, 500)
        dv = rng.uniform(-10.0, 10.0, 500)
        got = idm_accel(s, v, dv, P)
        want = np.array([idm_accel(*args, P) for args in zip(s, v, dv)])
        # numpy's vectorised power may differ from libm's pow by one ulp;
        # every other operation is the same IEEE operation on both paths
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_fs_command_and_region_elementwise_at_boundaries(self):
        dx, dv, v_lead = [], [], []
        rng = np.random.default_rng(11)
        for _ in range(200):
            d_v = rng.uniform(-10.0, 5.0)
            v_l = rng.uniform(-2.0, 12.0)
            for j in (1, 2, 3):
                d = fs_boundary(j, d_v, FS)
                for x in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
                    dx.append(x)
                    dv.append(d_v)
                    v_lead.append(v_l)
            dx.append(rng.uniform(0.01, 20.0))
            dv.append(d_v)
            v_lead.append(v_l)
        dx, dv, v_lead = map(np.array, (dx, dv, v_lead))
        got = fs_command(dx, dv, v_lead, FS)
        want = np.array([fs_command(*args, FS) for args in zip(dx, dv, v_lead)])
        assert np.array_equal(got, want)
        regions = fs_region(dx, dv, FS)
        assert np.array_equal(regions, [fs_region(x, d_v, FS) for x, d_v in zip(dx, dv)])
        # every band is hit, on both sides of every boundary
        assert set(regions.tolist()) == {1, 2, 3, 4}
        assert np.array_equal(fs_accel(v_lead, got, FS),
                              [fs_accel(v_l, c, FS) for v_l, c in zip(v_lead, want)])

    def test_one_nonpositive_gap_raises(self):
        with pytest.raises(CollisionError):
            idm_accel(np.array([5.0, 0.0, 3.0]), np.full(3, 5.0), np.zeros(3), P)
        with pytest.raises(CollisionError):
            fs_command(np.array([5.0, 4.0, -1.0]), 0.0, 5.0, FS)
        with pytest.raises(CollisionError):
            fs_region(np.array([-2.0, 4.0]), 0.0, FS)
