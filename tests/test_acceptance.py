"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-5 share one full-length ``compare`` invocation over the four
stock scenarios (10 vehicles, 100 m ring, 1500 s, seed 1) at
analysis-grade solver tolerances (rel 1e-6 / abs 1e-9). Criterion 3 also
runs the 22-vehicle, 230 m ring of Sugiyama et al. (2008). The remaining
criteria run targeted simulations and estimator benchmarks.

Under the documented IDM the stock ring's uniform flow is linearly
stable: the closed-form per-Fourier-mode equation (``linear_rate``,
checked against a finite-difference Jacobian of ``ring.rhs`` in
``TestLinearStability``) puts its rightmost mode at -6.6e-4 /s, and the
undelayed stock fleet never leaves uniform flow. The 22-vehicle ring is
unstable (+1.37e-2 /s), so criterion 3 checks the undelayed wave claim
there. Criterion 5 encodes peak densities that need gaps below the IDM
standstill gap; it fails with the measured values in its output rather
than being weakened.
"""

import json
import math
import time

import numpy as np
import pytest

from ringsim import cli
from ringsim.integrators import IntegratorConfig, integrate_dde, integrate_ode
from ringsim.analysis import fleet_stats, max_lyapunov
from ringsim.models import (
    FsParams,
    IdmParams,
    fs_boundary,
    fs_command,
    idm_accel,
    idm_desired_gap,
    idm_equilibrium_speed,
)
from ringsim.ring import (
    PRESET_NAMES,
    RingScenario,
    build_uniform_scenario,
    equilibrium_scenario,
    initial_state,
    rhs,
    sample,
    simulate,
)

SEED = 1
TIGHT = ("--rel-tol", "1e-6", "--abs-tol", "1e-9")
# A wave is present while the fleet speed standard deviation exceeds this
# (m/s); criterion 4 reads a final spread below it as "no wave".
WAVE_STD = 0.1


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def linear_rate(n_vehicles, ring_length):
    """Rightmost growth rate (1/s) of uniform flow on an undelayed ring of
    default IDM vehicles.

    Closed form per Fourier mode (Wilson & Ward 2011): for k = 1..N-1,
    with theta = 2 pi k / N and z = exp(i theta), the roots of
    lambda^2 - (f_v + f_l z) lambda - f_s (z - 1) = 0. f_s, f_v and f_l
    are the IDM partials with respect to the gap, the own speed and the
    leader's speed, taken at the equilibrium spacing L/N. Mode k = 0, a
    shift of the whole fleet, is left out.
    """
    p = IdmParams()
    s = ring_length / n_vehicles
    v = idm_equilibrium_speed(s, p)
    s_star = p.s0 + v * p.T
    f_dv = -p.a * s_star * v / (math.sqrt(p.a * p.b) * s * s)  # dv = v - v_leader
    f_s = 2.0 * p.a * s_star * s_star / s ** 3
    f_v = (-p.a * p.delta * v ** (p.delta - 1.0) / p.v0 ** p.delta
           - 2.0 * p.a * s_star * p.T / (s * s) + f_dv)
    f_l = -f_dv
    z = np.exp(2j * np.pi * np.arange(1, n_vehicles) / n_vehicles)
    b = f_v + f_l * z
    disc = np.sqrt(b * b + 4.0 * f_s * (z - 1.0))
    return float(np.concatenate([b + disc, b - disc]).real.max() / 2.0)


def jacobian_rate(scenario):
    """Largest real part among the eigenvalues of a central-difference
    Jacobian of ring.rhs at the scenario's equally spaced initial state,
    without the shift of the whole fleet.

    The shift, eigenvector (1, 0, 1, 0, ...), has eigenvalue 0. It is
    deflated: with Q an orthonormal basis of the space orthogonal to it,
    the eigenvalues of Q^T J Q are the others.
    """
    z0 = initial_state(scenario)
    h = 1e-6

    def f(z):
        return rhs(0.0, z, z, scenario)

    jac = np.column_stack([(f(z0 + e) - f(z0 - e)) / (2.0 * h)
                           for e in h * np.eye(z0.size)])
    shift = np.tile([1.0, 0.0], scenario.n_vehicles)[:, None]
    q = np.linalg.qr(shift, mode="complete")[0][:, 1:]
    return float(np.linalg.eigvals(q.T @ jac @ q).real.max())


def idm_ring(n_vehicles, ring_length, tau=0.0):
    """Default-IDM ring started at its equilibrium speed with the stock
    1e-3 m/s perturbation, seed SEED, for 1500 s."""
    p = IdmParams()
    return RingScenario(
        ring_length=ring_length, controllers=(p,) * n_vehicles, tau=tau,
        v_init=idm_equilibrium_speed(ring_length / n_vehicles, p), seed=SEED,
    )


def wave_onset(scenario):
    """First sampled time (s) at which the fleet speed standard deviation
    exceeds WAVE_STD, or None if it never does."""
    traj = simulate(scenario, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9))
    series = sample(traj, scenario)
    over = np.nonzero(fleet_stats(series).v_std_series > WAVE_STD)[0]
    return float(series.times[over[0]]) if over.size else None


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    t0 = time.time()
    code = cli.main([
        "compare", "--presets", ",".join(PRESET_NAMES), "--seed", str(SEED),
        *TIGHT, "-o", str(out),
    ])
    wall = time.time() - t0
    assert code == 0, f"compare exited with {code}"
    stats = {}
    for preset in PRESET_NAMES:
        with open(out / preset / "stats.json") as fh:
            stats[preset] = json.load(fh)
    return {"stats": stats, "wall": wall}


class TestScenarioCriteria:
    def test_criterion_1_stability_sign_pattern(self, compare_run):
        stats = compare_run["stats"]
        lams = {p: stats[p]["lambda_max"] for p in PRESET_NAMES}
        ok = (
            lams["idm"] is not None and lams["idm"] > 0
            and lams["idm_delayed"] is not None and lams["idm_delayed"] > 0
            and lams["mixed"] is not None and lams["mixed"] < 0
            and lams["mixed_delayed"] is not None and lams["mixed_delayed"] < 0
            and compare_run["wall"] < 300.0
        )
        detail = (
            f"lambda=({lams['idm']:+.4g}, {lams['idm_delayed']:+.4g}, "
            f"{lams['mixed']:+.4g}, {lams['mixed_delayed']:+.4g}), "
            f"wall={compare_run['wall']:.0f}s"
        )
        report(1, "stability sign pattern (+,+,-,-)", ok, detail)

    def test_criterion_2_delay_ordering(self, compare_run):
        stats = compare_run["stats"]
        li = stats["idm"]["lambda_max"]
        ld = stats["idm_delayed"]["lambda_max"]
        ok = li is not None and ld is not None and ld >= 5.0 * li
        detail = f"lambda_delayed={ld:.4g} vs 5*lambda_idm={5 * li:.4g} (ratio {ld / li:.1f})"
        report(2, "delayed exponent at least 5x undelayed", ok, detail)

    def test_criterion_3_wave_emergence(self, compare_run):
        """Waves emerge without delay where uniform flow is unstable, and a
        known delay makes them emerge earlier.

        A wave has emerged at the first instant the fleet speed standard
        deviation exceeds WAVE_STD. The undelayed stock ring is linearly
        stable, so both claims are checked on the unstable 22-vehicle,
        230 m ring of Sugiyama et al. (2008), without delay and with the
        stock delay. The stock rings are checked against what the linear
        theory predicts for them: no wave without delay, a wave with it.
        """
        stock = build_uniform_scenario("idm")
        stock_rate = linear_rate(stock.n_vehicles, stock.ring_length)
        rate = linear_rate(22, 230.0)
        tau = build_uniform_scenario("idm_delayed").tau
        onset = wave_onset(idm_ring(22, 230.0))
        onset_del = wave_onset(idm_ring(22, 230.0, tau=tau))
        stats = compare_run["stats"]
        std_idm = stats["idm"]["final_v_std_m_per_s"]
        std_del = stats["idm_delayed"]["final_v_std_m_per_s"]
        ok = (
            rate > 0 and onset is not None
            and onset_del is not None and onset_del < onset
            and stock_rate < 0 and std_idm < WAVE_STD and std_del > WAVE_STD
        )
        detail = (
            f"22-car ring: rate={rate:+.4g}/s, wave onset tau=0: {onset} s, "
            f"tau={tau:g}: {onset_del} s; stock ring: rate={stock_rate:+.4g}/s, "
            f"final_v_std idm={std_idm:.3g}, idm_delayed={std_del:.3g}"
        )
        report(3, "waves emerge, earlier with delay", ok, detail)

    def test_criterion_4_wave_dissipation(self, compare_run):
        stats = compare_run["stats"]
        ok = True
        details = []
        for preset in ("mixed", "mixed_delayed"):
            s = stats[preset]
            ok = ok and s["stop_events_after_settle"] == 0
            ok = ok and s["final_v_std_m_per_s"] < WAVE_STD
            details.append(
                f"{preset}: stops>200s={s['stop_events_after_settle']}, "
                f"final_v_std={s['final_v_std_m_per_s']:.2e}"
            )
        report(4, "controller dissipates the perturbations", ok, "; ".join(details))

    def test_criterion_5_density_targets(self, compare_run):
        """Peak and median density targets; the peak targets are not met.

        Density is 1/gap, so an undelayed peak of 0.75-2.25 cars/m needs
        gaps of 0.44-1.33 m, below the IDM standstill gap s0 = 2 m. The
        undelayed stock ring never leaves uniform flow (peak 0.1 cars/m),
        and the delayed/undelayed ratio is 1.57. On the unstable 22-vehicle
        ring the peaks are 0.44 cars/m without delay and 0.35 with it, so
        there delay lowers the peak. PAPER.md gives no density values, ring
        size or definition of density, so it cannot settle whether the
        targets or the stock ring are wrong; the targets are kept.
        """
        stats = compare_run["stats"]
        k_idm = stats["idm"]["max_density_cars_per_m"]
        k_del = stats["idm_delayed"]["max_density_cars_per_m"]
        k_med = stats["mixed"]["median_density_cars_per_m"]
        ok_idm = 0.75 <= k_idm <= 2.25
        ok_ratio = k_del >= 3.0 * k_idm
        ok_mixed = 0.095 <= k_med <= 0.115
        ok = ok_idm and ok_ratio and ok_mixed
        detail = (
            f"idm max k={k_idm:.4g} (target 1.5 +/- 50%), delayed/idm ratio="
            f"{k_del / k_idm:.2f} (target >= 3), mixed median k={k_med:.4g}; "
            f"min gap idm={stats['idm']['min_gap_m']:.3g} m, idm_delayed="
            f"{stats['idm_delayed']['min_gap_m']:.3g} m vs s0={IdmParams().s0:g} m "
            f"(the peak target needs gaps {1 / 2.25:.2f}-{1 / 0.75:.2f} m)"
        )
        report(5, "peak and median density targets", ok, detail)

    def test_criterion_6_collision_freedom(self):
        cfg = IntegratorConfig()  # default tolerances
        statuses = {}
        for preset in PRESET_NAMES:
            traj = simulate(build_uniform_scenario(preset, seed=SEED), cfg)
            statuses[preset] = (traj.status, len(traj.events))
        ok = all(s == "completed" and n == 0 for s, n in statuses.values())
        report(6, "no collisions at default tolerances", ok, str(statuses))

    def test_criterion_7_uniform_flow_invariance(self):
        sc = equilibrium_scenario("idm", seed=SEED)
        traj = simulate(sc, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9))
        dev = float(np.abs(traj.states[:, 1::2] - sc.v_init).max())
        ok = traj.status == "completed" and dev < 1e-4
        report(7, "uniform flow manifold invariant over 1500 s",
               ok, f"max |v - v_e| = {dev:.3g}")


class TestLinearStability:
    @pytest.mark.parametrize("n_vehicles, ring_length, expected", [
        (10, 100.0, -6.599e-4),  # stock ring: stable
        (22, 230.0, 1.374e-2),   # Sugiyama et al. (2008): unstable
    ])
    def test_closed_form_rate_matches_jacobian(self, n_vehicles, ring_length, expected):
        closed = linear_rate(n_vehicles, ring_length)
        jac = jacobian_rate(idm_ring(n_vehicles, ring_length))
        assert abs(closed - jac) < 1e-6, (closed, jac)
        assert closed == pytest.approx(expected, rel=1e-3)


class TestNumericsCriteria:
    def test_criterion_8_integrator_validation(self):
        errs, hs = [], []
        for rel_tol in (1e-3, 1e-5, 1e-7, 1e-9):
            cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-4, h_max=10.0)
            traj = integrate_ode(lambda t, y: -y, [1.0], (0.0, 1.0), cfg)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1)))
            hs.append(1.0 / (len(traj.times) - 1))
        order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

        traj = integrate_dde(lambda t, y, ylag: -ylag, [1.0], 1.0,
                             (0.0, 2.0), IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12))
        worst = 0.0
        for t in np.linspace(0.0, 2.0, 81):
            exact = 1.0 - t if t <= 1.0 else 1.0 - t + (t - 1.0) ** 2 / 2.0
            worst = max(worst, abs(float(traj.evaluate(t)[0]) - exact))
        ok = order >= 4.0 and worst < 1e-6
        report(8, "solver convergence order and lagged-system benchmark",
               ok, f"order={order:.2f}, lag benchmark max err={worst:.2e}")

    def test_criterion_9_lyapunov_validation(self):
        x = np.empty(5000)
        x[0] = 0.2
        for i in range(1, 5000):
            x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
        kwargs = dict(sample_rate=1.0, embed_dim=2, lag=1,
                      min_separation=10, fit_range=(0, 8))
        logistic = max_lyapunov(x, **kwargs)
        err = abs(logistic.lambda_max - math.log(2)) / math.log(2)

        t = np.arange(3000) / 100.0
        decay = max_lyapunov(np.exp(-0.5 * t) * np.cos(2 * np.pi * t),
                             sample_rate=100.0, embed_dim=3, lag=25,
                             min_separation=100, fit_range=(0, 100))

        scaled = max_lyapunov(2.0 * x, **kwargs)
        scale_dev = abs(scaled.lambda_max - logistic.lambda_max)
        ok = err <= 0.15 and decay.lambda_max < 0.0 and scale_dev < 1e-9
        report(9, "exponent estimator benchmarks", ok,
               f"logistic err={100 * err:.1f}% (<=15%), decay lambda="
               f"{decay.lambda_max:.3f} (<0), scaling dev={scale_dev:.2e}")

    def test_criterion_10_controller_unit_suite(self):
        rng = np.random.default_rng(2024)
        max_jump = 0.0
        for _ in range(1000):
            omega = np.sort(rng.uniform(1.0, 6.0, 3))
            while omega[1] - omega[0] < 0.3 or omega[2] - omega[1] < 0.3:
                omega = np.sort(rng.uniform(1.0, 6.0, 3))
            alpha = np.sort(rng.uniform(0.3, 2.0, 3))[::-1]
            p = FsParams(r=rng.uniform(2.0, 10.0), omega=tuple(omega), alpha=tuple(alpha))
            dv = rng.uniform(-10.0, 5.0)
            v_lead = rng.uniform(-2.0, 12.0)
            for j in (1, 2, 3):
                d = fs_boundary(j, dv, p)
                here = fs_command(d, dv, v_lead, p)
                for side in (np.nextafter(d, np.inf), np.nextafter(d, 0.0)):
                    max_jump = max(max_jump, abs(fs_command(side, dv, v_lead, p) - here))

        fs = FsParams()
        mono_ok, range_ok = True, True
        for _ in range(100):
            dv = rng.uniform(-8.0, 4.0)
            v_lead = rng.uniform(-2.0, 10.0)
            dx = np.linspace(1e-3, 40.0, 500)
            cmds = np.array([fs_command(d, dv, v_lead, fs) for d in dx])
            range_ok = range_ok and bool(np.all((cmds >= 0) & (cmds <= fs.r + 1e-12)))
            mono_ok = mono_ok and bool(np.all(np.diff(cmds) >= -1e-12))

        p = IdmParams()
        hand_ok = (
            abs(idm_desired_gap(0.0, 0.0, p) - 2.0) < 1e-12
            and abs(idm_desired_gap(5.0, 0.0, p) - 10.0) < 1e-12
            and abs(idm_desired_gap(5.0, 2.0, p)
                    - (10.0 + 10.0 / (2.0 * math.sqrt(0.73 * 1.67)))) < 1e-12
            and abs(idm_accel(10.0, 5.0, 0.0, p)
                    - 0.73 * (1.0 - (5.0 / 33.33) ** 4 - 1.0)) < 1e-12
        )
        ok = max_jump < 1e-9 and mono_ok and range_ok and hand_ok
        report(10, "controller continuity, range, monotonicity, hand values", ok,
               f"max boundary jump={max_jump:.2e}, monotone={mono_ok}, "
               f"range={range_ok}, hand values={hand_ok}")
