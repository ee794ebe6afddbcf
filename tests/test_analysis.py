import math
import tracemalloc

import numpy as np
import pytest

from ringsim import analysis
from ringsim.analysis import (
    fleet_stats,
    fundamental_diagram,
    heatmap_grid,
    max_lyapunov,
    phase_projection,
    stop_events,
    voronoi_density,
)
from ringsim.integrators import IntegratorConfig, integrate_ode
from ringsim.ring import RingSeries


def uniform_series(n_t=60, n_veh=10, v=5.0, length=100.0, hz=30.0):
    times = np.arange(n_t) / hz
    spacing = length / n_veh
    base = (-np.arange(n_veh) * spacing) % length
    positions = (base[None, :] + v * times[:, None]) % length
    velocities = np.full((n_t, n_veh), float(v))
    return RingSeries(times, positions, velocities, length)


class TestVoronoiDensity:
    def test_uniform(self):
        assert np.allclose(voronoi_density(np.full(10, 10.0)), 0.1)

    def test_dense_jam(self):
        assert voronoi_density(np.array([0.667]))[0] == pytest.approx(1.4993, abs=1e-3)

    def test_reciprocal(self):
        assert voronoi_density(np.array([2.0]))[0] == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            voronoi_density(np.array([1.0, 0.0]))


class TestFundamentalDiagram:
    def test_uniform_flow_samples(self):
        k, q = fundamental_diagram(uniform_series())
        assert k.shape == q.shape == (60, 10)
        assert np.allclose(k, 0.1)
        assert np.allclose(q, 0.5)

    def test_flow_identity_exact(self):
        series = uniform_series()
        rng = np.random.default_rng(5)
        series.velocities += rng.uniform(0, 2, series.velocities.shape)
        k, q = fundamental_diagram(series)
        assert np.array_equal(q, k * series.velocities)

    def test_stopped_vehicle_zero_flow(self):
        series = uniform_series()
        series.velocities[:, 3] = 0.0
        _, q = fundamental_diagram(series)
        assert np.all(q[:, 3] == 0.0)

    def test_density_gap_duality(self):
        series = uniform_series()
        k, _ = fundamental_diagram(series)
        assert np.allclose(k * series.gaps(), 1.0, rtol=1e-12)

    def test_densities_cover_ring(self):
        # sum of k_i * gap_i counts each vehicle exactly once
        series = uniform_series(n_veh=7)
        per_instant = (1.0 / series.gaps() * series.gaps()).sum(axis=1)
        assert np.allclose(per_instant, 7.0)


def logistic_series(n=5000, x0=0.2):
    x = np.empty(n)
    x[0] = x0
    for i in range(1, n):
        x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
    return x


class TestMaxLyapunov:
    def test_logistic_map_exponent(self):
        x = logistic_series()
        res = max_lyapunov(x, sample_rate=1.0, embed_dim=2, lag=1,
                           min_separation=10, fit_range=(0, 8))
        assert not res.degenerate
        assert abs(res.lambda_max - math.log(2)) <= 0.15 * math.log(2)

    def test_decaying_exponential_is_negative(self):
        t = np.arange(3000) / 100.0
        x = np.exp(-0.5 * t) * np.cos(2 * np.pi * t)
        res = max_lyapunov(x, sample_rate=100.0, embed_dim=3, lag=25,
                           min_separation=100, fit_range=(0, 100))
        assert res.lambda_max < 0.0

    def test_time_reversal_flips_sign(self):
        t = np.arange(3000) / 100.0
        x = np.exp(-0.5 * t) * np.cos(2 * np.pi * t)
        kwargs = dict(sample_rate=100.0, embed_dim=3, lag=25,
                      min_separation=100, fit_range=(0, 100))
        fwd = max_lyapunov(x, **kwargs)
        bwd = max_lyapunov(x[::-1], **kwargs)
        assert fwd.lambda_max < 0.0 < bwd.lambda_max

    @pytest.mark.parametrize("c", [2.0, 0.5, 3.7])
    def test_positive_scaling_invariance(self, c):
        x = logistic_series(3000)
        kwargs = dict(sample_rate=1.0, embed_dim=2, lag=1,
                      min_separation=10, fit_range=(0, 8))
        base = max_lyapunov(x, **kwargs)
        scaled = max_lyapunov(c * x, **kwargs)
        assert scaled.lambda_max == pytest.approx(base.lambda_max, abs=1e-9)

    def test_constant_signal_degenerate(self):
        res = max_lyapunov(np.full(2000, 3.14), sample_rate=30.0)
        assert res.degenerate
        assert res.lambda_max == -math.inf
        assert res.note

    def test_near_constant_tail_still_estimates(self):
        # decaying transient into a hard-constant tail: duplicate embedded
        # points are unusable neighbors and must be dropped, not crash
        t = np.arange(2000) / 100.0
        x = np.exp(-0.5 * t) * np.cos(2 * np.pi * t)
        x[1200:] = x[1199]
        res = max_lyapunov(x, sample_rate=100.0, embed_dim=3, lag=20,
                           min_separation=50, fit_range=(0, 50))
        assert not res.degenerate
        assert res.lambda_max < 0.0

    def test_constant_tail_references_match_oracle(self, monkeypatch):
        # FollowerStopper-like settling: the tail is exactly constant in
        # float64 after about 35 s, so most embedded points are duplicates
        t = np.arange(int(300 * 30)) / 30.0
        x = 4.75 - 0.3 * np.exp(-t) * np.cos(2 * np.pi * t / 20.0)
        assert np.ptp(x[-6000:]) == 0.0
        res = max_lyapunov(x, sample_rate=30.0)
        seen = []

        def oracle(Y, exclusion):
            seen.append(brute_nearest(Y, exclusion))
            return seen[-1]

        monkeypatch.setattr(analysis, "_nearest_neighbors", oracle)
        ref = max_lyapunov(x, sample_rate=30.0)
        ref_dist = seen[0][1]
        assert res.n_points == ref_dist.size
        assert res.n_reference == np.count_nonzero(np.isfinite(ref_dist) & (ref_dist > 0))
        assert res.n_zero_distance == np.count_nonzero(ref_dist == 0.0)
        assert res.n_zero_distance > res.n_reference
        assert res.lambda_max == ref.lambda_max

    def test_series_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            max_lyapunov(np.sin(np.arange(40)), sample_rate=1.0)

    def test_slope_times_rate(self):
        x = logistic_series(3000)
        r1 = max_lyapunov(x, sample_rate=1.0, embed_dim=2, lag=1,
                          min_separation=10, fit_range=(0, 8))
        r30 = max_lyapunov(x, sample_rate=30.0, embed_dim=2, lag=1,
                           min_separation=10, fit_range=(0, 8))
        assert r30.lambda_max == pytest.approx(30.0 * r1.lambda_max, rel=1e-12)

    def test_default_lag_reasonable(self):
        t = np.arange(4000) / 100.0
        x = np.sin(2 * np.pi * t)  # period 100 samples
        res = max_lyapunov(x, sample_rate=100.0, fit_range=(0, 30))
        assert 15 <= res.lag <= 35  # quarter period for a sinusoid


def brute_nearest(Y, exclusion, chunk=256):
    """Reference neighbour search: argmin over directly differenced rows.

    Squared distances sum (Y[i, k] - Y[j, k])**2 over k in order; pairs
    with |i - j| <= exclusion are masked out before the argmin.
    """
    m = Y.shape[0]
    cols = np.arange(m)
    idx = np.empty(m, dtype=np.int64)
    d2_min = np.empty(m)
    for start in range(0, m, chunk):
        rows = np.arange(start, min(start + chunk, m))
        d2 = np.zeros((rows.size, m))
        for k in range(Y.shape[1]):
            diff = Y[rows, k][:, None] - Y[None, :, k]
            d2 += diff * diff
        d2[np.abs(rows[:, None] - cols[None, :]) <= exclusion] = np.inf
        idx[rows] = np.argmin(d2, axis=1)
        d2_min[rows] = d2[np.arange(rows.size), idx[rows]]
    return idx, np.sqrt(d2_min)


def assert_matches_oracle(Y, exclusion):
    idx, dist = analysis._nearest_neighbors(Y, exclusion)
    ref_idx, ref_dist = brute_nearest(Y, exclusion)
    assert np.array_equal(dist, ref_dist)  # bit for bit, inf included
    assert np.array_equal(idx, ref_idx)
    return ref_idx, ref_dist


class TestNearestNeighbors:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_random_cloud(self, dim):
        rng = np.random.default_rng(dim)
        Y = rng.standard_normal((3000, dim))
        assert_matches_oracle(Y, 25)

    def test_planted_duplicates_and_constant_tail(self):
        rng = np.random.default_rng(7)
        exclusion = 40
        Y = rng.standard_normal((2000, 3))
        Y[rng.integers(0, 1500, 200)] = Y[rng.integers(0, 1500, 200)]
        Y[1700:] = Y[1699]  # constant run of 301 > 2 * exclusion points
        _, dist = assert_matches_oracle(Y, exclusion)
        assert np.count_nonzero(dist[1700:] == 0.0) > 2 * exclusion

    def test_lattice_ties_lowest_index_wins(self):
        rng = np.random.default_rng(11)
        grid = np.stack(np.meshgrid(*[np.arange(8.0)] * 3), -1).reshape(-1, 3)
        Y = grid[rng.permutation(grid.shape[0])]
        _, dist = assert_matches_oracle(Y, 5)
        # nearest distance 1 everywhere, shared by up to 6 lattice neighbours
        assert np.all(dist[np.isfinite(dist)] == 1.0)
        # with repeats: exact duplicates and ties at every distance
        assert_matches_oracle(rng.integers(0, 3, (1500, 2)).astype(float), 30)

    def test_window_leaves_no_neighbor(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((200, 3))
        Y[150:] = Y[0]
        _, dist = assert_matches_oracle(Y, 120)
        # points 79..120 have every other point within 120 samples
        assert np.all(np.isinf(dist[79:121]))
        assert np.isfinite(dist[:79]).all() and np.isfinite(dist[121:]).all()
        assert np.all(dist[150:] == 0.0)
        _, dist = assert_matches_oracle(Y, 300)
        assert np.all(np.isinf(dist))

    def test_memory_below_gram_buffer(self):
        rng = np.random.default_rng(3)
        n, lag = 45_300, 150
        x = np.sin(2 * np.pi * np.arange(n) / 600) + 0.05 * rng.standard_normal(n)
        m = n - 2 * lag
        Y = x[np.arange(m)[:, None] + np.arange(3) * lag]
        tracemalloc.start()
        try:
            analysis._nearest_neighbors(Y, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunked Gram-matrix search holds a 1024 x m float64 block
        assert peak < 1024 * m * 8


def lorenz_rhs(t, y):
    s, r, b = 10.0, 28.0, 8.0 / 3.0
    return np.array([
        s * (y[1] - y[0]),
        y[0] * (r - y[2]) - y[1],
        y[0] * y[1] - b * y[2],
    ])


def lorenz_jac(y):
    s, r, b = 10.0, 28.0, 8.0 / 3.0
    return np.array([
        [-s, s, 0.0],
        [r - y[2], -1.0, -y[0]],
        [y[1], y[0], -b],
    ])


def lorenz_qr_exponent(t_total=120.0, h=2e-3):
    """Independent benchmark: tangent-space growth with QR renormalization.

    Fixed-step RK4 on the coupled state+tangent system; the running log of
    the leading triangular entry gives the top exponent.
    """
    y = np.array([1.0, 1.0, 1.0])
    # settle onto the attractor first
    for _ in range(int(10.0 / h)):
        k1 = lorenz_rhs(0, y)
        k2 = lorenz_rhs(0, y + 0.5 * h * k1)
        k3 = lorenz_rhs(0, y + 0.5 * h * k2)
        k4 = lorenz_rhs(0, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    q = np.eye(3)
    log_sum = 0.0
    n = int(t_total / h)
    for i in range(n):
        def full(state):
            yy, m = state[:3], state[3:].reshape(3, 3)
            return np.concatenate([lorenz_rhs(0, yy), (lorenz_jac(yy) @ m).ravel()])

        state = np.concatenate([y, q.ravel()])
        k1 = full(state)
        k2 = full(state + 0.5 * h * k1)
        k3 = full(state + 0.5 * h * k2)
        k4 = full(state + h * k3)
        state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        y, m = state[:3], state[3:].reshape(3, 3)
        q, r = np.linalg.qr(m)
        sign = np.sign(np.diag(r))
        q *= sign
        log_sum += math.log(abs(r[0, 0]))
    return log_sum / t_total


class TestLorenzBenchmark:
    def test_rosenstein_matches_qr_oracle(self):
        lam_ref = lorenz_qr_exponent()
        assert lam_ref == pytest.approx(0.906, abs=0.05)  # literature value

        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, h_max=0.05)
        burn = integrate_ode(lorenz_rhs, [1.0, 1.0, 1.0], (0.0, 20.0), cfg)
        traj = integrate_ode(lorenz_rhs, burn.states[-1], (0.0, 100.0), cfg)
        grid = np.arange(0.0, 100.0, 0.01)
        x = np.array([traj.evaluate(t)[0] for t in grid])
        # fit over the scaling region of the divergence curve, past the
        # steep neighbor-alignment transient (first ~0.8 s at this rate)
        res = max_lyapunov(x, sample_rate=100.0, embed_dim=3, lag=10,
                           min_separation=100, fit_range=(80, 180))
        assert not res.degenerate
        assert res.lambda_max == pytest.approx(lam_ref, rel=0.25)


class TestPhaseProjection:
    def test_uniform_flow_single_point(self):
        series = uniform_series()
        gap, dv = phase_projection(series)
        assert gap.shape == dv.shape == (60, 10)
        assert np.allclose(gap, 10.0, atol=1e-9)
        assert np.allclose(dv, 0.0, atol=1e-12)
        assert gap[:, 3].std() == pytest.approx(0.0, abs=1e-9)

    def test_speed_difference_sign(self):
        series = uniform_series()
        series.velocities[:, 3] = 4.0  # vehicle 3 slower than its leader
        _, dv = phase_projection(series)
        assert np.all(dv[:, 3] > 0)

    def test_matches_per_vehicle_oracle(self):
        rng = np.random.default_rng(8)
        length = 80.0
        series = RingSeries(np.arange(40) / 30.0, rng.uniform(0, length, (40, 7)),
                            rng.uniform(0, 12, (40, 7)), length)
        gap, dv = phase_projection(series)
        pos, vel = series.positions, series.velocities
        for i in range(7):  # the per-vehicle projection, one leader at a time
            ldr = (i - 1) % 7
            assert np.array_equal(gap[:, i], (pos[:, ldr] - pos[:, i]) % length)
            assert np.array_equal(dv[:, i], vel[:, ldr] - vel[:, i])


class TestHeatmap:
    def test_uniform_speed_everywhere(self):
        rows, bins, mean_v = heatmap_grid(uniform_series(), n_bins=100)
        assert np.all(mean_v == 5.0)
        assert np.all((bins >= 0) & (bins < 100))
        assert np.all(np.diff(rows * 100 + bins) > 0)  # row-major, each cell once
        assert np.bincount(rows, minlength=60).max() <= 10
        assert np.unique(rows).size == 60

    def test_single_bin_is_fleet_mean(self):
        series = uniform_series()
        rng = np.random.default_rng(2)
        series.velocities = rng.uniform(0, 10, series.velocities.shape)
        rows, bins, mean_v = heatmap_grid(series, n_bins=1)
        assert np.array_equal(rows, np.arange(60)) and np.all(bins == 0)
        assert np.allclose(mean_v, series.velocities.mean(axis=1))

    def test_matches_add_at_oracle(self):
        # vehicles crowded into few bins: cells hold several speeds, whose
        # sum must be added in the order np.add.at adds them
        rng = np.random.default_rng(9)
        n_t, n_veh, n_bins = 50, 12, 7
        series = RingSeries(np.arange(n_t) / 30.0, rng.uniform(0, 40.0, (n_t, n_veh)),
                            rng.uniform(0, 12, (n_t, n_veh)), 40.0)
        bins = np.minimum((series.positions / (40.0 / n_bins)).astype(int), n_bins - 1)
        sums, counts = np.zeros((n_t, n_bins)), np.zeros((n_t, n_bins))
        rows = np.repeat(np.arange(n_t), n_veh)
        np.add.at(sums, (rows, bins.ravel()), series.velocities.ravel())
        np.add.at(counts, (rows, bins.ravel()), 1.0)
        with np.errstate(invalid="ignore"):
            oracle = sums / counts
        cell_rows, cell_bins, mean_v = heatmap_grid(series, n_bins)
        assert (counts > 1).any() and (counts == 0).any()
        # exactly the occupied cells, in row-major order
        assert np.array_equal(cell_rows * n_bins + cell_bins, np.flatnonzero(counts))
        grid = np.full((n_t, n_bins), np.nan)
        grid[cell_rows, cell_bins] = mean_v
        assert np.array_equal(grid, oracle, equal_nan=True)

    def test_empty_cells_marked(self):
        rows, _, _ = heatmap_grid(uniform_series(n_veh=2), n_bins=50)
        assert rows.size < 60 * 50

    def test_memory_does_not_grow_with_bins(self):
        series = uniform_series(n_t=31)
        tracemalloc.start()
        try:
            rows, _, _ = heatmap_grid(series, n_bins=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.size == 31 * 10
        # a dense float64 grid would take 31 * 10**6 * 8 bytes = 248 MB
        assert peak < 1 << 20

    def test_cell_index_overflow_raises(self):
        series = uniform_series(n_t=2)
        for n_bins in (2**62, 3 * 2**61):  # the first count that raises; one that wraps
            with pytest.raises(ValueError, match="int64"):
                heatmap_grid(series, n_bins)
        # the largest count that fits still puts each cell in its own row
        rows, bins, _ = heatmap_grid(series, n_bins=2**62 - 1)
        assert np.array_equal(rows, np.repeat([0, 1], 10))
        assert np.all((bins >= 0) & (bins < 2**62 - 1))

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            heatmap_grid(uniform_series(), n_bins=0)


class TestFleetStats:
    def test_uniform_flow(self):
        stats = fleet_stats(uniform_series())
        assert np.allclose(stats.v_std_series, 0.0)
        assert stats.stop_event_count == 0
        assert stats.min_gap == pytest.approx(10.0)
        assert stats.max_density == pytest.approx(0.1)

    def test_stop_events_are_entries(self):
        series = uniform_series(n_t=100)
        # vehicle 2 dips below threshold twice; vehicle 5 starts below it
        series.velocities[20:30, 2] = 0.05
        series.velocities[60:70, 2] = 0.01
        series.velocities[0:5, 5] = 0.0
        events = stop_events(series, v_stop=0.1)
        assert len(events) == 3
        assert events[0] == (0.0, 5)
        stats = fleet_stats(series, v_stop=0.1)
        assert stats.stop_event_count == 3

    def test_min_gap_and_max_density_consistent(self):
        series = uniform_series()
        series.positions[30, 4] = series.positions[30, 3] - 0.5
        stats = fleet_stats(series)
        assert stats.min_gap == pytest.approx(0.5, abs=1e-9)
        assert stats.max_density == pytest.approx(2.0, rel=1e-9)
