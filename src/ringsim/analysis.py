"""Post-processing of fleet series.

Density, flow and speed samples for fundamental diagrams, the maximal
Lyapunov exponent of a scalar series (nearest-neighbor divergence
tracking after delay embedding), phase-plane projections, position-binned
speed heatmaps and fleet-level summary statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ring import RingSeries

__all__ = [
    "FleetStats",
    "LyapunovResult",
    "voronoi_density",
    "fundamental_diagram",
    "max_lyapunov",
    "phase_projection",
    "heatmap_grid",
    "stop_events",
    "fleet_stats",
]

_HEATMAP_BLOCK = 4096  # instants per block in ``heatmap_grid``
# Most bins ``heatmap_grid`` takes for any series: one block's int64 cell index
MAX_HEATMAP_BINS = (2**63 - 1) // _HEATMAP_BLOCK


def voronoi_density(gaps) -> np.ndarray:
    """Per-vehicle density estimate k = 1/gap (cars/m).

    Each vehicle's gap to its leader is treated as the piece of road it
    occupies, giving a piecewise-constant density along the ring.
    """
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps <= 0):
        raise ValueError("density is undefined for nonpositive gaps")
    return 1.0 / gaps


def fundamental_diagram(series: RingSeries) -> tuple[np.ndarray, np.ndarray]:
    """Density k and flow q = k*v of every vehicle at every instant.

    Returns (k, q), each shaped like series.velocities.
    """
    k = voronoi_density(series.gaps())
    return k, k * series.velocities


@dataclass
class LyapunovResult:
    """Maximal Lyapunov exponent estimate plus estimator diagnostics.

    lambda_max is the fitted slope of the mean log-divergence curve times
    the sample rate (1/s). A degenerate input (constant signal, or no
    usable neighbor pairs) is reported with the flag set, a strongly
    negative sentinel value and a note instead of an exception so that
    batch pipelines can finish.

    n_points is the number of embedded points searched for neighbours,
    n_zero_distance the number of them dropped because an exact duplicate
    lies outside the exclusion window, and n_reference the number kept as
    reference points.
    """

    lambda_max: float
    embed_dim: int
    lag: int
    min_separation: int
    fit_range: tuple[int, int]
    sample_rate: float
    divergence_curve: np.ndarray = field(repr=False)
    n_reference: int = 0
    n_points: int = 0
    n_zero_distance: int = 0
    degenerate: bool = False
    note: str = ""


def _autocorr_lag(x: np.ndarray) -> int:
    """First zero crossing of the autocorrelation, else its 1/e point."""
    n = x.size
    xc = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(xc, m)
    acf = np.fft.irfft(spec * np.conj(spec), m)[:n]
    if acf[0] <= 0:
        return 1
    acf = acf / acf[0]
    below_zero = np.nonzero(acf <= 0.0)[0]
    if below_zero.size:
        return max(1, int(below_zero[0]))
    below_e = np.nonzero(acf <= 1.0 / math.e)[0]
    if below_e.size:
        return max(1, int(below_e[0]))
    return 1


def _mean_period(x: np.ndarray) -> int:
    """Period (in samples) of the dominant spectral peak, 0 if none."""
    xc = x - x.mean()
    spec = np.abs(np.fft.rfft(xc))
    if spec.size < 2:
        return 0
    peak = int(np.argmax(spec[1:])) + 1
    if spec[peak] <= 0:
        return 0
    return int(round(x.size / peak))


# Neighbour-search sizes: points per k-d tree leaf, query leaves searched
# per block and (query, leaf) pairs handled at once. Together they keep the
# search's traced peak to about 15 MB for series of ~45k points.
_LEAF_SIZE = 32
_LEAF_BLOCK = 32
_PAIR_CHUNK = 1 << 11

_MIN_PAIRS = 10  # fewest neighbour pairs an exponent estimate is taken from


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last axis of (a - b)**2, accumulated in coordinate order."""
    d = a[..., 0] - b[..., 0]
    d2 = d * d
    for k in range(1, a.shape[-1]):
        d = a[..., k] - b[..., k]
        d2 += d * d
    return d2


def _box_sq_dist(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Squared distance between axis-aligned boxes.

    Rounding is monotone, so it is never above the _sq_dist of two points
    the boxes contain.
    """
    gap = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
    return _sq_dist(gap, np.zeros_like(gap))


def _run_offsets(lengths: np.ndarray) -> np.ndarray:
    """Position of each element within its run, for runs of the given lengths."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _kd_leaves(U: np.ndarray) -> list[np.ndarray]:
    """Leaves of a median-split k-d tree over the rows of U, as index arrays.

    Each node is split at the median of its widest coordinate until it
    holds at most _LEAF_SIZE points.
    """
    leaves = []
    stack = [np.arange(U.shape[0])]
    while stack:
        idx = stack.pop()
        if idx.size <= _LEAF_SIZE:
            leaves.append(idx)
            continue
        pts = U[idx]
        dim = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        half = idx.size // 2
        part = np.argpartition(pts[:, dim], half)
        stack.append(idx[part[half:]])
        stack.append(idx[part[:half]])
    return leaves


def _nearest_neighbors(Y: np.ndarray, exclusion: int):
    """Index and distance of each point's nearest temporally distant neighbour.

    Exact: for each point i the result is the lowest index j with
    |i - j| > exclusion among those minimising sum_k (Y[i, k] - Y[j, k])**2,
    summed over k in order, and the square root of that sum; index 0 and
    distance inf when every point lies inside the window. That is what an
    argmin over a directly differenced distance row returns.

    Exact duplicates are collapsed first (np.unique), so a point whose
    duplicate group has a member outside its window gets distance 0 from
    the group's lowest such member. The unique points go into a k-d tree
    with small leaves and bounding boxes (Friedman, Bentley & Finkel 1977).
    Query leaves are taken in blocks; for each block the candidate leaves
    are visited nearest box first, in rounds of doubling width, and a leaf
    pair or (point, leaf) pair is skipped when its box distance exceeds the
    best distance found so far. The window is applied to each point pair.
    Work is done in chunks of at most _PAIR_CHUNK (point, leaf) pairs.
    """
    m = Y.shape[0]
    U, lo_u, inverse, counts = np.unique(
        Y, axis=0, return_index=True, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    members = np.argsort(inverse, kind="stable")  # grouped, ascending per group
    hi_u = members[np.cumsum(counts) - 1]
    keys = inverse[members] * (m + 1) + members

    def first_valid(i, u):
        """Lowest member of group u outside i's window, and whether one exists."""
        lo = lo_u[u]
        i = np.broadcast_to(i, u.shape)
        inside = (lo >= i - exclusion) & (lo <= i + exclusion)
        later = inside & (hi_u[u] > i + exclusion)
        j = lo.copy()
        if later.any():
            j[later] = members[np.searchsorted(
                keys, u[later] * (m + 1) + i[later] + exclusion + 1)]
        return j, ~inside | later

    own_j, own_ok = first_valid(np.arange(m), inverse)
    best = np.where(own_ok, 0.0, np.inf)
    best_j = np.where(own_ok, own_j, 0)

    leaves = _kd_leaves(U)
    n_leaves = len(leaves)
    sizes = np.array([leaf.size for leaf in leaves])
    leaf_id = np.repeat(np.arange(n_leaves), sizes)
    leaf_u = np.full((n_leaves, sizes.max()), -1, dtype=np.int64)
    leaf_u[leaf_id, _run_offsets(sizes)] = np.concatenate(leaves)
    leaf_pts = U[np.maximum(leaf_u, 0)]
    leaf_lo = np.array([U[leaf].min(axis=0) for leaf in leaves])
    leaf_hi = np.array([U[leaf].max(axis=0) for leaf in leaves])
    leaf_of_u = np.empty(U.shape[0], dtype=np.int64)
    leaf_of_u[np.concatenate(leaves)] = leaf_id
    q_leaf = leaf_of_u[inverse]
    q_order = np.argsort(q_leaf, kind="stable")
    q_start = np.searchsorted(q_leaf[q_order], np.arange(n_leaves + 1))

    def fold(qi, c):
        """Fold (query point, leaf) pairs, grouped by query, into best."""
        u = leaf_u[c]
        j, ok = first_valid(qi[:, None], np.maximum(u, 0))
        ok &= u >= 0
        d2 = _sq_dist(Y[qi][:, None, :], leaf_pts[c])
        d2[~ok] = np.inf
        row_d2 = d2.min(axis=1)
        row_j = np.where(ok & (d2 == row_d2[:, None]), j, m).min(axis=1)
        starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
        g_d2 = np.minimum.reduceat(row_d2, starts)
        tie = row_d2 == np.repeat(g_d2, np.diff(np.r_[starts, qi.size]))
        g_j = np.minimum.reduceat(np.where(tie, row_j, m), starts)
        q = qi[starts]
        better = (g_d2 < best[q]) | ((g_d2 == best[q]) & (g_j < best_j[q]))
        best[q[better]] = g_d2[better]
        best_j[q[better]] = g_j[better]

    for b0 in range(0, n_leaves, _LEAF_BLOCK):
        blk = np.arange(b0, min(b0 + _LEAF_BLOCK, n_leaves))
        box_d2 = _box_sq_dist(leaf_lo[blk, None], leaf_hi[blk, None],
                              leaf_lo[None], leaf_hi[None])
        rank = np.argsort(box_d2, axis=1)  # candidate leaves, nearest box first
        queries = q_order[q_start[b0]:q_start[blk[-1] + 1]]
        q_row = np.repeat(np.arange(blk.size), np.diff(q_start[b0:blk[-1] + 2]))
        row_start = q_start[blk] - q_start[b0]
        lo_r, width = 0, 4
        while lo_r < n_leaves:
            cand = rank[:, lo_r:lo_r + width]
            # a leaf farther than every query's best so far cannot improve it,
            # nor can any leaf of a later round
            bound = np.maximum.reduceat(best[queries], row_start)
            keep = np.take_along_axis(box_d2, cand, axis=1) <= bound[:, None]
            if not keep.any():
                break
            kept_row, kept_col = np.nonzero(keep)
            kept = cand[kept_row, kept_col]
            per_row = np.bincount(kept_row, minlength=blk.size)
            first_kept = np.cumsum(per_row) - per_row
            n_rep = per_row[q_row]
            # each query meets its row's kept leaves, _PAIR_CHUNK pairs at a time
            ends = np.cumsum(n_rep)
            cuts = np.searchsorted(ends, np.arange(0, ends[-1], _PAIR_CHUNK), side="right")
            for a, b in zip(cuts, np.r_[cuts[1:], queries.size]):
                reps = n_rep[a:b]
                qi = np.repeat(queries[a:b], reps)
                c = kept[np.repeat(first_kept[q_row[a:b]], reps) + _run_offsets(reps)]
                y = Y[qi]
                live = _box_sq_dist(y, y, leaf_lo[c], leaf_hi[c]) <= best[qi]
                if live.any():
                    fold(qi[live], c[live])
            lo_r, width = lo_r + width, 2 * width
    return best_j, np.sqrt(best)


def _degenerate(reason, embed_dim, lag, min_sep, fit_range, rate,
                n_points=0, n_zero_distance=0) -> LyapunovResult:
    return LyapunovResult(
        lambda_max=-math.inf,
        embed_dim=embed_dim,
        lag=lag,
        min_separation=min_sep,
        fit_range=fit_range,
        sample_rate=rate,
        divergence_curve=np.empty(0),
        n_points=n_points,
        n_zero_distance=n_zero_distance,
        degenerate=True,
        note=reason,
    )


def _divergence_curve(x, lag, embed_dim, refs, nbrs, k_max) -> np.ndarray:
    """Mean log distance of the embedded pairs (refs, nbrs) k samples on,
    for k = 0..k_max; NaN from the first k with fewer than _MIN_PAIRS
    pairs at a positive distance on.

    Point i of the embedding is x[i + c * lag] for c < embed_dim, so each
    coordinate of the pairs k samples on is one gather from the view
    x[k + c * lag:]. A pair stays in range while k <= m - 1 - max(i, j),
    m being the number of points; the range is checked only once some
    pair has left it, and zero distances are dropped only when the least
    distance is not positive. Squared differences are summed in
    coordinate order, as in _sq_dist. np.linalg.norm over the embedded
    rows gives the same bits for embed_dim <= 7 only: from 8 coordinates
    on numpy sums them unrolled, so a curve there may differ from one
    taken by norm in the last bits.
    """
    m = x.size - (embed_dim - 1) * lag
    last = m - 1 - np.maximum(refs, nbrs)  # the last k each pair is in range for
    all_in = int(last.min())
    curve = np.full(k_max + 1, np.nan)
    for k in range(k_max + 1):
        i, j = refs, nbrs
        if k > all_in:
            ok = last >= k
            if not ok.any():
                break
            i, j = i[ok], j[ok]
        d2 = 0.0
        for c in range(embed_dim):
            xk = x[k + c * lag:]
            diff = xk[i] - xk[j]
            d2 = d2 + diff * diff
        d = np.sqrt(d2)
        if not d.min() > 0.0:
            d = d[d > 0.0]
        if d.size < _MIN_PAIRS:
            break
        curve[k] = np.mean(np.log(d))
    return curve


def max_lyapunov(signal, sample_rate: float = 1.0, embed_dim: int = 3,
                 lag: int | None = None, min_separation: int | None = None,
                 fit_range: tuple[int, int] | None = None) -> LyapunovResult:
    """Maximal Lyapunov exponent of a uniformly sampled scalar series.

    The signal is delay-embedded in ``embed_dim`` dimensions; each point is
    paired with its nearest neighbor more than ``min_separation`` samples
    away in time (an exact search, see ``_nearest_neighbors``), the mean
    log separation of the pairs is tracked over growing offsets, and a line
    fitted over ``fit_range`` (sample offsets) gives the exponent as slope
    times sample rate.

    Defaults: lag is the first zero crossing of the autocorrelation (1/e
    fallback), min_separation the dominant spectral period, and fit_range
    one second worth of samples. The series must be long enough to embed
    and track (roughly 500 samples or more). Distances are summed in
    coordinate order (``_divergence_curve``); from embed_dim 8 on they may
    differ in the last bits from np.linalg.norm's unrolled sum.
    """
    x = np.asarray(signal, dtype=float).ravel()
    if fit_range is None:
        fit_range = (0, max(1, int(round(sample_rate))))
    fit_range = (int(fit_range[0]), int(fit_range[1]))
    if not 0 <= fit_range[0] < fit_range[1]:
        raise ValueError("fit_range must satisfy 0 <= start < end")
    n = x.size
    needed = (embed_dim - 1) * max(lag or 1, 1) + fit_range[1] + _MIN_PAIRS
    if n < max(needed, 64):
        raise ValueError(f"series too short: {n} samples, need at least {max(needed, 64)}")
    if embed_dim < 1:
        raise ValueError("embed_dim must be at least 1")
    if np.ptp(x) == 0.0:
        return _degenerate(
            "constant signal: divergence undefined", embed_dim, lag or 0,
            min_separation or 0, fit_range, sample_rate,
        )
    # Centre the signal. The neighbour search takes direct differences and
    # needs no centring for precision, but the embedded coordinates, and so
    # lambda_max to the last bit, come from the centred series.
    x = x - x.mean()

    if lag is None:
        lag = _autocorr_lag(x)
        if embed_dim > 1:
            lag = max(1, min(lag, (n // 4) // (embed_dim - 1)))
    if lag < 1:
        raise ValueError("lag must be at least 1")
    if min_separation is None:
        min_separation = _mean_period(x)
        if min_separation <= 0:
            min_separation = max((embed_dim - 1) * lag, 10)
        min_separation = min(min_separation, n // 10)
    min_separation = max(1, int(min_separation))

    m_pts = n - (embed_dim - 1) * lag
    if m_pts < 2 * (min_separation + 1):
        min_separation = max(1, m_pts // 4)
    offsets = np.arange(embed_dim) * lag
    Y = x[np.arange(m_pts)[:, None] + offsets[None, :]]

    nn_idx, nn_d = _nearest_neighbors(Y, min_separation)
    valid = np.isfinite(nn_d) & (nn_d > 0.0)
    refs = np.nonzero(valid)[0]
    n_zero = int(np.count_nonzero(nn_d == 0.0))
    if refs.size < _MIN_PAIRS:
        return _degenerate(
            "no usable neighbor pairs (signal nearly constant or repetitive)",
            embed_dim, lag, min_separation, fit_range, sample_rate,
            n_points=m_pts, n_zero_distance=n_zero,
        )

    curve = _divergence_curve(x, lag, embed_dim, refs, nn_idx[refs], fit_range[1])
    have = np.nonzero(np.isfinite(curve))[0]
    lo = fit_range[0]
    usable = have[(have >= lo)]
    if usable.size < 2:
        return _degenerate(
            "divergence curve too short to fit", embed_dim, lag,
            min_separation, fit_range, sample_rate,
            n_points=m_pts, n_zero_distance=n_zero,
        )
    slope = np.polyfit(usable.astype(float), curve[usable], 1)[0]
    return LyapunovResult(
        lambda_max=float(slope * sample_rate),
        embed_dim=embed_dim,
        lag=int(lag),
        min_separation=int(min_separation),
        fit_range=fit_range,
        sample_rate=sample_rate,
        divergence_curve=curve[np.isfinite(curve)],
        n_reference=int(refs.size),
        n_points=m_pts,
        n_zero_distance=n_zero,
    )


def phase_projection(series: RingSeries) -> tuple[np.ndarray, np.ndarray]:
    """Gap and leader speed minus own speed of every vehicle at every instant.

    Returns (gap, dv), each shaped like series.velocities. Per vehicle this
    is the two-dimensional projection in which uniform flow is a single
    point and sustained waves trace closed orbits.
    """
    v = series.velocities
    dv = v[:, series.leader_index()]
    dv -= v
    return series.gaps(), dv


def heatmap_grid(series: RingSeries, n_bins: int):
    """Mean speed of each occupied (instant, position bin) cell.

    Returns (rows, bins, mean_v): the sample index, bin index and mean speed
    of every cell holding at least one vehicle, in row-major cell order.
    Empty cells are not returned, so memory does not grow with n_bins.

    The cells are found one block of _HEATMAP_BLOCK instants at a time and
    keyed by instant within the block, so up to MAX_HEATMAP_BINS bins fit
    any series. A cell never spans two blocks, so each block's sums are
    complete, and they go straight into the three outputs, which hold at
    most one entry per vehicle per instant.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    n_t, n_veh = series.velocities.shape
    if min(n_t, _HEATMAP_BLOCK) * int(n_bins) >= 2**63:
        raise ValueError(f"{n_bins} bins overflow the int64 cell index")
    width = series.ring_length / n_bins
    rows = np.empty(n_t * n_veh, dtype=np.int64)
    bins = np.empty_like(rows)
    mean_v = np.empty(rows.size)
    k = 0
    for i in range(0, n_t, _HEATMAP_BLOCK):
        blk = slice(i, i + _HEATMAP_BLOCK)
        cell_bin = np.minimum((series.positions[blk] / width).astype(int), n_bins - 1)
        instant = np.arange(len(cell_bin))[:, None]
        # sum over the block's occupied cells only; bincount adds each
        # cell's speeds in input order, as np.add.at does
        cells, which = np.unique((instant * n_bins + cell_bin).ravel(), return_inverse=True)
        end = k + cells.size
        np.divmod(cells, n_bins, out=(rows[k:end], bins[k:end]))
        rows[k:end] += i
        np.divide(np.bincount(which, weights=series.velocities[blk].ravel()),
                  np.bincount(which), out=mean_v[k:end])
        k = end
    for out in (rows, bins, mean_v):
        out.resize(k, refcheck=False)  # shrinks in place, no copy
    return rows, bins, mean_v


def stop_events(series: RingSeries, v_stop: float = 0.1) -> list[tuple[float, int]]:
    """(time, vehicle) of each downward crossing of the stop threshold.

    A vehicle already below the threshold at the first sample counts once
    at that instant; re-entries after recovering above the threshold count
    again.
    """
    below = series.velocities < v_stop
    entered = np.zeros_like(below)
    entered[0] = below[0]
    entered[1:] = below[1:] & ~below[:-1]
    t_idx, veh = np.nonzero(entered)
    return [(float(series.times[t]), int(v)) for t, v in zip(t_idx, veh)]


@dataclass
class FleetStats:
    """Cross-fleet summary of one series.

    v_std_series : per-instant standard deviation of the fleet speeds (m/s)
    stops : (time, vehicle) of each stop event, as ``stop_events`` gives them
    min_gap : smallest gap anywhere in the series (m)
    max_density : largest per-vehicle density anywhere (cars/m)
    median_density : median per-vehicle density over all samples (cars/m)
    """

    v_std_series: np.ndarray
    stops: list[tuple[float, int]]
    min_gap: float
    max_density: float
    median_density: float


def fleet_stats(series: RingSeries, v_stop: float = 0.1) -> FleetStats:
    """The fleet numbers of a sampled run; v_stop is the stop threshold (m/s).

    This is the one reduction of a series to its speed spread, stop events,
    gap and density extremes; ``ringsim run`` builds stats.json from it.
    The densities are those of ``voronoi_density`` over every gap, read off
    the gaps' order statistics without a density matrix: a correctly
    rounded 1/gap never rises as the gap grows, so the largest density is
    that of the least gap, which raises ValueError when it is nonpositive,
    and the middle densities are the reciprocals of the middle gaps. The
    median density is ``np.mean`` of the one or two middle densities, the
    bits ``np.median`` gives; ``np.median`` itself would import numpy.ma
    for its NaN check, and the gaps hold no NaN.
    """
    gaps = series.gaps().ravel()
    min_gap = float(gaps.min())
    max_density = float(voronoi_density(min_gap))
    mid = sorted({(gaps.size - 1) // 2, gaps.size // 2})
    return FleetStats(
        v_std_series=series.velocities.std(axis=1),
        stops=stop_events(series, v_stop),
        min_gap=min_gap,
        max_density=max_density,
        median_density=float(np.mean(1.0 / np.partition(gaps, mid)[mid])),
    )
