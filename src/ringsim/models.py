"""Car-following control laws.

Two controllers are implemented as pure, stateless functions: the
Intelligent Driver Model (IDM), which maps (gap, speed, approach rate) to
an acceleration, and the FollowerStopper speed-command law together with
the first-order tracking rule that turns a commanded speed into an
acceleration.

Every law is written once, and its inputs may be scalars, 0-d or 1-d
arrays that broadcast together; scalar inputs give a scalar. The IDM law
and the tracking rule are numpy operations. The FollowerStopper command is
plain float arithmetic on one vehicle (``_fs_select``), which
``fs_command``, ``fs_region`` and ``fs_boundary`` apply through
``_per_entry``. The IDM law has one unchecked body (``_idm_law``):
``idm_accel`` checks the gaps and calls it. The fleet derivative of
:mod:`ringsim.ring` calls both bodies directly, on gaps it has already
checked. IDM coefficients are one vehicle's ``IdmParams`` or the
``IdmColumns`` of several vehicles, which carry the same attribute names
with one array entry per vehicle; FollowerStopper coefficients are one
vehicle's ``FsParams``.

Sign conventions differ between the two laws and are documented on each
function; mapping a fleet's leader/follower speeds onto these arguments is
the job of :mod:`ringsim.ring`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "CollisionError",
    "IdmParams",
    "FsParams",
    "FsRegion",
    "IdmColumns",
    "idm_desired_gap",
    "idm_accel",
    "idm_equilibrium_speed",
    "fs_boundary",
    "fs_region",
    "fs_command",
    "fs_accel",
]


class CollisionError(ValueError):
    """A controller was evaluated at a nonpositive gap (touching vehicles)."""

    def __init__(self, message: str, vehicle: int | None = None):
        super().__init__(message)
        self.vehicle = vehicle


@dataclass(frozen=True)
class IdmParams:
    """IDM coefficients.

    a : maximum acceleration (m/s^2)
    v0 : desired free-road speed (m/s)
    delta : free-road exponent (dimensionless)
    s0 : standstill gap (m)
    T : desired time gap (s)
    b : comfortable deceleration, given as a positive number (m/s^2)
    """

    a: float = 0.73
    v0: float = 33.33
    delta: float = 4.0
    s0: float = 2.0
    T: float = 1.6
    b: float = 1.67

    def __post_init__(self):
        for name in ("a", "v0", "delta", "s0", "b"):
            if not getattr(self, name) > 0:
                raise ValueError(f"IdmParams.{name} must be positive")
        if not self.T >= 0:
            raise ValueError("IdmParams.T must be nonnegative")

    @property
    def two_sqrt_ab(self) -> float:
        """Scale 2*sqrt(a*b) of the approach term of the desired gap (m/s)."""
        return 2.0 * math.sqrt(self.a * self.b)


class IdmColumns(NamedTuple):
    """IDM coefficients of several vehicles, one array entry per vehicle.

    The fields are the IdmParams attributes the laws read, so
    ``idm_accel`` and ``idm_desired_gap`` take either form.
    """

    a: np.ndarray
    v0: np.ndarray
    delta: np.ndarray
    s0: np.ndarray
    T: np.ndarray
    two_sqrt_ab: np.ndarray

    @classmethod
    def stack(cls, params: Sequence[IdmParams]) -> "IdmColumns":
        """Columns of the given vehicles' coefficients, in their order."""
        return cls(*(np.array([getattr(p, f) for p in params], dtype=float)
                     for f in cls._fields))


# Closing speed, beyond any reachable state, at which FsParams checks its
# switching boundaries. Each is affine in q = min(0, dv)^2 and the omega
# check covers q = 0, so ordering here means ordering for all dv in [-40, 0].
_FS_DV_CHECK = -40.0


@dataclass(frozen=True)
class FsParams:
    """FollowerStopper coefficients.

    r : desired free-road speed commanded in the outermost region (m/s)
    omega : quiescent offsets of the three safety envelopes, strictly
        increasing (m)
    alpha : decelerations shaping the quadratic part of each envelope,
        all positive (m/s^2)
    k_track : gain of the first-order speed tracking law (1/s)

    Construction verifies not only omega ordering but that the full
    switching boundaries satisfy d1 < d2 < d3 across the closing-speed
    operating range; the quadratic terms scale with 1/(2*alpha_j), so omega
    ordering alone does not guarantee it.
    """

    r: float = 4.75
    omega: tuple[float, float, float] = (2.25, 3.0, 4.5)
    alpha: tuple[float, float, float] = (1.0, 0.7, 0.5)
    k_track: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        object.__setattr__(self, "alpha", tuple(float(g) for g in self.alpha))
        if len(self.omega) != 3 or len(self.alpha) != 3:
            raise ValueError("FsParams.omega and FsParams.alpha need exactly 3 entries")
        if not self.r > 0:
            raise ValueError("FsParams.r must be positive")
        if not self.k_track > 0:
            raise ValueError("FsParams.k_track must be positive")
        if not (0 < self.omega[0] < self.omega[1] < self.omega[2]):
            raise ValueError("FsParams.omega must be strictly increasing and positive")
        if not all(g > 0 for g in self.alpha):
            raise ValueError("FsParams.alpha must all be positive")
        d1, d2, d3 = _fs_boundaries(_FS_DV_CHECK, self)
        if not d1 < d2 < d3:
            raise ValueError(f"FsParams switching boundaries lose their ordering "
                             f"at dv={_FS_DV_CHECK:.3f} m/s")


def _check_gap(s, law: str) -> None:
    """CollisionError if any entry of the gap s is nonpositive."""
    if isinstance(s, float) and s > 0.0:  # one positive gap: nothing to scan
        return
    bad = s <= 0.0
    if np.count_nonzero(bad):
        first = np.asarray(s, dtype=float)[np.asarray(bad)].flat[0]
        raise CollisionError(f"nonpositive gap {float(first)!r} in {law} evaluation")


def idm_desired_gap(v, dv, p: IdmParams | IdmColumns):
    """Dynamically desired gap s* = s0 + v*T + v*dv / (2*sqrt(a*b)).

    ``dv`` is the approach rate with the convention dv = v_follower -
    v_leader, so closing in on the leader enlarges the desired gap. The
    value is returned unclamped and may fall below s0 (or 0) when the gap
    is opening fast.
    """
    return p.s0 + v * p.T + v * dv / p.two_sqrt_ab


def idm_accel(s, v, dv, p: IdmParams | IdmColumns):
    """IDM acceleration a*[1 - (v/v0)^delta - (s*/s)^2].

    s : gap to the leader (m), must be positive
    v : own speed (m/s)
    dv : approach rate, v_follower - v_leader (m/s)

    Unbounded below; strong braking is allowed. Raises CollisionError if
    any gap is nonpositive, which is a collision state rather than a model
    input.
    """
    _check_gap(s, "IDM")
    return _idm_law(s, v, dv, p)


def _idm_law(s, v, dv, p: IdmParams | IdmColumns):
    """The body of ``idm_accel``, for gaps the caller has already checked."""
    sstar = idm_desired_gap(v, dv, p)
    return p.a * (1.0 - (v / p.v0) ** p.delta - (sstar / s) ** 2)


def idm_equilibrium_speed(s: float, p: IdmParams) -> float:
    """Speed at which idm_accel(s, v, 0) vanishes, by bisection.

    For s > s0 there is exactly one such speed in (0, v0) because the
    acceleration is strictly decreasing in v at dv=0. The bracket is halved
    until no float lies strictly inside it, and its midpoint, one of its
    two ends, is returned. For s <= s0 no positive equilibrium exists and
    0 is returned.
    """
    if s <= p.s0:
        return 0.0
    lo, hi = 0.0, p.v0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if idm_accel(s, mid, 0.0, p) > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _per_entry(law, otype, *args):
    """law on one vehicle's inputs, or entry by entry on broadcast arrays.

    Python floats, ``np.float64`` included, run the float body directly,
    converted to Python floats, so a command or boundary comes back as a
    Python float. Any other input runs through ``np.vectorize`` with the
    output type otype; scalar inputs give a scalar.
    """
    if all(isinstance(a, float) for a in args):
        return law(*map(float, args))
    return np.vectorize(law, otypes=[otype])(*args)[()]


def fs_boundary(j: int, dv, p: FsParams):
    """Switching boundary d_j = omega_j + min(0, dv)^2 / (2*alpha_j).

    ``dv`` here is the approach rate with the convention dv = v_leader -
    v_follower, so closing is negative and inflates the boundary; opening
    (dv >= 0) leaves it at omega_j.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"boundary index must be 1, 2 or 3, got {j}")
    return _per_entry(lambda d: _fs_boundaries(d, p)[j - 1], float, dv)


def _fs_boundaries(dv: float, p: FsParams) -> tuple[float, float, float]:
    """The three switching boundaries (d1, d2, d3) at one dv; see fs_boundary."""
    closing = min(dv, 0.0)
    q = closing * closing
    (w1, w2, w3), (a1, a2, a3) = p.omega, p.alpha
    return w1 + q / (2.0 * a1), w2 + q / (2.0 * a2), w3 + q / (2.0 * a3)


class FsRegion(IntEnum):
    """Gap regions of the FollowerStopper law, nearest first."""

    STOP = 1    # command zero speed
    FOLLOW = 2  # ramp from zero up to the (clamped) leader speed
    BLEND = 3   # ramp from leader speed up to the free-road speed
    FREE = 4    # command the free-road speed r


def _fs_select(dx: float, dv: float, v_lead: float,
               p: FsParams) -> tuple[FsRegion, float]:
    """The FollowerStopper law at one (gap, approach rate, leader speed).

    Returns the region dx lies in and the command of that band, and
    computes no other band's command: STOP for dx <= d1, FOLLOW for
    d1 < dx <= d2, BLEND for d2 < dx <= d3, FREE beyond d3. A NaN
    comparison is false, so a NaN gap or boundary falls through to FREE.
    """
    d1, d2, d3 = _fs_boundaries(dv, p)
    if dx <= d1:
        return FsRegion.STOP, 0.0
    # the leader speed clamped to [0, r], as np.maximum would clamp it: NaN
    # stays NaN and -0.0 becomes 0.0 (max(v_lead, 0.0) would keep -0.0)
    v_hat = min(0.0 if v_lead <= 0.0 else v_lead, p.r)
    if dx <= d2:
        return FsRegion.FOLLOW, v_hat * (dx - d1) / (d2 - d1)
    if dx <= d3:
        return FsRegion.BLEND, v_hat + (p.r - v_hat) * (dx - d2) / (d3 - d2)
    return FsRegion.FREE, p.r


def fs_region(dx, dv, p: FsParams):
    """Classify (gap, approach rate) pairs into the four regions.

    Bands are half-open exactly as defined by the switching boundaries:
    STOP for dx <= d1, FOLLOW for d1 < dx <= d2, BLEND for d2 < dx <= d3,
    FREE beyond d3. Scalar input gives an FsRegion, array input an array
    of region codes.
    """
    _check_gap(dx, "FollowerStopper")
    region = _per_entry(lambda x, d: _fs_select(x, d, 0.0, p)[0], np.int64, dx, dv)
    return FsRegion(region) if np.ndim(region) == 0 else region


def fs_command(dx, dv, v_lead, p: FsParams):
    """Commanded speed of the FollowerStopper law; always within [0, r].

    The leader speed enters clamped to [0, r]. The command is continuous
    in dx: zero up to d1, ramping to the clamped leader speed at d2,
    ramping on to r at d3, and r beyond, over the bands of ``fs_region``.
    """
    _check_gap(dx, "FollowerStopper")
    return _per_entry(lambda x, d, v: _fs_select(x, d, v, p)[1], float, dx, dv, v_lead)


def fs_accel(v, v_cmd, p: FsParams):
    """First-order speed tracking: dv/dt = k_track * (v_cmd - v)."""
    return p.k_track * (v_cmd - v)
