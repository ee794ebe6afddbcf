"""Ring-road fleet assembly.

The fleet state is a flat vector [x1, v1, x2, v2, ..., xN, vN]. Vehicle i
follows vehicle i-1 (vehicle 0 follows vehicle N-1) on a ring of length L.
Positions are integrated unwrapped. ``simulate`` adds a lap offset, fixed
from the start state, to each position difference, so a vehicle that
drives through its leader gets a negative gap; ``rhs`` and the sampled
series work modulo L.

IDM vehicles receive their inputs (gap, own speed, approach rate) from the
state at t - tau when a reaction delay is configured; their approach rate
is passed to the IDM law as v_follower - v_leader. The FollowerStopper
vehicle always acts on the current state and uses v_leader - v_follower,
matching each controller's documented convention. Kinematics dx/dt = v is
never delayed.

``simulate`` builds the fleet's arrays once per run: the leader index, the
IDM coefficient columns of every vehicle and the FollowerStopper vehicles
with their leaders. The fleet derivative is written once, in two halves.
The delayed half (``_delayed_half``) reads only delayed states, one or a
batch of them: it calls the IDM law of :mod:`ringsim.models` once on the
arrays of the whole fleet and flags the IDM vehicles whose delayed gap is
nonpositive. The current half (``_deriv``) reads the current state: it
sets dx/dt = v, checks the current gaps together with the delayed flags,
calls the FollowerStopper law once per FollowerStopper vehicle, on
Python floats, in place of that vehicle's IDM value, and clamps vehicles
at standstill. On the delay path the delayed half runs once per attempted
step, on the delayed states of all its stages, which the solver reads in
one lookup; without delay both halves run on the current state at every
evaluation. The derivative is the one collision check: it raises
``CollisionError`` naming the first vehicle whose current gap, or delayed
gap if it is an IDM vehicle, is nonpositive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import integrators
from .models import (
    CollisionError,
    FsParams,
    IdmColumns,
    IdmParams,
    fs_accel,
    fs_command,
    idm_accel,
    idm_equilibrium_speed,
)

__all__ = [
    "RingScenario",
    "RingSeries",
    "PRESET_NAMES",
    "build_uniform_scenario",
    "initial_state",
    "apply_perturbation",
    "rhs",
    "simulate",
    "sample",
    "equilibrium_scenario",
]

PRESET_NAMES = ("idm", "idm_delayed", "mixed", "mixed_delayed")
_SAMPLE_BLOCK = 4096  # instants per dense evaluation in ``sample``


@dataclass(frozen=True, kw_only=True)
class RingScenario:
    """Full description of one ring-road run; the defaults are the stock ring.

    ring_length : circumference of the ring (m)
    controllers : per-vehicle controller parameters, IdmParams or FsParams,
        ordered so that vehicle i follows vehicle i-1
    tau : reaction delay applied to IDM inputs only (s, 0 disables)
    v_init : nominal initial speed of every vehicle (m/s)
    perturb_amp : half-width of the uniform velocity perturbation (m/s)
    seed : perturbation RNG seed (nonnegative)
    t_end : simulated duration (s)
    sample_hz : uniform output sampling rate (Hz)
    """

    ring_length: float = 100.0
    controllers: tuple[IdmParams | FsParams, ...]
    tau: float = 0.0
    v_init: float = 5.0
    perturb_amp: float = 1e-3
    seed: int = 1
    t_end: float = 1500.0
    sample_hz: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "controllers", tuple(self.controllers))
        n = len(self.controllers)
        if n < 2:
            raise ValueError("a ring needs at least 2 vehicles")
        for name in ("ring_length", "tau", "v_init", "perturb_amp", "t_end", "sample_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.ring_length > 0:
            raise ValueError("ring_length must be positive")
        s0_max = max(
            (p.s0 for p in self.controllers if isinstance(p, IdmParams)), default=0.0
        )
        if self.ring_length / n <= s0_max:
            raise ValueError(
                "ring too crowded: average spacing must exceed every standstill gap"
            )
        for name in ("tau", "v_init", "perturb_amp", "seed", "t_end"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.sample_hz > 0:
            raise ValueError("sample_hz must be positive")

    @property
    def n_vehicles(self) -> int:
        return len(self.controllers)


def build_uniform_scenario(preset: str, seed: int = 1) -> RingScenario:
    """One of the four stock scenarios: 10 vehicles on the stock ring.

    Every other value is a RingScenario default. The delayed presets use a
    0.5 s reaction delay on the IDM vehicles; the mixed presets replace
    vehicle 0 with a FollowerStopper controller (which is never delayed).
    """
    if preset not in PRESET_NAMES:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESET_NAMES}")
    controllers: list[IdmParams | FsParams] = [IdmParams()] * 10
    if preset.startswith("mixed"):
        controllers[0] = FsParams()
    tau = 0.5 if preset.endswith("_delayed") else 0.0
    return RingScenario(controllers=controllers, tau=tau, seed=seed)


def initial_state(scenario: RingScenario) -> np.ndarray:
    """Equally spaced fleet at the nominal speed, vehicle 0 at x=0.

    Positions decrease with the vehicle index (modulo L) so that each
    vehicle's leader sits one spacing ahead of it.
    """
    n = scenario.n_vehicles
    spacing = scenario.ring_length / n
    z = np.empty(2 * n)
    z[0::2] = (-np.arange(n) * spacing) % scenario.ring_length
    z[1::2] = scenario.v_init
    return z


def apply_perturbation(z: np.ndarray, amp: float, seed: int) -> np.ndarray:
    """Add i.i.d. uniform[-amp, amp] offsets to the velocity slots.

    Positions are untouched, resulting velocities are clamped at zero, and
    the result is a deterministic function of (z, amp, seed).
    """
    if amp < 0:
        raise ValueError("perturbation amplitude must be nonnegative")
    out = z.copy()
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-amp, amp, z.size // 2)
    out[1::2] = np.maximum(out[1::2] + offsets, 0.0)
    return out


def _leaders(n: int) -> np.ndarray:
    """Index of each vehicle's leader: vehicle i follows vehicle i-1."""
    return (np.arange(n) - 1) % n


class _Fleet:
    """Per-run arrays of a scenario, built once and read by every RHS call.

    leaders : index of each vehicle's leader (see _leaders)
    idm : IDM coefficient columns over all vehicles; a FollowerStopper
        vehicle carries the default IdmParams, and its IDM value is
        replaced by its own law
    fs : (vehicle, leader, FsParams) of each FollowerStopper vehicle
    laps : lap offset of each vehicle's gap, fixed from the start state z0;
        None without z0, which takes every gap modulo L
    """

    def __init__(self, scenario: RingScenario, z0: np.ndarray | None = None):
        self.length = scenario.ring_length
        self.leaders = _leaders(scenario.n_vehicles)
        params = scenario.controllers
        self.idm = IdmColumns.stack(
            [p if isinstance(p, IdmParams) else IdmParams() for p in params])
        self.fs = [(i, int(self.leaders[i]), p) for i, p in enumerate(params)
                   if isinstance(p, FsParams)]
        self.laps = None
        if z0 is not None:
            x = z0[0::2]
            self.laps = -self.length * np.floor((x[self.leaders] - x) / self.length)

    def gaps(self, x: np.ndarray) -> np.ndarray:
        """Forward gap of every vehicle to its leader, over the last axis of x."""
        d = x.take(self.leaders, axis=-1) - x
        return d % self.length if self.laps is None else d + self.laps


def _idm(gaps: np.ndarray, v: np.ndarray, fleet: _Fleet) -> np.ndarray:
    """IDM acceleration of every vehicle, from its gap and the speeds."""
    v = np.maximum(v, 0.0)
    return idm_accel(gaps, v, v - v.take(fleet.leaders, axis=-1), fleet.idm)


def _delayed_half(zd: np.ndarray, fleet: _Fleet) -> tuple[np.ndarray, np.ndarray]:
    """The part of the fleet derivative that reads only the delayed state.

    zd is one delayed state, shaped (2n,), or m of them, shaped (m, 2n).
    Returns the IDM acceleration of every vehicle and the mask of IDM
    vehicles whose delayed gap is nonpositive, each shaped (n,) or (m, n).
    A FollowerStopper vehicle, whose IDM value is discarded, and a flagged
    vehicle, whose stage raises, are given a placeholder gap of 1 m, so
    the IDM law never raises here.
    """
    gaps = fleet.gaps(zd[..., 0::2])
    hit = gaps <= 0.0
    for i, _, _ in fleet.fs:
        # FollowerStopper vehicles act on the current state: only IDM
        # vehicles may fail the delayed-gap check
        hit[..., i] = False
        gaps[..., i] = 1.0
    if np.count_nonzero(hit):
        gaps[hit] = 1.0
    return _idm(gaps, zd[..., 1::2], fleet), hit


def _deriv(z: np.ndarray, lag: tuple[np.ndarray, np.ndarray] | None,
           fleet: _Fleet) -> np.ndarray:
    """The fleet derivative at the current state z.

    lag is ``_delayed_half`` of the delayed state; None for a fleet without
    delay, whose IDM inputs are read from z itself.
    """
    v = z[1::2]
    gaps = fleet.gaps(z[0::2])
    hit = gaps <= 0.0
    if lag is not None:
        acc_d, hit_d = lag
        hit |= hit_d
    if np.count_nonzero(hit):
        i = int(np.argmax(hit))
        raise CollisionError(f"vehicle {i} has a nonpositive gap to its leader", vehicle=i)

    out = np.empty_like(z)
    out[0::2] = v
    acc = out[1::2]
    acc[:] = _idm(gaps, v, fleet) if lag is None else acc_d
    # FollowerStopper vehicles are few (one in the stock presets); on Python
    # floats the law runs its float body directly, without numpy.
    for i, ldr, p in fleet.fs:
        v_i, v_lead = v.item(i), v.item(ldr)
        acc[i] = fs_accel(v_i, fs_command(gaps.item(i), v_lead - v_i, v_lead, p), p)
    stopped = v <= 0.0
    if np.count_nonzero(stopped):
        acc[stopped & (acc < 0.0)] = 0.0  # standstill: never integrate backwards
    return out


def rhs(t, z, z_delayed, scenario: RingScenario) -> np.ndarray:
    """Time derivative of the fleet state.

    z_delayed is the state at t - scenario.tau; it is read only when tau
    is positive, so z itself may be passed when tau is 0. Position
    derivatives always equal the current velocity slots. IDM
    accelerations are evaluated entirely from the delayed state; the
    FollowerStopper vehicle from the current one. Speeds fed to the IDM law
    are clamped at zero, those fed to the FollowerStopper law are not, and
    a vehicle at standstill is never given a negative acceleration.

    Gaps are taken modulo L. Raises CollisionError when a current gap, or
    the delayed gap of an IDM vehicle, is nonpositive.
    """
    z = np.asarray(z, dtype=float)
    fleet = _Fleet(scenario)
    lag = None
    if scenario.tau > 0:
        lag = _delayed_half(np.asarray(z_delayed, dtype=float), fleet)
    return _deriv(z, lag, fleet)


def simulate(scenario: RingScenario,
             cfg: integrators.IntegratorConfig | None = None,
             z0: np.ndarray | None = None) -> integrators.Trajectory:
    """Integrate a scenario and return the raw adaptive-step trajectory.

    The initial state is the equally spaced fleet with the scenario's
    perturbation applied (or the explicit z0 override). The delay path is
    taken exactly when tau > 0, with the perturbed initial state held
    constant before t = 0. A collision ends the run "terminated", with its
    CollisionError as the event.
    """
    if z0 is None:
        z0 = apply_perturbation(
            initial_state(scenario), scenario.perturb_amp, scenario.seed
        )
    else:
        z0 = np.asarray(z0, dtype=float).copy()
    fleet = _Fleet(scenario, z0)
    if scenario.tau > 0:
        # the delayed half runs once per attempted step, on the delayed
        # states of all its stages, and each stage gets its row
        return integrators.integrate_dde(
            lambda t, z, lag: _deriv(z, lag, fleet),
            z0,
            tau=scenario.tau,
            t_span=(0.0, scenario.t_end),
            cfg=cfg,
            domain_error=CollisionError,
            lag_map=lambda zd: list(zip(*_delayed_half(zd, fleet))),
        )
    return integrators.integrate_ode(
        lambda t, z: _deriv(z, None, fleet),
        z0,
        (0.0, scenario.t_end),
        cfg=cfg,
        domain_error=CollisionError,
    )


@dataclass
class RingSeries:
    """Uniformly sampled fleet series on the ring.

    positions are wrapped into [0, L); velocities are clamped at zero
    (braking to standstill can undershoot zero by roughly the solver
    tolerance in the raw trajectory). Arrays are (n_samples, n_vehicles).
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    ring_length: float
    _gaps: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_vehicles(self) -> int:
        return self.positions.shape[1]

    def leader_index(self) -> np.ndarray:
        return _leaders(self.n_vehicles)

    def gaps(self) -> np.ndarray:
        """Per-sample circular gap to each vehicle's leader.

        Computed on the first call; every call returns that one read-only
        array.
        """
        if self._gaps is None:
            pos = self.positions
            self._gaps = (pos[:, self.leader_index()] - pos) % self.ring_length
            self._gaps.flags.writeable = False
        return self._gaps

    def window(self, t_from: float = -np.inf, t_to: float = np.inf) -> "RingSeries":
        """Sub-series with t_from <= t <= t_to."""
        m = (self.times >= t_from) & (self.times <= t_to)
        return RingSeries(
            self.times[m], self.positions[m], self.velocities[m], self.ring_length
        )


def sample(traj: integrators.Trajectory, scenario: RingScenario) -> RingSeries:
    """Sample a trajectory's dense output at the scenario rate into a RingSeries.

    The grid starts at the trajectory's first instant and steps by
    1/sample_hz; the final grid point never exceeds the trajectory end.
    The grid is evaluated in blocks, which bounds the temporary arrays.
    """
    t0, t1 = float(traj.times[0]), traj.t_end
    hz = scenario.sample_hz
    n = int(math.floor((t1 - t0) * hz + 1e-9)) + 1
    times = t0 + np.arange(n) / hz
    times[-1] = min(times[-1], t1)
    states = np.empty((n, traj.states.shape[1]))
    for i in range(0, n, _SAMPLE_BLOCK):
        states[i:i + _SAMPLE_BLOCK] = traj.evaluate(times[i:i + _SAMPLE_BLOCK])
    return RingSeries(
        times=times,
        positions=states[:, 0::2] % scenario.ring_length,
        velocities=np.maximum(states[:, 1::2], 0.0),
        ring_length=scenario.ring_length,
    )


def equilibrium_scenario(preset: str = "idm", seed: int = 1) -> RingScenario:
    """IDM preset variant started exactly on the uniform flow manifold.

    The nominal speed is set to the IDM equilibrium speed for the uniform
    spacing and the perturbation is disabled. A preset with a
    FollowerStopper vehicle raises ValueError.
    """
    base = build_uniform_scenario(preset, seed=seed)
    if any(isinstance(p, FsParams) for p in base.controllers):
        raise ValueError(f"preset {preset!r} has a FollowerStopper vehicle; a mixed "
                         "equilibrium is not uniform flow and is ROADMAP item 1")
    idm = base.controllers[0]
    v_eq = idm_equilibrium_speed(base.ring_length / base.n_vehicles, idm)
    return replace(base, v_init=v_eq, perturb_amp=0.0)
