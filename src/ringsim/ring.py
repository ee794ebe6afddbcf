"""Ring-road fleet assembly.

The fleet state is a flat vector [x1, v1, x2, v2, ..., xN, vN]. Vehicle i
follows vehicle i-1 (vehicle 0 follows vehicle N-1) on a ring of length L.
Positions are integrated unwrapped; ``rhs`` and the sampled series work
modulo L. What lives where:

- ``RingScenario``: one run's description, whose defaults are the stock
  ring; ``build_uniform_scenario``, ``initial_state`` and
  ``apply_perturbation`` make the stock runs and their start states.
- ``_Fleet``: the per-run arrays every derivative reads, lap offsets
  included, built once by ``simulate``.
- ``_delayed_half`` and ``_deriv``: the fleet derivative, written once in
  two halves, the one reading only the delayed state and the other the
  current one, around one IDM body (``_idm``); ``rhs`` is its public form.
- ``simulate``: the solver call, with the delayed half as its ``lag_map``.
- ``RingSeries`` and ``sample``: the sampled series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import integrators
from .models import (
    CollisionError,
    FsParams,
    IdmColumns,
    IdmParams,
    _fs_select,
    _idm_law,
    fs_accel,
    idm_equilibrium_speed,
)

__all__ = [
    "RingScenario",
    "RingSeries",
    "PRESET_NAMES",
    "build_uniform_scenario",
    "initial_state",
    "apply_perturbation",
    "circular_gaps",
    "rhs",
    "simulate",
    "sample",
    "equilibrium_scenario",
]

PRESET_NAMES = ("idm", "idm_delayed", "mixed", "mixed_delayed")


@dataclass(frozen=True, kw_only=True)
class RingScenario:
    """Full description of one ring-road run; the defaults are the stock ring.

    ring_length : circumference of the ring (m)
    controllers : per-vehicle controller parameters, IdmParams or FsParams,
        ordered so that vehicle i follows vehicle i-1
    tau : reaction delay applied to IDM inputs only (s, 0 disables)
    v_init : nominal initial speed of every vehicle (m/s)
    perturb_amp : half-width of the uniform velocity perturbation (m/s);
        its range 2 * perturb_amp must be finite
    seed : seed of the perturbation's stream (nonnegative; see apply_perturbation)
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
        if not math.isfinite(2 * self.perturb_amp):
            raise ValueError("perturb_amp too large: the perturbation's range "
                             "2 * perturb_amp must be finite")
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


# numpy's SeedSequence and O'Neill's PCG64 (HMC-CS-2014-0905), on Python
# integers: the 32-bit hash constants of the one and the 128-bit LCG
# multiplier of the other.
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's 32-bit hash of one word, whose constant h steps by mult
    at every call."""
    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16
    return hashmix


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's 128-bit initial state and stream for an int seed >= 0: the
    four words of ``SeedSequence(seed).generate_state(4, np.uint64)``."""
    entropy = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    words = [out(pool[i % 4]) for i in range(8)]
    # each uint64 is two uint32 words, the low one first
    w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _uniform(seed: int, low: float, high: float, n: int) -> list[float]:
    """numpy's ``default_rng(seed).uniform(low, high, n)``, bit for bit.

    numpy fixes the PCG64 bit stream across versions (NEP 19) but not the
    values of Generator methods; this port fixes both, and imports none of
    numpy's random module, which would load secrets, hashlib and OpenSSL.
    Raises OverflowError when high - low is not finite, as numpy does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    low, high = float(low), float(high)
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    initstate, initseq = _seed_state(seed)
    inc = (initseq << 1 | 1) & _M128
    # seeding: a step from state 0 (which gives inc), add initstate, a step
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        # XSL-RR: the xor of the halves, rotated right by the top 6 bits
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        out.append(low + span * ((x >> 11) * 2.0**-53))
    return out


def apply_perturbation(z: np.ndarray, amp: float, seed: int) -> np.ndarray:
    """Add i.i.d. uniform[-amp, amp] offsets to the velocity slots.

    The offsets are numpy's ``default_rng(seed).uniform(-amp, amp, n)``,
    reproduced in the package (``_uniform``) so that neither the numpy
    version nor an import of numpy's random module enters a run. Positions are
    untouched, resulting velocities are clamped at zero, and the result is
    a deterministic function of (z, amp, seed). seed is a nonnegative
    integer, numpy's included; a negative seed or amp raises ValueError,
    and an amp whose range 2 * amp overflows raises OverflowError.
    """
    if amp < 0:
        raise ValueError("perturbation amplitude must be nonnegative")
    out = z.copy()
    out[1::2] = np.maximum(out[1::2] + _uniform(seed, -amp, amp, z.size // 2), 0.0)
    return out


def _leaders(n: int) -> np.ndarray:
    """Index of each vehicle's leader: vehicle i follows vehicle i-1."""
    return (np.arange(n) - 1) % n


def circular_gaps(x: np.ndarray, ring_length: float) -> np.ndarray:
    """Forward gap of every vehicle to its leader modulo the ring length,
    over the last axis of the positions x."""
    return (x[..., _leaders(x.shape[-1])] - x) % ring_length


class _Fleet:
    """Per-run arrays of a scenario, built once and read by every RHS call.

    leaders : index of each vehicle's leader (see _leaders)
    slots : index of the leader's slot for every slot of the state: its
        position for a position, its speed for a speed
    idm : IDM coefficient columns over all vehicles; a FollowerStopper
        vehicle carries the default IdmParams, and its IDM value is
        replaced by its own law
    fs : (vehicle, leader, FsParams) of each FollowerStopper vehicle
    fs_index : index of each FollowerStopper vehicle
    laps : lap offset of each vehicle's gap, fixed from the start state z0,
        so that a vehicle that drives through its leader gets a negative
        gap; None without z0, which takes every gap modulo L
    """

    def __init__(self, scenario: RingScenario, z0: np.ndarray | None = None):
        self.length = scenario.ring_length
        self.leaders = _leaders(scenario.n_vehicles)
        self.slots = (2 * self.leaders[:, None] + np.arange(2)).ravel()
        params = scenario.controllers
        self.idm = IdmColumns.stack(
            [p if isinstance(p, IdmParams) else IdmParams() for p in params])
        self.fs = [(i, int(self.leaders[i]), p) for i, p in enumerate(params)
                   if isinstance(p, FsParams)]
        self.fs_index = np.array([i for i, _, _ in self.fs], dtype=int)
        self.laps = None
        if z0 is not None:
            x = z0[0::2]
            self.laps = -self.length * np.floor((x[self.leaders] - x) / self.length)

    def ahead(self, z: np.ndarray) -> np.ndarray:
        """Leader's slot minus own slot over the last axis of the states z,
        in one gather: the gap in each position slot, the leader's speed
        less the vehicle's own in each speed slot."""
        d = z.take(self.slots, axis=-1)
        d -= z
        gaps = d[..., 0::2]
        if self.laps is None:
            gaps %= self.length
        else:
            gaps += self.laps
        return d


def _least(a: np.ndarray) -> float:
    """The least entry of a over every axis, or its first NaN. On arrays
    this small, argmin takes about half the time of a comparison and a
    count, or of a minimum reduction."""
    return a.item(a.argmin())


def _check_gaps(gaps: np.ndarray):
    """CollisionError naming the first vehicle whose gap is nonpositive, in
    the first such state; the gaps are scanned only when their least entry
    is not positive. A NaN gap does not raise."""
    if not _least(gaps) > 0.0:
        hit = gaps <= 0.0
        if np.count_nonzero(hit):
            i = int(np.argmax(hit)) % hit.shape[-1]  # row-major: the first state first
            raise CollisionError(f"vehicle {i} has a nonpositive gap to its leader",
                                 vehicle=i)


def _idm(d: np.ndarray, v: np.ndarray, moving: bool, fleet: _Fleet) -> np.ndarray:
    """The IDM acceleration of every vehicle, from the leader differences d
    of ``_Fleet.ahead`` (its gaps checked by the caller) and the speeds v,
    over the last axis. moving says that the least speed is positive; only
    when it is not does the law read the speeds clamped at zero."""
    gaps = d[..., 0::2]
    if moving:
        return _idm_law(gaps, v, -d[..., 1::2], fleet.idm)  # v - v_lead
    v = np.maximum(v, 0.0)
    return _idm_law(gaps, v, v - v.take(fleet.leaders, axis=-1), fleet.idm)


def _delayed_half(zd: np.ndarray, fleet: _Fleet) -> np.ndarray:
    """The part of the fleet derivative that reads only the delayed state.

    zd is one delayed state, shaped (2n,), or m of them, shaped (m, 2n).
    Returns the IDM acceleration of every vehicle, shaped (n,) or (m, n).
    Raises CollisionError for the first IDM vehicle whose delayed gap is
    nonpositive, in the first such state. A FollowerStopper vehicle, whose
    IDM value is discarded, is given a placeholder gap of 1 m.
    """
    d = fleet.ahead(zd)
    gaps, v = d[..., 0::2], zd[..., 1::2]
    gaps[..., fleet.fs_index] = 1.0
    _check_gaps(gaps)
    return _idm(d, v, _least(v) > 0.0, fleet)


def _deriv(z: np.ndarray, acc_d: np.ndarray | None, fleet: _Fleet) -> np.ndarray:
    """The fleet derivative at the current state z.

    acc_d is ``_delayed_half`` of the delayed state; None for a fleet
    without delay, which takes the IDM accelerations of z itself. Raises
    CollisionError for the first vehicle whose current gap is nonpositive.
    Each FollowerStopper vehicle's IDM value is replaced by its own law.
    Only when the least speed is not positive is a vehicle at standstill
    denied a negative acceleration.
    """
    d = fleet.ahead(z)
    gaps, v = d[0::2], z[1::2]
    _check_gaps(gaps)
    moving = _least(v) > 0.0

    out = np.empty_like(z)
    out[0::2] = v
    acc = out[1::2]
    acc[:] = _idm(d, v, moving, fleet) if acc_d is None else acc_d
    # FollowerStopper vehicles are few (one in the stock presets); on Python
    # floats of checked gaps the law's float body runs directly, without
    # numpy and without a second gap check.
    for i, ldr, p in fleet.fs:
        v_i, v_lead = v.item(i), v.item(ldr)
        acc[i] = fs_accel(v_i, _fs_select(gaps.item(i), v_lead - v_i, v_lead, p)[1], p)
    if not moving:  # standstill: never integrate backwards
        acc[(v <= 0.0) & (acc < 0.0)] = 0.0
    return out


def rhs(t, z, z_delayed, scenario: RingScenario) -> np.ndarray:
    """Time derivative of the fleet state.

    z_delayed is the state at t - scenario.tau; it is read only when tau
    is positive, so z itself may be passed when tau is 0. Position
    derivatives always equal the current velocity slots: kinematics is
    never delayed. IDM accelerations are evaluated entirely from the
    delayed state, with the approach rate v_follower - v_leader; the
    FollowerStopper vehicle from the current one, with v_leader -
    v_follower, each law's own convention. Speeds fed to the IDM law are
    clamped at zero, those fed to the FollowerStopper law are not, and a
    vehicle at standstill is never given a negative acceleration.

    Gaps are taken modulo L. Raises CollisionError naming the first IDM
    vehicle whose delayed gap is nonpositive, if any, and else the first
    vehicle whose current gap is: the delayed state is read first.
    """
    z = np.asarray(z, dtype=float)
    fleet = _Fleet(scenario)
    acc_d = None
    if scenario.tau > 0:
        acc_d = _delayed_half(np.asarray(z_delayed, dtype=float), fleet)
    return _deriv(z, acc_d, fleet)


def simulate(scenario: RingScenario,
             cfg: integrators.IntegratorConfig | None = None,
             z0: np.ndarray | None = None) -> integrators.Trajectory:
    """Integrate a scenario and return the raw adaptive-step trajectory.

    The initial state is the equally spaced fleet with the scenario's
    perturbation applied (or the explicit z0 override). The delay path is
    taken exactly when tau > 0, with the perturbed initial state held
    constant before t = 0. A collision ends the run "terminated", with its
    CollisionError as the event. The solver samples it at ``sample_hz``;
    a sample grid too large to allocate is an IntegrationError.
    """
    if z0 is None:
        z0 = apply_perturbation(
            initial_state(scenario), scenario.perturb_amp, scenario.seed
        )
    else:
        z0 = np.asarray(z0, dtype=float).copy()
    fleet = _Fleet(scenario, z0)
    if scenario.tau > 0:
        # the delayed half runs on each lookup's batch of delayed states:
        # once per lag interval, and once per step off the interval's plan;
        # each stage gets its row, and a collision it raises rejects the step
        # before any of its stages runs
        return integrators.integrate_dde(
            lambda t, z, acc_d: _deriv(z, acc_d, fleet),
            z0,
            tau=scenario.tau,
            t_span=(0.0, scenario.t_end),
            cfg=cfg,
            domain_error=CollisionError,
            lag_map=lambda zd: _delayed_half(zd, fleet),
            sample_hz=scenario.sample_hz,
        )
    return integrators.integrate_ode(
        lambda t, z: _deriv(z, None, fleet),
        z0,
        (0.0, scenario.t_end),
        cfg=cfg,
        domain_error=CollisionError,
        sample_hz=scenario.sample_hz,
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
            self._gaps = circular_gaps(self.positions, self.ring_length)
            self._gaps.flags.writeable = False
        return self._gaps


def sample(traj: integrators.Trajectory, scenario: RingScenario) -> RingSeries:
    """The series of a trajectory the solver sampled at the scenario rate.

    The series' instants are ``traj.sample_times``, from the trajectory's
    first instant at 1/sample_hz apart, the last never past its end, and
    ``traj.samples`` is wrapped and clamped into its arrays. A trajectory
    sampled at another rate, or not sampled, raises ValueError.
    """
    if traj.sample_hz != scenario.sample_hz:
        raise ValueError(f"the trajectory is sampled at {traj.sample_hz} Hz, "
                         f"not at the scenario's {scenario.sample_hz} Hz")
    z = traj.samples
    return RingSeries(traj.sample_times, np.remainder(z[:, 0::2], scenario.ring_length),
                      np.maximum(z[:, 1::2], 0.0), scenario.ring_length)


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
