"""Microscopic ring-road traffic simulation and stability analysis.

Pure-numpy toolkit: car-following controller laws (IDM and
FollowerStopper), adaptive Runge-Kutta and constant-lag delay integration
with dense output, and post-processing from fundamental diagrams to
maximal Lyapunov exponents. The command-line entry point lives in
:mod:`ringsim.cli`.
"""

from .models import (
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
from .integrators import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    integrate_dde,
    integrate_ode,
)
from .ring import (
    PRESET_NAMES,
    RingScenario,
    RingSeries,
    apply_perturbation,
    build_uniform_scenario,
    equilibrium_scenario,
    initial_state,
    rhs,
    sample,
    simulate,
)
from .analysis import (
    FleetStats,
    LyapunovResult,
    fleet_stats,
    fundamental_diagram,
    heatmap_grid,
    max_lyapunov,
    phase_projection,
    stop_events,
    voronoi_density,
)

__version__ = "0.1.0"
