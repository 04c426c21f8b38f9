"""Regularized three-dimensional discrete dislocation dynamics.

Non-singular interaction kernels by spherical quadrature, self-energies
and Peach-Koehler forces on closed polyline loop networks, and a
dissipative gradient-flow evolution with monitored analytic bounds.
"""

from .elasticity import (
    ElasticityTensor,
    estimate_lh_constant,
    from_components,
    make_isotropic,
    validate_symmetries,
)
from .energy_force import (
    EnergyBreakdown,
    ForceField,
    LineQuadratureRule,
    energy_and_gradient,
    energy_line,
    energy_surface,
    pk_force,
)
from .errors import (
    ConfigError,
    DDDError,
    GeometryError,
    NearSingularError,
    NotIsotropicError,
    SolverError,
)
from .evolution import EvolutionState, StepPolicy, VelocityField, run, solve_velocity, step
from .geometry import (
    BurgersVector,
    DislocationNetwork,
    Lattice,
    Loop,
    SpanningSurface,
    make_cone_surface,
    make_planar_surface,
    mass,
    mass_ratio,
    pushforward,
    remesh,
)
from .kernels import (
    KernelEvaluator,
    MollifierProfile,
    SphericalQuadrature,
    decay_bound_scan,
    eval_K_direct,
    sphere_sum,
)
from .mobility import BccDrag, IsotropicDrag, MobilityModel, drag_matrix

__version__ = "0.1.0"
