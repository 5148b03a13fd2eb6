"""pressurelab: a 2D laboratory for pressure-loaded finite elasticity.

Builds structured triangulations of disk/annulus/four-lobe domains, minimizes
a frame-indifferent finite-strain energy with a follower pressure load,
assembles the small-pressure linearized limit, analyzes optimal rotations on
the circle, and runs the epsilon-sweep studies connecting the two levels.
"""

from .geometry import DomainSpec, TriMesh, barycenter, boundary_integral, build_domain
from .material import (
    MaterialModel,
    dist_so2,
    energy_density,
    g_mixed,
    quadratic_form,
    rotation,
    stress,
)
from .pressure import (
    Polar,
    PressureField,
    builtin_pressure,
    extend_pressure,
    polar_field,
    quadrant_bump_pressure,
)
from .rotations import (
    OptimalSet,
    el_residual,
    find_optimal_rotations,
    rotation_functional,
    second_variation,
)
from .nonlinear_solver import (
    SolveDiagnostics,
    assemble_energy,
    assemble_gradient,
    minimize_energy,
)
from .linear_solver import (
    assemble_load,
    solve_linearized,
)
from .studies import (
    Plan,
    Problem,
    StudyReport,
    almost_minimizer_scaling,
    extract_rotation,
    gamma_study,
    refined_study,
    rescaled_displacement,
)
from .config import ConfigError, RunContext, config_hash, load_config

__version__ = "0.1.0"
