"""pressurelab: a 2D laboratory for pressure-loaded finite elasticity.

Builds structured triangulations of disk/annulus/four-lobe domains, minimizes
a frame-indifferent finite-strain energy with a follower pressure load,
assembles the small-pressure linearized limit, analyzes optimal rotations on
the circle, and runs the epsilon-sweep studies connecting the two levels.
"""

from .geometry import DomainSpec, TriMesh, barycenter, boundary_integral, build_domain
from .material import (
    MaterialModel,
    det_expansion,
    dist_so2,
    energy_density,
    g_mixed,
    quadratic_form,
    rotation,
    stress,
)
from .pressure import (
    BumpProfile,
    PressureField,
    builtin_pressure,
    extend_pressure,
    flat_profile,
    quadrant_bump_pressure,
    strict_profile,
)
from .rotations import (
    OptimalSet,
    el_residual,
    find_optimal_rotations,
    rotation_functional,
    second_variation,
)
from .nonlinear_solver import (
    DeformationField,
    SolveDiagnostics,
    assemble_energy,
    assemble_gradient,
    minimize_energy,
)
from .linear_solver import (
    DisplacementField,
    assemble_load,
    divergence_form_check,
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
