"""Level-set functionals of p-capacitary potentials on rotationally
symmetric manifolds: radial closed forms, an axisymmetric 2-D solver,
and verification suites for the monotonicity and rigidity statements."""

# defined before the submodule imports: verify reads it at import time
__version__ = "0.1.0"

from .geometry import RadialManifold, cone, euclidean, schwarzschild, tabulated
from .radial import RadialPotential, capacity, solve_w1, solve_wp, solve_wp_eps
from .functionals import F_1, F_p, G_p, FunctionalParams, hawking_series, minkowski_M
from .solver2d import ellipsoid_domain, field_from_radial, solve_2d, sphere_domain
from .verify import Check, ConfigError, Report, run_experiment

__all__ = [
    "RadialManifold",
    "cone",
    "euclidean",
    "schwarzschild",
    "tabulated",
    "RadialPotential",
    "capacity",
    "solve_w1",
    "solve_wp",
    "solve_wp_eps",
    "F_1",
    "F_p",
    "G_p",
    "FunctionalParams",
    "hawking_series",
    "minkowski_M",
    "ellipsoid_domain",
    "field_from_radial",
    "solve_2d",
    "sphere_domain",
    "Check",
    "ConfigError",
    "Report",
    "run_experiment",
    "__version__",
]
