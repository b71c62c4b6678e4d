"""Numerical toolkit for variational problems with linear-growth energies.

The package follows the analytic pipeline for removable isolated
singularities of minimizers of integral functionals g(|grad u|) with
convex, linearly growing g:

* :mod:`lingrowth.density` -- the densities themselves with validation,
  normalization, slope inversion, and the neck-integral growth dichotomy;
* :mod:`lingrowth.quadrature` -- adaptive Gauss-Kronrod quadrature, a
  port of QUADPACK's QAGS for integrands that take arrays;
* :mod:`lingrowth.catenoid` -- radial catenoid-type barrier profiles via
  two independent quadrature routes, flux-identity checking, and interior
  envelope bounds;
* :mod:`lingrowth.mesh` / :mod:`lingrowth.solver` -- structured polar
  triangulations and a damped-Newton minimizer for the discrete Dirichlet
  problem, plus discrete comparison-principle checks;
* :mod:`lingrowth.experiments` -- removability sweeps, barrier
  reproduction under refinement, and randomized comparison suites with
  deterministic reports;
* :mod:`lingrowth.cli` -- the ``lingrowth`` command.
"""

from .catenoid import (Anchor, CatenoidSpec, RadialProfile, Sign,
                       envelope_bound, envelope_bounds, neck_limit,
                       ode_residual, profile_value, profile_value_substituted,
                       profile_values, sample_profile, uniform_interior_bound)
from .density import (Density, Growth, TailEstimate, UndeterminedLimitError,
                      ValidationReport, classify_growth, density_from_config,
                      flux, invert_gprime, make_area_density,
                      make_custom_density, make_mu_density, normalize,
                      tangent, validate)
from .experiments import (ExperimentReport, RemovabilityConfig, read_report,
                          run_catenoid_reproduction, run_comparison_suite,
                          run_removability, write_report)
from .mesh import NodeTag, PolarMesh, build_polar_mesh, radial_values, same_mesh
from .quadrature import QuadratureAccuracyError
from .solver import (ComparisonResult, DiscreteSolution, MeshMismatchError,
                     NonConvergenceError, check_comparison, energy,
                     solve_dirichlet)

__version__ = "0.1.0"

__all__ = [
    "Anchor", "CatenoidSpec", "ComparisonResult", "Density",
    "DiscreteSolution", "ExperimentReport", "Growth", "MeshMismatchError",
    "NodeTag", "NonConvergenceError", "PolarMesh", "QuadratureAccuracyError",
    "RadialProfile", "RemovabilityConfig", "Sign",
    "TailEstimate", "UndeterminedLimitError", "ValidationReport",
    "build_polar_mesh", "check_comparison", "classify_growth",
    "density_from_config", "energy", "envelope_bound", "envelope_bounds",
    "flux", "invert_gprime", "make_area_density",
    "make_custom_density", "make_mu_density", "neck_limit", "normalize",
    "ode_residual",
    "profile_value", "profile_value_substituted", "profile_values",
    "radial_values",
    "read_report", "run_catenoid_reproduction",
    "run_comparison_suite", "run_removability", "same_mesh", "sample_profile",
    "solve_dirichlet", "tangent", "uniform_interior_bound",
    "validate", "write_report",
]
