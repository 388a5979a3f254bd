"""wolfflab: numerical laboratory for Wolff potentials, radial p-Laplace
problems with measure data, and sub-natural growth equations
-Delta_p u = sum_m sigma^(m) u^{q_m} + mu on R^n.

The package attribute wolfflab.wolff is the function wolff, which the
import below binds over the submodule of the same name; so
`import wolfflab.wolff as W` binds the function too.  The module is
importlib.import_module("wolfflab.wolff") (or sys.modules["wolfflab.wolff"]).
"""

from .errors import (BadPoint, ConfigError, DimensionError, DivergentTail,
                     ExponentError, InfiniteEnergy, ModeMismatch,
                     MonotonicityViolated, NegativeRadius, NegativeScale,
                     NonMonotoneProfile, NonpositiveR, NonRadialMeasure,
                     NotConverged, SignError, SubsolutionSearchFailed,
                     UnboundedCondition, WolffLabError, ZeroMeasure)
from .measure import (Atom, RadialDensity, RadonMeasure, SphericalShell, Sum,
                      add, ball_mass, dirac, integrate_against,
                      multiply_radial, scale, support_radius, total_mass,
                      zero_measure)
from .params import (DEFAULT_QUAD, ExponentSet, Mode, ProblemParams,
                     QuadratureConfig, derive_exponents, params,
                     unit_ball_volume, validate)
from .radial_pde import (RadialFunction, dirichlet_energy, riesz_ball_mass,
                         riesz_measure_of, solve_radial_p_laplace)
from .wolff import (PotentialValue, cutoff_measure, truncated_wolff, wolff,
                    wolff_profile, wolff_sup_on_support)
from .energy import (InequalityReport, check_mutual_energy_estimate,
                     check_picone_caccioppoli, check_quasi_triangle,
                     check_weighted_norm, generalized_energy, mutual_energy,
                     sigma_energy, wolff_energy)
from .lorentz import (check_density_conditions, check_lorentz_embedding,
                      density_condition_exponents, lorentz_norm, rearrange)
from .solver import (IterationState, Solution, initial_subsolution,
                     intrinsic_fixed_point, iterate_once, solve_bounded_endpoint,
                     solve_minimal, solve_with_exhaustion, verify_solution)

__version__ = "0.1.0"
