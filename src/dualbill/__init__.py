"""Rationally integrable dual billiards on the parabola w = z^2.

The seven exotic billiard families, their phase-space dynamics, rational
first integrals, invariant curves and forms, elliptic period data, and a
seeded property-check engine with a CLI front end.
"""

from .billiards import (
    ALL_FAMILY_TAGS,
    BilliardFamily,
    OrbitRecord,
    SingularTangencyError,
    billiard_map,
    involution,
    orbit,
)
from .curves import (
    EllipticModel,
    FiberModel,
    branch_points,
    critical_fiber_components,
    curve_parameter,
    elliptic_model,
    fiber_type,
    is_regular,
    lift_fiber,
    parametrize_level,
    point_on_level,
)
from .forms import (
    abel_steps,
    area_pullback_residual,
    fiber_form,
    halfstep_jacobian,
)
from .geometry import (
    E_INFINITY,
    PhasePoint,
    ProjectiveMap,
    ProjectivePoint,
    b_family_equivalence,
    c_family_equivalence,
    conic_point,
    on_conic,
    tangency_points,
)
from .integrals import (
    IndeterminacyError,
    coefficients_a1,
    coefficients_a2,
    critical_values,
    eval_integral,
    first_integral,
    gradient,
    indeterminacy_set,
)
from .numerics import INF, SphereValue, roots, sphere_eq
from .verify import CheckReport, CheckSuite, default_suite, run_suite

__version__ = "0.1.0"
