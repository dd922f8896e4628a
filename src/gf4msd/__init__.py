"""Exact weight-enumerator and magic-state-distillation analysis for
linear Hermitian self-orthogonal GF(4) codes.

The library is exact end to end: big-integer enumerator algebra, rational
distillation maps with Sturm-isolated thresholds, an exact-rational
simplex for the linear-programming bounds, and a matrix-free
stabilizer-group oracle that cross-checks every formula exactly.
"""

from .enumerators import (
    DomainError,
    Enumerator,
    MacWilliamsError,
    macwilliams,
    signed_eval,
    transform_xy,
)
from .gf4 import (
    BudgetExceededError,
    Gf4Code,
    NotM3CodeError,
    ParseError,
    SignedPauli,
    enumerate_codewords,
    hermitian_dual,
    is_self_dual,
    is_self_orthogonal,
    parse_code,
    parse_database,
    rall_signs,
    shorten,
    weight_enumerator,
    zero_code,
)
from .invariants import (
    InvariantParams,
    SelfDualParams,
    expand_family,
    expand_selfdual,
    extremal_A2,
    extremal_distillation_enumerator,
    extremal_distillation_params,
    h_series,
    params_from_enumerator,
    selfdual_extremal_enumerator,
    selfdual_extremal_params,
)
from .distill import (
    DistillMap,
    NoiseExponent,
    QuantumVerdict,
    ThresholdReport,
    bernstein_certificate,
    build_map,
    check_success_nonneg,
    check_threshold_constraint,
    curve_rows,
    natural_sign,
    noise_exponent,
    quantum_verdict,
    threshold,
    threshold_slack,
)
from .bounds import (
    LatticeSpec,
    LinConstraint,
    Polytope,
    classical_distance_bound_selfdual,
    count_lattice_points,
    distillation_family,
    enumerate_vertices_2d,
    integral_lattice,
    lattice_search,
    lp_feasible,
    max_distance_bound,
    max_nu_bound,
    selfdual_family,
)

__version__ = "0.1.0"
