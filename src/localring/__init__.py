"""Exact local computer algebra over the rationals.

Truncated multivariate power series with certified precision bounds,
Hironaka division with region-partition guarantees, standard-basis
verification and completion via the s-series criterion, staircases of
initial exponents with Hilbert-Samuel tables and flatness/dimension
diagnostics, jet perturbation experiments, and discriminant towers of
distinguished polynomials.  Every computed claim carries the window it is
certified on; the row-reduction oracle cross-checks the division machinery
independently.
"""

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FormMismatch,
    InvariantViolation,
    LocalRingError,
    MissingAxisVertex,
    NotRegular,
    ParseError,
    PrecisionShortfall,
    PresentationError,
    SingularMatrix,
    TrivialEvaluation,
    UndecidedAtPrecision,
    UnverifiedBasis,
    ZeroUpToPrecision,
)
from .kernel import (
    EXACT,
    IdealPresentation,
    PrecisionSeries,
    add,
    agrees_up_to,
    embed,
    evaluate_tail_zero,
    exp_jet,
    geom_jet,
    monomial,
    mul,
    mul_monomial,
    one,
    power,
    reweight,
    scale,
    series,
    sub,
    substitute_linear,
    truncate,
    variable,
    zero,
)
from .order import (
    LinearForm,
    compare,
    initial_exponent,
    initial_term,
    lvalue,
    parse_form,
    std_form,
    weighted_split_form,
)
from .division import COMPLEMENT, DivisionResult, RegionPartition, hironaka_divide
from .stdbasis import CertifiedBasis, becker_check, complete, s_series
from .diagram import (
    Diagram,
    HSTable,
    axis_vertex_dimension,
    complement_count,
    diagram_of,
    evaluated_ideal,
    flatness_weight_search,
    hilbert_samuel,
    oracle_jet_quotient_dim,
    oracle_sublevel_quotient_dim,
    product_structure_check,
    reduction_exponent,
)
from .approx import (
    ci_stability_experiment,
    cm_counterexample_runner,
    jet,
    perturb,
)
from .equising import (
    Tower,
    build_tower,
    distinct_root_count_check,
    validate_tower,
    weierstrass_prepare,
)
from .parser import IdealFile, load_ideal_file, parse_expression

__version__ = "0.1.0"
