"""Cartier-Manin matrices, a-numbers and p-ranks of hyperelliptic curves
y^2 = f(x) over small finite fields, with exhaustive and seeded-random
searches over curve families."""

from .fields import (
    FieldElement,
    FieldSpec,
    enumerate_field,
    make_field,
    parse_element,
    parse_field_spec,
    random_element,
)
from .invariants import (
    CartierMatrix,
    Curve,
    Invariants,
    UnsupportedDegreeError,
    a_number,
    cartier_matrix,
    invariants,
    make_curve,
    p_rank,
    rank,
    report_fragment,
)
from .poly import (
    NEG_INFINITY,
    Poly,
    derivative,
    gcd,
    half_power,
    is_irreducible,
    is_squarefree,
    parse_poly,
)
from .search import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SCHEMA,
    BudgetExceededError,
    RevalidationError,
    SearchCounts,
    SearchReport,
    SearchSpec,
    Witness,
    WorkerDiedError,
    revalidate_report_dict,
    run_search,
)
from .suites import (
    ConsistencyReport,
    forward_form_check,
    monic_odd_family,
    reproduce_script,
    verify_genus_p_minus_1,
    verify_p_rank_witnesses,
    verify_theorem1,
)

__version__ = "0.1.0"
