"""Cartier-Manin matrices, a-numbers and p-ranks of hyperelliptic curves
y^2 = f(x) over small finite fields, with exhaustive and seeded-random
searches over curve families.

Every public name but ``invariants`` is resolved on first access (PEP 562)
from the module that defines it, so importing the package loads only the
object layer (fields, poly, invariants), and a search never loads
``suites``."""

import importlib

# ``invariants`` names a module and its function: importing the module binds
# the module here, so the function is bound at once, over it
from .invariants import invariants

# the public names, by the module that defines each
_PUBLIC = {
    "fields": [
        "FieldElement",
        "FieldSpec",
        "enumerate_field",
        "make_field",
        "parse_element",
        "parse_field_spec",
        "random_element",
    ],
    "invariants": [
        "CartierMatrix",
        "Curve",
        "Invariants",
        "UnsupportedDegreeError",
        "a_number",
        "cartier_matrix",
        "invariants",
        "make_curve",
        "p_rank",
        "rank",
        "report_fragment",
    ],
    "poly": [
        "NEG_INFINITY",
        "Poly",
        "derivative",
        "gcd",
        "half_power",
        "is_irreducible",
        "is_squarefree",
        "parse_poly",
    ],
    "search": [
        "DEFAULT_BUDGET",
        "DEFAULT_SAMPLES",
        "DEFAULT_SEED",
        "SCHEMA",
        "BudgetExceededError",
        "RevalidationError",
        "SearchCounts",
        "SearchReport",
        "SearchSpec",
        "Witness",
        "WorkerDiedError",
        "revalidate_report_dict",
        "run_search",
    ],
    "suites": [
        "ConsistencyReport",
        "forward_form_check",
        "monic_odd_family",
        "reproduce_script",
        "verify_genus_p_minus_1",
        "verify_p_rank_witnesses",
        "verify_theorem1",
    ],
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
