"""Exact L(p,q)-labelings of oriented cycles and their products.

Construct, validate, enumerate, and exactly solve labelings of oriented
cycles, paths, and their Cartesian and strong products; lift cyclic color
patterns to torus labelings; and evaluate the span dichotomies for large
tori with machine-checked certificates.
"""

from .graphs import (
    Digraph,
    ProductKind,
    ProductShape,
    grid,
    oriented_cycle,
    oriented_path,
    product,
    torus,
    two_step_pairs,
)
from .labelings import (
    ConstraintParams,
    Labeling,
    Violation,
    ViolationKind,
    constraint_pairs,
    is_diagonal,
    labeling_document,
    labeling_from_document,
    read_labeling,
    torus_violations,
    validate,
    write_labeling,
)
from .lambda_numbers import (
    CertificateKind,
    CheckReport,
    LambdaResult,
    lambda_cartesian,
    lambda_strong,
    verify_l2211_periodicity,
    verify_lemma_cartesian_local,
    verify_lemma_strong_local,
)
from .patterns import (
    Pattern,
    PatternViolation,
    SemigroupDecomposition,
    conditions_for,
    exists_cycle_pattern,
    lift_diagonal,
    semigroup_decompose,
    validate_pattern,
)
from .solver import (
    BudgetExhausted,
    LambdaWitness,
    SolveBudget,
    count_labelings,
    enumerate_labelings,
    exact_lambda,
    exists_labeling,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "CertificateKind",
    "CheckReport",
    "ConstraintParams",
    "Digraph",
    "Labeling",
    "LambdaResult",
    "LambdaWitness",
    "Pattern",
    "PatternViolation",
    "ProductKind",
    "ProductShape",
    "SemigroupDecomposition",
    "SolveBudget",
    "Violation",
    "ViolationKind",
    "conditions_for",
    "constraint_pairs",
    "count_labelings",
    "enumerate_labelings",
    "exact_lambda",
    "exists_cycle_pattern",
    "exists_labeling",
    "grid",
    "is_diagonal",
    "labeling_document",
    "labeling_from_document",
    "lambda_cartesian",
    "lambda_strong",
    "lift_diagonal",
    "oriented_cycle",
    "oriented_path",
    "product",
    "read_labeling",
    "semigroup_decompose",
    "torus",
    "torus_violations",
    "two_step_pairs",
    "validate",
    "validate_pattern",
    "verify_l2211_periodicity",
    "verify_lemma_cartesian_local",
    "verify_lemma_strong_local",
    "write_labeling",
]
