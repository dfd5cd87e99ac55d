"""Rectification of single-label Boolean classifiers against background knowledge.

The library represents classifiers and knowledge as Boolean circuits (or
decision trees), builds the unique rectified classifier with a linear-size
construction, and ships brute-force oracles that verify the construction
and its postulates at desk scale.
"""

from .circuit import (
    Circuit,
    Literal,
    Pool,
    Term,
    VarId,
    cofactors,
    condition,
    conjoin,
    disjoin,
    iter_gates,
    negate,
)
from .classifier import (
    ClassificationProblem,
    Classifier,
    as_instance,
    check_xy_property,
    classify,
    fact_formula,
    is_fact_compliant,
    label_blocks,
    positive_circuit,
)
from .dtree import (
    RandomForest,
    attach_label,
    circuit_to_dt,
    dt_check_classification,
    dt_rectify,
    dt_simplify,
    rf_classify,
    rf_rectify,
)
from .errors import (
    BuildError,
    CapExceededError,
    CertificationError,
    ParseError,
    RectifyError,
)
from .formats import (
    ProblemFile,
    TreeFile,
    parse_circuit,
    parse_dtree,
    parse_problem,
    parse_tree_file,
    print_circuit,
    print_dtree,
)
from .rectify import (
    RectificationResult,
    classify_batch,
    classify_rectified,
    decisive_circuits,
    preprocess_project,
    rectify,
)
from .semantics import (
    DEFAULT_VAR_CAP,
    Assignment,
    equivalent,
    evaluate,
    forget,
    truth_mask,
    var_masks,
)
from .verify import (
    PostulateCheck,
    PostulateReport,
    check_postulates,
    dalal_rectify,
    oracle_rectify,
    syntactic_rewrite,
)

__version__ = "0.1.0"
