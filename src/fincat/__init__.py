"""Computational kernel for finite categories: validation, equivalences,
isofibrations and cleavages, weak factorization, 2-categorical limits,
nerves/classifying categories, and a reproducible counterexample catalog."""

from .core import (
    FinCat,
    FinFunctor,
    Morphism,
    NatTrans,
    builtin,
    builtin_functor,
    enumerate_functors,
    enumerate_transformations,
    find_isomorphism,
    identity_functor,
    identity_nat,
    validate_category,
    validate_functor,
    validate_transformation,
)
from .equivalence import EquivalenceWitness, NotEquivalence, classify_equivalence
from .fibrations import Cleavage, FibrationReport, build_normal_cleavage, classify_fibration
from .funcat import functor_category, product_category
from .limits import (
    IdempotentSplitting,
    LimitWitness,
    PseudolimitOfArrow,
    inserter,
    equifier,
    isocomma,
    pseudolimit_of_arrow,
    pullback_strict,
    split_idempotent,
    tower_limit,
)
from .wfs import LiftingProblem, compute_wf, factorize_wfs, leibniz_power, minimal_retract_witness, solve_lifting
from .cosmos import CosmosFragment, check_fragment, nip_square_filler
from .nerve import TruncSSet, check_powers_iso, classifying_category, nerve_truncated
from .counterexamples import Witness, run_counterexample

__version__ = "0.1.0"

__all__ = [
    "FinCat",
    "FinFunctor",
    "Morphism",
    "NatTrans",
    "builtin",
    "builtin_functor",
    "enumerate_functors",
    "enumerate_transformations",
    "find_isomorphism",
    "identity_functor",
    "identity_nat",
    "validate_category",
    "validate_functor",
    "validate_transformation",
    "EquivalenceWitness",
    "NotEquivalence",
    "classify_equivalence",
    "Cleavage",
    "FibrationReport",
    "build_normal_cleavage",
    "classify_fibration",
    "functor_category",
    "product_category",
    "IdempotentSplitting",
    "LimitWitness",
    "PseudolimitOfArrow",
    "inserter",
    "equifier",
    "isocomma",
    "pseudolimit_of_arrow",
    "pullback_strict",
    "split_idempotent",
    "tower_limit",
    "LiftingProblem",
    "compute_wf",
    "factorize_wfs",
    "leibniz_power",
    "minimal_retract_witness",
    "solve_lifting",
    "CosmosFragment",
    "check_fragment",
    "nip_square_filler",
    "TruncSSet",
    "check_powers_iso",
    "classifying_category",
    "nerve_truncated",
    "Witness",
    "run_counterexample",
    "__version__",
]
