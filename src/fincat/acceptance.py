"""The acceptance battery, shared by the pytest suite and the CLI.

Each criterion is a body returning ``(passed, details)``, registered by
number and name with ``_criterion``: the registered ``criterion_N_*``
function times the body, reports it as a ``CriterionResult`` and is filed
in ``CRITERIA``, which ``run_acceptance`` reads.

All tolerances are exact: constructions either reproduce the oracle up to
explicit isomorphism (or on-the-nose equality) or the criterion fails.
"""
from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import islice

from .core import (
    UnknownName,
    builtin,
    enumerate_functors,
    enumerate_lifts,
    find_isomorphism,
    identity_functor,
)
from .corpus import (
    corpus_categories,
    corpus_cospans_normal_left,
    corpus_functors,
    corpus_injective_equivalences,
    corpus_non_isofibrations,
    corpus_normal_isofibrations,
    corpus_towers,
)
from .cosmos import nip_square_filler
from .counterexamples import run_counterexample
from .equivalence import classify_equivalence
from .fibrations import classify_fibration
from .limits import (
    build_normal_pullback,
    find_isomorphism_over,
    pullback_strict,
    strict_tower_limit,
    tower_alignment_check,
    tower_limit,
)
from .nerve import check_powers_iso, classifying_category, nerve_truncated, standard_simplex
from .wfs import (
    LiftingProblem,
    canonical_test_square,
    compute_wf,
    factorize_wfs,
    has_filler,
    minimal_retract_witness,
    solve_lifting,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    duration: float = 0.0

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


# criterion number -> the registered function that runs it
CRITERIA: dict[int, Callable[[], CriterionResult]] = {}


def _criterion(number: int, name: str):
    """Register the decorated body as criterion ``number``.  The body
    returns ``(passed, details)``; the registered function times it and
    reports both as a ``CriterionResult``."""

    def register(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            start = time.perf_counter()
            passed, details = body()
            return CriterionResult(number, name, passed, details, time.perf_counter() - start)

        CRITERIA[number] = run
        return run

    return register


def _check_each(items, check) -> tuple[int, list[str]]:
    """The number of items and, in item order, the failure messages that
    ``check`` returns for each."""
    return len(items), [message for item in items for message in check(item)]


def _roundtrip_failures(f):
    fac = factorize_wfs(f)
    if fac.left.then(fac.right) != f:
        yield f"{f.label}: not a factorization"
        return
    if not classify_equivalence(fac.left).has_retraction:
        yield f"{f.label}: left leg not injective equivalence"
    if not classify_fibration(fac.right, grothendieck=False).normal:
        yield f"{f.label}: right leg not normal isofibration"


@_criterion(1, "weak factorization round-trip over the corpus")
def criterion_1_wfs_roundtrip():
    """Factorization succeeds on every corpus morphism, with the left leg an
    injective equivalence and the right leg a normal isofibration."""
    cats = corpus_categories()
    morphisms, failures = _check_each(corpus_functors(), _roundtrip_failures)
    return len(cats) >= 12 and not failures, {
        "categories": len(cats),
        "morphisms": morphisms,
        "failures": failures[:5],
    }


# The squares criterion 2 must solve; it generates twice as many and
# solves the first 120.
SQUARES_NEEDED = 100


def _generated_squares():
    """Commuting squares with an injective equivalence i on the left and a
    normal isofibration p on the right, generated deterministically: for
    each top, the first two bottoms with bottom∘i = p∘top.  Bottoms other
    than p∘top∘r, for the retraction r, make bottom·η a non-identity cell,
    so the filler's conjugation by the lifted components acts."""
    injectives = [
        f for f in corpus_injective_equivalences() if not f.is_identity()
    ][:6] + [identity_functor(builtin("free_iso"))]
    normals = [
        p
        for p in corpus_normal_isofibrations()
        if not p.is_identity() and p.source.n_morphisms <= 12
    ][:10]
    squares = []
    for i in injectives:
        for p in normals:
            for top in islice(enumerate_functors(i.source, p.source), 3):
                lifts = enumerate_lifts(i.target, p.target, under=[(i, top.then(p))])
                for bottom in islice(lifts, 2):
                    squares.append(LiftingProblem(left=i, right=p, top=top, bottom=bottom))
                    if len(squares) >= 2 * SQUARES_NEEDED:
                        return squares
    return squares


@_criterion(2, "lifting completeness and converse failure")
def criterion_2_lifting_completeness():
    attempted, failures = _check_each(
        _generated_squares()[:120],
        lambda square: () if square.is_filler(solve_lifting(square)) else ("invalid filler",),
    )
    solved = attempted - len(failures)
    bad_ps = corpus_non_isofibrations()[:12]
    unfillable = sum(not has_filler(canonical_test_square(f)) for f in bad_ps)
    return solved >= SQUARES_NEEDED and not failures and len(bad_ps) >= 10 and unfillable >= 1, {
        "squares_solved": solved,
        "negative_batch": len(bad_ps),
        "unfillable_found": unfillable,
        "failures": failures[:5],
    }


def _pullback_failures(cospan):
    f, g = cospan
    if find_isomorphism_over(build_normal_pullback(f, g).witness, pullback_strict(f, g)) is None:
        yield f"{f.label} vs {g.label}"


@_criterion(3, "cleavage-based pullback matches the strict oracle")
def criterion_3_pullback_oracle():
    checked, failures = _check_each(corpus_cospans_normal_left(), _pullback_failures)
    return checked > 0 and not failures, {"cospans": checked, "failures": failures[:5]}


def _tower_failures(tower):
    base, maps = tower
    tl = tower_limit(base, maps)
    if find_isomorphism_over(tl.witness, strict_tower_limit(base, maps)) is None:
        yield f"tower over {base.label} (length {len(maps)}): oracle mismatch"
    if not tower_alignment_check(tl):
        yield f"tower over {base.label}: alignment biconditional fails"
    if not tl.witness.certificate.ok:
        yield f"tower over {base.label}: certificate fails"


@_criterion(4, "tower limit matches the strict oracle")
def criterion_4_tower_oracle():
    checked, failures = _check_each(corpus_towers(), _tower_failures)
    return checked > 0 and not failures, {"towers": checked, "failures": failures[:5]}


@_criterion(5, "endpoint-restriction counterexample reproduced exactly")
def criterion_5_remark_reproduction():
    w = run_counterexample("groth_leibniz")
    by_name = {c.predicate: c for c in w.claims}
    exact = (
        by_name["failing arrow domain"].actual == "(1,0)"
        and by_name["failing arrow codomain"].actual == "(1,1)"
    )
    return w.passed and exact, w.to_dict()


@_criterion(6, "split-lifting dichotomy between finite sets and their arrows")
def criterion_6_nip_dichotomy():
    sets_result = nip_square_filler("finset", 3)
    arrows_result = nip_square_filler("finset_arrow", 3)
    again = nip_square_filler("finset_arrow", 3)
    deterministic = arrows_result.to_dict() == again.to_dict()
    return sets_result.all_fill and not arrows_result.all_fill and deterministic, {
        "finset_all_fill": sets_result.all_fill,
        "finset_squares": sets_result.squares_checked,
        "arrow_counterexample": arrows_result.counterexample,
        "deterministic": deterministic,
    }


@_criterion(7, "section dichotomy of the subset family")
def criterion_7_fy_dichotomy():
    cases, failures = _check_each(
        [f"fy_family({k},{alpha})" for k in range(5) for alpha in (2, 3, 4)],
        lambda name: () if run_counterexample(name).passed else (name,),
    )
    return not failures, {"cases": cases, "failures": failures}


def _nerve_failures(C):
    if find_isomorphism(classifying_category(nerve_truncated(C)), C) is None:
        yield f"classifying(nerve({C.label})) not isomorphic"


@_criterion(8, "classifying category round-trip and powers comparison")
def criterion_8_nerve_roundtrip():
    categories, failures = _check_each(corpus_categories(), _nerve_failures)
    pairs = [
        (standard_simplex(1), builtin("arrow")),
        (nerve_truncated(builtin("free_iso")), builtin("arrow")),
        (standard_simplex(0), builtin("arrow")),
        (standard_simplex(0), builtin("free_iso")),
    ]
    for X, Y in pairs:
        if not check_powers_iso(X, Y, dim=2).ok:
            failures.append(f"powers comparison fails for ({X.label},{Y.label})")
    return not failures, {"categories": categories, "failures": failures[:5]}


@_criterion(9, "retract presentation of every corpus normal isofibration")
def criterion_9_minimality():
    checked, failures = _check_each(
        corpus_normal_isofibrations(),
        lambda f: () if minimal_retract_witness(f).ok else (f.label,),
    )
    return checked > 0 and not failures, {"checked": checked, "failures": failures[:5]}


@_criterion(10, "iso-power comparison biconditionals on every corpus morphism")
def criterion_10_wf_biconditionals():
    checked, failures = _check_each(
        corpus_functors(), lambda f: () if compute_wf(f).ok else (f.label,)
    )
    return checked > 0 and not failures, {"checked": checked, "failures": failures[:5]}


def run_acceptance(numbers=None) -> Iterator[CriterionResult]:
    """Run the numbered criteria, or all of them, each once and in numeric
    order, yielding each result as its criterion ends; an unknown number is
    refused at the call, before any criterion runs."""
    picked = sorted(set(numbers)) if numbers else sorted(CRITERIA)
    for n in picked:
        if n not in CRITERIA:
            raise UnknownName(f"no criterion numbered {n}")
    return (CRITERIA[n]() for n in picked)
