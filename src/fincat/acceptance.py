"""The acceptance battery: each criterion is a function returning a
structured result, shared by the pytest suite and the CLI.

All tolerances are exact: constructions either reproduce the oracle up to
explicit isomorphism (or on-the-nose equality) or the criterion fails.
"""
from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field

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
from .equivalence import EquivalenceWitness, classify_equivalence, injective_witness
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


def _timed(fn):
    def wrapper(*args, **kwargs) -> CriterionResult:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.duration = time.perf_counter() - start
        return result

    return wrapper


@_timed
def criterion_1_wfs_roundtrip() -> CriterionResult:
    """Factorization succeeds on every corpus morphism, with the left leg an
    injective equivalence and the right leg a normal isofibration."""
    cats = corpus_categories()
    morphisms = corpus_functors()
    failures = []
    for f in morphisms:
        fac = factorize_wfs(f)
        if fac.left.then(fac.right) != f:
            failures.append(f"{f.label}: not a factorization")
            continue
        w = classify_equivalence(fac.left)
        if not (isinstance(w, EquivalenceWitness) and w.has_retraction):
            failures.append(f"{f.label}: left leg not injective equivalence")
        if not classify_fibration(fac.right, grothendieck=False).normal:
            failures.append(f"{f.label}: right leg not normal isofibration")
    return CriterionResult(
        1,
        "weak factorization round-trip over the corpus",
        passed=len(cats) >= 12 and not failures,
        details={
            "categories": len(cats),
            "morphisms": len(morphisms),
            "failures": failures[:5],
        },
    )


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
        wit = injective_witness(i)
        for p in normals:
            for top in enumerate_functors(i.source, p.source, limit=3):
                for bottom in enumerate_lifts(
                    i.target, p.target, under=[(i, top.then(p))], limit=2
                ):
                    squares.append(
                        (LiftingProblem(left=i, right=p, top=top, bottom=bottom), wit)
                    )
                    if len(squares) >= 2 * SQUARES_NEEDED:
                        return squares
    return squares


@_timed
def criterion_2_lifting_completeness() -> CriterionResult:
    squares = _generated_squares()
    solved = 0
    failures = []
    for problem, wit in squares[:120]:
        h = solve_lifting(problem, witness=wit)
        if problem.is_filler(h):
            solved += 1
        else:
            failures.append("invalid filler")
    bad_ps = [f for f in corpus_non_isofibrations()][:12]
    unfillable = 0
    for f in bad_ps:
        sq = canonical_test_square(f)
        if not has_filler(sq):
            unfillable += 1
    return CriterionResult(
        2,
        "lifting completeness and converse failure",
        passed=solved >= SQUARES_NEEDED and not failures and len(bad_ps) >= 10 and unfillable >= 1,
        details={
            "squares_solved": solved,
            "negative_batch": len(bad_ps),
            "unfillable_found": unfillable,
            "failures": failures[:5],
        },
    )


@_timed
def criterion_3_pullback_oracle() -> CriterionResult:
    failures = []
    checked = 0
    for f, g in corpus_cospans_normal_left():
        np = build_normal_pullback(f, g)
        strict = pullback_strict(f, g)
        if find_isomorphism_over(np.witness, strict) is None:
            failures.append(f"{f.label} vs {g.label}")
        checked += 1
    return CriterionResult(
        3,
        "cleavage-based pullback matches the strict oracle",
        passed=checked > 0 and not failures,
        details={"cospans": checked, "failures": failures[:5]},
    )


@_timed
def criterion_4_tower_oracle() -> CriterionResult:
    failures = []
    checked = 0
    for base, maps in corpus_towers():
        tl = tower_limit(base, maps)
        strict = strict_tower_limit(base, maps)
        if find_isomorphism_over(tl.witness, strict) is None:
            failures.append(f"tower over {base.label} (length {len(maps)}): oracle mismatch")
        if not tower_alignment_check(tl):
            failures.append(f"tower over {base.label}: alignment biconditional fails")
        if not tl.witness.certificate.ok:
            failures.append(f"tower over {base.label}: certificate fails")
        checked += 1
    return CriterionResult(
        4,
        "tower limit matches the strict oracle",
        passed=checked > 0 and not failures,
        details={"towers": checked, "failures": failures[:5]},
    )


@_timed
def criterion_5_remark_reproduction() -> CriterionResult:
    w = run_counterexample("groth_leibniz")
    by_name = {c.predicate: c for c in w.claims}
    exact = (
        by_name["failing arrow domain"].actual == "(1,0)"
        and by_name["failing arrow codomain"].actual == "(1,1)"
    )
    return CriterionResult(
        5,
        "endpoint-restriction counterexample reproduced exactly",
        passed=w.passed and exact,
        details=w.to_dict(),
    )


@_timed
def criterion_6_nip_dichotomy() -> CriterionResult:
    sets_result = nip_square_filler("finset", 3)
    arrows_result = nip_square_filler("finset_arrow", 3)
    again = nip_square_filler("finset_arrow", 3)
    deterministic = arrows_result.to_dict() == again.to_dict()
    return CriterionResult(
        6,
        "split-lifting dichotomy between finite sets and their arrows",
        passed=sets_result.all_fill and not arrows_result.all_fill and deterministic,
        details={
            "finset_all_fill": sets_result.all_fill,
            "finset_squares": sets_result.squares_checked,
            "arrow_counterexample": arrows_result.counterexample,
            "deterministic": deterministic,
        },
    )


@_timed
def criterion_7_fy_dichotomy() -> CriterionResult:
    failures = []
    for k in range(5):
        for alpha in (2, 3, 4):
            w = run_counterexample(f"fy_family({k},{alpha})")
            if not w.passed:
                failures.append(f"fy_family({k},{alpha})")
    return CriterionResult(
        7,
        "section dichotomy of the subset family",
        passed=not failures,
        details={"cases": 15, "failures": failures},
    )


@_timed
def criterion_8_nerve_roundtrip() -> CriterionResult:
    failures = []
    for C in corpus_categories():
        P = classifying_category(nerve_truncated(C))
        if find_isomorphism(P, C) is None:
            failures.append(f"classifying(nerve({C.label})) not isomorphic")
    pairs = [
        (standard_simplex(1), builtin("arrow")),
        (nerve_truncated(builtin("free_iso")), builtin("arrow")),
        (standard_simplex(0), builtin("arrow")),
        (standard_simplex(0), builtin("free_iso")),
    ]
    for X, Y in pairs:
        rep = check_powers_iso(X, Y, dim=2)
        if not rep.ok:
            failures.append(f"powers comparison fails for ({X.label},{Y.label})")
    return CriterionResult(
        8,
        "classifying category round-trip and powers comparison",
        passed=not failures,
        details={"categories": len(corpus_categories()), "failures": failures[:5]},
    )


@_timed
def criterion_9_minimality() -> CriterionResult:
    failures = []
    checked = 0
    for f in corpus_normal_isofibrations():
        cert = minimal_retract_witness(f)
        if not cert.ok:
            failures.append(f.label)
        checked += 1
    return CriterionResult(
        9,
        "retract presentation of every corpus normal isofibration",
        passed=checked > 0 and not failures,
        details={"checked": checked, "failures": failures[:5]},
    )


@_timed
def criterion_10_wf_biconditionals() -> CriterionResult:
    failures = []
    checked = 0
    for f in corpus_functors():
        res = compute_wf(f)
        if not res.ok:
            failures.append(f.label)
        checked += 1
    return CriterionResult(
        10,
        "iso-power comparison biconditionals on every corpus morphism",
        passed=checked > 0 and not failures,
        details={"checked": checked, "failures": failures[:5]},
    )


CRITERIA = {
    1: criterion_1_wfs_roundtrip,
    2: criterion_2_lifting_completeness,
    3: criterion_3_pullback_oracle,
    4: criterion_4_tower_oracle,
    5: criterion_5_remark_reproduction,
    6: criterion_6_nip_dichotomy,
    7: criterion_7_fy_dichotomy,
    8: criterion_8_nerve_roundtrip,
    9: criterion_9_minimality,
    10: criterion_10_wf_biconditionals,
}


def run_acceptance(numbers=None) -> Iterator[CriterionResult]:
    """Run the numbered criteria, or all of them, yielding each result as
    its criterion ends; an unknown number is refused at the call, before
    any criterion runs."""
    picked = sorted(numbers) if numbers else sorted(CRITERIA)
    for n in picked:
        if n not in CRITERIA:
            raise UnknownName(f"no criterion numbered {n}")
    return (CRITERIA[n]() for n in picked)
