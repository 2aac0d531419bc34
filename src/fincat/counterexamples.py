"""Named, fully reproducible witnesses.

Each witness is assembled from the generic classifiers and constructions —
no claim is a hard-coded boolean — and replaying the same name yields the
same claims bit for bit.

* ``groth_leibniz``: the endpoint restriction out of the arrow power is a
  discrete isofibration but not a Grothendieck fibration; the failing
  arrow is (1,0) → (1,1).
* ``nip_cat2``: an unfillable (split mono, split epi) square in arrows of
  finite sets, lifted to chaotic categories: a square of an injective
  equivalence against a retract equivalence with no functor filler.
* ``fy_family(k, a)``: the two-level family over a k-element discrete
  category whose levelwise retract equivalences assemble to a normal
  isofibration that has a section exactly when k < a.  Normality is
  checked against the test objects 1 → 1 and 2 → 1, whose hom-categories
  of squares are level 0 and the kernel pair A₀ ×_{A₁} A₀, so the check
  classifies level 0 and the map of kernel pairs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .core import (
    BudgetExceeded,
    FinFunctor,
    UnknownName,
    builtin,
    builtin_functor,
    chaotic_category,
    discrete_category,
    enumerate_lifts,
    functor_position,
    identity_functor,
    terminal_category,
    thin_category,
    thin_functor,
)
from .cosmos import nip_square_filler
from .equivalence import classify_equivalence, find_sections
from .fibrations import classify_fibration
from .funcat import pair_functor, precompose_functor
from .limits import pullback_strict
from .wfs import find_arrow_isomorphism, leibniz_power


@dataclass
class Claim:
    predicate: str
    expected: object
    actual: object
    locus: str = ""

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "expected": self.expected,
            "actual": self.actual,
            "passed": self.passed,
            "locus": self.locus,
        }


@dataclass
class Witness:
    name: str
    inputs: dict
    claims: list[Claim]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    @property
    def replay(self) -> str:
        return f"fincat counterexample {self.name!r}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "passed": self.passed,
            "replay": self.replay,
            "claims": [c.to_dict() for c in self.claims],
        }


# ---------------------------------------------------------------------------
# Arrows of categories: sections, normality on a test set


@dataclass
class ArrowMorphism:
    """A morphism of the arrow category of categories: a strictly commuting
    square (level0, level1) between two functors."""

    source: FinFunctor  # u : A0 → A1
    target: FinFunctor  # v : B0 → B1
    level0: FinFunctor  # A0 → B0
    level1: FinFunctor  # A1 → B1


def arrow_sections(f: ArrowMorphism) -> list[ArrowMorphism]:
    """All sections (s0, s1) of f in the arrow category, sorted s0-major in
    the order of :func:`enumerate_functors`.

    The search runs over the sections s1 of level 1, which are few; for each
    s1, the s0 : B0 → A0 are the functors lying over both (level 0, 1_B0)
    and (u, s1∘v), so the many sections of level 0 that no s1 extends are
    never built."""
    u, v = f.source, f.target
    ident = identity_functor(v.source)
    pairs = [
        (s0, s1)
        for s1 in find_sections(f.level1)
        for s0 in enumerate_lifts(
            v.source, u.source, over=[(f.level0, ident), (u, v.then(s1))]
        )
    ]
    pairs.sort(key=lambda pair: (functor_position(pair[0]), functor_position(pair[1])))
    return [ArrowMorphism(source=v, target=u, level0=s0, level1=s1) for s0, s1 in pairs]


def arrow_normal_on_test_set(f: ArrowMorphism) -> bool:
    """Whether postcomposition with f is a normal isofibration of
    hom-categories [X, -] of commuting squares for both test objects X.

    Each hom-category has a closed form:

    * for X = id₁, a square 1 → A is an object of A₀ and a morphism of
      squares a morphism of A₀, so [X, A] ≅ A₀ and postcomposition with f
      is f's level 0;
    * for X = (2 → 1), a square is a pair (a, a′) with A a = A a′ and a
      morphism a pair (u, u′) with A u = A u′, so [X, A] is the kernel pair
      A₀ ×_{A₁} A₀ and postcomposition is level 0 on both parts;
    * being a normal isofibration is invariant under isomorphism of arrows.

    So the claim holds iff level 0 and the map of kernel pairs are normal
    isofibrations."""
    p, q = pullback_strict(f.source, f.source).projections
    kernel = pair_functor(
        p.then(f.level0), q.then(f.level0), pullback_strict(f.target, f.target).apex
    )
    return all(classify_fibration(g, grothendieck=False).normal for g in (f.level0, kernel))


# ---------------------------------------------------------------------------
# groth_leibniz


def groth_leibniz() -> Witness:
    two = builtin("arrow")
    j = builtin_functor("discrete_to_arrow")
    restriction = precompose_functor(j, two)
    report = classify_fibration(restriction)
    fail = report.failures.get("grothendieck", (None, None, None, None))
    lp = leibniz_power(
        j, thin_functor(two, builtin("terminal"), {a: "*" for a in two.objects}, "arrow→1")
    )
    same = find_arrow_isomorphism(lp.induced, restriction)
    locus = f"{fail[2]} -> {fail[3]} at {fail[0]}"
    claims = [
        Claim("restriction is a discrete isofibration", True, report.discrete),
        Claim("restriction is a Grothendieck fibration", False, report.grothendieck, locus=locus),
        Claim("failing arrow domain", "(1,0)", fail[2], locus=locus),
        Claim("failing arrow codomain", "(1,1)", fail[3], locus=locus),
        Claim(
            "Leibniz power by the endpoint inclusion agrees with the restriction",
            True,
            same is not None,
        ),
        Claim(
            "Leibniz power report matches",
            (True, False),
            (lp.report.discrete, lp.report.grothendieck),
        ),
    ]
    return Witness(
        name="groth_leibniz",
        inputs={"j": "discrete_to_arrow", "power_of": "arrow"},
        claims=claims,
    )


# ---------------------------------------------------------------------------
# nip_cat2


def _chaotic_square(ce: dict) -> tuple[ArrowMorphism, ...]:
    """A finite-set square of arrows (a NIP counterexample) lifted to
    chaotic categories: its edges (i, p, top, bottom), each a commuting
    square of thin functors."""

    def on_objects(fn):
        return {str(i): str(x) for i, x in enumerate(fn)}

    def chaotic_arrow(obj):
        src = chaotic_category(obj["source_size"])
        dst = chaotic_category(obj["target_size"])
        return thin_functor(src, dst, on_objects(obj["map"]), "functor")

    A, B, C, D = (chaotic_arrow(ce[k]) for k in "ABCD")

    def square(f, src, dst):
        return ArrowMorphism(
            source=src,
            target=dst,
            level0=thin_functor(src.source, dst.source, on_objects(f["component0"]), "functor"),
            level1=thin_functor(src.target, dst.target, on_objects(f["component1"]), "functor"),
        )

    edges = (("i", A, B), ("p", C, D), ("top", A, C), ("bottom", B, D))
    return tuple(square(ce[key], src, dst) for key, src, dst in edges)


def nip_cat2() -> Witness:
    res = nip_square_filler("finset_arrow", 3)
    claims = [Claim("unfillable square exists at size bound 3", True, not res.all_fill)]
    ce = res.counterexample
    if ce is not None:
        # lift the square to chaotic categories and replay it there
        i, p, top, bottom = _chaotic_square(ce)
        wi0 = classify_equivalence(i.level0)
        wi1 = classify_equivalence(i.level1)
        wp0 = classify_equivalence(p.level0)
        wp1 = classify_equivalence(p.level1)
        claims.append(
            Claim(
                "chaotic left edge components are injective equivalences",
                (True, True),
                (wi0.has_retraction, wi1.has_retraction),
            )
        )
        claims.append(
            Claim(
                "chaotic right edge components are retract equivalences",
                (True, True),
                (wp0.has_section, wp1.has_section),
            )
        )
        claims.append(
            Claim(
                "chaotic square commutes",
                True,
                top.level0.then(p.level0) == i.level0.then(bottom.level0)
                and top.level1.then(p.level1) == i.level1.then(bottom.level1),
            )
        )
        fillers = _arrow_fillers(i, p, top, bottom)
        claims.append(Claim("chaotic square has a functor filler", False, bool(fillers)))
    return Witness(
        name="nip_cat2",
        inputs={"space": "finset_arrow", "size_bound": 3},
        claims=claims,
    )


def _arrow_fillers(i: ArrowMorphism, p: ArrowMorphism, top: ArrowMorphism, bottom: ArrowMorphism):
    """Fillers (h0, h1) of an arrow-category square, by exhaustion."""
    B, C = i.target, p.source
    return [
        (h0, h1)
        for h0 in enumerate_lifts(
            B.source, C.source, under=[(i.level0, top.level0)], over=[(p.level0, bottom.level0)]
        )
        for h1 in enumerate_lifts(
            B.target,
            C.target,
            under=[(i.level1, top.level1), (B, h0.then(C))],
            over=[(p.level1, bottom.level1)],
        )
    ]


# ---------------------------------------------------------------------------
# fy_family


def _subset_name(subset) -> str:
    return "U" + "".join(str(x) for x in subset) if subset else "U∅"


def build_fy(k: int, alpha: int):
    """The square f over (Y → 1) with Y the k-element discrete category:
    level 0 is the pair category over subsets of size < alpha, level 1 the
    chaotic category of those subsets."""
    Y = discrete_category(k)
    one = terminal_category()
    subsets = [()]
    for size in range(1, alpha):
        subsets.extend(combinations(range(k), size))
    subset_names = [_subset_name(s) for s in subsets]
    S = thin_category(
        subset_names,
        [
            (f"c{i}_{j}", subset_names[i], subset_names[j])
            for i in range(len(subsets))
            for j in range(len(subsets))
        ],
        f"S({k},<{alpha})",
    )

    pairs = [(i, x) for i, subset in enumerate(subsets) for x in subset]
    p_objects = [f"({subset_names[i]},{x})" for i, x in pairs]
    P = thin_category(
        p_objects,
        [
            (f"w{a}_{b}", p_objects[a], p_objects[b])
            for a, (_, x) in enumerate(pairs)
            for b, (_, y) in enumerate(pairs)
            if x == y
        ],
        f"P({k},<{alpha})",
    )

    left_leg = thin_functor(
        P, S, {name: subset_names[i] for name, (i, _) in zip(p_objects, pairs)}, "pairs→subsets"
    )
    pi = thin_functor(
        P, Y, {name: str(x) for name, (_, x) in zip(p_objects, pairs)}, "pairs→points"
    )
    sigma = thin_functor(S, one, {a: "*" for a in S.objects}, "subsets→1")
    bang = thin_functor(Y, one, {a: "*" for a in Y.objects}, "points→1")
    return ArrowMorphism(source=left_leg, target=bang, level0=pi, level1=sigma)


def fy_family(k: int, alpha: int) -> Witness:
    if not (0 <= k <= 4) or alpha not in (2, 3, 4):
        raise BudgetExceeded(
            f"fy_family({k},{alpha}) is outside the supported finite ranges"
        )
    f = build_fy(k, alpha)
    w_pi = classify_equivalence(f.level0)
    w_sigma = classify_equivalence(f.level1)
    sections = arrow_sections(f)
    locus = f"points={k}, threshold={alpha}"
    claims = [
        Claim(
            "level-0 component is a retract equivalence",
            True,
            w_pi.has_section,
            locus=locus,
        ),
        Claim(
            "level-1 component is a retract equivalence",
            True,
            w_sigma.has_section,
            locus=locus,
        ),
        Claim(
            "square is a normal isofibration on the test set",
            True,
            arrow_normal_on_test_set(f),
            locus=locus,
        ),
        Claim("square has a section", k < alpha, bool(sections), locus=locus),
    ]
    return Witness(
        name=f"fy_family({k},{alpha})",
        inputs={"points": k, "size_threshold": alpha},
        claims=claims,
    )


# ---------------------------------------------------------------------------
# dispatch


_FY_RE = re.compile(r"^fy_family\((\d+)\s*,\s*(\d+)\)$")


def run_counterexample(name: str) -> Witness:
    name = name.strip()
    if name == "groth_leibniz":
        return groth_leibniz()
    if name == "nip_cat2":
        return nip_cat2()
    m = _FY_RE.match(name.replace(" ", ""))
    if m:
        digits = max(len(d.lstrip("0")) for d in m.groups())
        if digits > 9:  # far outside the ranges, and int() refuses 4300+ digits
            raise BudgetExceeded(
                f"fy_family with a {digits}-digit argument is outside the supported finite ranges"
            )
        return fy_family(int(m.group(1)), int(m.group(2)))
    raise UnknownName(f"no counterexample named {name!r}")


COUNTEREXAMPLE_NAMES = ("groth_leibniz", "nip_cat2", "fy_family(k,alpha)")
