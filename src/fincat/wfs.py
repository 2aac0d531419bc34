"""The (injective equivalence, normal isofibration) weak factorization
machinery: factorization through the pseudolimit of an arrow, the diagonal
filler construction, Leibniz powers, the iso-power comparison map, and the
retract presentation of a normal isofibration through its factorization.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FinFunctor,
    StructureError,
    WitnessInvalid,
    cached_property,
    enumerate_isomorphisms,
    enumerate_lifts,
    find_isomorphism,
    identity_functor,
)
from .equivalence import EquivalenceWitness
from .fibrations import (
    Cleavage,
    FibrationReport,
    build_normal_cleavage,
    classify_fibration,
    lift_iso_2cell,
)
from .funcat import pair_functor, postcompose_functor, precompose_functor
from .limits import (
    LimitWitness,
    PseudolimitOfArrow,
    pseudolimit_injective_witness,
    pseudolimit_of_arrow,
    pullback_strict,
)


@dataclass
class LiftingProblem:
    """A commuting square: left∘? …  top on top, bottom on the bottom,
    left : A → B on the left, right : C → D on the right, with
    right∘top = bottom∘left exactly."""

    left: FinFunctor
    right: FinFunctor
    top: FinFunctor
    bottom: FinFunctor

    def validate(self) -> "LiftingProblem":
        if self.top.source != self.left.source or self.top.target != self.right.source:
            raise StructureError("top edge has wrong endpoints")
        if self.bottom.source != self.left.target or self.bottom.target != self.right.target:
            raise StructureError("bottom edge has wrong endpoints")
        if self.top.then(self.right) != self.left.then(self.bottom):
            raise StructureError("square does not commute")
        return self

    def is_filler(self, h: FinFunctor) -> bool:
        return (
            h.source == self.left.target
            and h.target == self.right.source
            and self.left.then(h) == self.top
            and h.then(self.right) == self.bottom
        )


@dataclass
class Factorization:
    """f = right ∘ left with left an injective equivalence (witnessed) and
    right a normal isofibration."""

    left: FinFunctor
    right: FinFunctor
    left_witness: EquivalenceWitness
    pseudolimit: PseudolimitOfArrow


def factorize_wfs(f: FinFunctor) -> Factorization:
    """Factor f through the pseudolimit of the arrow: the diagonal followed
    by the target projection."""
    pl = pseudolimit_of_arrow(f)
    return Factorization(
        left=pl.diagonal,
        right=pl.to_target,
        left_witness=pseudolimit_injective_witness(pl),
        pseudolimit=pl,
    )


def solve_lifting(problem: LiftingProblem) -> FinFunctor:
    """Diagonal filler for a square with an injective equivalence on the
    left and a normal isofibration on the right.

    The square is checked; the left edge's witness is its cached
    ``equivalence`` and the right edge's normal cleavage is built here, both
    lawful by construction.  The filler is built by lifting the whiskered
    counit-inverse through the cleavage; normality then forces agreement
    with the top edge.
    """
    problem.validate()
    witness = problem.left.equivalence
    if not witness.has_retraction:
        raise WitnessInvalid(f"{problem.left.label} is not an injective equivalence")
    return _filler(problem, witness, build_normal_cleavage(problem.right))


def _filler(
    problem: LiftingProblem, witness: EquivalenceWitness, cleavage: Cleavage
) -> FinFunctor:
    """The lift of bottom·η through the cleavage at r∘top, for the
    injective witness (i, r) with η : 1 ≅ i∘r."""
    eta = witness.counit.inverse()  # 1_B ≅ i∘r with η·i and r·η identities
    t = witness.inverse.then(problem.top)
    beta = eta.whisker_post(problem.bottom)
    return lift_iso_2cell(cleavage, t, beta, label="filler")[0]


def exhaustive_fillers(problem: LiftingProblem):
    """All diagonal fillers, by constrained enumeration: functors fixed on
    the image of the left edge and lying over the bottom edge.  When the left
    edge identifies points with conflicting top images there is none."""
    problem.validate()
    yield from enumerate_lifts(
        problem.left.target,
        problem.right.source,
        under=[(problem.left, problem.top)],
        over=[(problem.right, problem.bottom)],
    )


def has_filler(problem: LiftingProblem) -> bool:
    return next(exhaustive_fillers(problem), None) is not None


def canonical_test_square(f: FinFunctor) -> LiftingProblem:
    """The square whose fillers detect membership in the right class: the
    factorization's diagonal against f itself."""
    fac = factorize_wfs(f)
    return LiftingProblem(
        left=fac.left,
        right=f,
        top=identity_functor(f.source),
        bottom=fac.right,
    )


# ---------------------------------------------------------------------------
# Leibniz powers


@dataclass
class LeibnizPower:
    """The induced map from a power into the pullback of powers, plus its
    classification, built on first read: the full :func:`classify_fibration`
    with its cubic Grothendieck scan, which a caller that only needs the
    induced map does not pay."""

    induced: FinFunctor
    pullback: LimitWitness

    @cached_property
    def report(self) -> FibrationReport:
        return classify_fibration(self.induced)


def leibniz_power(j: FinFunctor, p: FinFunctor) -> LeibnizPower:
    """For j : X → Y and p : A → B, the induced map A^Y → B^Y ×_{B^X} A^X
    together with its isofibration report, built on first read."""
    if not j.injective_on_objects():
        raise StructureError(f"{j.label} must be injective on objects")
    X, Y = j.source, j.target
    A, B = p.source, p.target
    p_x = postcompose_functor(p, X)
    b_j = precompose_functor(j, B)
    pb = pullback_strict(p_x, b_j)
    induced = pair_functor(precompose_functor(j, A), postcompose_functor(p, Y), pb.apex)
    induced.label = f"leibniz({j.label},{p.label})"
    return LeibnizPower(induced=induced, pullback=pb)


# ---------------------------------------------------------------------------
# The iso-power comparison map


@dataclass
class WfComparison:
    """The comparison w : A^I → L_f and the biconditional report between
    the classification of f and of w, which both keep as their cached
    ``fibration`` and ``equivalence``."""

    comparison: FinFunctor
    biconditionals: dict

    @property
    def ok(self) -> bool:
        return all(self.biconditionals.values())


def compute_wf(f: FinFunctor) -> WfComparison:
    """Compute the induced map out of the iso-power and check that it is an
    isofibration (resp. normal) exactly when f is; when either holds it
    must moreover be a retract equivalence."""
    pl = pseudolimit_of_arrow(f)
    w = pl.power_comparison
    # only the iso-lifting flags enter the biconditionals
    rf, rw = f.fibration, w.fibration
    checks = {
        "representable_iff": rf.representable == rw.representable,
        "normal_iff": rf.normal == rw.normal,
    }
    if rf.representable or rw.representable:
        checks["retract_kind"] = "retract" in w.equivalence.kinds
    return WfComparison(comparison=w, biconditionals=checks)


# ---------------------------------------------------------------------------
# Retract presentation of a normal isofibration


@dataclass
class RetractCertificate:
    """Equations exhibiting an arrow as a retract, in the arrow category,
    of its factorization's right leg."""

    filler: FinFunctor
    equations: dict

    @property
    def ok(self) -> bool:
        return all(self.equations.values())


def minimal_retract_witness(f: FinFunctor) -> RetractCertificate:
    """For a normal isofibration f, solve the square (diagonal, f, 1,
    right leg) and package the retract diagram through the factorization;
    raises :class:`NotIsofibration` when f is not one."""
    cleavage = build_normal_cleavage(f)
    fac = factorize_wfs(f)
    problem = LiftingProblem(
        left=fac.left,
        right=f,
        top=identity_functor(f.source),
        bottom=fac.right,
    )
    w = _filler(problem, fac.left_witness, cleavage)
    A = f.source
    equations = {
        "section_then_filler_is_identity": fac.left.then(w) == identity_functor(A),
        "filler_over_right_leg": w.then(f) == fac.right,
        "section_square_commutes": fac.left.then(fac.right) == f,
    }
    return RetractCertificate(filler=w, equations=equations)


# ---------------------------------------------------------------------------
# Isomorphism of arrows (used to compare induced maps with named ones)


def find_arrow_isomorphism(f: FinFunctor, g: FinFunctor):
    """Isomorphisms (σ, τ) with τ∘f = g∘σ, or None."""
    for sigma in enumerate_isomorphisms(f.source, g.source):
        omap_choices = {}
        mmap_choices = {}
        for a in f.source.objects:
            omap_choices.setdefault(f.ob(a), set()).add(g.ob(sigma.ob(a)))
        for m in f.source.morphisms:
            mmap_choices.setdefault(f.mor(m.name), set()).add(g.mor(sigma.mor(m.name)))
        if any(len(v) > 1 for v in omap_choices.values()):
            continue
        if any(len(v) > 1 for v in mmap_choices.values()):
            continue
        tau = find_isomorphism(
            f.target,
            g.target,
            {k: sorted(v) for k, v in omap_choices.items()},
            {k: sorted(v) for k, v in mmap_choices.items()},
        )
        if tau is not None:
            return sigma, tau
    return None
