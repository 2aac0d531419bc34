"""Equivalence classification for functors between finite categories.

A functor is an equivalence exactly when it is fully faithful and
essentially surjective.  Its kinds are then read off its object map: it
has a retraction iff it is injective on objects, and a section iff it is
onto.  The witness is an adjoint equivalence built by one builder from an
inverse and a counit, in one of three normalizations:

* injective  — the inverse is the first retraction and the unit is an identity;
* retract    — the inverse is the first section and the counit is an identity;
* plain      — the inverse is conjugated through the first isomorphisms of
  essential surjectivity, which form the counit.

Only one inverse search runs per functor, and it walks candidates in index
order, so witnesses are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    FinFunctor,
    NatTrans,
    WitnessInvalid,
    enumerate_lifts,
    identity_functor,
    validate_transformation,
)


@dataclass(frozen=True)
class NotEquivalence:
    """Normal (non-error) result: why the functor is not an equivalence."""

    functor: FinFunctor
    reason: str
    locus: tuple = ()

    def __bool__(self):
        return False


@dataclass(frozen=True)
class EquivalenceWitness:
    """An adjoint equivalence (forward ⊣ inverse) with verified triangles.

    ``kind`` names the normalization the stored unit/counit satisfy;
    ``has_section`` / ``has_retraction`` say whether a section or a
    retraction exists, read off the forward functor's object map (onto,
    injective).  Both hold at once only for an isomorphism, whose stored
    structure then realizes both normalizations.
    """

    forward: FinFunctor
    inverse: FinFunctor
    unit: NatTrans
    counit: NatTrans
    kind: str
    has_section: bool
    has_retraction: bool

    @property
    def kinds(self) -> frozenset[str]:
        out = {"plain"}
        if self.has_section:
            out.add("retract")
        if self.has_retraction:
            out.add("injective")
        return frozenset(out)

    def __bool__(self):
        return True


def _not_ff(F: FinFunctor):
    """Return a NotEquivalence if F fails full faithfulness, else None."""
    A, B = F.source, F.target
    for a in A.objects:
        for a2 in A.objects:
            images = [F.mor(m) for m in A.hom(a, a2)]
            target = B.hom(F.ob(a), F.ob(a2))
            if len(set(images)) != len(images):
                return NotEquivalence(F, "not faithful", (a, a2))
            if set(images) != set(target):
                return NotEquivalence(F, "not full", (a, a2))
    return None


def _eso_choices(F: FinFunctor):
    """For each target object, the first (a, iso F(a) → b); None if some b
    has no object of A mapped isomorphically onto it."""
    A, B = F.source, F.target
    choices = {}
    for b in B.objects:
        found = None
        for a in A.objects:
            for iso in B.hom(F.ob(a), b):
                if B.is_iso(iso):
                    found = (a, iso)
                    break
            if found:
                break
        if found is None:
            return None, b
        choices[b] = found
    return choices, None


def find_sections(F: FinFunctor, limit: int | None = None) -> Iterator[FinFunctor]:
    """All G with F∘G equal (on the nose) to the identity of the target."""
    B = F.target
    yield from enumerate_lifts(B, F.source, over=[(F, identity_functor(B))], limit=limit)


def find_retractions(F: FinFunctor, limit: int | None = None) -> Iterator[FinFunctor]:
    """All R with R∘F equal (on the nose) to the identity of the source."""
    A = F.source
    yield from enumerate_lifts(F.target, A, under=[(F, identity_functor(A))], limit=limit)


def _preimage(F: FinFunctor, a: str, a2: str, m: str) -> str:
    """The morphism a → a2 that F sends to m, unique as F is faithful."""
    for n in F.source.hom(a, a2):
        if F.mor(n) == m:
            return n
    raise WitnessInvalid(f"{m} has no preimage under {F.label}")


def _conjugate(F: FinFunctor, choices) -> FinFunctor:
    """The inverse read off essential surjectivity: b goes to the chosen a
    with ε_b : F a ≅ b, and m : b → b2 to the preimage of ε_b2⁻¹ ∘ m ∘ ε_b."""
    B = F.target
    omap = {b: a for b, (a, _) in choices.items()}
    mmap = {}
    for m in B.morphisms:
        (a, eps), (a2, eps2) = choices[m.dom], choices[m.cod]
        conj = B.compose(B.inverse(eps2), B.compose(m.name, eps))
        mmap[m.name] = _preimage(F, a, a2, conj)
    return FinFunctor(B, F.source, omap, mmap, label=f"{F.label}~inv")


def _retraction_counit(F: FinFunctor, R: FinFunctor) -> dict[str, str]:
    """For a retraction R of F, ε_b : F R b → b over id_{R b}; the unit
    it gives is an identity."""
    A = F.source
    return {b: _preimage(R, F.ob(R.ob(b)), b, A.id_of(R.ob(b))) for b in F.target.objects}


def adjoint_equivalence(F: FinFunctor, G: FinFunctor, counit, kind: str) -> EquivalenceWitness:
    """The adjoint equivalence F ⊣ G with counit components ``counit``
    (ε_b : F G b ≅ b) for a fully faithful F: the unit at a is the preimage
    of ε⁻¹ at F a, the only unit that satisfies the triangle equations.
    The section and retraction flags are read off F's object map."""
    A, B = F.source, F.target
    GF = F.then(G)
    unit = {a: _preimage(F, a, GF.ob(a), B.inverse(counit[F.ob(a)])) for a in A.objects}
    images = set(F.omap.values())
    return EquivalenceWitness(
        forward=F,
        inverse=G,
        unit=NatTrans(identity_functor(A), GF, unit, label="unit"),
        counit=NatTrans(G.then(F), identity_functor(B), counit, label="counit"),
        kind=kind,
        has_section=len(images) == B.n_objects,
        has_retraction=len(images) == A.n_objects,
    )


def validate_witness(w: EquivalenceWitness) -> EquivalenceWitness:
    """Check invertibility, naturality, triangle equations, and the
    normalization promised by ``kind``.  Raises :class:`WitnessInvalid`."""
    F, G = w.forward, w.inverse
    A, B = F.source, F.target
    try:
        validate_transformation(w.unit, invertible=True)
        validate_transformation(w.counit, invertible=True)
    except Exception as exc:
        raise WitnessInvalid(f"unit/counit invalid: {exc}") from exc
    if w.unit.source != identity_functor(A) or w.unit.target != F.then(G):
        raise WitnessInvalid("unit has wrong boundary")
    if w.counit.source != G.then(F) or w.counit.target != identity_functor(B):
        raise WitnessInvalid("counit has wrong boundary")
    for a in A.objects:
        left = B.compose(w.counit.component(F.ob(a)), F.mor(w.unit.component(a)))
        if left != B.id_of(F.ob(a)):
            raise WitnessInvalid(f"triangle (counit·F)(F·unit) fails at {a}")
    for b in B.objects:
        left = A.compose(G.mor(w.counit.component(b)), w.unit.component(G.ob(b)))
        if left != A.id_of(G.ob(b)):
            raise WitnessInvalid(f"triangle (G·counit)(unit·G) fails at {b}")
    if w.kind == "retract" and not w.counit.is_identity():
        raise WitnessInvalid("retract witness must have identity counit")
    if w.kind == "injective" and not w.unit.is_identity():
        raise WitnessInvalid("injective witness must have identity unit")
    return w


def classify_equivalence(F: FinFunctor):
    """Classify a functor as an equivalence, returning a witness, or report
    :class:`NotEquivalence`.

    For a fully faithful, essentially surjective F the kinds are read off
    its object map.  A retraction R∘F = 1 forces F injective on objects,
    and a section F∘G = 1 forces it onto.  Conversely, for an injective F
    the conjugation through the chosen isomorphisms, taking identities on
    the image, is a retraction; for an onto F, a choice of preimages with
    full faithfulness gives a section.  So one search runs: the first
    retraction if F is injective, else the first section if F is onto,
    else the conjugation.  Given (F, G, ε), the unit of an adjoint
    equivalence is unique, so :func:`adjoint_equivalence` builds all three
    kinds with one formula.  Searches walk candidates in index order, so
    the result is deterministic.
    """
    failure = _not_ff(F)
    if failure is not None:
        return failure
    choices, missing = _eso_choices(F)
    if missing is not None:
        return NotEquivalence(F, "not essentially surjective", (missing,))
    B = F.target
    if F.injective_on_objects():
        R = next(find_retractions(F, limit=1))
        return adjoint_equivalence(F, R, _retraction_counit(F, R), "injective")
    if len(set(F.omap.values())) == B.n_objects:
        G = next(find_sections(F, limit=1))
        return adjoint_equivalence(F, G, {b: B.id_of(b) for b in B.objects}, "retract")
    counit = {b: iso for b, (_, iso) in choices.items()}
    return adjoint_equivalence(F, _conjugate(F, choices), counit, "plain")


def injective_witness(F: FinFunctor) -> EquivalenceWitness:
    """Witness with identity unit; requires a retraction."""
    w = classify_equivalence(F)
    if isinstance(w, NotEquivalence):
        raise WitnessInvalid(f"{F.label} is not an equivalence: {w.reason}")
    if not w.has_retraction:
        raise WitnessInvalid(f"{F.label} has no retraction")
    # injective is the preferred normalization, so the stored unit is identity
    return w
