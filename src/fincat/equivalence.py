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

A functor's ``equivalence`` attribute is its classification, built on first
read and kept.  The inverse, unit and counit are built on first read, so a
caller that reads only the kinds runs no search; at most one inverse search
runs per witness, and it walks candidates in index order, so witnesses are
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core import (
    FinFunctor,
    NatTrans,
    WitnessInvalid,
    cached_property,
    enumerate_lifts,
    identity_functor,
    validate_transformation,
)


@dataclass(frozen=True)
class NotEquivalence:
    """Normal (non-error) result: why the functor is not an equivalence.

    It answers ``has_section``, ``has_retraction`` and ``kinds`` as an
    ``EquivalenceWitness`` does: no section, no retraction, no kind."""

    functor: FinFunctor
    reason: str
    locus: tuple = ()

    has_section = False
    has_retraction = False
    kinds = frozenset()

    def __bool__(self):
        return False


@dataclass(frozen=True)
class EquivalenceWitness:
    """An adjoint equivalence (forward ⊣ inverse).

    ``kind`` names the normalization the unit/counit satisfy;
    ``has_section`` / ``has_retraction`` say whether a section or a
    retraction exists, read off the forward functor's object map (onto,
    injective).  Both hold at once only for an isomorphism, whose structure
    then realizes both normalizations.  ``build`` returns the inverse and
    the counit components (ε_b : F G b ≅ b) of a fully faithful forward
    functor; it runs on the first read of the structure, reads no bounds,
    and takes no part in comparison.
    """

    forward: FinFunctor
    kind: str
    build: Callable[[], tuple[FinFunctor, dict]] = field(repr=False, compare=False)

    @cached_property
    def has_section(self) -> bool:
        return len(set(self.forward.omap.values())) == self.forward.target.n_objects

    @cached_property
    def has_retraction(self) -> bool:
        return self.forward.injective_on_objects()

    @cached_property
    def _structure(self) -> tuple[FinFunctor, NatTrans, NatTrans]:
        # the unit at a is the preimage of ε⁻¹ at F a, the only unit that
        # satisfies the triangle equations
        (G, counit), F = self.build(), self.forward
        A, B, GF = F.source, F.target, F.then(G)
        if not all(B.is_iso(counit.get(F.ob(a))) for a in A.objects):
            raise WitnessInvalid(f"counit is not invertible on the image of {F.label}")
        unit = {a: _preimage(F, a, GF.ob(a), B.inverse(counit[F.ob(a)])) for a in A.objects}
        unit_cell = NatTrans(identity_functor(A), GF, unit, label="unit")
        return G, unit_cell, NatTrans(G.then(F), identity_functor(B), counit, label="counit")

    inverse = property(lambda self: self._structure[0])
    unit = property(lambda self: self._structure[1])
    counit = property(lambda self: self._structure[2])

    @property
    def kinds(self) -> frozenset[str]:
        out = {"plain"}
        if self.has_section:
            out.add("retract")
        if self.has_retraction:
            out.add("injective")
        return frozenset(out)


def _not_ff(F: FinFunctor):
    """A NotEquivalence at the first pair (a, a2) of objects where F is not
    faithful or not full, else None.  F must be a functor: the images of
    hom(a, a2) then lie in hom(F a, F a2), so counting them decides both."""
    A, omap, mmap = F.source, F.omap, F.mmap
    homs, target_homs = A._hom_table, F.target._hom_table
    for a in A.objects:
        for a2 in A.objects:
            hom = homs.get((a, a2), ())
            n_images = len(set(map(mmap.__getitem__, hom)))
            if n_images != len(hom):
                return NotEquivalence(F, "not faithful", (a, a2))
            if n_images != len(target_homs.get((omap[a], omap[a2]), ())):
                return NotEquivalence(F, "not full", (a, a2))
    return None


def _eso_choices(F: FinFunctor):
    """``(choices, None)``, choosing the first (a, iso F(a) → b) for each
    target object b, or ``(None, b)`` for the first b that has none."""
    A, B = F.source, F.target
    choices = {}
    for b in B.objects:
        isos = ((a, iso) for a in A.objects for iso in B.hom(F.ob(a), b) if B.is_iso(iso))
        found = next(isos, None)
        if found is None:
            return None, b
        choices[b] = found
    return choices, None


def find_sections(F: FinFunctor) -> Iterator[FinFunctor]:
    """All G with F∘G equal (on the nose) to the identity of the target."""
    B = F.target
    yield from enumerate_lifts(B, F.source, over=[(F, identity_functor(B))])


def find_retractions(F: FinFunctor) -> Iterator[FinFunctor]:
    """All R with R∘F equal (on the nose) to the identity of the source."""
    A = F.source
    yield from enumerate_lifts(F.target, A, under=[(F, identity_functor(A))])


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


def _first_retraction(F: FinFunctor) -> tuple[FinFunctor, dict[str, str]]:
    """The first retraction R of F, with the counit ε_b : F R b → b over
    id_{R b}; the unit it gives is an identity."""
    R, A = next(find_retractions(F)), F.source
    return R, {b: _preimage(R, F.ob(R.ob(b)), b, A.id_of(R.ob(b))) for b in F.target.objects}


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
    else the conjugation, on first read of the witness's structure.  Given
    (F, G, ε), the unit of an adjoint equivalence is unique, so
    :class:`EquivalenceWitness` builds all three kinds with one formula.
    Searches walk candidates in index order, so the result is deterministic.
    """
    failure = _not_ff(F)
    if failure is not None:
        return failure
    choices, missing = _eso_choices(F)
    if missing is not None:
        return NotEquivalence(F, "not essentially surjective", (missing,))
    B = F.target
    if F.injective_on_objects():
        return EquivalenceWitness(F, "injective", lambda: _first_retraction(F))
    if len(set(F.omap.values())) == B.n_objects:
        counit = {b: B.id_of(b) for b in B.objects}
        return EquivalenceWitness(
            F, "retract", lambda: (next(find_sections(F)), counit)
        )
    counit = {b: iso for b, (_, iso) in choices.items()}
    return EquivalenceWitness(F, "plain", lambda: (_conjugate(F, choices), counit))
