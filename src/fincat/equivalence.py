"""Equivalence classification for functors between finite categories.

A functor is an equivalence exactly when it is fully faithful and
essentially surjective; from that data an adjoint equivalence witness is
constructed deterministically.  Witnesses come in three normalizations:

* plain      — unit and counit chosen to satisfy the triangle equations;
* retract    — a section exists and the counit is an identity;
* injective  — a retraction exists and the unit is an identity.

All searches walk candidates in index order, so witnesses are reproducible.
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
    ``has_section`` / ``has_retraction`` report the exhaustive searches
    independently (both can hold at once only for an isomorphism, whose
    stored structure then realizes both normalizations).
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


def _witness_from_section(F: FinFunctor, G: FinFunctor) -> tuple[NatTrans, NatTrans]:
    """Adjoint equivalence data with identity counit, given F∘G = 1 and F
    fully faithful.  Unit at a is the unique preimage of id_{F a}."""
    A, B = F.source, F.target
    GF = F.then(G)
    unit_parts = {}
    for a in A.objects:
        target = GF.ob(a)
        pick = None
        for m in A.hom(a, target):
            if F.mor(m) == B.id_of(F.ob(a)):
                pick = m
                break
        if pick is None:
            raise WitnessInvalid(f"no unit component at {a}")
        unit_parts[a] = pick
    unit = NatTrans(identity_functor(A), GF, unit_parts, label="unit")
    counit = NatTrans(
        G.then(F), identity_functor(B), {b: B.id_of(b) for b in B.objects}, label="counit"
    )
    return unit, counit


def _witness_from_retraction(F: FinFunctor, R: FinFunctor) -> tuple[NatTrans, NatTrans]:
    """Adjoint equivalence data with identity unit, given R∘F = 1.

    Built by normalizing the reverse direction: R is an equivalence with
    section F, and inverting its unit gives the counit for F."""
    A, B = F.source, F.target
    rev_unit, _ = _witness_from_section(R, F)  # 1_B ≅ F∘R with R-image identity
    counit = NatTrans(
        R.then(F),
        identity_functor(B),
        rev_unit.inverse().components,
        label="counit",
    )
    unit = NatTrans(
        identity_functor(A), F.then(R), {a: A.id_of(a) for a in A.objects}, label="unit"
    )
    return unit, counit


def _plain_witness(F: FinFunctor) -> tuple[FinFunctor, NatTrans, NatTrans]:
    """The standard adjoint-equivalence construction from fully-faithful +
    essentially-surjective data, with all choices taken first-in-index-order."""
    A, B = F.source, F.target
    choices, _ = _eso_choices(F)
    omap = {}
    eps = {}
    for b in B.objects:
        a, iso = choices[b]
        omap[b] = a
        eps[b] = iso
    mmap = {}
    for m in B.morphisms:
        b, b2 = m.dom, m.cod
        # G(m) is the unique preimage of eps_{b2}^{-1} ∘ m ∘ eps_b
        conj = B.compose(B.inverse(eps[b2]), B.compose(m.name, eps[b]))
        pick = None
        for n in A.hom(omap[b], omap[b2]):
            if F.mor(n) == conj:
                pick = n
                break
        if pick is None:
            raise WitnessInvalid(f"no inverse image for {m.name}")
        mmap[m.name] = pick
    G = FinFunctor(B, A, omap, mmap, label=f"{F.label}~inv")
    counit = NatTrans(G.then(F), identity_functor(B), eps, label="counit")
    unit_parts = {}
    for a in A.objects:
        want = B.inverse(eps[F.ob(a)])
        pick = None
        for n in A.hom(a, G.ob(F.ob(a))):
            if F.mor(n) == want:
                pick = n
                break
        if pick is None:
            raise WitnessInvalid(f"no unit component at {a}")
        unit_parts[a] = pick
    unit = NatTrans(identity_functor(A), F.then(G), unit_parts, label="unit")
    return G, unit, counit


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

    The witness normalization prefers injective (identity unit) over retract
    (identity counit) over plain, and all searches are exhaustive and in
    index order, so the result is deterministic.
    """
    failure = _not_ff(F)
    if failure is not None:
        return failure
    _, missing = _eso_choices(F)
    if missing is not None:
        return NotEquivalence(F, "not essentially surjective", (missing,))

    section = next(find_sections(F, limit=1), None)
    retraction = next(find_retractions(F, limit=1), None)

    if retraction is not None:
        unit, counit = _witness_from_retraction(F, retraction)
        inverse, kind = retraction, "injective"
    elif section is not None:
        unit, counit = _witness_from_section(F, section)
        inverse, kind = section, "retract"
    else:
        inverse, unit, counit = _plain_witness(F)
        kind = "plain"
    return EquivalenceWitness(
        forward=F,
        inverse=inverse,
        unit=unit,
        counit=counit,
        kind=kind,
        has_section=section is not None,
        has_retraction=retraction is not None,
    )


def injective_witness(F: FinFunctor) -> EquivalenceWitness:
    """Witness with identity unit; requires a retraction."""
    w = classify_equivalence(F)
    if isinstance(w, NotEquivalence):
        raise WitnessInvalid(f"{F.label} is not an equivalence: {w.reason}")
    if not w.has_retraction:
        raise WitnessInvalid(f"{F.label} has no retraction")
    # injective is the preferred normalization, so the stored unit is identity
    return w
