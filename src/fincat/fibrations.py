"""Isofibration classification and cleavages for functors between finite
categories.

A functor p : E → B is classified by four flags:

* representable — every isomorphism out of p(e) lifts to one out of e;
* discrete      — those lifts are unique;
* grothendieck  — every morphism into p(e) has a cartesian lift;
* normal        — a cleavage lifting identities to identities exists.

A functor's ``fibration`` attribute is its report without the
Grothendieck scan, built on first read and kept.

Cleavages are stored objectwise: (object upstairs, isomorphism downstairs
out of its image) ↦ chosen lift.  Lift choices are deterministic: the
identity when the downstairs isomorphism is one, otherwise the first valid
lift in morphism order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    FinFunctor,
    NatTrans,
    NotIsofibration,
    StructureError,
)


@dataclass
class Cleavage:
    """Chosen isomorphism lifts for an isofibration.

    ``lift[(e, b)]`` is an isomorphism of the total category with domain
    ``e`` mapping to the downstairs isomorphism ``b`` (whose domain is the
    image of ``e``).
    """

    fibration: FinFunctor
    lift: dict[tuple[str, str], str]

    def lift_into(self, e: str, beta: str) -> str:
        """Lift of an iso with codomain p(e), as an iso with codomain e."""
        E = self.fibration.source
        B = self.fibration.target
        return E.inverse(self.lift[(e, B.inverse(beta))])


@dataclass
class FibrationReport:
    """Classification flags with concrete failing instances where false."""

    representable: bool
    discrete: bool
    grothendieck: bool
    failures: dict = field(default_factory=dict)

    @property
    def normal(self) -> bool:
        """A normal cleavage exists exactly when every iso lifts (see
        :func:`classify_fibration`)."""
        return self.representable

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "representable_isofibration": self.representable,
            "discrete_isofibration": self.discrete,
            "grothendieck_fibration": self.grothendieck,
            "normal_isofibration": self.normal,
        }

    def to_dict(self) -> dict:
        return {"flags": self.flags, "failures": dict(self.failures)}


def _iso_lifts(p: FinFunctor, e: str, beta: str) -> list[str]:
    """Isomorphisms out of e projecting onto the iso beta out of p(e)."""
    E = p.source
    return [m for m in E.morphisms_from(e) if E.is_iso(m) and p.mor(m) == beta]


def _cartesian_lift_exists(p: FinFunctor, e: str, beta: str) -> bool:
    """Whether the morphism beta : c → p(e) admits a cartesian lift at e."""
    E, B = p.source, p.target
    c = B.dom(beta)
    for mu in E.morphisms_into(e):
        if p.mor(mu) != beta:
            continue
        e1 = E.dom(mu)
        cartesian = True
        for nu in E.morphisms_into(e):
            e2 = E.dom(nu)
            for gamma in B.hom(p.ob(e2), c):
                if B.compose(beta, gamma) != p.mor(nu):
                    continue
                solutions = [
                    chi
                    for chi in E.hom(e2, e1)
                    if p.mor(chi) == gamma and E.compose(mu, chi) == nu
                ]
                if len(solutions) != 1:
                    cartesian = False
                    break
            if not cartesian:
                break
        if cartesian:
            return True
    return False


def classify_fibration(p: FinFunctor, grothendieck: bool = True) -> FibrationReport:
    """Classify p by exhaustive lifting scans; failures carry witnesses.

    The cartesian-lift scan is cubic in the morphism count.  Without it the
    flag is reported as None; ``p.fibration`` is that report, classified
    once per functor, and what a caller that reads only the iso-lifting
    flags reads.

    ``normal`` equals ``representable``.  A normal cleavage needs every iso
    lift, so it needs representability.  Conversely, once every iso out of
    p(e) lifts, :func:`build_normal_cleavage` cannot fail: it lifts the
    identity of p(e) to the identity of e, a lift because p preserves
    identities, and every other iso to its first lift, which exists.
    """
    E, B = p.source, p.target
    representable, discrete = True, True
    failures: dict = {}
    for e in E.objects:
        pe = p.ob(e)
        for beta in B.isos:
            if B.dom(beta) != pe:
                continue
            lifts = _iso_lifts(p, e, beta)
            if not lifts:
                representable = False
                if "representable" not in failures:
                    failures["representable"] = (e, beta)
            if len(lifts) != 1:
                discrete = False
                if "discrete" not in failures:
                    failures["discrete"] = (e, beta, len(lifts))
        if not representable and not discrete:
            # keep scanning only while a flag is still undecided
            break
    discrete = discrete and representable

    if grothendieck:
        grothendieck = True
        for e in E.objects:
            pe = p.ob(e)
            for beta in B.morphisms_into(pe):
                if not _cartesian_lift_exists(p, e, beta):
                    grothendieck = False
                    failures["grothendieck"] = (e, beta, B.dom(beta), B.cod(beta))
                    break
            if not grothendieck:
                break
    else:
        grothendieck = None

    if not representable:
        failures.setdefault("normal", failures.get("representable"))

    return FibrationReport(
        representable=representable,
        discrete=discrete,
        grothendieck=grothendieck,
        failures=failures,
    )


def build_normal_cleavage(p: FinFunctor) -> Cleavage:
    """Deterministic normal cleavage: identity lifts for identities, else
    the first valid lift in morphism order.  Raises
    :class:`NotIsofibration` at the first unliftable instance."""
    E, B = p.source, p.target
    table: dict[tuple[str, str], str] = {}
    for e in E.objects:
        pe = p.ob(e)
        for beta in B.isos:
            if B.dom(beta) != pe:
                continue
            if B.is_identity(beta):
                table[(e, beta)] = E.id_of(e)
                continue
            lifts = _iso_lifts(p, e, beta)
            if not lifts:
                raise NotIsofibration(e, beta)
            table[(e, beta)] = lifts[0]
    return Cleavage(fibration=p, lift=table)


def lift_iso_2cell(
    cl: Cleavage, t: FinFunctor, beta: NatTrans, label: str = "lifted"
) -> tuple[FinFunctor, NatTrans]:
    """Lift an invertible 2-cell beta : k ≅ p∘t through the cleavage.

    Returns (h, theta) with theta : h ≅ t, p·theta = beta, and p∘h = k
    exactly.  When the cleavage is normal, identity components of beta lift
    to identity components of theta.  beta is taken as lawful: check a cell
    read from outside with ``validate_transformation(beta, invertible=True)``
    first.
    """
    p = cl.fibration
    E = p.source
    X = t.source
    if beta.target != t.then(p):
        raise StructureError("2-cell to lift must land in p∘t")
    theta_parts: dict[str, str] = {}
    omap: dict[str, str] = {}
    for x in X.objects:
        comp = beta.component(x)
        theta_parts[x] = cl.lift_into(t.ob(x), comp)
        omap[x] = E.dom(theta_parts[x])
    mmap: dict[str, str] = {}
    for m in X.morphisms:
        conj = E.compose(
            E.inverse(theta_parts[m.cod]), E.compose(t.mor(m.name), theta_parts[m.dom])
        )
        mmap[m.name] = conj
    h = FinFunctor(X, E, omap, mmap, label=label)
    theta = NatTrans(h, t, theta_parts, label=f"{label}~cell")
    return h, theta
