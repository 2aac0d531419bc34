"""Limit constructions on finite categories.

Strict pullbacks act as the oracle limit; isocommas, pseudolimits of
arrows, inserters, equifiers, idempotent splittings, cleavage-based
pullbacks and tower limits are all built concretely with deterministic
tuple naming, and each carries a certificate: its one-dimensional
universal property is replayed against a fixed set of cone vertices, the
terminal category and the generic arrow.  The cleavage-based pullback and
the tower limit lift through the normal cleavages they build themselves.
The replay files the apex's objects and morphisms once under their leg
images (and, for objects, their structure-cell components), so the
candidate factorizations of each cone are dictionary lookups.

A certificate is replayed on its first read and cached, so a limit built
only for its apex or projections (the pullback inside a pseudolimit of an
arrow, a tower's stage isocommas) replays nothing.  Every certificate the
program reports is read, and so still replayed: the CLI ``limit *``
envelopes and the acceptance tower criterion.

A pseudolimit of an arrow builds only its pullback eagerly, and its other
parts on first read: a factorization never builds the source's iso-power,
and the iso-power comparison never builds the diagonal or the cells.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice

from .core import (
    BoundExceeded,
    FinCat,
    FinFunctor,
    Morphism,
    NatTrans,
    NotIdempotent,
    StructureError,
    TupleCat,
    builtin,
    bounds,
    builtin_functor,
    cached_property,
    composable_rows,
    enumerate_functors,
    enumerate_lifts,
    enumerate_transformations,
    find_isomorphism,
    identity_functor,
    identity_nat,
)
from .equivalence import EquivalenceWitness
from .fibrations import build_normal_cleavage, lift_iso_2cell
from .funcat import (
    FunctorCat,
    _functor_parts,
    cells_into_power,
    evaluation_functor,
    functor_category,
    functor_into_power,
    precompose_functor,
)


def default_vertices() -> tuple[FinCat, ...]:
    """The terminal category and the generic arrow, the shared builtins."""
    return (builtin("terminal"), builtin("arrow"))


@dataclass
class Certificate:
    """Record of a 1-dimensional universal property replayed over a finite
    set of cone vertices."""

    kind: str
    vertices: tuple[str, ...]
    cones_checked: int
    ok: bool
    failures: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "cones_checked": self.cones_checked,
            "ok": self.ok,
            "failures": list(self.failures),
        }


@dataclass
class LimitWitness:
    """A constructed limit: apex, projections, structure 2-cells, and the
    certificate for its tested universal property.

    ``certify`` replays that property; ``certificate`` runs it on first
    read and keeps the result, so an unread certificate costs nothing."""

    apex: FinCat
    projections: tuple[FinFunctor, ...]
    structure_cells: tuple[NatTrans, ...]
    certify: Callable[[], Certificate] = field(repr=False, compare=False)

    @cached_property
    def certificate(self) -> Certificate:
        return self.certify()


# ---------------------------------------------------------------------------
# Universal-property replay


def _tables(legs, cells=()):
    """Lookup tables whose values at an object / a morphism form its key."""
    return [F.omap for F in legs] + [c.components for c in cells], [F.mmap for F in legs]


def _leg_index(apex: FinCat, legs, cells=()):
    """Index the apex's objects and morphisms by their leg images, each
    list in apex order; an object's key also carries the components of
    ``cells`` at it.  Returns ``choices(X, cone_legs, cone_cells)``: for each
    object and morphism of X, the apex elements lying over its cone images,
    as the ``omap_choices`` / ``mmap_choices`` of a factorization search."""
    obj_tables, mor_tables = _tables(legs, cells)
    objects: dict[tuple, list[str]] = {}
    morphisms: dict[tuple, list[str]] = {}
    for o in apex.objects:
        objects.setdefault(tuple(t[o] for t in obj_tables), []).append(o)
    for m in apex.morphisms:
        morphisms.setdefault(tuple(t[m.name] for t in mor_tables), []).append(m.name)

    def choices(X: FinCat, cone_legs, cone_cells=()):
        obj_tables, mor_tables = _tables(cone_legs, cone_cells)
        omap_choices = {x: objects.get(tuple(t[x] for t in obj_tables), []) for x in X.objects}
        mmap_choices = {
            m.name: morphisms.get(tuple(t[m.name] for t in mor_tables), [])
            for m in X.morphisms
        }
        return omap_choices, mmap_choices

    return choices


def _certify(kind, noun, apex, legs, cells, cones) -> Certificate:
    """Replay the 1-dimensional universal property of (apex, legs, cells):
    every cone ``(cone_legs, cone_cells)`` that ``cones(X)`` yields from a
    test vertex X must factor through the apex exactly once."""
    vertices = default_vertices()
    choices = _leg_index(apex, legs, cells)
    checked, failures = 0, []
    for X in vertices:
        for cone_legs, cone_cells in cones(X):
            checked += 1
            omap_choices, mmap_choices = choices(X, cone_legs, cone_cells)
            hits = len(list(islice(enumerate_functors(X, apex, omap_choices, mmap_choices), 2)))
            if hits != 1:
                failures.append(f"vertex {X.label}: {noun} has {hits} factorizations")
    return Certificate(
        kind=kind,
        vertices=tuple(x.label for x in vertices),
        cones_checked=checked,
        ok=not failures,
        failures=tuple(failures[:5]),
    )


# ---------------------------------------------------------------------------
# Strict pullback


def pullback_strict(F: FinFunctor, G: FinFunctor) -> LimitWitness:
    """The strict pullback of the cospan (F : A→C, G : B→C): the subcategory
    of A×B where both images agree.  B's objects and morphisms are filed by
    their G-images, so each one of A meets only those over its F-image."""
    if F.target != G.target:
        raise StructureError("pullback needs a cospan")
    A, B = F.source, G.source
    objects_over: dict[str, list[str]] = {}
    for b in B.objects:
        objects_over.setdefault(G.ob(b), []).append(b)
    morphisms_over: dict[str, list[Morphism]] = {}
    for n in B.morphisms:
        morphisms_over.setdefault(G.mor(n.name), []).append(n)
    apex = TupleCat(
        (A, B),
        [(f"({a}|{b})", (a, b)) for a in A.objects for b in objects_over.get(F.ob(a), ())],
        [
            (f"({m.name}|{n.name})", f"({m.dom}|{n.dom})", f"({m.cod}|{n.cod})", (m.name, n.name))
            for m in A.morphisms
            for n in morphisms_over.get(F.mor(m.name), ())
        ],
        label=f"pb({F.label},{G.label})",
    )
    p, q = apex.projection(0, "pb_proj1"), apex.projection(1, "pb_proj2")
    cones = _pullback_cones(F, G)
    return LimitWitness(
        apex,
        (p, q),
        (),
        lambda: _certify("pullback", "cone", apex, (p, q), (), cones),
    )


def _pullback_cones(F: FinFunctor, G: FinFunctor):
    """Cones (P, Q) over the cospan (F, G) from a vertex X: P∘F = Q∘G."""

    def cones(X: FinCat):
        for P in enumerate_functors(X, F.source):
            for Q in enumerate_lifts(X, G.source, over=[(G, P.then(F))]):
                yield (P, Q), ()

    return cones


# ---------------------------------------------------------------------------
# Isocomma


def isocomma(F: FinFunctor, G: FinFunctor) -> LimitWitness:
    """The isocomma of (F : A→C, G : B→C): objects (a, b, γ : G b ≅ F a),
    with the invertible structure cell φ : G∘q ⇒ F∘p."""
    if F.target != G.target:
        raise StructureError("isocomma needs a cospan")
    A, B, C = F.source, G.source, F.target
    objects = [
        (f"({a}|{b}|{gamma})", (a, b, gamma))
        for a in A.objects
        for b in B.objects
        for gamma in C.hom(G.ob(b), F.ob(a))
        if C.is_iso(gamma)
    ]
    morphisms = []
    for i, (dname, (a, b, gamma)) in enumerate(objects):
        for j, (cname, (a2, b2, gamma2)) in enumerate(objects):
            for m in A.hom(a, a2):
                fm = F.mor(m)
                for n in B.hom(b, b2):
                    if C.compose(gamma2, G.mor(n)) == C.compose(fm, gamma):
                        morphisms.append((f"({m}|{n})@{i}>{j}", dname, cname, (m, n)))
    apex = TupleCat((A, B), objects, morphisms, label=f"isocomma({F.label},{G.label})")
    p, q = apex.projection(0, "ic_proj1"), apex.projection(1, "ic_proj2")
    phi = NatTrans(
        q.then(G), p.then(F), {o: parts[2] for o, parts in apex.obj_parts.items()}, label="phi"
    )

    def isocones(X: FinCat):
        """Isocones (P, Q, τ : Q∘G ≅ P∘F) from a vertex X."""
        rights = list(enumerate_functors(X, B))
        for P in enumerate_functors(X, A):
            for Q in rights:
                for tau in enumerate_transformations(
                    Q.then(G), P.then(F), invertible_only=True
                ):
                    yield (P, Q), (tau,)

    return LimitWitness(
        apex,
        (p, q),
        (phi,),
        lambda: _certify("isocomma", "isocone", apex, (p, q), (phi,), isocones),
    )


# ---------------------------------------------------------------------------
# Pseudolimit of an arrow


@dataclass
class PseudolimitOfArrow:
    """The pseudolimit of f : A → B, realized as the strict pullback
    ``witness`` of cod : B^I → B along f, where I is the free isomorphism.

    Only f, the target's iso-power B^I and the pullback are built eagerly;
    ``apex``, ``to_source`` (a retract equivalence) and ``power_projection``
    are read off the pullback.  The other parts are built on first read and
    kept: ``to_target``, ``cell`` (the invertible 2-cell to_target ≅
    f∘to_source), ``diagonal`` (the injective-equivalence section of
    ``to_source``), ``diagonal_cell`` (1 ≅ diagonal∘to_source),
    ``source_power`` (A^I, within the budget in force when it is first
    read) and ``power_comparison`` (the induced map out of A^I).
    """

    arrow: FinFunctor
    target_power: FunctorCat
    witness: LimitWitness

    apex = property(lambda self: self.witness.apex)
    to_source = property(lambda self: self.witness.projections[0])
    power_projection = property(lambda self: self.witness.projections[1])

    # an object of the apex is a pair (a, ω) of an object of A and an iso ω of B
    # ending at f a; a morphism of B^I is named by its components at 0 and 1

    @cached_property
    def to_target(self) -> FinFunctor:
        return self.power_projection.then(evaluation_functor(self.target_power, "0"))

    @cached_property
    def cell(self) -> NatTrans:
        iso_at, power_b = self.power_projection.omap, self.target_power
        parts = {o: power_b.mor_image(iso_at[o], "to") for o in self.apex.objects}
        return NatTrans(self.to_target, self.to_source.then(self.arrow), parts, label="lambda")

    @cached_property
    def diagonal(self) -> FinFunctor:
        """a ↦ (a, the identity iso at f a), and m ↦ (m, f m at both ends)."""
        f, A, power_b = self.arrow, self.arrow.source, self.target_power
        iso_at = {a: constant_iso_object(power_b, f.ob(a)) for a in A.objects}
        mor_parts = {}
        for m in A.morphisms:
            fm = f.mor(m.name)
            mor_parts[m.name] = (m.name, power_b.mor_named(iso_at[m.dom], iso_at[m.cod], (fm, fm)))
        return self.apex.functor_from(
            A, {a: (a, iso) for a, iso in iso_at.items()}, mor_parts, "diagonal"
        )

    @cached_property
    def diagonal_cell(self) -> NatTrans:
        """1 ≅ diagonal∘to_source, with components (id_a, [ω, id])."""
        f, L, power_b = self.arrow, self.apex, self.target_power
        u, d, iso_at = self.to_source, self.diagonal, self.power_projection.omap
        parts = {}
        for o in L.objects:
            a, omega = u.omap[o], iso_at[o]
            to_id = (power_b.mor_image(omega, "to"), f.target.id_of(f.ob(a)))
            t = power_b.mor_named(omega, iso_at[d.omap[a]], to_id)
            parts[o] = L.mor_named(o, d.omap[a], (f.source.id_of(a), t))
        return NatTrans(identity_functor(L), u.then(d), parts, label="delta")

    @cached_property
    def source_power(self) -> FunctorCat:
        return functor_category(builtin("free_iso"), self.arrow.source)

    @cached_property
    def power_comparison(self) -> FinFunctor:
        """w : A^I → L, sending an iso of A to (its codomain, its image iso),
        in one pass over A^I.  It reads A^I, then B^I, within the budget in
        force, as the postcomposite f^I does, even after ``source_power``."""
        f, I = self.arrow, builtin("free_iso")
        functor_category(I, f.source)
        power_a, power_b = self.source_power, functor_category(I, f.target)
        n, f_mmap = I.n_objects, f.mmap
        image = {
            o: power_b.obj_named([f.omap[x] for x in parts[:n]] + [f_mmap[x] for x in parts[n:]])
            for o, parts in power_a.obj_parts.items()
        }
        obj_parts = {o: (parts[1], image[o]) for o, parts in power_a.obj_parts.items()}
        mor_parts = {}
        for m in power_a.morphisms:
            t = power_a.mor_parts[m.name]
            f_t = power_b.mor_named(image[m.dom], image[m.cod], [f_mmap[c] for c in t])
            mor_parts[m.name] = (t[1], f_t)
        return self.apex.functor_from(power_a, obj_parts, mor_parts, "w")


def constant_iso_object(power: FunctorCat, b: str) -> str:
    """Name, in a power by the free isomorphism, of the constant functor at
    b (the generator maps to the identity)."""
    C, ident = power.source_category, power.target_category.id_of(b)
    return power.obj_named(
        _functor_parts(C, {a: b for a in C.objects}, {m.name: ident for m in C.morphisms})
    )


def pseudolimit_of_arrow(f: FinFunctor) -> PseudolimitOfArrow:
    power_b = functor_category(builtin("free_iso"), f.target)
    return PseudolimitOfArrow(f, power_b, pullback_strict(f, evaluation_functor(power_b, "1")))


def pseudolimit_injective_witness(pl: PseudolimitOfArrow) -> EquivalenceWitness:
    """Adjoint equivalence for the diagonal: inverse the source projection,
    counit the inverse diagonal cell, and unit an identity."""
    return EquivalenceWitness(
        pl.diagonal, "injective", lambda: (pl.to_source, pl.diagonal_cell.inverse().components)
    )


# ---------------------------------------------------------------------------
# Inserter and equifier


def inserter(f: FinFunctor, g: FinFunctor) -> LimitWitness:
    """Universal object inserting a 2-cell f∘P ⇒ g∘P, built as a pullback of
    the endpoint restriction out of the arrow power."""
    if f.source != g.source or f.target != g.target:
        raise StructureError("inserter needs a parallel pair")
    B = f.target
    j = builtin_functor("discrete_to_arrow")
    restriction = precompose_functor(j, B)
    power2 = functor_category(builtin("two_discrete"), B)
    pairing = functor_into_power([f, g], power2)
    pb = pullback_strict(pairing, restriction)
    apex: TupleCat = pb.apex
    to_a = pb.projections[0]
    power_arrow = functor_category(builtin("arrow"), B)
    arrow_at = pb.projections[1].omap
    cell = NatTrans(
        to_a.then(f),
        to_a.then(g),
        {o: power_arrow.mor_image(arrow_at[o], "a") for o in apex.objects},
        label="insertion",
    )
    return LimitWitness(apex, (to_a,), (cell,), lambda: pb.certificate)


def equifier(t1: NatTrans, t2: NatTrans) -> LimitWitness:
    """Universal object over which two parallel 2-cells agree, built as a
    pullback of the fold restriction out of the arrow power."""
    if t1.source != t2.source or t1.target != t2.target:
        raise StructureError("equifier needs parallel 2-cells")
    B = t1.category
    fold = builtin_functor("collapse_parallel")
    restriction = precompose_functor(fold, B)
    power_pp = functor_category(builtin("parallel_pair"), B)
    pairing = cells_into_power([t1, t2], power_pp)
    pb = pullback_strict(pairing, restriction)
    to_a = pb.projections[0]
    return LimitWitness(pb.apex, (to_a,), (), lambda: pb.certificate)


# ---------------------------------------------------------------------------
# Idempotent splitting


@dataclass
class IdempotentSplitting:
    """A splitting idempotent = inclusion ∘ retraction with
    retraction ∘ inclusion the identity of the apex."""

    idempotent: FinFunctor
    apex: FinCat
    retraction: FinFunctor
    inclusion: FinFunctor


def split_idempotent(e: FinFunctor) -> IdempotentSplitting:
    """Split an idempotent endofunctor through its fixed subcategory."""
    if e.source != e.target:
        raise NotIdempotent(f"{e.label} is not an endofunctor")
    C = e.source
    if e.then(e) != e:
        raise NotIdempotent(f"{e.label}∘{e.label} differs from {e.label}")
    objects = [a for a in C.objects if e.ob(a) == a]
    kept = {m.name for m in C.morphisms if e.mor(m.name) == m.name}
    morphisms = [m for m in C.morphisms if m.name in kept]
    identity = {a: C.id_of(a) for a in objects}
    rows = {
        g.name: {f.name: C.compose(g.name, f.name) for f in fs}
        for g, fs in composable_rows(morphisms)
    }
    apex = FinCat(objects, morphisms, identity, label=f"split({e.label})", rows=rows)
    inclusion = FinFunctor(
        apex, C, {a: a for a in objects}, {m: m for m in kept}, label="inclusion"
    )
    retraction = FinFunctor(
        C,
        apex,
        {a: e.ob(a) for a in C.objects},
        {m.name: e.mor(m.name) for m in C.morphisms},
        label="retraction",
    )
    return IdempotentSplitting(e, apex, retraction, inclusion)


# ---------------------------------------------------------------------------
# Pullback along a normal isofibration (isocomma + idempotent splitting)


@dataclass
class NormalPullback:
    """Intermediate data of the cleavage-based pullback: the isocomma, the
    strict comparison (x, ξ), the induced idempotent, its splitting, and the
    resulting limit witness."""

    isocomma: LimitWitness
    comparison: FinFunctor
    comparison_cell: NatTrans
    idempotent: FinFunctor
    splitting: IdempotentSplitting
    witness: LimitWitness


def build_normal_pullback(f: FinFunctor, g: FinFunctor) -> NormalPullback:
    """Pullback of g along the normal isofibration f, computed without
    strict pullbacks: straighten the isocomma through f's normal cleavage
    and split the induced idempotent."""
    cleavage = build_normal_cleavage(f)
    C = f.target
    ic = isocomma(f, g)
    P: TupleCat = ic.apex
    p, q = ic.projections
    phi = ic.structure_cells[0]

    x, xi = lift_iso_2cell(cleavage, p, phi, label="straightened")

    e = P.functor_from(
        P,
        {o: (x.ob(o), b, C.id_of(g.ob(b))) for o, (_, b, _) in P.obj_parts.items()},
        {m: (x.mor(m), n) for m, (_, n) in P.mor_parts.items()},
        "idempotent",
    )

    splitting = split_idempotent(e)
    i = splitting.inclusion
    apex, legs, cones = splitting.apex, (i.then(p), i.then(q)), _pullback_cones(f, g)
    witness = LimitWitness(
        apex, legs, (), lambda: _certify("pullback", "cone", apex, legs, (), cones)
    )
    return NormalPullback(
        isocomma=ic,
        comparison=x,
        comparison_cell=xi,
        idempotent=e,
        splitting=splitting,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Tower limits


@dataclass
class TowerLimit:
    """Finite tower limit built on the tower's pseudolimit: the inductively
    lifted strict cone, the induced idempotent, and its splitting."""

    base: FinCat
    maps: tuple[FinFunctor, ...]
    pseudolimit: FinCat
    projections: tuple[FinFunctor, ...]  # p_n : P → A_n
    structure_cells: dict                # (k + 1, k) -> π^{k+1}_k : p_k ≅ f_k ∘ p_{k+1}
    cone: tuple[FinFunctor, ...]         # q_n : P → A_n, strict over the tower
    cone_cells: tuple[NatTrans, ...]     # α_n : q_n ≅ p_n
    idempotent: FinFunctor
    splitting: IdempotentSplitting
    witness: LimitWitness


def _tower_cats(base: FinCat, maps) -> list[FinCat]:
    cats = [base]
    for k, f in enumerate(maps):
        if f.target != cats[k]:
            raise StructureError(f"tower map {k} does not land in level {k}")
        cats.append(f.source)
    return cats


def strict_tower_limit(base: FinCat, maps) -> LimitWitness:
    """Oracle: the strict tower limit via iterated strict pullbacks."""
    apex: FinCat = base
    projections: list[FinFunctor] = [identity_functor(base)]
    for k, f in enumerate(maps):
        pb = pullback_strict(projections[k], f)
        to_prev = pb.projections[0]
        projections = [to_prev.then(pr) for pr in projections]
        projections.append(pb.projections[1])
        apex = pb.apex
    cert = Certificate(kind="strict-tower", vertices=(), cones_checked=0, ok=True)
    return LimitWitness(apex, tuple(projections), (), lambda: cert)


def tower_limit(base: FinCat, maps) -> TowerLimit:
    """Limit of a finite tower of normal isofibrations, no longer than the
    tower bound of :func:`~fincat.core.bounds`.

    The tower's pseudolimit is realized as an iterated isocomma; a strict
    cone is lifted through the cleavages level by level, the induced
    idempotent with identity structure data is split, and the resulting
    strict cone is certified as a limit against the test vertices.
    """
    maps = tuple(maps)
    bound = bounds().tower
    if len(maps) > bound:
        raise BoundExceeded(f"tower length {len(maps)} exceeds the bound {bound}")
    cats = _tower_cats(base, maps)
    n = len(maps)
    cleavages = tuple(build_normal_cleavage(f) for f in maps)

    # pseudolimit as iterated isocomma
    P: FinCat = base
    stages: list[FinCat] = [base]
    projections: list[FinFunctor] = [identity_functor(base)]
    consecutive: list[NatTrans] = []  # π^{k+1}_k, re-whiskered as stages grow
    for k, f in enumerate(maps):
        ic = isocomma(projections[k], f)
        stage: TupleCat = ic.apex
        to_prev, to_new = ic.projections
        phi = ic.structure_cells[0]
        projections = [to_prev.then(pr) for pr in projections]
        projections.append(to_new)
        consecutive = [c.whisker_pre(to_prev) for c in consecutive]
        consecutive.append(phi.inverse())
        stages.append(stage)
        P = stage

    # Step 1: inductively lift a strict cone (q_k, α_k)
    cone: list[FinFunctor] = [projections[0]]
    cone_cells: list[NatTrans] = [identity_nat(projections[0])]
    for k in range(n):
        beta = cone_cells[k].then(consecutive[k])
        q_next, alpha_next = lift_iso_2cell(
            cleavages[k], projections[k + 1], beta, label=f"q{k + 1}"
        )
        cone.append(q_next)
        cone_cells.append(alpha_next)

    # Step 3: the induced idempotent, sending a pseudo-cone to its strict
    # replacement with identity structure isos, built stage by stage: the map
    # into stage k has as parts the map into stage k − 1, q_k and the
    # identity at q_{k−1} (with no stages it is q_0, the identity)
    e = cone[0]
    for k in range(1, n + 1):
        q, below = cone[k], cats[k - 1]
        e = stages[k].functor_from(
            P,
            {z: (e.omap[z], q.omap[z], below.id_of(cone[k - 1].omap[z])) for z in P.objects},
            {m: (e.mmap[m], q.mmap[m]) for m in e.mmap},
            "tower_idempotent",
        )

    # Step 4: split; the split cone is strict over the whole tower
    splitting = split_idempotent(e)
    i = splitting.inclusion
    limit_projs = tuple(i.then(pn) for pn in projections)

    # Step 5: factorization and uniqueness against the test vertices,
    # replayed when the certificate is read
    def certify() -> Certificate:
        strict = strict_tower_limit(base, maps)

        def strict_cones(X: FinCat):
            """Strict cones S∘pr from a vertex X, one per S : X → strict limit."""
            for S in enumerate_functors(X, strict.apex):
                yield [S.then(pr) for pr in strict.projections], ()

        return _certify("tower", "strict cone", splitting.apex, limit_projs, (), strict_cones)

    witness = LimitWitness(splitting.apex, limit_projs, (), certify)
    return TowerLimit(
        base=base,
        maps=maps,
        pseudolimit=P,
        projections=tuple(projections),
        structure_cells={(k + 1, k): cell for k, cell in enumerate(consecutive)},
        cone=tuple(cone),
        cone_cells=tuple(cone_cells),
        idempotent=e,
        splitting=splitting,
        witness=witness,
    )


def tower_alignment_check(tl: TowerLimit) -> bool:
    """For every object of the pseudolimit (a cone from the terminal
    category): the lifted-cone cells are all identities exactly when the
    structure cells are all identities.  A morphism's alignment is that of
    its endpoints, so objects are all there is to check.  The consecutive
    cells π^{k+1}_k decide every π^m_n: each composite is a vertical
    composite of whiskered consecutive cells, so it is an identity at z
    whenever they all are."""
    P = tl.pseudolimit
    cats = [tl.base] + [f.source for f in tl.maps]
    for z in P.objects:
        alphas_id = all(
            cats[k].is_identity(tl.cone_cells[k].component(z))
            for k in range(len(cats))
        )
        pis_id = all(
            cats[n].is_identity(cell.component(z))
            for (_, n), cell in tl.structure_cells.items()
        )
        if alphas_id != pis_id:
            return False
    return True


# ---------------------------------------------------------------------------
# Isomorphism over shared projections


def find_isomorphism_over(w1: LimitWitness, w2: LimitWitness) -> FinFunctor | None:
    """An isomorphism of apexes commuting with all projections."""
    if len(w1.projections) != len(w2.projections):
        return None
    choices = _leg_index(w2.apex, w2.projections)
    return find_isomorphism(w1.apex, w2.apex, *choices(w1.apex, w1.projections))
