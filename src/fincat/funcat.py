"""Functor categories (powers), binary products, and the induced maps
between them.

``functor_category(C, D)`` enumerates every functor C → D and every natural
transformation between them, producing a :class:`~fincat.core.TupleCat`
whose objects are named by their image tuples and whose morphisms are
tuples of components.  A power keeps only these names and parts, and
never builds the functor an object stands for.  Every map into a power or
a product (restriction, postcomposition, pairing) is given by its images'
parts, and :meth:`~fincat.core.TupleCat.functor_from` looks up their names.
Binary products are tuple categories too, so every name maps back to its
parts by lookup, never by parsing.  Enumeration is guarded by the budget
of the innermost bounds scope (``core.bounded``): the number of raw
candidates is counted up front (the object and morphism images of the
functors, then for each ordered pair of functors the product of its
component homs), and ``EnumerationBudgetExceeded``
reports both the bound and the requirement, so blowups are loud rather
than slow.  The transformations of a pair are the tuples of that counted
product that pass C's naturality squares, so the candidates checked are
the ones the budget counted.  The iso-power D^I, with I the free
isomorphism, is listed in closed form from D's isomorphisms instead, in the
same order and under the same count.  Powers are cached by ``(C, D)``
themselves, so a build serializes neither category.
"""
from __future__ import annotations

import math
from itertools import product

from .core import (
    EnumerationBudgetExceeded,
    FinCat,
    FinFunctor,
    NatTrans,
    StructureError,
    TupleCat,
    _natural_parts,
    bounds,
    builtin,
    cached_property,
    enumerate_functors,
)


class FunctorCat(TupleCat):
    """The power D^C: its objects are the functors C → D, whose parts are
    their object images, then their morphism images, and its morphisms the
    natural transformations, each the tuple of its components at the
    objects of C, composed one component at a time.  Only this module
    reads that layout: ``obj_parts`` holds an object's images of the
    objects of C first, and :meth:`mor_image` reads one morphism image."""

    def __init__(self, *args, source_category=None, target_category=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.source_category: FinCat = source_category
        self.target_category: FinCat = target_category

    @cached_property
    def _mor_slot(self) -> dict[str, int]:
        """Where the image of each morphism of C sits in an object's parts."""
        C = self.source_category
        return {m.name: C.n_objects + k for k, m in enumerate(C.morphisms)}

    def mor_image(self, name: str, m: str) -> str:
        """The image of the morphism m of C under the functor named ``name``."""
        return self.obj_parts[name][self._mor_slot[m]]


def _functor_parts(C: FinCat, omap, mmap) -> tuple[str, ...]:
    return tuple(omap[a] for a in C.objects) + tuple(mmap[m.name] for m in C.morphisms)


def _object_name(C: FinCat, F: FinFunctor) -> str:
    objs = ",".join(F.ob(a) for a in C.objects)
    nonid = [m.name for m in C.morphisms if not C.is_identity(m.name)]
    if nonid:
        return f"({objs};{','.join(F.mor(m) for m in nonid)})"
    return f"({objs})"


def _estimate_functor_candidates(C: FinCat, D: FinCat, budget: int) -> int:
    omap_space = D.n_objects ** C.n_objects if C.n_objects else 1
    if omap_space > budget:
        return omap_space
    nonid = [m for m in C.morphisms if not C.is_identity(m.name)]
    total = 0
    for images in product(D.objects, repeat=C.n_objects):
        omap = dict(zip(C.objects, images))
        prod = 1
        for m in nonid:
            prod *= len(D.hom(omap[m.dom], omap[m.cod]))
            if prod == 0:
                break
        total += max(prod, 1)
        if total > budget:
            break
    return total


_CACHE: dict[tuple[FinCat, FinCat], FunctorCat] = {}


def functor_category(C: FinCat, D: FinCat) -> FunctorCat:
    """The category of functors C → D and natural transformations, with
    vertical composition, labelled ``[C.label,D.label]``, within the budget
    of :func:`~fincat.core.bounds`.  Results are cached by content, keyed by
    ``(C, D)`` themselves (categories hash by their names and compare by
    their tables); a power cached for content-equal categories under other
    labels comes back relabelled.  The iso-power D^I, with I the free
    isomorphism, is built from D's isomorphisms (:func:`_iso_power`); every
    other power runs the functor search."""
    budget = bounds().budget
    cache_key = (C, D)
    label = f"[{C.label},{D.label}]"
    # a cached power that the budget refuses is counted afresh, so the
    # refusal names the count at which it first passes the budget, as on
    # a first build, not the power's whole count
    cached = _CACHE.get(cache_key)
    if cached is not None and cached._budget_required <= budget:
        return cached if cached.label == label else cached.relabel(label)

    what = f"power {D.label}^{C.label}"
    required = _estimate_functor_candidates(C, D, budget)
    if required > budget:
        raise EnumerationBudgetExceeded(budget, required, what)
    build = _iso_power if C == builtin("free_iso") else _power
    names, parts, morphisms, required = build(C, D, required, budget, what)

    fc = FunctorCat(
        [D] * C.n_objects,
        list(zip(names, parts)),
        morphisms,
        label=label,
        source_category=C,
        target_category=D,
    )
    fc._budget_required = required
    _CACHE[cache_key] = fc
    return fc


def _power(C: FinCat, D: FinCat, required: int, budget: int, what: str):
    """The objects and morphisms of D^C by the functor search, and the
    candidates counted, starting from ``required``."""
    functor_list = list(enumerate_functors(C, D))
    names = [_object_name(C, F) for F in functor_list]
    parts = [_functor_parts(C, F.omap, F.mmap) for F in functor_list]
    n = C.n_objects

    # one pass over the ordered pairs: count each pair's candidate product
    # against the budget and keep the pairs with no empty component hom
    kept = []
    for i, F in enumerate(parts):
        for j, G in enumerate(parts):
            homs = [D.hom(x, y) for x, y in zip(F[:n], G[:n])]
            candidates = math.prod(map(len, homs))
            required += max(candidates, 1)
            if required > budget:
                raise EnumerationBudgetExceeded(budget, required, what)
            if candidates:
                kept.append((i, j, homs))

    # each pair's candidates are its product of homs, filtered by the
    # naturality square of every non-identity m : a → b, filed by the
    # indices of a and b and the slot of m's image in a functor's parts
    at = C.obj_index
    squares = [
        (at[m.dom], at[m.cod], n + k)
        for k, m in enumerate(C.morphisms)
        if not C.is_identity(m.name)
    ]
    rows = D.rows if squares and kept else None
    morphisms = []
    for i, j, homs in kept:
        F, G = parts[i], parts[j]
        natural = _natural_parts(rows, homs, [(d, e, rows[G[s]], F[s]) for d, e, s in squares])
        for comps in natural:
            morphisms.append((f"[{','.join(comps)}]{i}>{j}", names[i], names[j], comps))
    return names, parts, morphisms, required


def _iso_power(C: FinCat, D: FinCat, required: int, budget: int, what: str):
    """:func:`_power` for C the free isomorphism 0 ⇄ 1 (to, fro), in closed
    form and in the search's order.

    A functor is an isomorphism ``to : x0 → x1`` of D with ``fro`` its
    inverse, listed by x0, then x1, in D's object order, then ``to`` in hom
    order.  A transformation F ⇒ G is its component t0 : F0 → G0 with
    t1 = G.to∘t0∘F.fro, which naturality at ``to`` forces (and at ``fro``
    then holds); so each t0 of hom(F0, G0) gives one, in hom order.  Each
    pair is counted against the budget as :func:`_power` counts it, by the
    product of its two component homs."""
    index = D.obj_index
    # stable, so the isomorphisms between two objects keep their hom order
    isos = sorted(D.isos, key=lambda m: (index[D.dom(m)], index[D.cod(m)]))
    parts, names = [], []
    for to in isos:
        x0, x1, fro = D.dom(to), D.cod(to), D.inverse(to)
        parts.append((x0, x1, D.id_of(x0), D.id_of(x1), to, fro))
        names.append(f"({x0},{x1};{to},{fro})")

    rows = D.rows
    morphisms = []
    for i, (f0, f1, _, _, _, f_fro) in enumerate(parts):
        for j, (g0, g1, _, _, g_to, _) in enumerate(parts):
            hom0 = D.hom(f0, g0)
            required += max(len(hom0) * len(D.hom(f1, g1)), 1)
            if required > budget:
                raise EnumerationBudgetExceeded(budget, required, what)
            for t0 in hom0:
                t1 = rows[g_to][rows[t0][f_fro]]
                morphisms.append((f"[{t0},{t1}]{i}>{j}", names[i], names[j], (t0, t1)))
    return names, parts, morphisms, required


def evaluation_functor(fc: FunctorCat, at: str) -> FinFunctor:
    """Evaluate a functor category at an object of its source."""
    return fc.projection(fc.source_category.obj_index[at], f"ev_{at}")


def precompose_functor(j: FinFunctor, D: FinCat) -> FinFunctor:
    """Restriction D^Y → D^X induced by j : X → Y: the parts of F∘j, and the
    components of t·j, are F's parts and t's components gathered at j's
    images."""
    X, Y = j.source, j.target
    power_y, power_x = functor_category(Y, D), functor_category(X, D)
    at_objects = [Y.obj_index[j.ob(x)] for x in X.objects]
    at_parts = at_objects + [power_y._mor_slot[j.mor(m.name)] for m in X.morphisms]
    return power_x.functor_from(
        power_y,
        {name: [parts[k] for k in at_parts] for name, parts in power_y.obj_parts.items()},
        {name: [parts[k] for k in at_objects] for name, parts in power_y.mor_parts.items()},
        f"{D.label}^{j.label}",
    )


def postcompose_functor(p: FinFunctor, X: FinCat) -> FinFunctor:
    """The map A^X → B^X induced by p : A → B: p's object map on the object
    parts, its morphism map on the morphism parts and on each component."""
    power_a = functor_category(X, p.source)
    power_b = functor_category(X, p.target)
    n, p_omap, p_mmap = X.n_objects, p.omap, p.mmap
    return power_b.functor_from(
        power_a,
        {
            name: [p_omap[x] for x in parts[:n]] + [p_mmap[x] for x in parts[n:]]
            for name, parts in power_a.obj_parts.items()
        },
        {name: [p_mmap[c] for c in parts] for name, parts in power_a.mor_parts.items()},
        f"{p.label}^{X.label}",
    )


def functor_into_power(fs: list[FinFunctor], power: FunctorCat) -> FinFunctor:
    """Pair functors X → D into the power D^(discrete n) they define."""
    if not fs:
        raise StructureError("need at least one functor to pair")
    X = fs[0].source
    C = power.source_category
    if not C.is_discrete() or C.n_objects != len(fs):
        raise StructureError("pairing target must be a power by a discrete category")
    D = power.target_category

    obj_parts = {}
    for x in X.objects:
        images = {c: F.ob(x) for c, F in zip(C.objects, fs)}
        identities = {i: D.id_of(images[c]) for c, i in C.identity.items()}
        obj_parts[x] = _functor_parts(C, images, identities)
    mor_parts = {m.name: [F.mor(m.name) for F in fs] for m in X.morphisms}
    return power.functor_from(X, obj_parts, mor_parts, "pairing")


def cells_into_power(cells: list[NatTrans], power: FunctorCat) -> FinFunctor:
    """Pair parallel 2-cells h ⇒ k into the power by the generic parallel
    pair, sending x to the object (h x ⇉ k x)."""
    if len(cells) != 2:
        raise StructureError("expected exactly two parallel 2-cells")
    t0, t1 = cells
    if t0.source != t1.source or t0.target != t1.target:
        raise StructureError("2-cells must be parallel")
    h, k = t0.source, t0.target
    X = h.source
    C, D = power.source_category, power.target_category  # C is 0 ⇉ 1
    obj_parts = {}
    for x in X.objects:
        hx, kx, a0, a1 = h.ob(x), k.ob(x), t0.component(x), t1.component(x)
        arrows = {"id_0": D.id_of(hx), "id_1": D.id_of(kx), "a0": a0, "a1": a1}
        obj_parts[x] = _functor_parts(C, {"0": hx, "1": kx}, arrows)
    # components at 0 and at 1
    mor_parts = {m.name: (h.mor(m.name), k.mor(m.name)) for m in X.morphisms}
    return power.functor_from(X, obj_parts, mor_parts, "cell-pairing")


# ---------------------------------------------------------------------------
# Binary products


def product_category(A: FinCat, B: FinCat) -> TupleCat:
    """The product category with objects (a,b) and morphisms (m,n)."""
    return TupleCat(
        (A, B),
        [(f"({a},{b})", (a, b)) for a in A.objects for b in B.objects],
        [
            (f"({m.name},{n.name})", f"({m.dom},{n.dom})", f"({m.cod},{n.cod})", (m.name, n.name))
            for m in A.morphisms
            for n in B.morphisms
        ],
        label=f"{A.label}×{B.label}",
    )


def product_projections(prod: TupleCat) -> tuple[FinFunctor, FinFunctor]:
    """The legs of ``prod = product_category(A, B)`` to A and to B."""
    return prod.projection(0, "proj1"), prod.projection(1, "proj2")


def product_functor(
    F: FinFunctor, G: FinFunctor, prod_src: TupleCat, prod_dst: TupleCat
) -> FinFunctor:
    """F×G : A×B → C×D acting componentwise, labelled as the pairing of
    F and G after the projections."""
    return prod_dst.functor_from(
        prod_src,
        {o: (F.ob(a), G.ob(b)) for o, (a, b) in prod_src.obj_parts.items()},
        {m: (F.mor(f), G.mor(g)) for m, (f, g) in prod_src.mor_parts.items()},
        f"⟨{F.label}∘proj1,{G.label}∘proj2⟩",
    )


def pair_functor(F: FinFunctor, G: FinFunctor, prod: TupleCat) -> FinFunctor:
    """⟨F, G⟩ : X → A×B for parallel-source F : X → A and G : X → B."""
    if F.source != G.source:
        raise StructureError("pairing needs a common source")
    X = F.source
    return prod.functor_from(
        X,
        {x: (F.ob(x), G.ob(x)) for x in X.objects},
        {m.name: (F.mor(m.name), G.mor(m.name)) for m in X.morphisms},
        f"⟨{F.label},{G.label}⟩",
    )
