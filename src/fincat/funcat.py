"""Functor categories (powers), binary products, and the induced maps
between them.

``functor_category(C, D)`` enumerates every functor C → D and every natural
transformation between them, producing a :class:`~fincat.core.TupleCat`
whose objects are named by their image tuples and whose morphisms are
tuples of components.  Binary products are tuple categories too, so every
name maps back to its parts by lookup, never by parsing.  Enumeration is
guarded by an explicit budget: the number of raw candidates is estimated up
front and ``EnumerationBudgetExceeded`` reports both the bound and the
requirement, so blowups are loud rather than slow.
"""
from __future__ import annotations

from .core import (
    EnumerationBudgetExceeded,
    FinCat,
    FinFunctor,
    NatTrans,
    StructureError,
    TupleCat,
    enumerate_functors,
    enumerate_transformations,
)

DEFAULT_BUDGET = 20_000


class FunctorCat(TupleCat):
    """The power D^C: its objects are the functors C → D, whose parts are
    their object images, then their morphism images, and its morphisms the
    natural transformations, each the tuple of its components at the
    objects of C, composed one component at a time."""

    def __init__(self, *args, source_category=None, target_category=None,
                 functors=None, transformations=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.source_category: FinCat = source_category
        self.target_category: FinCat = target_category
        self.functors: dict[str, FinFunctor] = functors or {}
        self.transformations: dict[str, NatTrans] = transformations or {}

    def functor_named(self, name: str) -> FinFunctor:
        return self.functors[name]

    def name_of_functor(self, F: FinFunctor) -> str:
        return self.obj_named(_functor_parts(self.source_category, F))

    def name_of_transformation(self, t: NatTrans) -> str:
        return self.mor_named(
            self.name_of_functor(t.source),
            self.name_of_functor(t.target),
            tuple(t.components[a] for a in self.source_category.objects),
        )


def _functor_parts(C: FinCat, F: FinFunctor) -> tuple[str, ...]:
    return tuple(F.omap[a] for a in C.objects) + tuple(F.mmap[m.name] for m in C.morphisms)


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

    def rec(idx, omap):
        nonlocal total
        if total > budget:
            return
        if idx == C.n_objects:
            prod = 1
            for m in nonid:
                prod *= len(D.hom(omap[m.dom], omap[m.cod]))
                if prod == 0:
                    break
            total += max(prod, 1)
            return
        a = C.objects[idx]
        for x in D.objects:
            omap[a] = x
            rec(idx + 1, omap)
            del omap[a]

    try:
        rec(0, {})
    finally:
        del rec  # a self-referring closure (see core._search)
    return total


_CACHE: dict[tuple[str, str], FunctorCat] = {}


def functor_category(C: FinCat, D: FinCat, budget: int = DEFAULT_BUDGET) -> FunctorCat:
    """The category of functors C → D and natural transformations, with
    vertical composition, labelled ``[C.label,D.label]``.  Results are
    cached by content; a power cached for content-equal categories under
    other labels comes back relabelled."""
    cache_key = (C.digest, D.digest)
    label = f"[{C.label},{D.label}]"
    cached = _CACHE.get(cache_key)
    if cached is not None:
        required = cached._budget_required
        if required > budget:
            raise EnumerationBudgetExceeded(budget, required, f"power {D.label}^{C.label}")
        return cached if cached.label == label else cached.relabel(label)

    required = _estimate_functor_candidates(C, D, budget)
    if required > budget:
        raise EnumerationBudgetExceeded(budget, required, f"power {D.label}^{C.label}")

    functor_list = list(enumerate_functors(C, D))
    names = [_object_name(C, F) for F in functor_list]
    functors = dict(zip(names, functor_list))

    # transformation candidate estimate before enumerating them
    for F in functor_list:
        for G in functor_list:
            prod = 1
            for a in C.objects:
                prod *= len(D.hom(F.ob(a), G.ob(a)))
                if prod == 0:
                    break
            required += max(prod, 1)
            if required > budget:
                raise EnumerationBudgetExceeded(
                    budget, required, f"power {D.label}^{C.label}"
                )

    morphisms = []
    transformations: dict[str, NatTrans] = {}
    for i, (fname, F) in enumerate(zip(names, functor_list)):
        for j, (gname, G) in enumerate(zip(names, functor_list)):
            for t in enumerate_transformations(F, G):
                comps = tuple(t.component(a) for a in C.objects)
                tname = f"[{','.join(comps)}]{i}>{j}"
                morphisms.append((tname, fname, gname, comps))
                transformations[tname] = t

    fc = FunctorCat(
        [D] * C.n_objects,
        [(name, _functor_parts(C, F)) for name, F in functors.items()],
        morphisms,
        label=label,
        source_category=C,
        target_category=D,
        functors=functors,
        transformations=transformations,
    )
    fc._budget_required = required
    _CACHE[cache_key] = fc
    return fc


def evaluation_functor(fc: FunctorCat, at: str) -> FinFunctor:
    """Evaluate a functor category at an object of its source."""
    return fc.projection(fc.source_category.obj_index[at], f"ev_{at}")


def precompose_functor(j: FinFunctor, D: FinCat, budget: int = DEFAULT_BUDGET) -> FinFunctor:
    """Restriction D^Y → D^X induced by j : X → Y."""
    power_y = functor_category(j.target, D, budget)
    power_x = functor_category(j.source, D, budget)
    omap = {
        name: power_x.name_of_functor(j.then(F)) for name, F in power_y.functors.items()
    }
    mmap = {
        name: power_x.name_of_transformation(t.whisker_pre(j))
        for name, t in power_y.transformations.items()
    }
    return FinFunctor(power_y, power_x, omap, mmap, label=f"{D.label}^{j.label}")


def postcompose_functor(p: FinFunctor, X: FinCat, budget: int = DEFAULT_BUDGET) -> FinFunctor:
    """The map A^X → B^X induced by p : A → B."""
    power_a = functor_category(X, p.source, budget)
    power_b = functor_category(X, p.target, budget)
    omap = {
        name: power_b.name_of_functor(F.then(p)) for name, F in power_a.functors.items()
    }
    mmap = {
        name: power_b.name_of_transformation(t.whisker_post(p))
        for name, t in power_a.transformations.items()
    }
    return FinFunctor(power_a, power_b, omap, mmap, label=f"{p.label}^{X.label}")


def functor_into_power(fs: list[FinFunctor], power: FunctorCat) -> FinFunctor:
    """Pair functors X → D into the power D^(discrete n) they define."""
    if not fs:
        raise StructureError("need at least one functor to pair")
    X = fs[0].source
    C = power.source_category
    if not C.is_discrete() or C.n_objects != len(fs):
        raise StructureError("pairing target must be a power by a discrete category")
    D = power.target_category

    def ob_name(x):
        F = FinFunctor(
            C,
            D,
            {c: fs[k].ob(x) for k, c in enumerate(C.objects)},
            {C.id_of(c): D.id_of(fs[k].ob(x)) for k, c in enumerate(C.objects)},
        )
        return power.name_of_functor(F)

    omap = {x: ob_name(x) for x in X.objects}
    mmap = {}
    for m in X.morphisms:
        src = power.functor_named(omap[m.dom])
        dst = power.functor_named(omap[m.cod])
        t = NatTrans(src, dst, {c: fs[k].mor(m.name) for k, c in enumerate(C.objects)})
        mmap[m.name] = power.name_of_transformation(t)
    return FinFunctor(X, power, omap, mmap, label="pairing")


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
    C = power.source_category  # the generic parallel pair 0 ⇉ 1
    D = power.target_category

    def ob_name(x):
        F = FinFunctor(
            C,
            D,
            {"0": h.ob(x), "1": k.ob(x)},
            {
                "id_0": D.id_of(h.ob(x)),
                "id_1": D.id_of(k.ob(x)),
                "a0": t0.component(x),
                "a1": t1.component(x),
            },
        )
        return power.name_of_functor(F)

    omap = {x: ob_name(x) for x in X.objects}
    mmap = {}
    for m in X.morphisms:
        src = power.functor_named(omap[m.dom])
        dst = power.functor_named(omap[m.cod])
        t = NatTrans(src, dst, {"0": h.mor(m.name), "1": k.mor(m.name)})
        mmap[m.name] = power.name_of_transformation(t)
    return FinFunctor(X, power, omap, mmap, label="cell-pairing")


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


def split_pair_name(name: str) -> tuple[str, str]:
    """The two halves of a name assembled as "(left,right)", where each half
    has balanced parentheses and brackets."""
    depth = 0
    for i, ch in enumerate(name):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 1:
            return name[1:i], name[i + 1 : -1]
    raise StructureError(f"not a pair name: {name}")


def product_projections(prod: TupleCat, A: FinCat, B: FinCat) -> tuple[FinFunctor, FinFunctor]:
    """The legs of ``prod = product_category(A, B)`` to A and to B."""
    return prod.projection(0, "proj1"), prod.projection(1, "proj2")


def product_functor(
    F: FinFunctor, G: FinFunctor, prod_src: TupleCat, prod_dst: TupleCat
) -> FinFunctor:
    """F×G : A×B → C×D acting componentwise."""
    p1, p2 = product_projections(prod_src, F.source, G.source)
    return pair_functor(p1.then(F), p2.then(G), prod_dst)


def pair_functor(F: FinFunctor, G: FinFunctor, prod: TupleCat) -> FinFunctor:
    """⟨F, G⟩ : X → A×B for parallel-source F : X → A and G : X → B."""
    if F.source != G.source:
        raise StructureError("pairing needs a common source")
    X = F.source
    omap = {x: prod.obj_named((F.ob(x), G.ob(x))) for x in X.objects}
    mmap = {
        m.name: prod.mor_named(omap[m.dom], omap[m.cod], (F.mor(m.name), G.mor(m.name)))
        for m in X.morphisms
    }
    return FinFunctor(X, prod, omap, mmap, label=f"⟨{F.label},{G.label}⟩")
