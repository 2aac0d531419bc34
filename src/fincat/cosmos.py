"""Axiom checking for a finite fragment of categories with a chosen class
of maps, and the split-mono/split-epi lifting search in finite sets and in
arrows of finite sets.

``check_fragment`` replays, constructively and with witnesses, the axioms a
class of isofibrations must satisfy: hom-wise iso-lifting, existence of the
limits (products, powers, pullbacks along chosen maps, finite towers), and
the stability clauses.  Powers can only ever be *witnessed on the
fragment*, never proved for all categories; the report says so.

``nip_square_filler`` decides, up to a size bound, whether every square of
a split monomorphism against a split epimorphism has a diagonal filler:
true in finite sets, false in arrows of finite sets, where the smallest
counterexample is returned.  Only commuting squares are enumerated: the
bottom map is solved from ``bottom∘i = p∘top`` (fixed on the image of i,
free elsewhere), and in arrows a square is filled iff its (top, bottom)
pair lies in the set of (h∘i, p∘h) over the fillers h.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .core import (
    LEIBNIZ_GENERATORS,
    EnumerationBudgetExceeded,
    FinCat,
    StructureError,
    builtin,
    builtin_functor,
    enumerate_functors,
    identity_functor,
    thin_functor,
)
from .equivalence import EquivalenceWitness, classify_equivalence
from .fibrations import classify_fibration
from .funcat import (
    DEFAULT_BUDGET,
    functor_category,
    postcompose_functor,
    product_category,
    product_functor,
    product_projections,
)
from .limits import (
    build_normal_pullback,
    find_isomorphism_over,
    pullback_strict,
    strict_tower_limit,
    tower_limit,
)
from .wfs import leibniz_power

# ---------------------------------------------------------------------------
# Fragment axiom checking


@dataclass
class CosmosFragment:
    objects: tuple[FinCat, ...]
    chosen: str = "normal"  # normal | representable | discrete | equivalences
    power_budget: int = DEFAULT_BUDGET
    tower_bound: int = 4
    label: str = "fragment"


@dataclass
class ClauseEntry:
    description: str
    passed: bool
    witness: str = ""


@dataclass
class ClauseReport:
    name: str
    entries: list[ClauseEntry] = field(default_factory=list)
    note: str = ""
    budget_errors: int = 0

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "note": self.note,
            "budget_errors": self.budget_errors,
            "entries": [
                {"description": e.description, "passed": e.passed, "witness": e.witness}
                for e in self.entries
            ],
        }


@dataclass
class AxiomReport:
    fragment: str
    chosen: str
    clauses: dict[str, ClauseReport]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses.values())

    def to_dict(self) -> dict:
        return {
            "fragment": self.fragment,
            "chosen": self.chosen,
            "passed": self.passed,
            "clauses": {k: v.to_dict() for k, v in self.clauses.items()},
        }


def _predicate(chosen: str):
    if chosen in ("normal", "representable", "discrete"):
        return lambda f: getattr(classify_fibration(f), chosen)
    if chosen == "equivalences":
        return lambda f: isinstance(classify_equivalence(f), EquivalenceWitness)
    raise StructureError(f"unknown class of maps: {chosen}")


def _fragment_functors(frag: CosmosFragment, cap_per_pair: int = 64):
    for src in frag.objects:
        for dst in frag.objects:
            yield from enumerate_functors(src, dst, limit=cap_per_pair)


def _chosen_maps(frag: CosmosFragment, cap: int = 24):
    pred = _predicate(frag.chosen)
    out = []
    for F in _fragment_functors(frag):
        if pred(F):
            F.label = f"{F.source.label}->{F.target.label}@{len(out)}"
            out.append(F)
            if len(out) >= cap:
                return out
    return out


def check_fragment(frag: CosmosFragment) -> AxiomReport:
    """Replay the axiom clauses over the fragment; failures carry concrete
    witnesses and budget blowups leave a partial report."""
    pred = _predicate(frag.chosen)
    chosen = _chosen_maps(frag)
    clauses: dict[str, ClauseReport] = {}

    # (a) postcomposition between hom-categories lifts isomorphisms
    rep = ClauseReport("hom_isofibration")
    for p in chosen:
        for A in frag.objects:
            desc = f"[{A.label},-] applied to {p.label}"
            try:
                hom_map = postcompose_functor(p, A, frag.power_budget)
                flag = classify_fibration(hom_map).representable
                rep.entries.append(
                    ClauseEntry(desc, flag, "" if flag else "iso-lifting failed")
                )
            except EnumerationBudgetExceeded as exc:
                rep.budget_errors += 1
                rep.entries.append(ClauseEntry(desc, True, f"skipped: {exc}"))
    clauses["hom_isofibration"] = rep

    # (b) limits exist: products, powers, pullbacks along chosen, towers
    limits = ClauseReport("limits_exist", note="powers witnessed on fragment only")
    for A in frag.objects:
        for B in frag.objects:
            desc = f"product {A.label}×{B.label}"
            prod = product_category(A, B)
            p1, p2 = product_projections(prod, A, B)
            limits.entries.append(ClauseEntry(desc, True))
            desc = f"power [{A.label},{B.label}]"
            try:
                functor_category(A, B, frag.power_budget)
                limits.entries.append(ClauseEntry(desc, True))
            except EnumerationBudgetExceeded as exc:
                limits.budget_errors += 1
                limits.entries.append(ClauseEntry(desc, True, f"skipped: {exc}"))
    for p, g in _cospans(frag, chosen):
        desc = f"pullback of {p.label} along {g.label}"
        try:
            if classify_fibration(p).representable:
                np = build_normal_pullback(p, g)
                strict = pullback_strict(p, g)
                iso = find_isomorphism_over(np.witness, strict)
                limits.entries.append(
                    ClauseEntry(desc, iso is not None, "" if iso else "oracle mismatch")
                )
            else:
                pullback_strict(p, g)
                limits.entries.append(ClauseEntry(desc, True, "strict construction"))
        except EnumerationBudgetExceeded as exc:
            limits.budget_errors += 1
            limits.entries.append(ClauseEntry(desc, True, f"skipped: {exc}"))
    for base, maps in _towers(frag, chosen):
        desc = f"tower over {base.label} of length {len(maps)}"
        try:
            if all(classify_fibration(m).normal for m in maps):
                tl = tower_limit(base, maps)
                strict = strict_tower_limit(base, maps)
                iso = find_isomorphism_over(tl.witness, strict)
                limits.entries.append(
                    ClauseEntry(desc, iso is not None, "" if iso else "oracle mismatch")
                )
            else:
                strict_tower_limit(base, maps)
                limits.entries.append(ClauseEntry(desc, True, "strict construction"))
        except EnumerationBudgetExceeded as exc:
            limits.budget_errors += 1
            limits.entries.append(ClauseEntry(desc, True, f"skipped: {exc}"))
    clauses["limits_exist"] = limits

    # (c) stability
    stab = ClauseReport("stability")
    for p, g in _cospans(frag, chosen):
        desc = f"pullback of {p.label} along {g.label} stays chosen"
        leg = pullback_strict(p, g).projections[1]
        ok = pred(leg)
        stab.entries.append(
            ClauseEntry(desc, ok, "" if ok else f"projection out of pb({p.label},{g.label})")
        )
    for idx, p in enumerate(chosen[:4]):
        for q in chosen[:4]:
            desc = f"product map {p.label}×{q.label} stays chosen"
            prod_src = product_category(p.source, q.source)
            prod_dst = product_category(p.target, q.target)
            pq = product_functor(p, q, prod_src, prod_dst)
            ok = pred(pq)
            stab.entries.append(ClauseEntry(desc, ok, "" if ok else "product map fails"))
    for base, maps in _towers(frag, chosen):
        if not maps:
            continue
        desc = f"tower projection over {base.label} (length {len(maps)}) stays chosen"
        leg = strict_tower_limit(base, maps).projections[0]
        ok = pred(leg)
        stab.entries.append(ClauseEntry(desc, ok, "" if ok else "tower projection fails"))
    for name in LEIBNIZ_GENERATORS:
        j = builtin_functor(name)
        for p in chosen[:6]:
            desc = f"Leibniz power by {name} of {p.label} stays chosen"
            try:
                res = leibniz_power(j, p, frag.power_budget)
                ok = pred(res.induced)
                stab.entries.append(
                    ClauseEntry(desc, ok, "" if ok else "induced map fails")
                )
            except EnumerationBudgetExceeded as exc:
                stab.budget_errors += 1
                stab.entries.append(ClauseEntry(desc, True, f"skipped: {exc}"))
    one = builtin("terminal")
    for A in frag.objects:
        desc = f"{A.label} → terminal is chosen"
        ok = pred(thin_functor(A, one, {a: "*" for a in A.objects}, "functor"))
        stab.entries.append(ClauseEntry(desc, ok, "" if ok else "terminal map fails"))
    for p in chosen[:6]:
        for q in chosen[:6]:
            if p.target != q.source:
                continue
            desc = f"composite {q.label}∘{p.label} stays chosen"
            ok = pred(p.then(q))
            stab.entries.append(ClauseEntry(desc, ok, "" if ok else "composite fails"))
    for A in frag.objects:
        desc = f"identity of {A.label} is chosen"
        ok = pred(identity_functor(A))
        stab.entries.append(ClauseEntry(desc, ok, "" if ok else "identity fails"))
    clauses["stability"] = stab

    return AxiomReport(fragment=frag.label, chosen=frag.chosen, clauses=clauses)


def _cospans(frag: CosmosFragment, chosen, cap: int = 18):
    out = []
    for p in chosen:
        for g in _fragment_functors(frag):
            if g.target == p.target:
                g.label = g.label if g.label != "functor" else f"{g.source.label}->{g.target.label}"
                out.append((p, g))
                if len(out) >= cap:
                    return out
    return out


def _towers(frag: CosmosFragment, chosen, cap: int = 8):
    """Composable chains of chosen maps, extended one level at a time up to
    the fragment's tower bound."""
    out: list = []
    frontier = [(m.target, (m,)) for m in chosen if not m.is_identity()][:3]
    out.extend(frontier)
    while frontier and len(out) < cap:
        nxt = []
        for base, maps in frontier:
            if len(maps) >= frag.tower_bound:
                continue
            top = maps[-1].source
            for m in chosen:
                if m.target == top:
                    nxt.append((base, maps + (m,)))
                    break
        out.extend(nxt[: cap - len(out)])
        frontier = nxt
    return out[:cap]


# ---------------------------------------------------------------------------
# Finite sets and arrows of finite sets: split mono / split epi lifting


def _functions(a: int, b: int):
    """All functions {0..a-1} → {0..b-1} as image tuples."""
    if a == 0:
        return [()]
    return list(iproduct(range(b), repeat=a))


def _is_injective(f) -> bool:
    return len(set(f)) == len(f)


def _is_surjective(f, cod: int) -> bool:
    return set(f) == set(range(cod))


def _compose(g, f):
    return tuple([g[x] for x in f])


def _extensions(f, t, b: int, d: int):
    """All g : b → d with g∘f = t, in the order of ``_functions(b, d)``.

    g is fixed on the image of f and free elsewhere; there is none when f
    merges two points that t keeps apart.
    """
    g = [None] * b
    for x, y in zip(f, t):
        if g[x] is None:
            g[x] = y
        elif g[x] != y:
            return
    free = [y for y, v in enumerate(g) if v is None]
    if not free:
        yield tuple(g)
        return
    for values in iproduct(range(d), repeat=len(free)):
        for y, v in zip(free, values):
            g[y] = v
        yield tuple(g)


def _split_monos(a: int, b: int):
    """Injective maps with a retraction: any injection with nonempty domain,
    and the empty map only onto the empty set."""
    if a == 0:
        return [()] if b == 0 else []
    return [f for f in _functions(a, b) if _is_injective(f)]


def _split_epis(c: int, d: int):
    return [f for f in _functions(c, d) if _is_surjective(f, d)]


def _finset_filler(i, a, b, p, c, d, top, bottom):
    """Greedy filler for a (split mono, split epi) square in finite sets."""
    h = []
    preimage = {}
    for x, y in enumerate(i):
        preimage[y] = x
    for y in range(b):
        if y in preimage:
            h.append(top[preimage[y]] if a else 0)
        else:
            target = bottom[y]
            pick = next((z for z in range(c) if p[z] == target), None)
            if pick is None:
                return None
            h.append(pick)
    h = tuple(h)
    if _compose(h, i) != tuple(top):
        return None
    if _compose(p, h) != tuple(bottom):
        return None
    return h


@dataclass
class NipResult:
    space: str
    size_bound: int
    all_fill: bool
    squares_checked: int
    counterexample: dict | None

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "size_bound": self.size_bound,
            "all_fill": self.all_fill,
            "squares_checked": self.squares_checked,
            "counterexample": self.counterexample,
        }


def _nip_finset(size_bound: int) -> NipResult:
    checked = 0
    sizes = range(size_bound + 1)
    quads = sorted(
        iproduct(sizes, sizes, sizes, sizes), key=lambda q: (sum(q), q)
    )
    for a, b, c, d in quads:
        monos = _split_monos(a, b)
        epis = _split_epis(c, d)
        if not monos or not epis:
            continue
        tops = _functions(a, c)
        for i in monos:
            for p in epis:
                for top in tops:
                    for bottom in _extensions(i, _compose(p, top), b, d):
                        checked += 1
                        h = _finset_filler(i, a, b, p, c, d, top, bottom)
                        if h is None:
                            # greedy construction failed: fall back to search
                            found = any(
                                _compose(hh, i) == top and _compose(p, hh) == bottom
                                for hh in _functions(b, c)
                            )
                            if not found:
                                return NipResult(
                                    "finset",
                                    size_bound,
                                    False,
                                    checked,
                                    {
                                        "i": list(i), "p": list(p),
                                        "top": list(top), "bottom": list(bottom),
                                        "sizes": [a, b, c, d],
                                    },
                                )
    return NipResult("finset", size_bound, True, checked, None)


def _arrow_objects(size_bound: int):
    """Objects of the arrow space: (x0, x1, u) with u : x0 → x1."""
    out = []
    for x0 in range(size_bound + 1):
        for x1 in range(size_bound + 1):
            for u in _functions(x0, x1):
                out.append((x0, x1, u))
    return sorted(out, key=lambda o: (o[0] + o[1], o))


def _arrow_size(X):
    return X[0] + X[1]


class _ArrowSpace:
    """Memoized hom/split data for arrows of finite sets up to a bound."""

    def __init__(self, size_bound: int):
        self.objects = _arrow_objects(size_bound)
        self._homs: dict[tuple, list] = {}

    def homs(self, X, Y):
        key = (X, Y)
        if key not in self._homs:
            x0, x1, u = X
            y0, y1, v = Y
            self._homs[key] = [
                (f0, f1)
                for f0 in _functions(x0, y0)
                for f1 in _extensions(u, _compose(v, f0), x1, y1)
            ]
        return self._homs[key]

    def _retraction_candidates(self, f, x: int, y: int):
        """Functions r : y → x with r∘f = id, enumerated componentwise."""
        image = {v: k for k, v in enumerate(f)}
        slots = [[image[z]] if z in image else list(range(x)) for z in range(y)]
        if x == 0 and y > 0:
            return
        for pick in iproduct(*slots) if slots else [()]:
            yield tuple(pick)

    def retraction_of(self, i, X, Y):
        """A commuting retraction pair for a levelwise-injective square, or
        None."""
        x0, x1, u = X
        y0, y1, v = Y
        for r0 in self._retraction_candidates(i[0], x0, y0):
            for r1 in self._retraction_candidates(i[1], x1, y1):
                if _compose(u, r0) == _compose(r1, v):
                    return (r0, r1)
        return None

    def split_monos(self, X, Y):
        """Monos with a retraction; componentwise injectivity is forced, so
        only injective squares are examined."""
        x0, x1, _ = X
        y0, y1, _ = Y
        if x0 > y0 or x1 > y1:
            return []
        out = []
        for i in self.homs(X, Y):
            if not (_is_injective(i[0]) and _is_injective(i[1])):
                continue
            if self.retraction_of(i, X, Y) is not None:
                out.append(i)
        return out

    def _section_candidates(self, f, x: int, y: int):
        """Functions s : y → x with f∘s = id."""
        fibers = [[z for z in range(x) if f[z] == w] for w in range(y)]
        if any(not fib for fib in fibers):
            return
        for pick in iproduct(*fibers) if fibers else [()]:
            yield tuple(pick)

    def section_of(self, p, X, Y):
        """A commuting section pair for a levelwise-surjective square, or
        None."""
        x0, x1, u = X
        y0, y1, v = Y
        for s0 in self._section_candidates(p[0], x0, y0):
            for s1 in self._section_candidates(p[1], x1, y1):
                if _compose(u, s0) == _compose(s1, v):
                    return (s0, s1)
        return None

    def split_epis(self, X, Y):
        x0, x1, _ = X
        y0, y1, _ = Y
        if x0 < y0 or x1 < y1:
            return []
        out = []
        for p in self.homs(X, Y):
            if not (_is_surjective(p[0], y0) and _is_surjective(p[1], y1)):
                continue
            if self.section_of(p, X, Y) is not None:
                out.append(p)
        return out


def _arrow_compose(g, f):
    return (_compose(g[0], f[0]), _compose(g[1], f[1]))


def _nip_finset_arrow(size_bound: int) -> NipResult:
    """Search squares in ascending combined size so the first counterexample
    found is a smallest one in the documented order."""
    space = _ArrowSpace(size_bound)
    objects = space.objects
    max_size = 4 * size_bound

    mono_buckets: dict[int, list] = {}
    epi_buckets: dict[int, list] = {}
    for A in objects:
        for B in objects:
            s = _arrow_size(A) + _arrow_size(B)
            for i in space.split_monos(A, B):
                mono_buckets.setdefault(s, []).append((A, B, i))
            for p in space.split_epis(A, B):
                epi_buckets.setdefault(s, []).append((A, B, p))

    checked = 0
    for total in range(0, 2 * max_size + 1):
        for ms in range(0, total + 1):
            monos = mono_buckets.get(ms, ())
            epis = epi_buckets.get(total - ms, ())
            if not monos or not epis:
                continue
            for A, B, i in monos:
                # homs(B, D) filed by bottom∘i, per D, each list in homs order
                bottoms: dict[tuple, dict] = {}
                for C, D, p in epis:
                    index = bottoms.get(D)
                    if index is None:
                        index = bottoms[D] = {}
                        for bottom in space.homs(B, D):
                            index.setdefault(_arrow_compose(bottom, i), []).append(bottom)
                    # the (top, bottom) pairs with a filler, built at the
                    # first square of this (i, p)
                    filled = None
                    for top in space.homs(A, C):
                        for bottom in index.get(_arrow_compose(p, top), ()):
                            checked += 1
                            if filled is None:
                                filled = {
                                    (_arrow_compose(h, i), _arrow_compose(p, h))
                                    for h in space.homs(B, C)
                                }
                            if (top, bottom) not in filled:
                                return NipResult(
                                    "finset_arrow",
                                    size_bound,
                                    False,
                                    checked,
                                    {
                                        "A": _ser_arrow(A), "B": _ser_arrow(B),
                                        "C": _ser_arrow(C), "D": _ser_arrow(D),
                                        "i": _ser_sq(i), "p": _ser_sq(p),
                                        "top": _ser_sq(top),
                                        "bottom": _ser_sq(bottom),
                                        "retraction_of_i": _ser_sq(
                                            space.retraction_of(i, A, B)
                                        ),
                                        "section_of_p": _ser_sq(
                                            space.section_of(p, C, D)
                                        ),
                                    },
                                )
    return NipResult("finset_arrow", size_bound, True, checked, None)


def _ser_arrow(X):
    return {"source_size": X[0], "target_size": X[1], "map": list(X[2])}


def _ser_sq(f):
    return {"component0": list(f[0]), "component1": list(f[1])}


# The largest size bound each space accepts, checked before anything is
# built.  At bound 4 the arrow space has 499 objects against 60 at bound 3,
# and 249,001 object pairs to set up against 3,600: far beyond an
# interactive run.
NIP_MAX_BOUNDS = {"finset": 4, "finset_arrow": 3}


def nip_square_filler(space: str, size_bound: int) -> NipResult:
    """Exhaustive (split mono, split epi) lifting search up to a size bound.

    ``space`` is ``finset`` or ``finset_arrow``.  Returns AllFill (as a
    result object) or the smallest counterexample in the enumeration order.
    The bound must lie in ``0..NIP_MAX_BOUNDS[space]``.
    """
    if size_bound < 0:
        raise StructureError(f"size bound {size_bound} is negative")
    if space not in NIP_MAX_BOUNDS:
        raise StructureError(f"unknown space {space!r}")
    if size_bound > NIP_MAX_BOUNDS[space]:
        raise StructureError(
            f"size bound {size_bound} exceeds the maximum {NIP_MAX_BOUNDS[space]}"
        )
    if space == "finset":
        return _nip_finset(size_bound)
    return _nip_finset_arrow(size_bound)
