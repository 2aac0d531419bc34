"""Axiom checking for a finite fragment of categories with a chosen class
of maps, and the split-mono/split-epi lifting search in finite sets and in
arrows of finite sets.

``check_fragment`` replays, constructively and with witnesses, the axioms a
class of isofibrations must satisfy: hom-wise iso-lifting, existence of the
limits (products, powers, pullbacks along chosen maps, finite towers), and
the stability clauses.  Powers can only ever be *witnessed on the
fragment*, never proved for all categories; the report says so.  The
fragment's maps are listed once: the chosen maps are the first of the list
in the class, and the cospans pair each with the maps of the list into its
target.  Each pullback and tower limit is built once, for its limit entry
and its stability entry both.

``nip_square_filler`` decides, up to a size bound, whether every square of
a split monomorphism against a split epimorphism has a diagonal filler:
true in finite sets, false in arrows of finite sets, where the smallest
counterexample is returned.  One sweep decides both: on every arrow
(x0, x1, u) up to the bound, or on the arrows x → 1.  These span a full
subcategory: a hom (x, 1) → (y, 1) is (f0, id) for any f0, so its homs,
composites, split maps, squares and fillers are those of finite sets.

Each pair (i, p) is decided at once from the fibres of u_B, where u_X is
the map of an arrow X (see ``_decide_pair``).  A filler h : B → C is forced
on the images of i0 and i1, and chosen independently on each fibre
u_B⁻¹(y) elsewhere.  So every square of the pair fills iff, for every top
and every a whose fibre u_B⁻¹(i1 a) has points outside the image of i0,
the c = top1(a) is full: p0 maps u_C⁻¹(c) onto u_D⁻¹(p1 c).  Fibres
outside the image of i1 always fill through a section of p, and a product
over the fibres counts the squares.  Over 1, i1 = id, so a pair fills iff
p0 is onto whenever B0 has points outside the image of i0, and every split
epi is onto.  A pair of sets has c0^a0 · d0^(b0 - a0) squares, and as every
pair fills, ``squares_checked`` sums them in any sweep order.

The verdict reads only the mono's source and fibre summary and the epi's
source, fibre summary and the fibre sizes of its target as a multiset.  An
isomorphism of targets keeps all of these, and one of sources carries the
split maps out of the source onto those out of an isomorphic one with the
same verdicts and counts.  So the split maps are counted once per pair of
isomorphism classes of source and target, between the classes' first
objects, and filed as runs: a run is a fibre summary with a level-1 map
that carries it, standing for the maps of its bucket between the same
classes that share it, and their number.
Each pass of the sweep (one combined size, one mono size) decides each
distinct (source, mono summary) once against the epi runs and weighs each
count by the runs' multiplicities (``_decide_pass``).  A pass that some
run refuses is walked one object pair at a time, in sweep order, each
pair decided by the runs of its classes; only the first pair with a
refused mono, and then the first with an epi that refuses it, are listed
map by map (``_walk_pass``).  The refused pair's squares are replayed one
by one to find the first unfilled square.  ``squares_checked`` counts the
squares of every pair decided, and those replayed of the refused pair.

The runs are counted from fibre sizes, not listed.  A hom i : A → B with
i0 and i1 injective is a split mono iff every a whose fibre u_B⁻¹(i1 a)
is nonempty has u_A⁻¹(a) nonempty, and A0 is nonempty if some fibre
outside the image of i1 is: a test on i1 alone, and the i0 over a split
i1 number Π_a P(|u_B⁻¹(i1 a)|, |u_A⁻¹ a|), where P(n, k) counts the
injections of a k-set into an n-set.  A hom p : C → D with p0 and p1
onto is a split epi iff every e ∈ D1 has a full c over it, and over an
onto p1 the p0 with a given set of full c number the product over c of
the maps of u_C⁻¹(c) onto u_D⁻¹(p1 c) where c is full and of the other
maps into it where c is not.  Likewise the homs A → C with level-1 map
t1 number Π_a |u_C⁻¹(t1 a)|^|u_A⁻¹ a|.  The walk lists the split maps of
a refused object pair by the same tests.

The sweep works on integers.  A map a → b is its index in
``_functions(a, b)``, the lexicographic order of image tuples, so f has
index Σ f(x)·b^(a-1-x).  Composition reads ``after(a, b, c)[g][f]``, a table
built on first use for each size triple the sweep touches; the maps g with
g∘f = t come from an extension table built from it, in ascending index
order.  Retractions of i are the extensions of the identity along i, and
sections of p the fibre of p∘- over the identity.  An arrow (x0, x1, u)
holds u as an index and a hom of arrows is a pair of indices.  Only a
counterexample is decoded back to image lists.  The tables belong to one
sweep call and are freed when it returns.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import islice
from itertools import product as iproduct
from math import comb, perm, prod
from operator import getitem

from .core import (
    LEIBNIZ_GENERATORS,
    EnumerationBudgetExceeded,
    FinCat,
    StructureError,
    bounds,
    builtin,
    builtin_functor,
    enumerate_functors,
    identity_functor,
    thin_functor,
)
from .equivalence import EquivalenceWitness
from .funcat import (
    functor_category,
    postcompose_functor,
    product_category,
    product_functor,
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

# Caps on the fragment's quantifiers; the report does not say when one cuts.
FRAGMENT_FUNCTORS_PER_PAIR = 64
CHOSEN_MAPS_CAP = 24
COSPANS_CAP = 18
TOWERS_CAP = 8


@dataclass
class CosmosFragment:
    objects: tuple[FinCat, ...]
    chosen: str = "normal"  # normal | representable | discrete | equivalences
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

    def check(self, description: str, decide) -> None:
        """Add the entry ``decide() -> (passed, witness)`` gives; when the
        budget refuses a power on the way, the entry passes as skipped."""
        try:
            passed, witness = decide()
        except EnumerationBudgetExceeded as exc:
            self.budget_errors += 1
            passed, witness = True, f"skipped: {exc}"
        self.entries.append(ClauseEntry(description, passed, witness))

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
        return lambda f: getattr(f.fibration, chosen)
    if chosen == "equivalences":
        return lambda f: isinstance(f.equivalence, EquivalenceWitness)
    raise StructureError(f"chosen: unknown class of maps: {chosen}")


def _fragment_functors(frag: CosmosFragment):
    for src in frag.objects:
        for dst in frag.objects:
            yield from islice(enumerate_functors(src, dst), FRAGMENT_FUNCTORS_PER_PAIR)


def _verdict(ok: bool, failure: str) -> tuple[bool, str]:
    return ok, "" if ok else failure


def check_fragment(frag: CosmosFragment) -> AxiomReport:
    """Replay the axiom clauses over the fragment; failures carry concrete
    witnesses and budget blowups leave a partial report."""
    pred = _predicate(frag.chosen)
    functors = list(_fragment_functors(frag))
    chosen = list(islice(filter(pred, functors), CHOSEN_MAPS_CAP))
    for k, p in enumerate(chosen):
        p.label = f"{p.source.label}->{p.target.label}@{k}"
    cospans = islice(
        ((p, g) for p in chosen for g in functors if g.target == p.target), COSPANS_CAP
    )

    # (a) postcomposition between hom-categories lifts isomorphisms
    homs = ClauseReport("hom_isofibration")
    for p in chosen:
        for A in frag.objects:
            homs.check(
                f"[{A.label},-] applied to {p.label}",
                lambda: _verdict(
                    postcompose_functor(p, A).fibration.representable, "iso-lifting failed"
                ),
            )

    # (b) limits exist: products, powers, pullbacks along chosen, towers;
    # (c) stability: each map built from chosen ones is chosen.  A limit
    # and the maps out of it are filed in turn, each clause in its order.
    limits = ClauseReport("limits_exist", note="powers witnessed on fragment only")
    stab = ClauseReport("stability")

    def exists(description, build, oracle=None, witness=""):
        """File the limit ``build()`` makes: built, or when an ``oracle``
        builds it another way, isomorphic to that over the legs."""

        def decide():
            if oracle is None:
                build()
                return True, witness
            iso = find_isomorphism_over(oracle().witness, build())
            return _verdict(iso is not None, "oracle mismatch")

        limits.check(description, decide)

    def stays(description, build, failure):
        stab.check(description, lambda: _verdict(pred(build()), failure))

    for A in frag.objects:
        for B in frag.objects:
            exists(f"product {A.label}×{B.label}", partial(product_category, A, B))
            exists(f"power [{A.label},{B.label}]", partial(functor_category, A, B))
    for p, g in cospans:
        name = f"{g.source.label}->{g.target.label}"  # also when g is a chosen map
        pb = cache(partial(pullback_strict, p, g))
        description = f"pullback of {p.label} along {name}"
        if p.fibration.representable:
            exists(description, pb, partial(build_normal_pullback, p, g))
        else:
            exists(description, pb, witness="strict construction")
        stays(
            f"{description} stays chosen",
            lambda: pb().projections[1],
            f"projection out of pb({p.label},{name})",
        )
    for p in chosen[:4]:
        for q in chosen[:4]:
            src, dst = product_category(p.source, q.source), product_category(p.target, q.target)
            stays(
                f"product map {p.label}×{q.label} stays chosen",
                lambda: product_functor(p, q, src, dst),
                "product map fails",
            )
    for base, maps in _towers(chosen):
        tower = cache(partial(strict_tower_limit, base, maps))
        description = f"tower over {base.label} of length {len(maps)}"
        if all(m.fibration.normal for m in maps):
            exists(description, tower, partial(tower_limit, base, maps))
        else:
            exists(description, tower, witness="strict construction")
        stays(
            f"tower projection over {base.label} (length {len(maps)}) stays chosen",
            lambda: tower().projections[0],
            "tower projection fails",
        )
    for name in LEIBNIZ_GENERATORS:
        j = builtin_functor(name)
        for p in chosen[:6]:
            stays(
                f"Leibniz power by {name} of {p.label} stays chosen",
                lambda: leibniz_power(j, p).induced,
                "induced map fails",
            )
    one = builtin("terminal")
    for A in frag.objects:
        stays(
            f"{A.label} → terminal is chosen",
            lambda: thin_functor(A, one, {a: "*" for a in A.objects}, "functor"),
            "terminal map fails",
        )
    for p in chosen[:6]:
        for q in chosen[:6]:
            if p.target == q.source:
                desc = f"composite {q.label}∘{p.label} stays chosen"
                stays(desc, lambda: p.then(q), "composite fails")
    for A in frag.objects:
        stays(f"identity of {A.label} is chosen", lambda: identity_functor(A), "identity fails")

    clauses = {"hom_isofibration": homs, "limits_exist": limits, "stability": stab}
    return AxiomReport(fragment=frag.label, chosen=frag.chosen, clauses=clauses)


def _towers(chosen):
    """Composable chains of chosen maps, extended one level at a time up to
    the tower bound of :func:`~fincat.core.bounds`."""
    bound = bounds().tower
    out: list = []
    frontier = [(m.target, (m,)) for m in chosen if not m.is_identity()][:3] if bound else []
    out.extend(frontier)
    while frontier and len(out) < TOWERS_CAP:
        nxt = []
        for base, maps in frontier:
            if len(maps) >= bound:
                continue
            top = maps[-1].source
            for m in chosen:
                if m.target == top:
                    nxt.append((base, maps + (m,)))
                    break
        out.extend(nxt[: TOWERS_CAP - len(out)])
        frontier = nxt
    return out[:TOWERS_CAP]


# ---------------------------------------------------------------------------
# Finite sets and arrows of finite sets: split mono / split epi lifting


def _functions(a: int, b: int):
    """All functions {0..a-1} → {0..b-1} as image tuples, in lexicographic
    order; the sweeps encode a map by its position in this list."""
    if a == 0:
        return [()]
    return list(iproduct(range(b), repeat=a))


def _identity(n: int) -> int:
    """The index of the identity of {0..n-1}."""
    code = 0
    for x in range(n):
        code = code * n + x
    return code


class _SetMaps:
    """Index-encoded maps between finite sets, composed through tables that
    are built on first use, one per size triple a sweep touches.  Each sweep
    call owns one instance, through its arrow space, so the tables are freed
    when it returns."""

    def __init__(self):
        self._after: dict[tuple, list] = {}
        self._before: dict[tuple, list] = {}
        self._extensions: dict[tuple, list] = {}
        self._retractions: dict[tuple, dict] = {}
        self._sections: dict[tuple, dict] = {}
        self._fullness: dict[tuple, tuple] = {}

    def after(self, a: int, b: int, c: int) -> list:
        """``after(a, b, c)[g][f]`` is g∘f, for f : a → b and g : b → c."""
        table = self._after.get((a, b, c))
        if table is None:
            table = self._after[a, b, c] = []
            for g in _functions(b, c):
                # g∘f for every f, extended one digit of f at a time
                row = [0]
                for _ in range(a):
                    row = [x * c + y for x in row for y in g]
                table.append(row)
        return table

    def before(self, a: int, b: int, c: int) -> list:
        """``before(a, b, c)[f][g]`` is g∘f: the transpose of ``after``."""
        table = self._before.get((a, b, c))
        if table is None:
            rows = self.after(a, b, c)
            table = self._before[a, b, c] = [
                [row[f] for row in rows] for f in range(b**a)
            ]
        return table

    def extensions(self, a: int, b: int, d: int) -> list:
        """``extensions(a, b, d)[f][t]`` lists the g : b → d with g∘f = t in
        ascending order; a t that no g reaches is absent."""
        table = self._extensions.get((a, b, d))
        if table is None:
            table = self._extensions[a, b, d] = [{} for _ in range(b**a)]
            for g, row in enumerate(self.after(a, b, d)):
                for over_f, t in zip(table, row):
                    over_f.setdefault(t, []).append(g)
        return table

    def values(self, f: int, a: int, b: int) -> list:
        """f(0), …, f(a-1): f composed with each point of {0..a-1}."""
        return self.after(1, a, b)[f]

    def retractions(self, a: int, b: int) -> dict:
        """Each i : a → b that has a retraction, in ascending order, with its
        retractions r : b → a (r∘i = id): the extensions of the identity
        along i."""
        out = self._retractions.get((a, b))
        if out is None:
            one = _identity(a)
            out = self._retractions[a, b] = {
                i: over_i[one]
                for i, over_i in enumerate(self.extensions(a, b, a))
                if one in over_i
            }
        return out

    def sections(self, c: int, d: int) -> dict:
        """Each p : c → d that has a section, in ascending order, with its
        sections s : d → c (p∘s = id): the fibre of p∘- over the identity."""
        out = self._sections.get((c, d))
        if out is None:
            one = _identity(d)
            out = self._sections[c, d] = {}
            for p, row in enumerate(self.after(d, c, d)):
                fibre = [s for s, t in enumerate(row) if t == one]
                if fibre:
                    out[p] = fibre
        return out

    def fullness(self, n: int, m: int) -> tuple:
        """(False, the maps of an n-set into an m-set not onto it) and (True,
        those onto it), each where there are any; m!·S(n, m) maps are onto,
        by inclusion and exclusion over the points missed."""
        out = self._fullness.get((n, m))
        if out is None:
            onto = sum((-1) ** k * comb(m, k) * (m - k) ** n for k in range(m + 1))
            counts = ((False, m**n - onto), (True, onto))
            out = self._fullness[n, m] = tuple((f, k) for f, k in counts if k)
        return out


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


def _arrow_objects(size_bound: int):
    """Every arrow (x0, x1, u) with u : x0 → x1 and x0, x1 up to the bound,
    by size and then in tuple order."""
    out = []
    for x0 in range(size_bound + 1):
        for x1 in range(size_bound + 1):
            for u in range(x1**x0):
                out.append((x0, x1, u))
    return sorted(out, key=lambda o: (o[0] + o[1], o))


def _arrow_size(X):
    return X[0] + X[1]


def _decode_arrow(X):
    x0, x1, u = X
    return (x0, x1, _functions(x0, x1)[u])


def _decode_hom(f, X, Y):
    """The level maps of a hom X → Y as image tuples."""
    return (_functions(X[0], Y[0])[f[0]], _functions(X[1], Y[1])[f[1]])


class _ArrowSpace:
    """Homs, split maps and fibre data for a full subcategory of arrows of
    finite sets, given by its objects in sweep order, memoized in the
    space's own tables.  An object is (x0, x1, u) with u : x0 → x1 and a
    hom is a pair (f0, f1) with f1∘u = v∘f0, all maps index-encoded.  The
    split maps between two objects are counted per level-1 map from fibre
    sizes (``mono_counts``, ``epi_counts``) and listed by the same tests
    (``split_monos``, ``split_epis``); no hom back is searched for but the
    retraction and section of a counterexample."""

    def __init__(self, objects):
        self.objects = objects
        self.maps = _SetMaps()
        self._tops: dict[tuple, list] = {}
        self._fibre_sizes: dict[tuple, list] = {}
        self._summaries: dict[tuple, tuple] = {}
        self._outside: dict[tuple, int] = {}
        # Arrows are isomorphic iff they share x0, x1 and the sorted sizes
        # of the nonempty fibres of u; each class is represented by its
        # first member in object order (of all arrows at bound 3, 18 for
        # 60 objects, and at bound 4, 38 for 499; each arrow x → 1 is its
        # own class), and the sweep counts split maps between
        # representatives only.
        self.representatives: dict[tuple, tuple] = {}
        firsts: dict[tuple, tuple] = {}
        for X in self.objects:
            key = (X[0], X[1], tuple(sorted(n for n in self.fibre_sizes(X) if n)))
            self.representatives[X] = firsts.setdefault(key, X)

    def _completions(self, X, Y):
        """f0 ↦ the f1 with (f0, f1) a hom X → Y, in ascending order."""
        x0, x1, u = X
        y0, y1, v = Y
        v_after = self.maps.after(x0, y0, y1)[v]
        over_u = self.maps.extensions(x0, x1, y1)[u]
        return lambda f0: over_u.get(v_after[f0], ())

    def homs(self, X, Y):
        """The homs X → Y in order, built afresh on each call: the sweep
        reads them only in the replay of a refused pair."""
        completions = self._completions(X, Y)
        return [(f0, f1) for f0 in range(Y[0] ** X[0]) for f1 in completions(f0)]

    def _back_sides(self, X, Y):
        """For level maps m0 : y0 → x0 and m1 : y1 → x1 back from Y to X:
        u∘m0 by m0 and m1∘v by m1; (m0, m1) is a hom Y → X iff they agree."""
        x0, x1, u = X
        y0, y1, v = Y
        return self.maps.after(y0, x0, x1)[u], self.maps.before(y0, y1, x1)[v]

    def _first_back(self, f, X, Y, backs):
        """The first hom (m0, m1) : Y → X with m0 in ``backs(x0, y0)[f0]``
        and m1 in ``backs(x1, y1)[f1]``, or None."""
        u_after, before_v = self._back_sides(X, Y)
        for m0 in backs(X[0], Y[0]).get(f[0], ()):
            for m1 in backs(X[1], Y[1]).get(f[1], ()):
                if u_after[m0] == before_v[m1]:
                    return (m0, m1)
        return None

    def retraction(self, i, X, Y):
        """The first commuting retraction pair of i : X → Y, or None."""
        return self._first_back(i, X, Y, self.maps.retractions)

    def split_monos(self, X, Y):
        """The split monos X → Y in hom order, each with its
        ``mono_fibres``: the homs with i0 injective whose i1 passes the
        test of ``mono_counts``."""
        summaries = {i1: summary for i1, summary, _ in self.mono_counts(X, Y)}
        if not summaries:
            return []
        completions = self._completions(X, Y)
        return [
            ((f0, f1), summaries[f1])
            for f0 in self.maps.retractions(X[0], Y[0])
            for f1 in completions(f0)
            if f1 in summaries
        ]

    def section(self, p, X, Y):
        """The first commuting section pair of p : X → Y, or None."""
        return self._first_back(p, X, Y, self.maps.sections)

    def split_epis(self, X, Y):
        """The split epis X → Y in hom order, each with its ``epi_fibres``:
        the homs with p0 and p1 onto and a full c over every e ∈ Y1."""
        if X[0] < Y[0] or X[1] < Y[1]:
            return []
        onto1 = self.maps.sections(X[1], Y[1])
        completions = self._completions(X, Y)
        out = []
        for f0 in self.maps.sections(X[0], Y[0]):
            for f1 in completions(f0):
                if f1 in onto1:
                    summary = self.epi_fibres((f0, f1), X, Y)
                    p1 = self.maps.values(f1, X[1], Y[1])
                    if len({e for e, f in zip(p1, summary[0]) if f}) == Y[1]:
                        out.append(((f0, f1), summary))
        return out

    # Fibre data of the lifting decision.  For i : A → B and p : C → D
    # write N(y) = u_B⁻¹(y) \ im i0, F(e) = u_D⁻¹(e) and S(c) = p0(u_C⁻¹ c),
    # a subset of F(p1 c); c is full when S(c) = F(p1 c).

    def fibre_sizes(self, X):
        """|u⁻¹(y)| for each y ∈ x1."""
        out = self._fibre_sizes.get(X)
        if out is None:
            out = self._fibre_sizes[X] = [0] * X[1]
            for y in self.maps.values(X[2], X[0], X[1]):
                out[y] += 1
        return out

    def top_levels(self, A, C):
        """The distinct level-1 maps t1 of the homs A → C, as value lists,
        each with the number of homs that have it: t0 maps each u_A⁻¹(a)
        into u_C⁻¹(t1 a), so Π_a |u_C⁻¹(t1 a)|^|u_A⁻¹ a|."""
        key = (A, C)
        out = self._tops.get(key)
        if out is None:
            over_a, over_c = self.fibre_sizes(A), self.fibre_sizes(C)
            out = self._tops[key] = []
            for t1 in range(C[1] ** A[1]):
                values = self.maps.values(t1, A[1], C[1])
                n = prod(over_c[c] ** k for c, k in zip(values, over_a))
                if n:
                    out.append((values, n))
        return out

    def mono_counts(self, A, B):
        """Each i1 : A1 → B1 of a split mono A → B, in ascending order, with
        its ``mono_fibres`` and the number of split monos over it.  Given
        i0 and i1 injective, a retraction (r0, r1) is forced on their
        images, and a point y of B0 outside the image of i0 needs r0(y) in
        u_A⁻¹(r1 v y): over y = i1(a) that asks u_A⁻¹(a) nonempty, and
        outside the image of i1, where r1 is free, A0 nonempty.  The i0
        over i1 map each u_A⁻¹(a) injectively into u_B⁻¹(i1 a)."""
        if A[0] > B[0] or A[1] > B[1] or (B[0] and not A[0]):
            return
        over_a, over_b = self.fibre_sizes(A), self.fibre_sizes(B)
        # ways[a][y]: the injections u_A⁻¹(a) → u_B⁻¹(y), or 0 if i1 a = y fails
        ways = [[perm(n, k) if k or not n else 0 for n in over_b] for k in over_a]
        values = self.maps.after(1, A[1], B[1])
        for i1 in self.maps.retractions(A[1], B[1]):
            count = prod(map(getitem, ways, values[i1]))
            if count:
                yield i1, self.mono_fibres(i1, A, B), count

    def epi_counts(self, C, D):
        """Each onto p1 : C1 → D1 and each choice of the full c that puts
        one over every e ∈ D1, with the ``epi_fibres`` it gives and the
        number of split epis over p1 that have it.  The p0 over p1 map
        each u_C⁻¹(c) into F(p1 c), independently, and c is full iff it
        maps onto F(p1 c); every e covered makes p0 onto and, by a section
        chosen through the full c, p split."""
        if C[0] < D[0] or C[1] < D[1]:
            return
        over_c, over_d = self.fibre_sizes(C), self.fibre_sizes(D)
        # ways[c][e]: each fullness c can have over e, with its p0 on u_C⁻¹(c)
        ways = [[self.maps.fullness(n, m) for m in over_d] for n in over_c]
        values = self.maps.after(1, C[1], D[1])
        for p1 in self.maps.sections(C[1], D[1]):
            p1_values = values[p1]
            width = tuple(over_d[e] for e in p1_values)
            for picks in iproduct(*map(getitem, ways, p1_values)):
                full = tuple(f for f, _ in picks)
                if len({e for e, f in zip(p1_values, full) if f}) == D[1]:
                    yield p1, self._shared(full, width), prod(k for _, k in picks)

    def mono_fibres(self, i1, A, B):
        """For a split mono i : A → B with level-1 map i1, the pairs
        (a, |N(i1 a)|) with N(i1 a) nonempty, and the sizes |u_B⁻¹ y| over
        the y outside the image of i1, sorted.  Inside u_B⁻¹(i1 a) the image
        of i0 is i0(u_A⁻¹ a), as i0 and i1 are injective, so |N(i1 a)| =
        |u_B⁻¹(i1 a)| - |u_A⁻¹ a|.  Sorting makes the summary invariant
        under isomorphisms of B."""
        over_a, over_b = self.fibre_sizes(A), self.fibre_sizes(B)
        i1 = self.maps.values(i1, A[1], B[1])
        needs = tuple(
            (a, over_b[y] - over_a[a]) for a, y in enumerate(i1) if over_b[y] > over_a[a]
        )
        hit = set(i1)
        outside = tuple(sorted(over_b[y] for y in range(B[1]) if y not in hit))
        return self._shared(needs, outside)

    def free_points(self, i, A, B):
        """N(y) for each y ∈ B1, as lists of points."""
        hit = set(self.maps.values(i[0], A[0], B[0]))
        out: list[list] = [[] for _ in range(B[1])]
        for x, y in enumerate(self.maps.values(B[2], B[0], B[1])):
            if x not in hit:
                out[y].append(x)
        return out

    def reach(self, p, C, D):
        """S(c) for each c ∈ C1, as a bitmask over D0."""
        c0, c1, u = C
        p0 = self.maps.values(p[0], c0, D[0])
        out = [0] * c1
        for z, c in enumerate(self.maps.values(u, c0, c1)):
            out[c] |= 1 << p0[z]
        return out

    def epi_fibres(self, p, C, D):
        """For p : C → D, whether each c ∈ C1 is full, and |F(p1 c)|."""
        sizes = self.fibre_sizes(D)
        width = tuple(sizes[e] for e in self.maps.values(p[1], C[1], D[1]))
        full = tuple(s.bit_count() == n for s, n in zip(self.reach(p, C, D), width))
        return self._shared(full, width)

    def outside_factor(self, D, outside):
        """Π_n Σ_e |F(e)|^n over the n in a mono summary's ``outside``."""
        out = self._outside.get((D, outside))
        if out is None:
            sizes = self.fibre_sizes(D)
            out = self._outside[D, outside] = prod(sum(k**n for k in sizes) for n in outside)
        return out

    def _shared(self, *summary) -> tuple:
        """One tuple for all equal summaries."""
        return self._summaries.setdefault(summary, summary)


def _split_monos(space, A, B):
    """The split monos i : A → B in order, each as (A, B, i, its
    ``mono_fibres``)."""
    return [(A, B, i, summary) for i, summary in space.split_monos(A, B)]


def _split_epis(space, C, D):
    """The split epis p : C → D in order, each as (C, D, p, its
    ``epi_fibres``)."""
    return [(C, D, p, summary) for p, summary in space.split_epis(C, D)]


def _runs(S, R, counted, weight) -> list:
    """The runs of S → R from its counted level-1 maps (f1, summary, n):
    for each distinct summary, in first-seen order, [(S, R, f1, summary),
    weight × the sum of the n that share it], f1 the first that has it."""
    runs: dict[tuple, list] = {}
    for f1, summary, n in counted:
        runs.setdefault(summary, [(S, R, f1, summary), 0])[1] += n * weight
    return list(runs.values())


def _split_buckets(space):
    """The runs of split monos and split epis of the space, bucketed by
    combined size.  A run is [(S, R, f1, summary), multiplicity]: S and R
    represent classes of sources and of targets, f1 is the first level-1
    map of a split map S → R with that summary, and the multiplicity
    counts the maps A → B that the run stands for, over every A in the
    class of S and every B in the class of R.

    The maps are counted, not listed: once per pair of classes, between
    their representatives, and per level-1 map from fibre sizes
    (``_ArrowSpace.mono_counts`` and ``epi_counts``).  In arrows at bound
    3 that reads 114 level-1 maps of split monos and 114 choices (p1, full
    c) of split epis, for 70 and 77 runs of 241 and 226 split maps between
    representatives.  An isomorphism φ : R ≅ B carries the split monos
    S → R bijectively onto those S → B by i ↦ φ∘i, and the split epis
    likewise.  It keeps each a's |N(i1 a)|, and each c's fullness and
    |F(p1 c)|, and only permutes the fibres of u_B outside the image of
    i1, which a mono summary lists sorted.  So S → B has the runs of
    S → R, and ``_decide_pair``, which reads the fibres of the epi's
    target only as a multiset, decides a run for every map in it.  An
    isomorphism ψ : S ≅ A carries the split maps out of A bijectively onto
    those out of S by i ↦ i∘ψ.  That re-indexes the summaries by ψ, but
    composing with ψ carries ``top_levels(A, C)`` onto
    ``top_levels(S, C)``, and composing with ψ⁻¹ carries
    ``top_levels(M, A)`` onto ``top_levels(M, S)``, so against every map
    on the other side i∘ψ gets the verdict and the count of i.  The maps
    out of A are never derived from those out of S: the runs are counted
    from S alone, and a run of n maps S → R stands for n × |class of S| ×
    |class of R| maps.  In arrows at bound 3 that counts the maps of 324
    pairs (S, R) for the 3,600 pairs (A, B)."""
    members = Counter(space.representatives.values())
    mono_buckets: dict[int, list] = {}
    epi_buckets: dict[int, list] = {}
    for S, j in members.items():
        for R, k in members.items():
            s = _arrow_size(S) + _arrow_size(R)
            if S[0] <= R[0] and S[1] <= R[1]:
                mono_buckets.setdefault(s, []).extend(_runs(S, R, space.mono_counts(S, R), j * k))
            if S[0] >= R[0] and S[1] >= R[1]:
                epi_buckets.setdefault(s, []).extend(_runs(S, R, space.epi_counts(S, R), j * k))
    return mono_buckets, epi_buckets


def _passes(space, max_size: int):
    """The nonempty passes (mono runs, epi runs) of the sweep, in order:
    combined size ascending and then the monos' size, each pass pairing a
    mono bucket of ``_split_buckets`` with an epi bucket.  A pass is
    decided by its runs (``_decide_pass``); only a pass that some run
    refuses is walked one object pair at a time (``_walk_pass``)."""
    mono_buckets, epi_buckets = _split_buckets(space)
    for total in range(max_size + 1):
        for ms in range(total + 1):
            monos, epis = mono_buckets.get(ms), epi_buckets.get(total - ms)
            if monos and epis:
                yield monos, epis


def _decide_pass(space, monos, epis):
    """Decide one pass run by run: the squares of the mono runs before the
    first that some epi run refuses, and that run's map, or None.
    ``_decide_pair`` reads only the source and the summary of a mono, so
    each distinct (source, mono summary) is decided once against the epi
    runs from their first maps (``_against``); when every epi run fills, a
    mono run of multiplicity m adds m × Σ count × n over the epi runs of
    multiplicity n."""
    squares = 0
    decided: dict[tuple, int | None] = {}
    for mono, m in monos:
        key = (mono[0], mono[3])
        if key not in decided:
            total, refused = _against(space, mono, epis)
            decided[key] = total if refused is None else None
        total = decided[key]
        if total is None:
            return squares, mono
        squares += total * m
    return squares, None


def _against(space, mono, epis):
    """The squares of a mono against the epi runs, each weighed by its
    multiplicity, before the first that refuses it, and that run's map."""
    squares = 0
    for epi, n in epis:
        fills, count = _decide_pair(space, mono, epi)
        if not fills:
            return squares, epi
        squares += count * n
    return squares, None


def _walk(space, runs, split, decide):
    """Walk the object pairs (A, B) of a bucket in sweep order up to the
    first that a run refuses: the squares before that pair's first refused
    map, and the map; or the squares of every pair and None.  ``decide``
    decides a pair, once per pair of classes, from the runs of its
    representatives (S, R), each multiplicity divided by |class of S|·|class
    of R| to count the maps A → B alone.  Only the refused pair's maps are
    listed (``split``) and decided one by one, as runs of one."""
    reps = space.representatives
    members = Counter(reps.values())
    by_target: dict[tuple, dict] = {}
    for f, m in runs:
        S, R = f[0], f[1]
        by_target.setdefault(R, {}).setdefault(S, []).append([f, m // (members[S] * members[R])])
    decided = {(S, R): decide(pair) for R, by in by_target.items() for S, pair in by.items()}
    paired: dict[tuple, list] = {}
    for B in space.objects:
        for S in by_target.get(reps[B], ()):
            paired.setdefault(S, []).append(B)
    squares = 0
    for A in space.objects:
        for B in paired.get(reps[A], ()):
            count, refused = decided[reps[A], reps[B]]
            if refused is not None:
                count, refused = decide([[f, 1] for f in split(space, A, B)])
                return squares + count, refused
            squares += count
    return squares, None


def _walk_pass(space, mono_runs, epi_runs):
    """Walk a pass that some run refuses in sweep order to its first
    refused pair: the squares of the pairs before it, and that pair.  The
    mono half decides each (A, B) against the epi runs, the epi half each
    (C, D) against the refused mono."""
    squares, mono = _walk(
        space, mono_runs, _split_monos, lambda runs: _decide_pass(space, runs, epi_runs)
    )
    if mono is not None:
        count, epi = _walk(space, epi_runs, _split_epis, lambda runs: _against(space, mono, runs))
        if epi is not None:
            return squares + count, (mono, epi)
    raise AssertionError("a pass that a run refuses has a refused pair")


def _sweep(name: str, size_bound: int, objects) -> NipResult:
    """Decide the pairs (i, p) between the objects in ascending combined
    size, each pass by its runs (``_decide_pass``).  Only a pass that some
    run refuses is walked in sweep order (``_walk_pass``), one object pair
    at a time, and the squares of its first refused pair are replayed, so
    the counterexample found is a smallest one in the documented order and
    ``squares_checked`` the squares up to it.  The passes end at 4 × the
    largest object size, as a pair spans four objects."""
    space = _ArrowSpace(objects)
    checked = 0
    max_size = 4 * max(_arrow_size(X) for X in objects)
    for mono_runs, epi_runs in _passes(space, max_size):
        squares, refused = _decide_pass(space, mono_runs, epi_runs)
        if refused is None:
            checked += squares
            continue
        squares, (mono, epi) = _walk_pass(space, mono_runs, epi_runs)
        checked += squares
        squares, top, bottom = _first_unfilled(space, mono, epi)
        checked += squares
        (A, B, i, _), (C, D, p, _) = mono, epi
        return NipResult(
            name,
            size_bound,
            False,
            checked,
            {
                "A": _ser_arrow(_decode_arrow(A)),
                "B": _ser_arrow(_decode_arrow(B)),
                "C": _ser_arrow(_decode_arrow(C)),
                "D": _ser_arrow(_decode_arrow(D)),
                "i": _ser_sq(_decode_hom(i, A, B)),
                "p": _ser_sq(_decode_hom(p, C, D)),
                "top": _ser_sq(_decode_hom(top, A, C)),
                "bottom": _ser_sq(_decode_hom(bottom, B, D)),
                "retraction_of_i": _ser_sq(_decode_hom(space.retraction(i, A, B), B, A)),
                "section_of_p": _ser_sq(_decode_hom(space.section(p, C, D), D, C)),
            },
        )
    return NipResult(name, size_bound, True, checked, None)


def _decide_pair(space, mono, epi) -> tuple[bool, int]:
    """Whether every square of a split mono i : A → B against a split epi
    p : C → D has a filler, and how many squares there are, read off the
    fibres of u_B; ``mono`` and ``epi`` are as ``_split_monos`` and
    ``_split_epis`` give them.

    A filler h is forced on the images of i0 and i1, where it commutes
    already, and chosen fibre by fibre of u_B elsewhere.  Over y = i1(a),
    h1(y) = top1(a) is forced and the bottoms map N(y) into F(p1 top1 a)
    every way there is, so each square fills iff top1(a) is full wherever
    N(y) is nonempty.  Over y outside the image of i1, h1(y) = s1(e) for a
    section s of p and e = bottom1(y) always serves, as S(s1 e) = F(e).
    A bottom is free on each N(y) and on each fibre outside the image of
    i1, so the squares number Σ_top Π_a |F(p1 top1 a)|^|N(i1 a)| times
    Π_y Σ_e |F(e)|^|u_B⁻¹ y| over the y outside the image of i1."""
    A, _, _, (needs, outside) = mono
    C, D, _, (full, width) = epi
    fills = True
    count = 0
    for t1, repeats in space.top_levels(A, C):
        for a, n in needs:
            c = t1[a]
            fills = fills and full[c]
            repeats *= width[c] ** n
        count += repeats
    return fills, count * space.outside_factor(D, outside)


def _first_unfilled(space, mono, epi):
    """Replay the squares of a pair ``_decide_pair`` refused in sweep order,
    tops in hom order and under each the bottoms with bottom∘i = p∘top in
    hom order, up to the first without a filler: the number replayed, and
    that square's top and bottom.  A square fills iff over each y ∈ B1 some
    c that h1(y) may take, top1(a) for y = i1(a) and any c over bottom1(y)
    elsewhere, has bottom0(N(y)) inside S(c)."""
    maps = space.maps
    (A, B, i, _), (C, D, p, _) = mono, epi
    (a0, a1, _), (b0, b1, _), (c0, c1, _), (d0, d1, _) = A, B, C, D
    free = space.free_points(i, A, B)
    forced = {y: a for a, y in enumerate(maps.values(i[1], a1, b1))}
    reach = space.reach(p, C, D)
    p1 = maps.values(p[1], c1, d1)
    over = [[c for c in range(c1) if p1[c] == e] for e in range(d1)]
    i0 = maps.before(a0, b0, d0)[i[0]]
    i1 = maps.before(a1, b1, d1)[i[1]]
    p0_top = maps.after(a0, c0, d0)[p[0]]
    p1_top = maps.after(a1, c1, d1)[p[1]]
    bottoms = space.homs(B, D)
    checked = 0
    for top in space.homs(A, C):
        t1 = maps.values(top[1], a1, c1)
        key = (p0_top[top[0]], p1_top[top[1]])
        for bottom in bottoms:
            if (i0[bottom[0]], i1[bottom[1]]) != key:
                continue
            checked += 1
            v0 = maps.values(bottom[0], b0, d0)
            v1 = maps.values(bottom[1], b1, d1)
            for y, points in enumerate(free):
                image = 0
                for x in points:
                    image |= 1 << v0[x]
                choices = [t1[forced[y]]] if y in forced else over[v1[y]]
                if all(image & ~reach[c] for c in choices):
                    return checked, top, bottom
    raise AssertionError("every square of a refused pair has a filler")


def _ser_arrow(X):
    return {"source_size": X[0], "target_size": X[1], "map": list(X[2])}


def _ser_sq(f):
    return {"component0": list(f[0]), "component1": list(f[1])}


# The largest size bound each space accepts, checked before anything is
# built: the bounds at which the tests compare each sweep with its filtering
# reference.  At bound 4 the arrow space has 499 objects in 38 classes
# against 60 in 18 at bound 3.  Its sweep would count the split maps of
# 1,444 pairs of classes against 324 from fibre sizes (45–62 ms called
# directly, best of 15, on a shared 2-core x86 host), but the reference
# searches those of every pair of objects, 249,001 against 3,600.
NIP_MAX_BOUNDS = {"finset": 4, "finset_arrow": 3}


def nip_square_filler(space: str, size_bound: int) -> NipResult:
    """Exhaustive (split mono, split epi) lifting search up to a size bound.

    ``space`` is ``finset`` or ``finset_arrow``.  Returns AllFill (as a
    result object) or the smallest counterexample in the enumeration order.
    The bound must lie in ``0..NIP_MAX_BOUNDS[space]``.  Both spaces run
    one sweep: ``finset`` on the arrows x → 1, ``finset_arrow`` on every
    arrow up to the bound.
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
        return _sweep(space, size_bound, [(x, 1, 0) for x in range(size_bound + 1)])
    return _sweep(space, size_bound, _arrow_objects(size_bound))
