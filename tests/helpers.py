"""Independent brute-force oracles used to cross-check the library.

The oracles are written directly against the raw tables, with no calls
into the construction code they check.  The certificate references replay a
universal property by filtering the whole apex for every cone, as the
library did before it indexed the apex by leg images; they take their
cones from the enumerators, which are checked against brute force.  The
lifting-sweep references filter every candidate square, as the library did
before it solved the square equation for the bottom map, on maps as image
tuples as it had them before it encoded maps by index, with its tuple-level
split-map selection, retractions, sections and greedy filler.
The filled-set reference decides a pair of a split mono and a split epi
in arrows as the arrow sweep did before it read the pair off its fibres:
it looks every square of the pair up in the set of (h∘i, p∘h) over the
fillers h.  It reads the hom sets of the library's index-encoded arrow
space, which ``test_nip_encoding`` checks against the tuple reference.
The split-pair reference lists the split maps of every object pair, as
the arrow sweep did before it listed them once per isomorphism class of
target.  The pass-walk reference lists every split map of a refused pass
and walks them map by map, as the arrow sweep did before it walked a
refused pass one object pair at a time.
The lifting-problem references build their own choice tables or filter
every candidate functor, as the library did before ``enumerate_lifts``.
The associativity reference scans every composable triple, as
``validate_category`` did before it checked only at a generating set.
The tuple-category reference composes every composable pair from the
factors' tables, as ``TupleCat`` did in its constructor before it composed
on first use; the table reference derives every other corpus and builtin
table from its definition, keyed by (g, f) as ``FinCat`` stored it before
it stored rows.  The key reference dumps ``to_dict()`` as canonical JSON, as
``FinCat.key`` did before it wrote its text directly.
The power-map references build every image in a power as a functor or a
transformation and name it from its parts, as the library did when each
power kept a functor per object and a transformation per morphism.
The isomorphism reference reads each two-sided inverse off the rows of
the table, so the equivalence, transformation and cleavage references
share no inverse search with ``FinCat``.
The full-faithfulness reference compares the images of each hom with the
target hom as sets, as ``equivalence._not_ff`` did before it compared hom
sizes; the comparison reference pairs evaluation at 1 with the postcomposite
f^I, as ``PseudolimitOfArrow.power_comparison`` did before it built w in
one pass.
The transformation-pair references run one transformation search per
ordered pair, as ``functor_category`` did before it filtered each pair's
candidate product by naturality.  The hom-category [X, A] of commuting
squares and postcomposition with a square, which the library reads in
closed form for its two test objects X, are built from every commuting
square and, per ordered pair of squares, every t0 and every t1 whose
whiskers agree.
The search references recurse one frame per position, as the functor,
isomorphism, transformation, simplicial-map and leveled-bijection searches
and the power's size estimate did before they ran on one explicit stack.
The word-class reference closes the words of a simplicial set under its
rewrite relations, as ``classifying_category`` does without returning them,
so that a simplicial map can be pushed along words.
The last two sections hold constructions that only the tests use, built
from the library's own parts, and the checks of built values that the
library dropped once the corpus tests ran them.
"""
import hashlib
import json
from functools import cache, partial
from itertools import islice, product
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from fincat.acceptance import CriterionResult
from fincat.core import (
    Bounds,
    EnumerationBudgetExceeded,
    FinCat,
    FinCatError,
    FinFunctor,
    Morphism,
    NatTrans,
    NotIsofibration,
    StructureError,
    TupleCat,
    WitnessInvalid,
    _hom_profile,
    builtin,
    chaotic_category,
    discrete_category,
    enumerate_functors,
    enumerate_transformations,
    find_isomorphism,
    identity_functor,
    identity_nat,
    terminal_category,
    thin_functor,
    validate_category,
    validate_functor,
)
from fincat.cosmos import (
    NipResult,
    _arrow_size,
    _decide_pair,
    _decide_pass,
    _ser_arrow,
    _ser_sq,
    _split_epis,
    _split_monos,
)
from fincat.corpus import corpus_towers, cyclic_group_category
from fincat.counterexamples import ArrowMorphism
from fincat.equivalence import (
    EquivalenceWitness,
    NotEquivalence,
    classify_equivalence,
    find_sections,
    validate_witness,
)
from fincat.fibrations import Cleavage, _iso_lifts, classify_fibration
from fincat.funcat import (
    FunctorCat,
    _estimate_functor_candidates,
    _object_name,
    evaluation_functor,
    functor_category,
    pair_functor,
    postcompose_functor,
    product_category,
    product_projections,
)
from fincat.limits import LimitWitness, PseudolimitOfArrow, TowerLimit, equifier, inserter
from fincat.nerve import TOP_DIM, RewriteSystem, TruncSSet, classifying_category, rewrite_system


def walking_split_idempotent() -> FinCat:
    """The walking split idempotent: objects A and B, s : A → B and
    r : B → A with r∘s = 1_A, and the idempotent e = s∘r of B; 5
    morphisms.  s and r are one-sided inverses of each other and not
    isomorphisms, and e is an endomorphism that is not invertible, which no
    corpus category has."""
    homs = {"1A": ("A", "A"), "1B": ("B", "B"), "s": ("A", "B"), "r": ("B", "A"), "e": ("B", "B")}
    # (g, f, g∘f) for every composable pair
    comp = [
        ("1A", "1A", "1A"), ("s", "1A", "s"), ("1B", "s", "s"), ("r", "s", "1A"),
        ("e", "s", "s"), ("1A", "r", "r"), ("s", "r", "e"), ("1B", "1B", "1B"),
        ("r", "1B", "r"), ("e", "1B", "e"), ("1B", "e", "e"), ("r", "e", "r"),
        ("e", "e", "e"),
    ]
    cat = validate_category(
        {
            "objects": ["A", "B"],
            "morphisms": [{"name": m, "dom": d, "cod": c} for m, (d, c) in homs.items()],
            "identity": {"A": "1A", "B": "1B"},
            "comp": [{"g": g, "f": f, "gf": gf} for g, f, gf in comp],
        }
    )
    cat.label = "walking_split_idempotent"
    return cat


def _one_object_monoid(elements: Sequence[str], table: dict, label: str) -> FinCat:
    """The monoid on ``elements`` (the first is the unit), with g∘f =
    ``table[g, f]``, as a category with one object *."""
    cat = validate_category(
        {
            "objects": ["*"],
            "morphisms": [{"name": m, "dom": "*", "cod": "*"} for m in elements],
            "identity": {"*": elements[0]},
            "comp": [{"g": g, "f": f, "gf": table[g, f]} for g in elements for f in elements],
        }
    )
    cat.label = label
    return cat


def walking_idempotent() -> FinCat:
    """The walking idempotent: one object, morphisms 1 and e, e∘e = e.  Its
    only isomorphism is 1."""
    table = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return _one_object_monoid(["1", "e"], table, "walking_idempotent")


def transformation_monoid_2() -> FinCat:
    """The full transformation monoid on {0, 1}: one object, morphisms id,
    swap, const0 and const1 composed as maps.  Its isomorphisms are id and
    swap."""
    maps = {"id": (0, 1), "swap": (1, 0), "const0": (0, 0), "const1": (1, 1)}
    named = {images: name for name, images in maps.items()}
    table = {(g, f): named[tuple(maps[g][x] for x in maps[f])] for g in maps for f in maps}
    return _one_object_monoid(list(maps), table, "transformation_monoid_2")


def canonical_key(cat: FinCat) -> str:
    """``cat.to_dict()`` as JSON with sorted keys and no spaces: what
    ``FinCat.key`` must equal byte for byte."""
    return json.dumps(cat.to_dict(), sort_keys=True, separators=(",", ":"))


def scan_associativity(cat: FinCat):
    """Return the first violation (h, g, f, h∘(g∘f), (h∘g)∘f) of
    associativity over every composable triple, or None.  Triples come in
    the order h, then g into dom h, then f into dom g, each in stored order:
    the order in which ``validate_category`` reports the first one."""
    for h in cat.morphisms:
        for g in cat.morphisms:
            if h.dom != g.cod:
                continue
            for f in cat.morphisms:
                if g.dom != f.cod:
                    continue
                left = cat.comp[(h.name, cat.comp[(g.name, f.name)])]
                right = cat.comp[(cat.comp[(h.name, g.name)], f.name)]
                if left != right:
                    return (h.name, g.name, f.name, left, right)
    return None


def relabeled(cat: FinCat, rng) -> FinCat:
    """``cat`` with objects and morphisms renamed at random and the
    morphisms in a shuffled order, as the benchmark writes its inputs."""
    objs = {a: f"x{k}" for a, k in zip(cat.objects, rng.sample(range(cat.n_objects), cat.n_objects))}
    names = {
        m.name: f"m{k}" for m, k in zip(cat.morphisms, rng.sample(range(cat.n_morphisms), cat.n_morphisms))
    }
    objects = list(objs.values())
    morphisms = [(names[m.name], objs[m.dom], objs[m.cod]) for m in cat.morphisms]
    rng.shuffle(objects)
    rng.shuffle(morphisms)
    return FinCat(
        objects,
        morphisms,
        {objs[a]: names[i] for a, i in cat.identity.items()},
        {(names[g], names[f]): names[gf] for (g, f), gf in cat.comp.items()},
        label=f"{cat.label}-relabeled",
    )


def shuffled(cat: FinCat, rng) -> FinCat:
    """``cat`` with its object and morphism lists in a random order."""
    objects = list(cat.objects)
    morphisms = [(m.name, m.dom, m.cod) for m in cat.morphisms]
    rng.shuffle(objects)
    rng.shuffle(morphisms)
    return FinCat(objects, morphisms, dict(cat.identity), dict(cat.comp), label=cat.label)


def componentwise_composites(cat: TupleCat, tables=None) -> dict:
    """The composition table of a tuple category, in its stored order: for
    each g, each f into dom g, g∘f is the morphism dom f → cod g whose parts
    are the factors' composites of the parts.  A factor that is itself a
    tuple category is composed the same way (``tables`` memoizes factors by
    identity); other factors are read from their stored tables."""
    tables = {} if tables is None else tables
    if id(cat) in tables:
        return tables[id(cat)]
    factor_comps = [
        componentwise_composites(X, tables) if isinstance(X, TupleCat) else X.comp
        for X in cat.factors
    ]
    named = {(m.dom, m.cod, cat.mor_parts[m.name]): m.name for m in cat.morphisms}
    into = {}
    for f in cat.morphisms:
        into.setdefault(f.cod, []).append(f)
    comp = {}
    for g in cat.morphisms:
        for f in into.get(g.dom, ()):
            parts = tuple(
                table[a, b]
                for table, a, b in zip(factor_comps, cat.mor_parts[g.name], cat.mor_parts[f.name])
            )
            comp[g.name, f.name] = named[f.dom, g.cod, parts]
    tables[id(cat)] = comp
    return comp


def reference_table(cat: FinCat) -> dict:
    """The composition table ``(g, f) ↦ g∘f`` of a corpus, builtin or tuple
    category, from its definition: a tuple category's by
    :func:`componentwise_composites`; otherwise a composite with an identity
    is the other factor, one in a hom of exactly one morphism is that
    morphism, and in the cyclic group on g0, …, g(n-1), g_i∘g_j is
    g_(i+j mod n)."""
    if isinstance(cat, TupleCat):
        return componentwise_composites(cat)
    identities = set(cat.identity.values())
    table = {}
    for g in cat.morphisms:
        for f in cat.morphisms:
            if g.dom != f.cod:
                continue
            hom = [m.name for m in cat.morphisms if (m.dom, m.cod) == (f.dom, g.cod)]
            if g.name in identities or f.name in identities:
                gf = f.name if g.name in identities else g.name
            elif len(hom) == 1:
                gf = hom[0]
            else:
                gf = f"g{(int(g.name[1:]) + int(f.name[1:])) % cat.n_morphisms}"
            table[g.name, f.name] = gf
    return table


def pair_keyed_dicts(cat: FinCat) -> list[dict]:
    """The dicts held in ``cat``'s attributes, directly or inside dicts,
    lists and tuples, with a composable pair (g, f) of ``cat`` as a key."""
    pairs = set(cat.composable_pairs())
    found, seen, todo = [], set(), list(vars(cat).values())
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, dict):
            if not pairs.isdisjoint(value):
                found.append(value)
            todo.extend(value.values())
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
    return found


def composition_closure(cat: FinCat, generators) -> set[str]:
    """The identities and ``generators`` closed under composition, by a
    direct fixed-point search over the raw table."""
    closed = set(cat.identity.values()) | set(generators)
    todo = list(closed)
    while todo:
        a = todo.pop()
        for b in list(closed):
            for pair in ((a, b), (b, a)):
                c = cat.comp.get(pair)
                if c is not None and c not in closed:
                    closed.add(c)
                    todo.append(c)
    return closed


def brute_force_functors(src: FinCat, dst: FinCat):
    """Enumerate all functors src → dst by unpruned exhaustion."""
    objs = list(src.objects)
    mors = [m for m in src.morphisms]
    found = []
    for images in product(dst.objects, repeat=len(objs)):
        omap = dict(zip(objs, images))
        candidate_lists = []
        for m in mors:
            candidate_lists.append(
                [n.name for n in dst.morphisms if n.dom == omap[m.dom] and n.cod == omap[m.cod]]
            )
        for picks in product(*candidate_lists):
            mmap = {m.name: p for m, p in zip(mors, picks)}
            if any(mmap[src.id_of(a)] != dst.id_of(omap[a]) for a in objs):
                continue
            ok = True
            for g in mors:
                for f in mors:
                    if g.dom != f.cod:
                        continue
                    if mmap[src.comp[(g.name, f.name)]] != dst.comp[(mmap[g.name], mmap[f.name])]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(FinFunctor(src, dst, omap, mmap))
    return found


def is_fully_faithful_bf(F: FinFunctor) -> bool:
    A, B = F.source, F.target
    for a in A.objects:
        for a2 in A.objects:
            images = [F.mmap[m] for m in A.hom(a, a2)]
            if len(set(images)) != len(images):
                return False
            if set(images) != set(B.hom(F.omap[a], F.omap[a2])):
                return False
    return True


def isos_bf(cat: FinCat) -> dict[str, str]:
    """{m: n} for every isomorphism m of ``cat``: n is the morphism of
    hom(cod m, dom m) with n∘m = 1 and m∘n = 1, read off the rows of the
    table (a two-sided inverse is unique)."""
    inverses = {}
    for m in cat.morphisms:
        for n in cat.hom(m.cod, m.dom):
            if (
                cat.rows[n][m.name] == cat.identity[m.dom]
                and cat.rows[m.name][n] == cat.identity[m.cod]
            ):
                inverses[m.name] = n
                break
    return inverses


def is_essentially_surjective_bf(F: FinFunctor) -> bool:
    A, B = F.source, F.target
    isos = isos_bf(B)
    image_classes = set()
    for a in A.objects:
        image_classes.add(F.omap[a])
    for b in B.objects:
        hit = False
        for x in image_classes:
            for m in B.hom(x, b):
                if m in isos:
                    hit = True
                    break
            if hit:
                break
        if not hit:
            return False
    return True


def is_equivalence_bf(F: FinFunctor) -> bool:
    return is_fully_faithful_bf(F) and is_essentially_surjective_bf(F)


def brute_force_nat_transformations(F, G):
    """All natural transformations F ⇒ G by unpruned exhaustion."""
    cat = F.target
    objs = list(F.source.objects)
    candidate_lists = [list(cat.hom(F.omap[a], G.omap[a])) for a in objs]
    out = []
    for picks in product(*candidate_lists):
        parts = dict(zip(objs, picks))
        ok = True
        for m in F.source.morphisms:
            if cat.comp[(G.mmap[m.name], parts[m.dom])] != cat.comp[(parts[m.cod], F.mmap[m.name])]:
                ok = False
                break
        if ok:
            out.append(parts)
    return out


# ---------------------------------------------------------------------------
# Universal-property certificates by scanning the whole apex for every cone
# (the library's code before it indexed the apex by leg images)


def _certificate(kind, vertices, cones, failures):
    from fincat.limits import Certificate

    return Certificate(
        kind=kind,
        vertices=tuple(x.label for x in vertices),
        cones_checked=cones,
        ok=not failures,
        failures=tuple(failures[:5]),
    )


def _factorization_count(apex, vertex, omap_choices, mmap_choices) -> int:
    return len(list(islice(enumerate_functors(vertex, apex, omap_choices, mmap_choices), 2)))


def scan_certify_pullback(apex, p, q, F, G, vertices):
    cones, failures = 0, []
    for X in vertices:
        rights = list(enumerate_functors(X, G.source))
        for P in enumerate_functors(X, F.source):
            PF = P.then(F)
            for Q in rights:
                if PF != Q.then(G):
                    continue
                cones += 1
                omap_choices = {
                    x: [o for o in apex.objects if p.ob(o) == P.ob(x) and q.ob(o) == Q.ob(x)]
                    for x in X.objects
                }
                mmap_choices = {
                    m.name: [
                        n.name
                        for n in apex.morphisms
                        if p.mor(n.name) == P.mor(m.name) and q.mor(n.name) == Q.mor(m.name)
                    ]
                    for m in X.morphisms
                }
                hits = _factorization_count(apex, X, omap_choices, mmap_choices)
                if hits != 1:
                    failures.append(f"vertex {X.label}: cone has {hits} factorizations")
    return _certificate("pullback", vertices, cones, failures)


def scan_certify_isocomma(apex, p, q, phi, F, G, vertices):
    cones, failures = 0, []
    for X in vertices:
        rights = list(enumerate_functors(X, G.source))
        for P in enumerate_functors(X, F.source):
            for Q in rights:
                for tau in enumerate_transformations(
                    Q.then(G), P.then(F), invertible_only=True
                ):
                    cones += 1
                    omap_choices = {
                        x: [
                            o
                            for o in apex.objects
                            if p.ob(o) == P.ob(x)
                            and q.ob(o) == Q.ob(x)
                            and phi.component(o) == tau.component(x)
                        ]
                        for x in X.objects
                    }
                    mmap_choices = {
                        m.name: [
                            n.name
                            for n in apex.morphisms
                            if p.mor(n.name) == P.mor(m.name)
                            and q.mor(n.name) == Q.mor(m.name)
                        ]
                        for m in X.morphisms
                    }
                    hits = _factorization_count(apex, X, omap_choices, mmap_choices)
                    if hits != 1:
                        failures.append(
                            f"vertex {X.label}: isocone has {hits} factorizations"
                        )
    return _certificate("isocomma", vertices, cones, failures)


def scan_certify_tower(apex, limit_projs, strict, vertices):
    """``strict`` is the strict tower limit whose cones are replayed."""
    cones, failures = 0, []
    for X in vertices:
        for S in enumerate_functors(X, strict.apex):
            legs = [S.then(pr) for pr in strict.projections]
            cones += 1
            omap_choices = {
                x: [
                    o
                    for o in apex.objects
                    if all(pr.ob(o) == leg.ob(x) for pr, leg in zip(limit_projs, legs))
                ]
                for x in X.objects
            }
            mmap_choices = {
                m.name: [
                    mm.name
                    for mm in apex.morphisms
                    if all(
                        pr.mor(mm.name) == leg.mor(m.name)
                        for pr, leg in zip(limit_projs, legs)
                    )
                ]
                for m in X.morphisms
            }
            hits = _factorization_count(apex, X, omap_choices, mmap_choices)
            if hits != 1:
                failures.append(f"vertex {X.label}: strict cone has {hits} factorizations")
    return _certificate("tower", vertices, cones, failures)


def scan_isomorphism_over(w1, w2):
    """An isomorphism of apexes commuting with all projections, or None."""
    if len(w1.projections) != len(w2.projections):
        return None
    A, B = w1.apex, w2.apex
    omap_choices = {
        o: [
            o2
            for o2 in B.objects
            if all(p2.ob(o2) == p1.ob(o) for p1, p2 in zip(w1.projections, w2.projections))
        ]
        for o in A.objects
    }
    mmap_choices = {
        m.name: [
            m2.name
            for m2 in B.morphisms
            if all(
                p2.mor(m2.name) == p1.mor(m.name)
                for p1, p2 in zip(w1.projections, w2.projections)
            )
        ]
        for m in A.morphisms
    }
    return find_isomorphism(A, B, omap_choices, mmap_choices)


# ---------------------------------------------------------------------------
# Split-mono / split-epi lifting sweeps by filtering every candidate square
# (the library's code before it solved the square equation for the bottom)


def _maps(a, b):
    return list(product(range(b), repeat=a))


def _after(g, f):
    return tuple(g[x] for x in f)


def arrow_compose(g, f):
    return (_after(g[0], f[0]), _after(g[1], f[1]))


def extensions(f, t, b, d):
    """All g : b → d with g∘f = t, in the order of ``_maps(b, d)``: g is
    fixed on the image of f and free elsewhere."""
    g = [None] * b
    for x, y in zip(f, t):
        if g[x] is None:
            g[x] = y
        elif g[x] != y:
            return
    free = [y for y, v in enumerate(g) if v is None]
    for values in product(range(d), repeat=len(free)):
        for y, v in zip(free, values):
            g[y] = v
        yield tuple(g)


def split_monos(a, b):
    """Injective maps with a retraction: any injection with nonempty domain,
    and the empty map only onto the empty set."""
    if a == 0:
        return [()] if b == 0 else []
    return [f for f in _maps(a, b) if len(set(f)) == len(f)]


def split_epis(c, d):
    return [f for f in _maps(c, d) if set(f) == set(range(d))]


def finset_filler(i, a, b, p, c, d, top, bottom):
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
    if _after(h, i) != tuple(top):
        return None
    if _after(p, h) != tuple(bottom):
        return None
    return h


def filter_arrow_homs(X, Y):
    """Commuting squares X → Y: every (f0, f1) with f1∘u = v∘f0."""
    x0, x1, u = X
    y0, y1, v = Y
    out = []
    for f0 in _maps(x0, y0):
        left = _after(v, f0)
        for f1 in _maps(x1, y1):
            if _after(f1, u) == left:
                out.append((f0, f1))
    return out


class FilterArrowSpace:
    """Arrows of finite sets with maps as image tuples, as the library had
    them before it encoded maps by index: each hom set is filtered from all
    pairs of level maps, and split monos and epis from the hom sets by their
    retraction and section candidates."""

    def __init__(self, size_bound):
        sizes = range(size_bound + 1)
        objects = [(x0, x1, u) for x0 in sizes for x1 in sizes for u in _maps(x0, x1)]
        self.objects = sorted(objects, key=lambda o: (o[0] + o[1], o))
        self._homs = {}

    def homs(self, X, Y):
        key = (X, Y)
        if key not in self._homs:
            self._homs[key] = filter_arrow_homs(X, Y)
        return self._homs[key]

    def _retraction_candidates(self, f, x, y):
        """Functions r : y → x with r∘f = id, enumerated componentwise."""
        image = {v: k for k, v in enumerate(f)}
        slots = [[image[z]] if z in image else list(range(x)) for z in range(y)]
        if x == 0 and y > 0:
            return
        yield from product(*slots)

    def retraction_of(self, i, X, Y):
        """A commuting retraction pair for a levelwise-injective square, or
        None."""
        x0, x1, u = X
        y0, y1, v = Y
        for r0 in self._retraction_candidates(i[0], x0, y0):
            for r1 in self._retraction_candidates(i[1], x1, y1):
                if _after(u, r0) == _after(r1, v):
                    return (r0, r1)
        return None

    def split_monos(self, X, Y):
        """Monos with a retraction; componentwise injectivity is forced, so
        only injective squares are examined."""
        x0, x1, _ = X
        y0, y1, _ = Y
        if x0 > y0 or x1 > y1:
            return []
        return [
            i
            for i in self.homs(X, Y)
            if len(set(i[0])) == len(i[0])
            and len(set(i[1])) == len(i[1])
            and self.retraction_of(i, X, Y) is not None
        ]

    def _section_candidates(self, f, x, y):
        """Functions s : y → x with f∘s = id."""
        fibers = [[z for z in range(x) if f[z] == w] for w in range(y)]
        if any(not fib for fib in fibers):
            return
        yield from product(*fibers)

    def section_of(self, p, X, Y):
        """A commuting section pair for a levelwise-surjective square, or
        None."""
        x0, x1, u = X
        y0, y1, v = Y
        for s0 in self._section_candidates(p[0], x0, y0):
            for s1 in self._section_candidates(p[1], x1, y1):
                if _after(u, s0) == _after(s1, v):
                    return (s0, s1)
        return None

    def split_epis(self, X, Y):
        x0, x1, _ = X
        y0, y1, _ = Y
        if x0 < y0 or x1 < y1:
            return []
        return [
            p
            for p in self.homs(X, Y)
            if set(p[0]) == set(range(y0))
            and set(p[1]) == set(range(y1))
            and self.section_of(p, X, Y) is not None
        ]


def filter_nip_finset(size_bound):
    checked = 0
    sizes = range(size_bound + 1)
    quads = sorted(product(sizes, sizes, sizes, sizes), key=lambda q: (sum(q), q))
    for a, b, c, d in quads:
        monos = split_monos(a, b)
        epis = split_epis(c, d)
        if not monos or not epis:
            continue
        for i in monos:
            for p in epis:
                for top in _maps(a, c):
                    pt = _after(p, top)
                    for bottom in _maps(b, d):
                        if _after(bottom, i) != pt:
                            continue
                        checked += 1
                        if finset_filler(i, a, b, p, c, d, top, bottom) is not None:
                            continue
                        if not any(
                            _after(hh, i) == top and _after(p, hh) == bottom
                            for hh in _maps(b, c)
                        ):
                            return NipResult(
                                "finset", size_bound, False, checked,
                                {
                                    "i": list(i), "p": list(p),
                                    "top": list(top), "bottom": list(bottom),
                                    "sizes": [a, b, c, d],
                                },
                            )
    return NipResult("finset", size_bound, True, checked, None)


def filter_nip_finset_arrow(size_bound):
    space = FilterArrowSpace(size_bound)
    objects = space.objects
    mono_buckets, epi_buckets = {}, {}
    for A in objects:
        for B in objects:
            s = A[0] + A[1] + B[0] + B[1]
            for i in space.split_monos(A, B):
                mono_buckets.setdefault(s, []).append((A, B, i))
            for p in space.split_epis(A, B):
                epi_buckets.setdefault(s, []).append((A, B, p))
    checked = 0
    for total in range(0, 8 * size_bound + 1):
        for ms in range(0, total + 1):
            for A, B, i in mono_buckets.get(ms, ()):
                for C, D, p in epi_buckets.get(total - ms, ()):
                    for top in space.homs(A, C):
                        pt = arrow_compose(p, top)
                        for bottom in space.homs(B, D):
                            if arrow_compose(bottom, i) != pt:
                                continue
                            checked += 1
                            if any(
                                arrow_compose(h, i) == top and arrow_compose(p, h) == bottom
                                for h in space.homs(B, C)
                            ):
                                continue
                            return NipResult(
                                "finset_arrow", size_bound, False, checked,
                                {
                                    "A": _ser_arrow(A), "B": _ser_arrow(B),
                                    "C": _ser_arrow(C), "D": _ser_arrow(D),
                                    "i": _ser_sq(i), "p": _ser_sq(p),
                                    "top": _ser_sq(top), "bottom": _ser_sq(bottom),
                                    "retraction_of_i": _ser_sq(space.retraction_of(i, A, B)),
                                    "section_of_p": _ser_sq(space.section_of(p, C, D)),
                                },
                            )
    return NipResult("finset_arrow", size_bound, True, checked, None)


def filled_squares(space, i, p, A, B, C, D):
    """The (top, bottom) = (h∘i, p∘h) over every h : B → C, each as the
    four level indices (top0, top1, bottom0, bottom1)."""
    maps = space.maps
    i0 = maps.before(A[0], B[0], C[0])[i[0]]
    i1 = maps.before(A[1], B[1], C[1])[i[1]]
    p0 = maps.after(B[0], C[0], D[0])[p[0]]
    p1 = maps.after(B[1], C[1], D[1])[p[1]]
    return {(i0[h0], i1[h1], p0[h0], p1[h1]) for h0, h1 in space.homs(B, C)}


def filled_pair_squares(space, i, p, A, B, C, D):
    """The squares of i : A → B against p : C → D in sweep order, tops in
    hom order and under each the bottoms with bottom∘i = p∘top in hom
    order, each as (top, bottom, whether it lies in ``filled_squares``)."""
    maps = space.maps
    i0 = maps.before(A[0], B[0], D[0])[i[0]]
    i1 = maps.before(A[1], B[1], D[1])[i[1]]
    p0 = maps.after(A[0], C[0], D[0])[p[0]]
    p1 = maps.after(A[1], C[1], D[1])[p[1]]
    filled = filled_squares(space, i, p, A, B, C, D)
    for top in space.homs(A, C):
        key = (p0[top[0]], p1[top[1]])
        for bottom in space.homs(B, D):
            if (i0[bottom[0]], i1[bottom[1]]) == key:
                yield top, bottom, (*top, *bottom) in filled


def split_pairs(space, max_size):
    """Each (mono, epi) of the arrow sweep up to combined size
    ``max_size``, map by map in sweep order: combined size ascending, then
    the mono's size, and each side's maps listed pair by pair over every
    object pair (A, B) in order, as the sweep listed them before it listed
    them by isomorphism classes."""
    buckets = {}
    for A in space.objects:
        for B in space.objects:
            s = _arrow_size(A) + _arrow_size(B)
            monos, epis = buckets.setdefault(s, ([], []))
            monos += _split_monos(space, A, B)
            epis += _split_epis(space, A, B)
    for total in range(max_size + 1):
        for ms in range(total + 1):
            for mono in buckets.get(ms, ([], []))[0]:
                for epi in buckets.get(total - ms, ([], []))[1]:
                    yield mono, epi


def listed_maps(space, runs, split):
    """The split maps behind a bucket's runs, map by map and in sweep
    order: the object pairs (A, B) in order, each pair's maps as ``split``
    lists them.  Only the pairs whose (representative of A,
    representative of B) has runs are listed, as no other pair of the
    bucket has a split map."""
    reps = space.representatives
    targets = {}
    for f, _ in runs:
        targets.setdefault(f[0], set()).add(f[1])
    paired = {S: [B for B in space.objects if reps[B] in R] for S, R in targets.items()}
    for A in space.objects:
        for B in paired.get(reps[A], ()):
            yield from split(space, A, B)


def walk_maps(space, monos, epis, classes):
    """Walk the pairs of a pass map by map, in sweep order, monos outer,
    epis inner: the squares of the pairs that fill before the first
    refused pair, and that pair, or None.  ``classes`` are the pass's epi
    runs.  Each mono is a run of one for ``_decide_pass``, and only the
    first mono whose key some epi run refuses is walked epi by epi."""
    squares, mono = _decide_pass(space, ([m, 1] for m in monos), classes)
    if mono is None:
        return squares, None
    for epi in epis:
        fills, count = _decide_pair(space, mono, epi)
        if not fills:
            return squares, (mono, epi)
        squares += count
    raise AssertionError("a mono refused by a run is refused by an epi of the run")


# ---------------------------------------------------------------------------
# Lifting problems by hand-built choice tables and by filtering candidate
# functors (the library's code before it had one lifting enumerator)


def filter_exhaustive_fillers(problem):
    problem.validate()
    i, p = problem.left, problem.right
    B, C = problem.left.target, problem.right.source
    omap_choices = {
        b: [c for c in C.objects if p.ob(c) == problem.bottom.ob(b)] for b in B.objects
    }
    mmap_choices = {
        m.name: [n.name for n in C.morphisms if p.mor(n.name) == problem.bottom.mor(m.name)]
        for m in B.morphisms
    }
    for a in i.source.objects:
        forced = problem.top.ob(a)
        omap_choices[i.ob(a)] = [c for c in omap_choices[i.ob(a)] if c == forced]
    for m in i.source.morphisms:
        forced = problem.top.mor(m.name)
        mmap_choices[i.mor(m.name)] = [
            n for n in mmap_choices[i.mor(m.name)] if n == forced
        ]
    yield from enumerate_functors(B, C, omap_choices, mmap_choices)


def filter_find_sections(F):
    A, B = F.source, F.target
    omap_choices = {
        b: [a for a in A.objects if F.ob(a) == b] for b in B.objects
    }
    mmap_choices = {
        m.name: [n.name for n in A.morphisms if F.mor(n.name) == m.name]
        for m in B.morphisms
    }
    yield from enumerate_functors(B, A, omap_choices, mmap_choices)


def filter_find_retractions(F):
    A, B = F.source, F.target
    omap_choices = {}
    for b in B.objects:
        pre = sorted({a for a in A.objects if F.ob(a) == b}, key=A.obj_index.get)
        if len(pre) > 1:
            return
        if pre:
            omap_choices[b] = pre
    mmap_choices = {}
    for m in B.morphisms:
        pre = {n.name for n in A.morphisms if F.mor(n.name) == m.name}
        if len(pre) > 1:
            return
        if pre:
            mmap_choices[m.name] = sorted(pre)
    yield from enumerate_functors(B, A, omap_choices, mmap_choices)


def filter_arrow_sections(f):
    """Pairs (s0, s1) of levelwise sections of the arrow-category morphism
    ``f`` that commute with its source and target arrows."""
    return [
        (s0, s1)
        for s0 in filter_find_sections(f.level0)
        for s1 in filter_find_sections(f.level1)
        if s0.then(f.source) == f.target.then(s1)
    ]


def filter_arrow_squares(X, A):
    return [
        (s0, s1)
        for s0 in enumerate_functors(X.source, A.source)
        for s1 in enumerate_functors(X.target, A.target)
        if s0.then(A) == X.then(s1)
    ]


def filter_arrow_fillers(i, p, top, bottom):
    B, C = i.target, p.source
    out = []
    for h0 in enumerate_functors(B.source, C.source):
        if i.level0.then(h0) != top.level0 or h0.then(p.level0) != bottom.level0:
            continue
        for h1 in enumerate_functors(B.target, C.target):
            if i.level1.then(h1) != top.level1 or h1.then(p.level1) != bottom.level1:
                continue
            if h0.then(C) == B.then(h1):
                out.append((h0, h1))
    return out


def filter_pullback_cones(F, G, X):
    rights = list(enumerate_functors(X, G.source))
    for P in enumerate_functors(X, F.source):
        PF = P.then(F)
        for Q in rights:
            if PF == Q.then(G):
                yield P, Q


# ---------------------------------------------------------------------------
# Maps between powers through their functors and transformations, as the
# library built them when each power kept a FinFunctor per object and a
# NatTrans per morphism: every image is built as a functor or a
# transformation and then named from its parts


# by the content of C and D, as the power cache is
_ENUMERATED: dict[tuple[str, str], tuple[dict[str, FinFunctor], dict[str, NatTrans]]] = {}


def _enumerated(power: FunctorCat):
    C, D = power.source_category, power.target_category
    key = C.digest, D.digest
    if key not in _ENUMERATED:
        functors = dict(zip(power.objects, enumerate_functors(C, D)))
        listed = list(functors.values())
        ts = (t for F in listed for G in listed for t in enumerate_transformations(F, G))
        _ENUMERATED[key] = functors, dict(zip((m.name for m in power.morphisms), ts))
    return _ENUMERATED[key]


def power_functors(power: FunctorCat) -> dict[str, FinFunctor]:
    """Each object's functor, in the order the power enumerated them."""
    return _enumerated(power)[0]


def power_transformations(power: FunctorCat) -> dict[str, NatTrans]:
    """Each morphism's transformation, in the order the power enumerated them."""
    return _enumerated(power)[1]


def name_of_functor(power: FunctorCat, F: FinFunctor) -> str:
    C = power.source_category
    return power.obj_named(
        tuple(F.omap[a] for a in C.objects) + tuple(F.mmap[m.name] for m in C.morphisms)
    )


def name_of_transformation(power: FunctorCat, t: NatTrans) -> str:
    return power.mor_named(
        name_of_functor(power, t.source),
        name_of_functor(power, t.target),
        tuple(t.components[a] for a in power.source_category.objects),
    )


def power_morphisms_reference(C: FinCat, D: FinCat, budget: int = Bounds().budget) -> list:
    """The morphisms ``(name, dom, cod, parts)`` of the power D^C, one
    transformation search per ordered pair of functors, after the budget
    has counted every pair's candidates; raises the same
    ``EnumerationBudgetExceeded`` at the same count."""
    what = f"power {D.label}^{C.label}"
    required = _estimate_functor_candidates(C, D, budget)
    if required > budget:
        raise EnumerationBudgetExceeded(budget, required, what)
    functor_list = list(enumerate_functors(C, D))
    names = [_object_name(C, F) for F in functor_list]
    for F in functor_list:
        for G in functor_list:
            prod = 1
            for a in C.objects:
                prod *= len(D.hom(F.ob(a), G.ob(a)))
                if prod == 0:
                    break
            required += max(prod, 1)
            if required > budget:
                raise EnumerationBudgetExceeded(budget, required, what)
    morphisms = []
    for i, (fname, F) in enumerate(zip(names, functor_list)):
        for j, (gname, G) in enumerate(zip(names, functor_list)):
            for t in enumerate_transformations(F, G):
                comps = tuple(t.component(a) for a in C.objects)
                morphisms.append((f"[{','.join(comps)}]{i}>{j}", fname, gname, comps))
    return morphisms


def _square_parts(X: FinFunctor, s0: FinFunctor, s1: FinFunctor) -> tuple[str, ...]:
    """A square (s0, s1) out of X by its object images, then its morphism images."""
    X0, X1 = X.source, X.target
    return (
        tuple(s0.omap[x] for x in X0.objects)
        + tuple(s1.omap[y] for y in X1.objects)
        + tuple(s0.mmap[m.name] for m in X0.morphisms)
        + tuple(s1.mmap[m.name] for m in X1.morphisms)
    )


def arrow_hom_reference(X: FinFunctor, A: FinFunctor) -> tuple[TupleCat, list]:
    """The hom-category [X, A] of commuting squares X → A and the squares
    behind its objects, object ``q{i}`` the i-th of :func:`filter_arrow_squares`:
    for every ordered pair of squares, every t0 and every t1 whose whiskers
    A·t0 and t1·X agree."""
    X0, X1 = X.source, X.target
    squares = filter_arrow_squares(X, A)
    morphisms = []
    for i, (s0, s1) in enumerate(squares):
        for j, (r0, r1) in enumerate(squares):
            pairs = [
                (t0, t1)
                for t0 in enumerate_transformations(s0, r0)
                for t1 in enumerate_transformations(s1, r1)
                if t0.whisker_post(A).components == t1.whisker_pre(X).components
            ]
            for k, (t0, t1) in enumerate(pairs):
                parts = tuple(t0.components[x] for x in X0.objects) + tuple(
                    t1.components[y] for y in X1.objects
                )
                morphisms.append((f"m{i}_{j}_{k}", f"q{i}", f"q{j}", parts))
    cat = TupleCat(
        (A.source,) * X0.n_objects + (A.target,) * X1.n_objects,
        [(f"q{i}", _square_parts(X, s0, s1)) for i, (s0, s1) in enumerate(squares)],
        morphisms,
        label=f"[{X.label},{A.label}]",
    )
    return cat, squares


def arrow_hom_postcompose_reference(X: FinFunctor, f: ArrowMorphism) -> FinFunctor:
    """Postcomposition [X, f.source] → [X, f.target] with the square f:
    level 0 of f acts on the components of t0, level 1 on those of t1."""
    src, squares = arrow_hom_reference(X, f.source)
    dst, _ = arrow_hom_reference(X, f.target)
    omap = {
        f"q{i}": dst.obj_named(_square_parts(X, s0.then(f.level0), s1.then(f.level1)))
        for i, (s0, s1) in enumerate(squares)
    }
    levels = (f.level0,) * X.source.n_objects + (f.level1,) * X.target.n_objects
    mmap = {
        m.name: dst.mor_named(
            omap[m.dom],
            omap[m.cod],
            tuple(F.mor(c) for F, c in zip(levels, src.mor_parts[m.name])),
        )
        for m in src.morphisms
    }
    return FinFunctor(src, dst, omap, mmap, label=f"[{X.label},f]")


def arrow_normal_reference(f: ArrowMorphism) -> bool:
    """Whether each test object's postcomposition with f is a normal isofibration."""
    return all(
        classify_fibration(arrow_hom_postcompose_reference(X, f), grothendieck=False).normal
        for X in default_arrow_test_objects()
    )


def precompose_reference(j: FinFunctor, D: FinCat) -> FinFunctor:
    power_y = functor_category(j.target, D)
    power_x = functor_category(j.source, D)
    omap = {
        name: name_of_functor(power_x, j.then(F)) for name, F in power_functors(power_y).items()
    }
    mmap = {
        name: name_of_transformation(power_x, t.whisker_pre(j))
        for name, t in power_transformations(power_y).items()
    }
    return FinFunctor(power_y, power_x, omap, mmap, label=f"{D.label}^{j.label}")


def postcompose_reference(p: FinFunctor, X: FinCat) -> FinFunctor:
    power_a = functor_category(X, p.source)
    power_b = functor_category(X, p.target)
    omap = {
        name: name_of_functor(power_b, F.then(p)) for name, F in power_functors(power_a).items()
    }
    mmap = {
        name: name_of_transformation(power_b, t.whisker_post(p))
        for name, t in power_transformations(power_a).items()
    }
    return FinFunctor(power_a, power_b, omap, mmap, label=f"{p.label}^{X.label}")


def functor_into_power_reference(fs: list[FinFunctor], power: FunctorCat) -> FinFunctor:
    X, C, D = fs[0].source, power.source_category, power.target_category
    functors = power_functors(power)

    def ob_name(x):
        F = FinFunctor(
            C,
            D,
            {c: fs[k].ob(x) for k, c in enumerate(C.objects)},
            {C.id_of(c): D.id_of(fs[k].ob(x)) for k, c in enumerate(C.objects)},
        )
        return name_of_functor(power, F)

    omap = {x: ob_name(x) for x in X.objects}
    mmap = {}
    for m in X.morphisms:
        t = NatTrans(
            functors[omap[m.dom]],
            functors[omap[m.cod]],
            {c: fs[k].mor(m.name) for k, c in enumerate(C.objects)},
        )
        mmap[m.name] = name_of_transformation(power, t)
    return FinFunctor(X, power, omap, mmap, label="pairing")


def cells_into_power_reference(cells: list[NatTrans], power: FunctorCat) -> FinFunctor:
    t0, t1 = cells
    h, k = t0.source, t0.target
    X, C, D = h.source, power.source_category, power.target_category
    functors = power_functors(power)

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
        return name_of_functor(power, F)

    omap = {x: ob_name(x) for x in X.objects}
    mmap = {}
    for m in X.morphisms:
        t = NatTrans(
            functors[omap[m.dom]], functors[omap[m.cod]], {"0": h.mor(m.name), "1": k.mor(m.name)}
        )
        mmap[m.name] = name_of_transformation(power, t)
    return FinFunctor(X, power, omap, mmap, label="cell-pairing")


# ---------------------------------------------------------------------------
# Full faithfulness by the images of each hom as a list and two sets, and the
# comparison w : A^I → L as the pairing of evaluation at 1 with the
# postcomposite f^I (the library's code before it read fullness off hom
# sizes and built w in one pass)


def not_ff_reference(F: FinFunctor) -> NotEquivalence | None:
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


def power_comparison_reference(pl: PseudolimitOfArrow) -> FinFunctor:
    f_iso = postcompose_functor(pl.arrow, builtin("free_iso"))
    w = pair_functor(evaluation_functor(pl.source_power, "1"), f_iso, pl.apex)
    w.label = "w"
    return w


# ---------------------------------------------------------------------------
# The backtracking searches as recursions of nested generators or functions,
# one frame per position (the library's code before every search ran on
# core._backtrack's explicit stack)


def recursive_search(
    src: FinCat,
    dst: FinCat,
    omap_choices: Mapping[str, Sequence[str]] | None,
    mmap_choices: Mapping[str, Sequence[str]] | None,
    injective: bool,
) -> Iterator[FinFunctor]:
    """Yield functors src → dst in index order.

    With ``injective``, only functors injective on objects and on morphisms
    are kept (labelled ``iso``), and an object may only go to one with the
    same hom profile.
    """
    objs = src.objects
    nonid = [m for m in src.morphisms if not src.is_identity(m.name)]
    position = {m.name: i for i, m in enumerate(nonid)}
    checks: list[list[tuple[str, str, str]]] = [[] for _ in nonid]
    for (g, f), gf in src.comp.items():
        if g in position and f in position:
            checks[max(position[g], position[f], position.get(gf, -1))].append((g, f, gf))
    allowed = {
        m.name: set(mmap_choices[m.name])
        for m in nonid
        if mmap_choices and m.name in mmap_choices
    }
    obj_candidates = []
    for a in objs:
        base = omap_choices[a] if omap_choices and a in omap_choices else dst.objects
        if injective:
            profile = _hom_profile(src, a)
            base = [x for x in base if _hom_profile(dst, x) == profile]
        obj_candidates.append(base)

    label = "iso" if injective else "functor"
    dst_comp, dst_hom = dst.comp, dst.hom
    # Entries past the current position are stale but never read: every
    # check at a position reads only images assigned at or before it.
    omap: dict[str, str] = {}
    img: dict[str, str] = {}
    # images in use on the current path; read only when injective
    taken: set[str] = set()
    used: set[str] = set()

    def assign_mors(idx):
        if idx == len(nonid):
            yield FinFunctor(src, dst, omap, {m.name: img[m.name] for m in src.morphisms}, label)
            return
        m = nonid[idx]
        name, cons, keep = m.name, checks[idx], allowed.get(m.name)
        for cand in dst_hom(omap[m.dom], omap[m.cod]):
            if (keep is not None and cand not in keep) or (injective and cand in used):
                continue
            img[name] = cand
            if all(dst_comp[img[g], img[f]] == img[gf] for g, f, gf in cons):
                used.add(cand)
                yield from assign_mors(idx + 1)
                used.discard(cand)

    def assign_objs(idx):
        if idx == len(objs):
            used.clear()
            for a in objs:
                img[src.id_of(a)] = ident = dst.id_of(omap[a])
                used.add(ident)
            yield from assign_mors(0)
            return
        a = objs[idx]
        for x in obj_candidates[idx]:
            if injective and x in taken:
                continue
            omap[a] = x
            taken.add(x)
            yield from assign_objs(idx + 1)
            taken.discard(x)

    # each closure holds itself through its cell; emptying the cells lets
    # reference counting free the search state when the search ends or is
    # dropped, without waiting for the cycle collector
    try:
        yield from assign_objs(0)
    finally:
        del assign_objs, assign_mors


def recursive_transformations(
    F: FinFunctor,
    G: FinFunctor,
    invertible_only: bool = False,
) -> Iterator[NatTrans]:
    """Yield natural transformations F ⇒ G in deterministic order."""
    if F.source != G.source or F.target != G.target:
        raise StructureError("transformations need a parallel pair")
    cat = F.target
    objs = F.source.objects
    mors = [m for m in F.source.morphisms if not F.source.is_identity(m.name)]
    isos = isos_bf(cat) if invertible_only else None

    def candidates(a):
        base = cat.hom(F.ob(a), G.ob(a))
        if invertible_only:
            base = [c for c in base if c in isos]
        return base

    def natural_so_far(parts, m: Morphism):
        ca, cb = parts.get(m.dom), parts.get(m.cod)
        if ca is None or cb is None:
            return True
        return cat.compose(G.mor(m.name), ca) == cat.compose(cb, F.mor(m.name))

    def assign(idx, parts):
        if idx == len(objs):
            yield NatTrans(F, G, dict(parts))
            return
        a = objs[idx]
        for c in candidates(a):
            parts[a] = c
            if all(natural_so_far(parts, m) for m in mors if a in (m.dom, m.cod)):
                yield from assign(idx + 1, parts)
            del parts[a]

    try:
        yield from assign(0, {})
    finally:
        del assign  # a self-referring closure (see recursive_search)


def recursive_sset_maps(Z: TruncSSet, W: TruncSSet):
    """All maps of truncated simplicial sets Z → W, as dicts
    {(dim, simplex): simplex}.  Degenerate simplices are forced; the rest
    backtrack over face-compatible candidates."""
    slots = []
    degeneracy_of = {}
    for dim in range(TOP_DIM + 1):
        for s in Z.simplices[dim]:
            slots.append((dim, s))
            degeneracy_of[(dim, s)] = Z.degeneracy_source(dim, s)

    w_index: dict[int, dict[tuple, list[str]]] = {}
    for dim in range(1, TOP_DIM + 1):
        table: dict[tuple, list[str]] = {}
        for w in W.simplices[dim]:
            key = tuple(W.face(dim, i, w) for i in range(dim + 1))
            table.setdefault(key, []).append(w)
        w_index[dim] = table

    results = []

    def candidates(dim, s, assigned):
        source = degeneracy_of[(dim, s)]
        if source is not None:
            i, t = source
            return [W.degeneracy(dim - 1, i, assigned[(dim - 1, t)])]
        if dim == 0:
            return list(W.simplices[0])
        wanted = tuple(assigned[(dim - 1, Z.face(dim, i, s))] for i in range(dim + 1))
        return w_index[dim].get(wanted, [])

    def rec(k, assigned):
        if k == len(slots):
            results.append(dict(assigned))
            return
        dim, s = slots[k]
        for w in candidates(dim, s, assigned):
            assigned[(dim, s)] = w
            rec(k + 1, assigned)
            del assigned[(dim, s)]

    try:
        rec(0, {})
    finally:
        del rec  # a self-referring closure (see recursive_search)
    return results


def recursive_leveled_iso(levels1, faces1, degens1, levels2, faces2, degens2, dim: int):
    """Backtracking isomorphism of leveled systems respecting faces and
    degeneracies within range."""
    if any(len(levels1[d]) != len(levels2[d]) for d in range(dim + 1)):
        return None

    assign = {}

    def compatible(d, a, b):
        for i in range(d + 1):
            if d >= 1:
                fa = faces1[(d, i)][a]
                fb = faces2[(d, i)][b]
                if assign.get((d - 1, fa)) != fb:
                    return False
        return True

    def rec(d, k, used):
        if d > dim:
            # degeneracy tables must also match
            for (dd, i), table in degens1.items():
                if dd + 1 > dim:
                    continue
                for s, v in table.items():
                    if assign[(dd + 1, v)] != degens2[(dd, i)][assign[(dd, s)]]:
                        return None
            return dict(assign)
        if k == len(levels1[d]):
            return rec(d + 1, 0, set())
        a = levels1[d][k]
        for b in levels2[d]:
            if (d, b) in used:
                continue
            if not compatible(d, a, b):
                continue
            assign[(d, a)] = b
            used.add((d, b))
            res = rec(d, k + 1, used)
            if res is not None:
                return res
            used.discard((d, b))
            del assign[(d, a)]
        return None

    try:
        return rec(0, 0, set())
    finally:
        del rec  # a self-referring closure (see recursive_search)


def recursive_functor_estimate(C: FinCat, D: FinCat, budget: int) -> int:
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
        del rec  # a self-referring closure (see recursive_search)
    return total


# ---------------------------------------------------------------------------
# A tower's structure cells π^m_n for every m > n, composed from the
# consecutive cells π^{k+1}_k, and the alignment check over all of them (the
# library's table and check before it kept only the consecutive cells)


def all_pairs_structure_cells(tl: TowerLimit) -> dict[tuple[int, int], NatTrans]:
    """π^hi_lo : p_lo ≅ f^hi_lo ∘ p_hi as π^{lo+1}_lo followed by π^hi_{lo+1}
    whiskered by f_lo, by increasing span."""
    pis = dict(tl.structure_cells)
    n = len(tl.maps)
    for span in range(2, n + 1):
        for lo in range(0, n + 1 - span):
            hi = lo + span
            pis[(hi, lo)] = pis[(lo + 1, lo)].then(pis[(hi, lo + 1)].whisker_post(tl.maps[lo]))
    return pis


def all_pairs_alignment_check(tl: TowerLimit) -> bool:
    """``limits.tower_alignment_check`` over every π^m_n."""
    cats = [tl.base] + [f.source for f in tl.maps]
    pis = all_pairs_structure_cells(tl)
    for z in tl.pseudolimit.objects:
        alphas_id = all(
            cats[k].is_identity(tl.cone_cells[k].component(z)) for k in range(len(cats))
        )
        pis_id = all(cats[n].is_identity(cell.component(z)) for (_, n), cell in pis.items())
        if alphas_id != pis_id:
            return False
    return True


# ---------------------------------------------------------------------------
# Constructions only the tests use, on the library's own types: a retract
# witness of the pseudolimit's source projection, whose unit is checked to be
# the diagonal cell, retract witnesses and ``EquivalenceWitness``es assembled
# from a known inverse, a deliberately non-normal cleavage, the coskeletality
# check of a 3-truncated nerve, and the functor between classifying
# categories induced by a simplicial map


def pseudolimit_retract_witness(pl: PseudolimitOfArrow) -> EquivalenceWitness:
    """Adjoint equivalence for the source projection: inverse the diagonal,
    counit an identity, and unit the diagonal cell, which is checked to be
    the one the builder's formula gives."""
    A = pl.arrow.source
    w = validate_witness(
        EquivalenceWitness(
            pl.to_source, "retract", lambda: (pl.diagonal, {a: A.id_of(a) for a in A.objects})
        )
    )
    delta = pl.diagonal_cell
    assert (w.unit.source, w.unit.target, w.unit.components) == (
        delta.source,
        delta.target,
        delta.components,
    )
    assert (w.has_section, w.has_retraction) == (True, is_isomorphism(pl.to_source))
    return w

def retract_witness(F: FinFunctor) -> EquivalenceWitness:
    """Witness with identity counit, built on the first section; requires
    a section."""
    w = classify_equivalence(F)
    if isinstance(w, NotEquivalence):
        raise WitnessInvalid(f"{F.label} is not an equivalence: {w.reason}")
    if not w.has_section:
        raise WitnessInvalid(f"{F.label} has no section")
    if w.counit.is_identity():
        return w
    section = next(find_sections(F))
    return witness_from_parts(F, section, "retract", w.has_section, w.has_retraction)

def witness_from_parts(F, inverse, kind, has_section, has_retraction) -> EquivalenceWitness:
    """Assemble and verify a witness from a known section (``retract``) or
    retraction (``injective``), and check the section and retraction flags
    the builder reads off F's object map against the expected ones.  Used
    where the inverse is available by construction."""
    if kind == "retract":
        counit = {b: F.target.id_of(b) for b in F.target.objects}
    elif kind == "injective":
        # ε_b : F R b → b is the morphism that R sends to the identity of R b
        A, B, R = F.source, F.target, inverse
        counit = {
            b: next(m for m in B.hom(F.ob(R.ob(b)), b) if R.mor(m) == A.id_of(R.ob(b)))
            for b in B.objects
        }
    else:
        raise WitnessInvalid(f"unknown kind {kind}")
    w = validate_witness(EquivalenceWitness(F, kind, lambda: (inverse, counit)))
    assert (w.has_section, w.has_retraction) == (has_section, has_retraction)
    return w

def perturbed_cleavage(p: FinFunctor) -> Cleavage | None:
    """A deliberately non-normal cleavage: every identity downstairs whose
    lift set allows it lifts to a non-identity upstairs.  Returns None when
    no identity instance can be perturbed."""
    E, B = p.source, p.target
    table: dict[tuple[str, str], str] = {}
    perturbed = False
    downstairs = isos_bf(B)
    for e in E.objects:
        pe = p.ob(e)
        for beta in downstairs:
            if B.dom(beta) != pe:
                continue
            lifts = _iso_lifts(p, e, beta)
            if not lifts:
                raise NotIsofibration(e, beta)
            pick = lifts[0]
            if B.is_identity(beta):
                bad = [m for m in lifts if not E.is_identity(m)]
                if bad:
                    pick = bad[0]
                    perturbed = True
                else:
                    pick = E.id_of(e)
            table[(e, beta)] = pick
    if not perturbed:
        return None
    return Cleavage(fibration=p, lift=table)

def coskeletal_filler_check(X: TruncSSet) -> bool:
    """Every boundary-compatible quadruple of 2-simplices has exactly one
    3-simplex filling it.  True for nerves; checked exhaustively."""
    by_faces = {}
    for s in X.simplices[3]:
        key = tuple(X.face(3, i, s) for i in range(4))
        by_faces.setdefault(key, []).append(s)
    if any(len(v) > 1 for v in by_faces.values()):
        return False

    lvl2 = X.simplices[2]
    idx = {}
    for t in lvl2:
        idx.setdefault((X.face(2, 2, t)), []).append(t)

    for f3 in lvl2:
        # d_2 f_2 = d_2 f_3
        for f2 in lvl2:
            if X.face(2, 2, f2) != X.face(2, 2, f3):
                continue
            for f1 in lvl2:
                if X.face(2, 1, f1) != X.face(2, 1, f2):
                    continue
                if X.face(2, 2, f1) != X.face(2, 1, f3):
                    continue
                for f0 in lvl2:
                    if X.face(2, 2, f0) != X.face(2, 0, f3):
                        continue
                    if X.face(2, 1, f0) != X.face(2, 0, f2):
                        continue
                    if X.face(2, 0, f0) != X.face(2, 0, f1):
                        continue
                    fillers = by_faces.get((f0, f1, f2, f3), [])
                    if len(fillers) != 1:
                        return False
    return True

def word_classes(X: TruncSSet, P: FinCat) -> dict:
    """Each word (anchor, letters) over the generators of X, no longer than
    the word bound, mapped to its morphism of X's classifying category P.
    Words are listed shortest first, merged by every rewrite relation in both
    directions at every position, and each class is the morphism named by
    its first word."""
    system = rewrite_system(X)
    ends = system.endpoints
    words = [(v, ()) for v in X.simplices[0]]
    frontier = list(words)
    for _ in range(system.bound):
        frontier = [
            (a, w + (e,))
            for a, w in frontier
            for e in system.generators
            if ends[e][0] == (ends[w[-1]][1] if w else a)
        ]
        words += frontier
    index = {w: i for i, w in enumerate(words)}
    first = list(range(len(words)))

    def find(i: int) -> int:
        while first[i] != i:
            i = first[i]
        return i

    for i, (a, w) in enumerate(words):
        for anchor, lhs, rhs in system.relations:
            for old, new in ((lhs, rhs), (rhs, lhs)):
                for pos in range(len(w) - len(old) + 1):
                    at = ends[w[pos - 1]][1] if pos else a
                    other = (a, w[:pos] + new + w[pos + len(old) :])
                    if w[pos : pos + len(old)] == old and at == anchor and other in index:
                        x, y = sorted((find(i), find(index[other])))
                        first[y] = x
    names = {m.name for m in P.morphisms}
    classes = {}
    for i, word in enumerate(words):
        a, w = words[find(i)]
        name = f"[{'·'.join(w)}]" if w else f"id@{a}"
        assert name in names, name
        classes[word] = name
    return classes


def classifying_functor(smap: dict, X: TruncSSet, Y: TruncSSet) -> FinFunctor:
    """The functor between classifying categories induced by a truncated
    simplicial map (given as {(dim, name): name})."""
    PX, PY = classifying_category(X), classifying_category(Y)
    x_classes, y_classes = word_classes(X, PX), word_classes(Y, PY)
    ygens = set(Y.nondegenerate(1))
    # words come shortest first, so a class's first word is its representative
    rep = {name: word for word, name in reversed(x_classes.items())}

    def push(mor_name: str) -> str:
        anchor, gens = rep[mor_name]
        image = tuple(g for g in (smap[(1, g)] for g in gens) if g in ygens)
        return y_classes[(smap[(0, anchor)], image)]

    omap = {v: smap[(0, v)] for v in PX.objects}
    mmap = {m.name: push(m.name) for m in PX.morphisms}
    return validate_functor(FinFunctor(PX, PY, omap, mmap, label="Π(map)"))


# ---------------------------------------------------------------------------
# Small constructions and checks that only the tests use.  The library
# builds these values lawful, so it no longer calls the checks itself: the
# corpus tests run them on what it builds.


@cache
def default_arrow_test_objects() -> tuple[FinFunctor, ...]:
    """The test objects X of the normality check on squares: 1 → 1 and 2 → 1."""
    one = terminal_category()
    two = discrete_category(2)
    return (
        identity_functor(one),
        thin_functor(two, one, {"0": "*", "1": "*"}, "2→1"),
    )


def constant_functor(source: FinCat, target: FinCat, obj: str, label=None) -> FinFunctor:
    return FinFunctor(
        source,
        target,
        {a: obj for a in source.objects},
        {m.name: target.id_of(obj) for m in source.morphisms},
        label=label or f"const_{obj}",
    )


def is_invertible(t: NatTrans) -> bool:
    isos = isos_bf(t.category)
    return all(c in isos for c in t.components.values())


def is_isomorphism(F: FinFunctor) -> bool:
    """F is bijective on objects and on morphisms."""
    return (
        len(set(F.omap.values())) == F.source.n_objects == F.target.n_objects
        and len(set(F.mmap.values())) == F.source.n_morphisms == F.target.n_morphisms
    )


def functor_named(power: FunctorCat, name: str) -> FinFunctor:
    """The functor C → D that the object ``name`` of the power D^C stands for."""
    C = power.source_category
    omap = dict(zip(C.objects, power.obj_parts[name]))
    mmap = {m.name: power.mor_image(name, m.name) for m in C.morphisms}
    return FinFunctor(C, power.target_category, omap, mmap)


def criterion_line(result: CriterionResult) -> str:
    """The one PASS/FAIL line printed for an acceptance criterion."""
    status = "PASS" if result.passed else "FAIL"
    return f"[{status}] criterion {result.number}: {result.name} ({result.duration:.1f}s)"


def lift_from(cl: Cleavage, e: str, beta: str) -> str:
    """The cleavage's lift of an iso with domain p(e), as an iso with domain e."""
    return cl.lift[(e, beta)]


def dim_count(X: TruncSSet, dim: int) -> int:
    return len(X.simplices[dim])


def interleaved_chain_table(changes: dict) -> dict:
    """The thin chain 0 < 1 < 2 (identities i0, i1, i2; a: 0 → 1, b: 1 → 2,
    c: 0 → 2) in the file format, its ``comp`` list written with the rows of
    b and i2 interleaved with the others, and the composites of ``changes``
    ((g, f) ↦ value) replaced: the first entry in file order is then not the
    first of its row order."""
    morphisms = [
        ("i0", "0", "0"), ("i1", "1", "1"), ("i2", "2", "2"),
        ("a", "0", "1"), ("b", "1", "2"), ("c", "0", "2"),
    ]
    comp = [
        ("b", "i1", "b"), ("i2", "c", "c"), ("i0", "i0", "i0"), ("i1", "i1", "i1"),
        ("i2", "i2", "i2"), ("a", "i0", "a"), ("i1", "a", "a"), ("i2", "b", "b"),
        ("c", "i0", "c"), ("b", "a", "c"),
    ]
    return {
        "objects": ["0", "1", "2"],
        "morphisms": [{"name": n, "dom": d, "cod": c} for n, d, c in morphisms],
        "identity": {"0": "i0", "1": "i1", "2": "i2"},
        "comp": [{"g": g, "f": f, "gf": changes.get((g, f), gf)} for g, f, gf in comp],
    }


def functor_to_dict(F: FinFunctor) -> dict:
    return {
        "source": F.source.to_dict(),
        "target": F.target.to_dict(),
        "omap": dict(F.omap),
        "mmap": dict(F.mmap),
        "label": F.label,
    }


class CleavageNotNormal(FinCatError):
    """A cleavage lifts an identity to a non-identity."""


def check_cleavage(cl: Cleavage, normal: bool = True) -> Cleavage:
    """Every iso out of the image of every object lifts to an iso over it,
    and, when ``normal`` is asked for, every identity to an identity."""
    p = cl.fibration
    E, B = p.source, p.target
    upstairs, downstairs = isos_bf(E), isos_bf(B)
    for e in E.objects:
        for beta in downstairs:
            if B.dom(beta) != p.ob(e):
                continue
            got = cl.lift.get((e, beta))
            if got is None:
                raise StructureError(f"cleavage missing a lift at ({e}, {beta})")
            if E.dom(got) != e or got not in upstairs or p.mor(got) != beta:
                raise StructureError(f"cleavage entry ({e}, {beta}) -> {got} is not a lift")
            if normal and B.is_identity(beta) and not E.is_identity(got):
                raise CleavageNotNormal(f"identity at {e} lifts to {got}")
    return cl


def check_rewrite_system(rs: RewriteSystem) -> RewriteSystem:
    """Both sides of every relation must traverse the same endpoints."""

    def walk(anchor, gens):
        at = anchor
        for g in gens:
            dom, cod = rs.endpoints[g]
            if dom != at:
                raise StructureError(f"relation side breaks at {g}")
            at = cod
        return at

    for anchor, lhs, rhs in rs.relations:
        if walk(anchor, lhs) != walk(anchor, rhs):
            raise StructureError(f"relation sides at {anchor} have different endpoints")
    return rs


def check_arrow_square(f: ArrowMorphism) -> ArrowMorphism:
    """f, once its square level1∘u = v∘level0 is seen to commute."""
    if f.level0.then(f.target) != f.source.then(f.level1):
        raise StructureError("arrow-category square does not commute")
    return f


def pie_isocomma(F: FinFunctor, G: FinFunctor) -> LimitWitness:
    """The isocomma of F : A → C and G : B → C from its PIE presentation
    (products, inserters, equifiers; Bird, Kelly, Power and Street 1989):
    on A × B, insert α : F p₁ ⇒ G p₂, then β : G p₂ ⇒ F p₁, then equify
    β·α with the identity, then α·β.  Its legs are those to A and to B, and
    it certifies nothing."""
    p1, p2 = product_projections(product_category(F.source, G.source))
    i1 = inserter(p1.then(F), p2.then(G))
    alpha = i1.structure_cells[0]
    i2 = inserter(alpha.target, alpha.source)
    beta, leg = i2.structure_cells[0], i2.projections[0]
    beta_alpha = alpha.whisker_pre(leg).then(beta)
    e1 = equifier(beta_alpha, identity_nat(beta_alpha.source)).projections[0]
    alpha_beta = beta.whisker_pre(e1).then(alpha.whisker_pre(e1.then(leg)))
    e2 = equifier(alpha_beta, identity_nat(alpha_beta.source)).projections[0]
    into_product = e2.then(e1).then(leg).then(i1.projections[0])
    legs = (into_product.then(p1), into_product.then(p2))
    return LimitWitness(e2.source, legs, (), lambda: None)


# ---------------------------------------------------------------------------
# The recorded envelopes: the inputs of ``envelopes.json`` that are not
# sample files, and the row that one run of ``fincat`` makes

SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"
ENVELOPES = Path(__file__).resolve().parent / "envelopes.json"


def _sample(name: str, mutate) -> dict:
    data = json.loads((SAMPLE_DATA / name).read_text())
    mutate(data)
    return data


def _functor_file(source, target, obj=str, mor=str) -> dict:
    """The functor file from ``source`` to ``target``, each a builtin's name
    (written by reference) or a category (written inline), sending each
    object a to obj(a) and morphism m to mor(m): by default the identity."""
    def node(cat):
        return f"builtin:{cat}" if isinstance(cat, str) else cat.to_dict()

    cat = builtin(source) if isinstance(source, str) else source
    return {
        "source": node(source),
        "target": node(target),
        "omap": {a: obj(a) for a in cat.objects},
        "mmap": {m.name: mor(m.name) for m in cat.morphisms},
    }


def _odd_chaotic() -> dict:
    """chaotic(12) with quoted, backslashed, non-ASCII names."""
    cat = chaotic_category(12)
    obj = {a: f'ö"{a}' for a in cat.objects}
    mor = {m.name: f'μ"{m.name}\\' for m in cat.morphisms}
    odd = FinCat(
        [obj[a] for a in cat.objects],
        [(mor[m.name], obj[m.dom], obj[m.cod]) for m in cat.morphisms],
        {obj[a]: mor[i] for a, i in cat.identity.items()},
        {(mor[g], mor[f]): mor[gf] for g, row in cat.rows.items() for f, gf in row.items()},
    )
    return {**odd.to_dict(), "label": "odd_chaotic"}


def _longest_corpus_tower() -> dict:
    base, maps = corpus_towers()[-1]
    maps = [_functor_file(f.source, f.target, f.ob, f.mor) for f in maps]
    return {"base": base.to_dict(), "maps": maps}


def _chosen(kind: str):
    return partial(_sample, "fragment.json", lambda d: d.update(chosen=kind, label=f"core-{kind}"))


ENVELOPE_INPUTS = {
    "partial_arrow": partial(_sample, "arrow.json", lambda d: d["comp"].pop()),
    "interleaved_boundary": partial(interleaved_chain_table, {("i2", "c"): "a", ("b", "a"): "b"}),
    "interleaved_not_a_morphism": partial(
        interleaved_chain_table, {("i2", "c"): "yy", ("b", "a"): "zz"}
    ),
    "nowhere_fragment": partial(
        _sample, "fragment.json", lambda d: d["objects"].__setitem__(1, "builtin:nowhere")
    ),
    "longest_tower": _longest_corpus_tower,
    "odd_chaotic": _odd_chaotic,
    **{f"{kind}_fragment": _chosen(kind) for kind in ("representable", "discrete", "equivalences")},
    "id_chaotic2": partial(_functor_file, "chaotic(2)", "chaotic(2)"),
    "id_cyclic3": lambda: _functor_file(cyclic_group_category(3), cyclic_group_category(3)),
    "id_chaotic32": partial(_functor_file, "chaotic(32)", "chaotic(32)"),
    **{
        name: partial(_functor_file, source, target, lambda a, x=x: x, lambda m, y=y: y)
        for name, source, target, x, y in [
            ("point_into_chaotic2", "terminal", "chaotic(2)", "0", "u0_0"),
            ("chaotic2_to_point", "chaotic(2)", "terminal", "*", "id_*"),
            ("chaotic2_onto_0", "chaotic(2)", "chaotic(2)", "0", "u0_0"),
        ]
    },
    "chaotic2_onto_cyclic2": lambda: _functor_file(
        "chaotic(2)", cyclic_group_category(2), lambda a: "*",
        lambda m: "g1" if m == "u0_1" else "g0",
    ),
}


def write_envelope_inputs(directory: Path) -> None:
    """Write each input of ``ENVELOPE_INPUTS`` to ``directory`` as
    ``<name>.json`` and link ``sample_data`` there: the rows' argv name
    their files relative to that directory."""
    (directory / "sample_data").symlink_to(SAMPLE_DATA)
    for name, make in ENVELOPE_INPUTS.items():
        (directory / f"{name}.json").write_text(json.dumps(make()))


def envelope_row(argv: list[str], code: int, stdout: str, stderr: str) -> dict:
    """The row of ``envelopes.json`` that one run of ``fincat argv`` makes:
    the argv, the exit code, and the refusal on stderr (exit 2), the result
    of a law error exactly (exit 1), or else the sha256 of
    ``json.dumps(result, sort_keys=True)``, of the list of results when the
    run printed several envelopes."""
    row = {"argv": argv, "exit": code}
    if code == 2:
        return row | {"refusal": json.loads(stderr.strip().splitlines()[-1])}
    results = [json.loads(line)["result"] for line in stdout.splitlines()]
    assert results, f"exit {code} and no envelope: {stderr}"
    if code == 1 and len(results) == 1 and set(results[0]) == {"error", "detail"}:
        return row | {"result": results[0]}
    result = results[0] if len(results) == 1 else results
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    return row | {"sha256": digest}
