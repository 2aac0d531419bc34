"""Truncated simplicial sets, nerves of finite categories, and classifying
categories by bounded word rewriting.

Simplicial sets are truncated at dimension 3: nerves of categories are
2-coskeletal, and the classifying category depends only on dimensions up to
2, so nothing is lost at this scale.  The classifying category is computed
by congruence closure over composable words of generators up to a length
bound; a closure that fails to re-express every maximal-length word below
the bound raises ``BoundExceeded`` (which deliberately does not distinguish
"infinite" from "bound too small").
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .core import (
    BoundExceeded,
    FinCat,
    Morphism,
    StructureError,
    _backtrack,
    at_key,
    bounds,
    composable_rows,
    field,
    refused,
)
from .funcat import functor_category

TOP_DIM = 3


@dataclass
class TruncSSet:
    """A simplicial set truncated at dimension 3: simplex name lists per
    dimension plus face and degeneracy tables."""

    simplices: tuple[tuple[str, ...], ...]  # index = dimension, 0..3
    faces: dict[tuple[int, int], dict[str, str]]  # (dim, i): X_dim -> X_{dim-1}
    degeneracies: dict[tuple[int, int], dict[str, str]]  # (dim, i): X_dim -> X_{dim+1}
    label: str = "sset"

    def face(self, dim: int, i: int, s: str) -> str:
        return self.faces[(dim, i)][s]

    def degeneracy(self, dim: int, i: int, s: str) -> str:
        return self.degeneracies[(dim, i)][s]

    def degenerate_names(self, dim: int) -> set[str]:
        """Simplices of the given dimension that are degeneracy images."""
        if dim == 0:
            return set()
        out = set()
        for i in range(dim):
            out.update(self.degeneracies[(dim - 1, i)].values())
        return out

    def nondegenerate(self, dim: int) -> tuple[str, ...]:
        degen = self.degenerate_names(dim)
        return tuple(s for s in self.simplices[dim] if s not in degen)

    def degeneracy_source(self, dim: int, s: str):
        """(i, t) with s = s_i(t), or None if s is nondegenerate."""
        if dim == 0:
            return None
        for i in range(dim):
            for t, img in self.degeneracies[(dim - 1, i)].items():
                if img == s:
                    return (i, t)
        return None

    def to_dict(self) -> dict:
        return {
            "simplices": [list(level) for level in self.simplices],
            "faces": {f"{d},{i}": dict(t) for (d, i), t in sorted(self.faces.items())},
            "degeneracies": {
                f"{d},{i}": dict(t) for (d, i), t in sorted(self.degeneracies.items())
            },
        }


def sset_from_dict(data, label: str = "sset") -> TruncSSet:
    """The simplicial set of the ``to_dict`` form, refused at a node's path."""
    levels = field(data, "simplices", "", list, "a list of simplex lists")
    for dim, level in enumerate(levels):
        if not isinstance(level, list) or not all(isinstance(s, str) for s in level):
            raise refused(at_key("simplices", dim), "expected a list of strings")
    tables = []
    for kind in ("faces", "degeneracies"):
        node = field(data, kind, "", dict, "an object of tables")
        tables.append({})
        for key in node:
            d, _, i = key.partition(",")
            # int() reads 640 digits under the lowest digit limit Python allows
            if not (d.isdecimal() and i.isdecimal()) or max(len(d), len(i)) > 640:
                raise refused(at_key(kind, key), "expected a key dim,i")
            tables[-1][int(d), int(i)] = field(node, key, kind, dict, "simplex names", of=str)
    return TruncSSet(tuple(map(tuple, levels)), *tables, label=label)


def validate_sset(X: TruncSSet) -> TruncSSet:
    """Check that names are distinct in each dimension, totality of the
    tables and all simplicial identities that fit inside the truncation;
    each refusal starts with the label of ``X``."""
    if len(X.simplices) != TOP_DIM + 1:
        raise refused(X.label, "expected simplex lists for dimensions 0..3")
    for dim, level in enumerate(X.simplices):
        if len(set(level)) != len(level):
            twice = next(s for k, s in enumerate(level) if s in level[:k])
            raise refused(X.label, f"simplices {dim}: {twice} is listed twice")
    for dim in range(1, TOP_DIM + 1):
        for i in range(dim + 1):
            table = X.faces.get((dim, i))
            if table is None or set(table) != set(X.simplices[dim]):
                raise refused(X.label, f"face table ({dim},{i}) must cover dimension {dim}")
            for v in table.values():
                if v not in X.simplices[dim - 1]:
                    raise refused(X.label, f"face ({dim},{i}) lands outside dimension {dim-1}")
    for dim in range(0, TOP_DIM):
        for i in range(dim + 1):
            table = X.degeneracies.get((dim, i))
            if table is None or set(table) != set(X.simplices[dim]):
                raise refused(X.label, f"degeneracy table ({dim},{i}) must cover dimension {dim}")
            for v in table.values():
                if v not in X.simplices[dim + 1]:
                    raise refused(
                        X.label, f"degeneracy ({dim},{i}) lands outside dimension {dim+1}"
                    )
    # d_i d_j = d_{j-1} d_i for i < j
    for dim in range(2, TOP_DIM + 1):
        for j in range(dim + 1):
            for i in range(j):
                for s in X.simplices[dim]:
                    left = X.face(dim - 1, i, X.face(dim, j, s))
                    right = X.face(dim - 1, j - 1, X.face(dim, i, s))
                    if left != right:
                        raise refused(X.label, f"d{i} d{j} fails at {s} (dim {dim})")
    # s_i s_j = s_{j+1} s_i for i <= j
    for dim in range(0, TOP_DIM - 1):
        for j in range(dim + 1):
            for i in range(j + 1):
                for s in X.simplices[dim]:
                    left = X.degeneracy(dim + 1, i, X.degeneracy(dim, j, s))
                    right = X.degeneracy(dim + 1, j + 1, X.degeneracy(dim, i, s))
                    if left != right:
                        raise refused(X.label, f"s{i} s{j} fails at {s} (dim {dim})")
    # d_i s_j relations
    for dim in range(0, TOP_DIM):
        for j in range(dim + 1):
            for i in range(dim + 2):
                for s in X.simplices[dim]:
                    got = X.face(dim + 1, i, X.degeneracy(dim, j, s))
                    if i == j or i == j + 1:
                        want = s
                    elif i < j:
                        want = X.degeneracy(dim - 1, j - 1, X.face(dim, i, s))
                    else:
                        want = X.degeneracy(dim - 1, j, X.face(dim, i - 1, s))
                    if got != want:
                        raise refused(X.label, f"d{i} s{j} fails at {s} (dim {dim})")
    return X


# ---------------------------------------------------------------------------
# Standard simplices and products


def standard_simplex(k: int) -> TruncSSet:
    """Δ[k] truncated at dimension 3; simplices are monotone digit strings."""
    if not 0 <= k <= 9:
        raise StructureError("standard simplex parameter out of range")
    simplices = []
    for dim in range(TOP_DIM + 1):
        level = [
            "".join(str(v) for v in word)
            for word in iproduct(range(k + 1), repeat=dim + 1)
            if all(word[t] <= word[t + 1] for t in range(dim))
        ]
        simplices.append(tuple(level))
    faces = {}
    for dim in range(1, TOP_DIM + 1):
        for i in range(dim + 1):
            faces[(dim, i)] = {s: s[:i] + s[i + 1 :] for s in simplices[dim]}
    degeneracies = {}
    for dim in range(0, TOP_DIM):
        for i in range(dim + 1):
            degeneracies[(dim, i)] = {s: s[: i + 1] + s[i:] for s in simplices[dim]}
    return TruncSSet(tuple(simplices), faces, degeneracies, label=f"Δ[{k}]")


def sset_product(X: TruncSSet, Y: TruncSSet) -> TruncSSet:
    """Componentwise product, truncated at dimension 3."""
    simplices = tuple(
        tuple(f"({x},{y})" for x in X.simplices[dim] for y in Y.simplices[dim])
        for dim in range(TOP_DIM + 1)
    )
    pair = {}
    for dim in range(TOP_DIM + 1):
        for x in X.simplices[dim]:
            for y in Y.simplices[dim]:
                pair[(dim, f"({x},{y})")] = (x, y)
    faces = {}
    for dim in range(1, TOP_DIM + 1):
        for i in range(dim + 1):
            faces[(dim, i)] = {
                name: f"({X.face(dim, i, x)},{Y.face(dim, i, y)})"
                for name, (x, y) in ((n, pair[(dim, n)]) for n in simplices[dim])
            }
    degeneracies = {}
    for dim in range(0, TOP_DIM):
        for i in range(dim + 1):
            degeneracies[(dim, i)] = {
                name: f"({X.degeneracy(dim, i, x)},{Y.degeneracy(dim, i, y)})"
                for name, (x, y) in ((n, pair[(dim, n)]) for n in simplices[dim])
            }
    return TruncSSet(simplices, faces, degeneracies, label=f"{X.label}×{Y.label}")


# ---------------------------------------------------------------------------
# Nerve


def nerve_truncated(C: FinCat) -> TruncSSet:
    """Composable chains up to length 3, with composition faces and
    identity-insertion degeneracies."""
    chains1 = [(m.name,) for m in C.morphisms]
    chains2 = [(f.name, g) for f in C.morphisms for g in C.morphisms_from(f.cod)]
    chains3 = [(f, g, h) for (f, g) in chains2 for h in C.morphisms_from(C.cod(g))]

    def name(chain):
        return "(" + ",".join(chain) + ")"

    simplices = (
        tuple(C.objects),
        tuple(name(c) for c in chains1),
        tuple(name(c) for c in chains2),
        tuple(name(c) for c in chains3),
    )
    faces: dict[tuple[int, int], dict[str, str]] = {}
    faces[(1, 0)] = {name((m.name,)): m.cod for m in C.morphisms}
    faces[(1, 1)] = {name((m.name,)): m.dom for m in C.morphisms}
    faces[(2, 0)] = {name(c): name((c[1],)) for c in chains2}
    faces[(2, 1)] = {name(c): name((C.compose(c[1], c[0]),)) for c in chains2}
    faces[(2, 2)] = {name(c): name((c[0],)) for c in chains2}
    faces[(3, 0)] = {name(c): name((c[1], c[2])) for c in chains3}
    faces[(3, 1)] = {name(c): name((C.compose(c[1], c[0]), c[2])) for c in chains3}
    faces[(3, 2)] = {name(c): name((c[0], C.compose(c[2], c[1]))) for c in chains3}
    faces[(3, 3)] = {name(c): name((c[0], c[1])) for c in chains3}
    degeneracies: dict[tuple[int, int], dict[str, str]] = {}
    degeneracies[(0, 0)] = {a: name((C.id_of(a),)) for a in C.objects}
    degeneracies[(1, 0)] = {
        name((m.name,)): name((C.id_of(m.dom), m.name)) for m in C.morphisms
    }
    degeneracies[(1, 1)] = {
        name((m.name,)): name((m.name, C.id_of(m.cod))) for m in C.morphisms
    }
    degeneracies[(2, 0)] = {
        name(c): name((C.id_of(C.dom(c[0])), c[0], c[1])) for c in chains2
    }
    degeneracies[(2, 1)] = {
        name(c): name((c[0], C.id_of(C.cod(c[0])), c[1])) for c in chains2
    }
    degeneracies[(2, 2)] = {
        name(c): name((c[0], c[1], C.id_of(C.cod(c[1])))) for c in chains2
    }
    return TruncSSet(simplices, faces, degeneracies, label=f"N({C.label})")


# ---------------------------------------------------------------------------
# Classifying category by bounded congruence closure


@dataclass
class RewriteSystem:
    """A presentation extracted from a truncated simplicial set: generators
    are the nondegenerate 1-simplices; each 2-simplex contributes the
    relation (long edge) ~ (short edges composed); degenerate edges read as
    empty words.  Words are capped at ``bound``."""

    generators: tuple[str, ...]
    relations: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]
    bound: int
    endpoints: dict


def rewrite_system(X: TruncSSet) -> RewriteSystem:
    """The presentation the classifying category is computed from, with
    words capped at the word bound of :func:`~fincat.core.bounds`."""
    generators = tuple(X.nondegenerate(1))
    gen_set = set(generators)
    endpoints = {e: (X.face(1, 1, e), X.face(1, 0, e)) for e in generators}
    relations = []
    for sigma in X.simplices[2]:
        lhs = _edge_to_word(X.face(2, 2, sigma), gen_set) + _edge_to_word(
            X.face(2, 0, sigma), gen_set
        )
        rhs = _edge_to_word(X.face(2, 1, sigma), gen_set)
        anchor = X.face(1, 1, X.face(2, 2, sigma))
        if lhs != rhs:
            relations.append((anchor, lhs, rhs))
    return RewriteSystem(
        generators=generators,
        relations=tuple(relations),
        bound=bounds().word,
        endpoints=endpoints,
    )


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def _edge_to_word(edge: str, generators: set[str]):
    """A 1-simplex as a path: a generator, or the empty path at its vertex."""
    if edge in generators:
        return (edge,)
    return ()


def classifying_category(X: TruncSSet) -> FinCat:
    """The category presented by the nondegenerate 1-simplices modulo the
    triangle relations of the 2-simplices, computed by congruence closure
    over words no longer than the rewrite system's bound.

    Raises :class:`BoundExceeded` when some maximal-length word has no
    shorter representative or when class composition escapes the bound.
    """
    vertices = list(X.simplices[0])
    system = rewrite_system(X)
    bound = system.bound
    generators = list(system.generators)
    # the representative check below sees only words of length bound > 0
    if bound == 0 and generators:
        raise BoundExceeded(f"generator {generators[0]} is a word longer than the bound 0")
    gen_dom = {e: dom for e, (dom, _) in system.endpoints.items()}
    gen_cod = {e: cod for e, (_, cod) in system.endpoints.items()}

    # enumerate typed words up to the bound
    words: list[tuple[str, tuple[str, ...]]] = [(v, ()) for v in vertices]
    frontier = list(words)
    for _ in range(bound):
        nxt = []
        for anchor, gens in frontier:
            at = gen_cod[gens[-1]] if gens else anchor
            for e in generators:
                if gen_dom[e] == at:
                    nxt.append((anchor, gens + (e,)))
        words.extend(nxt)
        frontier = nxt
    index = {w: i for i, w in enumerate(words)}
    uf = _UnionFind(len(words))

    def vertex_at(word, pos: int) -> str:
        anchor, gens = word
        return anchor if pos == 0 else gen_cod[gens[pos - 1]]

    relations = list(system.relations)

    def apply_rewrites(word_idx: int, word, src, dst, rel_anchor):
        anchor, gens = word
        m = len(src)
        for pos in range(len(gens) - m + 1):
            if tuple(gens[pos : pos + m]) != src:
                continue
            if vertex_at(word, pos) != rel_anchor:
                continue
            new = (anchor, gens[:pos] + dst + gens[pos + m :])
            if len(new[1]) <= bound:
                uf.union(word_idx, index[new])

    for wi, word in enumerate(words):
        for rel_anchor, lhs, rhs in relations:
            apply_rewrites(wi, word, lhs, rhs, rel_anchor)
            apply_rewrites(wi, word, rhs, lhs, rel_anchor)

    # classes and shortest representatives
    classes: dict[int, list[int]] = {}
    for i in range(len(words)):
        classes.setdefault(uf.find(i), []).append(i)
    rep: dict[int, tuple[str, tuple[str, ...]]] = {}
    for root, members in classes.items():
        best = min(members, key=lambda i: (len(words[i][1]), i))
        rep[root] = words[best]
    for i, word in enumerate(words):
        if len(word[1]) == bound and bound > 0:
            if len(rep[uf.find(i)][1]) >= bound:
                raise BoundExceeded(
                    f"word {'.'.join(word[1])} has no representative shorter than the bound {bound}"
                )

    def word_name(word) -> str:
        anchor, gens = word
        return f"[{'·'.join(gens)}]" if gens else f"id@{anchor}"

    def word_endpoints(word):
        anchor, gens = word
        return anchor, (gen_cod[gens[-1]] if gens else anchor)

    roots = sorted(rep, key=lambda r: (index[rep[r]],))
    morphisms = []
    names = {}
    word_of = {}
    for root in roots:
        w = rep[root]
        dom, cod = word_endpoints(w)
        nm = word_name(w)
        morphisms.append(Morphism(nm, dom, cod))
        names[root] = nm
        word_of[nm] = w
    # an edge whose name contains '·' can spell the name of another word
    label = f"Π({X.label})"
    if len(word_of) != len(morphisms):
        raise StructureError(f"{label}: duplicate morphism names")
    identity = {}
    for v in vertices:
        identity[v] = names[uf.find(index[(v, ())])]
    rows = {}
    for g, fs in composable_rows(morphisms):
        row = rows[g.name] = {}
        w1 = word_of[g.name]
        for f in fs:
            w2 = word_of[f.name]
            glued = (w2[0], w2[1] + w1[1])
            if len(glued[1]) > bound:
                raise BoundExceeded(
                    f"composite of {f.name} and {g.name} escapes the bound {bound}"
                )
            row[f.name] = names[uf.find(index[glued])]
    return FinCat(vertices, morphisms, identity, label=label, rows=rows)


# ---------------------------------------------------------------------------
# Truncated simplicial maps and the powers comparison


def truncated_sset_maps(Z: TruncSSet, W: TruncSSet):
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

    assigned: dict[tuple[int, str], str] = {}

    def candidates(k):
        dim, s = slot = slots[k]
        source = degeneracy_of[slot]
        if source is not None:
            i, t = source
            values = [W.degeneracy(dim - 1, i, assigned[(dim - 1, t)])]
        elif dim == 0:
            values = W.simplices[0]
        else:
            wanted = tuple(assigned[(dim - 1, Z.face(dim, i, s))] for i in range(dim + 1))
            values = w_index[dim].get(wanted, ())
        for w in values:
            assigned[slot] = w
            yield

    return [dict(assigned) for _ in _backtrack(len(slots), candidates)]


def _hom_sset_leveled(X: TruncSSet, NY: TruncSSet, dim: int):
    """The hom simplicial set [X, NY] up to the given dimension: level k is
    the set of maps Δ[k]×X → NY; faces/degeneracies act by precomposition
    with the (co)face maps of the simplex factor.

    A map of level k is keyed by its values at the simplices (α, x) of
    Δ[k]×X, dimension by dimension in the order ``sset_product`` lists
    them, so (α, x) sits at α's index in Δ[k] times |X_d| plus x's index."""
    deltas = [standard_simplex(k) for k in range(dim + 1)]
    sizes = [len(level) for level in X.simplices]
    keys = []
    for delta in deltas:
        Z = sset_product(delta, X)
        slots = [(d, s) for d in range(TOP_DIM + 1) for s in Z.simplices[d]]
        keys.append([tuple(m[slot] for slot in slots) for m in truncated_sset_maps(Z, NY)])
    names = [[f"T{k}_{j}" for j in range(len(level))] for k, level in enumerate(keys)]
    lookup = [dict(zip(level, nms)) for level, nms in zip(keys, names)]

    def table(k: int, k_to: int, move) -> dict[str, str]:
        """Each name at level k ↦ the name at level k_to of its map
        precomposed with move×1, where ``move`` sends the simplices of
        Δ[k_to] to those of Δ[k]."""
        gather, base = [], 0
        for d in range(TOP_DIM + 1):
            at = {alpha: i for i, alpha in enumerate(deltas[k].simplices[d])}
            for alpha in deltas[k_to].simplices[d]:
                start = base + at[move(alpha)] * sizes[d]
                gather.extend(range(start, start + sizes[d]))
            base += len(at) * sizes[d]
        return {
            name: lookup[k_to][tuple(key[p] for p in gather)]
            for name, key in zip(names[k], keys[k])
        }

    def coface(i):
        return lambda alpha: "".join(str(int(c) + 1) if int(c) >= i else c for c in alpha)

    def codegeneracy(i):
        return lambda alpha: "".join(str(int(c) - 1) if int(c) > i else c for c in alpha)

    faces = {(k, i): table(k, k - 1, coface(i)) for k in range(1, dim + 1) for i in range(k + 1)}
    degens = {(k, i): table(k, k + 1, codegeneracy(i)) for k in range(dim) for i in range(k + 1)}
    return names, faces, degens


def _leveled_iso(levels1, faces1, degens1, levels2, faces2, degens2, dim: int):
    """Backtracking isomorphism of leveled systems respecting faces and
    degeneracies within range."""
    if any(len(levels1[d]) != len(levels2[d]) for d in range(dim + 1)):
        return None

    slots = [(d, a) for d in range(dim + 1) for a in levels1[d]]
    assign: dict[tuple[int, str], str] = {}
    used: set[tuple[int, str]] = set()

    def candidates(k):
        d, a = slots[k]
        faces = [(faces1[(d, i)][a], faces2[(d, i)]) for i in range(d + 1)] if d else []
        for b in levels2[d]:
            if (d, b) in used or any(assign.get((d - 1, fa)) != f2[b] for fa, f2 in faces):
                continue
            assign[(d, a)] = b
            used.add((d, b))
            yield
            used.discard((d, b))

    for _ in _backtrack(len(slots), candidates):
        # degeneracy tables must also match
        if all(
            assign[(dd + 1, v)] == degens2[(dd, i)][assign[(dd, s)]]
            for (dd, i), table in degens1.items()
            if dd + 1 <= dim
            for s, v in table.items()
        ):
            return dict(assign)
    return None


@dataclass
class PowersReport:
    """Comparison of the hom simplicial set [X, NY] with the nerve of the
    functor category out of the classifying category of X."""

    dims: int
    left_counts: tuple[int, ...]
    right_counts: tuple[int, ...]
    bijection: dict | None

    @property
    def bijection_found(self) -> bool:
        return self.bijection is not None

    @property
    def ok(self) -> bool:
        return self.left_counts == self.right_counts and self.bijection_found

    def to_dict(self) -> dict:
        return {
            "dims": self.dims,
            "left_counts": list(self.left_counts),
            "right_counts": list(self.right_counts),
            "bijection_found": self.bijection_found,
            "bijection": (
                {f"{d}:{a}": b for (d, a), b in sorted(self.bijection.items())}
                if self.bijection is not None
                else None
            ),
        }


def check_powers_iso(X: TruncSSet, Y: FinCat, dim: int = 2) -> PowersReport:
    """Compare [X, N Y] with N [Π X, Y] up to the given dimension (≤ 2),
    looking for a bijection compatible with all faces and degeneracies."""
    if dim < 0:
        raise StructureError(f"dimension {dim} is negative")
    if dim > 2:
        raise StructureError("comparison is supported up to dimension 2")
    NY = nerve_truncated(Y)
    left_levels, left_faces, left_degens = _hom_sset_leveled(X, NY, dim)
    PX = classifying_category(X)
    fc = functor_category(PX, Y)
    right = nerve_truncated(fc)
    right_levels = right.simplices[: dim + 1]
    iso = _leveled_iso(
        left_levels, left_faces, left_degens, right_levels, right.faces, right.degeneracies, dim
    )
    return PowersReport(
        dims=dim,
        left_counts=tuple(len(level) for level in left_levels),
        right_counts=tuple(len(level) for level in right_levels),
        bijection=iso,
    )
