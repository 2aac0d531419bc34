"""Finite categories presented by explicit composition tables.

Objects and morphisms are identified by strings.  A category carries its
whole composition table, by rows, so every law is checked by a finite scan
and every construction layered on top stays total and decidable.  Values
are immutable once built; no operation mutates its arguments.
"""
from __future__ import annotations

import copy
import hashlib
import json
import re
from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, product, repeat
from json.encoder import encode_basestring_ascii
from operator import getitem, itemgetter
from typing import Iterator, NamedTuple, Sequence


# ---------------------------------------------------------------------------
# Errors


class FinCatError(Exception):
    """Base class for structured errors raised by this package."""


class StructureError(FinCatError):
    """Raw data is not even shaped like a category/functor/transformation."""


class AssociativityViolation(FinCatError):
    def __init__(self, h: str, g: str, f: str, left: str, right: str):
        self.triple = (h, g, f)
        self.left, self.right = left, right
        super().__init__(
            f"comp({h},comp({g},{f})) = {left} but comp(comp({h},{g}),{f}) = {right}"
        )


class IdentityViolation(FinCatError):
    def __init__(self, morphism: str, side: str, got: str):
        self.morphism = morphism
        super().__init__(f"identity law fails at {morphism} ({side}): got {got}")


class BoundaryViolation(FinCatError):
    def __init__(self, g: str, f: str, composite: str, reason: str):
        super().__init__(f"comp({g},{f}) = {composite}: {reason}")


class NotFunctorial(FinCatError):
    def __init__(self, reason: str, locus=None):
        self.locus = locus
        super().__init__(reason)


class NotNatural(FinCatError):
    def __init__(self, morphism: str, detail: str = ""):
        super().__init__(f"naturality fails at {morphism}" + (f": {detail}" if detail else ""))


class NotInvertible(FinCatError):
    def __init__(self, obj: str):
        self.obj = obj
        super().__init__(f"component at {obj} is not an isomorphism")


class UnknownBuiltin(FinCatError):
    pass


class UnknownName(FinCatError):
    pass


class NotIdempotent(FinCatError):
    pass


class NotIsofibration(FinCatError):
    def __init__(self, obj: str, iso: str):
        super().__init__(f"no lift of {iso} at {obj}")


class WitnessInvalid(FinCatError):
    pass


class BoundExceeded(FinCatError):
    pass


class BudgetExceeded(FinCatError):
    pass


class EnumerationBudgetExceeded(BudgetExceeded):
    def __init__(self, bound: int, required: int, what: str = "enumeration"):
        self.bound, self.required = bound, required
        super().__init__(f"{what} needs {required} candidates, budget is {bound}")


# ---------------------------------------------------------------------------
# Locating input errors: each loader of a JSON node takes the node's path
# ``at`` ("" at the root of a file), and each StructureError it raises
# starts with the path of the node at fault (``i.source.comp: missing``).


def at_key(at: str, key) -> str:
    """The path of entry ``key`` of the node at ``at``: ``comp[3]``, ``i.source``."""
    return f"{at}[{key}]" if isinstance(key, int) else f"{at}.{key}" if at else key


def refused(at: str, message: str) -> StructureError:
    return StructureError(f"{at}: {message}" if at else message)


def field(node, key: str, at: str, kind=object, what="", of=None, default=...):
    """``node[key]`` of the JSON object at ``at``, or ``default`` when it is
    absent; refused at the field's path when it is absent with no default,
    or is not a ``kind`` whose items (values, of a mapping) are ``of``s."""
    if type(node) is not dict and not isinstance(node, Mapping):
        raise refused(at, "expected a JSON object")
    if key not in node:
        if default is ...:
            raise refused(at_key(at, key), "missing")
        return default
    value = node[key]
    if not isinstance(value, kind) or of and not all(
        map(isinstance, value if kind is list else value.values(), repeat(of))
    ):
        raise refused(at_key(at, key), f"expected {what}")
    return value


# ---------------------------------------------------------------------------
# Bounds


@dataclass(frozen=True)
class Bounds:
    """The caps that keep finite constructions finite.

    ``budget`` caps the candidates a power enumerates
    (``funcat.functor_category``), ``tower`` the length of a tower
    (``limits.tower_limit``, and the towers ``cosmos.check_fragment``
    samples), and ``word`` the length of the words a classifying category
    is computed over (``nerve.rewrite_system``).  Each is read where it is
    spent, from the innermost :func:`bounded` scope; outside every scope
    the bounds are these defaults.  The CLI opens one scope per command from
    its global flags, and a fragment's ``power_budget`` and ``tower_bound``
    open a nested one."""

    budget: int = 20_000
    tower: int = 4
    word: int = 4


_BOUNDS: ContextVar[Bounds] = ContextVar("bounds", default=Bounds())


def bounds() -> Bounds:
    """The bounds of the innermost open scope."""
    return _BOUNDS.get()


@contextmanager
def bounded(**changes):
    """Open a scope with the enclosing bounds but for ``changes``; the
    enclosing bounds come back when it closes, also on an exception."""
    token = _BOUNDS.set(replace(_BOUNDS.get(), **changes))
    try:
        yield _BOUNDS.get()
    finally:
        _BOUNDS.reset(token)


# ---------------------------------------------------------------------------
# Categories


class cached_property:
    """``functools.cached_property`` without the lock that it takes on every
    first read before Python 3.12, which a search pays thousands of times:
    the value is computed on first read and kept in the instance's
    ``__dict__``, where later reads find it first.  A read that raises keeps
    nothing; two threads reading a value first at once may each compute it."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Morphism(NamedTuple):
    name: str
    dom: str
    cod: str


def composable_rows(morphisms) -> Iterator[tuple[Morphism, list[Morphism]]]:
    """Each g of a morphism list in order, with the morphisms into dom g in
    order, when there are any: the rows of a composition table.  Builders
    of tables walk this instead of testing all pairs."""
    into: dict[str, list[Morphism]] = {}
    for m in morphisms:
        into.setdefault(m.cod, []).append(m)
    for g in morphisms:
        if g.dom in into:
            yield g, into[g.dom]


def _canon_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class _JsonStrings(dict):
    """Each name's JSON string literal, as :func:`_canon_json` writes it,
    encoded on first lookup."""

    def __missing__(self, name: str) -> str:
        text = self[name] = encode_basestring_ascii(name)
        return text


class FinCat:
    """A finite category: objects, morphisms, identities, and a composition
    table on exactly the composable pairs, stored by rows, ``rows[g][f] =
    g∘f``, in the order given; ``comp`` is a dict ``(g, f) ↦ g∘f`` built
    from them on first read, for readers outside the package.

    The constructor stores ``rows``, or groups ``comp`` (a mapping ``(g, f)
    ↦ g∘f``) into rows, and checks nothing: the builders of this package
    make lawful tables by construction.  :func:`validate_category` checks a
    table read from outside, its shape first and then the laws.
    """

    def __init__(self, objects, morphisms, identity, comp=None, label: str = "cat", rows=None):
        self.objects: tuple[str, ...] = tuple(objects)
        self.morphisms: tuple[Morphism, ...] = tuple(
            m if isinstance(m, Morphism) else Morphism(*m) for m in morphisms
        )
        self.identity: dict[str, str] = dict(identity)
        if rows is None:
            rows = {}
            for key, gf in (comp or {}).items():
                try:
                    g, f = key
                except (TypeError, ValueError):
                    raise StructureError(f"{label}: comp key {key!r} is not a pair") from None
                rows.setdefault(g, {})[f] = gf
        self.rows: dict[str, dict[str, str]] = rows
        self.label = label

    # -- lookups ------------------------------------------------------------

    @cached_property
    def _by_name(self) -> dict[str, Morphism]:
        return {m.name: m for m in self.morphisms}

    @cached_property
    def obj_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.objects)}

    def mor(self, name: str) -> Morphism:
        return self._by_name[name]

    def has_mor(self, name: str) -> bool:
        return name in self._by_name

    def dom(self, name: str) -> str:
        return self._by_name[name].dom

    def cod(self, name: str) -> str:
        return self._by_name[name].cod

    def id_of(self, obj: str) -> str:
        return self.identity[obj]

    def compose(self, g: str, f: str) -> str:
        """g∘f: first f, then g."""
        return self.rows[g][f]

    @cached_property
    def comp(self) -> dict[tuple[str, str], str]:
        """The table as a dict ``(g, f) ↦ g∘f``, in row order."""
        return {(g, f): gf for g, row in self.rows.items() for f, gf in row.items()}

    @cached_property
    def _hom_table(self) -> dict[tuple[str, str], tuple[str, ...]]:
        table: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            table.setdefault((m.dom, m.cod), []).append(m.name)
        return {k: tuple(v) for k, v in table.items()}

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self._hom_table.get((a, b), ())

    @cached_property
    def _into_table(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {a: [] for a in self.objects}
        for m in self.morphisms:
            table[m.cod].append(m.name)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def _from_table(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {a: [] for a in self.objects}
        for m in self.morphisms:
            table[m.dom].append(m.name)
        return {k: tuple(v) for k, v in table.items()}

    def morphisms_into(self, b: str) -> tuple[str, ...]:
        return self._into_table[b]

    def morphisms_from(self, a: str) -> tuple[str, ...]:
        return self._from_table[a]

    @cached_property
    def identity_names(self) -> frozenset[str]:
        return frozenset(self.identity.values())

    def is_identity(self, name: str) -> bool:
        return name in self.identity_names

    @cached_property
    def _inverse(self) -> dict[str, str]:
        inv: dict[str, str] = {}
        for m in self.morphisms:
            for n_name in self.hom(m.cod, m.dom):
                if (
                    self.compose(n_name, m.name) == self.id_of(m.dom)
                    and self.compose(m.name, n_name) == self.id_of(m.cod)
                ):
                    inv[m.name] = n_name
                    break
        return inv

    def is_iso(self, name: str) -> bool:
        return name in self._inverse

    def inverse(self, name: str) -> str:
        return self._inverse[name]

    @cached_property
    def isos(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.morphisms if m.name in self._inverse)

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        """Pairs (g, f) with dom g = cod f, in stored order."""
        for g in self.morphisms:
            for f in self._into_table[g.dom]:
                yield (g.name, f)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def is_discrete(self) -> bool:
        return all(self.is_identity(m.name) for m in self.morphisms)

    # -- identity / serialization --------------------------------------------

    def to_dict(self) -> dict:
        rows = self.rows
        return {
            "objects": list(self.objects),
            "morphisms": [{"name": m.name, "dom": m.dom, "cod": m.cod} for m in self.morphisms],
            "identity": dict(self.identity),
            "comp": [
                {"g": g, "f": f, "gf": rows[g][f]} for g in sorted(rows) for f in sorted(rows[g])
            ],
        }

    @cached_property
    def key(self) -> str:
        """Canonical serialization; equal categories have equal keys.

        This is the canonical JSON of :meth:`to_dict` (sorted keys, no
        spaces, ASCII escapes), written directly: each name is encoded once,
        and the composites are written by rows, g in name order and f in
        name order within a row, which is the order of
        ``sorted(comp.items())``."""
        name = _JsonStrings().__getitem__

        def entries(table: dict[str, str], middle: str, between: str) -> str:
            """K + middle + V for each entry in key order, joined by ``between``."""
            keys = sorted(table)
            values = map(name, map(table.__getitem__, keys))
            return between.join(map(middle.join, zip(map(name, keys), values)))

        rows = self.rows
        # an entry {"f":F,"g":G,"gf":GF} is F + ',"g":G,"gf":' + GF between
        # the '{"f":' and '}' that all entries share
        comp = '},{"f":'.join(
            entries(rows[g], f',"g":{name(g)},"gf":', '},{"f":') for g in sorted(rows)
        )
        morphisms = ",".join(
            f'{{"cod":{name(m.cod)},"dom":{name(m.dom)},"name":{name(m.name)}}}'
            for m in self.morphisms
        )
        return (
            '{"comp":[' + ('{"f":' + comp + "}" if rows else "")
            + '],"identity":{' + entries(self.identity, ":", ",")
            + '},"morphisms":[' + morphisms
            + '],"objects":[' + ",".join(map(name, self.objects)) + "]}"
        )

    @cached_property
    def digest(self) -> str:
        return hashlib.sha256(self.key.encode()).hexdigest()

    def relabel(self, label: str) -> "FinCat":
        """The same category under another label, of the same class and
        with the same extra data (such as a tuple category's parts).  The
        copy shares the tables of ``self``: the two compare equal without a
        scan, and a tuple category's composites are filled once for both."""
        out = copy.copy(self)
        out.label = label
        return out

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinCat):
            return NotImplemented
        # a relabelled copy shares its source's tables (see relabel)
        if self.morphisms is other.morphisms and self.identity is other.identity:
            return True
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.rows == other.rows
        )

    @cached_property
    def _hash(self) -> int:
        # equal categories have equal names, so this agrees with ``==``
        # without the digest's serialization
        return hash((self.objects, self.morphisms))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinCat({self.label!r}, {self.n_objects} objects, {self.n_morphisms} morphisms)"


def _report_order(cat: FinCat, entries) -> Iterator[tuple[str, str]]:
    """The pairs (g, f) in the order a failure is reported in: the file's or the category's."""
    return cat.composable_pairs() if entries is None else ((e["g"], e["f"]) for e in entries)


def _check_structure(cat: FinCat, entries, where: str) -> None:
    """Raise :class:`StructureError` unless the tables are shaped like a
    category: distinct names, known endpoints, total ``identity`` and rows.
    Each message starts with ``where``."""
    if len(set(cat.objects)) != len(cat.objects):
        raise StructureError(f"{where}: duplicate object names")
    names = [m.name for m in cat.morphisms]
    if len(set(names)) != len(names):
        raise StructureError(f"{where}: duplicate morphism names")
    by_name = {m.name: m for m in cat.morphisms}
    objs = set(cat.objects)
    for m in cat.morphisms:
        if m.dom not in objs or m.cod not in objs:
            raise StructureError(f"{where}: morphism {m.name} has unknown endpoint")
    if set(cat.identity) != objs:
        raise StructureError(f"{where}: identity map must cover exactly the objects")
    for a, i in cat.identity.items():
        m = by_name.get(i)
        if m is None or m.dom != a or m.cod != a:
            raise StructureError(f"{where}: identity of {a} is not an endomorphism of {a}")

    # each object has its identity, so each morphism g has a row, whose
    # keys are the morphisms into dom g
    rows = cat.rows
    into = {a: set(fs) for a, fs in cat._into_table.items()}
    if rows.keys() != by_name.keys() or any(
        row.keys() != into[by_name[g].dom] for g, row in rows.items()
    ):
        composable_set = set(cat.composable_pairs())
        table = {(g, f) for g, row in rows.items() for f in row}
        missing = composable_set - table
        extra = table - composable_set
        raise StructureError(
            f"{where}: comp must be defined on exactly the composable pairs"
            f" (missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
        )
    if not set(by_name).issuperset(chain.from_iterable(map(dict.values, rows.values()))):
        for g, f in _report_order(cat, entries):
            value = rows[g][f]
            if value not in by_name:
                raise StructureError(f"{where}: comp{(g, f)} = {value} is not a morphism")


def _generators(cat: FinCat) -> list[str]:
    """A generating set of ``cat``, chosen greedily: walk ``cat.morphisms``
    in order and keep a morphism unless it is already a composite
    s1∘(s2∘(…∘x)) of kept ones with x an identity.

    The closure is grown by left extension only.  Keeping s adds s∘x for
    every closed x into dom s; every new word y is then extended by g∘y for
    every kept g out of cod y.  Each closed word is so extended once.
    Needs the identity laws: s itself is closed as s∘1."""
    rows = cat.rows
    closed = set(cat.identity_names)
    closed_into: dict[str, list[str]] = {a: [i] for a, i in cat.identity.items()}
    gens_from: dict[str, list[str]] = {a: [] for a in cat.objects}
    gens: list[str] = []
    for m in cat.morphisms:
        if m.name in closed:
            continue
        gens.append(m.name)
        gens_from[m.dom].append(m.name)
        todo = list(map(rows[m.name].__getitem__, closed_into[m.dom]))
        while todo:
            y = todo.pop()
            if y in closed:
                continue
            closed.add(y)
            c = cat.cod(y)
            closed_into[c].append(y)
            todo.extend(rows[g][y] for g in gens_from[c])
    return gens


def _scan_associativity(cat: FinCat) -> None:
    """Raise the first violation of (h∘g)∘f = h∘(g∘f) over all composable
    triples, in the order h, then g into dom h, then f into dom g."""
    for h in cat.morphisms:
        for g in cat.morphisms_into(h.dom):
            hg = cat.compose(h.name, g)
            for f in cat.morphisms_into(cat.dom(g)):
                left = cat.compose(h.name, cat.compose(g, f))
                right = cat.compose(hg, f)
                if left != right:
                    raise AssociativityViolation(h.name, g, f, left, right)


def _associative_at_generators(cat: FinCat) -> bool:
    """Light's associativity test: (h∘s)∘f = h∘(s∘f) for every generator s
    of :func:`_generators`, every h out of cod s and every f into dom s.

    This decides associativity once the identity laws hold (Clifford &
    Preston, *The Algebraic Theory of Semigroups* I, §1.2).  Let T be the
    set of middles a with (x∘a)∘y = x∘(a∘y) for all composable x, y.

    * T contains the identities: (x∘1)∘y = x∘y = x∘(1∘y).
    * T is closed under composition: for a, b ∈ T and composable x, y,
      (x∘(a∘b))∘y = ((x∘a)∘b)∘y     (a ∈ T)
                  = (x∘a)∘(b∘y)     (b ∈ T)
                  = x∘(a∘(b∘y))     (a ∈ T)
                  = x∘((a∘b)∘y)     (b ∈ T).

    So once the generators lie in T, T contains their closure under
    composition, which holds every left-extended word s1∘(…∘(sk∘1)) and
    hence, by the choice of the generators, every morphism.

    For each s and h the test is two row gathers: the row of h∘s read at
    the f into dom s against the row of h read at the s∘f."""
    rows = cat.rows
    for s in _generators(cat):
        m = cat.mor(s)
        # dom s has its identity, so ``into`` is never empty; with one entry
        # both getters return a name rather than a tuple
        into = cat.morphisms_into(m.dom)
        at_f = itemgetter(*into)
        at_sf = itemgetter(*map(rows[s].__getitem__, into))
        for h in cat.morphisms_from(m.cod):
            row_h = rows[h]
            if at_f(rows[row_h[s]]) != at_sf(row_h):
                return False
    return True


def _refuse_entries(at: str, entries, fields: tuple[str, ...], pairs: bool = False) -> None:
    """Raise at the first entry of the raw list at ``at`` that is not an
    object of strings under ``fields`` or, with ``pairs``, repeats the first
    two of an earlier one: ``comp[4]: (a, id_0) is listed twice``."""
    seen = set()
    for k, entry in enumerate(entries):
        g, f, _ = (field(entry, name, at_key(at, k), str, "a string") for name in fields)
        if pairs and (g, f) in seen:
            raise refused(at_key(at, k), f"({g}, {f}) is listed twice")
        seen.add((g, f))


def validate_category(raw, at: str = "") -> FinCat:
    """Check a category's shape and laws and return the verified category.

    Accepts either a :class:`FinCat` or a raw dict in the file format
    (``objects`` / ``morphisms`` / ``identity`` / ``comp``), whose names
    must all be strings and whose ``comp`` lists each pair once; ``at`` is
    the JSON path of a raw table.  Raises :class:`StructureError` on a
    malformed table, located by its path (``comp[3].gf: expected a
    string``, ``bottom.source.objects: expected a list of object names``),
    then :class:`BoundaryViolation`, :class:`IdentityViolation` or
    :class:`AssociativityViolation` with the offending entry; a ``comp``
    entry is the first at fault in the file's order, though the table is
    checked a row at a time.  Associativity is checked at a generating set only
    (:func:`_associative_at_generators`); when that check fails, the scan
    of every composable triple finds the first violating triple to report.
    """
    if isinstance(raw, FinCat):
        cat, entries = raw, None
    else:
        # a string or an object would be taken as its characters or keys,
        # and dict() would also take a list of pairs
        objects = field(raw, "objects", at, list, "a list of object names", of=str)
        identity = field(raw, "identity", at, Mapping, "an object of morphism names", of=str)
        label = field(raw, "label", at, str, "a string", default="cat")
        listed = field(raw, "morphisms", at, list, "a list of morphisms")
        entries = field(raw, "comp", at, list, "a list of composition entries")
        # the lists are read on a fast path that a malformed entry cuts
        # short; a count shows it and a walk locates it (a name of another
        # type would reach the key's string encoder); comp goes straight
        # into rows, where a repeated pair counts once
        morphisms, rows = [], {}
        try:
            for m in listed:
                name, dom, cod = m["name"], m["dom"], m["cod"]
                if not (isinstance(name, str) and isinstance(dom, str) and isinstance(cod, str)):
                    break
                morphisms.append((name, dom, cod))
            for e in entries:
                g, f, gf = e["g"], e["f"], e["gf"]
                if not (isinstance(g, str) and isinstance(f, str) and isinstance(gf, str)):
                    break
                try:
                    rows[g][f] = gf
                except KeyError:
                    rows[g] = {f: gf}
        except (KeyError, TypeError):  # an entry that is not an object of its three names
            pass
        if len(morphisms) != len(listed):
            _refuse_entries(at_key(at, "morphisms"), listed, ("name", "dom", "cod"))
        if sum(map(len, rows.values())) != len(entries):
            _refuse_entries(at_key(at, "comp"), entries, ("g", "f", "gf"), pairs=True)
        cat = FinCat(objects, morphisms, identity, label=label, rows=rows)
    _check_structure(cat, entries, at or cat.label)

    # dom(g∘f) = dom f and cod(g∘f) = cod g, a row at a time, then located
    dom = {m.name: m.dom for m in cat.morphisms}.__getitem__
    cod = {m.name: m.cod for m in cat.morphisms}.__getitem__
    if not all(
        list(map(dom, row.values())) == list(map(dom, row))
        and list(map(cod, row.values())).count(cod(g)) == len(row)
        for g, row in cat.rows.items()
    ):
        for g, f in _report_order(cat, entries):
            gf = cat.compose(g, f)
            if dom(gf) != dom(f):
                raise BoundaryViolation(g, f, gf, f"dom is {dom(gf)}, expected {dom(f)}")
            if cod(gf) != cod(g):
                raise BoundaryViolation(g, f, gf, f"cod is {cod(gf)}, expected {cod(g)}")
    for m in cat.morphisms:
        left = cat.compose(cat.id_of(m.cod), m.name)
        if left != m.name:
            raise IdentityViolation(m.name, "left", left)
        right = cat.compose(m.name, cat.id_of(m.dom))
        if right != m.name:
            raise IdentityViolation(m.name, "right", right)
    if not _associative_at_generators(cat):
        _scan_associativity(cat)
    return cat


# ---------------------------------------------------------------------------
# Functors


class FinFunctor:
    """A map of finite categories, given by object and morphism tables.  The
    constructor copies them and checks nothing (see :func:`validate_functor`)."""

    def __init__(self, source: FinCat, target: FinCat, omap, mmap, label: str = "functor"):
        self.source = source
        self.target = target
        self.omap: dict[str, str] = dict(omap)
        self.mmap: dict[str, str] = dict(mmap)
        self.label = label

    def ob(self, a: str) -> str:
        return self.omap[a]

    def mor(self, m: str) -> str:
        return self.mmap[m]

    def then(self, other: "FinFunctor") -> "FinFunctor":
        """other ∘ self (apply self first)."""
        if other.source != self.target:
            raise StructureError(f"cannot compose {self.label} with {other.label}")
        omap, mmap = other.omap, other.mmap
        return FinFunctor(
            self.source,
            other.target,
            {a: omap[x] for a, x in self.omap.items()},
            {m: mmap[n] for m, n in self.mmap.items()},
            label=f"{other.label}∘{self.label}",
        )

    def is_identity(self) -> bool:
        return (
            self.source == self.target
            and all(a == x for a, x in self.omap.items())
            and all(m == n for m, n in self.mmap.items())
        )

    def injective_on_objects(self) -> bool:
        return len(set(self.omap.values())) == self.source.n_objects

    @cached_property
    def key(self) -> str:
        return _canon_json(
            {
                "source": self.source.digest,
                "target": self.target.digest,
                "omap": self.omap,
                "mmap": self.mmap,
            }
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinFunctor):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.omap == other.omap
            and self.mmap == other.mmap
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FinFunctor({self.label!r}: {self.source.label} -> {self.target.label})"


def identity_functor(cat: FinCat) -> FinFunctor:
    return FinFunctor(
        cat,
        cat,
        {a: a for a in cat.objects},
        {m.name: m.name for m in cat.morphisms},
        label=f"1_{cat.label}",
    )


def validate_functor(F: FinFunctor, at: str = "") -> FinFunctor:
    """Check that the tables are total and land in the target
    (:class:`StructureError`, starting with the JSON path ``at`` of a
    functor read from a file, else with its label), then the laws
    (:class:`NotFunctorial`)."""
    src, dst, where = F.source, F.target, at or F.label
    if set(F.omap) != set(src.objects):
        raise StructureError(f"{where}: object map must cover exactly the source objects")
    if set(F.mmap) != {m.name for m in src.morphisms}:
        raise StructureError(f"{where}: morphism map must cover exactly the source morphisms")
    for a, x in F.omap.items():
        if x not in dst.obj_index:
            raise StructureError(f"{where}: {a} maps to unknown object {x}")
    for m, n in F.mmap.items():
        if not dst.has_mor(n):
            raise StructureError(f"{where}: {m} maps to unknown morphism {n}")
    for m in src.morphisms:
        n = dst.mor(F.mor(m.name))
        if n.dom != F.ob(m.dom) or n.cod != F.ob(m.cod):
            raise NotFunctorial(
                f"{F.label}: image of {m.name} has wrong boundary", locus=m.name
            )
    for a in src.objects:
        if F.mor(src.id_of(a)) != dst.id_of(F.ob(a)):
            raise NotFunctorial(f"{F.label}: identity of {a} not preserved", locus=a)
    for g, f in src.composable_pairs():
        if F.mor(src.compose(g, f)) != dst.compose(F.mor(g), F.mor(f)):
            raise NotFunctorial(
                f"{F.label}: composition not preserved at ({g},{f})", locus=(g, f)
            )
    return F


# ---------------------------------------------------------------------------
# Natural transformations


class NatTrans:
    """A natural transformation between parallel functors, stored as a
    components table indexed by source objects.  The constructor copies it
    and checks nothing (see :func:`validate_transformation`)."""

    def __init__(self, source: FinFunctor, target: FinFunctor, components, label: str = "nat"):
        self.source = source
        self.target = target
        self.components: dict[str, str] = dict(components)
        self.label = label

    @property
    def category(self) -> FinCat:
        """The category the components live in."""
        return self.source.target

    def component(self, obj: str) -> str:
        return self.components[obj]

    def then(self, other: "NatTrans") -> "NatTrans":
        """Vertical composite other ∘ self."""
        if other.source != self.target:
            raise StructureError("vertical composite of non-adjacent transformations")
        cat = self.category
        return NatTrans(
            self.source,
            other.target,
            {a: cat.compose(other.component(a), c) for a, c in self.components.items()},
            label=f"{other.label}∘{self.label}",
        )

    def is_identity(self) -> bool:
        cat = self.category
        return self.source == self.target and all(
            cat.is_identity(c) for c in self.components.values()
        )

    def inverse(self) -> "NatTrans":
        cat = self.category
        return NatTrans(
            self.target,
            self.source,
            {a: cat.inverse(c) for a, c in self.components.items()},
            label=f"{self.label}⁻¹",
        )

    def whisker_post(self, H: FinFunctor) -> "NatTrans":
        """H·t : H∘F ⇒ H∘G for H out of the target category."""
        return NatTrans(
            self.source.then(H),
            self.target.then(H),
            {a: H.mor(c) for a, c in self.components.items()},
            label=f"{H.label}·{self.label}",
        )

    def whisker_pre(self, W: FinFunctor) -> "NatTrans":
        """t·W : F∘W ⇒ G∘W for W into the source category."""
        return NatTrans(
            W.then(self.source),
            W.then(self.target),
            {x: self.components[W.ob(x)] for x in W.source.objects},
            label=f"{self.label}·{W.label}",
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, NatTrans):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self):
        return f"NatTrans({self.label!r}: {self.source.label} => {self.target.label})"


def identity_nat(F: FinFunctor) -> NatTrans:
    cat = F.target
    return NatTrans(
        F, F, {a: cat.id_of(F.ob(a)) for a in F.source.objects}, label=f"id_{F.label}"
    )


def validate_transformation(t: NatTrans, invertible: bool = False, at: str = "") -> NatTrans:
    """Check parallelism and total components (:class:`StructureError`,
    starting with the JSON path ``at`` of a transformation read from a
    file, else with its label), then boundaries and naturality; optionally
    require invertibility."""
    F, G, where = t.source, t.target, at or t.label
    if F.source != G.source or F.target != G.target:
        raise StructureError(f"{where}: functors are not parallel")
    if set(t.components) != set(F.source.objects):
        raise StructureError(f"{where}: components must cover exactly the source objects")
    cat = t.category
    for a, c in t.components.items():
        if not cat.has_mor(c):
            raise StructureError(f"{where}: component at {a} is not a morphism")
    for a in F.source.objects:
        c = cat.mor(t.component(a))
        if c.dom != F.ob(a) or c.cod != G.ob(a):
            raise NotNatural(a, "component has wrong boundary")
    for m in F.source.morphisms:
        left = cat.compose(G.mor(m.name), t.component(m.dom))
        right = cat.compose(t.component(m.cod), F.mor(m.name))
        if left != right:
            raise NotNatural(m.name, f"{left} != {right}")
    if invertible:
        for a in F.source.objects:
            if not cat.is_iso(t.component(a)):
                raise NotInvertible(a)
    return t


# ---------------------------------------------------------------------------
# Builtin categories


def thin_category(objects, morphisms, label: str) -> FinCat:
    """The thin category (at most one morphism in each hom) on ``objects``
    and ``morphisms``: the identity of a is the morphism a → a, and g∘f is
    the morphism dom f → cod g.  Raises :class:`StructureError` when a hom
    holds two morphisms or an identity or composite is missing.  The result
    is lawful by construction: with one morphism per hom, both sides of
    every law are the morphism between the same two objects."""
    morphisms = [m if isinstance(m, Morphism) else Morphism(*m) for m in morphisms]
    arrow_of: dict[tuple[str, str], str] = {}
    for m in morphisms:
        if (m.dom, m.cod) in arrow_of:
            raise StructureError(
                f"{label}: {arrow_of[m.dom, m.cod]} and {m.name} share the hom {m.dom} → {m.cod}"
            )
        arrow_of[m.dom, m.cod] = m.name
    try:
        identity = {a: arrow_of[a, a] for a in objects}
        rows = {
            g.name: {f.name: arrow_of[f.dom, g.cod] for f in fs}
            for g, fs in composable_rows(morphisms)
        }
    except KeyError as exc:
        a, b = exc.args[0]
        raise StructureError(
            f"{label}: no morphism {a} → {b} for an identity or composite"
        ) from None
    return FinCat(objects, morphisms, identity, label=label, rows=rows)


def thin_functor(source: FinCat, target: FinCat, omap, label: str) -> FinFunctor:
    """The functor with object map ``omap`` sending each morphism to the
    unique morphism between the images of its endpoints.  Raises
    :class:`StructureError` when that hom of ``target`` is not a singleton.
    Between lawful categories the result is a functor by construction:
    both sides of each law lie in one of those singleton homs."""
    mmap = {}
    for m in source.morphisms:
        images = target.hom(omap[m.dom], omap[m.cod])
        if len(images) != 1:
            raise StructureError(
                f"{label}: {m.name} has {len(images)} candidate images"
                f" {omap[m.dom]} → {omap[m.cod]} in {target.label}, not one"
            )
        mmap[m.name] = images[0]
    return FinFunctor(source, target, omap, mmap, label=label)


class TupleCat(FinCat):
    """A category whose morphisms are tuples of morphisms of ``factors``,
    composed one component at a time, with lookup from parts to names.

    ``objects`` lists ``(name, parts)``: the parts are one object of each
    factor, then any structure the caller carries along (an isocomma's γ, a
    functor's morphism images).  ``morphisms`` lists ``(name, dom, cod,
    parts)`` with one morphism of each factor as parts.  The identity of an
    object is its endomorphism whose parts are the factors' identities, and
    g∘f is the morphism dom f → cod g whose parts are the componentwise
    composites.  With lawful factors the result is lawful by construction,
    since names are determined by endpoints and parts and each law holds
    part by part; its projections are functors for the same reason.

    Inverses are read off the factors: m is invertible exactly when the
    morphism cod m → dom m whose parts are the factors' inverses of m's
    parts exists, and that morphism is its inverse.
    Composites are computed on first use: :meth:`compose` finds g∘f from
    the parts through the factors' ``compose`` and remembers it by rows, and
    the first read of ``rows`` (a digest, ``==``, :func:`validate_category`,
    a search) fills the whole table once, row by row from the factors'
    rows; after that ``compose`` reads the table.  Relabelled copies share
    the filled rows.  The constructor raises :class:`StructureError` when
    two morphisms share endpoints and parts or an identity is missing; a
    missing composite raises it from the first ``compose`` of that pair or
    the first read of ``rows``."""

    def __init__(self, factors, objects, morphisms, label: str):
        self.factors: tuple[FinCat, ...] = tuple(factors)
        objects = list(objects)
        self.obj_parts: dict[str, tuple] = dict(objects)
        self.mor_parts: dict[str, tuple] = {}
        self._obj_lookup = {parts: name for name, parts in objects}
        lookup: dict[tuple, str] = {}
        mors = []
        for name, dom, cod, parts in morphisms:
            if (dom, cod, parts) in lookup:
                raise StructureError(
                    f"{label}: {lookup[dom, cod, parts]} and {name} have the same parts"
                )
            lookup[dom, cod, parts] = name
            self.mor_parts[name] = parts
            mors.append(Morphism(name, dom, cod))
        self._mor_lookup = lookup
        self.label = label
        identities = [X.identity for X in self.factors]
        try:
            identity = {
                o: lookup[o, o, tuple(map(getitem, identities, parts))]
                for o, parts in self.obj_parts.items()
            }
        except KeyError as exc:
            raise self._missing(exc) from None
        # FinCat.__init__ would store ``rows``, which here are filled on
        # first read
        self.objects = tuple(name for name, _ in objects)
        self.morphisms = tuple(mors)
        self.identity = identity
        # g∘f by rows: the composites found so far, then the whole table
        self._known: dict[str, dict[str, str]] = {}
        # the table once filled, shared by relabelled copies, so that the
        # first of them to read ``rows`` fills it for all
        self._filled: list = []

    def _missing(self, exc: KeyError) -> StructureError:
        return StructureError(
            f"{self.label}: an identity or composite is missing (no entry {exc.args[0]})"
        )

    def compose(self, g: str, f: str) -> str:
        try:
            return self._known[g][f]
        except KeyError:
            pass
        mg, mf = self._by_name[g], self._by_name[f]
        if mg.dom != mf.cod:
            raise KeyError((g, f))
        parts = zip(self.factors, self.mor_parts[g], self.mor_parts[f])
        try:
            gf = self._mor_lookup[mf.dom, mg.cod, tuple(X.compose(a, b) for X, a, b in parts)]
        except KeyError as exc:
            raise self._missing(exc) from None
        self._known.setdefault(g, {})[f] = gf
        return gf

    @cached_property
    def rows(self) -> dict[str, dict[str, str]]:
        if not self._filled:
            lookup, mor_parts = self._mor_lookup, self.mor_parts
            factor_rows = [X.rows for X in self.factors]
            rows = {}
            try:
                for g, fs in composable_rows(self.morphisms):
                    # each factor's row of g's part there, read at f's part
                    at = list(map(getitem, factor_rows, mor_parts[g.name]))
                    rows[g.name] = {
                        f.name: lookup[f.dom, g.cod, tuple(map(getitem, at, mor_parts[f.name]))]
                        for f in fs
                    }
            except KeyError as exc:
                raise self._missing(exc) from None
            self._filled.append(rows)
        self._known = self._filled[0]
        return self._known

    @cached_property
    def _inverse(self) -> dict[str, str]:
        inverses = [X._inverse for X in self.factors]
        inv: dict[str, str] = {}
        for m in self.morphisms:
            try:
                parts = tuple(map(getitem, inverses, self.mor_parts[m.name]))
            except KeyError:  # a part is not invertible
                continue
            n = self._mor_lookup.get((m.cod, m.dom, parts))
            if n is not None:
                inv[m.name] = n
        return inv

    def obj_named(self, parts: tuple) -> str:
        return self._obj_lookup[tuple(parts)]

    def mor_named(self, dom: str, cod: str, parts: tuple) -> str:
        return self._mor_lookup[(dom, cod, tuple(parts))]

    def functor_from(self, source: FinCat, obj_parts, mor_parts, label: str) -> FinFunctor:
        """The functor ``source`` → self sending each object x to the object
        whose parts are ``obj_parts[x]``, and each morphism m to the
        morphism between the images of its endpoints whose parts are
        ``mor_parts[m]``: the functor into a limit given by its components."""
        obj_lookup, mor_lookup = self._obj_lookup, self._mor_lookup
        omap = {x: obj_lookup[tuple(obj_parts[x])] for x in source.objects}
        mmap = {
            m.name: mor_lookup[omap[m.dom], omap[m.cod], tuple(mor_parts[m.name])]
            for m in source.morphisms
        }
        return FinFunctor(source, self, omap, mmap, label)

    def projection(self, k: int, label: str) -> FinFunctor:
        """The functor to factor k taking each object and morphism to its
        k-th part."""
        return FinFunctor(
            self,
            self.factors[k],
            {o: parts[k] for o, parts in self.obj_parts.items()},
            {m: parts[k] for m, parts in self.mor_parts.items()},
            label,
        )


def terminal_category() -> FinCat:
    return thin_category(["*"], [("id_*", "*", "*")], "terminal")


def discrete_category(n: int) -> FinCat:
    objs = [str(i) for i in range(n)]
    return thin_category(objs, [(f"id_{a}", a, a) for a in objs], f"discrete({n})")


def arrow_category() -> FinCat:
    """The generic arrow 0 → 1."""
    return thin_category(
        ["0", "1"], [("id_0", "0", "0"), ("id_1", "1", "1"), ("a", "0", "1")], "arrow"
    )


def parallel_pair_category() -> FinCat:
    """The generic parallel pair of arrows 0 ⇉ 1."""
    objs = ["0", "1"]
    morphisms = [
        Morphism("id_0", "0", "0"),
        Morphism("id_1", "1", "1"),
        Morphism("a0", "0", "1"),
        Morphism("a1", "0", "1"),
    ]
    # a0 and a1 compose only with identities
    rows = {
        g.name: {f.name: g.name if f.name.startswith("id") else f.name for f in fs}
        for g, fs in composable_rows(morphisms)
    }
    return FinCat(objs, morphisms, {a: f"id_{a}" for a in objs}, label="parallel_pair", rows=rows)


def free_iso_category() -> FinCat:
    """Two objects joined by a pair of mutually inverse morphisms."""
    return thin_category(
        ["0", "1"],
        [("id_0", "0", "0"), ("id_1", "1", "1"), ("to", "0", "1"), ("fro", "1", "0")],
        "free_iso",
    )


def chaotic_category(n: int) -> FinCat:
    """n objects with exactly one morphism between each ordered pair."""
    objs = [str(i) for i in range(n)]
    morphisms = [(f"u{i}_{j}", str(i), str(j)) for i in range(n) for j in range(n)]
    return thin_category(objs, morphisms, f"chaotic({n})")


_PARAM_RE = re.compile(r"^(discrete|chaotic)\((\d+)\)$")

# Largest composition table a parametrised builtin may declare: chaotic(n)
# has n³ entries and discrete(n) has n.  Checked before anything is built.
BUILTIN_MAX_COMP = 125_000


_FIXED_BUILTINS = {
    "terminal": terminal_category,
    "two_discrete": lambda: discrete_category(2).relabel("two_discrete"),
    "arrow": arrow_category,
    "parallel_pair": parallel_pair_category,
    "free_iso": free_iso_category,
}


@cache
def _fixed_builtin(name: str) -> FinCat:
    return _FIXED_BUILTINS[name]()


def builtin(name: str) -> FinCat:
    """Return a builtin category by name.

    Names: ``terminal``, ``discrete(n)``, ``two_discrete``, ``arrow``,
    ``parallel_pair``, ``free_iso``, ``chaotic(n)``.  The five fixed
    categories are built once and shared, with their digests and derived
    tables, since categories are immutable; ``discrete(n)`` and
    ``chaotic(n)`` are built on each call, so no large table outlives its
    use.
    """
    if name in _FIXED_BUILTINS:
        return _fixed_builtin(name)
    m = _PARAM_RE.match(name.replace(" ", ""))
    if m:
        kind, digits = m.groups()
        if len(digits.lstrip("0")) > 9:  # far over the limit, and int() refuses 4300+ digits
            raise BudgetExceeded(f"builtin {kind}(n) with a {len(digits)}-digit n is too large")
        n = int(digits)
        entries = n**3 if kind == "chaotic" else n
        if entries > BUILTIN_MAX_COMP:
            raise BudgetExceeded(
                f"builtin {kind}({n}) needs {entries} composition entries,"
                f" limit is {BUILTIN_MAX_COMP}"
            )
        maker = discrete_category if kind == "discrete" else chaotic_category
        return maker(n)
    raise UnknownBuiltin(f"no builtin category named {name!r}")


def builtin_functor(name: str) -> FinFunctor:
    """Structural maps used throughout: the injective-on-objects generators
    and a few inclusions.

    Names: ``empty_to_terminal``, ``point_to_iso``, ``discrete_to_arrow``,
    ``collapse_parallel``, ``point_to_arrow_0``, ``point_to_arrow_1``.
    """
    shapes = {
        "empty_to_terminal": (lambda: discrete_category(0), terminal_category, {}),
        "point_to_iso": (terminal_category, free_iso_category, {"*": "0"}),
        "discrete_to_arrow": (lambda: discrete_category(2), arrow_category, {"0": "0", "1": "1"}),
        "collapse_parallel": (parallel_pair_category, arrow_category, {"0": "0", "1": "1"}),
        "point_to_arrow_0": (terminal_category, arrow_category, {"*": "0"}),
        "point_to_arrow_1": (terminal_category, arrow_category, {"*": "1"}),
    }
    if name in shapes:
        source, target, omap = shapes[name]
        return thin_functor(source(), target(), omap, name)
    raise UnknownBuiltin(f"no builtin functor named {name!r}")


LEIBNIZ_GENERATORS = (
    "empty_to_terminal",
    "point_to_iso",
    "discrete_to_arrow",
    "collapse_parallel",
)


# ---------------------------------------------------------------------------
# Constrained enumeration: one backtracking driver
#
# Every backtracking search of the package (functors, isomorphisms,
# simplicial maps, leveled bijections) assigns positions 0..n-1 in a fixed
# order and runs on :func:`_backtrack`, which keeps one candidate generator
# per assigned position on an explicit stack, so no search deepens Python's
# call stack.  A search supplies ``candidates(k)``, a generator over the
# values of position k: before each of its yields it writes that value into
# the search's own state, after the yield it undoes what the next candidate
# would not overwrite, and it reads no state past position k.  Every search
# is a lazy generator and takes no cap: a caller that wants k results takes
# them with ``next`` or ``itertools.islice``, and the search goes no further.
# Natural transformations are not searched position by position: their
# component tuples are filtered from a product of homs by
# :func:`_natural_parts`, for :func:`enumerate_transformations` and for the
# morphisms of a power alike.
#
# In the functor search, objects are assigned first, then the non-identity
# morphisms, each in source order; an identity's image follows from its
# object's.  A composition constraint (g, f, g∘f) with g, f non-identities
# is filed under the position of whichever of g, f, g∘f is assigned last (an
# identity g∘f is known before any morphism), so it is checked exactly once,
# as soon as its three images are known: forward checking in the style of
# VF2 (Cordella et al. 2004).  Constraints with an identity factor hold in
# any lawful target.

_EXHAUSTED = object()


def _backtrack(n: int, candidates) -> Iterator[None]:
    """Walk positions 0..n-1 depth first on a stack of ``candidates(k)``
    generators, yielding once per complete assignment."""
    if n == 0:
        yield
        return
    stack = [candidates(0)]
    while stack:
        if next(stack[-1], _EXHAUSTED) is _EXHAUSTED:
            stack.pop()
        elif len(stack) < n:
            stack.append(candidates(len(stack)))
        else:
            yield


def _hom_profile(cat: FinCat, a: str):
    outs = sorted(len(cat.hom(a, b)) for b in cat.objects)
    ins = sorted(len(cat.hom(b, a)) for b in cat.objects)
    return (len(cat.hom(a, a)), tuple(outs), tuple(ins))


def _search(
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
    for g, row in src.rows.items():
        for f, gf in row.items():
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
    n_objs = len(objs)
    src_id, dst_id, dst_rows, dst_hom = src.identity, dst.identity, dst.rows, dst.hom
    omap: dict[str, str] = {}
    img: dict[str, str] = {}
    # object and morphism images in use on the current path; read only when
    # injective
    taken: set[str] = set()
    used: set[str] = set()

    def candidates(k):
        if k < n_objs:
            a = objs[k]
            id_a = src_id[a]
            for x in obj_candidates[k]:
                if injective and x in taken:
                    continue
                omap[a] = x
                img[id_a] = ident = dst_id[x]
                taken.add(x)
                used.add(ident)
                yield
                taken.discard(x)
                used.discard(ident)
            return
        m = nonid[k - n_objs]
        name, cons, keep = m.name, checks[k - n_objs], allowed.get(m.name)
        for cand in dst_hom(omap[m.dom], omap[m.cod]):
            if (keep is not None and cand not in keep) or (injective and cand in used):
                continue
            img[name] = cand
            if all(dst_rows[img[g]][img[f]] == img[gf] for g, f, gf in cons):
                used.add(cand)
                yield
                used.discard(cand)

    for _ in _backtrack(n_objs + len(nonid), candidates):
        yield FinFunctor(src, dst, omap, {m.name: img[m.name] for m in src.morphisms}, label)


def enumerate_functors(
    src: FinCat,
    dst: FinCat,
    omap_choices: Mapping[str, Sequence[str]] | None = None,
    mmap_choices: Mapping[str, Sequence[str]] | None = None,
) -> Iterator[FinFunctor]:
    """Yield functors src → dst in deterministic index order.

    ``omap_choices`` / ``mmap_choices`` restrict the candidate images of
    particular objects / morphisms.  Identities are forced; each composition
    constraint is checked once, as soon as its images are assigned, so the
    search prunes early.
    """
    yield from _search(src, dst, omap_choices, mmap_choices, False)


def functor_position(F: FinFunctor) -> tuple[int, ...]:
    """F's place in the order in which :func:`enumerate_functors` yields the
    functors ``F.source → F.target``: the index of each object image in
    ``dst.objects``, then the index of each non-identity morphism image in
    its ``dst.hom``.  The search yields in increasing order of this key."""
    src, dst = F.source, F.target
    return tuple(dst.obj_index[F.omap[a]] for a in src.objects) + tuple(
        dst.hom(F.omap[m.dom], F.omap[m.cod]).index(F.mmap[m.name])
        for m in src.morphisms
        if not src.is_identity(m.name)
    )


def enumerate_lifts(
    src: FinCat,
    dst: FinCat,
    under: Sequence[tuple[FinFunctor, FinFunctor]] = (),
    over: Sequence[tuple[FinFunctor, FinFunctor]] = (),
) -> Iterator[FinFunctor]:
    """Yield the functors G : src → dst with G∘i = top for every ``(i, top)``
    in ``under`` and p∘G = bottom for every ``(p, bottom)`` in ``over``, in
    the order of :func:`enumerate_functors`.

    The candidate images are the intersection of the fibres of the ``over``
    pairs (one pass over ``dst`` each), narrowed by each ``under`` pair to
    its forced values; every list keeps ``dst`` order, so the result is the
    subsequence of the unconstrained enumeration that solves the lifting
    problem.  When two constraints disagree a candidate list empties and
    nothing is searched.  Since i keeps identities, a morphism forced onto
    an identity meets that identity's forced value, so the search, which
    sets identities from their objects, never has to check them.
    """
    omap_choices: dict[str, Sequence[str]] = {}
    mmap_choices: dict[str, Sequence[str]] = {}

    def narrow(choices: dict[str, Sequence[str]], key: str, allowed: Sequence[str]) -> None:
        # lists are replaced, never changed in place, so they may be shared
        if key in choices:
            keep = set(allowed)
            choices[key] = [x for x in choices[key] if x in keep]
        else:
            choices[key] = allowed

    for p, bottom in over:
        obj_fibres: dict[str, list[str]] = {}
        mor_fibres: dict[str, list[str]] = {}
        for x in dst.objects:
            obj_fibres.setdefault(p.omap[x], []).append(x)
        for n in dst.morphisms:
            mor_fibres.setdefault(p.mmap[n.name], []).append(n.name)
        for a in src.objects:
            narrow(omap_choices, a, obj_fibres.get(bottom.omap[a], ()))
        for m in src.morphisms:
            narrow(mmap_choices, m.name, mor_fibres.get(bottom.mmap[m.name], ()))
    for i, top in under:
        for a, b in i.omap.items():
            narrow(omap_choices, b, (top.omap[a],))
        for m, n in i.mmap.items():
            narrow(mmap_choices, n, (top.mmap[m],))
    if all(omap_choices.values()) and all(mmap_choices.values()):
        yield from enumerate_functors(src, dst, omap_choices, mmap_choices)


def enumerate_isomorphisms(
    A: FinCat,
    B: FinCat,
    omap_choices: Mapping[str, Sequence[str]] | None = None,
    mmap_choices: Mapping[str, Sequence[str]] | None = None,
) -> Iterator[FinFunctor]:
    """Yield isomorphisms of categories A ≅ B, optionally constrained.

    The functor search restricted to bijections: objects go only to objects
    with the same hom-count profile, and no image is used twice.
    """
    if A.n_objects != B.n_objects or A.n_morphisms != B.n_morphisms:
        return
    yield from _search(A, B, omap_choices, mmap_choices, True)


def find_isomorphism(
    A: FinCat,
    B: FinCat,
    omap_choices: Mapping[str, Sequence[str]] | None = None,
    mmap_choices: Mapping[str, Sequence[str]] | None = None,
) -> FinFunctor | None:
    """First isomorphism A ≅ B in index order, or None."""
    return next(enumerate_isomorphisms(A, B, omap_choices, mmap_choices), None)


def enumerate_transformations(
    F: FinFunctor,
    G: FinFunctor,
    invertible_only: bool = False,
) -> Iterator[NatTrans]:
    """Yield natural transformations F ⇒ G: the component tuples of the
    product of the component homs hom(F a, G a), position 0 outermost, that
    :func:`_natural_parts` keeps."""
    if F.source != G.source or F.target != G.target:
        raise StructureError("transformations need a parallel pair")
    cat, src = F.target, F.source
    at, rows = src.obj_index, cat.rows
    homs = [cat.hom(F.ob(a), G.ob(a)) for a in src.objects]
    if invertible_only:
        homs = [[c for c in hom if cat.is_iso(c)] for hom in homs]
    squares = [
        (at[m.dom], at[m.cod], rows[G.mor(m.name)], F.mor(m.name))
        for m in src.morphisms
        if not src.is_identity(m.name)
    ]
    for parts in _natural_parts(rows, homs, squares):
        yield NatTrans(F, G, zip(src.objects, parts))


def _natural_parts(rows, homs, squares) -> Iterator[tuple[str, ...]]:
    """The component tuples of ``product(*homs)``, position 0 outermost,
    that make every naturality square ``(d, e, row of g, f)`` commute:
    g∘t[d] == t[e]∘f in the table ``rows``."""
    candidates = product(*homs)
    if not squares:
        return candidates
    return (
        t for t in candidates if all(row[t[d]] == rows[t[e]][f] for d, e, row, f in squares)
    )
