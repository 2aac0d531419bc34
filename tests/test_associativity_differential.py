"""``validate_category`` checks associativity only at a generating set and
falls back to the scan of every composable triple when that check fails.
These tests compare its verdict, and the first violation it reports, with
the reference scan ``helpers.scan_associativity`` on lawful categories and
on tables whose identity laws hold but whose associativity may not."""
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fincat.core import (
    AssociativityViolation,
    FinCat,
    Morphism,
    _generators,
    chaotic_category,
    validate_category,
)
from fincat.corpus import chain_poset, corpus_categories, cyclic_group_category
from helpers import composition_closure, relabeled, scan_associativity


def verdict(cat: FinCat):
    """None if ``validate_category`` passes ``cat``, else the first violation
    it reports.  Every table here satisfies the boundary and identity laws,
    so any other error propagates and fails the test."""
    try:
        validate_category(cat)
    except AssociativityViolation as exc:
        return (type(exc).__name__, *exc.triple, exc.left, exc.right)
    return None


def reference(cat: FinCat):
    found = scan_associativity(cat)
    return None if found is None else ("AssociativityViolation", *found)


def assert_agrees(cat: FinCat):
    assert verdict(cat) == reference(cat)


@pytest.mark.parametrize("cat", corpus_categories(), ids=lambda c: c.label)
def test_corpus_and_builtins_pass(cat):
    assert reference(cat) is None
    assert_agrees(cat)


@pytest.mark.parametrize("family", [chaotic_category, chain_poset], ids=["chaotic", "chain"])
@pytest.mark.parametrize("n", range(1, 13))
def test_relabeled_chaotic_and_chain_pass(family, n):
    for seed in range(3):
        assert_agrees(relabeled(family(n), random.Random(seed)))


def mutations(cat: FinCat):
    """Every table that differs from ``cat`` in one entry g∘f with g and f
    not identities, the new value lying in the same hom-set: the boundary
    and identity laws still hold."""
    for (g, f), gf in sorted(cat.comp.items()):
        if cat.is_identity(g) or cat.is_identity(f):
            continue
        for other in cat.hom(cat.dom(f), cat.cod(g)):
            if other != gf:
                comp = dict(cat.comp)
                comp[(g, f)] = other
                yield FinCat(cat.objects, cat.morphisms, cat.identity, comp, label=cat.label)


@pytest.mark.parametrize("n", range(3, 7))
def test_cyclic_groups_with_one_entry_changed(n):
    broken = 0
    for cat in mutations(cyclic_group_category(n)):
        assert_agrees(cat)
        broken += reference(cat) is not None
    assert broken > 0


@pytest.mark.parametrize("cat", corpus_categories(), ids=lambda c: c.label)
def test_corpus_tables_with_one_entry_changed(cat):
    for bad in mutations(cat):
        assert_agrees(bad)


@st.composite
def one_object_tables(draw):
    """A one-object table of order 2–5 whose element 0 is the identity;
    every other product is drawn freely, so most tables are not
    associative.  The morphisms are stored in a drawn order."""
    n = draw(st.integers(2, 5))
    names = [f"m{k}" for k in range(n)]
    comp = {}
    for i in range(n):
        for j in range(n):
            if i == 0 or j == 0:
                comp[(names[i], names[j])] = names[i + j]
            else:
                comp[(names[i], names[j])] = names[draw(st.integers(0, n - 1))]
    order = draw(st.permutations(names))
    return FinCat(["*"], [Morphism(m, "*", "*") for m in order], {"*": "m0"}, comp)


@settings(deadline=None, max_examples=500, suppress_health_check=[HealthCheck.too_slow])
@given(one_object_tables())
def test_one_object_tables_with_identity(cat):
    assert_agrees(cat)


@pytest.mark.parametrize("family", [chaotic_category, chain_poset], ids=["chaotic", "chain"])
@pytest.mark.parametrize("seed", range(3))
def test_generators_generate_and_none_is_redundant(family, seed):
    cat = relabeled(family(12), random.Random(seed))
    gens = _generators(cat)
    assert composition_closure(cat, gens) == {m.name for m in cat.morphisms}
    for k, s in enumerate(gens):
        assert s not in composition_closure(cat, gens[:k])


@pytest.mark.parametrize("seed", range(3))
def test_chaotic_30_checks_under_a_tenth_of_its_triples(seed):
    cat = relabeled(chaotic_category(30), random.Random(seed))
    checks = sum(
        len(cat.morphisms_from(cat.cod(s))) * len(cat.morphisms_into(cat.dom(s)))
        for s in _generators(cat)
    )
    assert checks < 30**4 // 10


def group_between_ends(n: int) -> FinCat:
    """Objects s → * → t with the cyclic group of order n at *, arrows
    a_k : s → *, b_k : * → t and c_k : s → t, composing by adding indices
    mod n.  Into s and out of t there is only the identity, so the check at
    the generator a_0 reads a single f, and the one at b_0 a single h."""
    parts = {"g": ("*", "*"), "a": ("s", "*"), "b": ("*", "t"), "c": ("s", "t")}
    morphisms = [Morphism("id_s", "s", "s"), Morphism("id_t", "t", "t")]
    morphisms += [Morphism(f"{x}{k}", *parts[x]) for x in "gabc" for k in range(n)]
    identity = {"s": "id_s", "*": "g0", "t": "id_t"}
    comp = {}
    for i in range(n):
        for j in range(n):
            for g, f, gf in (("g", "g", "g"), ("g", "a", "a"), ("b", "g", "b"), ("b", "a", "c")):
                comp[(f"{g}{i}", f"{f}{j}")] = f"{gf}{(i + j) % n}"
    for m in morphisms:
        comp[(identity[m.cod], m.name)] = comp[(m.name, identity[m.dom])] = m.name
    return FinCat(["s", "*", "t"], morphisms, identity, comp, label=f"ends({n})")


@pytest.mark.parametrize("n", range(1, 5))
def test_objects_with_only_their_identity_in_or_out(n):
    cat = group_between_ends(n)
    gens = _generators(cat)
    assert {"a0", "b0"} <= set(gens)
    assert [len(cat.morphisms_into("s")), len(cat.morphisms_from("t"))] == [1, 1]
    assert_agrees(cat)
    assert verdict(cat) is None
    broken = 0
    for bad in mutations(cat):
        assert_agrees(bad)
        broken += reference(bad) is not None
    assert broken > 0 or n == 1


def coproduct(A: FinCat, B: FinCat) -> FinCat:
    """A and B side by side, A's morphisms stored first, names prefixed."""
    objects, morphisms, identity, comp = [], [], {}, {}
    for tag, cat in (("A", A), ("B", B)):
        objects += [f"{tag}.{a}" for a in cat.objects]
        morphisms += [
            Morphism(f"{tag}.{m.name}", f"{tag}.{m.dom}", f"{tag}.{m.cod}") for m in cat.morphisms
        ]
        identity.update({f"{tag}.{a}": f"{tag}.{i}" for a, i in cat.identity.items()})
        comp.update(
            {(f"{tag}.{g}", f"{tag}.{f}"): f"{tag}.{gf}" for (g, f), gf in cat.comp.items()}
        )
    return FinCat(objects, morphisms, identity, comp, label=f"{A.label}+{B.label}")


def failing_generators(cat: FinCat) -> list[str]:
    """The generators at which (h∘s)∘f = h∘(s∘f) fails for some h and f,
    found by a scan of the raw table."""
    comp = cat.comp
    return [
        s
        for s in _generators(cat)
        if any(
            comp[(comp[(h.name, s)], f.name)] != comp[(h.name, comp[(s, f.name)])]
            for h in cat.morphisms
            if h.dom == cat.cod(s)
            for f in cat.morphisms
            if f.cod == cat.dom(s)
        )
    ]


@pytest.mark.parametrize(
    "first", [cyclic_group_category(3), group_between_ends(2)], ids=lambda c: c.label
)
@pytest.mark.parametrize("n", range(3, 6))
def test_violations_seen_only_at_the_last_generator(first, n):
    """Broken tables of the coproduct of ``first`` and cyclic(n) whose only
    failing generator is the last one, cyclic(n)'s: every other generator
    passes its check, so the test must read to its end."""
    cat = coproduct(first, cyclic_group_category(n))
    seen = 0
    for bad in mutations(cat):
        if failing_generators(bad) == _generators(bad)[-1:]:
            seen += 1
            assert verdict(bad) is not None
            assert_agrees(bad)
    assert seen > 0
