"""Tuple categories compose on first use; the eager componentwise table in
``helpers`` is the reference.  For every tuple category the corpus builds,
and for the reference hom-categories of squares in ``helpers``, ``compose``
must agree with it on every composable pair while the table is
still unfilled, and the table filled by the first read of ``comp`` must
equal it, in the same order.

Tuple categories also find their inverses by parts; the generic scan of
``FinCat._inverse``, which composes every candidate in hom(cod m, dom m),
is the reference for those."""
import pytest
from helpers import arrow_hom_reference, componentwise_composites, default_arrow_test_objects

from fincat import funcat
from fincat.core import (
    Bounds,
    EnumerationBudgetExceeded,
    FinCat,
    StructureError,
    TupleCat,
    bounded,
    builtin,
)
from fincat.corpus import (
    corpus_categories,
    corpus_cospans_normal_left,
    corpus_functors,
    corpus_towers,
)
from fincat.counterexamples import build_fy
from fincat.funcat import functor_category, product_category
from fincat.limits import isocomma, pseudolimit_of_arrow, pullback_strict, tower_limit

# the powers of tests/test_tuple_golden.py: all corpus powers but the three
# largest, which take most of the suite's time to build
BUDGET = 5_000


def products():
    cats = corpus_categories()
    for A in cats:
        for B in cats:
            yield [product_category(A, B)]


def powers(budget=BUDGET):
    cats = corpus_categories()
    for C in cats:
        for D in cats:
            try:
                with bounded(budget=budget):
                    power = functor_category(C, D)
            except EnumerationBudgetExceeded:
                continue
            yield [power]


def limits(construct):
    for F, G in corpus_cospans_normal_left():
        yield [construct(F, G).apex]


def pseudolimit_apexes():
    for f in corpus_functors():
        yield [pseudolimit_of_arrow(f).apex]


def arrow_homs():
    """The reference hom-categories of squares out of the two test objects."""
    for k in range(5):
        for alpha in (2, 3, 4):
            f = build_fy(k, alpha)
            for X in default_arrow_test_objects():
                for A in (f.source, f.target):
                    yield [arrow_hom_reference(X, A)[0]]


def tower_stages():
    """Each tower's stages, from its pseudolimit down: stage k is the
    first factor of stage k + 1."""
    for base, maps in corpus_towers():
        stages = []
        stage = tower_limit(base, maps).pseudolimit
        while isinstance(stage, TupleCat):
            stages.append(stage)
            stage = stage.factors[0]
        yield stages


CONSTRUCTIONS = {
    "product_category": (products, 196),
    "functor_category": (powers, 193),
    "pullback_strict": (lambda: limits(pullback_strict), 48),
    "isocomma": (lambda: limits(isocomma), 48),
    "arrow_hom_category": (arrow_homs, 60),
    "tower_stages": (tower_stages, 12),
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_composites_match_the_eager_reference(name, monkeypatch):
    # a power cached by an earlier test may have its table filled already
    monkeypatch.setattr(funcat, "_CACHE", {})
    construct, expected = CONSTRUCTIONS[name]
    n_cats = n_pairs = 0
    for group in construct():
        tables = {}
        refs = [componentwise_composites(cat, tables) for cat in group]
        # factors are checked along with the categories built on them, so
        # every table of the group stays unfilled until all are composed
        for cat, ref in zip(group, refs):
            assert "comp" not in vars(cat)
            for (g, f), gf in ref.items():
                assert cat.compose(g, f) == gf
            assert "comp" not in vars(cat)
            n_pairs += len(ref)
        for cat, ref in zip(group, refs):
            assert list(cat.comp.items()) == list(ref.items())
            assert all(cat.compose(g, f) == gf for (g, f), gf in ref.items())
        n_cats += len(group)
    assert n_cats == expected and n_pairs > n_cats


INVERSES = {
    "product_category": (products, 196),
    "functor_category": (lambda: powers(Bounds().budget), 196),
    "pullback_strict": (lambda: limits(pullback_strict), 48),
    "isocomma": (lambda: limits(isocomma), 48),
    "pseudolimit_of_arrow": (pseudolimit_apexes, 502),
    "tower_stages": (tower_stages, 12),
    "arrow_hom_category": (arrow_homs, 60),
}


@pytest.mark.parametrize("name", INVERSES)
def test_inverses_by_parts_match_the_generic_scan(name):
    construct, expected = INVERSES[name]
    n_cats = n_inverses = 0
    for group in construct():
        for cat in group:
            ours = cat._inverse
            assert list(ours.items()) == list(FinCat._inverse.func(cat).items()), cat.label
            n_inverses += len(ours) - cat.n_objects
        n_cats += len(group)
    # some non-identity isomorphism is found in each construction
    assert n_cats == expected and n_inverses > 0


def test_a_tuple_category_not_closed_under_composition_is_refused():
    """The square of the arrow without its diagonal (a,a), whose composite
    (id_1,a)∘(a,id_0) is then missing: the fill and ``compose`` both refuse
    it, naming the missing entry."""
    square = product_category(builtin("arrow"), builtin("arrow"))
    morphisms = [
        (m.name, m.dom, m.cod, square.mor_parts[m.name])
        for m in square.morphisms
        if m.name != "(a,a)"
    ]
    message = (
        "open_square: an identity or composite is missing"
        " (no entry ('(0,0)', '(1,1)', ('a', 'a')))"
    )
    for read in (lambda T: T.comp, lambda T: T.compose("(id_1,a)", "(a,id_0)")):
        T = TupleCat(square.factors, square.obj_parts.items(), morphisms, label="open_square")
        with pytest.raises(StructureError) as info:
            read(T)
        assert str(info.value) == message
    # a missing identity is refused by the constructor, in the same words
    with pytest.raises(StructureError) as info:
        TupleCat(square.factors, square.obj_parts.items(), morphisms[1:], label="open_square")
    assert str(info.value) == (
        "open_square: an identity or composite is missing"
        " (no entry ('(0,0)', '(0,0)', ('id_0', 'id_0')))"
    )
