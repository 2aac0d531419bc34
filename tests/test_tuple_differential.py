"""Tuple categories compose on first use; the eager componentwise table in
``helpers`` is the reference.  For every tuple category the corpus builds,
``compose`` must agree with it on every composable pair while the table is
still unfilled, and the table filled by the first read of ``comp`` must
equal it, in the same order."""
import pytest
from helpers import componentwise_composites

from fincat import funcat
from fincat.core import EnumerationBudgetExceeded, TupleCat
from fincat.corpus import corpus_categories, corpus_cospans_normal_left, corpus_towers
from fincat.counterexamples import arrow_hom_category, build_fy, default_arrow_test_objects
from fincat.funcat import functor_category, product_category
from fincat.limits import isocomma, pullback_strict, tower_limit

# the powers of tests/test_tuple_golden.py: all corpus powers but the three
# largest, which take most of the suite's time to build
BUDGET = 5_000


def products():
    cats = corpus_categories()
    for A in cats:
        for B in cats:
            yield [product_category(A, B)]


def powers():
    cats = corpus_categories()
    for C in cats:
        for D in cats:
            try:
                yield [functor_category(C, D, BUDGET)]
            except EnumerationBudgetExceeded:
                continue


def limits(construct):
    for F, G in corpus_cospans_normal_left():
        yield [construct(F, G).apex]


def arrow_homs():
    for k in range(5):
        for alpha in (2, 3, 4):
            f = build_fy(k, alpha)
            for X in default_arrow_test_objects():
                for A in (f.source, f.target):
                    yield [arrow_hom_category(X, A).category]


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
