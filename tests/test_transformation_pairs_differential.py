"""Powers and the hom-categories of commuting squares, which list each pair's
transformations from its candidate product, against the references in
``helpers`` that run one transformation search per ordered pair: the same
morphisms (name, domain, codomain, parts) in the same order, and the same
refusal message when the budget is exceeded."""
import pytest
from helpers import arrow_hom_morphisms_reference, power_morphisms_reference

from fincat.core import (
    EnumerationBudgetExceeded,
    builtin,
    discrete_category,
    identity_functor,
)
from fincat.corpus import (
    chaotic_collapse,
    corpus_categories,
    corpus_category,
    iso_inclusion_into_chaotic,
    to_terminal_functor,
)
from fincat.counterexamples import arrow_hom_category, build_fy, default_arrow_test_objects
from fincat.funcat import functor_category

FY_CASES = [(k, alpha) for k in range(5) for alpha in (2, 3, 4)]


def morphism_table(cat):
    return [(m.name, m.dom, m.cod, cat.mor_parts[m.name]) for m in cat.morphisms]


def test_power_morphisms_match_one_search_per_pair():
    # with the empty category, whose functors have no components
    cats = (discrete_category(0), *corpus_categories())
    for C in cats:
        for D in cats:
            ours = morphism_table(functor_category(C, D))
            assert ours == power_morphisms_reference(C, D), (C.label, D.label)


# (exponent, base, budget): each refused by the count of transformation
# candidates, after the functors' own estimate fits the budget
REFUSED = [
    ("free_iso", "chaotic(12)", 20_000, 20_001),
    ("free_iso", "chaotic(5)", 100, 101),
    ("arrow", "chaotic(6)", 200, 201),
    ("chaotic(2)", "chaotic(5)", 100, 101),
    ("arrow", "discrete(9)", 100, 101),
]


@pytest.mark.parametrize("exponent,base,budget,required", REFUSED)
def test_refused_power_gives_the_reference_message(exponent, base, budget, required):
    C, D = builtin(exponent), builtin(base)
    with pytest.raises(EnumerationBudgetExceeded) as ours:
        functor_category(C, D, budget)
    with pytest.raises(EnumerationBudgetExceeded) as reference:
        power_morphisms_reference(C, D, budget)
    assert str(ours.value) == str(reference.value)
    assert f"needs {required} candidates, budget is {budget}" in str(ours.value)


@pytest.mark.parametrize("k,alpha", FY_CASES)
def test_fy_arrow_homs_match_the_pairing_filter(k, alpha):
    f = build_fy(k, alpha)
    for X in default_arrow_test_objects():
        for A in (f.source, f.target):
            hom = arrow_hom_category(X, A)
            assert morphism_table(hom.category) == arrow_hom_morphisms_reference(
                X, A, hom.squares
            ), (X.label, A.label)


def test_arrow_homs_with_naturality_squares_match_the_pairing_filter():
    """Arrows between categories with non-identity morphisms, thin and not
    (the parallel pair and the group of order 2), so that t0 and t1 are
    filtered by naturality, pairs of squares have no t0, and a t0 has fewer
    partners than its pair has t1."""
    pair, group = builtin("parallel_pair"), corpus_category("cyclic(2)")
    arrows = default_arrow_test_objects() + (
        chaotic_collapse(),
        iso_inclusion_into_chaotic(),
        to_terminal_functor(builtin("arrow")),
        identity_functor(pair),
        to_terminal_functor(pair),
        identity_functor(group),
    )
    morphisms = 0
    for X in arrows:
        for A in arrows:
            hom = arrow_hom_category(X, A)
            ours = morphism_table(hom.category)
            assert ours == arrow_hom_morphisms_reference(X, A, hom.squares), (X.label, A.label)
            morphisms += len(ours)
    assert morphisms > 100
