"""Powers, which list each pair's transformations from its candidate
product, against the reference in ``helpers`` that runs one transformation
search per ordered pair: the same morphisms (name, domain, codomain, parts)
in the same order, and the same refusal message when the budget is
exceeded.  The reference hom-categories of commuting squares in
``helpers``, which pair every t0 with every t1 whose whiskers agree, against
what the library reads them as: A_0 and the kernel pair for the two test
objects of ``arrow_normal_on_test_set``, and the power of A_0 for an
identity.  The iso-power D^I, which the library lists in closed form from
D's isomorphisms, against the functor search and the reference, beyond the
corpus."""
import random

import pytest
from helpers import (
    arrow_hom_reference,
    default_arrow_test_objects,
    functor_named,
    name_of_functor,
    power_morphisms_reference,
    relabeled,
    shuffled,
)

import fincat.funcat as funcat
from fincat.core import (
    EnumerationBudgetExceeded,
    bounded,
    builtin,
    discrete_category,
    enumerate_functors,
    identity_functor,
)
from fincat.corpus import (
    chaotic_collapse,
    corpus_categories,
    corpus_category,
    cyclic_group_category,
    iso_inclusion_into_chaotic,
    to_terminal_functor,
)
from fincat.counterexamples import build_fy
from fincat.funcat import _functor_parts, _object_name, functor_category, product_category
from fincat.limits import pullback_strict

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
    with pytest.raises(EnumerationBudgetExceeded) as ours, bounded(budget=budget):
        functor_category(C, D)
    with pytest.raises(EnumerationBudgetExceeded) as reference:
        power_morphisms_reference(C, D, budget)
    assert str(ours.value) == str(reference.value)
    assert f"needs {required} candidates, budget is {budget}" in str(ours.value)


def _iso_power_bases():
    """Bases beyond the corpus, with a shuffled and a relabelled copy of each."""
    bases = [
        cyclic_group_category(3),
        cyclic_group_category(4),
        product_category(cyclic_group_category(2), builtin("chaotic(2)")),
        corpus_category("iso_arrow"),
        builtin("chaotic(4)"),
    ]
    rng = random.Random(37)
    return [copy for D in bases for copy in (D, shuffled(D, rng), relabeled(D, rng))]


@pytest.mark.parametrize("D", _iso_power_bases(), ids=lambda D: D.label)
def test_iso_power_matches_the_functor_search_and_the_reference(D, monkeypatch):
    """Objects (names and parts) in the order ``enumerate_functors`` lists the
    functors, morphisms in the reference's order, and the candidates counted:
    the reference passes at that count and is refused one below it."""
    monkeypatch.setattr(funcat, "_CACHE", {})
    iso = builtin("free_iso")
    power = functor_category(iso, D)
    functors = list(enumerate_functors(iso, D))
    assert list(power.objects) == [_object_name(iso, F) for F in functors]
    assert [power.obj_parts[name] for name in power.objects] == [
        _functor_parts(iso, F.omap, F.mmap) for F in functors
    ]
    assert [functor_named(power, name) for name in power.objects] == functors
    required = power._budget_required
    assert morphism_table(power) == power_morphisms_reference(iso, D, required)
    with pytest.raises(EnumerationBudgetExceeded, match=f"needs {required} candidates"):
        power_morphisms_reference(iso, D, required - 1)


@pytest.mark.parametrize("base", ["chaotic(3)", "cyclic(3)"])
def test_iso_power_refusals_match_the_reference_at_every_budget(base, monkeypatch):
    """Every budget below the power's count is refused with the reference's
    message, before the power is built and after a larger budget cached it."""
    monkeypatch.setattr(funcat, "_CACHE", {})
    iso = builtin("free_iso")
    D = builtin(base) if base.startswith("chaotic") else cyclic_group_category(3)
    required = 90  # 9 object candidates, then 81 transformation candidates

    def refusals():
        for budget in range(required):
            with pytest.raises(EnumerationBudgetExceeded) as ours, bounded(budget=budget):
                functor_category(iso, D)
            with pytest.raises(EnumerationBudgetExceeded) as reference:
                power_morphisms_reference(iso, D, budget)
            assert str(ours.value) == str(reference.value), budget

    refusals()
    with bounded(budget=required):
        assert functor_category(iso, D)._budget_required == required
    refusals()


def level_0_table(X, hom):
    """The morphisms of [X, A] by their level-0 parts: the components of t0
    at the objects of X's source, with those of their domain and codomain."""
    n = X.source.n_objects
    return [
        (hom.obj_parts[m.dom][:n], hom.obj_parts[m.cod][:n], hom.mor_parts[m.name][:n])
        for m in hom.morphisms
    ]


@pytest.mark.parametrize("k,alpha", FY_CASES)
def test_fy_arrow_homs_match_the_pairing_filter(k, alpha):
    """Out of 1 → 1, [X, A] is A_0; out of 2 → 1, the kernel pair: the
    level-0 parts of the reference's morphisms are those of A_0 and of
    pullback_strict(A, A), each once."""
    f = build_fy(k, alpha)
    point, pair = default_arrow_test_objects()
    for A in (f.source, f.target):
        kernel = pullback_strict(A, A).apex
        parts = kernel.obj_parts
        closed_forms = (
            (point, [((m.dom,), (m.cod,), (m.name,)) for m in A.source.morphisms]),
            (pair, [(parts[m.dom], parts[m.cod], kernel.mor_parts[m.name]) for m in kernel.morphisms]),
        )
        for X, closed in closed_forms:
            ours = level_0_table(X, arrow_hom_reference(X, A)[0])
            assert sorted(ours) == sorted(closed), (X.label, A.label)
            assert len(set(ours)) == len(ours)


def test_arrow_homs_with_naturality_squares_match_the_pairing_filter():
    """Out of an identity 1_C, [1_C, A] is the power A_0^C: a square is a
    functor s0 with s1 = A·s0, and t1 = A·t0.  With C and A thin and not
    (the parallel pair and the group of order 2), t0 is filtered by
    naturality, and the reference must list the power's morphisms in the
    power's order."""
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
    for C in (builtin("terminal"), builtin("arrow"), builtin("free_iso"), pair, group):
        X = identity_functor(C)
        for A in arrows:
            hom, squares = arrow_hom_reference(X, A)
            power = functor_category(C, A.source)
            name = {f"q{i}": name_of_functor(power, s0) for i, (s0, _) in enumerate(squares)}
            assert list(name.values()) == list(power.objects), (C.label, A.label)
            ours = [
                (name[m.dom], name[m.cod], parts)
                for m, (_, _, parts) in zip(hom.morphisms, level_0_table(X, hom))
            ]
            assert ours == [
                (m.dom, m.cod, power.mor_parts[m.name]) for m in power.morphisms
            ], (C.label, A.label)
            morphisms += len(ours)
    assert morphisms > 100
