import pytest

import fincat.funcat as funcat
from fincat.core import (
    EnumerationBudgetExceeded,
    bounded,
    builtin,
    builtin_functor,
    find_isomorphism,
    identity_functor,
    validate_category,
    validate_functor,
)
from fincat.funcat import (
    cells_into_power,
    evaluation_functor,
    functor_category,
    functor_into_power,
    pair_functor,
    postcompose_functor,
    precompose_functor,
    product_category,
    product_projections,
)
from helpers import (
    brute_force_functors,
    brute_force_nat_transformations,
    constant_functor,
    reference_table,
)


def test_power_by_terminal_is_the_category_itself():
    for name in ["arrow", "free_iso", "parallel_pair", "chaotic(2)"]:
        D = builtin(name)
        fc = functor_category(builtin("terminal"), D)
        assert fc.n_objects == D.n_objects
        assert fc.n_morphisms == D.n_morphisms
        assert find_isomorphism(fc, D) is not None


def test_power_of_arrow_by_free_iso_is_two_constants():
    # both functors out of the free isomorphism crush it, an independent
    # exhaustion confirms exactly the two constants
    iso, two = builtin("free_iso"), builtin("arrow")
    assert len(brute_force_functors(iso, two)) == 2
    fc = functor_category(iso, two)
    assert fc.n_objects == 2
    validate_category(fc)
    assert find_isomorphism(fc, two) is not None


def test_power_of_arrow_by_discrete_two_is_product():
    fc = functor_category(builtin("two_discrete"), builtin("arrow"))
    assert fc.n_objects == 4
    validate_category(fc)
    prod = product_category(builtin("arrow"), builtin("arrow"))
    assert find_isomorphism(fc, prod) is not None


def test_functor_category_counts_against_brute_force():
    pairs = [("arrow", "arrow"), ("parallel_pair", "arrow"), ("free_iso", "chaotic(2)")]
    for s, d in pairs:
        src, dst = builtin(s), builtin(d)
        fc = functor_category(src, dst)
        fs = brute_force_functors(src, dst)
        assert fc.n_objects == len(fs)
        expected_morphisms = 0
        for F in fs:
            for G in fs:
                expected_morphisms += len(brute_force_nat_transformations(F, G))
        assert fc.n_morphisms == expected_morphisms
        validate_category(fc)


def test_budget_exceeded_reports_requirement():
    with pytest.raises(EnumerationBudgetExceeded) as err:
        with bounded(budget=5):
            functor_category(builtin("chaotic(3)"), builtin("chaotic(3)"))
    assert err.value.required > 5
    assert err.value.bound == 5


def test_budget_check_applies_to_cached_results():
    functor_category(builtin("free_iso"), builtin("arrow"))
    with pytest.raises(EnumerationBudgetExceeded), bounded(budget=1):
        functor_category(builtin("free_iso"), builtin("arrow"))


def test_refusal_names_the_same_count_before_and_after_the_power_is_cached(monkeypatch):
    """A power refused by the budget is counted up to the candidate that
    passes it, whether or not a larger budget built it earlier."""
    monkeypatch.setattr(funcat, "_CACHE", {})
    C, D = builtin("arrow"), builtin("chaotic(3)")
    message = "needs 21 candidates, budget is 20"
    with pytest.raises(EnumerationBudgetExceeded, match=message), bounded(budget=20):
        functor_category(C, D)
    power = functor_category(C, D)
    assert funcat._CACHE[C, D] is power and functor_category(C, D) is power
    with pytest.raises(EnumerationBudgetExceeded, match=message), bounded(budget=20):
        functor_category(C, D)


def test_building_a_power_computes_no_digest(monkeypatch):
    """Powers are cached by their categories themselves, so a first build
    of a fresh D's iso-power serializes neither category."""
    monkeypatch.setattr(funcat, "_CACHE", {})
    C, D = builtin("free_iso"), builtin("chaotic(3)")
    power = functor_category(C, D)
    assert "digest" not in vars(D) and "digest" not in vars(power)
    same = builtin("chaotic(3)")
    assert same is not D and functor_category(C, same) is power
    assert "digest" not in vars(same)


def test_cached_power_takes_the_labels_of_its_arguments():
    """Powers are cached by content, which leaves labels out: a power first
    built for content-equal categories under other labels comes back under
    the labels asked for, and equal to the cached one."""
    C, D = builtin("two_discrete"), builtin("arrow")
    first = functor_category(C.relabel("pair"), D.relabel("interval"))
    second = functor_category(C, D)
    assert (first.label, second.label) == ("[pair,interval]", "[two_discrete,arrow]")
    assert second == first and type(second) is type(first)
    assert functor_category(C.relabel("pair"), D.relabel("interval")).label == "[pair,interval]"


def test_evaluation_functor_is_functorial():
    fc = functor_category(builtin("free_iso"), builtin("chaotic(2)"))
    for at in ["0", "1"]:
        validate_functor(evaluation_functor(fc, at))


def test_power_by_empty_category_is_terminal():
    fc = functor_category(builtin("discrete(0)"), builtin("arrow"))
    assert fc.n_objects == 1 and fc.n_morphisms == 1


def test_precompose_restriction_to_endpoints():
    two = builtin("arrow")
    j = builtin_functor("discrete_to_arrow")
    res = precompose_functor(j, two)
    validate_functor(res)
    # restriction sends a morphism of the arrow category, seen as an object
    # of the power, to its endpoint pair
    assert res.source.n_objects == 3  # morphisms of the arrow category
    assert res.target.n_objects == 4


def test_postcompose_functor_is_functorial():
    p = builtin_functor("collapse_parallel")
    res = postcompose_functor(p, builtin("free_iso"))
    validate_functor(res)


def test_functor_into_power_pairs_correctly():
    two = builtin("arrow")
    f = identity_functor(two)
    power = functor_category(builtin("two_discrete"), two)
    pairing = functor_into_power([f, f], power)
    validate_functor(pairing)
    assert pairing.ob("0") == "(0,0)"
    assert pairing.ob("1") == "(1,1)"


def test_cells_into_power_roundtrips_through_restriction():
    from fincat.core import NatTrans

    one, two = builtin("terminal"), builtin("arrow")
    F0 = constant_functor(one, two, "0")
    F1 = constant_functor(one, two, "1")
    t = NatTrans(F0, F1, {"*": "a"})
    power = functor_category(builtin("parallel_pair"), two)
    paired = cells_into_power([t, t], power)
    validate_functor(paired)


def test_product_category_and_projections():
    A, B = builtin("arrow"), builtin("free_iso")
    prod = product_category(A, B)
    validate_category(prod)
    assert prod.n_objects == 4 and prod.n_morphisms == 12
    p1, p2 = product_projections(prod)
    validate_functor(p1)
    validate_functor(p2)
    paired = pair_functor(identity_functor(A), identity_functor(A), product_category(A, A))
    validate_functor(paired)


def test_relabel_keeps_a_product_and_its_projections():
    prod = product_category(builtin("arrow"), builtin("arrow"))
    square = prod.relabel("square")
    assert (type(square), square.label, prod.label) == (type(prod), "square", "arrow×arrow")
    assert square == prod
    validate_functor(product_projections(square)[1])


def test_relabelled_tuple_category_shares_its_table():
    prod = product_category(builtin("arrow"), builtin("arrow"))
    square = prod.relabel("square")
    assert square == prod and "comp" not in vars(prod) and "comp" not in vars(square)
    assert prod.rows is square.rows
    assert square.comp == prod.comp == reference_table(prod)


def test_power_object_names_for_discrete_source_are_tuples():
    fc = functor_category(builtin("two_discrete"), builtin("arrow"))
    assert set(fc.objects) == {"(0,0)", "(0,1)", "(1,0)", "(1,1)"}
