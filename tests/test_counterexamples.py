import pytest

from fincat.core import (
    BudgetExceeded,
    UnknownName,
    builtin,
    builtin_functor,
    identity_functor,
    validate_category,
)
from fincat.corpus import corpus_category, to_terminal_functor
from fincat.cosmos import nip_square_filler
from fincat.counterexamples import (
    ArrowMorphism,
    _chaotic_square,
    arrow_normal_on_test_set,
    arrow_sections,
    build_fy,
    run_counterexample,
)
from helpers import arrow_hom_reference, check_arrow_square


def test_groth_leibniz_witness_passes():
    w = run_counterexample("groth_leibniz")
    assert w.passed
    by_name = {c.predicate: c for c in w.claims}
    assert by_name["failing arrow domain"].actual == "(1,0)"
    assert by_name["failing arrow codomain"].actual == "(1,1)"


def test_groth_leibniz_is_replayable_deterministically():
    a = run_counterexample("groth_leibniz").to_dict()
    b = run_counterexample("groth_leibniz").to_dict()
    assert a == b


def test_nip_cat2_witness_passes():
    w = run_counterexample("nip_cat2")
    assert w.passed
    names = [c.predicate for c in w.claims]
    assert "chaotic square has a functor filler" in names


def test_fy_dichotomy_grid():
    for k in range(5):
        for alpha in (2, 3, 4):
            w = run_counterexample(f"fy_family({k},{alpha})")
            assert w.passed, (k, alpha)
            section = next(c for c in w.claims if c.predicate == "square has a section")
            assert section.expected == (k < alpha)


def test_fy_rejects_oversized_parameters():
    with pytest.raises(BudgetExceeded):
        run_counterexample("fy_family(9,3)")
    with pytest.raises(BudgetExceeded):
        run_counterexample("fy_family(3,7)")


def test_unknown_name():
    with pytest.raises(UnknownName):
        run_counterexample("missing_one")


def test_fy_structure_is_lawful():
    for k in range(5):
        for alpha in (2, 3, 4):
            f = build_fy(k, alpha)
            validate_category(f.source.source)
            validate_category(f.source.target)
            check_arrow_square(f)
            assert f.level0.source is f.source.source


def test_nip_cat2_replays_a_square_of_commuting_squares():
    """Each edge of the finite-set counterexample, lifted to chaotic
    categories, is a commuting square of functors."""
    ce = nip_square_filler("finset_arrow", 3).counterexample
    for edge in _chaotic_square(ce):
        check_arrow_square(edge)


def point_into_iso():
    """Level 0 is the point into the free isomorphism, not an isofibration."""
    inclusion = builtin_functor("point_to_iso")
    one, iso = identity_functor(inclusion.source), identity_functor(inclusion.target)
    return ArrowMorphism(one, iso, inclusion, inclusion)


def diagonal_of_cyclic_2():
    """1 over (cyclic(2) → 1): level 0 is the identity, but the map of kernel
    pairs is the diagonal cyclic(2) → cyclic(2)², which lifts no (g, 1)."""
    group = corpus_category("cyclic(2)")
    bang = to_terminal_functor(group)
    return ArrowMorphism(identity_functor(group), bang, identity_functor(group), bang)


def test_fy_normality_fails_for_perturbed_square():
    # sanity: the test-set normality check is not vacuous
    for build in (point_into_iso, diagonal_of_cyclic_2):
        assert not arrow_normal_on_test_set(check_arrow_square(build())), build.__name__


def test_arrow_hom_category_of_terminal_object_is_hom_like():
    two = builtin("arrow")
    X = identity_functor(builtin("terminal"))
    hom, _ = arrow_hom_reference(X, to_terminal_functor(two))
    validate_category(hom)
    # squares 1 → (arrow → 1) are just objects of the arrow category, and
    # their morphisms its morphisms
    assert hom.n_objects == 2 and len(hom.morphisms) == len(two.morphisms)


def test_arrow_sections_of_identity():
    two = builtin("arrow")
    ident = check_arrow_square(
        ArrowMorphism(
            source=identity_functor(two),
            target=identity_functor(two),
            level0=identity_functor(two),
            level1=identity_functor(two),
        )
    )
    assert arrow_sections(ident)
