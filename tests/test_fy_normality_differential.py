"""``arrow_normal_on_test_set`` reads the hom-categories of squares out of
the two test objects in closed form, as level 0 and the map of kernel
pairs.  The reference in ``helpers`` builds those hom-categories from every
commuting square and every transformation pair, and postcomposes by
components: its verdicts must be the closed form's, on the ``fy_family``
squares and on squares built from small corpus functors, negatives
included."""
import pytest
from helpers import (
    arrow_hom_reference,
    arrow_normal_reference,
    check_arrow_square,
    default_arrow_test_objects,
)

from fincat.core import find_isomorphism, identity_functor
from fincat.corpus import corpus_functors, to_terminal_functor
from fincat.counterexamples import ArrowMorphism, arrow_normal_on_test_set, build_fy
from fincat.fibrations import classify_fibration
from fincat.limits import pullback_strict

FY_CASES = [(k, alpha) for k in range(5) for alpha in (2, 3, 4)]


@pytest.mark.parametrize("k,alpha", FY_CASES)
def test_fy_test_set_homs_are_level_0_and_the_kernel_pair(k, alpha):
    f = build_fy(k, alpha)
    point, pair = default_arrow_test_objects()
    for A in (f.source, f.target):
        assert find_isomorphism(arrow_hom_reference(point, A)[0], A.source) is not None
        kernel = pullback_strict(A, A).apex
        assert find_isomorphism(arrow_hom_reference(pair, A)[0], kernel) is not None
    assert arrow_normal_on_test_set(f) is arrow_normal_reference(f) is True


def corpus_squares():
    """Squares from the first 60 corpus functors with at most 4 morphisms
    on either side: for u and F out of one category, (u, F) over the maps
    to the terminal category; for composable u and F, u over F by u∘F, and
    u∘F over F by u."""
    small = [
        F
        for F in corpus_functors()
        if max(len(F.source.morphisms), len(F.target.morphisms)) <= 4
    ][:60]
    squares = []
    for u in small:
        for F in small:
            if F.source == u.source:
                bang_u, bang_f = to_terminal_functor(u.target), to_terminal_functor(F.target)
                squares.append(ArrowMorphism(u, bang_f, F, bang_u))
            if u.target == F.source:
                one = identity_functor(F.target)
                squares.append(ArrowMorphism(u, one, u.then(F), F))
                squares.append(ArrowMorphism(u.then(F), F, u, one))
    return [check_arrow_square(f) for f in squares]


def test_closed_form_matches_the_reference_on_corpus_squares():
    squares = corpus_squares()
    negatives = []
    for f in squares:
        verdict = arrow_normal_on_test_set(f)
        assert verdict == arrow_normal_reference(f), (f.source.label, f.target.label)
        if not verdict:
            negatives.append(f)
    # some negatives have a normal level 0, so only the kernel pair decides them
    normal_level_0 = [
        f for f in negatives if classify_fibration(f.level0, grothendieck=False).normal
    ]
    assert len(squares) >= 1000 and len(negatives) >= 200 and len(normal_level_0) >= 5
