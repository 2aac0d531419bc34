"""Every search of the library against the recursion it replaced, kept in
``helpers`` as the reference: functors and isomorphisms, with choice tables,
whole and cut after their first k results, and truncated simplicial maps and
the leveled bijection of the powers comparison, all run on
``core._backtrack``'s explicit stack; transformations, filtered from the
product of their component homs; and a power's size estimate.  Each search
must yield the same values in the same order, each table with the same key
order."""
from itertools import groupby, islice

import pytest
from helpers import (
    constant_functor,
    recursive_functor_estimate,
    recursive_leveled_iso,
    recursive_search,
    recursive_sset_maps,
    recursive_transformations,
)

from fincat.core import (
    StructureError,
    builtin,
    discrete_category,
    enumerate_functors,
    enumerate_isomorphisms,
    enumerate_transformations,
)
from fincat.corpus import corpus_categories, corpus_functors
from fincat.funcat import _estimate_functor_candidates, functor_category
from fincat.nerve import (
    _hom_sset_leveled,
    _leveled_iso,
    classifying_category,
    nerve_truncated,
    sset_product,
    standard_simplex,
    truncated_sset_maps,
)

# how many results each search is cut to (None: all of them)
LIMITS = [0, 1, None]


def functor_tables(functors):
    return [(F.label, list(F.omap.items()), list(F.mmap.items())) for F in functors]


def choice_tables(src, dst):
    """No choices, and choices that reverse the first object's candidates
    and pin the first non-identity morphism to its image under the first
    functor src → dst."""
    first = next(enumerate_functors(src, dst), None)
    nonid = [m.name for m in src.morphisms if not src.is_identity(m.name)]
    omap_choices = {src.objects[0]: dst.objects[::-1]} if src.objects else None
    mmap_choices = {nonid[0]: [first.mmap[nonid[0]]]} if first and nonid else None
    return [(None, None), (omap_choices, mmap_choices)]


# with the empty category, whose searches have no positions
CATEGORIES = (discrete_category(0), *corpus_categories())
CATEGORY_PAIRS = [(A, B) for A in CATEGORIES for B in CATEGORIES]


@pytest.mark.parametrize("limit", LIMITS)
def test_functor_search_matches_the_recursion(limit):
    for A, B in CATEGORY_PAIRS:
        for omap_choices, mmap_choices in choice_tables(A, B):
            ours = islice(enumerate_functors(A, B, omap_choices, mmap_choices), limit)
            reference = islice(recursive_search(A, B, omap_choices, mmap_choices, False), limit)
            assert functor_tables(ours) == functor_tables(reference), (A.label, B.label)


@pytest.mark.parametrize("limit", LIMITS)
def test_isomorphism_search_matches_the_recursion(limit):
    for A, B in CATEGORY_PAIRS:
        if A.n_objects != B.n_objects or A.n_morphisms != B.n_morphisms:
            continue
        for omap_choices, mmap_choices in choice_tables(A, B):
            ours = islice(enumerate_isomorphisms(A, B, omap_choices, mmap_choices), limit)
            reference = islice(recursive_search(A, B, omap_choices, mmap_choices, True), limit)
            assert functor_tables(ours) == functor_tables(reference), (A.label, B.label)


def parallel_pairs():
    """Every ordered pair of corpus functors with the same source and
    target, and the empty functor into the terminal category with itself."""
    def ends(F):
        return (F.source.key, F.target.key)

    empty = next(enumerate_functors(discrete_category(0), builtin("terminal")))
    functors = [empty, *corpus_functors()]
    for _, group in groupby(sorted(functors, key=ends), key=ends):
        group = list(group)
        yield from ((F, G) for F in group for G in group)


@pytest.mark.parametrize("invertible_only", [False, True])
def test_transformation_search_matches_the_recursion(invertible_only):
    for F, G in parallel_pairs():
        ours = enumerate_transformations(F, G, invertible_only)
        reference = recursive_transformations(F, G, invertible_only)
        assert [list(t.components.items()) for t in ours] == [
            list(t.components.items()) for t in reference
        ], (F.label, G.label)


def empty_hom_pairs():
    """Constant pairs with an empty component hom (1 → 0 in the arrow, 0 → 1
    in two discrete objects), and the constant pair 0 → 1 in the arrow,
    whose components are not invertible, from sources with and without
    naturality squares."""
    arrow, two = builtin("arrow"), builtin("two_discrete")
    for X in (builtin("terminal"), builtin("chaotic(2)"), arrow):
        yield constant_functor(X, arrow, "1"), constant_functor(X, arrow, "0")
        yield constant_functor(X, two, "0"), constant_functor(X, two, "1")
        yield constant_functor(X, arrow, "0"), constant_functor(X, arrow, "1")


@pytest.mark.parametrize("invertible_only", [False, True])
def test_transformation_search_with_empty_homs_matches_the_recursion(invertible_only):
    found = 0
    for F, G in empty_hom_pairs():
        ours = enumerate_transformations(F, G, invertible_only)
        ours = [list(t.components.items()) for t in ours]
        reference = recursive_transformations(F, G, invertible_only)
        assert ours == [list(t.components.items()) for t in reference], (F.label, G.label)
        found += len(ours)
    # only the non-invertible pair 0 → 1 has a transformation, one per source
    assert found == (0 if invertible_only else 3)


def test_transformation_search_refuses_a_non_parallel_pair_before_reading_homs():
    arrow = builtin("arrow")
    F = constant_functor(builtin("terminal"), arrow, "1")
    G = constant_functor(builtin("chaotic(2)"), arrow, "0")
    for search in (enumerate_transformations, recursive_transformations):
        with pytest.raises(StructureError, match="parallel pair"):
            list(search(F, G))


SSET_SOURCES = [
    standard_simplex(0),
    standard_simplex(1),
    standard_simplex(2),
    sset_product(standard_simplex(1), standard_simplex(1)),
    nerve_truncated(builtin("parallel_pair")),
]


def test_simplicial_maps_match_the_recursion():
    for C in corpus_categories():
        if C.n_morphisms > 5:
            continue
        W = nerve_truncated(C)
        for Z in SSET_SOURCES:
            ours = truncated_sset_maps(Z, W)
            reference = recursive_sset_maps(Z, W)
            assert [list(f.items()) for f in ours] == [list(f.items()) for f in reference]


def leveled(X, dim):
    """The levels of X up to dim and its face and degeneracy tables, as
    ``check_powers_iso`` passes the nerve of the power."""
    return X.simplices[: dim + 1], X.faces, X.degeneracies


def powers_sides(X, Y, dim):
    """The two leveled systems that ``check_powers_iso`` compares."""
    left = _hom_sset_leveled(X, nerve_truncated(Y), dim)
    right = leveled(nerve_truncated(functor_category(classifying_category(X), Y)), dim)
    return left, right


@pytest.mark.parametrize("Y", ["terminal", "arrow", "free_iso", "chaotic(2)", "two_discrete"])
@pytest.mark.parametrize("dim", [0, 1, 2])
def test_leveled_bijection_matches_the_recursion(Y, dim):
    X = standard_simplex(1)
    left, right = powers_sides(X, builtin(Y), dim)
    for a, b in [(left, right), (right, left), (left, left)]:
        ours = _leveled_iso(*a, *b, dim)
        reference = recursive_leveled_iso(*a, *b, dim)
        assert ours is not None
        assert list(ours.items()) == list(reference.items())


def test_leveled_bijection_matches_the_recursion_when_a_degeneracy_refuses():
    """With one side's levels listed in reverse, the first face-compatible
    bijections send a degenerate simplex to a nondegenerate one and fail at
    the leaf, and both searches go on to the same bijection."""
    refused = 0
    for C in corpus_categories():
        if C.n_morphisms > 5:
            continue
        levels, faces, degens = leveled(nerve_truncated(C), 2)
        backwards = [level[::-1] for level in levels]
        for dim in (1, 2):
            ours = _leveled_iso(levels, faces, degens, backwards, faces, degens, dim)
            reference = recursive_leveled_iso(levels, faces, degens, backwards, faces, degens, dim)
            assert list(ours.items()) == list(reference.items())
            refused += ours != _leveled_iso(levels, faces, {}, backwards, faces, {}, dim)
    assert refused


def test_power_estimate_matches_the_recursion():
    """At budgets below the number of object maps, at that number (where
    the count may stop part way), and up to the count's full size."""
    for A, B in CATEGORY_PAIRS:
        full = recursive_functor_estimate(A, B, float("inf"))
        for budget in sorted({0, 1, B.n_objects ** A.n_objects, full // 3, full - 1, full}):
            assert _estimate_functor_candidates(A, B, budget) == recursive_functor_estimate(
                A, B, budget
            ), (A.label, B.label, budget)
