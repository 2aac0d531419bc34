"""The search engines keep no reference cycles: with the cycle collector
off, what a caller passes to a search is freed by reference counting as
soon as the caller drops it, whether the search ran out, found its answer,
stopped at its limit or was abandoned with its stack of candidate
generators part way down."""
import gc
import weakref

import pytest

from fincat.core import (
    builtin,
    enumerate_functors,
    enumerate_isomorphisms,
    enumerate_transformations,
    find_isomorphism,
    identity_functor,
)
from fincat.funcat import _estimate_functor_candidates
from fincat.nerve import (
    _leveled_iso,
    nerve_truncated,
    standard_simplex,
    truncated_sset_maps,
)


@pytest.fixture(autouse=True)
def no_cycle_collector():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class Faces(dict):
    """A face table that can be watched through a weak reference."""


def run_enumerate_functors(cat):
    list(enumerate_functors(builtin("arrow"), cat))


def abandon_enumerate_functors(cat):
    search = enumerate_functors(builtin("arrow"), cat)
    next(search)


def run_find_isomorphism(cat):
    assert find_isomorphism(cat, cat) is not None


def run_enumerate_transformations(cat):
    F = identity_functor(cat)
    list(enumerate_transformations(F, F))


def abandon_enumerate_transformations(cat):
    F = identity_functor(cat)
    search = enumerate_transformations(F, F)
    next(search)


def abandon_enumerate_isomorphisms(cat):
    search = enumerate_isomorphisms(cat, cat)
    next(search)
    next(search)


def run_functor_estimate(cat):
    _estimate_functor_candidates(builtin("arrow"), cat, 1_000)


def run_truncated_sset_maps(sset):
    assert truncated_sset_maps(standard_simplex(1), sset)


def run_leveled_iso(faces):
    X = standard_simplex(2)
    levels, degens = X.simplices, X.degeneracies
    assert _leveled_iso(levels, faces, degens, levels, faces, degens, 2) is not None


SEARCHES = {
    "enumerate_functors": (lambda: builtin("chaotic(3)"), run_enumerate_functors),
    "enumerate_functors abandoned": (lambda: builtin("chaotic(3)"), abandon_enumerate_functors),
    "find_isomorphism": (lambda: builtin("chaotic(3)"), run_find_isomorphism),
    "enumerate_transformations": (lambda: builtin("chaotic(3)"), run_enumerate_transformations),
    "enumerate_transformations abandoned": (
        lambda: builtin("chaotic(3)"), abandon_enumerate_transformations
    ),
    "enumerate_isomorphisms abandoned": (
        lambda: builtin("chaotic(3)"), abandon_enumerate_isomorphisms
    ),
    "functor_category estimate": (lambda: builtin("chaotic(3)"), run_functor_estimate),
    "truncated_sset_maps": (lambda: nerve_truncated(builtin("chaotic(2)")), run_truncated_sset_maps),
    "_leveled_iso": (lambda: Faces(standard_simplex(2).faces), run_leveled_iso),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_a_search_frees_its_input_when_the_caller_drops_it(name):
    make, search = SEARCHES[name]
    value = make()
    watched = weakref.ref(value)
    search(value)
    del value
    assert watched() is None
