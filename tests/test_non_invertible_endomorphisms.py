"""Categories with non-invertible endomorphisms, which no corpus category
has: the walking idempotent, the full transformation monoid on two points
and the walking split idempotent.  On them a one-sided inverse is not an
inverse, so the library's isomorphisms, functor search, equivalence
classifier, factorization and iso-power comparison are checked against the
brute-force references here."""
import time

import pytest

from fincat.core import builtin, enumerate_functors
from fincat.corpus import corpus_categories
from fincat.equivalence import EquivalenceWitness, classify_equivalence
from fincat.fibrations import classify_fibration
from fincat.wfs import compute_wf, factorize_wfs
from helpers import (
    brute_force_functors,
    is_equivalence_bf,
    isos_bf,
    transformation_monoid_2,
    walking_idempotent,
    walking_split_idempotent,
)


def _small_categories():
    return [
        walking_idempotent(),
        transformation_monoid_2(),
        walking_split_idempotent(),
        *(builtin(name) for name in ("terminal", "arrow", "free_iso")),
    ]


@pytest.mark.parametrize(
    "cat",
    [*corpus_categories(), walking_split_idempotent()],
    ids=lambda cat: cat.label,
)
def test_the_inverses_are_the_two_sided_ones(cat):
    assert isos_bf(cat) == dict(cat._inverse)


def test_the_isomorphisms_of_the_one_object_monoids():
    assert isos_bf(walking_idempotent()) == {"1": "1"}
    assert isos_bf(transformation_monoid_2()) == {"id": "id", "swap": "swap"}
    assert walking_idempotent().isos == ("1",)
    assert transformation_monoid_2().isos == ("id", "swap")


def test_functors_between_non_invertible_endomorphisms():
    started = time.perf_counter()
    cats = _small_categories()
    checked = equivalences = 0
    for A in cats:
        for B in cats:
            functors = list(enumerate_functors(A, B))
            # ordered lists: the engine's yield order is part of its contract
            assert functors == brute_force_functors(A, B), (A.label, B.label)
            for F in functors:
                w = classify_equivalence(F)
                assert isinstance(w, EquivalenceWitness) == is_equivalence_bf(F), F
                equivalences += isinstance(w, EquivalenceWitness)
                # criterion 1's check of the factorization
                fac = factorize_wfs(F)
                assert fac.left.then(fac.right) == F, F
                left = classify_equivalence(fac.left)
                assert isinstance(left, EquivalenceWitness) and left.has_retraction, F
                assert classify_fibration(fac.right, grothendieck=False).normal, F
                # criterion 10
                assert compute_wf(F).ok, F
                checked += 1
    assert (checked, equivalences) == (81, 13)
    assert time.perf_counter() - started < 3
