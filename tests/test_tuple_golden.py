"""The library's componentwise-composed categories — strict pullbacks,
isocommas, binary products and powers — and the functors out of them,
against SHA-256 digests of ``label + key`` recorded when each builder wrote
its own identity, composition and lookup tables: the shared tuple builder
must reproduce them exactly.  The hom-categories of squares out of the two
test objects, and postcomposition with the ``fy`` squares, are built on the
same tuple builder by the reference in ``helpers`` and must reproduce the
digest recorded when the library built them.  The functor a power builds
from an object's parts must also be the one its enumeration yielded there,
and be named by that object."""
import hashlib

import pytest

from fincat.core import EnumerationBudgetExceeded, bounded, enumerate_functors
from fincat.corpus import corpus_categories, corpus_cospans_normal_left
from fincat.counterexamples import build_fy
from fincat.funcat import (
    evaluation_functor,
    functor_category,
    product_category,
    product_projections,
)
from fincat.limits import isocomma, pullback_strict
from helpers import (
    arrow_hom_postcompose_reference,
    arrow_hom_reference,
    default_arrow_test_objects,
    functor_named,
    name_of_functor,
)

GOLDEN = {
    "pullback_strict": "cf5756c9b5549acfd7e776978189c2a0d2cbf04911cb9a21e9a5816a893f1620",
    "isocomma": "d8fa5747b06b9a95330b1c84ebb0712d4464f35350a8b742fe1da8e073d48372",
    "product_category": "92f63d44ee434ca7ab7b2109e983df75ed251e027b272b16d43dda309cb52fb0",
    "functor_category": "dc75fe8db490b7c191346c45749782de42fc08882e9ed087582f382f962920bf",
    "arrow_hom_category": "9a7a32ed9c1c8d3e53685b4210f9ebceadc0f20c773090c9e8fc4c37c03d459c",
}


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update((v.label + v.key).encode())
    return h.hexdigest()


def limit_values(construct):
    for F, G in corpus_cospans_normal_left():
        w = construct(F, G)
        yield w.apex
        yield from w.projections


def products():
    cats = corpus_categories()
    for A in cats:
        for B in cats:
            prod = product_category(A, B)
            yield prod
            yield from product_projections(prod)


# Every corpus power fits the default budget; the three that need more than
# this (square and iso_arrow into chaotic(3), square into iso_arrow) hold
# over 5,000 transformations each and take most of the suite's time to build.
GOLDEN_BUDGET = 5_000


def powers():
    """The corpus powers within ``GOLDEN_BUDGET``."""
    cats = corpus_categories()
    for C in cats:
        for D in cats:
            try:
                with bounded(budget=GOLDEN_BUDGET):
                    power = functor_category(C, D)
            except EnumerationBudgetExceeded:
                continue
            yield power


def power_values():
    for power in powers():
        yield power
        for a in power.source_category.objects:
            yield evaluation_functor(power, a)


def arrow_homs():
    for k in range(5):
        for alpha in (2, 3, 4):
            f = build_fy(k, alpha)
            for X in default_arrow_test_objects():
                for A in (f.source, f.target):
                    yield arrow_hom_reference(X, A)[0]
                yield arrow_hom_postcompose_reference(X, f)


CONSTRUCTIONS = {
    "pullback_strict": lambda: limit_values(pullback_strict),
    "isocomma": lambda: limit_values(isocomma),
    "product_category": products,
    "functor_category": power_values,
    "arrow_hom_category": arrow_homs,
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_tuple_constructions_match_their_recorded_digests(name):
    assert digest(CONSTRUCTIONS[name]()) == GOLDEN[name]


def test_power_name_lookups_invert_the_enumeration():
    """A power builds the functor of each object from its parts, and that
    functor is the one the search yielded at the object's position, and is
    named by it."""
    n_powers = 0
    for power in powers():
        n_powers += 1
        enumerated = enumerate_functors(power.source_category, power.target_category)
        for name, F in zip(power.objects, enumerated, strict=True):
            built = functor_named(power, name)
            assert built == F
            assert name_of_functor(power, built) == name
    assert n_powers > 100
