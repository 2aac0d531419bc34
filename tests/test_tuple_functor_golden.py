"""The functors into tuple categories — pairings into products and powers,
products of functors, restrictions and postcompositions between powers, the
diagonal into a pseudolimit of an arrow, and the idempotents split by the
cleavage-based pullback and the tower limit — against SHA-256 digests of
``label + key`` recorded when each construction looked up its images'
names by hand: the tuple category's one functor builder must reproduce them
exactly.  Powers the default budget refuses are skipped."""
import hashlib
from itertools import combinations, islice

import pytest

from fincat.core import (
    LEIBNIZ_GENERATORS,
    EnumerationBudgetExceeded,
    builtin,
    builtin_functor,
    enumerate_transformations,
)
from fincat.corpus import (
    corpus_categories,
    corpus_cospans_normal_left,
    corpus_functors,
    corpus_towers,
)
from fincat.funcat import (
    cells_into_power,
    functor_category,
    functor_into_power,
    pair_functor,
    postcompose_functor,
    precompose_functor,
    product_category,
    product_functor,
)
from fincat.limits import build_normal_pullback, pseudolimit_of_arrow, tower_limit

GOLDEN = {
    "pair_functor": "e774914b241f1869d5e5e1704460ac904fa26b1d6f0341586de089751e616d6e",
    "product_functor": "4b1a1a866e942974e0b8a365b6123dbdfd3d573eaa2a6819e46da67f26a5577a",
    "functor_into_power": "c08c578151c03b055b7d87f15377ac0747500fc2171bd623ed9a37ac596cbde1",
    "cells_into_power": "c6a980cd63e0e592002cacb169277ed6dafc8b301d4a4dfa87ce9b1a665bbaa9",
    "precompose_functor": "867f5eaa6478c06deee932e75ce08ae934e895d07c3ba456263c10b16bb98668",
    "postcompose_functor": "68b961e9ea9566ce9c3edc441485e40138ea44661924ab98fa76f0be53cfab60",
    "diagonal": "a9b1ced2c6f14842592009339377e4b5895ff687a751d707c9b0077077e2a4fb",
    "normal_pullback_idempotent": "c65011cc2b896bc9ddd91c44d9f70d12927a921a9e5394acb081fc07ee89085a",
    "tower_idempotent": "37c566c7aba0489280e713e642271440a05d95b67653f9f35b19d731b65c03c2",
}


def digest(functors) -> str:
    h = hashlib.sha256()
    for F in functors:
        h.update((F.label + F.key).encode())
    return h.hexdigest()


def grouped(key):
    """Corpus functors grouped by ``key``, in corpus order."""
    groups = {}
    for f in corpus_functors():
        groups.setdefault(key(f), []).append(f)
    return list(groups.values())


def pairings():
    """Each corpus functor paired with the next one of the same source."""
    for group in grouped(lambda f: f.source.digest):
        for F, G in zip(group, group[1:] + group[:1]):
            yield pair_functor(F, G, product_category(F.target, G.target))


def products():
    """F × G for each small corpus functor F and the one three places on."""
    fs = [f for f in corpus_functors() if f.source.n_morphisms * f.target.n_morphisms <= 16]
    for F, G in zip(fs, fs[3:] + fs[:3]):
        src = product_category(F.source, G.source)
        yield product_functor(F, G, src, product_category(F.target, G.target))


def parallel_groups():
    return grouped(lambda f: (f.source.digest, f.target.digest))


def pairings_into_powers():
    """The inputs of the differential test of ``functor_into_power``."""
    for group in parallel_groups():
        for n in range(1, min(len(group), 3) + 1):
            fs = group[:n]
            try:
                power = functor_category(builtin(f"discrete({n})"), fs[0].target)
            except EnumerationBudgetExceeded:
                continue
            yield functor_into_power(fs, power)


def cell_pairings():
    """The inputs of the differential test of ``cells_into_power``."""
    for group in parallel_groups():
        for h, k in islice(combinations(group, 2), 3):
            cells = list(islice(enumerate_transformations(h, k), 2))
            if not cells:
                continue
            try:
                power = functor_category(builtin("parallel_pair"), h.target)
            except EnumerationBudgetExceeded:
                continue
            for pair in ([cells[0], cells[-1]], [cells[-1], cells[0]]):
                yield cells_into_power(pair, power)


def restrictions():
    for name in LEIBNIZ_GENERATORS:
        j = builtin_functor(name)
        for D in corpus_categories():
            try:
                yield precompose_functor(j, D)
            except EnumerationBudgetExceeded:
                continue


def postcompositions():
    exponents = [builtin("free_iso"), builtin("arrow"), builtin("discrete(2)")]
    for p in corpus_functors():
        for X in exponents:
            try:
                yield postcompose_functor(p, X)
            except EnumerationBudgetExceeded:
                continue


CONSTRUCTIONS = {
    "pair_functor": pairings,
    "product_functor": products,
    "functor_into_power": pairings_into_powers,
    "cells_into_power": cell_pairings,
    "precompose_functor": restrictions,
    "postcompose_functor": postcompositions,
    "diagonal": lambda: (pseudolimit_of_arrow(f).diagonal for f in corpus_functors()),
    "normal_pullback_idempotent": lambda: (
        build_normal_pullback(f, g).idempotent for f, g in corpus_cospans_normal_left()
    ),
    "tower_idempotent": lambda: (
        tower_limit(base, maps).idempotent for base, maps in corpus_towers()
    ),
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_functors_into_tuple_categories_match_their_recorded_digests(name):
    assert digest(CONSTRUCTIONS[name]()) == GOLDEN[name]
