"""Counting oracles: the number of functors and isomorphisms that the
searches list, against closed forms.

The brute-force references in ``helpers`` walk unpruned products, so they
check the searches only on small inputs; a closed-form count costs only the
search under test and reaches much further.

* chain(k) → chain(m): the monotone maps of k points into m, C(m + k − 1, k);
* chaotic(n) → chaotic(m): any object map extends uniquely, mⁿ;
* cyclic(n) → cyclic(m): the group maps Z/n → Z/m, gcd(n, m);
* free_iso → chaotic(n): the isomorphisms of chaotic(n), n²;
* arrow → chain(n): the morphisms of chain(n), n(n + 1)/2;
* automorphisms: n! for chaotic(n), Euler's φ(n) for cyclic(n).
"""
from math import comb, factorial, gcd

import pytest

from fincat.core import builtin, enumerate_functors, enumerate_isomorphisms
from fincat.corpus import chain_poset, cyclic_group_category


def _count(items) -> int:
    return sum(1 for _ in items)


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


FUNCTOR_COUNTS = [
    ("chain(5) -> chain(7)", lambda: (chain_poset(5), chain_poset(7)), comb(11, 5)),
    ("chain(4) -> chain(6)", lambda: (chain_poset(4), chain_poset(6)), comb(9, 4)),
    ("chain(6) -> chain(6)", lambda: (chain_poset(6), chain_poset(6)), comb(11, 6)),
    ("chaotic(5) -> chaotic(5)", lambda: (builtin("chaotic(5)"), builtin("chaotic(5)")), 5**5),
    ("chaotic(4) -> chaotic(4)", lambda: (builtin("chaotic(4)"), builtin("chaotic(4)")), 4**4),
    (
        "cyclic(60) -> cyclic(84)",
        lambda: (cyclic_group_category(60), cyclic_group_category(84)),
        gcd(60, 84),
    ),
    (
        "cyclic(12) -> cyclic(18)",
        lambda: (cyclic_group_category(12), cyclic_group_category(18)),
        gcd(12, 18),
    ),
    ("free_iso -> chaotic(40)", lambda: (builtin("free_iso"), builtin("chaotic(40)")), 40**2),
    ("arrow -> chain(30)", lambda: (builtin("arrow"), chain_poset(30)), 30 * 31 // 2),
]

AUTOMORPHISM_COUNTS = [
    ("chaotic(5)", lambda: builtin("chaotic(5)"), factorial(5)),
    ("chaotic(6)", lambda: builtin("chaotic(6)"), factorial(6)),
    ("cyclic(12)", lambda: cyclic_group_category(12), _phi(12)),
    ("cyclic(30)", lambda: cyclic_group_category(30), _phi(30)),
]


def test_the_closed_forms_are_the_recorded_numbers():
    assert [n for _, _, n in FUNCTOR_COUNTS] == [462, 126, 462, 3125, 256, 12, 6, 1600, 465]
    assert [n for _, _, n in AUTOMORPHISM_COUNTS] == [120, 720, 4, 8]


@pytest.mark.parametrize("name, pair, expected", FUNCTOR_COUNTS, ids=[c[0] for c in FUNCTOR_COUNTS])
def test_enumerate_functors_lists_the_closed_form_count(name, pair, expected):
    source, target = pair()
    assert _count(enumerate_functors(source, target)) == expected


@pytest.mark.parametrize(
    "name, cat, expected", AUTOMORPHISM_COUNTS, ids=[c[0] for c in AUTOMORPHISM_COUNTS]
)
def test_enumerate_isomorphisms_lists_the_closed_form_automorphism_count(name, cat, expected):
    C = cat()
    assert _count(enumerate_isomorphisms(C, C)) == expected
