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
* automorphisms: n! for chaotic(n), Euler's φ(n) for cyclic(n);
* the iso-power D^I, I the free isomorphism: an object is an isomorphism of
  D and a morphism F ⇒ G its component at 0, any morphism F0 → G0; so
  chaotic(n)^I has n² objects and n⁴ morphisms, and cyclic(n)^I has n
  objects and n³ morphisms;
* the sections of a split epi of finite sets, discrete(n) → discrete(m):
  one preimage chosen in each fibre, the product of the fibre sizes.
"""
import random
from math import comb, factorial, gcd, prod

import pytest

from fincat.core import (
    FinFunctor,
    builtin,
    discrete_category,
    enumerate_functors,
    enumerate_isomorphisms,
)
from fincat.corpus import chain_poset, cyclic_group_category
from fincat.equivalence import find_sections
from fincat.funcat import functor_category


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


# n = 11 is the largest the default budget admits for both bases: each
# counts n² object candidates and then n⁴ transformation candidates
ISO_POWER_SIZES = [1, 2, 3, 5, 8, 11]


@pytest.mark.parametrize("n", ISO_POWER_SIZES)
def test_the_iso_power_of_chaotic_n_has_n_squared_objects_and_n_to_the_fourth_morphisms(n):
    power = functor_category(builtin("free_iso"), builtin(f"chaotic({n})"))
    assert (power.n_objects, power.n_morphisms) == (n**2, n**4)


@pytest.mark.parametrize("n", ISO_POWER_SIZES)
def test_the_iso_power_of_cyclic_n_has_n_objects_and_n_cubed_morphisms(n):
    power = functor_category(builtin("free_iso"), cyclic_group_category(n))
    assert (power.n_objects, power.n_morphisms) == (n, n**3)


def _split_epi(fibres: tuple[int, ...]) -> FinFunctor:
    """discrete(sum fibres) → discrete(len fibres), onto, with the fibre of b
    of size ``fibres[b]``, its points scattered over the source."""
    images = [str(b) for b, size in enumerate(fibres) for _ in range(size)]
    random.Random(len(images)).shuffle(images)
    source, target = discrete_category(len(images)), discrete_category(len(fibres))
    omap = dict(zip(source.objects, images))
    return FinFunctor(source, target, omap, {f"id_{a}": f"id_{b}" for a, b in omap.items()})


SPLIT_EPI_FIBRES = [(1,), (1,) * 12, (3, 1, 2, 4), (5, 4, 3, 2, 1), (2,) * 8, (7, 6, 5, 4, 3), (3,) * 8]


@pytest.mark.parametrize("fibres", SPLIT_EPI_FIBRES, ids=str)
def test_find_sections_lists_one_section_per_choice_of_preimages(fibres):
    assert _count(find_sections(_split_epi(fibres))) == prod(fibres)
