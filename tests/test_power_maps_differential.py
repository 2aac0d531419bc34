"""The maps between powers, which act on a power's parts, against references
that build each image as a functor or a transformation and name it from its
parts (``tests/helpers.py``): the object and morphism maps must agree entry
for entry, in the same key order.  Powers the default budget refuses are
skipped."""
from itertools import combinations, islice

from fincat.core import EnumerationBudgetExceeded, builtin, enumerate_transformations
from fincat.corpus import corpus_categories, corpus_functors
from fincat.funcat import (
    cells_into_power,
    functor_category,
    functor_into_power,
    postcompose_functor,
    precompose_functor,
)
from helpers import (
    cells_into_power_reference,
    functor_into_power_reference,
    postcompose_reference,
    precompose_reference,
)


def assert_same_map(new, ref, case):
    assert list(new.omap.items()) == list(ref.omap.items()), case
    assert list(new.mmap.items()) == list(ref.mmap.items()), case
    assert (new.source, new.target, new.label) == (ref.source, ref.target, ref.label), case


def compare(build, reference, *args):
    try:
        new = build(*args)
    except EnumerationBudgetExceeded:
        return 0
    assert_same_map(new, reference(*args), [a.label for a in args])
    return 1


def test_postcompose_by_parts_equals_whiskering_every_transformation():
    exponents = [builtin("free_iso"), builtin("arrow"), builtin("discrete(2)")]
    checked = sum(
        compare(postcompose_functor, postcompose_reference, p, X)
        for p in corpus_functors()
        for X in exponents
    )
    assert checked > 1000


def test_precompose_by_gathered_parts_equals_whiskering_every_transformation():
    # the corpus categories with at most four morphisms; the larger ones
    # make the reference, which re-enumerates each power's transformations,
    # the slowest test of the suite
    bases = [D for D in corpus_categories() if D.n_morphisms <= 4]
    checked = sum(
        compare(precompose_functor, precompose_reference, j, D)
        for j in corpus_functors()
        for D in bases
    )
    assert len(bases) >= 6 and checked > 3000


def parallel_groups():
    """Corpus functors grouped by their source and target, in corpus order."""
    groups = {}
    for f in corpus_functors():
        groups.setdefault((f.source.digest, f.target.digest), []).append(f)
    return list(groups.values())


def test_pairing_into_discrete_powers_equals_naming_each_transformation():
    checked = 0
    for group in parallel_groups():
        for n in range(1, min(len(group), 3) + 1):
            fs = group[:n]
            try:
                power = functor_category(builtin(f"discrete({n})"), fs[0].target)
            except EnumerationBudgetExceeded:
                continue
            assert_same_map(
                functor_into_power(fs, power), functor_into_power_reference(fs, power), fs[0].label
            )
            checked += 1
    assert checked > 100


def test_pairing_cells_into_the_parallel_pair_power_equals_naming_each_transformation():
    checked = 0
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
                assert_same_map(
                    cells_into_power(pair, power), cells_into_power_reference(pair, power), h.label
                )
                checked += 1
    assert checked > 20
