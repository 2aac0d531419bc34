"""Exhaustive invariant sweeps that go beyond the sampled property tests."""
from itertools import islice

from fincat.core import builtin, enumerate_functors, identity_functor, find_isomorphism
from fincat.corpus import corpus_categories, corpus_functors
from fincat.cosmos import nip_square_filler
from fincat.equivalence import EquivalenceWitness, classify_equivalence, validate_witness
from fincat.funcat import product_category
from fincat.limits import pseudolimit_of_arrow, split_idempotent
from fincat.nerve import (
    classifying_category,
    nerve_truncated,
    sset_product,
)
from helpers import coskeletal_filler_check, is_equivalence_bf


def test_equivalence_classifier_agrees_with_oracle_on_all_corpus_functors():
    """Every witness the classifier builds is valid, and an injective one
    has an identity unit."""
    for F in corpus_functors():
        expected = is_equivalence_bf(F)
        got = classify_equivalence(F)
        assert isinstance(got, EquivalenceWitness) == expected, F.label
        if expected:
            validate_witness(got)
            assert got.kind != "injective" or got.unit.is_identity(), F.label


def test_all_idempotents_on_small_corpus_categories_split():
    small = [c for c in corpus_categories() if c.n_morphisms <= 9]
    found = 0
    for C in small:
        for e in islice(enumerate_functors(C, C), 128):
            if e.then(e) != e:
                continue
            s = split_idempotent(e)
            assert s.inclusion.then(s.retraction) == identity_functor(s.apex)
            assert s.retraction.then(s.inclusion) == e
            found += 1
    assert found >= len(small)  # identities split at the very least


def test_all_corpus_nerves_are_coskeletal():
    for C in corpus_categories():
        assert coskeletal_filler_check(nerve_truncated(C)), C.label


def test_classifying_preserves_products_third_pair():
    A, B = builtin("parallel_pair"), builtin("arrow")
    X = sset_product(nerve_truncated(A), nerve_truncated(B))
    P = classifying_category(X)
    assert find_isomorphism(P, product_category(A, B)) is not None


def test_collapse_to_terminal_projection_kinds():
    two = builtin("arrow")
    one = builtin("terminal")
    from fincat.core import FinFunctor

    f = FinFunctor(
        two, one, {a: "*" for a in two.objects}, {m.name: "id_*" for m in two.morphisms}
    )
    pl = pseudolimit_of_arrow(f)
    wu = classify_equivalence(pl.to_source)
    wd = classify_equivalence(pl.diagonal)
    assert isinstance(wu, EquivalenceWitness) and wu.has_section
    assert isinstance(wd, EquivalenceWitness) and wd.has_retraction


def test_finset_all_fill_at_the_maximum_bound():
    res = nip_square_filler("finset", 4)
    assert res.all_fill
    assert res.squares_checked > 1_000_000
