"""Flexible limits from their PIE presentation: the isocomma built from a
product, two inserters and two equifiers (``helpers.pie_isocomma``) is
isomorphic over both legs to ``limits.isocomma``, and the strict pullback,
which has fewer objects, is not always.  The pseudolimit of an arrow f :
A → B is the isocomma of f and 1_B, with the same objects (a, b, f a ≅ b)."""
from fincat.core import identity_functor
from fincat.corpus import corpus_cospans_normal_left, corpus_functors
from fincat.limits import (
    LimitWitness,
    find_isomorphism_over,
    isocomma,
    pseudolimit_of_arrow,
    pullback_strict,
)
from helpers import pie_isocomma


def _same_target_pairs(per_target: int = 6):
    """Every ordered pair of the first ``per_target`` corpus functors into
    each target."""
    into: dict = {}
    for F in corpus_functors():
        into.setdefault(F.target, []).append(F)
    return [(F, G) for fs in into.values() for F in fs[:per_target] for G in fs[:per_target]]


def test_the_pie_isocomma_is_the_isocomma_and_not_the_strict_pullback():
    cospans = [*corpus_cospans_normal_left(), *_same_target_pairs()]
    assert len(cospans) == 48 + 504
    strict = 0
    for F, G in cospans:
        pie = pie_isocomma(F, G)
        assert find_isomorphism_over(pie, isocomma(F, G)) is not None, (F, G)
        strict += find_isomorphism_over(pie, pullback_strict(F, G)) is not None
    assert len(cospans) - strict == 144


def test_the_pseudolimit_of_an_arrow_is_its_isocomma_with_the_identity():
    """Over (to_source, to_target), pseudolimit_of_arrow(f) is isomorphic
    to isocomma(f, 1_B) for every corpus functor, and to the PIE isocomma
    for the first 120; the strict pullback of f and 1_B is not, for 40 of
    those 120."""
    functors = corpus_functors()
    assert len(functors) == 502
    strict = 0
    for k, f in enumerate(functors):
        pl = pseudolimit_of_arrow(f)
        legs = LimitWitness(pl.apex, (pl.to_source, pl.to_target), (), lambda: None)
        one = identity_functor(f.target)
        assert find_isomorphism_over(legs, isocomma(f, one)) is not None, f
        if k < 120:
            assert find_isomorphism_over(legs, pie_isocomma(f, one)) is not None, f
            strict += find_isomorphism_over(legs, pullback_strict(f, one)) is None
    assert strict == 40
