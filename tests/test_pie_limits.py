"""Flexible limits from their PIE presentation: the isocomma built from a
product, two inserters and two equifiers (``helpers.pie_isocomma``) is
isomorphic over both legs to ``limits.isocomma``, and the strict pullback,
which has fewer objects, is not always."""
from fincat.corpus import corpus_cospans_normal_left, corpus_functors
from fincat.limits import find_isomorphism_over, isocomma, pullback_strict
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
