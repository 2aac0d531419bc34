import pytest

from fincat.core import (
    NatTrans,
    builtin,
    validate_category,
    validate_functor,
)
from fincat.corpus import (
    chaotic_collapse,
    corpus_categories,
    corpus_cospans_normal_left,
    corpus_functors,
    corpus_towers,
    iso_inclusion_into_chaotic,
)
from fincat.counterexamples import build_fy
from fincat.fibrations import classify_fibration
from fincat.funcat import evaluation_functor, functor_category
from fincat.limits import equifier
from helpers import check_cleavage, constant_functor


def test_corpus_categories_all_validated_and_bounded():
    cats = corpus_categories()
    assert len(cats) >= 12
    for c in cats:
        assert validate_category(c) is c
        assert c.n_objects <= 6 and c.n_morphisms <= 24


BUILTIN_NAMES = ["terminal", "two_discrete", "arrow", "parallel_pair", "free_iso"] + [
    f"{kind}({n})" for kind in ("discrete", "chaotic") for n in range(4)
]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_categories_are_lawful(name):
    # builtin() checks nothing: its tables are lawful by construction
    validate_category(builtin(name))


def test_library_built_functors_are_lawful():
    validate_functor(chaotic_collapse())
    validate_functor(iso_inclusion_into_chaotic())
    for k in range(5):
        for alpha in (2, 3, 4):
            f = build_fy(k, alpha)
            validate_functor(f.source)  # the two legs out of P(k, <alpha)
            validate_functor(f.level0)


def test_corpus_functors_are_functorial():
    for f in corpus_functors()[:80]:
        validate_functor(f)


def test_corpus_towers_have_normal_legs():
    towers = corpus_towers()
    assert len(towers) >= 5
    lengths = {len(maps) for _, maps in towers}
    assert {0, 1, 2, 3, 4} <= lengths
    for base, maps in towers:
        at = base
        for f in maps:
            assert f.target == at
            at = f.source
            assert classify_fibration(f, grothendieck=False).normal


def test_corpus_cospans_share_codomain():
    cospans = corpus_cospans_normal_left()
    assert len(cospans) >= 12
    for f, g in cospans:
        assert f.target == g.target
        assert classify_fibration(f, grothendieck=False).normal


def test_chaotic_collapse_is_normal_isofibration():
    assert classify_fibration(chaotic_collapse()).normal


def test_cod_projection_on_chaotic_power_is_not_discrete():
    # a target with non-identity isomorphisms admits several lifts of the
    # same downstairs isomorphism, so uniqueness fails
    chaos = builtin("chaotic(2)")
    power = functor_category(builtin("free_iso"), chaos)
    cod = evaluation_functor(power, "1")
    report = classify_fibration(cod)
    assert report.representable and report.normal
    assert not report.discrete


def test_cod_projection_cleavage_lifts_are_evident_squares():
    from fincat.fibrations import build_normal_cleavage

    chaos = builtin("chaotic(2)")
    power = functor_category(builtin("free_iso"), chaos)
    cod = evaluation_functor(power, "1")
    cl = build_normal_cleavage(cod)
    check_cleavage(cl)
    for (e, beta), lifted in cl.lift.items():
        # the chosen lift projects onto the downstairs isomorphism and is
        # the first valid candidate in morphism order
        assert cod.mor(lifted) == beta
        assert power.dom(lifted) == e
        candidates = [
            m
            for m in power.morphisms_from(e)
            if power.is_iso(m) and cod.mor(m) == beta
        ]
        if chaos.is_identity(beta):
            assert power.is_identity(lifted)
        else:
            assert lifted == candidates[0]
            assert len(candidates) > 1  # the flexibility that kills uniqueness


def test_equifier_of_distinct_cells_is_empty():
    pp = builtin("parallel_pair")
    one = builtin("terminal")
    h = constant_functor(one, pp, "0")
    k = constant_functor(one, pp, "1")
    t1 = NatTrans(h, k, {"*": "a0"})
    t2 = NatTrans(h, k, {"*": "a1"})
    w = equifier(t1, t2)
    assert w.apex.n_objects == 0
