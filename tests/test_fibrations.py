import pytest

from fincat.core import (
    FinFunctor,
    NatTrans,
    NotIsofibration,
    builtin,
    builtin_functor,
    identity_functor,
)
from fincat.corpus import corpus_functors
from fincat.fibrations import build_normal_cleavage, classify_fibration, lift_iso_2cell
from helpers import (
    CleavageNotNormal,
    check_cleavage,
    constant_functor,
    lift_from,
    perturbed_cleavage,
)


def to_terminal(cat):
    one = builtin("terminal")
    return FinFunctor(
        cat, one, {a: "*" for a in cat.objects}, {m.name: "id_*" for m in cat.morphisms}
    )


def test_identity_functor_has_all_flags():
    for name in ["arrow", "free_iso", "chaotic(2)"]:
        rep = classify_fibration(identity_functor(builtin(name)))
        assert rep.representable and rep.discrete and rep.grothendieck and rep.normal


def test_map_to_terminal_is_representable_and_normal():
    for name in ["terminal", "arrow", "free_iso", "parallel_pair", "chaotic(3)"]:
        rep = classify_fibration(to_terminal(builtin(name)))
        assert rep.representable and rep.normal


def test_chaotic_over_terminal_not_discrete():
    rep = classify_fibration(to_terminal(builtin("chaotic(2)")))
    assert rep.representable and rep.normal and rep.grothendieck
    assert not rep.discrete


def test_arrow_over_terminal_is_grothendieck_and_discrete():
    rep = classify_fibration(to_terminal(builtin("arrow")))
    assert rep.representable and rep.discrete and rep.grothendieck and rep.normal


def test_point_into_free_iso_not_isofibration():
    rep = classify_fibration(builtin_functor("point_to_iso"))
    assert not rep.representable and not rep.normal and not rep.discrete
    assert rep.failures["representable"] == ("*", "to")


def test_discrete_inclusion_into_arrow_not_grothendieck():
    rep = classify_fibration(builtin_functor("discrete_to_arrow"))
    assert rep.representable and rep.discrete and rep.normal
    assert not rep.grothendieck
    e, beta, bdom, bcod = rep.failures["grothendieck"]
    assert (e, beta, bdom, bcod) == ("1", "a", "0", "1")


def test_discrete_implies_representable_on_samples():
    samples = [
        identity_functor(builtin("free_iso")),
        to_terminal(builtin("arrow")),
        to_terminal(builtin("chaotic(2)")),
        builtin_functor("discrete_to_arrow"),
        builtin_functor("point_to_iso"),
        builtin_functor("collapse_parallel"),
    ]
    for F in samples:
        rep = classify_fibration(F)
        if rep.discrete:
            assert rep.representable
        if rep.representable:
            assert rep.normal  # objectwise lifts always admit a normal choice here


def test_normal_cleavage_exists_exactly_for_representable_functors():
    """A normal cleavage is built exactly for the representable corpus
    functors, and each one built lifts every iso out of the image of every
    object to an iso over it, and every identity to an identity.  Each
    functor's cached ``fibration`` is the report a fresh classification
    gives, and a second read returns the same object."""
    for F in corpus_functors():
        try:
            cl = build_normal_cleavage(F)
        except NotIsofibration:
            cl = None
        report = F.fibration
        assert report is F.fibration and report == classify_fibration(F, grothendieck=False), F
        assert (cl is not None) == report.representable, F
        if cl is not None:
            check_cleavage(cl)


def test_build_normal_cleavage_identity_functor():
    iso = builtin("free_iso")
    cl = build_normal_cleavage(identity_functor(iso))
    # lifting along the identity returns the input isomorphism itself
    for e in iso.objects:
        for beta in iso.isos:
            if iso.dom(beta) == e:
                assert lift_from(cl, e, beta) == beta
    check_cleavage(cl)


def test_build_normal_cleavage_chaotic_over_terminal():
    chaos = builtin("chaotic(2)")
    cl = build_normal_cleavage(to_terminal(chaos))
    # only identity isomorphisms exist downstairs, so all lifts are identities
    for (e, beta), got in cl.lift.items():
        assert chaos.is_identity(got)


def test_build_normal_cleavage_rejects_non_isofibration():
    with pytest.raises(NotIsofibration):
        build_normal_cleavage(builtin_functor("point_to_iso"))


def test_perturbed_cleavage_is_not_normal():
    chaos = builtin("chaotic(2)")
    cl = perturbed_cleavage(to_terminal(chaos))
    assert cl is not None
    bad = [
        (e, beta)
        for (e, beta), got in cl.lift.items()
        if builtin("terminal").is_identity(beta) and not chaos.is_identity(got)
    ]
    assert bad
    # a lawful cleavage all the same, refused only where normality is asked for
    assert check_cleavage(cl, normal=False) is cl
    with pytest.raises(CleavageNotNormal):
        check_cleavage(cl)


def test_perturbed_cleavage_impossible_for_discrete_fibration():
    assert perturbed_cleavage(to_terminal(builtin("arrow"))) is None


def test_lift_iso_2cell_through_identity():
    iso = builtin("free_iso")
    one = builtin("terminal")
    p = identity_functor(iso)
    cl = build_normal_cleavage(p)
    k = constant_functor(one, iso, "0")
    t = constant_functor(one, iso, "1")
    beta = NatTrans(k, t.then(p), {"*": "to"})
    h, theta = lift_iso_2cell(cl, t, beta)
    assert h.then(p) == k
    assert theta.component("*") == "to"
    assert h.ob("*") == "0"


def test_lift_iso_2cell_normality_gives_identities():
    chaos = builtin("chaotic(2)")
    p = to_terminal(chaos)
    cl = build_normal_cleavage(p)
    t = identity_functor(chaos)
    k = t.then(p)
    beta = NatTrans(k, k, {a: "id_*" for a in chaos.objects})
    h, theta = lift_iso_2cell(cl, t, beta)
    assert h == t
    assert theta.is_identity()


def test_lift_commutes_with_prewhiskering():
    # the objectwise cleavage is natural in the indexing domain by
    # construction; pin that with a concrete probe
    chaos = builtin("chaotic(2)")
    iso = builtin("free_iso")
    p = to_terminal(chaos)
    cl = build_normal_cleavage(p)
    t = constant_functor(iso, chaos, "0")
    k = constant_functor(iso, chaos, "1").then(p)
    beta = NatTrans(k, t.then(p), {a: "id_*" for a in iso.objects})
    h, theta = lift_iso_2cell(cl, t, beta)
    W = constant_functor(builtin("terminal"), iso, "0")
    h2, theta2 = lift_iso_2cell(cl, W.then(t), beta.whisker_pre(W))
    assert h2 == W.then(h)
    assert theta2.components == {"*": theta.component("0")}
