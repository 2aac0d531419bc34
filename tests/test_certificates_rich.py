"""Universal properties replayed against a richer set of cone vertices, and
serializer round-trips."""
from fincat.core import FinFunctor, builtin, identity_functor, validate_functor
from fincat.corpus import chaotic_collapse, to_terminal_functor
from fincat.funcat import evaluation_functor, functor_category, precompose_functor
from fincat.limits import (
    build_normal_pullback,
    isocomma,
    pullback_strict,
    tower_limit,
)
from fincat.serialize import functor_from_node
from helpers import functor_to_dict

RICH = (
    builtin("terminal"),
    builtin("arrow"),
    builtin("free_iso"),
    builtin("parallel_pair"),
)


def test_pullback_certificate_with_rich_vertices():
    two = builtin("arrow")
    power = functor_category(builtin("free_iso"), two)
    cod = evaluation_functor(power, "1")
    w = pullback_strict(cod, cod, vertices=RICH)
    assert w.certificate.ok
    assert w.certificate.cones_checked >= 10
    assert set(w.certificate.vertices) == {c.label for c in RICH}


def test_isocomma_certificate_with_rich_vertices():
    chaos = builtin("chaotic(2)")
    w = isocomma(identity_functor(chaos), identity_functor(chaos), vertices=RICH)
    assert w.certificate.ok
    assert w.certificate.cones_checked > 20


def test_normal_pullback_certificate_with_rich_vertices():
    chaos = builtin("chaotic(2)")
    f = to_terminal_functor(chaos)
    np = build_normal_pullback(f, f, vertices=RICH)
    assert np.witness.certificate.ok


def test_tower_certificate_with_rich_vertices():
    one = builtin("terminal")
    tl = tower_limit(
        one,
        [to_terminal_functor(builtin("chaotic(2)")), chaotic_collapse()],
        vertices=RICH,
    )
    assert tl.witness.certificate.ok
    assert tl.witness.certificate.cones_checked > 5


def test_functor_round_trip_through_serialization(tmp_path):
    j = precompose_functor(
        FinFunctor(
            builtin("two_discrete"),
            builtin("arrow"),
            {"0": "0", "1": "1"},
            {"id_0": "id_0", "id_1": "id_1"},
        ),
        builtin("arrow"),
    )
    data = functor_to_dict(j)
    again = functor_from_node(data, tmp_path)
    validate_functor(again)
    assert again.omap == j.omap and again.mmap == j.mmap
    assert again.source == j.source and again.target == j.target


def test_restriction_is_the_three_object_full_inclusion():
    # the endpoint restriction out of the arrow power is, up to naming, the
    # inclusion of the full subcategory on the three comparable pairs
    two = builtin("arrow")
    from fincat.core import builtin_functor

    j = builtin_functor("discrete_to_arrow")
    restriction = precompose_functor(j, two)
    assert restriction.source.n_objects == 3
    image = sorted(restriction.omap.values())
    assert image == ["(0,0)", "(0,1)", "(1,1)"]
    assert restriction.injective_on_objects()
    # fullness: every hom between image objects is hit
    src, dst = restriction.source, restriction.target
    for a in src.objects:
        for b in src.objects:
            images = {restriction.mor(m) for m in src.hom(a, b)}
            assert images == set(dst.hom(restriction.ob(a), restriction.ob(b)))
