"""Universal properties replayed against a richer set of cone vertices, and
serializer round-trips."""
import pytest

from fincat import limits
from fincat.core import (
    FinFunctor,
    builtin,
    identity_functor,
    identity_nat,
    validate_functor,
)
from fincat.corpus import chaotic_collapse, to_terminal_functor
from fincat.funcat import evaluation_functor, functor_category, precompose_functor
from fincat.limits import (
    build_normal_pullback,
    equifier,
    inserter,
    isocomma,
    pseudolimit_of_arrow,
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
RICH_LABELS = tuple(c.label for c in RICH)


@pytest.fixture()
def rich(monkeypatch):
    """Certificates replayed from here on test against RICH."""
    monkeypatch.setattr(limits, "default_vertices", lambda: RICH)


def test_pullback_certificate_with_rich_vertices(rich):
    two = builtin("arrow")
    power = functor_category(builtin("free_iso"), two)
    cod = evaluation_functor(power, "1")
    cert = pullback_strict(cod, cod).certificate
    assert cert.ok
    assert cert.cones_checked >= 10
    assert cert.vertices == RICH_LABELS


def test_isocomma_certificate_with_rich_vertices(rich):
    chaos = builtin("chaotic(2)")
    cert = isocomma(identity_functor(chaos), identity_functor(chaos)).certificate
    assert cert.ok
    assert cert.cones_checked > 20
    assert cert.vertices == RICH_LABELS


def test_normal_pullback_certificate_with_rich_vertices(rich):
    chaos = builtin("chaotic(2)")
    f = to_terminal_functor(chaos)
    cert = build_normal_pullback(f, f).witness.certificate
    assert cert.ok
    assert cert.vertices == RICH_LABELS


def test_tower_certificate_with_rich_vertices(rich):
    one = builtin("terminal")
    tl = tower_limit(one, [to_terminal_functor(builtin("chaotic(2)")), chaotic_collapse()])
    cert = tl.witness.certificate
    assert cert.ok
    assert cert.cones_checked > 5
    assert cert.vertices == RICH_LABELS


def test_pseudolimit_certificate_with_rich_vertices(rich):
    cert = pseudolimit_of_arrow(to_terminal_functor(builtin("chaotic(2)"))).witness.certificate
    assert cert.ok
    assert cert.cones_checked == 14
    assert cert.vertices == RICH_LABELS


def test_inserter_certificate_with_rich_vertices(rich):
    chaos = builtin("chaotic(2)")
    cert = inserter(identity_functor(chaos), identity_functor(chaos)).certificate
    assert cert.ok
    assert cert.cones_checked == 14
    assert cert.vertices == RICH_LABELS


def test_equifier_certificate_with_rich_vertices(rich):
    t = identity_nat(identity_functor(builtin("arrow")))
    cert = equifier(t, t).certificate
    assert cert.ok
    assert cert.cones_checked == 10
    assert cert.vertices == RICH_LABELS


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
