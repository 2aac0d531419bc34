import hashlib
import json
from collections import Counter
from itertools import product

import pytest
from helpers import FilterArrowSpace, arrow_compose

import fincat.cosmos as cosmos
import fincat.wfs as wfs
from fincat.core import StructureError, bounded, builtin
from fincat.cosmos import (
    FRAGMENT_FUNCTORS_PER_PAIR,
    CosmosFragment,
    _fragment_functors,
    _SetMaps,
    check_fragment,
    nip_square_filler,
)


def test_finset_all_fill_at_bound_three():
    res = nip_square_filler("finset", 3)
    assert res.all_fill
    assert res.counterexample is None
    assert res.squares_checked > 1000


def test_finset_all_fill_vacuous_at_bound_zero():
    res = nip_square_filler("finset", 0)
    assert res.all_fill


def test_finset_arrow_counterexample_at_bound_three():
    res = nip_square_filler("finset_arrow", 3)
    assert not res.all_fill
    ce = res.counterexample
    assert ce is not None
    # the left edge is the inclusion of a point into a two-point fiber
    assert ce["A"] == {"source_size": 1, "target_size": 1, "map": [0]}
    assert ce["B"]["source_size"] == 2 and ce["B"]["target_size"] == 1
    # replay: the recorded square really commutes and really has no filler
    A, B = ce["A"], ce["B"]
    C, D = ce["C"], ce["D"]

    def as_obj(o):
        return (o["source_size"], o["target_size"], tuple(o["map"]))

    def as_sq(f):
        return (tuple(f["component0"]), tuple(f["component1"]))

    space = FilterArrowSpace(3)
    i, p = as_sq(ce["i"]), as_sq(ce["p"])
    top, bottom = as_sq(ce["top"]), as_sq(ce["bottom"])
    assert arrow_compose(p, top) == arrow_compose(bottom, i)
    assert i in space.split_monos(as_obj(A), as_obj(B))
    assert p in space.split_epis(as_obj(C), as_obj(D))
    fillers = [
        h
        for h in space.homs(as_obj(B), as_obj(C))
        if arrow_compose(h, i) == top and arrow_compose(p, h) == bottom
    ]
    assert fillers == []


def test_finset_arrow_determinism():
    a = nip_square_filler("finset_arrow", 3)
    b = nip_square_filler("finset_arrow", 3)
    assert a.to_dict() == b.to_dict()


def test_nip_rejects_oversized_bound():
    with pytest.raises(StructureError):
        nip_square_filler("finset", 9)
    with pytest.raises(StructureError):
        nip_square_filler("mystery", 2)
    with pytest.raises(StructureError, match="negative"):
        nip_square_filler("finset", -1)


def test_finset_arrow_above_bound_three_is_refused_before_construction(monkeypatch):
    import fincat.cosmos as cosmos

    def never(size_bound):
        raise AssertionError(f"arrow space of bound {size_bound} was built")

    monkeypatch.setattr(cosmos, "_ArrowSpace", never)
    with pytest.raises(StructureError, match="exceeds the maximum 3"):
        nip_square_filler("finset_arrow", 4)
    with pytest.raises(StructureError, match="negative"):
        nip_square_filler("finset_arrow", -1)


def test_split_enumeration_against_direct_counts():
    maps = _SetMaps()
    # split monos 2 → 3: all injections; independent count 3!/(3-2)! = 6
    assert len(maps.retractions(2, 3)) == 6
    # the empty map (index 0) splits only onto the empty set
    assert list(maps.retractions(0, 0)) == [0]
    assert list(maps.retractions(0, 2)) == []
    # split epis 3 → 2: surjections; independent count 2^3 - 2 = 6
    assert len(maps.sections(3, 2)) == 6


def test_fragment_normal_class_passes_all_clauses():
    frag = CosmosFragment(
        objects=(builtin("terminal"), builtin("arrow"), builtin("free_iso")),
        chosen="normal",
        label="core-fragment",
    )
    rep = check_fragment(frag)
    assert rep.passed
    assert set(rep.clauses) == {"hom_isofibration", "limits_exist", "stability"}
    assert "witnessed on fragment" in rep.clauses["limits_exist"].note


def test_fragment_discrete_class_passes_leibniz():
    frag = CosmosFragment(
        objects=(builtin("terminal"), builtin("arrow")),
        chosen="discrete",
        label="discrete-fragment",
    )
    rep = check_fragment(frag)
    leibniz_entries = [
        e for e in rep.clauses["stability"].entries if "Leibniz" in e.description
    ]
    assert leibniz_entries
    assert all(e.passed for e in leibniz_entries)


def test_fragment_wrong_class_fails_with_witness():
    frag = CosmosFragment(
        objects=(builtin("terminal"), builtin("arrow"), builtin("free_iso")),
        chosen="equivalences",
        label="wrong-class",
    )
    rep = check_fragment(frag)
    assert not rep.passed
    stab = rep.clauses["stability"]
    bad = [e for e in stab.entries if not e.passed and "pullback" in e.description]
    assert bad, "pullback-stability must fail for the class of equivalences"


def test_empty_fragment_vacuously_passes():
    rep = check_fragment(CosmosFragment(objects=(), chosen="normal", label="empty"))
    assert rep.passed


def test_fragment_functors_keep_the_first_64_of_a_pair_in_search_order():
    """chaotic(4) has 4**4 = 256 endofunctors, one per object map, and the
    search lists them by the images of objects 0, 1, 2, 3 in turn; the
    fragment samples the first 64, those sending 0 to 0."""
    C = builtin("chaotic(4)")
    kept = list(_fragment_functors(CosmosFragment(objects=(C,))))
    every = [dict(zip(C.objects, images)) for images in product(C.objects, repeat=4)]
    assert FRAGMENT_FUNCTORS_PER_PAIR == 64 and len(every) == 256
    assert [F.omap for F in kept] == every[:64]


def test_fragment_towers_stay_within_the_tower_bound():
    """The tower bound caps every level, the first included: at 0 the
    fragment has no tower to check."""
    frag = CosmosFragment(
        objects=(builtin("terminal"), builtin("arrow"), builtin("free_iso")), chosen="normal"
    )

    def tower_lengths(bound):
        with bounded(tower=bound):
            entries = check_fragment(frag).clauses["limits_exist"].entries
        return {int(e.description.rsplit(" ", 1)[1]) for e in entries if "tower" in e.description}

    assert tower_lengths(0) == set()
    assert tower_lengths(1) == {1}
    assert tower_lengths(2) == {1, 2}


SAMPLE_OBJECTS = ("terminal", "arrow", "free_iso")

# sha256 of json.dumps(check_fragment(...).to_dict(), sort_keys=True) for the
# sample objects, recorded before the fragment's maps were listed once
FRAGMENT_DIGESTS = {
    ("normal", 0): "dcf6db55d8d51f1380e35cd573afe6979a0bb8a16cb6f127212aedde6346c3af",
    ("normal", 1): "844d25b02825c87e7c6a831368b96993ecedc62f20e9dfd48bfd27c9c7bc9aed",
    ("normal", 2): "73c7c8ec4903c1f4f57e0b8411b5de47ab716dc27bb05563cca2e022b2c3880f",
    ("representable", 0): "cafa0cfebda65f169081fa4ec0f0a978b50f3b6e8f4c2292e81d93de2d738eae",
    ("representable", 1): "77ef94252dccf3df7323ca5cb12bc109c368ef273fb7e75a4df126f68c43632c",
    ("representable", 2): "82508bba3b18050504697a3fabd9e18b52434a28c4d5f095e0a4b146372b2859",
    ("discrete", 0): "202cb53b43687f6496ce130a9d1c084ae6d6527791be95cc6f6cc402b1070762",
    ("discrete", 1): "df537376aafda4479dd9bca057d2effd6dcd126f4cd2733936cd7a5bb2f3144c",
    ("discrete", 2): "5f2ada2d749566f2e0785f20568a9c6abc28be35027edb2d732a0cb9801a6918",
    ("equivalences", 0): "a1ee41a93bc7365d31cb10aedab24490dca848b51af4b6fb0725415917e7e979",
    ("equivalences", 1): "bdf1f7375c56dd265f81093b7791d261ba654401b63aeb698fe2523a38a6534f",
    ("equivalences", 2): "f8376bd28f57b6cc865fa6df9be50a9d9c9b2e330ff2c612207eadb0cafc5272",
}


@pytest.mark.parametrize("chosen, tower", FRAGMENT_DIGESTS)
def test_the_sample_fragment_reports_are_the_recorded_ones(chosen, tower):
    frag = CosmosFragment(tuple(map(builtin, SAMPLE_OBJECTS)), chosen, "core-fragment")
    with bounded(tower=tower):
        report = check_fragment(frag).to_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == FRAGMENT_DIGESTS[chosen, tower]


def test_a_fragment_check_builds_each_construction_once(monkeypatch):
    """The sample fragment's 9 ordered pairs are enumerated once each, its
    18 cospans and 8 towers are built once each for both clauses, and no
    Leibniz power is classified: the stability entries read only its
    induced map."""
    calls = Counter()

    def counted(module, name):
        run = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return run(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    names = ("enumerate_functors", "pullback_strict", "strict_tower_limit")
    for name in names:
        counted(cosmos, name)
    counted(wfs, "classify_fibration")
    assert check_fragment(CosmosFragment(tuple(map(builtin, SAMPLE_OBJECTS)))).passed
    assert [calls[name] for name in (*names, "classify_fibration")] == [9, 18, 8, 0]
