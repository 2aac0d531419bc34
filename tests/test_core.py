import re

import pytest

from fincat.core import (
    AssociativityViolation,
    BoundaryViolation,
    Bounds,
    BudgetExceeded,
    FinCat,
    FinFunctor,
    IdentityViolation,
    Morphism,
    NatTrans,
    NotFunctorial,
    NotInvertible,
    NotNatural,
    StructureError,
    TupleCat,
    UnknownBuiltin,
    bounded,
    bounds,
    builtin,
    builtin_functor,
    enumerate_functors,
    enumerate_isomorphisms,
    enumerate_lifts,
    enumerate_transformations,
    functor_position,
    identity_functor,
    identity_nat,
    thin_category,
    thin_functor,
    validate_category,
    validate_functor,
    validate_transformation,
)
from fincat.corpus import (
    chaotic_collapse,
    corpus_categories,
    corpus_functors,
    cyclic_group_category,
)
from helpers import (
    brute_force_functors,
    constant_functor,
    interleaved_chain_table,
    is_invertible,
    scan_associativity,
)


def cyclic_monoid(n, label):
    """Z/n as a one-object category; morphism g{k} is +k."""
    objs = ["*"]
    morphisms = [Morphism(f"g{k}", "*", "*") for k in range(n)]
    comp = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    return FinCat(objs, morphisms, {"*": "g0"}, comp, label=label)


def test_terminal_is_valid():
    cat = builtin("terminal")
    assert cat.n_objects == 1 and cat.n_morphisms == 1
    assert validate_category(cat) is cat


def test_arrow_is_valid_poset():
    cat = builtin("arrow")
    assert cat.n_objects == 2 and cat.n_morphisms == 3
    validate_category(cat)
    assert cat.hom("0", "1") == ("a",)
    assert cat.hom("1", "0") == ()
    assert not cat.is_iso("a")


def test_perturbed_monoid_fails_associativity_with_locus():
    z3 = cyclic_monoid(3, "z3")
    validate_category(z3)
    bad_comp = dict(z3.comp)
    bad_comp[("g1", "g1")] = "g1"  # perturb one table entry
    bad = FinCat(z3.objects, z3.morphisms, z3.identity, bad_comp, label="z3-broken")

    # independent oracle: find a violating triple by direct scan
    triple = scan_associativity(bad)
    assert triple is not None

    with pytest.raises(AssociativityViolation) as err:
        validate_category(bad)
    h, g, f = err.value.triple
    # the reported triple really violates associativity in the raw table
    left = bad.comp[(h, bad.comp[(g, f)])]
    right = bad.comp[(bad.comp[(h, g)], f)]
    assert left != right


def test_identity_violation_detected():
    z2 = cyclic_monoid(2, "z2")
    bad_comp = dict(z2.comp)
    bad_comp[("g1", "g0")] = "g0"  # break the right identity law for g1
    bad = FinCat(z2.objects, z2.morphisms, z2.identity, bad_comp, label="z2-broken")
    with pytest.raises((IdentityViolation, AssociativityViolation)) as err:
        validate_category(bad)
    if isinstance(err.value, IdentityViolation):
        assert err.value.morphism == "g1"


def test_comp_must_be_total():
    z2 = cyclic_monoid(2, "z2")
    partial = dict(z2.comp)
    del partial[("g1", "g1")]
    with pytest.raises(StructureError, match="z2: comp must be defined on exactly the composable"):
        validate_category(FinCat(z2.objects, z2.morphisms, z2.identity, partial, label="z2"))


def _set_comp(g, f, gf):
    def mutate(raw):
        next(e for e in raw["comp"] if (e["g"], e["f"]) == (g, f))["gf"] = gf

    return mutate


@pytest.mark.parametrize(
    "mutate, error, message",
    [
        (lambda raw: raw["objects"].append("0"), StructureError, "cat: duplicate object names"),
        (
            lambda raw: raw["morphisms"].append(dict(raw["morphisms"][0])),
            StructureError,
            "cat: duplicate morphism names",
        ),
        (
            lambda raw: raw["morphisms"].append({"name": "b", "dom": "0", "cod": "2"}),
            StructureError,
            "cat: morphism b has unknown endpoint",
        ),
        (
            lambda raw: raw["morphisms"][0].update(dom=0),
            StructureError,
            "morphisms[0].dom: expected a string",
        ),
        (
            _set_comp("id_1", "a", "id_1"),
            BoundaryViolation,
            "comp(id_1,a) = id_1: dom is 1, expected 0",
        ),
    ],
    ids=[
        "duplicate-object",
        "duplicate-morphism",
        "unknown-endpoint",
        "dom-not-a-string",
        "composite-with-the-wrong-dom",
    ],
)
def test_a_misshapen_arrow_table_is_refused_with_its_message(mutate, error, message):
    raw = builtin("arrow").to_dict()
    mutate(raw)
    with pytest.raises(error) as info:
        validate_category(raw)
    assert str(info.value) == message


# Both messages were recorded before tables were stored by rows.  The first
# failing entry in file order, (i2, c), is reported, although (b, a) comes
# first in row order: the row of b begins with the file's first entry.
INTERLEAVED_FAILURES = [
    (
        {("i2", "c"): "a", ("b", "a"): "b"},
        BoundaryViolation,
        "comp(i2,c) = a: cod is 1, expected 2",
    ),
    (
        {("i2", "c"): "yy", ("b", "a"): "zz"},
        StructureError,
        "cat: comp('i2', 'c') = yy is not a morphism",
    ),
]


@pytest.mark.parametrize("changes, error, message", INTERLEAVED_FAILURES)
def test_a_raw_table_reports_its_first_failure_in_file_order(changes, error, message):
    with pytest.raises(error) as info:
        validate_category(interleaved_chain_table(changes))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "place, entry, message",
    [
        (len, {"g": "i2", "f": "c", "gf": "c"}, "comp[10]: (i2, c) is listed twice"),
        (len, {"g": "i2", "f": "c", "gf": "a"}, "comp[10]: (i2, c) is listed twice"),
        (lambda comp: 0, {"g": "i2", "f": "c", "gf": "a"}, "comp[2]: (i2, c) is listed twice"),
    ],
    ids=["exact-duplicate", "wrong-value-after", "wrong-value-before"],
)
def test_a_repeated_pair_is_refused_at_its_second_entry(place, entry, message):
    """Which of two entries for one pair would count depends on their order,
    so neither does: the table is refused at the second, in either order."""
    raw = interleaved_chain_table({})
    raw["comp"].insert(place(raw["comp"]), entry)
    with pytest.raises(StructureError) as info:
        validate_category(raw)
    assert str(info.value) == message


def test_a_table_key_that_is_not_a_pair_is_refused_with_its_place():
    with pytest.raises(StructureError) as info:
        FinCat(["*"], [("e", "*", "*")], {"*": "e"}, {("e", "e", "e"): "e"}, label="z")
    assert str(info.value) == "z: comp key ('e', 'e', 'e') is not a pair"


def test_thin_category_refuses_two_morphisms_in_one_hom():
    with pytest.raises(StructureError, match="a0 and a1 share the hom 0 → 1"):
        thin_category(
            ["0", "1"],
            [("id_0", "0", "0"), ("id_1", "1", "1"), ("a0", "0", "1"), ("a1", "0", "1")],
            "parallel",
        )


def test_thin_category_refuses_a_missing_composite():
    # 0 → 1 → 2 with no arrow 0 → 2
    with pytest.raises(StructureError, match="no morphism 0 → 2"):
        thin_category(
            ["0", "1", "2"],
            [("id_0", "0", "0"), ("id_1", "1", "1"), ("id_2", "2", "2"),
             ("a", "0", "1"), ("b", "1", "2")],
            "broken chain",
        )


def test_tuple_category_refuses_a_missing_composite_and_shared_parts():
    chain = thin_category(
        ["0", "1", "2"],
        [("id_0", "0", "0"), ("id_1", "1", "1"), ("id_2", "2", "2"),
         ("a01", "0", "1"), ("a12", "1", "2"), ("a02", "0", "2")],
        "chain",
    )
    objects = [(o, (o,)) for o in chain.objects]
    identities = [(f"i{o}", o, o, (f"id_{o}",)) for o in chain.objects]
    # f and g are there but their composite, with part a02, is not.
    # Composites are computed on first use, so the gap shows when the
    # table is checked or the pair is first composed.
    missing = re.escape("broken: an identity or composite is missing (no entry ('0', '2', ('a02',)))")
    broken = [("f", "0", "1", ("a01",)), ("g", "1", "2", ("a12",))]
    with pytest.raises(StructureError, match=missing):
        validate_category(TupleCat((chain,), objects, identities + broken, "broken"))
    with pytest.raises(StructureError, match=missing):
        TupleCat((chain,), objects, identities + broken, "broken").compose("g", "f")
    # shared parts are refused at construction
    with pytest.raises(StructureError, match="f and h have the same parts"):
        TupleCat(
            (chain,), objects, identities + [("f", "0", "1", ("a01",)), ("h", "0", "1", ("a01",))],
            "twice",
        )


def test_thin_functor_refuses_an_empty_hom():
    # the arrow 0 → 1 cannot go to 1 → 0 in the generic arrow
    with pytest.raises(StructureError, match="a has 0 candidate images 1 → 0"):
        thin_functor(builtin("arrow"), builtin("arrow"), {"0": "1", "1": "0"}, "swap")


def test_builtin_free_iso_counts():
    cat = builtin("free_iso")
    assert cat.n_objects == 2 and cat.n_morphisms == 4
    assert cat.is_iso("to") and cat.inverse("to") == "fro"
    validate_category(cat)


def test_builtin_parallel_pair_counts():
    cat = builtin("parallel_pair")
    assert cat.n_objects == 2 and cat.n_morphisms == 4
    assert cat.hom("0", "1") == ("a0", "a1")
    validate_category(cat)


def test_builtin_chaotic_all_invertible():
    cat = builtin("chaotic(2)")
    assert cat.n_objects == 2 and cat.n_morphisms == 4
    assert all(cat.is_iso(m.name) for m in cat.morphisms)
    validate_category(cat)


def test_builtin_discrete_and_unknown():
    assert builtin("discrete(3)").n_morphisms == 3
    assert builtin("two_discrete").n_objects == 2
    with pytest.raises(UnknownBuiltin):
        builtin("mystery")


def test_identity_functor_valid_everywhere():
    for name in ["terminal", "arrow", "free_iso", "parallel_pair", "chaotic(2)"]:
        cat = builtin(name)
        validate_functor(identity_functor(cat))


def test_constant_functor_arrow_to_terminal():
    F = constant_functor(builtin("arrow"), builtin("terminal"), "*")
    validate_functor(F)


def test_swap_on_arrow_is_not_functorial():
    two = builtin("arrow")
    # no morphism map extends the object swap: confirmed by raw exhaustion
    swaps = [
        F for F in brute_force_functors(two, two) if F.omap == {"0": "1", "1": "0"}
    ]
    assert swaps == []
    bad = FinFunctor(
        two, two, {"0": "1", "1": "0"}, {"id_0": "id_1", "id_1": "id_0", "a": "a"}
    )
    with pytest.raises(NotFunctorial):
        validate_functor(bad)


def test_identity_transformation_valid_and_invertible():
    F = identity_functor(builtin("free_iso"))
    t = identity_nat(F)
    validate_transformation(t, invertible=True)
    assert t.is_identity()


def test_transformation_between_endpoint_functors_of_arrow():
    one, two = builtin("terminal"), builtin("arrow")
    F0 = constant_functor(one, two, "0")
    F1 = constant_functor(one, two, "1")
    t = NatTrans(F0, F1, {"*": "a"})
    validate_transformation(t)
    assert not is_invertible(t)


def test_perturbed_component_not_natural():
    chaos = builtin("chaotic(2)")
    F = identity_functor(chaos)
    # swap functor on chaotic(2) is functorial; a transformation to it exists
    swap = FinFunctor(
        chaos,
        chaos,
        {"0": "1", "1": "0"},
        {"u0_0": "u1_1", "u1_1": "u0_0", "u0_1": "u1_0", "u1_0": "u0_1"},
    )
    validate_functor(swap)
    good = NatTrans(F, swap, {"0": "u0_1", "1": "u1_0"})
    validate_transformation(good, invertible=True)
    bad = NatTrans(F, swap, {"0": "u0_1", "1": "u1_1"})
    with pytest.raises(NotNatural):
        validate_transformation(bad)


def chaotic_onto_cyclic(omap=(), mmap=()) -> FinFunctor:
    """chaotic(2) → cyclic(2) sending u0_1 to g1 and every other morphism
    to g0, then ``omap`` and ``mmap``: not functorial, since u0_1∘u1_0 =
    u1_1 goes to g0 but g1∘g0 = g1."""
    chaos = builtin("chaotic(2)")
    return FinFunctor(
        chaos,
        cyclic_group_category(2),
        {"0": "*", "1": "*", **dict(omap)},
        {m.name: "g1" if m.name == "u0_1" else "g0" for m in chaos.morphisms} | dict(mmap),
    )


@pytest.mark.parametrize(
    "F, error, message, locus",
    [
        (
            chaotic_onto_cyclic(omap={"0": "x"}),
            StructureError,
            "functor: 0 maps to unknown object x",
            None,
        ),
        (
            chaotic_onto_cyclic(mmap={"u0_0": "g2"}),
            StructureError,
            "functor: u0_0 maps to unknown morphism g2",
            None,
        ),
        (
            chaotic_onto_cyclic(mmap={"u0_0": "g1"}),
            NotFunctorial,
            "functor: identity of 0 not preserved",
            "0",
        ),
        (
            chaotic_onto_cyclic(),
            NotFunctorial,
            "functor: composition not preserved at (u0_1,u1_0)",
            ("u0_1", "u1_0"),
        ),
    ],
    ids=["unknown-object", "unknown-morphism", "identity", "composition"],
)
def test_a_functor_is_refused_with_its_message(F, error, message, locus):
    with pytest.raises(error) as info:
        validate_functor(F)
    assert str(info.value) == message
    assert getattr(info.value, "locus", None) == locus


def test_a_component_that_is_no_morphism_is_refused():
    same = identity_functor(builtin("arrow"))
    with pytest.raises(StructureError) as info:
        validate_transformation(NatTrans(same, same, {"0": "id_0", "1": "zz"}))
    assert str(info.value) == "nat: component at 1 is not a morphism"


def test_a_natural_non_invertible_transformation_is_refused_only_when_invertible():
    one, two = builtin("terminal"), builtin("arrow")
    t = NatTrans(constant_functor(one, two, "0"), constant_functor(one, two, "1"), {"*": "a"})
    assert validate_transformation(t) is t
    with pytest.raises(NotInvertible) as info:
        validate_transformation(t, invertible=True)
    assert (str(info.value), info.value.obj) == ("component at * is not an isomorphism", "*")


def test_enumerate_functors_matches_brute_force():
    # ordered lists: the engine's yield order is part of its contract
    cats = corpus_categories()
    for src in cats:
        for dst in cats:
            theirs = [(f.omap, f.mmap) for f in brute_force_functors(src, dst)]
            assert [(f.omap, f.mmap) for f in enumerate_functors(src, dst)] == theirs
            bijective = [
                (o, m)
                for o, m in theirs
                if len(set(o.values())) == src.n_objects == dst.n_objects
                and len(set(m.values())) == src.n_morphisms == dst.n_morphisms
            ]
            assert [(f.omap, f.mmap) for f in enumerate_isomorphisms(src, dst)] == bijective


def test_functors_are_yielded_in_increasing_position():
    cats = corpus_categories()
    for src in cats:
        for dst in cats:
            positions = [functor_position(F) for F in enumerate_functors(src, dst)]
            assert positions == sorted(set(positions)), (src.label, dst.label)


def test_lifts_over_a_functor_are_exactly_its_fibres():
    functors = corpus_functors()
    solved = 0
    for p in functors:
        bottoms = [b for b in functors if b.target == p.target][:3]
        for bottom in bottoms:
            B, C = bottom.source, p.source
            ours = [(G.omap, G.mmap) for G in enumerate_lifts(B, C, over=[(p, bottom)])]
            theirs = [
                (G.omap, G.mmap) for G in enumerate_functors(B, C) if G.then(p) == bottom
            ]
            assert ours == theirs, (p.label, bottom.label)
            solved += bool(ours)
    assert solved > 100


def test_lifts_over_two_functors_meet_both():
    functors = corpus_functors()
    solved = 0
    for p1 in functors:
        for p2 in [p for p in functors if p.source == p1.source and p != p1][:2]:
            for b1 in [b for b in functors if b.target == p1.target][:2]:
                for b2 in [
                    b for b in functors if b.source == b1.source and b.target == p2.target
                ][:2]:
                    B, C = b1.source, p1.source
                    ours = [
                        (G.omap, G.mmap)
                        for G in enumerate_lifts(B, C, over=[(p1, b1), (p2, b2)])
                    ]
                    theirs = [
                        (G.omap, G.mmap)
                        for G in enumerate_functors(B, C)
                        if G.then(p1) == b1 and G.then(p2) == b2
                    ]
                    assert ours == theirs, (p1.label, p2.label, b1.label, b2.label)
                    solved += bool(ours)
    assert solved > 0


def test_lifts_under_two_functors_meet_both():
    c2, c3, one = builtin("chaotic(2)"), builtin("chaotic(3)"), builtin("terminal")
    under = [
        (constant_functor(one, c2, "0"), constant_functor(one, c3, "1")),
        (constant_functor(one, c2, "1"), constant_functor(one, c3, "2")),
    ]
    first = list(enumerate_lifts(c2, c3, under=under[:1]))
    assert [G.omap for G in first] == [{"0": "1", "1": x} for x in ("0", "1", "2")]
    both = list(enumerate_lifts(c2, c3, under=under))
    assert [G.omap for G in both] == [{"0": "1", "1": "2"}]


def test_conflicting_lifts_are_refused_without_a_search(monkeypatch):
    import fincat.core as core

    collapse = chaotic_collapse()  # 0, 1, 2 ↦ 0, 1, 0
    c3 = collapse.source

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(core, "enumerate_functors", no_search)
    # G∘collapse = 1 would send object 0 of chaotic(2) to both 0 and 2
    under = [(collapse, identity_functor(c3))]
    assert list(enumerate_lifts(collapse.target, c3, under=under)) == []


def test_a_morphism_forced_onto_an_identity_meets_its_identity():
    # the arrow collapsed onto the point, topped by the generator of Z/2:
    # G(id_*) would have to be both g0 (from id_0) and g1 (from a)
    point = builtin("terminal")
    z2 = cyclic_monoid(2, "Z2")
    collapse = thin_functor(builtin("arrow"), point, {"0": "*", "1": "*"}, "2→1")
    top = FinFunctor(
        builtin("arrow"), z2, {"0": "*", "1": "*"}, {"id_0": "g0", "id_1": "g0", "a": "g1"}
    )
    assert list(enumerate_lifts(point, z2, under=[(collapse, top)])) == []
    ident = constant_functor(builtin("arrow"), z2, "*")
    lifts = enumerate_lifts(point, z2, under=[(collapse, ident)])
    assert [G.mmap for G in lifts] == [{"id_*": "g0"}]


def test_functors_free_iso_to_arrow_are_the_two_constants():
    # both functors must crush the isomorphism, so only the constants remain
    fs = list(enumerate_functors(builtin("free_iso"), builtin("arrow")))
    assert len(fs) == 2
    assert {f.omap["0"] for f in fs} == {"0", "1"}
    for f in fs:
        assert f.omap["0"] == f.omap["1"]


def test_enumerate_transformations_counts():
    two = builtin("arrow")
    one = builtin("terminal")
    F0 = constant_functor(one, two, "0")
    F1 = constant_functor(one, two, "1")
    assert len(list(enumerate_transformations(F0, F1))) == 1
    assert len(list(enumerate_transformations(F1, F0))) == 0
    assert len(list(enumerate_transformations(F0, F0))) == 1


def test_builtin_functors_validate():
    for name in [
        "empty_to_terminal",
        "point_to_iso",
        "discrete_to_arrow",
        "collapse_parallel",
        "point_to_arrow_0",
        "point_to_arrow_1",
    ]:
        validate_functor(builtin_functor(name))


def test_revalidation_idempotent_and_key_stable():
    cat = builtin("chaotic(2)")
    assert validate_category(validate_category(cat)) is cat
    assert cat.key == builtin("chaotic(2)").key
    assert cat == builtin("chaotic(2)")


def test_roundtrip_through_dict():
    cat = builtin("parallel_pair")
    again = validate_category(cat.to_dict())
    assert again == cat


def test_then_rejects_a_functor_out_of_another_category():
    F = builtin_functor("point_to_arrow_0")  # terminal → arrow
    assert F.then(identity_functor(builtin("arrow"))) == F  # equal, not the same object
    with pytest.raises(StructureError):
        F.then(identity_functor(builtin("free_iso")))


def test_nat_trans_rejects_non_parallel_functors():
    one, two = builtin("terminal"), builtin("arrow")
    F = constant_functor(one, two, "0")
    with pytest.raises(StructureError, match="functors are not parallel"):  # sources differ
        validate_transformation(NatTrans(F, identity_functor(two), {"*": "id_0"}))
    with pytest.raises(StructureError, match="functors are not parallel"):  # targets differ
        validate_transformation(NatTrans(F, builtin_functor("point_to_iso"), {"*": "id_0"}))


def test_composites_equal_their_checked_construction():
    fs = corpus_functors()
    for F in fs:
        for G in fs:
            if G.source != F.target:
                continue
            H = F.then(G)
            checked = FinFunctor(H.source, H.target, H.omap, H.mmap, label=H.label)
            assert vars(H) == vars(checked)
            assert H.omap == {a: G.ob(F.ob(a)) for a in F.source.objects}
            assert H.mmap == {m.name: G.mor(F.mor(m.name)) for m in F.source.morphisms}


def test_builtin_size_is_checked_before_construction(monkeypatch):
    import fincat.core as core

    class Built(Exception):
        pass

    def refuse(n):
        raise Built(n)

    monkeypatch.setattr(core, "chaotic_category", refuse)
    monkeypatch.setattr(core, "discrete_category", refuse)
    limit = core.BUILTIN_MAX_COMP
    side = round(limit ** (1 / 3))
    assert side**3 <= limit < (side + 1) ** 3
    for name in [
        "chaotic(1000)",
        f"chaotic({side + 1})",
        f"discrete({limit + 1})",
        "chaotic(" + "9" * 5000 + ")",
    ]:
        with pytest.raises(BudgetExceeded):
            builtin(name)
    for name in [f"chaotic({side})", f"discrete({limit})", "chaotic(0003)"]:
        with pytest.raises(Built):
            builtin(name)


def test_bounded_scopes_nest_and_the_enclosing_bounds_come_back():
    assert bounds() == Bounds()
    with bounded(budget=7) as outer:
        assert bounds() == outer == Bounds(budget=7)
        with pytest.raises(KeyError), bounded(tower=1):
            assert bounds() == Bounds(budget=7, tower=1)
            raise KeyError("leaves the scope")
        assert bounds() == Bounds(budget=7)
    assert bounds() == Bounds()
