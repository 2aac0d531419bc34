import pytest

from fincat import limits, wfs
from fincat.core import (
    BoundExceeded,
    EnumerationBudgetExceeded,
    FinFunctor,
    NotIdempotent,
    bounded,
    builtin,
    builtin_functor,
    enumerate_functors,
    find_isomorphism,
    identity_functor,
    identity_nat,
    thin_category,
    thin_functor,
    validate_category,
    validate_functor,
    validate_transformation,
)
from fincat.equivalence import classify_equivalence, validate_witness
from fincat.corpus import (
    corpus_categories,
    corpus_cospans_normal_left,
    corpus_functors,
    corpus_towers,
)
from fincat.fibrations import classify_fibration
from fincat.funcat import (
    evaluation_functor,
    functor_category,
    postcompose_functor,
    precompose_functor,
)
from fincat.limits import (
    _certify,
    _pullback_cones,
    build_normal_pullback,
    equifier,
    find_isomorphism_over,
    inserter,
    isocomma,
    pseudolimit_injective_witness,
    pseudolimit_of_arrow,
    pullback_strict,
    split_idempotent,
    strict_tower_limit,
    tower_alignment_check,
    tower_limit,
)
from fincat.wfs import compute_wf, factorize_wfs
from helpers import (
    all_pairs_alignment_check,
    all_pairs_structure_cells,
    constant_functor,
    pseudolimit_retract_witness,
)


def to_terminal(cat):
    one = builtin("terminal")
    return FinFunctor(
        cat, one, {a: "*" for a in cat.objects}, {m.name: "id_*" for m in cat.morphisms}
    )


# -- strict pullback ---------------------------------------------------------


def test_pullback_of_identities_is_diagonal_copy():
    A = builtin("free_iso")
    w = pullback_strict(identity_functor(A), identity_functor(A))
    assert w.certificate.ok
    assert find_isomorphism(w.apex, A) is not None


def test_pullback_of_distinct_points_is_empty():
    F = builtin_functor("point_to_arrow_0")
    G = builtin_functor("point_to_arrow_1")
    w = pullback_strict(F, G)
    assert w.apex.n_objects == 0 and w.apex.n_morphisms == 0
    assert w.certificate.ok


def test_pullback_certificate_counts_cones():
    A = builtin("arrow")
    w = pullback_strict(identity_functor(A), identity_functor(A))
    assert w.certificate.cones_checked > 0


@pytest.mark.parametrize(
    "apex, hits", [("two_discrete", 2), ("discrete(0)", 0), ("discrete(3)", 2)]
)
def test_certificate_reports_cones_that_do_not_factor_once(apex, hits):
    # the pullback of 1 → 1 ← 1 is 1; two points over it, or none, are not,
    # and three are reported as two: the count stops at the second
    one = identity_functor(builtin("terminal"))
    P = builtin(apex)
    leg = to_terminal(P)
    cert = _certify("pullback", "cone", P, (leg, leg), (), _pullback_cones(one, one))
    assert not cert.ok
    assert cert.cones_checked == 2
    assert cert.failures == (
        f"vertex terminal: cone has {hits} factorizations",
        f"vertex arrow: cone has {hits} factorizations",
    )


# -- isocomma ----------------------------------------------------------------


def test_isocomma_of_terminal_identities():
    one = builtin("terminal")
    w = isocomma(identity_functor(one), identity_functor(one))
    assert w.apex.n_objects == 1
    assert find_isomorphism(w.apex, one) is not None
    assert w.certificate.ok


def test_isocomma_over_free_iso_has_four_objects():
    # independent count: each of the 2x2 object pairs carries exactly one
    # isomorphism of the free-iso category
    iso = builtin("free_iso")
    expected = 0
    for a in iso.objects:
        for b in iso.objects:
            expected += sum(1 for m in iso.hom(b, a) if iso.is_iso(m))
    assert expected == 4
    w = isocomma(identity_functor(iso), identity_functor(iso))
    assert w.apex.n_objects == 4
    assert w.certificate.ok
    validate_category(w.apex)
    validate_transformation(w.structure_cells[0], invertible=True)


def test_isocomma_with_discrete_base_is_strict_pullback():
    two = builtin("two_discrete")
    F = FinFunctor(builtin("terminal"), two, {"*": "0"}, {"id_*": "id_0"})
    G = identity_functor(two)
    w1 = isocomma(F, G)
    w2 = pullback_strict(F, G)
    assert w1.apex.n_objects == w2.apex.n_objects
    iso = find_isomorphism(w1.apex, w2.apex)
    assert iso is not None


# -- pseudolimit of an arrow -------------------------------------------------


def test_pseudolimit_of_identity_is_iso_power():
    A = builtin("free_iso")
    pl = pseudolimit_of_arrow(identity_functor(A))
    power = functor_category(builtin("free_iso"), A)
    assert find_isomorphism(pl.apex, power) is not None


def test_pseudolimit_is_the_pullback_of_cod():
    two = builtin("arrow")
    f = to_terminal(two).then(builtin_functor("point_to_arrow_0"))
    power = functor_category(builtin("free_iso"), two)
    cod = evaluation_functor(power, "1")
    pl = pseudolimit_of_arrow(f)
    pb = pullback_strict(f, cod)
    assert pl.apex == pb.apex
    assert pl.to_source == pb.projections[0]
    assert pl.power_projection == pb.projections[1]


def test_pseudolimit_structural_equations_hold_on_the_corpus():
    """The equations of the pseudolimit's parts, over every corpus functor
    f : A → B: u∘d = 1 and v∘d = f for the diagonal d, u = to_source and
    v = to_target; λd and uδ are identities and vδ = λ for the cell λ and
    the diagonal cell δ; cod∘p = f∘u for the power projection p;
    u∘w = ev_1 and p∘w = f^I for the comparison w out of A^I; and the
    diagonal's injective witness is valid."""
    free_iso = builtin("free_iso")
    for f in corpus_functors():
        A, B = f.source, f.target
        pl = pseudolimit_of_arrow(f)
        d, u, v, p, w = (
            pl.diagonal, pl.to_source, pl.to_target, pl.power_projection, pl.power_comparison
        )
        lam, delta = pl.cell, pl.diagonal_cell
        assert d.then(u) == identity_functor(A), f.label
        assert d.then(v) == f, f.label
        assert all(B.is_identity(c) for c in lam.whisker_pre(d).components.values()), f.label
        assert all(A.is_identity(c) for c in delta.whisker_post(u).components.values()), f.label
        assert delta.whisker_post(v).components == lam.components, f.label
        assert p.then(evaluation_functor(pl.target_power, "1")) == u.then(f), f.label
        assert w.then(u) == evaluation_functor(pl.source_power, "1"), f.label
        assert w.then(p) == postcompose_functor(f, free_iso), f.label
        validate_witness(pseudolimit_injective_witness(pl))


def test_pseudolimit_of_collapse_has_two_objects():
    two, one = builtin("arrow"), builtin("terminal")
    f = to_terminal(two)
    pl = pseudolimit_of_arrow(f)
    # objects are pairs (object of the arrow category, iso in the terminal)
    assert pl.apex.n_objects == 2
    assert pl.witness.certificate.ok


def test_pseudolimit_projection_kinds():
    f = builtin_functor("collapse_parallel")
    pl = pseudolimit_of_arrow(f)
    wu = classify_equivalence(pl.to_source)
    wd = classify_equivalence(pl.diagonal)
    assert "retract" in wu.kinds
    assert "injective" in wd.kinds
    # the direct witnesses also check out
    pseudolimit_retract_witness(pl)
    validate_witness(pseudolimit_injective_witness(pl))


def test_pseudolimit_validates_and_section_equation():
    f = FinFunctor(
        builtin("free_iso"),
        builtin("chaotic(2)"),
        {"0": "0", "1": "1"},
        {"id_0": "u0_0", "id_1": "u1_1", "to": "u0_1", "fro": "u1_0"},
    )
    validate_functor(f)
    pl = pseudolimit_of_arrow(f)
    validate_category(pl.apex)
    validate_functor(pl.to_source)
    validate_functor(pl.to_target)
    validate_functor(pl.diagonal)
    validate_functor(pl.power_comparison)
    validate_transformation(pl.cell, invertible=True)
    validate_transformation(pl.diagonal_cell, invertible=True)
    assert pl.diagonal.then(pl.to_source) == identity_functor(f.source)


LAZY_PARTS = ("to_target", "cell", "diagonal", "diagonal_cell", "source_power", "power_comparison")


def test_a_pseudolimit_builds_only_its_pullback_eagerly():
    """A fresh pseudolimit holds f, B^I and the pullback; its apex and both
    projections are the pullback's, and no other part is built."""
    for f in corpus_functors():
        pl = pseudolimit_of_arrow(f)
        assert not set(LAZY_PARTS) & set(vars(pl)), f.label
        assert pl.apex is pl.witness.apex, f.label
        assert (pl.to_source, pl.power_projection) == pl.witness.projections, f.label


def test_factorize_wfs_leaves_the_source_power_and_comparison_unbuilt():
    """The factorization reads the diagonal and the target projection; the
    left witness reads δ only on first read of its structure."""
    for f in corpus_functors():
        fac = factorize_wfs(f)
        built = set(vars(fac.pseudolimit))
        assert {"diagonal", "to_target"} <= built, f.label
        assert not {"source_power", "power_comparison", "diagonal_cell", "cell"} & built, f.label
        fac.left_witness.inverse
        assert "diagonal_cell" in vars(fac.pseudolimit), f.label
        assert "power_comparison" not in vars(fac.pseudolimit), f.label


def test_compute_wf_leaves_the_diagonal_cells_and_target_projection_unbuilt(monkeypatch):
    built = []

    def recording(f):
        built.append(pseudolimit_of_arrow(f))
        return built[-1]

    monkeypatch.setattr(wfs, "pseudolimit_of_arrow", recording)
    for f in corpus_functors():
        compute_wf(f)
        parts = set(vars(built[-1])) & set(LAZY_PARTS)
        assert parts == {"source_power", "power_comparison"}, f.label


def test_a_second_read_of_each_lazy_part_returns_the_same_object():
    for f in corpus_functors()[:12]:
        pl = pseudolimit_of_arrow(f)
        for name in LAZY_PARTS:
            assert getattr(pl, name) is getattr(pl, name), (f.label, name)


def test_two_pseudolimits_of_one_arrow_compare_equal():
    """Equality reads f, B^I and the pullback only, so it holds whatever was
    built, and the lazy parts of the two agree."""
    for f in corpus_functors()[:12]:
        pl, pl2 = pseudolimit_of_arrow(f), pseudolimit_of_arrow(f)
        assert pl == pl2, f.label
        pl.diagonal_cell, pl.power_comparison
        assert pl == pl2, f.label
        for name in LAZY_PARTS:
            assert getattr(pl, name) == getattr(pl2, name), (f.label, name)


def test_the_comparison_reads_the_source_power_then_the_target_power_under_the_budget_in_force():
    """w reads A^I and then B^I within the budget in force at its first
    read, as the postcomposite f^I does: a budget that refuses A^I refuses
    w with A^I's message, also once ``source_power`` has been read, and one
    that admits A^I but refuses B^I refuses w with B^I's message, though
    B^I was built with the pseudolimit under the default budget.  A refused
    read keeps nothing, so a later read under a larger budget builds w."""
    A, B, free_iso = builtin("terminal"), builtin("chaotic(3)"), builtin("free_iso")
    pl = pseudolimit_of_arrow(FinFunctor(A, B, {"*": "0"}, {"id_*": "u0_0"}, label="point_0"))
    with bounded(budget=1), pytest.raises(EnumerationBudgetExceeded) as source_refusal:
        functor_category(free_iso, A)
    assert str(source_refusal.value) == "power terminal^free_iso needs 2 candidates, budget is 1"
    for read_source_power_first in (False, True):
        if read_source_power_first:
            pl.source_power
        with bounded(budget=1), pytest.raises(EnumerationBudgetExceeded) as info:
            pl.power_comparison
        assert str(info.value) == str(source_refusal.value)
    with bounded(budget=50), pytest.raises(EnumerationBudgetExceeded) as info:
        pl.power_comparison
    assert str(info.value) == "power chaotic(3)^free_iso needs 51 candidates, budget is 50"
    assert "power_comparison" not in vars(pl)
    validate_functor(pl.power_comparison)
    assert pl.power_comparison.source == functor_category(free_iso, A)


# -- inserter / equifier -----------------------------------------------------


@pytest.mark.parametrize("name", ["discrete_to_arrow", "collapse_parallel"])
def test_the_restrictions_inserter_and_equifier_pull_back_are_discrete_isofibrations(name):
    """Restriction B^arrow → B^2 and B^arrow → B^parallel_pair, along the
    bijective-on-objects builtins that ``inserter`` and ``equifier`` pull
    back along, is a discrete isofibration for every corpus category B, so
    neither of them checks it again."""
    j = builtin_functor(name)
    for B in corpus_categories():
        assert classify_fibration(precompose_functor(j, B), grothendieck=False).discrete, B.label


def test_inserter_of_identity_on_poset_is_the_poset():
    two = builtin("arrow")
    w = inserter(identity_functor(two), identity_functor(two))
    # only identity endomorphisms exist in a poset
    assert w.apex.n_objects == two.n_objects
    assert find_isomorphism(w.apex, two) is not None
    validate_transformation(w.structure_cells[0])


def test_inserter_of_two_points_is_terminal():
    F = builtin_functor("point_to_arrow_0")
    G = builtin_functor("point_to_arrow_1")
    w = inserter(F, G)
    assert w.apex.n_objects == 1 and w.apex.n_morphisms == 1


def test_inserter_cell_is_natural():
    chaos = builtin("chaotic(2)")
    w = inserter(identity_functor(chaos), identity_functor(chaos))
    validate_transformation(w.structure_cells[0])
    # chaotic(2) has exactly one endomorphism per object
    assert w.apex.n_objects == 2


def test_equifier_of_equal_cells_is_whole_category():
    two = builtin("arrow")
    F = identity_functor(two)
    t = identity_nat(F)
    w = equifier(t, t)
    assert find_isomorphism(w.apex, two) is not None


def test_equifier_separates_distinct_cells():
    chaos = builtin("chaotic(2)")
    one = builtin("terminal")
    F = constant_functor(one, chaos, "0")
    from fincat.core import NatTrans

    t_id = NatTrans(F, F, {"*": "u0_0"})
    w = equifier(t_id, t_id)
    assert w.apex.n_objects == 1


# -- idempotent splitting ----------------------------------------------------


def test_split_identity_gives_whole_category():
    C = builtin("free_iso")
    s = split_idempotent(identity_functor(C))
    assert s.apex == C.relabel(s.apex.label)
    assert s.inclusion.then(s.retraction) == identity_functor(s.apex)


def test_split_collapse_of_chaotic_two():
    chaos = builtin("chaotic(2)")
    e = FinFunctor(
        chaos,
        chaos,
        {"0": "0", "1": "0"},
        {m.name: "u0_0" for m in chaos.morphisms},
    )
    validate_functor(e)
    s = split_idempotent(e)
    assert s.apex.objects == ("0",)
    assert s.apex.n_morphisms == 1
    assert s.retraction.then(s.inclusion) == e


def test_split_rejects_non_idempotent():
    chaos = builtin("chaotic(2)")
    swap = FinFunctor(
        chaos,
        chaos,
        {"0": "1", "1": "0"},
        {"u0_0": "u1_1", "u1_1": "u0_0", "u0_1": "u1_0", "u1_0": "u0_1"},
    )
    with pytest.raises(NotIdempotent):
        split_idempotent(swap)


def assert_splits(s, case):
    """The splitting equations: r∘i = 1 on the apex and i∘r = e."""
    assert s.inclusion.then(s.retraction) == identity_functor(s.apex), case
    assert s.retraction.then(s.inclusion) == s.idempotent, case


def test_split_idempotent_equations_hold_on_the_corpus():
    """Every idempotent endofunctor of every corpus category splits: r∘i = 1
    and i∘r = e (the idempotents of the normal pullbacks and the towers are
    checked with them below)."""
    idempotents = [
        e for C in corpus_categories() for e in enumerate_functors(C, C) if e.then(e) == e
    ]
    assert len(idempotents) == 108
    for e in idempotents:
        assert_splits(split_idempotent(e), e.label)


# -- pullback along a normal isofibration -------------------------------------


def thin_on(objects, arrows, label):
    """The thin category on ``objects`` with a morphism a → b for each
    (a, b) in ``arrows`` and each identity."""
    homs = {(a, a) for a in objects} | set(arrows)
    return thin_category(
        objects, [(f"{a}>{b}" if a != b else f"id_{a}", a, b) for a, b in sorted(homs)], label
    )


def cospans_over_isos():
    """Cospans (f, g) into 0 ≅ 1 → 2, f a normal isofibration.  Unlike the
    corpus cospans, whose common targets are discrete, the target has both
    non-identity isos and morphisms that are not isos: the isocomma cells
    and the lifted cells have non-identity components, and a cell from a
    non-invertible γ would be seen."""
    T = thin_on(["0", "1", "2"], [("0", "1"), ("1", "0"), ("0", "2"), ("1", "2")], "iso_then_arrow")
    cover = thin_on(
        ["0", "1", "2", "3"],
        [(a, b) for a in "012" for b in "0123" if a != b],
        "chaotic3_then_arrow",
    )
    lefts = [
        identity_functor(T),
        thin_functor(cover, T, {"0": "0", "1": "1", "2": "1", "3": "2"}, "fold"),
    ]
    rights = [
        identity_functor(T),
        thin_functor(builtin("terminal"), T, {"*": "1"}, "point_1"),
        thin_functor(builtin("free_iso"), T, {"0": "1", "1": "0"}, "swap"),
        thin_functor(builtin("arrow"), T, {"0": "0", "1": "2"}, "arrow_0_2"),
    ]
    return [(f, g) for f in lefts for g in rights]


def test_normal_pullback_equations_hold_on_the_corpus():
    """Over every corpus cospan with a normal left leg f, and the cospans
    over isos above: the isocomma's cell φ, which the cleavage lifts,
    is an invertible transformation, and so is the lifted cell ξ : x ≅ p
    out of the functor x; the straightened comparison x satisfies
    f∘x = g∘q for the isocomma's right leg q, φ whiskered by the induced
    idempotent e has identity components, and e splits."""
    cospans = corpus_cospans_normal_left()
    assert len(cospans) == 48
    over_isos = cospans_over_isos()
    assert all(classify_fibration(f).normal for f, _ in over_isos)
    for f, g in [*cospans, *over_isos]:
        np = build_normal_pullback(f, g)
        case = (f.label, g.label)
        _, q = np.isocomma.projections
        phi = np.isocomma.structure_cells[0]
        validate_transformation(phi, invertible=True)
        validate_functor(np.comparison)
        validate_transformation(np.comparison_cell, invertible=True)
        assert np.comparison.then(f) == q.then(g), case
        whisked = phi.whisker_pre(np.idempotent)
        assert all(f.target.is_identity(c) for c in whisked.components.values()), case
        assert_splits(np.splitting, case)


def test_normal_pullback_of_identity_leg():
    B = builtin("free_iso")
    f = identity_functor(builtin("chaotic(2)"))
    g = FinFunctor(
        B,
        builtin("chaotic(2)"),
        {"0": "0", "1": "1"},
        {"id_0": "u0_0", "id_1": "u1_1", "to": "u0_1", "fro": "u1_0"},
    )
    w = build_normal_pullback(f, g).witness
    assert find_isomorphism(w.apex, B) is not None
    assert w.certificate.ok


def test_normal_pullback_to_terminal_recovers_other_leg():
    chaos = builtin("chaotic(2)")
    f = to_terminal(chaos)
    g = identity_functor(builtin("terminal"))
    w = build_normal_pullback(f, g).witness
    assert find_isomorphism(w.apex, chaos) is not None


def test_normal_pullback_matches_strict_oracle():
    two = builtin("arrow")
    power = functor_category(builtin("free_iso"), two)
    cod = evaluation_functor(power, "1")
    strict = pullback_strict(cod, cod)
    np = build_normal_pullback(cod, cod)
    assert np.idempotent.then(np.idempotent) == np.idempotent
    iso = find_isomorphism_over(np.witness, strict)
    assert iso is not None


# -- tower limits --------------------------------------------------------------


def identity_tower():
    A = builtin("free_iso")
    return A, [identity_functor(A), identity_functor(A)]


def chaotic_pair_tower():
    return builtin("terminal"), [to_terminal(builtin("chaotic(2)"))]


def chaotic_tower():
    """chaotic(3) → chaotic(2) → 1, the first map collapsing 2 ↦ 0."""
    c2, c3 = builtin("chaotic(2)"), builtin("chaotic(3)")
    omap = {"0": "0", "1": "1", "2": "0"}
    mmap = {m.name: f"u{omap[m.dom]}_{omap[m.cod]}" for m in c3.morphisms}
    return builtin("terminal"), [to_terminal(c2), FinFunctor(c3, c2, omap, mmap)]


def test_tower_of_identities_is_base():
    A, maps = identity_tower()
    tl = tower_limit(A, maps)
    strict = strict_tower_limit(A, maps)
    assert find_isomorphism_over(tl.witness, strict) is not None
    assert find_isomorphism(tl.witness.apex, A) is not None
    assert tl.witness.certificate.ok
    assert tower_alignment_check(tl)


def test_tower_of_length_one():
    one, [f] = chaotic_pair_tower()
    tl = tower_limit(one, [f])
    assert find_isomorphism(tl.witness.apex, f.source) is not None
    assert tl.witness.projections[1].then(f) == tl.witness.projections[0]
    assert tower_alignment_check(tl)


def test_chaotic_tower_matches_strict_limit():
    one, maps = chaotic_tower()
    validate_functor(maps[1])
    assert classify_fibration(maps[1]).normal
    tl = tower_limit(one, maps)
    strict = strict_tower_limit(one, maps)
    assert find_isomorphism_over(tl.witness, strict) is not None
    assert find_isomorphism(tl.witness.apex, builtin("chaotic(3)")) is not None
    assert tl.witness.certificate.ok
    assert tower_alignment_check(tl)


TOWERS = {
    "identities": identity_tower,
    "chaotic pair": chaotic_pair_tower,
    "chaotic": chaotic_tower,
    **{f"corpus {k}": lambda k=k: corpus_towers()[k] for k in range(len(corpus_towers()))},
}


@pytest.mark.parametrize("name", TOWERS)
def test_the_consecutive_structure_cells_decide_alignment(name):
    """``tower_alignment_check`` reads only the cells π^{k+1}_k, and agrees
    with ``helpers.all_pairs_alignment_check``, which reads every composite
    π^m_n: at each object of the pseudolimit the consecutive cells are all
    identities exactly when every π^m_n is."""
    tl = tower_limit(*TOWERS[name]())
    assert set(tl.structure_cells) == {(k + 1, k) for k in range(len(tl.maps))}
    cats = [tl.base] + [f.source for f in tl.maps]

    def aligned(cells, z):
        return all(cats[n].is_identity(cell.component(z)) for (_, n), cell in cells.items())

    pis = all_pairs_structure_cells(tl)
    for z in tl.pseudolimit.objects:
        assert aligned(tl.structure_cells, z) == aligned(pis, z), z
    assert tower_alignment_check(tl) == all_pairs_alignment_check(tl)


def test_tower_limit_equations_hold_on_the_corpus():
    """Over every corpus tower: each cell π^{k+1}_k∘α_k that the cleavage
    lifts is an invertible transformation, and so is each lifted cone cell
    α_{k+1} : q_{k+1} ≅ p_{k+1} out of the functor q_{k+1}; the lifted cone
    is strict (f_k∘q_{k+1} = q_k), each cone cell whiskered by the induced
    idempotent has identity components, the idempotent splits, and the
    split cone is strict."""
    towers = corpus_towers()
    assert [len(maps) for _, maps in towers] == [0, 1, 2, 2, 3, 4]
    for base, maps in towers:
        tl = tower_limit(base, maps)
        case = [f.label for f in maps]
        for k, f in enumerate(maps):
            lifted = tl.cone_cells[k].then(tl.structure_cells[(k + 1, k)])
            validate_transformation(lifted, invertible=True)
            validate_functor(tl.cone[k + 1])
            validate_transformation(tl.cone_cells[k + 1], invertible=True)
            assert tl.cone[k + 1].then(f) == tl.cone[k], case
        for alpha in tl.cone_cells:
            whisked = alpha.whisker_pre(tl.idempotent)
            assert all(whisked.category.is_identity(c) for c in whisked.components.values()), case
        assert_splits(tl.splitting, case)
        projections = tl.witness.projections
        for k, f in enumerate(maps):
            assert projections[k + 1].then(f) == projections[k], case


# -- certificates are replayed on first read -----------------------------------


@pytest.fixture()
def replays(monkeypatch):
    """The kinds of the universal-property replays run from here on."""
    kinds = []
    real = limits._certify

    def counting(*args):
        kinds.append(args[0])
        return real(*args)

    monkeypatch.setattr(limits, "_certify", counting)
    return kinds


@pytest.mark.parametrize(
    "build, kind",
    [
        (lambda: factorize_wfs(to_terminal(builtin("arrow"))).pseudolimit.witness, "pullback"),
        (
            lambda: build_normal_pullback(
                to_terminal(builtin("chaotic(2)")), identity_functor(builtin("terminal"))
            ).witness,
            "pullback",
        ),
        (
            lambda: tower_limit(
                builtin("terminal"),
                [to_terminal(builtin("chaotic(2)")), identity_functor(builtin("chaotic(2)"))],
            ).witness,
            "tower",
        ),
        (lambda: inserter(*[identity_functor(builtin("arrow"))] * 2), "pullback"),
        (lambda: equifier(*[identity_nat(identity_functor(builtin("arrow")))] * 2), "pullback"),
    ],
    ids=["factorize_wfs", "build_normal_pullback", "tower_limit", "inserter", "equifier"],
)
def test_certificate_is_replayed_once_on_first_read(replays, build, kind):
    w = build()
    assert replays == []
    cert = w.certificate
    assert cert.ok and cert.cones_checked > 0
    assert w.certificate is cert
    assert replays == [kind]


def test_compute_wf_replays_no_certificate(replays):
    assert compute_wf(to_terminal(builtin("arrow"))).ok
    assert replays == []


def test_tower_limit_builds_its_strict_oracle_only_when_certifying(monkeypatch):
    built = []
    real = limits.strict_tower_limit

    def counting(base, maps):
        built.append(len(maps))
        return real(base, maps)

    monkeypatch.setattr(limits, "strict_tower_limit", counting)
    tl = tower_limit(builtin("terminal"), [to_terminal(builtin("chaotic(2)"))])
    assert built == []
    assert tl.witness.certificate.ok
    assert tl.witness.certificate is tl.witness.certificate
    assert built == [1]


def test_tower_limit_refuses_a_tower_longer_than_the_tower_bound():
    base, maps = corpus_towers()[-1]
    with bounded(tower=3), pytest.raises(BoundExceeded) as info:
        tower_limit(base, maps)
    assert str(info.value) == "tower length 4 exceeds the bound 3"
    with bounded(tower=4):
        assert tower_limit(base, maps).witness.certificate.ok
