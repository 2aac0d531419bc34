import pytest

from fincat.core import (
    FinFunctor,
    NotIsofibration,
    WitnessInvalid,
    builtin,
    builtin_functor,
    identity_functor,
    validate_transformation,
)
from fincat.equivalence import (
    EquivalenceWitness,
    classify_equivalence,
    find_retractions,
    validate_witness,
)
from fincat.fibrations import build_normal_cleavage, classify_fibration
from fincat.corpus import corpus_functors, cyclic_group_category
from fincat.funcat import (
    evaluation_functor,
    functor_category,
    postcompose_functor,
    precompose_functor,
)
from fincat.wfs import (
    LiftingProblem,
    canonical_test_square,
    compute_wf,
    exhaustive_fillers,
    factorize_wfs,
    find_arrow_isomorphism,
    has_filler,
    leibniz_power,
    _filler,
    minimal_retract_witness,
    solve_lifting,
)
from helpers import (
    constant_functor,
    functor_named,
    is_isomorphism,
    walking_split_idempotent,
    witness_from_parts,
)


def to_terminal(cat):
    one = builtin("terminal")
    return FinFunctor(
        cat, one, {a: "*" for a in cat.objects}, {m.name: "id_*" for m in cat.morphisms}
    )


# -- factorization -------------------------------------------------------------


def test_factorize_identity():
    A = builtin("free_iso")
    fac = factorize_wfs(identity_functor(A))
    assert fac.left.then(fac.right) == identity_functor(A)
    assert "injective" in fac.left_witness.kinds
    assert classify_fibration(fac.right).normal


def test_factorize_point_into_arrow():
    f = builtin_functor("point_to_arrow_0")
    fac = factorize_wfs(f)
    # the only isomorphism of the arrow category into 0 is the identity
    assert fac.pseudolimit.apex.n_objects == 1
    assert fac.left.then(fac.right) == f
    assert classify_fibration(fac.right).normal
    assert "injective" in classify_equivalence(fac.left).kinds


def test_factorization_legs_compose_to_the_arrow_on_the_corpus():
    """right ∘ left = f for the factorization of every corpus functor f, so
    its canonical square commutes.  The cell right·η that a filler of that
    square lifts, for η : 1 ≅ left∘r of the left leg's witness, is an
    invertible transformation, and when f is a normal isofibration the
    filler that ``_filler`` builds from that witness fills the square."""
    for f in corpus_functors():
        fac = factorize_wfs(f)
        assert fac.left.then(fac.right) == f, f.label
        square = canonical_test_square(f)
        square.validate()
        eta = fac.left_witness.counit.inverse()
        validate_transformation(eta.whisker_post(fac.right), invertible=True)
        if classify_fibration(f, grothendieck=False).normal:
            filler = _filler(square, fac.left_witness, build_normal_cleavage(f))
            assert square.is_filler(filler), f.label


def test_factorize_non_isofibration_still_splits():
    f = builtin_functor("point_to_iso")
    fac = factorize_wfs(f)
    assert fac.left.then(fac.right) == f
    assert classify_fibration(fac.right).normal
    assert not classify_fibration(f).representable


# -- lifting -------------------------------------------------------------------


def test_solve_lifting_identity_left_edge():
    C = builtin("chaotic(2)")
    p = to_terminal(C)
    square = LiftingProblem(
        left=identity_functor(C),
        right=p,
        top=identity_functor(C),
        bottom=p,
    ).validate()
    h = solve_lifting(square)
    assert h == identity_functor(C)


def test_solve_lifting_identity_right_edge():
    iso = builtin("free_iso")
    one = builtin("terminal")
    i = builtin_functor("point_to_iso")
    f = constant_functor(one, iso, "0")
    square = LiftingProblem(
        left=i,
        right=identity_functor(iso),
        top=f,
        bottom=identity_functor(iso),
    ).validate()
    h = solve_lifting(square)
    assert square.is_filler(h)


def test_solve_lifting_point_into_iso_against_cod():
    two = builtin("arrow")
    power = functor_category(builtin("free_iso"), two)
    cod = evaluation_functor(power, "1")
    i = builtin_functor("point_to_iso")
    iso = builtin("free_iso")
    # top picks the constant at 0, bottom is then forced to be constant
    c0 = next(o for o in power.objects if functor_named(power, o).ob("1") == "0")
    top = constant_functor(builtin("terminal"), power, c0)
    bottom = constant_functor(iso, two, "0")
    square = LiftingProblem(left=i, right=cod, top=top, bottom=bottom).validate()
    h = solve_lifting(square)
    assert square.is_filler(h)
    everyone = list(exhaustive_fillers(square))
    assert any(h == cand for cand in everyone)


def test_canonical_square_detects_right_class():
    # a normal isofibration fills its canonical square
    p = to_terminal(builtin("chaotic(2)"))
    sq = canonical_test_square(p)
    assert has_filler(sq)
    h = solve_lifting(sq)
    assert sq.is_filler(h)
    # a non-isofibration admits no filler at all
    f = builtin_functor("point_to_iso")
    assert not has_filler(canonical_test_square(f))


def test_filler_valid_for_every_retraction_witness():
    # the choice of witness must not matter downstream
    iso = builtin("free_iso")
    i = builtin_functor("point_to_iso")
    p = to_terminal(builtin("chaotic(2)"))
    top = constant_functor(builtin("terminal"), builtin("chaotic(2)"), "1")
    bottom = to_terminal(iso)
    square = LiftingProblem(left=i, right=p, top=top, bottom=bottom).validate()
    retractions = list(find_retractions(i))
    assert retractions
    for r in retractions:
        w = witness_from_parts(i, r, "injective", False, True)
        h = _filler(square, w, build_normal_cleavage(p))
        assert square.is_filler(h)


# -- wrong witnesses for the left edge ------------------------------------------


def _counit_of(pl, G):
    """The first morphism F G b → b of the apex at each b, for F the
    diagonal."""
    L, d = pl.apex, pl.diagonal
    return {b: L.hom(d.ob(G.ob(b)), b)[0] for b in L.objects}


def _swapped_retraction(pl):
    """The source projection followed by the swap of chaotic(2)."""
    A, flip = pl.arrow.source, {"0": "1", "1": "0"}
    mmap = {m.name: A.hom(flip[m.dom], flip[m.cod])[0] for m in A.morphisms}
    return pl.to_source.then(FinFunctor(A, A, flip, mmap, label="swap"))


def _off_image(pl):
    image = set(pl.diagonal.omap.values())
    return next(b for b in pl.apex.objects if b not in image)


def _counit_changed_off_image(pl):
    """δ⁻¹ with its component at one object off the diagonal's image
    replaced by another isomorphism with the same ends."""
    counit, b = dict(pl.diagonal_cell.inverse().components), _off_image(pl)
    L = pl.apex
    counit[b] = next(m for m in L.hom(L.mor(counit[b]).dom, b) if m != counit[b])
    return counit


def _counit_missing_off_image(pl):
    counit = dict(pl.diagonal_cell.inverse().components)
    del counit[_off_image(pl)]
    return counit


_ARROW = to_terminal(builtin("arrow"))
_CHAOTIC = identity_functor(builtin("chaotic(2)"))
_CYCLIC = identity_functor(cyclic_group_category(3))


def _constant_0(pl):
    return constant_functor(pl.apex, pl.arrow.source, "0")


WRONG_WITNESSES = {
    # (f, the thunk's inverse and counit, kind): validate_witness's message
    "constant inverse": (
        _ARROW,
        lambda pl: (_constant_0(pl), {b: pl.apex.id_of(b) for b in pl.apex.objects}),
        "injective",
        r"^\(id_1\|\[id_\*,id_\*\]0>0\) has no preimage under diagonal$",
    ),
    "projection claimed a strict inverse": (
        _CHAOTIC,
        lambda pl: (pl.to_source, {b: pl.apex.id_of(b) for b in pl.apex.objects}),
        "injective",
        r"^unit/counit invalid: naturality fails at .*: component has wrong boundary$",
    ),
    "non-invertible counit": (
        _ARROW,
        lambda pl: (_constant_0(pl), _counit_of(pl, _constant_0(pl))),
        "injective",
        r"^counit is not invertible on the image of diagonal$",
    ),
    "non-natural counit": (
        _CYCLIC,
        lambda pl: (pl.to_source, _counit_changed_off_image(pl)),
        "injective",
        r"^unit/counit invalid: naturality fails at .* != ",
    ),
    "counit missing a component": (
        _CYCLIC,
        lambda pl: (pl.to_source, _counit_missing_off_image(pl)),
        "injective",
        r"^unit/counit invalid: counit: components must cover exactly the source objects$",
    ),
    "injective kind with a non-identity unit": (
        _CHAOTIC,
        lambda pl: (_swapped_retraction(pl), _counit_of(pl, _swapped_retraction(pl))),
        "injective",
        r"^injective witness must have identity unit$",
    ),
    "retract kind with a non-identity counit": (
        _CHAOTIC,
        lambda pl: (pl.to_source, pl.diagonal_cell.inverse().components),
        "retract",
        r"^retract witness must have identity counit$",
    ),
}


@pytest.mark.parametrize("case", list(WRONG_WITNESSES))
def test_a_wrong_witness_for_the_diagonal_is_refused(case):
    """An ``EquivalenceWitness`` built for a factorization's
    diagonal from a wrong inverse or counit, or under the wrong kind, is
    refused by ``validate_witness`` with its message."""
    f, build, kind, message = WRONG_WITNESSES[case]
    pl = factorize_wfs(f).pseudolimit
    with pytest.raises(WitnessInvalid, match=message):
        validate_witness(EquivalenceWitness(pl.diagonal, kind, lambda: build(pl)))


def test_the_right_witness_passes_and_fills_the_canonical_square():
    """The diagonal's own (source projection, δ⁻¹) witness passes
    ``validate_witness``, and the filler built from it fills the square."""
    pl = factorize_wfs(_CYCLIC).pseudolimit
    right = EquivalenceWitness(
        pl.diagonal, "injective", lambda: (pl.to_source, pl.diagonal_cell.inverse().components)
    )
    validate_witness(right)
    square = canonical_test_square(_CYCLIC)
    assert square.is_filler(_filler(square, right, build_normal_cleavage(_CYCLIC)))


# -- Leibniz powers --------------------------------------------------------------


def test_leibniz_by_empty_inclusion_is_ordinary_power():
    j = builtin_functor("empty_to_terminal")
    p = to_terminal(builtin("arrow"))
    res = leibniz_power(j, p)
    pair = find_arrow_isomorphism(res.induced, p)
    assert pair is not None


def test_leibniz_reproduces_full_subcategory_inclusion():
    j = builtin_functor("discrete_to_arrow")
    two = builtin("arrow")
    p = to_terminal(two)
    res = leibniz_power(j, p)
    direct = precompose_functor(j, two)
    pair = find_arrow_isomorphism(res.induced, direct)
    assert pair is not None
    assert res.report.discrete
    assert not res.report.grothendieck


def test_leibniz_legs_are_restriction_and_postcomposition_on_the_corpus():
    """The induced map A^Y → B^Y ×_{B^X} A^X followed by the pullback's legs
    is A^j and p^Y, for each generating inclusion j : X → Y and every corpus
    functor p : A → B."""
    inclusions = ["empty_to_terminal", "point_to_iso", "discrete_to_arrow", "collapse_parallel"]
    for j in map(builtin_functor, inclusions):
        for p in corpus_functors():
            res = leibniz_power(j, p)
            to_restriction, to_postcomposite = res.pullback.projections
            assert res.induced.then(to_restriction) == precompose_functor(j, p.source), p.label
            assert res.induced.then(to_postcomposite) == postcompose_functor(p, j.target), p.label


def test_leibniz_by_point_into_iso_matches_comparison_map():
    j = builtin_functor("point_to_iso")
    p = to_terminal(builtin("chaotic(2)"))
    res = leibniz_power(j, p)
    assert res.report.normal
    cmp = compute_wf(p)
    pair = find_arrow_isomorphism(res.induced, cmp.comparison)
    assert pair is not None


# -- comparison map biconditionals -----------------------------------------------


def test_wf_of_identity_is_isomorphism():
    res = compute_wf(identity_functor(builtin("terminal")))
    assert is_isomorphism(res.comparison)
    assert res.ok


def test_wf_of_collapse_is_normal_retract_equivalence():
    res = compute_wf(to_terminal(builtin("arrow")))
    assert res.arrow_report.normal
    assert res.comparison_report.normal
    assert res.ok
    assert "retract" in res.comparison_witness.kinds


def test_walking_split_idempotent_has_only_identities_as_isos_and_a_lawful_wf():
    """r∘s = 1_A but s∘r = e: s and r are one-sided inverses only, so a
    check of one composite would call them isomorphisms."""
    C = walking_split_idempotent()
    assert C.isos == ("1A", "1B")
    res = compute_wf(to_terminal(C))
    assert res.ok
    assert set(res.biconditionals) == {"representable_iff", "normal_iff", "retract_kind"}
    assert all(res.biconditionals.values())


def test_wf_of_non_isofibration_is_not_one():
    res = compute_wf(builtin_functor("point_to_iso"))
    assert not res.arrow_report.representable
    assert not res.comparison_report.representable
    assert res.ok


# -- retract presentation ---------------------------------------------------------


def test_minimal_retract_for_identity():
    cert = minimal_retract_witness(identity_functor(builtin("free_iso")))
    assert cert.ok


def test_minimal_retract_for_cod_projection():
    two = builtin("arrow")
    power = functor_category(builtin("free_iso"), two)
    cod = evaluation_functor(power, "1")
    cert = minimal_retract_witness(cod)
    assert cert.ok


def test_minimal_retract_for_chaotic_over_terminal():
    cert = minimal_retract_witness(to_terminal(builtin("chaotic(2)")))
    assert cert.ok


def test_minimal_retract_rejects_non_isofibration():
    with pytest.raises(NotIsofibration):
        minimal_retract_witness(builtin_functor("point_to_iso"))
