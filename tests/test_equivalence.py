import itertools
import random

import pytest

from fincat import equivalence
from fincat.core import (
    FinFunctor,
    NatTrans,
    WitnessInvalid,
    builtin,
    builtin_functor,
    chaotic_category,
    enumerate_isomorphisms,
    enumerate_transformations,
    identity_functor,
)
from fincat.corpus import corpus_functors, corpus_injective_equivalences, cyclic_group_category
from fincat.equivalence import (
    EquivalenceWitness,
    NotEquivalence,
    classify_equivalence,
    find_retractions,
    find_sections,
    validate_witness,
)
from fincat.funcat import pair_functor, product_category
from fincat.wfs import compute_wf, factorize_wfs
from helpers import (
    brute_force_functors,
    constant_functor,
    filter_find_retractions,
    filter_find_sections,
    is_equivalence_bf,
    retract_witness,
    shuffled,
    witness_from_parts,
)


def test_identity_is_isomorphism_all_kinds():
    for name in ["terminal", "arrow", "free_iso", "chaotic(2)"]:
        w = classify_equivalence(identity_functor(builtin(name)))
        assert isinstance(w, EquivalenceWitness)
        assert w.kinds == {"plain", "retract", "injective"}
        assert w.unit.is_identity() and w.counit.is_identity()


def test_point_into_free_iso_is_injective_equivalence():
    F = builtin_functor("point_to_iso")
    w = classify_equivalence(F)
    assert isinstance(w, EquivalenceWitness)
    assert w.has_retraction and not w.has_section
    assert w.kind == "injective"
    assert w.unit.is_identity()
    validate_witness(w)


def test_collapse_free_iso_is_retract_equivalence():
    iso = builtin("free_iso")
    one = builtin("terminal")
    F = FinFunctor(iso, one, {"0": "*", "1": "*"}, {m.name: "id_*" for m in iso.morphisms})
    w = classify_equivalence(F)
    assert isinstance(w, EquivalenceWitness)
    assert w.has_section and not w.has_retraction
    assert retract_witness(F).counit.is_identity()


def test_chaotic_to_terminal_is_retract_equivalence():
    chaos = builtin("chaotic(2)")
    one = builtin("terminal")
    F = FinFunctor(chaos, one, {a: "*" for a in chaos.objects}, {m.name: "id_*" for m in chaos.morphisms})
    w = classify_equivalence(F)
    assert isinstance(w, EquivalenceWitness)
    assert w.has_section
    rw = retract_witness(F)
    assert rw.counit.is_identity()
    validate_witness(rw)


def test_point_into_arrow_not_equivalence():
    F = builtin_functor("point_to_arrow_0")
    res = classify_equivalence(F)
    assert isinstance(res, NotEquivalence)
    assert res.reason == "not essentially surjective"


def test_collapse_parallel_not_equivalence():
    res = classify_equivalence(builtin_functor("collapse_parallel"))
    assert isinstance(res, NotEquivalence)
    assert res.reason in ("not faithful", "not full")


def test_agreement_with_ff_eso_oracle_on_small_pairs():
    pairs = [
        ("terminal", "free_iso"),
        ("free_iso", "free_iso"),
        ("free_iso", "chaotic(2)"),
        ("chaotic(2)", "chaotic(2)"),
        ("arrow", "arrow"),
        ("free_iso", "terminal"),
        ("arrow", "free_iso"),
    ]
    checked = 0
    for s, d in pairs:
        for F in brute_force_functors(builtin(s), builtin(d)):
            expected = is_equivalence_bf(F)
            got = classify_equivalence(F)
            assert isinstance(got, EquivalenceWitness) == expected
            checked += 1
    assert checked > 20


def test_section_and_retraction_searches_are_exact():
    # free_iso -> terminal collapse: every functor terminal -> free_iso is a
    # section; no retraction exists
    iso = builtin("free_iso")
    one = builtin("terminal")
    F = FinFunctor(iso, one, {"0": "*", "1": "*"}, {m.name: "id_*" for m in iso.morphisms})
    secs = list(find_sections(F))
    assert len(secs) == 2
    assert list(find_retractions(F)) == []
    # point into free_iso: unique retraction candidates collapse everything
    G = builtin_functor("point_to_iso")
    assert list(find_sections(G)) == []
    rets = list(find_retractions(G))
    assert len(rets) == 1
    assert rets[0].omap == {"0": "*", "1": "*"}


def test_every_section_yields_valid_retract_witness():
    # witness choice must not matter downstream: every section normalizes
    chaos = builtin("chaotic(3)")
    one = builtin("terminal")
    F = FinFunctor(
        chaos,
        one,
        {a: "*" for a in chaos.objects},
        {m.name: "id_*" for m in chaos.morphisms},
    )
    sections = list(find_sections(F))
    assert len(sections) == 3
    for G in sections:
        w = witness_from_parts(F, G, "retract", True, False)
        validate_witness(w)
        assert w.counit.is_identity()


@pytest.mark.parametrize("seed", range(3))
def test_witness_inverse_is_the_first_retraction_or_section(seed):
    """The inclusion at one object of C into C × chaotic(n), and the
    projection back, with the product's lists shuffled, for C a group or
    the free isomorphism.  A retraction read off the first isomorphisms of
    essential surjectivity, by conjugation, differs from the first one the
    search finds on some of these products, so the witness's inverse is
    pinned to the search's first retraction when F is injective on objects,
    and otherwise to its first section."""
    rng = random.Random(seed)
    for C in (cyclic_group_category(2), cyclic_group_category(3), builtin("free_iso")):
        for n in (2, 3):
            chaos = chaotic_category(n)
            prod = product_category(C, chaos)
            P = shuffled(prod, rng)
            point = constant_functor(C, chaos, rng.choice(chaos.objects))
            inclusion = pair_functor(identity_functor(C), point, prod)
            projection = prod.projection(0, "proj1")
            for F in (
                FinFunctor(C, P, inclusion.omap, inclusion.mmap, label="inclusion"),
                FinFunctor(P, C, projection.omap, projection.mmap, label="projection"),
            ):
                images = set(F.omap.values())
                onto = images == set(F.target.objects)
                injective = len(images) == F.source.n_objects
                w = classify_equivalence(F)
                assert (w.has_section, w.has_retraction) == (onto, injective)
                search = filter_find_retractions if injective else filter_find_sections
                first = next(search(F))
                assert (w.inverse.omap, w.inverse.mmap) == (first.omap, first.mmap)


@pytest.fixture
def constructions(monkeypatch):
    """Count the inverse constructions a witness can run: the section and
    retraction searches (``enumerate_lifts``) and the conjugation."""
    counts = {"enumerate_lifts": 0, "_conjugate": 0}
    for name in counts:
        original = getattr(equivalence, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(equivalence, name, counting)
    return lambda: sum(counts.values())


KINDS = {"injective": {"plain", "injective"}, "retract": {"plain", "retract"}, "plain": {"plain"}}


def _one_of_each_kind():
    """An injective, an onto and a plain (neither) equivalence."""
    chaos = builtin("chaotic(2)")
    iso = builtin("free_iso")
    one = builtin("terminal")
    return {
        "injective": builtin_functor("point_to_iso"),
        "retract": FinFunctor(iso, one, {"0": "*", "1": "*"}, {m.name: "id_*" for m in iso.morphisms}),
        "plain": constant_functor(chaos, chaos, "0"),
    }


@pytest.mark.parametrize("kind", ["injective", "retract", "plain"])
def test_reading_the_kinds_runs_no_construction(kind, constructions):
    w = classify_equivalence(_one_of_each_kind()[kind])
    assert w.kind == kind
    assert (w.kinds, w.has_section, w.has_retraction) == (
        KINDS[kind],
        kind == "retract",
        kind == "injective",
    )
    assert constructions() == 0


@pytest.mark.parametrize("kind", ["injective", "retract", "plain"])
@pytest.mark.parametrize("order", list(itertools.permutations(["inverse", "unit", "counit"])))
def test_the_first_read_of_the_structure_runs_one_construction(kind, order, constructions):
    """Whichever of the inverse, unit and counit is read first runs the one
    construction; later reads, of any of them, run none, and the structure
    is the one a witness built from the same functor reads."""
    F = _one_of_each_kind()[kind]
    w = classify_equivalence(F)
    getattr(w, order[0])
    assert constructions() == 1
    for name in order + order:
        getattr(w, name)
    assert constructions() == 1
    validate_witness(w)
    fresh = classify_equivalence(F)
    assert (fresh.inverse, fresh.unit.components, fresh.counit.components) == (
        w.inverse,
        w.unit.components,
        w.counit.components,
    )


def test_factorizations_and_wf_comparisons_of_the_corpus_run_no_construction(constructions):
    """Also: each corpus functor's cached ``equivalence`` is what a fresh
    classification gives (the same type, kind, reason and locus, so the same
    kinds), and a second read returns the same object."""
    witnesses = 0
    for f in corpus_functors():
        w = f.equivalence
        assert w is f.equivalence and w == classify_equivalence(f), f
        assert factorize_wfs(f).left_witness.has_retraction
        witnesses += isinstance(compute_wf(f).comparison.equivalence, EquivalenceWitness)
    assert witnesses > 0
    assert corpus_injective_equivalences.__wrapped__()
    assert constructions() == 0


def test_two_witnesses_of_one_functor_compare_and_hash_equal():
    for F in _one_of_each_kind().values():
        w, w2 = classify_equivalence(F), classify_equivalence(F)
        assert w.build is not w2.build
        assert w == w2 and hash(w) == hash(w2)
        w.inverse  # a built structure is not compared either
        assert w == w2 and hash(w) == hash(w2)


def _hand_built(F, G, unit, counit):
    """A plain witness with the inverse, unit and counit given, not built by
    ``EquivalenceWitness``'s unit formula (which types both cells and
    forces the triangles)."""
    w = EquivalenceWitness(F, "plain", build=None)
    vars(w)["_structure"] = (G, unit, counit)
    return w


def _identity_cell(F):
    return NatTrans(F, F, {a: F.target.id_of(F.ob(a)) for a in F.source.objects})


def _swap_of_chaotic_2():
    c = builtin("chaotic(2)")
    flip = {"0": "1", "1": "0"}
    mmap = {m.name: f"u{flip[m.dom]}_{flip[m.cod]}" for m in c.morphisms}
    return FinFunctor(c, c, flip, mmap, label="swap")


def _wrong_boundary_witnesses():
    """The identity of chaotic(2), with a unit or a counit that is a natural
    isomorphism between the swap and the identity."""
    swap = _swap_of_chaotic_2()
    one = identity_functor(swap.source)
    into_swap = NatTrans(one, swap, {"0": "u0_1", "1": "u1_0"})
    out_of_swap = NatTrans(swap, one, {"0": "u1_0", "1": "u0_1"})
    return {
        "unit has wrong boundary": _hand_built(one, one, into_swap, _identity_cell(one)),
        "counit has wrong boundary": _hand_built(one, one, _identity_cell(one), out_of_swap),
    }


@pytest.mark.parametrize("message", ["unit has wrong boundary", "counit has wrong boundary"])
def test_a_natural_unit_or_counit_with_the_wrong_boundary_is_refused(message):
    with pytest.raises(WitnessInvalid, match=f"^{message}$"):
        validate_witness(_wrong_boundary_witnesses()[message])


def test_a_unit_and_counit_that_break_the_first_triangle_are_refused():
    """On the identity of cyclic(3), unit and counit both g1 are natural
    (the group is abelian) and invertible, but ε∘η = g2."""
    one = identity_functor(cyclic_group_category(3))
    g1 = NatTrans(one, one, {"*": "g1"})
    with pytest.raises(WitnessInvalid, match=r"^triangle \(counit·F\)\(F·unit\) fails at \*$"):
        validate_witness(_hand_built(one, one, g1, g1))


def test_the_second_triangle_follows_from_the_first():
    """With η and ε natural isomorphisms of the right boundaries, the first
    triangle forces the second: for θ = Gε·ηG, naturality of ε at ε_b gives
    ε_b∘FG(ε_b) = ε_b∘ε_(FGb), so ε_b∘F(θ_b) = ε_b∘(εF·Fη)_(Gb) = ε_b; ε_b is
    invertible and F faithful, so θ_b = 1.  So ``validate_witness``'s second
    triangle check never fails on its own: over every invertible unit and
    counit of these equivalences, a witness is refused exactly when the
    first triangle fails, and never by the second."""
    c3, c4 = cyclic_group_category(3), cyclic_group_category(4)
    mixed = product_category(cyclic_group_category(2), builtin("chaotic(2)"))
    equivalences = [F for C in (c3, c4, mixed) for F in enumerate_isomorphisms(C, C)]
    equivalences.append(constant_functor(builtin("chaotic(2)"), builtin("terminal"), "*"))
    refused = passed = 0
    for F in equivalences:
        A, B = F.source, F.target
        G = classify_equivalence(F).inverse
        units = list(enumerate_transformations(identity_functor(A), F.then(G), invertible_only=True))
        counits = list(enumerate_transformations(G.then(F), identity_functor(B), invertible_only=True))
        for unit, counit in itertools.product(units, counits):
            first = all(
                B.compose(counit.component(F.ob(a)), F.mor(unit.component(a))) == B.id_of(F.ob(a))
                for a in A.objects
            )
            try:
                validate_witness(_hand_built(F, G, unit, counit))
            except WitnessInvalid as exc:
                assert not first and str(exc).startswith("triangle (counit·F)(F·unit)"), exc
                refused += 1
            else:
                assert first
                passed += 1
    assert (refused, passed) == (44, 23)
