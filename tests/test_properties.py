"""Property tests for the structural invariants, driven by the corpus."""
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fincat.core import (
    AssociativityViolation,
    FinCat,
    IdentityViolation,
    builtin,
    builtin_functor,
    enumerate_functors,
    find_isomorphism,
    identity_functor,
    validate_category,
)
from fincat.corpus import (
    corpus_categories,
    corpus_functors,
    corpus_normal_isofibrations,
    cyclic_group_category,
)
from fincat.equivalence import (
    EquivalenceWitness,
    classify_equivalence,
    find_sections,
    validate_witness,
)
from fincat.fibrations import classify_fibration
from fincat.funcat import functor_category
from fincat.wfs import leibniz_power
from helpers import brute_force_functors, is_equivalence_bf, scan_associativity, witness_from_parts

SMALL = [c for c in corpus_categories() if c.n_morphisms <= 6]
MEDIUM = [c for c in corpus_categories() if c.n_morphisms <= 12]

relaxed = settings(
    deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow]
)


@relaxed
@given(st.sampled_from(corpus_categories()))
def test_revalidation_is_idempotent(cat):
    assert validate_category(validate_category(cat)) is cat


@relaxed
@given(st.integers(0, 8), st.integers(0, 2))
def test_perturbed_table_never_validates_silently(entry_index, replacement):
    z3 = cyclic_group_category(3)
    keys = sorted(z3.comp)
    key = keys[entry_index % len(keys)]
    perturbed = dict(z3.comp)
    new_value = f"g{replacement}"
    if perturbed[key] == new_value:
        return
    perturbed[key] = new_value
    bad = FinCat(z3.objects, z3.morphisms, z3.identity, perturbed)
    triple = scan_associativity(bad)
    try:
        validate_category(bad)
        # validation passed: the raw scan must find no violation either and
        # the identity laws must genuinely hold
        assert triple is None
    except AssociativityViolation as err:
        h, g, f = err.triple
        left = bad.comp[(h, bad.comp[(g, f)])]
        right = bad.comp[(bad.comp[(h, g)], f)]
        assert left != right
    except IdentityViolation:
        assert any(
            bad.comp[(m.name, "g0")] != m.name or bad.comp[("g0", m.name)] != m.name
            for m in bad.morphisms
        )


@relaxed
@given(st.sampled_from(MEDIUM))
def test_power_by_terminal_is_identity(cat):
    fc = functor_category(builtin("terminal"), cat)
    assert find_isomorphism(fc, cat) is not None


@relaxed
@given(st.sampled_from(SMALL), st.sampled_from(SMALL), st.integers(0, 5))
def test_classify_agrees_with_brute_force(src, dst, pick):
    fs = brute_force_functors(src, dst)
    if not fs:
        return
    F = fs[pick % len(fs)]
    expected = is_equivalence_bf(F)
    got = classify_equivalence(F)
    assert isinstance(got, EquivalenceWitness) == expected


@relaxed
@given(st.sampled_from(SMALL), st.sampled_from(SMALL), st.integers(0, 5))
def test_retract_kind_iff_section_exists(src, dst, pick):
    fs = brute_force_functors(src, dst)
    if not fs:
        return
    F = fs[pick % len(fs)]
    got = classify_equivalence(F)
    if not isinstance(got, EquivalenceWitness):
        return
    # exhaustive raw search for a strict section
    sections = [
        G
        for G in brute_force_functors(dst, src)
        if all(F.omap[G.omap[b]] == b for b in dst.objects)
        and all(F.mmap[G.mmap[m.name]] == m.name for m in dst.morphisms)
    ]
    assert got.has_section == bool(sections)


@relaxed
@given(st.integers(0, 30))
def test_every_section_normalizes_to_valid_witness(seed):
    # witness choice must never matter: every section of a retract
    # equivalence yields a valid identity-counit witness
    candidates = [
        f
        for f in corpus_functors()
        if f.source.n_morphisms <= 9 and not f.is_identity()
    ]
    f = candidates[seed % len(candidates)]
    w = classify_equivalence(f)
    if not isinstance(w, EquivalenceWitness) or not w.has_section:
        return
    for G in find_sections(f):
        validate_witness(witness_from_parts(f, G, "retract", True, w.has_retraction))


@relaxed
@given(st.integers(0, 40), st.integers(0, 40))
def test_discrete_cancellation(i, j):
    fs = corpus_functors()
    f = fs[i % len(fs)]
    candidates = [g for g in fs if g.source == f.target]
    if not candidates:
        return
    g = candidates[j % len(candidates)]
    gf = f.then(g)
    if (
        classify_fibration(gf, grothendieck=False).discrete
        and classify_fibration(g, grothendieck=False).discrete
    ):
        assert classify_fibration(f, grothendieck=False).discrete


@pytest.mark.parametrize("name", ["empty_to_terminal", "point_to_iso", "discrete_to_arrow", "collapse_parallel"])
def test_leibniz_closure_for_generators(name):
    j = builtin_functor(name)
    sample = [
        p
        for p in corpus_normal_isofibrations()
        if p.source.n_morphisms <= 9 and p.target.n_morphisms <= 9
    ][:6]
    assert sample
    for p in sample:
        res = leibniz_power(j, p)
        assert res.report.normal, (name, p.label)


def test_retract_closure_of_normal_isofibrations():
    # a retract, in the arrow category, of a normal isofibration is again
    # one; search small retract diagrams exhaustively
    found = 0
    normals = [
        p
        for p in corpus_normal_isofibrations()
        if 1 < p.source.n_morphisms <= 6 and p.target.n_morphisms <= 6
    ][:8]
    smalls = SMALL[:6]
    for p in normals:
        C, D = p.source, p.target
        for A in smalls:
            for s0 in islice(enumerate_functors(A, C), 8):
                retr0 = [
                    r0
                    for r0 in islice(enumerate_functors(C, A), 32)
                    if s0.then(r0) == identity_functor(A)
                ]
                if not retr0:
                    continue
                for B in smalls:
                    for s1 in islice(enumerate_functors(B, D), 8):
                        retr1 = [
                            r1
                            for r1 in islice(enumerate_functors(D, B), 32)
                            if s1.then(r1) == identity_functor(B)
                        ]
                        for r0 in retr0[:2]:
                            for r1 in retr1[:2]:
                                candidate = s0.then(p).then(r1)
                                # retract squares: s1∘candidate = p∘s0 and
                                # candidate∘r0 = r1∘p
                                if candidate.then(s1) != s0.then(p):
                                    continue
                                if r0.then(candidate) != p.then(r1):
                                    continue
                                found += 1
                                assert classify_fibration(
                                    candidate, grothendieck=False
                                ).normal
    assert found > 0


def test_corpus_counts_meet_the_bar():
    cats = corpus_categories()
    assert len(cats) >= 12
    assert all(c.n_objects <= 6 and c.n_morphisms <= 24 for c in cats)
    labels = [c.label for c in cats]
    assert len(set(labels)) == len(labels)
