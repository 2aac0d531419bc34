"""The indexed universal-property replay in ``fincat.limits`` against the
apex-scanning code it replaced, kept in ``helpers`` as the reference:
certificates and isomorphisms over shared projections must be identical."""
import pytest
from helpers import (
    scan_certify_isocomma,
    scan_certify_pullback,
    scan_certify_tower,
    scan_isomorphism_over,
)

from fincat.core import identity_functor, validate_category
from fincat.corpus import corpus_cospans_normal_left, corpus_towers, cyclic_group_category
from fincat.limits import (
    build_normal_pullback,
    default_vertices,
    find_isomorphism_over,
    isocomma,
    pullback_strict,
    strict_tower_limit,
    tower_limit,
)


def same_functor(a, b):
    if a is None or b is None:
        return a is b
    return (a.omap, a.mmap) == (b.omap, b.mmap)


def test_cospan_certificates_match_the_scan():
    cospans = corpus_cospans_normal_left()
    assert len(cospans) == 48
    vertices = default_vertices()
    for f, g in cospans:
        pb = pullback_strict(f, g)
        ref = scan_certify_pullback(pb.apex, *pb.projections, f, g, vertices)
        assert pb.certificate.to_dict() == ref.to_dict()

        ic = isocomma(f, g)
        ref = scan_certify_isocomma(ic.apex, *ic.projections, *ic.structure_cells, f, g, vertices)
        assert ic.certificate.to_dict() == ref.to_dict()

        w = build_normal_pullback(f, g).witness
        ref = scan_certify_pullback(w.apex, *w.projections, f, g, vertices)
        assert w.certificate.to_dict() == ref.to_dict()
        assert same_functor(find_isomorphism_over(w, pb), scan_isomorphism_over(w, pb))
        assert same_functor(find_isomorphism_over(pb, w), scan_isomorphism_over(pb, w))


@pytest.mark.parametrize("n", [2, 3])
def test_isocomma_over_a_group_separates_isocones_by_their_cell(n):
    # One object with n automorphisms: the isocones from a vertex differ only
    # in τ (n of them from the terminal vertex, n³ from the arrow), so only
    # the φ components of the apex objects tell their factorizations apart.
    # Every corpus cospan lands in a thin category, where they never do.
    one = identity_functor(validate_category(cyclic_group_category(n)))
    w = isocomma(one, one)
    ref = scan_certify_isocomma(
        w.apex, *w.projections, *w.structure_cells, one, one, default_vertices()
    )
    assert w.certificate.ok and w.certificate.cones_checked == n + n**3
    assert w.certificate.to_dict() == ref.to_dict()


@pytest.mark.parametrize("index", range(6))
def test_tower_certificates_match_the_scan(index):
    base, maps = corpus_towers()[index]
    w = tower_limit(base, maps).witness
    strict = strict_tower_limit(base, maps)
    ref = scan_certify_tower(w.apex, w.projections, strict, default_vertices())
    assert w.certificate.to_dict() == ref.to_dict()
    assert same_functor(find_isomorphism_over(w, strict), scan_isomorphism_over(w, strict))
