"""Every lifting-problem search of the library, solved by
``core.enumerate_lifts``, against the code it replaced, kept in ``helpers``
as the reference: hand-built choice tables, or every candidate functor
generated and filtered by the square equation.  The ordered outputs must be
identical."""
from itertools import islice

import pytest
from helpers import (
    check_arrow_square,
    constant_functor,
    default_arrow_test_objects,
    filter_arrow_fillers,
    filter_arrow_sections,
    filter_arrow_squares,
    filter_exhaustive_fillers,
    filter_find_retractions,
    filter_find_sections,
    filter_pullback_cones,
    functor_named,
)

from fincat.core import (
    FinFunctor,
    builtin,
    builtin_functor,
    discrete_category,
    identity_functor,
    thin_functor,
)
from fincat.corpus import (
    chaotic_collapse,
    corpus_cospans_normal_left,
    corpus_functors,
    iso_inclusion_into_chaotic,
    to_terminal_functor,
)
from fincat.counterexamples import (
    ArrowMorphism,
    _arrow_fillers,
    arrow_sections,
    build_fy,
)
from fincat.equivalence import find_retractions, find_sections
from fincat.funcat import evaluation_functor, functor_category
from fincat.limits import _pullback_cones, default_vertices, pullback_strict
from fincat.wfs import LiftingProblem, canonical_test_square, exhaustive_fillers

FY_CASES = [(k, alpha) for k in range(5) for alpha in (2, 3, 4)]


def tables(functors):
    return [(F.omap, F.mmap) for F in functors]


def pair_tables(pairs):
    return [(tables([a])[0], tables([b])[0]) for a, b in pairs]


@pytest.mark.parametrize("k,alpha", FY_CASES)
def test_arrow_sections_match_the_filter(k, alpha):
    f = build_fy(k, alpha)
    ours = [(s.level0, s.level1) for s in arrow_sections(f)]
    assert pair_tables(ours) == pair_tables(filter_arrow_sections(f))
    assert bool(ours) == (k < alpha)


def test_arrow_sections_keep_the_s0_major_order():
    """The swap of two points over the identity of the point: its sections
    are (0, 1) and (1, 0), which the search over s1 finds in the reverse
    order, so only the sort restores the filter's s0-major order."""
    two = discrete_category(2)
    swap = thin_functor(two, two, {"0": "1", "1": "0"}, "swap")
    collapse = to_terminal_functor(two)
    one = identity_functor(collapse.target)
    f = check_arrow_square(ArrowMorphism(source=swap, target=one, level0=collapse, level1=collapse))
    ours = [(s.level0, s.level1) for s in arrow_sections(f)]
    assert [(s0.omap["*"], s1.omap["*"]) for s0, s1 in ours] == [("0", "1"), ("1", "0")]
    assert pair_tables(ours) == pair_tables(filter_arrow_sections(f))


@pytest.mark.parametrize("k,alpha", FY_CASES)
def test_arrow_hom_squares_match_the_filter(k, alpha):
    """The squares out of the test objects are what the closed form of
    ``arrow_normal_on_test_set`` reads them as, in the filter's order: out
    of 1 → 1, the objects of A_0; out of 2 → 1, the objects of the kernel
    pair A_0 ×_{A_1} A_0."""
    f = build_fy(k, alpha)
    point, pair = default_arrow_test_objects()
    for A in (f.source, f.target):
        squares = filter_arrow_squares(point, A)
        assert tuple(s0.omap["*"] for s0, _ in squares) == A.source.objects
        kernel = pullback_strict(A, A).apex
        squares = filter_arrow_squares(pair, A)
        assert [(s0.omap["0"], s0.omap["1"]) for s0, _ in squares] == [
            kernel.obj_parts[c] for c in kernel.objects
        ]


def test_sections_and_retractions_match_the_choice_tables():
    functors = corpus_functors()
    assert len(functors) > 300
    for F in functors:
        assert tables(find_sections(F)) == tables(filter_find_sections(F)), F.label
        assert tables(find_retractions(F)) == tables(filter_find_retractions(F)), F.label


def wfs_squares():
    """The lifting problems of ``test_wfs`` and the canonical squares of
    two functors inside and one outside the right class."""
    chaos, iso, one = builtin("chaotic(2)"), builtin("free_iso"), builtin("terminal")
    to_one = to_terminal_functor(chaos)
    point = builtin_functor("point_to_iso")
    power = functor_category(iso, builtin("arrow"))
    c0 = next(o for o in power.objects if functor_named(power, o).ob("1") == "0")
    return [
        LiftingProblem(identity_functor(chaos), to_one, identity_functor(chaos), to_one),
        LiftingProblem(
            point, identity_functor(iso), constant_functor(one, iso, "0"), identity_functor(iso)
        ),
        LiftingProblem(
            point,
            evaluation_functor(power, "1"),
            constant_functor(one, power, c0),
            constant_functor(iso, builtin("arrow"), "0"),
        ),
        LiftingProblem(
            identity_functor(one), to_one, constant_functor(one, chaos, "0"), identity_functor(one)
        ),
        LiftingProblem(
            point, to_one, constant_functor(one, chaos, "1"), to_terminal_functor(iso)
        ),
        canonical_test_square(to_one),
        canonical_test_square(chaotic_collapse()),
        canonical_test_square(point),
    ]


def test_exhaustive_fillers_match_the_choice_tables():
    counts = []
    for square in wfs_squares():
        ours = tables(exhaustive_fillers(square))
        assert ours == tables(filter_exhaustive_fillers(square))
        assert tables(islice(exhaustive_fillers(square), 1)) == ours[:1]
        counts.append(len(ours))
    assert 0 in counts and max(counts) > 1


def test_pullback_cones_match_the_filter():
    cospans = corpus_cospans_normal_left()
    assert len(cospans) == 48
    total = 0
    for F, G in cospans:
        cones = _pullback_cones(F, G)
        for X in default_vertices():
            ours = [legs for legs, _cells in cones(X)]
            assert pair_tables(ours) == pair_tables(filter_pullback_cones(F, G, X))
            total += len(ours)
    assert total > 0


def empty_arrow():
    empty = discrete_category(0)
    return identity_functor(empty)


def from_empty(X):
    return FinFunctor(discrete_category(0), X, {}, {}, label="empty")


def test_arrow_fillers_match_the_filter():
    """Against the empty arrow on the left and the terminal arrow on the
    right, the fillers of a square B → C are all commuting squares B → C, so
    the level-1 search must honour the square equation with level 0."""
    arrows = default_arrow_test_objects() + (chaotic_collapse(), iso_inclusion_into_chaotic())
    one = identity_functor(builtin("terminal"))
    nonempty = 0
    for B in arrows:
        for C in arrows:
            i = check_arrow_square(
                ArrowMorphism(empty_arrow(), B, from_empty(B.source), from_empty(B.target))
            )
            p = check_arrow_square(
                ArrowMorphism(C, one, to_terminal_functor(C.source), to_terminal_functor(C.target))
            )
            top = check_arrow_square(
                ArrowMorphism(empty_arrow(), C, from_empty(C.source), from_empty(C.target))
            )
            bottom = check_arrow_square(
                ArrowMorphism(B, one, to_terminal_functor(B.source), to_terminal_functor(B.target))
            )
            ours = _arrow_fillers(i, p, top, bottom)
            assert pair_tables(ours) == pair_tables(filter_arrow_fillers(i, p, top, bottom))
            assert pair_tables(ours) == pair_tables(filter_arrow_squares(B, C))
            nonempty += bool(ours)
    assert nonempty
