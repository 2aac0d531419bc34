"""The index encoding of set maps behind the lifting sweep in
``fincat.cosmos``, checked exhaustively for set sizes up to 4 against the
image-tuple maps in ``helpers``: indices round-trip, every compose-table
entry is the composite, every extension list is the tuple extensions in
order, and the arrow space's split monos, split epis, retractions and
sections decode to the tuple reference's.  A sweep builds its own tables,
among them its isomorphism classes of arrows, its runs of split maps and
its memo of outside factors, and frees them when it returns."""
import gc
import weakref
from collections import Counter
from itertools import product

import pytest
from helpers import FilterArrowSpace, extensions

import fincat.cosmos as cosmos
from fincat.cosmos import (
    _arrow_objects,
    _ArrowSpace,
    _decode_arrow,
    _decode_hom,
    _functions,
    _identity,
    _SetMaps,
    nip_square_filler,
)

SIZES = range(5)


def _index(f, b):
    """The position of an image tuple f : a → b in lexicographic order."""
    code = 0
    for y in f:
        code = code * b + y
    return code


def test_indices_round_trip():
    maps = _SetMaps()
    for a, b in product(SIZES, SIZES):
        tuples = _functions(a, b)
        assert len(tuples) == b**a
        for k, f in enumerate(tuples):
            assert _index(f, b) == k
            assert tuple(maps.values(k, a, b)) == f
    for n in SIZES:
        assert _functions(n, n)[_identity(n)] == tuple(range(n))


def test_compose_tables_are_composition():
    maps = _SetMaps()
    for a, b, c in product(SIZES, SIZES, SIZES):
        after = maps.after(a, b, c)
        before = maps.before(a, b, c)
        fs, gs = _functions(a, b), _functions(b, c)
        assert len(after) == len(gs) and len(before) == len(fs)
        for j, g in enumerate(gs):
            for k, f in enumerate(fs):
                gf = _index(tuple(g[x] for x in f), c)
                assert after[j][k] == gf == before[k][j]


def test_extension_lists_are_the_tuple_extensions_in_order():
    maps = _SetMaps()
    for a, b, d in product(SIZES, SIZES, SIZES):
        table = maps.extensions(a, b, d)
        for k, f in enumerate(_functions(a, b)):
            expected = {}
            for t in _functions(a, d):
                exts = [_index(g, d) for g in extensions(f, t, b, d)]
                if exts:
                    expected[_index(t, d)] = exts
            assert table[k] == expected, (a, b, d, f)


def test_arrow_objects_decode_to_the_reference_in_order():
    assert [_decode_arrow(X) for X in _arrow_objects(3)] == FilterArrowSpace(3).objects


# The split maps are listed by closed-form tests on fibre sizes, the
# reference by searching each hom's retraction or section candidates.
@pytest.mark.parametrize("bound, maps", [(2, 96), (3, 6_209)])
def test_split_maps_decode_to_the_tuple_reference_in_order(bound, maps):
    space, ref = _ArrowSpace(_arrow_objects(bound)), FilterArrowSpace(bound)
    listed = 0
    for X in space.objects:
        for Y in space.objects:
            dX, dY = _decode_arrow(X), _decode_arrow(Y)
            monos = [i for i, _ in space.split_monos(X, Y)]
            assert [_decode_hom(i, X, Y) for i in monos] == ref.split_monos(dX, dY)
            for i in monos:
                r = _decode_hom(space.retraction(i, X, Y), Y, X)
                assert r == ref.retraction_of(_decode_hom(i, X, Y), dX, dY)
            epis = [p for p, _ in space.split_epis(X, Y)]
            assert [_decode_hom(p, X, Y) for p in epis] == ref.split_epis(dX, dY)
            for p in epis:
                s = _decode_hom(space.section(p, X, Y), Y, X)
                assert s == ref.section_of(_decode_hom(p, X, Y), dX, dY)
            listed += len(monos) + len(epis)
    assert listed == maps


@pytest.mark.parametrize("bound", [2, 3])
def test_top_levels_are_the_tally_of_the_homs(bound):
    space = _ArrowSpace(_arrow_objects(bound))
    for A in space.objects:
        for C in space.objects:
            tally = Counter(tuple(space.maps.values(t1, A[1], C[1])) for _, t1 in space.homs(A, C))
            tops = space.top_levels(A, C)
            assert len(tops) == len(tally), (A, C)
            assert {tuple(t1): n for t1, n in tops} == tally, (A, C)


def test_each_sweep_at_the_maximum_bound_builds_and_frees_its_own_tables(monkeypatch):
    built, spaces, classes, runs, outside = [], [], [], [], []

    class RecordedSetMaps(_SetMaps):
        def __init__(self):
            super().__init__()
            built.append(weakref.ref(self))

    class Tables(dict):
        pass

    class RecordedArrowSpace(_ArrowSpace):
        def __init__(self, objects):
            super().__init__(objects)
            self.representatives = Tables(self.representatives)
            self._outside = Tables(self._outside)
            spaces.append(weakref.ref(self))
            classes.append(weakref.ref(self.representatives))
            outside.append(weakref.ref(self._outside))

        def outside_factor(self, D, sizes):
            factor = super().outside_factor(D, sizes)
            assert self._outside[D, sizes] == factor
            return factor

    split_buckets = cosmos._split_buckets

    def recorded_buckets(space):
        buckets = tuple(Tables(side) for side in split_buckets(space))
        runs.extend(weakref.ref(side) for side in buckets)
        return buckets

    def module_state():
        return {
            name: len(value)
            for name, value in vars(cosmos).items()
            if isinstance(value, (dict, list, set))
        }

    monkeypatch.setattr(cosmos, "_SetMaps", RecordedSetMaps)
    monkeypatch.setattr(cosmos, "_ArrowSpace", RecordedArrowSpace)
    state = module_state()
    monkeypatch.setattr(cosmos, "_split_buckets", recorded_buckets)
    for space, bound in (("finset", 4), ("finset_arrow", 3)):
        first = nip_square_filler(space, bound)
        gc.collect()
        assert built[-1]() is None
        second = nip_square_filler(space, bound)
        gc.collect()
        assert built[-1]() is None
        assert first.to_dict() == second.to_dict()
    assert len(built) == len(spaces) == len(classes) == len(outside) == 4
    assert len(runs) == 8
    assert all(ref() is None for ref in built + spaces + classes + runs + outside)
    assert module_state() == state
