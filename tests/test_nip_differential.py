"""The lifting sweep in ``fincat.cosmos``, which decides each pair by the
fibres of its arrows, on every arrow up to a bound and on the arrows into 1
(the finite sets), against the sweeps that filter every candidate square,
kept in ``helpers`` as the reference: results, counts and counterexamples
must be identical, and the arrow space's hom sets, decoded from their
indices, equal in order.  Each pair's verdict and square count are compared
with the filled-set reference, which looks every square of the pair up
among the (h∘i, p∘h) over the fillers h, as the arrow sweep did before.
Each pass decided by runs, the split maps counted once per pair of
isomorphism classes of source and target, is compared with its maps listed
pair by pair, and its walk one object pair at a time with the walk of
those maps one by one; the counted runs of every pair of classes with its maps
listed one by one; the runs of every object pair with those of its target's
representative; and the verdicts of the maps out of every source with those
out of its representative.  Every sweep up to its largest bound is compared
with a recorded digest of its result, the finset sweep at bound 4 with the
reference's."""
import hashlib
import json
from collections import Counter
from itertools import chain, groupby

import pytest
from helpers import (
    filled_pair_squares,
    filter_arrow_homs,
    filter_nip_finset,
    filter_nip_finset_arrow,
    listed_maps,
    split_pairs,
    walk_maps,
)

from fincat.cosmos import (
    _against,
    _arrow_objects,
    _ArrowSpace,
    _decide_pair,
    _decide_pass,
    _decode_arrow,
    _decode_hom,
    _first_unfilled,
    _passes,
    _runs,
    _split_buckets,
    _split_epis,
    _split_monos,
    _walk,
    _walk_pass,
    nip_square_filler,
)


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_finset_sweep_matches_the_filter(bound):
    assert nip_square_filler("finset", bound).to_dict() == filter_nip_finset(bound).to_dict()


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_finset_arrow_sweep_matches_the_filter(bound):
    res = nip_square_filler("finset_arrow", bound)
    assert res.to_dict() == filter_nip_finset_arrow(bound).to_dict()


# The finite sets at bound 3, as the sweep decides them: the arrows x → 1.
SETS_3 = [(x, 1, 0) for x in range(4)]


# Every pair of arrows at bound 2 (the largest combined size is 16), and at
# bound 3 every pair up to combined size 13, the size of the sweep's
# counterexample; 48 of the latter are refused.  Every pair of finite sets
# at bound 3 fills, and their squares are those the sweep counts.
@pytest.mark.parametrize(
    "objects, max_size, pairs, squares, refused",
    [
        pytest.param(_arrow_objects(2), 16, 2_279, 7_905, 0, id="2-16"),
        pytest.param(_arrow_objects(3), 13, 28_428, 80_811, 48, id="3-13"),
        pytest.param(SETS_3, 16, 378, 5_356, 0, id="finset-3-16"),
    ],
)
def test_each_arrow_pair_is_decided_as_the_filled_set_reference_decides_it(
    objects, max_size, pairs, squares, refused
):
    space = _ArrowSpace(objects)
    counts = Counter()
    for mono, epi in split_pairs(space, max_size):
        (A, B, i, _), (C, D, p, _) = mono, epi
        filled = list(filled_pair_squares(space, i, p, A, B, C, D))
        fills = all(f for _, _, f in filled)
        assert _decide_pair(space, mono, epi) == (fills, len(filled)), (mono, epi)
        counts.update(pairs=1, squares=len(filled), refused=not fills)
        if not fills:
            k = next(k for k, (_, _, f) in enumerate(filled) if not f)
            replay = (k + 1, *filled[k][:2])
            assert _first_unfilled(space, mono, epi) == replay, (mono, epi)
    assert counts == Counter(pairs=pairs, squares=squares, refused=refused)


def _pass_of(pair):
    """(combined size, mono size) of a pair: the pass that holds it."""
    (A, B, _, _), (C, D, _, _) = pair
    ms = A[0] + A[1] + B[0] + B[1]
    return ms + C[0] + C[1] + D[0] + D[1], ms


def _ordered_walk(space, pairs):
    """The squares of the pairs before the first refused one, and that pair."""
    squares = 0
    for mono, epi in pairs:
        fills, count = _decide_pair(space, mono, epi)
        if not fills:
            return squares, (mono, epi)
        squares += count
    return squares, None


# Each pass's runs are compared with its maps listed pair by pair in
# ``split_pairs`` order.  The mono half of the sweep's walk, which decides
# one object pair at a time against the epi runs, is compared on every
# pass with the pass's monos decided one by one, and on a refused pass the
# whole walk with the walk of its exact maps and with the walk of its
# pairs in order.  Where a mono is refused, the epi half of the walk from
# that mono is compared with the walk of its pairs in order, and the pass
# is walked again from the mono after it, so every refused mono up to the
# sizes of the pair test above ends one comparison: in arrows at bound 3,
# two monos hold the 48 refused pairs.
@pytest.mark.parametrize(
    "objects, max_size, refused_monos",
    [
        pytest.param(_arrow_objects(2), 16, 0, id="2-16"),
        pytest.param(_arrow_objects(3), 13, 2, id="3-13"),
        pytest.param(SETS_3, 16, 0, id="finset-3-16"),
    ],
)
def test_each_pass_decided_by_class_equals_its_ordered_walk(objects, max_size, refused_monos):
    space = _ArrowSpace(objects)
    walks = groupby(split_pairs(space, max_size), key=_pass_of)
    refused = []
    for (mono_runs, epi_runs), (_, pairs) in zip(_passes(space, max_size), walks, strict=True):
        pairs = list(pairs)
        monos = list(listed_maps(space, mono_runs, _split_monos))
        epis = list(listed_maps(space, epi_runs, _split_epis))
        assert pairs == [(mono, epi) for mono in monos for epi in epis]
        assert sum(m for _, m in mono_runs) == len(monos)
        assert sum(n for _, n in epi_runs) == len(epis)
        walk = _ordered_walk(space, pairs)
        by_runs = _decide_pass(space, mono_runs, epi_runs)
        mono_half = _walk(
            space, mono_runs, _split_monos, lambda runs: _decide_pass(space, runs, epi_runs)
        )
        assert mono_half == _decide_pass(space, ([m, 1] for m in monos), epi_runs)
        if walk[1] is None:
            assert by_runs == mono_half == walk, _pass_of(pairs[0])
        else:
            assert by_runs[1] is not None, _pass_of(pairs[0])
            assert _walk_pass(space, mono_runs, epi_runs) == walk, _pass_of(pairs[0])
        while walk[1] is not None:
            assert walk_maps(space, monos, epis, epi_runs) == walk, _pass_of(pairs[0])
            mono = walk[1][0]
            refused.append(mono)
            epi_half = _walk(
                space, epi_runs, _split_epis, lambda runs: _against(space, mono, runs)
            )
            squares, pair = _ordered_walk(space, [(mono, epi) for epi in epis])
            assert epi_half == (squares, pair[1]), mono
            monos = monos[monos.index(mono) + 1 :]
            walk = _ordered_walk(space, [(mono, epi) for mono in monos for epi in epis])
        assert walk_maps(space, monos, epis, epi_runs) == walk, _pass_of(pairs[0])
    assert len(refused) == refused_monos


def test_monos_that_share_their_ends_and_level_1_map_share_one_summary():
    space = _ArrowSpace(_arrow_objects(3))
    mono_buckets, _ = _split_buckets(space)
    for (A, R, i1, summary), _ in chain.from_iterable(mono_buckets.values()):
        assert summary == space.mono_fibres(i1, A, R), (A, R, i1)
    shared = {}
    for A in space.objects:
        for B in space.objects:
            for _, _, i, summary in _split_monos(space, A, B):
                assert summary == space.mono_fibres(i[1], A, B), (A, B, i)
                assert shared.setdefault((A, B, i[1]), summary) is summary, (A, B, i)


# The arrows up to bound 4 (1,444 pairs of classes, of 38 classes of 499
# arrows) and the finite sets up to bound 4.
CLASS_SPACES = [pytest.param(_arrow_objects(n), id=f"arrow-{n}") for n in range(5)] + [
    pytest.param([(x, 1, 0) for x in range(n + 1)], id=f"finset-{n}") for n in range(5)
]


# Each pair of classes' runs, counted per level-1 map from fibre sizes, are
# the runs of its maps listed one by one: for every pair of class
# representatives (S, R), each summary's multiplicity is the number of
# split maps S → R with it times the sizes of the two classes.
@pytest.mark.parametrize("objects", CLASS_SPACES)
def test_counted_runs_equal_the_listed_runs(objects):
    space = _ArrowSpace(objects)
    members = Counter(space.representatives.values())
    for buckets, split in zip(_split_buckets(space), (_split_monos, _split_epis)):
        counted = Counter()
        for size, runs in buckets.items():
            for (S, R, _, summary), n in runs:
                assert (size, S, R, summary) not in counted, (S, R, summary)
                counted[size, S, R, summary] = n
        listed = Counter()
        for S, j in members.items():
            for R, k in members.items():
                size = sum(S[:2]) + sum(R[:2])
                for f in split(space, S, R):
                    listed[size, S, R, f[3]] += j * k
        assert counted == listed


# The walk of a refused pass reads each object pair (A, B) from the runs of
# its representatives (S, R), each multiplicity divided by |class of
# S|·|class of R|: so every multiplicity is a positive multiple of it.
@pytest.mark.parametrize("objects", CLASS_SPACES)
def test_each_run_divides_evenly_among_the_object_pairs_of_its_classes(objects):
    space = _ArrowSpace(objects)
    members = Counter(space.representatives.values())
    runs = 0
    for buckets in _split_buckets(space):
        for (S, R, _, _), m in chain.from_iterable(buckets.values()):
            per_pair, rest = divmod(m, members[S] * members[R])
            assert per_pair > 0 and rest == 0, (S, R, m)
            runs += 1
    assert runs > 0


def _isomorphic(space, X, Y):
    """Whether some hom X → Y is a bijection on both levels."""
    maps = space.maps
    return X[:2] == Y[:2] and any(
        sorted(maps.values(f0, X[0], Y[0])) == list(range(Y[0]))
        and sorted(maps.values(f1, X[1], Y[1])) == list(range(Y[1]))
        for f0, f1 in space.homs(X, Y)
    )


# The representatives are one per isomorphism class, and the split maps
# from any A to an object B have the summaries of those from A to the
# representative of B, each as often: what lets the sweep list the maps
# once per class of target and count each run once per member.
@pytest.mark.parametrize("bound, classes", [(2, 8), (3, 18)])
def test_split_maps_to_isomorphic_targets_have_equal_runs(bound, classes):
    space = _ArrowSpace(_arrow_objects(bound))
    reps = space.representatives
    distinct = list(dict.fromkeys(reps.values()))
    assert len(distinct) == classes
    for X in space.objects:
        assert reps[X] == next(Y for Y in space.objects if _isomorphic(space, X, Y)), X
    for k, R in enumerate(distinct):
        assert not any(_isomorphic(space, R, S) for S in distinct[k + 1 :]), R
    for A in space.objects:
        for B in space.objects:
            for split, counts in ((_split_monos, space.mono_counts), (_split_epis, space.epi_counts)):
                maps, at_rep = split(space, A, B), split(space, A, reps[B])
                assert Counter(f[3] for f in maps) == Counter(f[3] for f in at_rep), (A, B)
                runs = _runs(A, B, counts(A, reps[B]), 1)
                assert sum(n for _, n in runs) == len(maps), (A, B)
                assert {f[3]: n for f, n in runs} == Counter(f[3] for f in maps), (A, B)


# For an isomorphism ψ : S ≅ A, i ↦ i∘ψ carries the split maps out of A onto
# those out of S, and composing with ψ carries ``top_levels(A, C)`` onto
# ``top_levels(S, C)``: so against every run of the other side, in every
# pass, the maps A → R decide as the maps S → R do, each verdict and count
# as often.  This is what lets the sweep list the maps from the
# representative S of a class of sources only and count each run once per
# member; the summaries themselves differ, as ψ re-indexes A1.
@pytest.mark.parametrize("bound", [2, 3])
def test_split_maps_from_isomorphic_sources_decide_alike(bound):
    space = _ArrowSpace(_arrow_objects(bound))
    reps = space.representatives
    mono_buckets, epi_buckets = _split_buckets(space)
    mono_runs = list(chain.from_iterable(mono_buckets.values()))
    epi_runs = list(chain.from_iterable(epi_buckets.values()))
    classes = set(reps.values())
    assert all(f[0] in classes and f[1] in classes for f, _ in mono_runs + epi_runs)

    def verdicts(maps, others, decide):
        return Counter((j, decide(f, g)) for f in maps for j, (g, _) in enumerate(others))

    sides = (
        (_split_monos, epi_runs, lambda mono, epi: _decide_pair(space, mono, epi)),
        (_split_epis, mono_runs, lambda epi, mono: _decide_pair(space, mono, epi)),
    )
    compared = 0
    for A in space.objects:
        S = reps[A]
        if S == A:
            continue
        for R in dict.fromkeys(reps.values()):
            for split, others, decide in sides:
                from_a = verdicts(split(space, A, R), others, decide)
                assert from_a == verdicts(split(space, S, R), others, decide), (A, S, R)
                compared += from_a.total()
    assert compared == (270 if bound == 2 else 75_033)


@pytest.mark.parametrize("bound", [2, 3])
def test_every_fibre_of_a_split_epi_has_a_full_point_over_it(bound):
    """For a section s of p, S(s1 e) = F(e): the reason ``_decide_pair``
    needs no check over the fibres of u_B outside the image of i1.  And
    conversely a hom with p0 and p1 onto and a full c over every e has a
    section, the test by which ``split_epis`` lists: both directions are
    checked here against the section search."""
    space = _ArrowSpace(_arrow_objects(bound))
    for C in space.objects:
        for D in space.objects:
            onto0, onto1 = space.maps.sections(C[0], D[0]), space.maps.sections(C[1], D[1])
            for p in space.homs(C, D):
                if p[0] in onto0 and p[1] in onto1:
                    full, _ = space.epi_fibres(p, C, D)
                    p1 = space.maps.values(p[1], C[1], D[1])
                    covered = {e for e, f in zip(p1, full) if f} == set(range(D[1]))
                    assert covered == (space.section(p, C, D) is not None), (C, D, p)


@pytest.mark.parametrize("bound", [2, 3])
def test_arrow_homs_match_the_filter_in_order(bound):
    space = _ArrowSpace(_arrow_objects(bound))
    for X in space.objects:
        for Y in space.objects:
            decoded = [_decode_hom(f, X, Y) for f in space.homs(X, Y)]
            assert decoded == filter_arrow_homs(_decode_arrow(X), _decode_arrow(Y)), (X, Y)


# SHA-256 of ``json.dumps(nip_square_filler(space, bound).to_dict(),
# sort_keys=True)``, recorded before the arrow sweep listed its split maps
# once per class of source; ``finset`` at bound 4 is the reference's
# (``filter_nip_finset(4)`` takes about 100 s to replay), and the arrow
# digests at bounds 2 and 3 are those the CI steps check on the CLI.
SWEEP_DIGESTS = {
    ("finset", 0): "1085de8d54126cf6a73efbf475c1011a0d038ba65c0f6d20f76ee4ee9886a1da",
    ("finset", 1): "091d4c449b33494ef12c9ff7a728d2690231ec628e045dd5c354da6b37e75652",
    ("finset", 2): "b8e30d8227a9dcaaf35086b1b3b70019ac8d68ccae28b27db9d8c949f5f24348",
    ("finset", 3): "2ef177f76e519e7dd6d236dcb5827731d5ab3635a08281b169058aa8f229d6e3",
    ("finset", 4): "63c52e5621df6db6ca2467c9910516f8ed311dbe2bdd247b41967361552ccbf0",
    ("finset_arrow", 0): "90fe68928c90b3a690f39eb35e2b4f9c9f906c1b8c48d896f15ebb9bbf77db51",
    ("finset_arrow", 1): "be86fd74065fc7458a008a09280043846db3294d0830514e7ce994dedfd2ce06",
    ("finset_arrow", 2): "0d6e9f70767ad5d97a370ee5a1fcd8152b84d645b5cacbab7b24925b65cfccc1",
    ("finset_arrow", 3): "a4ed891f44ae0d46a1c24aa716da7766814f7b23ecc9499c09b4a48d2bb178c7",
}


@pytest.mark.parametrize("space, bound", list(SWEEP_DIGESTS))
def test_sweep_reproduces_its_recorded_digest(space, bound):
    res = nip_square_filler(space, bound).to_dict()
    digest = hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest()
    assert digest == SWEEP_DIGESTS[space, bound]
