"""Full faithfulness read off hom sizes, and the comparison w : A^I → L
built in one pass, against the references in ``tests/helpers.py``, which
compare the images of each hom with the target hom as sets and pair
evaluation at 1 with the postcomposite f^I: the same verdict, reason and
locus, and the same object map, morphism map and label, in the same key
order, on every corpus functor."""
from fincat.core import FinFunctor, builtin, builtin_functor, discrete_category
from fincat.corpus import corpus_functors, cyclic_group_category
from fincat.equivalence import _not_ff
from fincat.limits import pseudolimit_of_arrow
from helpers import not_ff_reference, power_comparison_reference


def outcome(result):
    return None if result is None else (result.functor, result.reason, result.locus)


def test_fullness_by_hom_sizes_agrees_with_comparing_image_sets_on_the_corpus():
    functors = corpus_functors()
    verdicts = [outcome(_not_ff(F)) for F in functors]
    assert verdicts == [outcome(not_ff_reference(F)) for F in functors]
    assert len(functors) == 502
    assert {v and v[1] for v in verdicts} == {None, "not faithful", "not full"}


def test_fullness_by_hom_sizes_on_hand_built_functors():
    """Each case with its first failing pair of objects, or None."""
    arrow, chaotic2, free_iso = builtin("arrow"), builtin("chaotic(2)"), builtin("free_iso")
    parallel, terminal, two = builtin("parallel_pair"), builtin("terminal"), discrete_category(2)
    cyclic3 = cyclic_group_category(3)
    (e,) = cyclic3.objects
    e_id = cyclic3.id_of(e)
    to_point = {m.name: "id_*" for m in chaotic2.morphisms}
    same = {"0": "0", "1": "1"}
    ids = {"id_0": "id_0", "id_1": "id_1"}
    chaotic_ids = {"id_0": "u0_0", "id_1": "u1_1"}
    cases = [
        # a0 and a1 both go to a
        (builtin_functor("collapse_parallel"), ("not faithful", ("0", "1"))),
        # not faithful at (0, 1) comes before not full at (1, 0)
        (
            FinFunctor(parallel, chaotic2, same, {**chaotic_ids, "a0": "u0_1", "a1": "u0_1"}),
            ("not faithful", ("0", "1")),
        ),
        # an empty hom sent to a non-empty one
        (FinFunctor(two, arrow, same, ids), ("not full", ("0", "1"))),
        (FinFunctor(two, chaotic2, same, chaotic_ids), ("not full", ("0", "1"))),
        # one of two parallel arrows
        (FinFunctor(arrow, parallel, same, {**ids, "a": "a0"}), ("not full", ("0", "1"))),
        # the identity alone of a group of order 3
        (FinFunctor(terminal, cyclic3, {"*": e}, {"id_*": e_id}), ("not full", ("*", "*"))),
        (FinFunctor(free_iso, chaotic2, same, {**chaotic_ids, "to": "u0_1", "fro": "u1_0"}), None),
        (FinFunctor(chaotic2, terminal, {"0": "*", "1": "*"}, to_point), None),
    ]
    for F, expected in cases:
        result = outcome(_not_ff(F))
        assert result == outcome(not_ff_reference(F)), F.label
        assert (result and result[1:]) == expected, F.label


def test_the_comparison_in_one_pass_equals_evaluation_at_1_paired_with_f_iso_on_the_corpus():
    for f in corpus_functors():
        pl = pseudolimit_of_arrow(f)
        w, ref = pl.power_comparison, power_comparison_reference(pl)
        assert list(w.omap.items()) == list(ref.omap.items()), f.label
        assert list(w.mmap.items()) == list(ref.mmap.items()), f.label
        assert (w.source, w.target, w.label) == (ref.source, ref.target, ref.label), f.label
