import pytest

from fincat.core import BoundExceeded, FinCat, bounded, builtin, find_isomorphism
from fincat.corpus import corpus_categories
from fincat.funcat import product_category
from fincat.nerve import (
    TruncSSet,
    check_powers_iso,
    classifying_category,
    nerve_truncated,
    rewrite_system,
    sset_from_dict,
    sset_product,
    standard_simplex,
    truncated_sset_maps,
    validate_sset,
)
from helpers import check_rewrite_system, classifying_functor, coskeletal_filler_check, dim_count


def free_loop_sset() -> TruncSSet:
    """One vertex, one nondegenerate loop, no nondegenerate 2-simplices."""
    v, e = "v", "e"
    sv = "s0v"
    A, B, C = "s0e", "s1e", "s0s0v"
    P, Q, R, T = "s1s0e", "s2s0e", "s2s1e", "s2s1s0v"
    simplices = ((v,), (e, sv), (A, B, C), (P, Q, R, T))
    faces = {
        (1, 0): {e: v, sv: v},
        (1, 1): {e: v, sv: v},
        (2, 0): {A: e, B: sv, C: sv},
        (2, 1): {A: e, B: e, C: sv},
        (2, 2): {A: sv, B: e, C: sv},
        (3, 0): {P: A, Q: B, R: C, T: C},
        (3, 1): {P: A, Q: B, R: B, T: C},
        (3, 2): {P: A, Q: A, R: B, T: C},
        (3, 3): {P: C, Q: A, R: B, T: C},
    }
    degeneracies = {
        (0, 0): {v: sv},
        (1, 0): {e: A, sv: C},
        (1, 1): {e: B, sv: C},
        (2, 0): {A: P, B: Q, C: T},
        (2, 1): {A: P, B: R, C: T},
        (2, 2): {A: Q, B: R, C: T},
    }
    return TruncSSet(simplices, faces, degeneracies, label="loop")


def test_standard_simplices_validate():
    for k in range(3):
        validate_sset(standard_simplex(k))


def test_products_validate():
    X = sset_product(standard_simplex(1), standard_simplex(1))
    validate_sset(X)
    assert dim_count(X, 0) == 4


def test_nerves_of_corpus_categories_validate():
    """The nerve of every corpus category is a valid simplicial set, and
    both sides of each relation its classifying category is computed from
    run between the same endpoints."""
    for C in corpus_categories():
        N = validate_sset(nerve_truncated(C))
        check_rewrite_system(rewrite_system(N))


def test_nerve_of_terminal_is_a_point():
    N = nerve_truncated(builtin("terminal"))
    assert all(dim_count(N, d) == 1 for d in range(4))
    assert N.nondegenerate(1) == ()


def test_nerve_of_arrow_nondegenerate_counts():
    N = nerve_truncated(builtin("arrow"))
    assert len(N.simplices[0]) == 2
    assert N.nondegenerate(1) == ("(a)",)
    assert N.nondegenerate(2) == ()
    assert N.nondegenerate(3) == ()


def test_nerve_of_free_iso_nondegenerate_counts():
    iso = builtin("free_iso")
    N = nerve_truncated(iso)
    # independent count of nondegenerate chains: pairs of non-identities
    chains = [
        (f.name, g.name)
        for f in iso.morphisms
        for g in iso.morphisms
        if f.cod == g.dom
        and not iso.is_identity(f.name)
        and not iso.is_identity(g.name)
    ]
    assert len(chains) == 2  # (to, fro) and (fro, to)
    assert len(N.nondegenerate(1)) == 2
    assert len(N.nondegenerate(2)) == 2


def test_nerves_are_coskeletal():
    for name in ["terminal", "arrow", "free_iso", "parallel_pair", "chaotic(2)"]:
        assert coskeletal_filler_check(nerve_truncated(builtin(name)))


def test_classifying_of_interval_is_arrow():
    P = classifying_category(standard_simplex(1))
    assert find_isomorphism(P, builtin("arrow")) is not None


def test_classifying_of_point_is_terminal():
    P = classifying_category(standard_simplex(0))
    assert P.n_objects == 1 and P.n_morphisms == 1


def test_classifying_nerve_roundtrip_samples():
    for name in ["terminal", "arrow", "free_iso", "parallel_pair", "chaotic(2)", "chain(3)"]:
        C = (
            builtin(name)
            if "(" not in name or name.startswith(("chaotic", "discrete"))
            else None
        )
        if C is None:
            from fincat.corpus import corpus_category

            C = corpus_category(name)
        P = classifying_category(nerve_truncated(C))
        assert find_isomorphism(P, C) is not None, name


def test_free_loop_raises_bound_exceeded():
    X = validate_sset(free_loop_sset())
    with pytest.raises(BoundExceeded), bounded(word=4):
        classifying_category(X)


def test_classifying_preserves_binary_products():
    for a, b in [("arrow", "arrow"), ("arrow", "free_iso")]:
        A, B = builtin(a), builtin(b)
        X = sset_product(nerve_truncated(A), nerve_truncated(B))
        P = classifying_category(X)
        prod = product_category(A, B)
        assert find_isomorphism(P, prod) is not None


def test_classifying_functor_of_mono_is_injective_on_objects():
    d0, d1 = standard_simplex(0), standard_simplex(1)
    maps = truncated_sset_maps(d0, d1)
    monos = [
        m
        for m in maps
        if len({v for (dim, _), v in m.items() if dim == 0}) == dim_count(d0, 0)
    ]
    assert monos
    for m in monos:
        F = classifying_functor(m, d0, d1)
        assert F.injective_on_objects()

    niso = nerve_truncated(builtin("free_iso"))
    interval_maps = truncated_sset_maps(d1, niso)
    levelwise_injective = [
        m
        for m in interval_maps
        if all(
            len({v for (dim, s), v in m.items() if dim == d})
            == len({s for (dim, s) in m if dim == d})
            for d in range(4)
        )
    ]
    assert levelwise_injective
    for m in levelwise_injective:
        F = classifying_functor(m, d1, niso)
        assert F.injective_on_objects()


def test_classifying_functor_reads_an_edge_named_with_a_dot():
    data = standard_simplex(1).to_dict()

    def rename(s):
        return "0·1" if s == "01" else s

    data["simplices"] = [[rename(s) for s in level] for level in data["simplices"]]
    for kind in ("faces", "degeneracies"):
        data[kind] = {
            key: {rename(s): rename(t) for s, t in table.items()}
            for key, table in data[kind].items()
        }
    X = validate_sset(sset_from_dict(data))
    identity = {(dim, s): s for dim, level in enumerate(X.simplices) for s in level}
    F = classifying_functor(identity, X, X)
    assert F.mmap == {"id@0": "id@0", "id@1": "id@1", "[0·1]": "[0·1]"}


def test_powers_comparison_for_point():
    rep = check_powers_iso(standard_simplex(0), builtin("arrow"), dim=2)
    assert rep.ok
    # the hom out of a point is the nerve itself
    N = nerve_truncated(builtin("arrow"))
    assert rep.left_counts == tuple(dim_count(N, d) for d in range(3))


def test_powers_comparison_interval_against_arrow():
    rep = check_powers_iso(standard_simplex(1), builtin("arrow"), dim=2)
    assert rep.ok


def test_powers_comparison_free_iso_nerve_against_arrow():
    rep = check_powers_iso(nerve_truncated(builtin("free_iso")), builtin("arrow"), dim=2)
    assert rep.ok


def test_rewrite_system_of_free_iso_nerve():
    from fincat.nerve import rewrite_system

    rs = rewrite_system(nerve_truncated(builtin("free_iso")))
    assert len(rs.generators) == 2
    # the two composable pairs of non-identities reduce to empty words
    assert sorted(r[1:] for r in rs.relations) == [
        (("(fro)", "(to)"), ()),
        (("(to)", "(fro)"), ()),
    ]
    check_rewrite_system(rs)


def test_rewrite_system_endpoint_check_rejects_bad_relation():
    import pytest as _pytest

    from fincat.core import StructureError
    from fincat.nerve import RewriteSystem

    broken = RewriteSystem(
        generators=("e",),
        relations=(("v", ("e",), ()),),
        bound=4,
        endpoints={"e": ("v", "w")},
    )
    with _pytest.raises(StructureError):
        check_rewrite_system(broken)


def test_sset_roundtrip_serialization():
    X = nerve_truncated(builtin("arrow"))
    again = validate_sset(sset_from_dict(X.to_dict()))
    assert again.simplices == X.simplices
    assert again.faces == X.faces


def retract_without_its_idempotent() -> TruncSSet:
    """The nerve of f : a → b, g : b → a with g∘f = 1_a and e = f∘g, less
    every simplex that has the edge (e) as an iterated face: e is then the
    word (g)·(f) and no shorter edge."""
    mors = [
        ("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b"), ("g", "b", "a"), ("e", "b", "b")
    ]
    comp = {
        ("id_a", "id_a"): "id_a", ("id_a", "g"): "g", ("f", "id_a"): "f", ("f", "g"): "e",
        ("g", "id_b"): "g", ("g", "f"): "id_a", ("g", "e"): "g",
        ("id_b", "id_b"): "id_b", ("id_b", "f"): "f", ("id_b", "e"): "e",
        ("e", "id_b"): "e", ("e", "f"): "f", ("e", "e"): "e",
    }
    N = nerve_truncated(FinCat(["a", "b"], mors, {"a": "id_a", "b": "id_b"}, comp, label="R"))
    dropped = {"(e)"}
    for dim in (2, 3):
        dropped |= {
            s for s in N.simplices[dim] if any(N.face(dim, i, s) in dropped for i in range(dim + 1))
        }

    def keep(tables):
        return {k: {s: t for s, t in tab.items() if s not in dropped} for k, tab in tables.items()}

    simplices = tuple(tuple(s for s in level if s not in dropped) for level in N.simplices)
    return TruncSSet(simplices, keep(N.faces), keep(N.degeneracies), label="R-e")


def test_classifying_category_reports_a_composite_escaping_the_bound():
    X = validate_sset(retract_without_its_idempotent())
    assert [len(level) for level in X.simplices] == [2, 4, 7, 11]
    with pytest.raises(BoundExceeded) as info, bounded(word=3):
        classifying_category(X)
    assert str(info.value) == "composite of [(g)·(f)] and [(g)·(f)] escapes the bound 3"
    with bounded(word=4):
        cat = classifying_category(X)
    assert [m.name for m in cat.morphisms] == ["id@a", "id@b", "[(f)]", "[(g)]", "[(g)·(f)]"]


def test_word_bound_zero_refuses_the_first_generator():
    with pytest.raises(BoundExceeded) as info, bounded(word=0):
        classifying_category(standard_simplex(1))
    assert str(info.value) == "generator 01 is a word longer than the bound 0"
    # with no nondegenerate edge there is no generator to refuse
    for X in (standard_simplex(0), sset_product(standard_simplex(0), standard_simplex(0))):
        with bounded(word=0):
            P = classifying_category(X)
        assert P.n_objects == P.n_morphisms == 1
