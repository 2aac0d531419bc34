"""The deterministic test corpus: small categories, a bounded family of
functors between them, towers, and cospans.

Everything here is generated in a fixed order so that downstream reports
and acceptance runs are reproducible bit for bit.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .core import (
    FinCat,
    FinFunctor,
    Morphism,
    builtin,
    builtin_functor,
    enumerate_functors,
    identity_functor,
    thin_category,
    thin_functor,
)
from .funcat import product_category, product_projections

BUILTIN_NAMES = (
    "terminal",
    "two_discrete",
    "discrete(3)",
    "arrow",
    "parallel_pair",
    "free_iso",
    "chaotic(2)",
    "chaotic(3)",
)


def chain_poset(n: int) -> FinCat:
    """The linear order 0 < 1 < … < n-1 as a category."""
    objs = [str(i) for i in range(n)]
    morphisms = [(f"id_{a}", a, a) for a in objs]
    morphisms += [(f"a{i}{j}", str(i), str(j)) for i in range(n) for j in range(i + 1, n)]
    return thin_category(objs, morphisms, f"chain({n})")


def span_category() -> FinCat:
    objs = ["c", "l", "r"]
    morphisms = [(f"id_{a}", a, a) for a in objs] + [("sl", "c", "l"), ("sr", "c", "r")]
    return thin_category(objs, morphisms, "span")


def cospan_category() -> FinCat:
    objs = ["l", "c", "r"]
    morphisms = [(f"id_{a}", a, a) for a in objs] + [("tl", "l", "c"), ("tr", "r", "c")]
    return thin_category(objs, morphisms, "cospan")


def cyclic_group_category(n: int) -> FinCat:
    objs = ["*"]
    morphisms = [Morphism(f"g{k}", "*", "*") for k in range(n)]
    rows = {f"g{i}": {f"g{j}": f"g{(i + j) % n}" for j in range(n)} for i in range(n)}
    return FinCat(objs, morphisms, {"*": "g0"}, label=f"cyclic({n})", rows=rows)


@lru_cache(maxsize=1)
def corpus_categories() -> tuple[FinCat, ...]:
    """All builtin categories plus six generated ones (≤ 6 objects and
    ≤ 24 morphisms each)."""
    cats = [builtin(name) for name in BUILTIN_NAMES]
    cats += [chain_poset(3), span_category(), cospan_category(), cyclic_group_category(2)]
    cats.append(product_category(builtin("arrow"), builtin("arrow")).relabel("square"))
    cats.append(product_category(builtin("free_iso"), builtin("arrow")).relabel("iso_arrow"))
    return tuple(cats)


def corpus_category(label: str) -> FinCat:
    for cat in corpus_categories():
        if cat.label == label:
            return cat
    raise KeyError(label)


def to_terminal_functor(cat: FinCat) -> FinFunctor:
    return thin_functor(cat, builtin("terminal"), {a: "*" for a in cat.objects}, f"{cat.label}->1")


def chaotic_collapse() -> FinFunctor:
    """chaotic(3) → chaotic(2) sending object 2 to 0."""
    c3, c2 = builtin("chaotic(3)"), builtin("chaotic(2)")
    return thin_functor(c3, c2, {"0": "0", "1": "1", "2": "0"}, "collapse32")


def iso_inclusion_into_chaotic() -> FinFunctor:
    iso, c2 = builtin("free_iso"), builtin("chaotic(2)")
    return thin_functor(iso, c2, {"0": "0", "1": "1"}, "iso_into_chaotic")


# The most functors sampled per ordered pair of categories; the cospans kept.
SAMPLES_PER_PAIR = 3
COSPANS_NORMAL_LEFT = 48


def _sample_pair_functors(src: FinCat, dst: FinCat):
    """A deterministic spread of functors src → dst: first, middle, last of
    a bounded enumeration."""
    found = list(islice(enumerate_functors(src, dst), 96))
    if not found:
        return []
    picks = sorted({0, len(found) // 2, len(found) - 1})
    sample = [found[i] for i in picks][:SAMPLES_PER_PAIR]
    for k, F in enumerate(sample):
        F.label = f"{src.label}->{dst.label}#{k}"
    return sample


@lru_cache(maxsize=1)
def corpus_functors() -> tuple[FinFunctor, ...]:
    """Identities, named structural maps, and a deterministic sample of
    functors between every pair of corpus categories."""
    cats = corpus_categories()
    out: list[FinFunctor] = []
    for cat in cats:
        out.append(identity_functor(cat))
    for name in (
        "point_to_iso",
        "discrete_to_arrow",
        "collapse_parallel",
        "point_to_arrow_0",
        "point_to_arrow_1",
    ):
        out.append(builtin_functor(name))
    out.append(chaotic_collapse())
    out.append(iso_inclusion_into_chaotic())
    for cat in cats:
        if cat.label != "terminal":
            out.append(to_terminal_functor(cat))
    for src in cats:
        for dst in cats:
            if src.label == dst.label:
                continue
            out.extend(_sample_pair_functors(src, dst))
    # dedupe while preserving order
    seen, unique = set(), []
    for F in out:
        if F.key not in seen:
            seen.add(F.key)
            unique.append(F)
    return tuple(unique)


@lru_cache(maxsize=1)
def corpus_normal_isofibrations() -> tuple[FinFunctor, ...]:
    return tuple(F for F in corpus_functors() if F.fibration.normal)


@lru_cache(maxsize=1)
def corpus_non_isofibrations() -> tuple[FinFunctor, ...]:
    return tuple(F for F in corpus_functors() if not F.fibration.normal)


@lru_cache(maxsize=1)
def corpus_injective_equivalences() -> tuple[FinFunctor, ...]:
    return tuple(F for F in corpus_functors() if F.equivalence.has_retraction)


@lru_cache(maxsize=1)
def corpus_towers() -> tuple[tuple[FinCat, tuple[FinFunctor, ...]], ...]:
    """Towers of normal isofibrations, lengths 0 through 4."""
    one = builtin("terminal")
    c2, c3 = builtin("chaotic(2)"), builtin("chaotic(3)")
    two = builtin("arrow")
    square = corpus_category("square")
    proj1, _ = product_projections(square)
    iso = builtin("free_iso")
    towers = (
        (c2, ()),
        (one, (to_terminal_functor(c2),)),
        (iso, (identity_functor(iso), identity_functor(iso))),
        (one, (to_terminal_functor(c2), chaotic_collapse())),
        (one, (to_terminal_functor(two), proj1, identity_functor(square))),
        (
            one,
            (
                to_terminal_functor(c2),
                chaotic_collapse(),
                identity_functor(c3),
                identity_functor(c3),
            ),
        ),
    )
    return towers


@lru_cache(maxsize=1)
def corpus_cospans_normal_left() -> tuple[tuple[FinFunctor, FinFunctor], ...]:
    """The first ``COSPANS_NORMAL_LEFT`` cospans (f, g) with f a normal
    isofibration and cod f = cod g."""
    normals = corpus_normal_isofibrations()
    everything = corpus_functors()
    out = []
    for f in normals:
        for g in everything:
            if g.target == f.target:
                out.append((f, g))
                if len(out) >= COSPANS_NORMAL_LEFT:
                    return tuple(out)
    return tuple(out)
