"""``FinCat.key`` writes the canonical JSON of ``to_dict()`` directly, by
rows in name order.  These tests compare it byte for byte with the
reference ``helpers.canonical_key``, which dumps ``to_dict()``: on the
corpus and builtins, on every tuple category of the golden tests before
and after its composition table is filled, on relabelled chaotic(n) and
chain(n), and on names that JSON must escape or whose order a prefix
decides."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fincat.core import FinCat, Morphism, TupleCat, builtin, chaotic_category
from fincat.corpus import BUILTIN_NAMES, chain_poset, corpus_categories
from helpers import canonical_key, relabeled
from test_tuple_golden import CONSTRUCTIONS


@pytest.mark.parametrize(
    "cat",
    [
        *corpus_categories(),
        *(builtin(name) for name in BUILTIN_NAMES),
        *(builtin(f"{kind}({n})") for kind in ("discrete", "chaotic") for n in (0, 4)),
    ],
    ids=lambda c: c.label,
)
def test_corpus_and_builtins(cat):
    assert cat.key == canonical_key(cat)


def tuple_categories(values):
    """The tuple categories among ``values`` and the ends of the functors
    there, each once."""
    seen = set()
    for v in values:
        for cat in (v,) if isinstance(v, FinCat) else (v.source, v.target):
            if isinstance(cat, TupleCat) and id(cat) not in seen:
                seen.add(id(cat))
                yield cat


def unfilled(cat: TupleCat) -> TupleCat:
    """A new tuple category with ``cat``'s parts and no composite yet."""
    return TupleCat(
        cat.factors,
        cat.obj_parts.items(),
        [(m.name, m.dom, m.cod, cat.mor_parts[m.name]) for m in cat.morphisms],
        cat.label,
    )


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_tuple_categories_before_and_after_their_table_is_filled(name):
    cats = list(tuple_categories(CONSTRUCTIONS[name]()))
    assert cats
    for cat in cats:
        fresh = unfilled(cat)
        assert "comp" not in vars(fresh)
        before = fresh.key
        cat.comp
        assert before == cat.key == canonical_key(cat) == canonical_key(fresh)


@pytest.mark.parametrize("family", [chaotic_category, chain_poset], ids=["chaotic", "chain"])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_relabeled_chaotic_and_chain(family, n):
    for seed in range(3):
        cat = relabeled(family(n), random.Random(seed))
        assert cat.key == canonical_key(cat)


# names JSON must escape (quotes, backslashes, control characters, non-ASCII
# up to astral planes) and names one of which is a prefix of another, so
# that their order is decided by the character after the prefix
ODD_NAMES = ["a", "a,", "ab", 'a"', "a\\", "a\x00", "a\x1f", "aé", "a😀", "", " ", " "]
names = st.one_of(st.sampled_from(ODD_NAMES), st.text(max_size=4))


@st.composite
def chaotic_with_odd_names(draw):
    """chaotic(n) for n ≤ 3 with drawn object and morphism names, the
    morphisms stored in a drawn order."""
    n = draw(st.integers(0, 3))
    objects = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(names, min_size=n * n, max_size=n * n, unique=True))
    pairs = [(a, b) for a in objects for b in objects]
    name = dict(zip(pairs, labels))
    morphisms = [Morphism(name[a, b], a, b) for a, b in draw(st.permutations(pairs))]
    comp = {(name[b, c], name[a, b]): name[a, c] for a, b in pairs for c in objects}
    return FinCat(objects, morphisms, {a: name[a, a] for a in objects}, comp)


@settings(deadline=None, max_examples=300)
@given(chaotic_with_odd_names())
def test_names_that_need_escaping_or_share_a_prefix(cat):
    assert cat.key == canonical_key(cat)
