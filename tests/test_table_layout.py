"""Composition tables are stored by rows, ``rows[g][f] = g∘f``, and
``comp`` is a read-only ``(g, f)`` view of them.  These tests check that
no category keeps a table keyed by (g, f) once it is validated, keyed and
filled, that relabelled copies share their rows, and that on the corpus,
the builtins and every tuple category of the golden tests the view, the
serialization and ``==`` agree with ``helpers.reference_table``, a table
keyed by (g, f) as categories stored it before."""
import random

import pytest

from fincat import funcat
from fincat.core import FinCat, builtin, validate_category
from fincat.corpus import BUILTIN_NAMES, corpus_categories
from fincat.funcat import functor_category, product_category
from helpers import pair_keyed_dicts, reference_table, relabeled
from test_key_differential import tuple_categories
from test_tuple_golden import CONSTRUCTIONS


def test_a_validated_and_keyed_raw_table_holds_no_pair_keyed_dict():
    raw = relabeled(builtin("chaotic(5)"), random.Random(3)).to_dict()
    cat = validate_category(raw)
    cat.digest
    assert cat.rows and pair_keyed_dicts(cat) == []
    copy = cat.relabel("copy")
    assert copy.rows is cat.rows and copy.comp is cat.comp


@pytest.mark.parametrize(
    "build",
    [
        lambda: product_category(builtin("arrow"), builtin("chaotic(3)")),
        lambda: functor_category(builtin("arrow"), builtin("chaotic(2)")),
    ],
    ids=["product", "power"],
)
def test_a_filled_tuple_category_holds_no_pair_keyed_dict(build, monkeypatch):
    # a power cached by an earlier test may have its table filled already
    monkeypatch.setattr(funcat, "_CACHE", {})
    cat = build()
    assert "rows" not in vars(cat)
    early = cat.relabel("early")  # copied before the fill
    cat.compose(*next(cat.composable_pairs()))
    validate_category(cat)
    cat.digest
    assert pair_keyed_dicts(cat) == []
    late = cat.relabel("late")
    assert early.rows is cat.rows is late.rows
    assert early.comp is cat.comp is late.comp


def agrees_with_reference(cat: FinCat) -> None:
    ref = reference_table(cat)
    assert dict(cat.comp) == ref and len(cat.comp) == len(ref)
    assert cat.to_dict() == {
        "objects": list(cat.objects),
        "morphisms": [{"name": m.name, "dom": m.dom, "cod": m.cod} for m in cat.morphisms],
        "identity": dict(cat.identity),
        "comp": [{"g": g, "f": f, "gf": gf} for (g, f), gf in sorted(ref.items())],
    }
    same = FinCat(cat.objects, cat.morphisms, cat.identity, ref, label="reference")
    assert cat == same and same == cat
    if cat.n_morphisms > 1:
        (g, f), gf = next(iter(ref.items()))
        other = next(m.name for m in cat.morphisms if m.name != gf)
        changed = FinCat(cat.objects, cat.morphisms, cat.identity, {**ref, (g, f): other})
        assert cat != changed and changed != cat


@pytest.mark.parametrize(
    "cat",
    [
        *corpus_categories(),
        *(builtin(name) for name in BUILTIN_NAMES),
        *(builtin(f"{kind}({n})") for kind in ("discrete", "chaotic") for n in (0, 4)),
    ],
    ids=lambda c: c.label,
)
def test_corpus_and_builtin_tables_agree_with_the_reference(cat):
    agrees_with_reference(cat)


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_tuple_tables_agree_with_the_reference(name):
    cats = list(tuple_categories(CONSTRUCTIONS[name]()))
    assert cats
    for cat in cats:
        agrees_with_reference(cat)
