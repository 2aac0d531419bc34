"""Composition tables are stored by rows, ``rows[g][f] = g∘f``, and
``comp`` is a dict ``(g, f) ↦ g∘f`` built from them on first read, for
readers outside the package; nothing in the package reads it.  These tests
check that no category keeps a table keyed by (g, f) once it is validated,
keyed and filled, that relabelled copies share their rows, and that on the
corpus, the builtins and every tuple category of the golden tests ``comp``,
the serialization and ``==`` agree with ``helpers.reference_table``, a
table keyed by (g, f) as categories stored it before."""
import ast
import random
from pathlib import Path

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
    assert copy.rows is cat.rows and "comp" not in vars(cat) and "comp" not in vars(copy)
    assert copy.comp == cat.comp == {(e["g"], e["f"]): e["gf"] for e in raw["comp"]}


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
    assert early.rows is cat.rows is late.rows and "comp" not in vars(cat)
    assert early.comp == cat.comp == late.comp == reference_table(cat)


def agrees_with_reference(cat: FinCat) -> None:
    ref = reference_table(cat)
    assert cat.comp == ref
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


def comp_reads(source: str) -> list[int]:
    """The lines of ``source`` that read an attribute named ``comp``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "comp"
        and isinstance(node.ctx, ast.Load)
    ]


def test_the_scan_sees_a_comp_read():
    assert comp_reads("def comp(self):\n    pass\n\nx = cat.comp[g, f]\ncat.comp = {}\n") == [4]


def test_nothing_in_the_package_reads_comp():
    package = Path(__file__).resolve().parent.parent / "src" / "fincat"
    found = {p.name: comp_reads(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
