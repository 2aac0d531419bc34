"""The package's lazy attributes: ``core.cached_property`` computes a value
once, keeps it in the instance's ``__dict__`` and keeps nothing when the
computation raises; it works on frozen dataclasses and on relabelled
copies.  No module of the package imports ``functools.cached_property``,
whose first read takes a lock before Python 3.12."""
import ast
from pathlib import Path

import pytest

from fincat.core import builtin, cached_property, chaotic_category, identity_functor
from fincat.equivalence import EquivalenceWitness

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fincat"
MODULES = sorted(PACKAGE.glob("*.py"))


class Lazy:
    def __init__(self, failures=0):
        self.calls, self.failures = 0, failures

    @cached_property
    def value(self):
        """A fresh list per computation."""
        self.calls += 1
        if self.calls <= self.failures:
            raise ValueError(self.calls)
        return [self.calls]


def test_a_value_is_computed_once_and_kept_in_the_instance_dict():
    obj = Lazy()
    assert "value" not in vars(obj)
    first = obj.value
    assert vars(obj)["value"] is first and first == [1]
    assert obj.value is first and obj.calls == 1
    assert isinstance(Lazy.value, cached_property)
    assert Lazy.value.__doc__ == "A fresh list per computation."


def test_a_raising_first_read_keeps_nothing():
    obj = Lazy(failures=2)
    for call in (1, 2):
        with pytest.raises(ValueError, match=str(call)):
            obj.value
        assert "value" not in vars(obj)
    assert obj.value == [3] and obj.value is obj.value and obj.calls == 3


def test_a_frozen_witness_builds_its_structure_once():
    F, builds = identity_functor(builtin("arrow")), []

    def build():
        builds.append(1)
        return F, {b: F.target.id_of(b) for b in F.target.objects}

    w = EquivalenceWitness(F, "injective", build)
    assert "_structure" not in vars(w)
    inverse, unit, counit = w.inverse, w.unit, w.counit
    assert vars(w)["_structure"] == (inverse, unit, counit) and len(builds) == 1
    assert w.inverse is inverse and len(builds) == 1


def test_a_relabelled_copy_shares_what_was_computed():
    C = chaotic_category(3)
    inverse, key = C._inverse, C.key
    copy = C.relabel("copy")
    assert copy._inverse is inverse and copy.key is key
    # what the copy computes first stays its own
    isos = copy.isos
    assert "isos" not in vars(C) and C.isos == isos


def functools_cached_property_imports(source: str) -> list[str]:
    """Each line that imports ``functools.cached_property`` or reads it as
    an attribute of ``functools``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cached_property" for alias in node.names):
                lines.append(f"line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(f"line {node.lineno}")
    return lines


def test_the_scan_sees_an_import_of_functools_cached_property():
    source = (
        "import functools\nfrom functools import cache, cached_property\n"
        "from .core import cached_property\nx = functools.cached_property\n"
    )
    assert functools_cached_property_imports(source) == ["line 2", "line 4"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_module_of_the_package_imports_functools_cached_property(module):
    assert functools_cached_property_imports(module.read_text()) == []
