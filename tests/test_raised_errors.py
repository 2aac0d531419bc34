"""Every error class the package defines is one it raises: a subclass of
``FinCatError`` defined under ``src/fincat`` that no ``raise`` there names
belongs to the tests that raise it (``helpers.CleavageNotNormal``)."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fincat"


def unraised_errors(sources: list[str]) -> list[str]:
    """The subclasses of ``FinCatError``, direct or not, defined in the
    sources that no ``raise X`` or ``raise X(…)`` in them names."""
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in nodes
        if isinstance(node, ast.ClassDef)
    }
    errors: set[str] = set()
    grown = {"FinCatError"}
    while grown:
        errors |= grown
        grown = {name for name, parents in bases.items() if parents & errors} - errors
    raised = set()
    for node in nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    return sorted(errors - raised - {"FinCatError"})


def test_the_scan_sees_an_error_class_that_nothing_raises():
    source = (
        "class FinCatError(Exception): pass\n"
        "class Shaped(FinCatError): pass\n"
        "class Bounded(Shaped): pass\n"
        "class Unused(Shaped): pass\n"
        "class Other(Exception): pass\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise Shaped('no')\n"
        "    raise Bounded\n"
    )
    assert unraised_errors([source]) == ["Unused"]


def test_every_error_class_the_package_defines_is_raised_in_the_package():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unraised_errors(sources) == []
