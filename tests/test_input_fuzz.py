"""Malformed input never escapes as a traceback, and every refusal is
located.

Each shipped sample file is read by the commands of ``READERS``.  The random
fuzz deletes one key or swaps one value for a value of another type and
requires exit 0, 1 or 2.  The every-node walk mutates each node of each
sample in three ways and requires each refusal to start with the JSON path
of the mutated node or of an ancestor, in Python's words nowhere."""
import copy
import json
import os
import shutil
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from fincat.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "sample_data"

F = "arrow_to_terminal.json"
# each sample file, with the commands that read it and the JSON path at
# which each reads it ("" for a file named on the command line); every
# other file a command reads is an unmutated sample
READERS = {
    "arrow.json": [
        (["validate", "arrow.json"], ""),
        (["nerve", "--category", "arrow.json"], ""),
        (["powers-check", "--sset", "interval_sset.json", "--category", "arrow.json"], ""),
    ],
    "nonassociative.json": [(["validate", "nonassociative.json"], "")],
    "cod_iso_power.json": [(["classify", "--functor", "cod_iso_power.json"], "")],
    F: [
        (["factorize", "--functor", F], ""),
        (["wf", "--functor", F], ""),
        (["limit", "pullback", "--f", F, "--g", F], ""),
        (["limit", "isocomma", "--f", F, "--g", F], ""),
        (["limit", "pseudolimit", "--f", F], ""),
        (["limit", "pullback-nif", "--f", F, "--g", F], ""),
        (["leibniz", "--j", "endpoint_inclusion.json", "--p", F], ""),
        (["limit", "tower", "--tower", "tower.json"], "maps[0]"),
    ],
    "arrow_identity.json": [
        (["limit", "split", "--e", "arrow_identity.json"], ""),
        (["limit", "inserter", "--f", "arrow_identity.json", "--g", "arrow_identity.json"], ""),
    ],
    "endpoint_inclusion.json": [(["leibniz", "--j", "endpoint_inclusion.json", "--p", F], "")],
    "identity_cell.json": [
        (["limit", "equifier", "--t1", "identity_cell.json", "--t2", "identity_cell.json"], "")
    ],
    "square.json": [(["lift", "--square", "square.json"], "")],
    "tower.json": [(["limit", "tower", "--tower", "tower.json"], "")],
    "fragment.json": [(["cosmos-check", "--fragment", "fragment.json"], "")],
    "interval_sset.json": [
        (["classify-sset", "--sset", "interval_sset.json"], ""),
        (["powers-check", "--sset", "interval_sset.json", "--category", "arrow.json"], ""),
    ],
    "loop_sset.json": [(["classify-sset", "--sset", "loop_sset.json"], "")],
}

# (the file mutated, the command run on it)
COMMANDS = [(name, argv) for name, readers in READERS.items() for argv, _ in readers]


def test_every_sample_file_has_a_reader():
    assert sorted(READERS) == sorted(p.name for p in SAMPLES.glob("*.json"))


def _invoke(argv):
    return CliRunner().invoke(main, argv, catch_exceptions=False)


def _in_sample_copy(run):
    """Run ``run(tmp)`` inside a temporary copy of the sample directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for sample in SAMPLES.glob("*.json"):
            shutil.copy(sample, tmp)
        prev = os.getcwd()
        os.chdir(tmp)
        try:
            return run(Path(tmp))
        finally:
            os.chdir(prev)


WRONG_TYPED = [None, True, 7, 1.5, "x", [], {}, [1, {"x": 2}]]


def _mutate(data, draw):
    """Walk down from the root to a random entry, then delete it (a key of
    an object) or replace it by a value of another type."""
    node = data
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        break
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(st.sampled_from([v for v in WRONG_TYPED if type(v) is not type(child)]))


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_mutated_sample_files_end_with_an_exit_code_and_no_traceback(command, data):
    target, argv = command
    doc = json.loads((SAMPLES / target).read_text())
    _mutate(doc, data.draw)

    def run(tmp):
        Path(tmp, target).write_text(json.dumps(doc))
        return _invoke(argv)

    res = _in_sample_copy(run)
    assert res.exit_code in (0, 1, 2), (argv, doc, res.output)
    assert "Traceback" not in res.output, (argv, doc, res.output)


# ---------------------------------------------------------------------------
# The every-node walk

PYTHON_WORDS = (
    "object is not",
    "not subscriptable",
    "not iterable",
    "unhashable",
    "KeyError",
    "list indices",
    "too many values",
    "invalid literal",
)

UNKNOWN = "nowhere"

# the mutations that leave a valid input, (file, path, mutation): a label
# deleted or renamed, and a default taken (the normal maps, no maps, fewer
# objects)
VALID_BY_ACCIDENT = {
    *(
        (name, path, mutation)
        for name, path in [
            *(
                (name, "label")
                for name in (
                    "arrow.json",
                    "nonassociative.json",
                    "cod_iso_power.json",
                    F,
                    "arrow_identity.json",
                    "endpoint_inclusion.json",
                    "identity_cell.json",
                    "fragment.json",
                )
            ),
            ("identity_cell.json", "source.label"),
            ("identity_cell.json", "target.label"),
            *(("square.json", f"{edge}.label") for edge in ("i", "p", "top", "bottom")),
        ]
        for mutation in ("deleted", UNKNOWN)
    ),
    ("fragment.json", "chosen", "deleted"),
    ("fragment.json", "objects[0]", "deleted"),
    ("fragment.json", "objects[1]", "deleted"),
    ("tower.json", "maps", "deleted"),
    ("tower.json", "maps[0]", "deleted"),
}


def _nodes(value, path=()):
    """The path and value of each node below ``value``, visiting the first
    two entries of each list."""
    if isinstance(value, dict):
        entries = value.items()
    elif isinstance(value, list):
        entries = enumerate(value[:2])
    else:
        return
    for key, child in entries:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _text(at, path):
    for key in path:
        if isinstance(key, int):
            at = f"{at}[{key}]"
        else:
            at = f"{at}.{key}" if at else key
    return at


def _mutants(doc):
    """(path, mutation, mutated copy) for the three mutations of each node:
    its value replaced by 17, its entry deleted, and a name replaced by an
    unknown name."""
    for path, value in _nodes(doc):
        for mutation in ("17", "deleted", UNKNOWN):
            if mutation == UNKNOWN and not isinstance(value, str):
                continue
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if mutation == "deleted":
                del parent[path[-1]]
            else:
                parent[path[-1]] = 17 if mutation == "17" else UNKNOWN
            yield path, mutation, mutant


def _is_input(value) -> bool:
    """A category, functor, transformation or simplicial set, or the name of
    a file or builtin that holds one."""
    if isinstance(value, str):
        return value.endswith(".json") or value.startswith("builtin:")
    keys = ("comp", "omap", "components", "simplices")
    return isinstance(value, dict) and any(k in value for k in keys)


def _allowed_prefixes(name, doc, at, path):
    """The paths a refusal of a mutation at ``path`` of the file ``name``
    may start with: the path of the innermost input node that holds it, of
    the mutated node, or of a node between.  The root of a file named on the
    command line has no path; there a whole input's check starts with the
    input's label (a simplicial set's is its file's stem)."""
    inner, node = 0, doc
    for depth, key in enumerate(path):
        node = node[key]
        if _is_input(node):
            inner = depth + 1
    prefixes = [_text(at, path[:k]) for k in range(inner if inner or at else 1, len(path) + 1)]
    if inner == 0 and not at and _is_input(doc):
        prefixes.append(doc.get("label", Path(name).stem))
    return prefixes


def _check_refusal(detail, prefixes):
    assert not any(word in detail for word in PYTHON_WORDS), detail
    assert any(
        detail.startswith(prefix) and detail[len(prefix)] in ":.[ " for prefix in prefixes
    ), (detail, prefixes)


def test_every_node_mutation_is_refused_at_its_path_or_valid_by_accident():
    """Each node of each sample (the first two entries of each list) is
    replaced by 17, deleted, or, if it is a name, renamed to an unknown
    name; each mutated file goes through every command that reads it."""

    def walk(tmp):
        seen_valid = set()
        for name, readers in READERS.items():
            original = (SAMPLES / name).read_text()
            doc = json.loads(original)
            expected = {tuple(argv): _invoke(argv).exit_code for argv, _ in readers}
            for path, mutation, mutant in _mutants(doc):
                (tmp / name).write_text(json.dumps(mutant))
                case = (name, _text("", path), mutation)
                for argv, at in readers:
                    res = _invoke(argv)
                    where = (*case, " ".join(argv))
                    if case in VALID_BY_ACCIDENT:
                        seen_valid.add(case)
                        assert res.exit_code == expected[tuple(argv)], (where, res.output)
                        continue
                    assert res.exit_code == 2, (where, res.output)
                    detail = json.loads(res.output.strip().splitlines()[-1])["detail"]
                    _check_refusal(detail, _allowed_prefixes(name, doc, at, path))
            (tmp / name).write_text(original)
        assert seen_valid == VALID_BY_ACCIDENT

    _in_sample_copy(walk)
