"""Malformed input never escapes as a traceback: each shipped sample file,
with one key deleted or one value swapped for a value of another type,
goes through the CLI in process and must end with exit 0, 1 or 2."""
import json
import os
import shutil
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from fincat.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "sample_data"

# (the file mutated, the command run on it); every other path the command
# names is an unmutated sample
COMMANDS = [
    ("arrow.json", ["validate", "arrow.json"]),
    ("nonassociative.json", ["validate", "nonassociative.json"]),
    ("arrow.json", ["nerve", "--category", "arrow.json"]),
    ("cod_iso_power.json", ["classify", "--functor", "cod_iso_power.json"]),
    ("arrow_to_terminal.json", ["factorize", "--functor", "arrow_to_terminal.json"]),
    ("arrow_to_terminal.json", ["wf", "--functor", "arrow_to_terminal.json"]),
    ("square.json", ["lift", "--square", "square.json"]),
    (
        "arrow_to_terminal.json",
        ["limit", "pullback", "--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"],
    ),
    ("arrow_identity.json", ["limit", "split", "--e", "arrow_identity.json"]),
    (
        "identity_cell.json",
        ["limit", "equifier", "--t1", "identity_cell.json", "--t2", "identity_cell.json"],
    ),
    ("tower.json", ["limit", "tower", "--tower", "tower.json"]),
    (
        "endpoint_inclusion.json",
        ["leibniz", "--j", "endpoint_inclusion.json", "--p", "arrow_to_terminal.json"],
    ),
    ("fragment.json", ["cosmos-check", "--fragment", "fragment.json"]),
    ("interval_sset.json", ["classify-sset", "--sset", "interval_sset.json"]),
]

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
    with tempfile.TemporaryDirectory() as tmp:
        for sample in SAMPLES.glob("*.json"):
            shutil.copy(sample, tmp)
        Path(tmp, target).write_text(json.dumps(doc))
        prev = os.getcwd()
        os.chdir(tmp)
        try:
            res = CliRunner().invoke(main, argv, catch_exceptions=False)
        finally:
            os.chdir(prev)
    assert res.exit_code in (0, 1, 2), (argv, doc, res.output)
    assert "Traceback" not in res.output, (argv, doc, res.output)
