"""Each row of ``envelopes.json``, its argv run in process through
``fincat.cli.main`` beside the generated inputs and ``sample_data``, makes
exactly the recorded row; ``record_envelopes.py`` re-records the table."""
import json

import pytest
from click.testing import CliRunner

from fincat import funcat
from fincat.cli import main
from fincat.core import builtin
from helpers import ENVELOPES, envelope_row, write_envelope_inputs

ROWS = json.loads(ENVELOPES.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("envelopes")
    write_envelope_inputs(directory)
    return directory


def run(argv, directory, monkeypatch):
    """Run ``fincat argv`` in ``directory`` with an empty power cache, as a
    fresh process does."""
    monkeypatch.chdir(directory)
    monkeypatch.setattr(funcat, "_CACHE", {})
    return CliRunner().invoke(main, argv, catch_exceptions=False)


def check_row(row, directory, monkeypatch):
    res = run(row["argv"], directory, monkeypatch)
    assert envelope_row(row["argv"], res.exit_code, res.stdout, res.stderr) == row


@pytest.mark.parametrize("row", ROWS, ids=lambda row: " ".join(row["argv"]))
def test_the_run_makes_the_recorded_row(row, inputs, monkeypatch):
    check_row(row, inputs, monkeypatch)


def _off(argv, key, change):
    row = next(row for row in ROWS if row["argv"] == argv)
    return pytest.param({**row, key: change(row[key])}, id=f"{key} off")


@pytest.mark.parametrize(
    "row",
    [
        _off(["validate", "sample_data/arrow.json"], "sha256", lambda digest: digest[::-1]),
        _off(["validate", "sample_data/arrow.json"], "exit", lambda code: 1),
        _off(["validate", "partial_arrow.json"], "refusal", lambda r: r | {"detail": "arrow"}),
    ],
)
def test_a_row_that_is_off_is_refused(row, inputs, monkeypatch):
    with pytest.raises(AssertionError):
        check_row(row, inputs, monkeypatch)


def test_the_recorded_parts_of_three_limits(inputs, monkeypatch):
    """Parts of three rows' results, each pinned before its whole result:
    the pseudolimit's apex is a pullback of a power, the longest corpus
    tower's limit agrees with the strict oracle, and the cell of the
    pseudolimit of the identity of chaotic(2) is not an identity."""
    def result(*argv):
        return json.loads(run(argv, inputs, monkeypatch).stdout)["result"]

    pseudolimit = result("limit", "pseudolimit", "--f", "sample_data/arrow_to_terminal.json")
    assert pseudolimit["apex_summary"] == {
        "digest": "8410b8a2f4438029860030c2986e7213e7c13332bf30857a178c2cb46db81b83",
        "label": "pb(arrow_to_terminal,ev_1)", "morphisms": 3, "objects": 2,
    }
    tower = result("limit", "tower", "--tower", "longest_tower.json")
    vertices = ["terminal", "arrow"]
    assert tower["certificate"] == {
        "kind": "tower", "cones_checked": 12, "ok": True, "failures": [], "vertices": vertices
    }
    assert tower["strict_oracle_agrees"] is True
    digest = "f56750c9ff04c03634b181e854d99c5d492610e2938a33afab089150ef2f4fc5"
    assert tower["apex_summary"]["digest"] == digest
    cell = result("limit", "pseudolimit", "--f", "id_chaotic2.json")["cell"]
    assert not all(builtin("chaotic(2)").is_identity(m) for m in cell.values())
