"""The shipped sample files stay loadable and the README commands work."""
import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from fincat.cli import main
from fincat.core import _FIXED_BUILTINS, builtin
from fincat.corpus import corpus_functors

SAMPLES = Path(__file__).resolve().parent.parent / "sample_data"


def invoke(args):
    runner = CliRunner()
    prev = os.getcwd()
    os.chdir(SAMPLES)
    try:
        return runner.invoke(main, args, catch_exceptions=False)
    finally:
        os.chdir(prev)


README_COMMANDS = [
    ["validate", "arrow.json"],
    ["classify", "--functor", "cod_iso_power.json"],
    ["factorize", "--functor", "arrow_to_terminal.json"],
    ["lift", "--square", "square.json"],
    ["limit", "pullback", "--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"],
    ["limit", "isocomma", "--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"],
    ["limit", "pseudolimit", "--f", "arrow_to_terminal.json"],
    ["limit", "inserter", "--f", "arrow_identity.json", "--g", "arrow_identity.json"],
    ["limit", "equifier", "--t1", "identity_cell.json", "--t2", "identity_cell.json"],
    ["limit", "split", "--e", "arrow_identity.json"],
    ["limit", "pullback-nif", "--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"],
    ["limit", "tower", "--tower", "tower.json"],
    ["leibniz", "--j", "endpoint_inclusion.json", "--p", "arrow_to_terminal.json"],
    ["wf", "--functor", "arrow_to_terminal.json"],
    ["cosmos-check", "--fragment", "fragment.json"],
    ["classify-sset", "--sset", "interval_sset.json"],
    ["powers-check", "--sset", "interval_sset.json", "--category", "arrow.json"],
    ["nerve", "--category", "arrow.json"],
]


@pytest.mark.parametrize("args", README_COMMANDS)
def test_sample_command_passes(args):
    res = invoke(args)
    assert res.exit_code == 0, res.output
    body = json.loads(res.output.strip().splitlines()[-1])
    assert body["pass"] is True


def test_nonassociative_table_is_refuted():
    # cyclic(3) with g1∘g1 set to g1: the boundary and identity laws hold,
    # so the associativity check is what refutes it
    res = invoke(["validate", "nonassociative.json"])
    assert res.exit_code == 1
    body = json.loads(res.output.strip().splitlines()[-1])
    assert body["pass"] is False
    assert body["result"] == {
        "error": "AssociativityViolation",
        "detail": "comp(g1,comp(g1,g2)) = g1 but comp(comp(g1,g1),g2) = g0",
    }


def test_loop_complex_exceeds_word_bound():
    # the free loop has no 2-simplices, so its classifying category cannot
    # stabilize below any bound
    res = invoke(["classify-sset", "--sset", "loop_sset.json"])
    assert res.exit_code == 2


def test_constructions_are_reproducible_across_fresh_runs():
    import fincat.funcat as funcat
    from fincat.core import builtin, identity_functor
    from fincat.limits import pseudolimit_of_arrow

    def build():
        funcat._CACHE.clear()
        pl = pseudolimit_of_arrow(identity_functor(builtin("free_iso")))
        return pl.apex.key, pl.to_source.key, pl.diagonal.key

    first, second = build(), build()
    assert first == second


FIXED_BUILTINS = ("terminal", "two_discrete", "arrow", "parallel_pair", "free_iso")


def test_shared_builtins_stay_as_built():
    """The fixed builtins are shared by every caller, which is safe only
    while nothing changes a category in place: after the corpus, the
    acceptance suite and the README commands have used them, each still
    equals a fresh build."""
    for name in FIXED_BUILTINS:
        assert builtin(name) is builtin(name)
    # parametrised builtins may be large, so none is kept
    for name in ("chaotic(2)", "discrete(2)"):
        assert builtin(name) is not builtin(name)
    corpus_functors()
    assert invoke(["suite", "acceptance"]).exit_code == 0
    for args in README_COMMANDS:
        assert invoke(args).exit_code == 0, args
    for name in FIXED_BUILTINS:
        shared, fresh = builtin(name), _FIXED_BUILTINS[name]()
        assert shared is not fresh
        assert shared.label == fresh.label
        assert shared.to_dict() == fresh.to_dict()
        assert shared.digest == fresh.digest
