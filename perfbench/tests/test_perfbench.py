"""Tests of the benchmark itself: seeded inputs, known answers, and the
tracer's accounting.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT / "tests")]

import items  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from helpers import brute_force_functors  # noqa: E402
from tracer import Tracer  # noqa: E402

from fincat import corpus  # noqa: E402
from fincat.core import FinCat, FinFunctor  # noqa: E402

# items whose verdict takes seconds; the seed tests leave them out
HEAVY = ("fy_family(4,4)", "fy_family(4,3)", "tower:5")


def light(round_items):
    return [
        it
        for it in round_items
        if it.key not in HEAVY and not (it.key.startswith("validate:") and it.expect.get("objects", 0) > 16)
    ]


def verdict(item, result):
    """The part of a result that must not depend on the seed."""
    if item.kind == "count":
        return result
    if item.kind == "iso":
        return result is not None
    if item.kind == "nip":
        return (result.all_fill, result.squares_checked)
    if item.kind == "cli":
        code, out, _ = result
        if code == 2:
            return code
        body = json.loads(out.strip().splitlines()[-1])["result"]
        cert = body.get("certificate", {})
        return code, cert.get("cones_checked"), body.get("apex_summary", {}).get("morphisms")
    if item.kind == "wfs":
        return fac_size(result[0])
    if item.kind == "wf":
        return result.biconditionals
    return result.passed


def describe(round_items) -> bytes:
    """The generated inputs of a round as canonical bytes."""

    def plain(arg):
        if isinstance(arg, FinCat):
            return arg.to_dict()
        if isinstance(arg, FinFunctor):
            return items.functor_node(arg)
        if isinstance(arg, str) and arg.endswith(".json"):
            return {"file": Path(arg).name, "bytes": Path(arg).read_text()}
        return arg

    return json.dumps(
        [[it.key, it.kind, [plain(a) for a in it.args], it.expect] for it in round_items],
        sort_keys=True,
    ).encode()


def fac_size(fac):
    return fac.pseudolimit.apex.n_objects, fac.pseudolimit.apex.n_morphisms


@pytest.mark.parametrize("workload", sorted(items.ROUNDS))
def test_one_seed_gives_the_same_inputs(workload, tmp_path):
    first = describe(items.ROUNDS[workload](7, tmp_path / "a"))
    second = describe(items.ROUNDS[workload](7, tmp_path / "b"))
    assert first == second


@pytest.mark.parametrize("workload", ("search", "certify"))
def test_another_seed_gives_other_inputs_with_the_same_verdicts(workload, tmp_path):
    a = items.ROUNDS[workload](1, tmp_path / "a")
    b = items.ROUNDS[workload](2, tmp_path / "b")
    assert describe(a) != describe(b)
    first = {it.key: it for it in light(a)}
    shared = [it for it in light(b) if it.key in first]
    assert len(shared) >= 10
    for it in shared:
        mine, theirs = items.run(it), items.run(first[it.key])
        assert items.check(it, mine) == [] and items.check(first[it.key], theirs) == []
        assert verdict(it, mine) == verdict(first[it.key], theirs), it.key


def test_sweep_seed_only_reorders(tmp_path):
    a = items.ROUNDS["sweep"](1, tmp_path)
    b = items.ROUNDS["sweep"](2, tmp_path)
    assert [it.key for it in a] != [it.key for it in b]
    assert sorted(it.key for it in a) == sorted(it.key for it in b)


def test_recorded_counts_match_the_brute_force_oracle():
    cats = {C.label: C for C in corpus.corpus_categories()}
    answers = items.known_answers()["search"]
    keys = sorted(k for k in answers if k.startswith("count:"))[::9]
    for key in keys:
        a, b = key[len("count:"):].split("|")
        assert len(brute_force_functors(cats[a], cats[b])) == answers[key]["count"], key


def test_validate_sizes_span_10_to_30(tmp_path):
    keys = [it.key for it in items.ROUNDS["certify"](5, tmp_path) if it.key.startswith("validate:")]
    for family in ("chaotic", "chain"):
        assert f"validate:{family}(10)" in keys and f"validate:{family}(30)" in keys


def test_a_wrong_expected_answer_raises_the_fail_ratio(tmp_path):
    round_items = [it for it in items.ROUNDS["search"](3, tmp_path) if it.kind in ("count", "iso")]
    latencies, failures = worker.run_items(items, round_items)
    assert failures == []
    wrong = next(it for it in round_items if it.kind == "count")
    wrong.expect = {"count": wrong.expect["count"] + 1}
    latencies, failures = worker.run_items(items, round_items)
    metrics, extra = run.end_to_end(
        [{"keys": [it.key for it in round_items], "setup_s": 0.1, "latencies": latencies, "failures": failures, "peak_rss_mb": 1.0}]
    )
    assert metrics["fail_ratio"][0] > 0
    assert [f["item"] for f in failures] == [wrong.key]


def test_a_raised_error_counts_as_a_failure(tmp_path):
    bad = items.Item("count:bad", "count", (None, None), {"count": 1})
    latencies, failures = worker.run_items(items, [bad])
    assert len(latencies) == 1 and failures[0]["wrong"][0].startswith("raised")


@pytest.fixture()
def traced(tmp_path):
    round_items = [
        it for it in items.ROUNDS["search"](4, tmp_path) if it.kind in ("count", "iso", "wf")
    ][:30]
    round_items += [it for it in items.ROUNDS["certify"](4, tmp_path) if it.key.startswith(("sample:", "nerve:"))]
    tracer = Tracer()
    tracer.install(extra_modules=[items])
    tracer.active = False
    try:
        _, failures = worker.run_items(items, round_items, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracer


def test_span_self_time_plus_child_time_is_its_total(traced):
    n = len(traced.span_ids)
    assert n > 1000
    child = {}
    for k in range(n):
        parent = traced.span_parents[k]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + traced.span_end[k] - traced.span_start[k]
    for k in range(n):
        total = traced.span_end[k] - traced.span_start[k]
        assert traced.span_self[k] + child.get(traced.span_ids[k], 0.0) == pytest.approx(total, abs=1e-9)
        assert traced.span_self[k] >= -1e-9


def test_tracer_sees_calls_made_through_imported_names(traced):
    stats = traced.stats
    # corpus, cosmos and equivalence import enumerate_functors by name
    assert stats["core.enumerate_functors"].calls > 0 and stats["core.enumerate_functors"].yields > 0
    assert stats["cli.main"].calls > 0 and stats["serialize.load_json"].calls > 0
    assert stats["core.FinFunctor.init"].calls > stats["core.enumerate_functors"].calls
    # find_isomorphism's own search shows as a child span
    assert stats["core.enumerate_isomorphisms"].calls >= stats["core.find_isomorphism"].calls > 0


def test_uninstall_restores_every_binding():
    from fincat import core, corpus as corpus_module, cosmos

    before = (core.enumerate_functors, corpus_module.enumerate_functors, cosmos.enumerate_functors, core.FinCat.__eq__)
    tracer = Tracer()
    tracer.install(extra_modules=[items])
    assert corpus_module.enumerate_functors is core.enumerate_functors is not before[0]
    tracer.uninstall()
    after = (core.enumerate_functors, corpus_module.enumerate_functors, cosmos.enumerate_functors, core.FinCat.__eq__)
    assert after == before


def test_every_per_layer_metric_is_reported_and_mapped():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    fake = {
        "latencies": [1.0],
        "trace": {"stats": {}, "layer_s": {}, "cones_checked": 0, "squares_checked": 0},
    }
    assert set(run.per_layer(names, [fake], [fake])) == set(names)
    moves = json.loads((BENCH / "layers.json").read_text())
    assert set(moves) == set(names)


def test_the_tail_counts_each_distinct_item_once():
    best = [float(k) for k in range(1, 21)]
    executions = best * 5
    value, percentile, count = run.tail(best, executions)
    assert (value, count) == (10.0, 20)
    assert sum(x > value for x in best) == run.TAIL_BEYOND
    assert percentile == pytest.approx(50.0)


def test_few_distinct_items_take_the_tail_over_all_executions():
    best = [1.0, 2.0, 3.0]
    executions = [1.0, 2.0, 3.0, 1.1, 2.1, 3.1, 1.2, 2.2, 3.2, 1.3, 2.3, 3.3]
    value, _, count = run.tail(best, executions)
    assert (value, count) == (1.1, 12)
