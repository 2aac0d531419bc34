"""The acceptance battery, one test per criterion.

Each test prints its one-line verdict (visible with ``pytest -s`` or on
failure) and asserts the criterion at its exact tolerance: isomorphism,
on-the-nose equality, or exact boolean agreement.  The same checks back the
``fincat suite acceptance`` command.
"""
import hashlib
import json

from fincat.acceptance import (
    criterion_1_wfs_roundtrip,
    criterion_2_lifting_completeness,
    criterion_3_pullback_oracle,
    criterion_4_tower_oracle,
    criterion_5_remark_reproduction,
    criterion_6_nip_dichotomy,
    criterion_7_fy_dichotomy,
    criterion_8_nerve_roundtrip,
    criterion_9_minimality,
    criterion_10_wf_biconditionals,
    run_acceptance,
)
from helpers import criterion_line


def _report(result):
    print(criterion_line(result))
    assert result.passed, result.details


def test_criterion_1_wfs_roundtrip():
    result = criterion_1_wfs_roundtrip()
    _report(result)
    assert result.details["categories"] >= 12
    assert result.duration < 60.0


def test_criterion_2_lifting_completeness():
    result = criterion_2_lifting_completeness()
    _report(result)
    assert result.details["squares_solved"] >= 100
    assert result.details["negative_batch"] >= 10
    assert result.details["unfillable_found"] >= 1


def test_criterion_3_pullback_oracle():
    result = criterion_3_pullback_oracle()
    _report(result)
    assert result.details["cospans"] >= 12


def test_criterion_4_tower_oracle():
    result = criterion_4_tower_oracle()
    _report(result)
    assert result.details["towers"] >= 5


def test_criterion_5_remark_reproduction():
    result = criterion_5_remark_reproduction()
    _report(result)
    claims = {c["predicate"]: c for c in result.details["claims"]}
    assert claims["failing arrow domain"]["actual"] == "(1,0)"
    assert claims["failing arrow codomain"]["actual"] == "(1,1)"


def test_criterion_6_nip_dichotomy():
    result = criterion_6_nip_dichotomy()
    _report(result)
    assert result.details["finset_all_fill"] is True
    assert result.details["arrow_counterexample"] is not None
    assert result.details["deterministic"] is True


def test_criterion_7_fy_dichotomy():
    result = criterion_7_fy_dichotomy()
    _report(result)
    assert result.details["cases"] == 15


def test_criterion_8_nerve_roundtrip():
    result = criterion_8_nerve_roundtrip()
    _report(result)


def test_criterion_9_minimality():
    result = criterion_9_minimality()
    _report(result)
    assert result.details["checked"] > 0


def test_criterion_10_wf_biconditionals():
    result = criterion_10_wf_biconditionals()
    _report(result)
    assert result.details["checked"] > 0


# SHA-256 of the ten results' ``to_dict()``s, dumped with sorted keys; the
# CI step that runs ``fincat suite acceptance`` checks the same digest
BATTERY_DIGEST = "4ef16e5858d5d62a6f80930d7652ac0d2b024b5c90588b6493b952c7bd2eb3e3"


def test_battery_reproduces_its_recorded_digest():
    results = [r.to_dict() for r in run_acceptance()]
    assert [r["number"] for r in results] == list(range(1, 11))
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == BATTERY_DIGEST
