"""A functor is classified once: ``FinFunctor.fibration`` and
``FinFunctor.equivalence`` keep the first classification, and the fragment
checker, the lifting solver and the corpus read them instead of classifying
again.  The counters patch the classifiers and the retraction search in the
modules the attributes look them up in, and keep every object they count, so
no id is reused while the counts are read."""
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from test_cosmos import SAMPLE_OBJECTS

from fincat import acceptance, corpus, equivalence, fibrations
from fincat.core import builtin
from fincat.cosmos import CosmosFragment, check_fragment


@pytest.fixture
def counted(monkeypatch):
    """Per classifier, how many times it ran on each object, by id."""
    counts, kept = {}, []

    def count(module, name):
        run, counts[name] = getattr(module, name), Counter()

        def counting(F, *args, **kwargs):
            kept.append(F)
            counts[name][id(F)] += 1
            return run(F, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(fibrations, "classify_fibration")
    count(equivalence, "classify_equivalence")
    count(equivalence, "find_retractions")
    return counts


@pytest.fixture
def fresh_corpus(monkeypatch):
    """A corpus built afresh, whose functors no other test has classified,
    read by the corpus lists and by the acceptance criteria."""
    functors = corpus.corpus_functors.__wrapped__()
    monkeypatch.setattr(corpus, "corpus_functors", lambda: functors)
    for name in (
        "corpus_injective_equivalences",
        "corpus_normal_isofibrations",
        "corpus_non_isofibrations",
    ):
        monkeypatch.setattr(acceptance, name, getattr(corpus, name).__wrapped__)
    return functors


@pytest.mark.parametrize("chosen", ["normal", "equivalences"])
def test_a_fragment_check_classifies_each_functor_object_at_most_once(counted, chosen):
    check_fragment(CosmosFragment(tuple(map(builtin, SAMPLE_OBJECTS)), chosen))
    fibration, equivalences = counted["classify_fibration"], counted["classify_equivalence"]
    assert fibration and set(fibration.values()) == {1}
    assert bool(equivalences) == (chosen == "equivalences")
    assert set(equivalences.values()) <= {1}


def test_criterion_2_classifies_each_left_edge_once_and_searches_it_once(counted, fresh_corpus):
    assert acceptance.CRITERIA[2]().passed
    edges = {id(square.left) for square in acceptance._generated_squares()[:120]}
    assert len(edges) == 5
    classified = counted["classify_equivalence"]
    assert set(classified.values()) == {1} and edges <= set(classified)
    assert counted["find_retractions"] == Counter(dict.fromkeys(edges, 1))


def test_the_corpus_lists_classify_each_corpus_functor_once(counted, fresh_corpus):
    normal = corpus.corpus_normal_isofibrations.__wrapped__()
    non = corpus.corpus_non_isofibrations.__wrapped__()
    assert len(normal) + len(non) == len(fresh_corpus)
    assert counted["classify_fibration"] == Counter(id(F) for F in fresh_corpus)


@pytest.mark.parametrize("first", ["fincat.fibrations", "fincat.equivalence"])
def test_the_attributes_classify_whichever_classifier_a_process_imports_first(first):
    """``core`` binds both classifier modules once, at its end; in a fresh
    process that imports either of them first, both attributes classify."""
    script = (
        f"import {first}\n"
        "from fincat.core import builtin, identity_functor\n"
        "F = identity_functor(builtin('arrow'))\n"
        "print(type(F.fibration).__name__, F.equivalence.kind)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["FibrationReport", "injective"]
