"""Equivalence witnesses against SHA-256 digests recorded when
``classify_equivalence`` ran both inverse searches and each kind of witness
had its own builder: reading the kinds off the object map, running one
search and building every witness with one formula must reproduce them
exactly.  A witness is digested with its kind, its section and retraction
flags, its inverse's label and tables, and the label, boundary keys and
components of its unit and counit, in table order; a non-equivalence with
its reason and locus.  The inputs are the corpus functors, the first
functors between small categories, inclusions and projections of
shuffled products C × chaotic(n), on which a conjugated retraction can
differ from the search's first, and the legs of corpus pseudolimits.  The diagonal witnesses of the corpus
pseudolimits, and the fillers of the minimal retract diagrams built from
them, are digested the same way."""
import hashlib
import json
import random
from collections import Counter
from itertools import islice

import pytest

from fincat.core import (
    FinFunctor,
    builtin,
    chaotic_category,
    enumerate_functors,
    identity_functor,
)
from fincat.corpus import corpus_functors, corpus_normal_isofibrations, cyclic_group_category
from fincat.equivalence import EquivalenceWitness, NotEquivalence, classify_equivalence
from fincat.funcat import pair_functor, product_category
from fincat.limits import pseudolimit_injective_witness, pseudolimit_of_arrow
from fincat.wfs import minimal_retract_witness
from helpers import constant_functor, shuffled

GOLDEN = {
    "classify_equivalence": "1ea735368d40c6c781b471ce109f9be415daf760f4c3acef5c2483f838d9630a",
    "pseudolimit_injective_witness": "bc672962bad7edb8f4492c7f62b8c6b78f49cf35ed7963ca2ca45deedc1e38a4",
}


def cell_text(t) -> list:
    return [t.label, t.source.key, t.target.key, t.components]


def witness_text(w) -> str:
    if isinstance(w, NotEquivalence):
        return json.dumps(["not", w.functor.key, w.reason, list(w.locus)])
    G = w.inverse
    return json.dumps(
        [
            w.forward.key,
            w.kind,
            w.has_section,
            w.has_retraction,
            G.label,
            G.omap,
            G.mmap,
            cell_text(w.unit),
            cell_text(w.counit),
        ],
        ensure_ascii=False,
    )


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def small_functors():
    """The first functors between every ordered pair of small categories."""
    small = [
        builtin("terminal"),
        builtin("free_iso"),
        builtin("arrow"),
        chaotic_category(2),
        chaotic_category(3),
        cyclic_group_category(2),
    ]
    for A in small:
        for B in small:
            yield from islice(enumerate_functors(A, B), 40)


def product_legs():
    """The inclusion at one object of C into C × chaotic(n), and the
    projection back, with the product's lists shuffled."""
    rng = random.Random(0)
    for C in (cyclic_group_category(2), cyclic_group_category(3), builtin("free_iso")):
        for n in (2, 3):
            chaos = chaotic_category(n)
            prod = product_category(C, chaos)
            P = shuffled(prod, rng)
            point = constant_functor(C, chaos, rng.choice(chaos.objects))
            inclusion = pair_functor(identity_functor(C), point, prod)
            projection = prod.projection(0, "proj1")
            yield FinFunctor(C, P, inclusion.omap, inclusion.mmap, label="inclusion")
            yield FinFunctor(P, C, projection.omap, projection.mmap, label="projection")


def pseudolimit_legs():
    """The diagonal and the source projection of every fourth corpus
    pseudolimit."""
    for f in corpus_functors()[::4]:
        pl = pseudolimit_of_arrow(f)
        yield pl.diagonal
        yield pl.to_source


def classify_inputs():
    yield from corpus_functors()
    yield from small_functors()
    yield from product_legs()
    yield from pseudolimit_legs()


def classify_texts():
    for F in classify_inputs():
        yield witness_text(classify_equivalence(F))


def pseudolimit_texts():
    for f in corpus_functors():
        yield witness_text(pseudolimit_injective_witness(pseudolimit_of_arrow(f)))
    for f in corpus_normal_isofibrations():
        h = minimal_retract_witness(f).filler
        yield json.dumps([f.key, h.label, h.omap, h.mmap], ensure_ascii=False)


CONSTRUCTIONS = {
    "classify_equivalence": classify_texts,
    "pseudolimit_injective_witness": pseudolimit_texts,
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_witnesses_match_their_recorded_digests(name):
    assert digest(CONSTRUCTIONS[name]()) == GOLDEN[name]


def test_the_inputs_cover_every_kind():
    kinds = Counter(
        w.kind if isinstance(w, EquivalenceWitness) else "not"
        for w in map(classify_equivalence, classify_inputs())
    )
    assert min(kinds[k] for k in ("injective", "retract", "plain", "not")) >= 20
