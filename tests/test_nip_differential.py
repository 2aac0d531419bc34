"""The lifting sweeps in ``fincat.cosmos``, which solve each square for its
bottom map, against the sweeps that filter every candidate square, kept in
``helpers`` as the reference: results, counts and counterexamples must be
identical, and the arrow space's hom sets, decoded from their indices,
equal in order.  At bound 4 the
sweep is compared with a digest of the reference's result."""
import hashlib
import json

import pytest
from helpers import filter_arrow_homs, filter_nip_finset, filter_nip_finset_arrow

from fincat.cosmos import _ArrowSpace, _decode_arrow, _decode_hom, nip_square_filler


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_finset_sweep_matches_the_filter(bound):
    assert nip_square_filler("finset", bound).to_dict() == filter_nip_finset(bound).to_dict()


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_finset_arrow_sweep_matches_the_filter(bound):
    res = nip_square_filler("finset_arrow", bound)
    assert res.to_dict() == filter_nip_finset_arrow(bound).to_dict()


@pytest.mark.parametrize("bound", [2, 3])
def test_arrow_homs_match_the_filter_in_order(bound):
    space = _ArrowSpace(bound)
    for X in space.objects:
        for Y in space.objects:
            decoded = [_decode_hom(f, X, Y) for f in space.homs(X, Y)]
            assert decoded == filter_arrow_homs(_decode_arrow(X), _decode_arrow(Y)), (X, Y)


# SHA-256 of ``json.dumps(filter_nip_finset(4).to_dict(), sort_keys=True)``,
# recorded from the reference (it takes about 100 s to replay).
FINSET_4_DIGEST = "63c52e5621df6db6ca2467c9910516f8ed311dbe2bdd247b41967361552ccbf0"


@pytest.mark.slow
def test_finset_sweep_matches_the_filter_at_the_maximum_bound():
    res = nip_square_filler("finset", 4).to_dict()
    digest = hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest()
    assert digest == FINSET_4_DIGEST
