"""The random catalog's int morphism ids.

Catalog assemblies number their morphisms 0..N-1 in the order of the
(a, g, b) triples they stand for, so every id-ordered result, every rng
draw and every verdict of the suites is what the triples gave.  These
tests hold the numbering to the triple-building reference, check that
samples survive the text format, and pin the suites' JSON at 100
samples.
"""

import io
import json
import os
import random
from contextlib import redirect_stdout

import pytest

from modalfib.cli import main
from modalfib.fingroupoids import (
    _GROUPS, _build_blocks, random_functor, random_groupoid,
)
from modalfib.graphs import _sorted_ids
from modalfib.textio import parse_document, serialize_fingroupoid
from reference_catalog import (REF_GROUPS, reachable_block_lists,
                               ref_build_blocks)

with open(os.path.join(os.path.dirname(__file__), "suites_100.json")) as _fh:
    SUITES_100 = json.load(_fh)


def test_catalog_group_elements_are_sorted():
    assert set(_GROUPS) == set(REF_GROUPS)
    for name, G in _GROUPS.items():
        assert list(G.elements) == sorted(G.elements)
        elements, identity, gens, words, table = REF_GROUPS[name]
        assert G.elements == elements, name
        assert G.identity == identity, name
        assert G.generators == gens, name
        assert list(G.words.items()) == list(words.items()), name
        assert G.mul == table, name


def test_ids_number_the_triples_in_id_order():
    small = reachable_block_lists(2, 8)
    large = reachable_block_lists(6, 24)
    assert (len(small), len(large)) == (37, 1356)
    for blocks in small + random.Random(0).sample(large, 150):
        g, ref = _build_blocks(blocks), ref_build_blocks(blocks)
        triples = _sorted_ids(ref.morphisms)
        assert g.morphisms == tuple(range(len(triples))), blocks
        num = {t: i for i, t in enumerate(triples)}
        assert g.objects == ref.objects
        assert g.src == {num[t]: a for t, a in ref.src.items()}, blocks
        assert g.dst == {num[t]: b for t, b in ref.dst.items()}, blocks
        assert g.ident == {o: num[t] for o, t in ref.ident.items()}, blocks
        assert g.comp == {(num[p], num[q]): num[r]
                          for (p, q), r in ref.comp.items()}, blocks


def _round_trip(g):
    h = parse_document(serialize_fingroupoid("G", g)).single("fingroupoid")
    assert h.objects == g.objects
    assert h.morphisms == g.morphisms
    assert h.src == g.src
    assert h.dst == g.dst
    assert h.ident == g.ident
    assert dict(h.comp) == dict(g.comp)


def test_random_samples_round_trip_through_the_text_format():
    rng = random.Random(5)
    for _ in range(100):
        _round_trip(random_groupoid(rng))
        _round_trip(random_groupoid(rng, max_objects=2, max_morphisms=8))
        F = random_functor(rng)
        _round_trip(F.source)
        _round_trip(F.target)


@pytest.mark.parametrize("key", sorted(SUITES_100))
def test_suite_json_at_100_samples(key):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(key.split() + ["--format", "json"]) in (0, 1)
    assert out.getvalue() == SUITES_100[key]
