"""One id order, kept by graphs.py alone.

Every canonical order in the output (components, orbit representatives,
automaton letters, groupoid objects) comes from `graphs._sorted_ids` and
`graphs._least_id`: natural `<` first, `graphs._sort_key` on TypeError.
These tests hold the program to that: no other module binds the key;
forcing every binding of the helpers onto the keyed route leaves every
golden `--format json` line byte-identical; and on soups of mixed int,
str and tuple ids each ordered result matches a test-local keyed sort.
"""

import importlib
import json
import os
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import modalfib
from modalfib import fingroupoids
from modalfib.automata import SubgroupAutomaton
from modalfib.cli import main
from modalfib.fingroupoids import discrete_groupoid
from modalfib.graphs import FinGraph, GraphMap, _sort_key, pi0
from modalfib.groupoids import shape1
from modalfib.quotients import ActionGroupoid, cyclic_group, graph_action
from modalfib.textio import cycles_of_perm, token
from lib_fingroupoids import connected_groupoid

MODULES = [importlib.import_module("modalfib." + m.name)
           for m in pkgutil.iter_modules(modalfib.__path__)]

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
with open(os.path.join(GOLDEN, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


def keyed(xs):
    return sorted(xs, key=_sort_key)


def keyed_least(xs):
    return min(xs, key=_sort_key)


def test_only_graphs_binds_the_sort_key():
    assert [m.__name__ for m in MODULES if "_sort_key" in vars(m)] \
        == ["modalfib.graphs"]


# ---------------------------------------------------------------------------
# the golden command lines, natural and keyed

def _json_stdout(key, capsys):
    argv = [os.path.join(GOLDEN, t) if t.endswith(".txt") else t
            for t in key.split()]
    assert main(argv + ["--format", "json"]) in (0, 1)
    return capsys.readouterr().out


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_keyed_route_prints_the_same_json(key, capsys, monkeypatch):
    natural = _json_stdout(key, capsys)
    calls = [0]

    def counted(fn):
        def route(xs):
            calls[0] += 1
            return fn(xs)
        return route

    for mod in MODULES:
        for name, fn in (("_sorted_ids", keyed), ("_least_id", keyed_least)):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(fn))
    # suites reuse memoized catalog groupoids; build them again, keyed
    monkeypatch.setattr(fingroupoids, "_ASSEMBLED", {})
    assert _json_stdout(key, capsys) == natural
    assert calls[0] > 0


# ---------------------------------------------------------------------------
# mixed-id soups against a test-local keyed sort

atoms = st.one_of(st.integers(-3, 3), st.sampled_from(("a", "b", "ab")))
ids = st.recursive(atoms, lambda kids: st.lists(kids, max_size=3).map(tuple),
                   max_leaves=5)
soups = st.lists(ids, min_size=1, max_size=10).map(lambda xs: keyed(set(xs)))


@settings(max_examples=150, deadline=None)
@given(soups, st.data())
def test_automaton_letters_and_transitions(letters, data):
    word = st.tuples(st.sampled_from(letters), st.sampled_from((1, -1)))
    gens = data.draw(st.lists(st.lists(word, min_size=1, max_size=5),
                              max_size=3))
    a = SubgroupAutomaton.from_words(list(reversed(letters)), gens)
    assert list(a.letters) == letters
    assert a.transitions() == sorted(a.delta.items(),
                                     key=lambda kv: _sort_key(kv[0]))


def _paired_graph(vs, order):
    """vs with an edge between each pair of neighbours in `order`."""
    pairs = [order[i:i + 2] for i in range(0, len(order), 2)]
    edges = tuple((("e", i), p[0], p[1])
                  for i, p in enumerate(pairs) if len(p) == 2)
    return FinGraph(tuple(reversed(vs)), edges), pairs


@settings(max_examples=150, deadline=None)
@given(soups, st.randoms(use_true_random=False))
def test_shape_summary(vs, rng):
    order = list(vs)
    rng.shuffle(order)
    g, pairs = _paired_graph(vs, order)
    bases = keyed(keyed_least(p) for p in pairs)
    assert [row[0] for row in shape1(g).summary()] == bases
    assert [min(c, key=_sort_key) for c in pi0(g)] == bases


@settings(max_examples=150, deadline=None)
@given(soups, st.randoms(use_true_random=False))
def test_quotient_component_reps(vs, rng):
    order = list(vs)
    rng.shuffle(order)
    # an involution swaps the vertices of each pair; no edges
    swap = {v: v for v in vs}
    for i in range(0, len(order) - 1, 2):
        swap[order[i]], swap[order[i + 1]] = order[i + 1], order[i]
    g = FinGraph(tuple(reversed(vs)), ())
    act = graph_action(cyclic_group(2), g, [GraphMap(g, g, swap, {})])
    reps = ActionGroupoid(act, shape1(g)).component_reps()
    assert list(reps) == keyed({keyed_least((v, swap[v])) for v in vs})


@settings(max_examples=150, deadline=None)
@given(st.lists(atoms, min_size=1, max_size=10, unique=True),
       st.randoms(use_true_random=False))
def test_cycles_of_perm(points, rng):
    images = list(points)
    rng.shuffle(images)
    perm = dict(zip(points, images))
    seen, cycles = set(), []
    for start in keyed(perm):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        while perm[cyc[-1]] != start:
            cyc.append(perm[cyc[-1]])
        seen.update(cyc)
        cycles.append("(" + " ".join(map(token, cyc)) + ")")
    assert cycles_of_perm(perm) == "".join(cycles)


@settings(max_examples=100, deadline=None)
@given(soups)
def test_fin_groupoid_objects_and_morphisms(objs):
    for g in (discrete_groupoid(reversed(objs)),
              connected_groupoid(objs[:6], "c1")):
        assert list(g.objects) == keyed(g.objects)
        assert list(g.morphisms) == keyed(g.morphisms)
    assert list(discrete_groupoid(reversed(objs)).objects) == objs
