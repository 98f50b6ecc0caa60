"""One-pass membership and natural-order id sorting against their references.

`SubgroupAutomaton.trace` reads a word as given through per-letter
columns and falls back to reduce-then-trace; `_sorted_ids` and
`_least_id` sort by natural `<` and fall back to `_sort_key`.  The
references below are test-local copies of the routes they replace; each
fast route must give the same answers on every input, including those
that drive it onto its fallback.
"""

import gc
import math
import random
import time
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from modalfib.automata import SubgroupAutomaton
from modalfib.covers import universal_cover_ball
from modalfib.graphs import (
    FinGraph, _least_id, _sort_key, _sorted_ids, bouquet, component_map,
    pi0,
)
from modalfib.textio import Document, parse_document, serialize_document


# ---------------------------------------------------------------------------
# reference: reduce, then trace

def ref_reduce(w):
    out = []
    for g, s in w:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return out


def ref_trace(a, word, start=0):
    """A letter whose sign is not +1 or -1 raises ValueError, also one
    that reduction cancels."""
    if any(sg != 1 and sg != -1 for _, sg in word):
        raise ValueError(word)
    w = ref_reduce(word)
    s = start
    for g, sg in w:
        s = (a.delta if sg > 0 else a.rdelta).get((s, g))
        if s is None:
            return None
    return s


def agrees(a, word, start):
    try:
        want = ref_trace(a, word, start)
    except ValueError:
        with pytest.raises(ValueError):
            a.trace(word, start)
        if start == 0:
            with pytest.raises(ValueError):
                a.contains(word)
        return
    assert a.trace(word, start) == want
    if start == 0:
        assert a.contains(word) == (want == 0)
        assert a.trace(word) == want


# "c" is foreign to every automaton here
ALPHABET = ("a", "b")
letter = st.tuples(st.sampled_from(ALPHABET), st.sampled_from((1, -1)))
alien = st.one_of(
    st.tuples(st.just("c"), st.sampled_from((1, -1))),
    st.tuples(st.sampled_from(ALPHABET), st.sampled_from((True, 2, -2))),
    st.builds(list, st.tuples(st.sampled_from(ALPHABET),
                              st.sampled_from((1, -1)))),
)
plain_words = st.lists(letter, max_size=12)


@st.composite
def query_words(draw):
    """A word with cancelling pairs x x^-1 (some of them foreign, some
    list-shaped or signed True) spliced in at random places."""
    w = draw(plain_words)
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.one_of(letter, alien))
        g, s = x
        y = [g, -s] if isinstance(x, list) else (g, -s)
        i = draw(st.integers(0, len(w)))
        w[i:i] = [x, y]
    if draw(st.booleans()):
        w.append(draw(alien))
    return tuple(w) if draw(st.booleans()) else w


def from_words(draw):
    gens = draw(st.lists(st.lists(letter, min_size=1, max_size=6),
                         min_size=1, max_size=3))
    return SubgroupAutomaton.from_words(ALPHABET, gens)


def from_schreier(draw):
    d = draw(st.integers(1, 6))
    perms = {}
    for g in ALPHABET:
        xs = list(range(d))
        random.Random(draw(st.integers(0, 10 ** 6))).shuffle(xs)
        perms[g] = dict(enumerate(xs))
    return SubgroupAutomaton.from_schreier(ALPHABET, perms, 0)


@st.composite
def automata(draw):
    a = from_words(draw) if draw(st.booleans()) else from_schreier(draw)
    if draw(st.booleans()):
        doc = Document()
        doc.add("automaton", "H", a)
        a = parse_document(serialize_document(doc)).single("automaton")
    return a


@settings(max_examples=300, deadline=None)
@given(automata(), st.data())
def test_trace_agrees_with_reduce_then_trace(a, data):
    start = data.draw(st.integers(0, a.n - 1))
    for _ in range(4):
        agrees(a, data.draw(query_words()), start)


@settings(max_examples=100, deadline=None)
@given(automata(), plain_words)
def test_trace_agrees_on_iterators_and_foreign_starts(a, w):
    assert a.trace(iter(w)) == ref_trace(a, w)
    assert a.trace(w, start=a.n) == ref_trace(a, w, a.n)


def test_cancelling_pair_across_an_undefined_edge():
    # <a^2>: a 2-cycle of a, with b undefined everywhere
    a = SubgroupAutomaton.from_words(ALPHABET, [(("a", 1), ("a", 1))])
    assert a.n == 2 and a.complete() is False
    for mid in ([("b", 1), ("b", -1)], [("c", 1), ("c", -1)],
                [("b", -1), ("b", True)], [["a", -1], ["a", 1]]):
        w = [("a", 1)] + mid + [("a", 1)]
        assert a.contains(w) and a.contains(tuple(w))
        assert a.trace(w, start=1) == 1
    assert not a.contains([("a", 1), ("b", 1)])
    with pytest.raises(ValueError):
        a.trace([("a", 2), ("a", -2)])


def test_columns_are_built_on_the_first_trace():
    a = SubgroupAutomaton.from_schreier(ALPHABET, {"a": {0: 1, 1: 0},
                                                   "b": {0: 0, 1: 1}}, 0)
    assert "_columns" not in vars(a)
    assert a.contains([("a", 1), ("b", -1), ("a", -1)])
    assert "_columns" in vars(a)


# ---------------------------------------------------------------------------
# natural order against `_sort_key`

Pair = namedtuple("Pair", "x y")
atoms = st.one_of(st.integers(-3, 3), st.booleans(),
                  st.text(alphabet="ab", max_size=2))
ids = st.recursive(
    atoms,
    lambda kids: st.one_of(st.lists(kids, max_size=3).map(tuple),
                           st.builds(Pair, kids, kids)),
    max_leaves=6)
int_tuples = st.recursive(
    st.integers(-3, 3),
    lambda kids: st.lists(kids, max_size=3).map(tuple), max_leaves=5)
soups = st.one_of(
    st.lists(ids, max_size=12),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=12),
    st.lists(st.text(alphabet="ab", max_size=3), max_size=12),
    st.lists(int_tuples, max_size=12),
    st.lists(st.tuples(st.text(alphabet="ab", max_size=2),
                       st.sampled_from((1, -1))).map(lambda t: (t,)),
             max_size=12),
)


def same_objects(got, want):
    # the same object at every place: equal values and types at any depth
    return (got == want and [type(x) for x in got] == [type(x) for x in want]
            and all(x is y for x, y in zip(got, want)))


@settings(max_examples=400, deadline=None)
@given(soups)
def test_sorted_ids_agree_with_the_keyed_sort(xs):
    assert same_objects(_sorted_ids(xs), sorted(xs, key=_sort_key))
    assert same_objects(_sorted_ids(set(xs)), sorted(set(xs), key=_sort_key))
    if xs:
        got, want = _least_id(xs), min(xs, key=_sort_key)
        assert got is want


@settings(max_examples=200, deadline=None)
@given(soups)
def test_graph_orders_agree_with_the_keyed_sort(xs):
    order = sorted(set(xs), key=_sort_key)
    # components are the pairs of neighbours in keyed order
    pairs = [order[i:i + 2] for i in range(0, len(order), 2)]
    edges = [(("e", p[0]), p[0], p[1]) for p in pairs if len(p) == 2]
    g = FinGraph(tuple(reversed(order)), tuple(reversed(edges)))
    assert same_objects(list(g.vertices), order)
    assert list(g.edges) == sorted(edges, key=lambda t: _sort_key(t[0]))
    assert pi0(g) == tuple(frozenset(p) for p in pairs)
    least = component_map(g)
    assert all(least[v] is p[0] for p in pairs for v in p)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from((0, "a", ("t", 1))),
                                   st.sampled_from((1, -1))),
                         min_size=1, max_size=5), min_size=1, max_size=3))
def test_transitions_agree_with_the_keyed_sort(gens):
    a = SubgroupAutomaton.from_words((0, "a", ("t", 1)), gens)
    assert a.transitions() == sorted(
        a.delta.items(), key=lambda kv: (kv[0][0], _sort_key(kv[0][1])))


def test_mixed_ids_fall_back_to_the_keyed_order():
    xs = [(1, "a"), 2, "b", (1, 2), True, (), Pair(0, "x")]
    assert same_objects(_sorted_ids(xs), sorted(xs, key=_sort_key))
    assert _least_id(["b", (0,), 3]) == 3


# ---------------------------------------------------------------------------
# scaling guards

def _slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((x - mx) * (y - my) for x, y in zip(lx, ly))
            / sum((x - mx) ** 2 for x in lx))


def _best_each(fns, runs=5):
    """Best wall time of each f(), the sizes interleaved within every run
    so that a change in the host's load reaches all of them, and with the
    cyclic collector off as in timeit, so that collections over the rest
    of the process do not land inside."""
    best = [math.inf] * len(fns)
    gc.collect()
    gc.disable()
    try:
        for _ in range(runs):
            for i, f in enumerate(fns):
                t0 = time.perf_counter()
                f()
                best[i] = min(best[i], time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


def _ball(r):
    U, _ = universal_cover_ball(bouquet(3), "w", r)
    assert len(pi0(U)) == 1
    return U


def test_universal_ball_and_pi0_grow_linearly_in_the_vertices():
    radii = (3, 4, 5, 6)
    sizes = [len(_ball(r).vertices) for r in radii]
    times = _best_each([lambda r=r: _ball(r) for r in radii])
    assert sizes == [187, 937, 4687, 23437]
    assert _slope(sizes, times) <= 1.2, (sizes, times)
    assert times[-1] < 2.0, times


def _batch(rng, d):
    """A Schreier automaton of degree d on three letters, and 64 random
    words of 4d letters each, drawn from shared letter objects."""
    letters = ("a", "b", "c")
    perms = {}
    for g in letters:
        xs = list(range(d))
        rng.shuffle(xs)
        perms[g] = dict(enumerate(xs))
    a = SubgroupAutomaton.from_schreier(letters, perms, 0)
    pool = [(g, s) for g in letters for s in (1, -1)]
    words = [tuple(rng.choice(pool) for _ in range(4 * d)) for _ in range(64)]
    return a, words


def test_membership_batches_grow_linearly_in_the_letters():
    # degrees up to 1024; past that, each step's dict lookups miss the
    # CPU caches more often, as they do in reduce-then-trace
    rng = random.Random(9)
    batches = [_batch(rng, d) for d in (16, 64, 256, 1024)]
    for a, words in batches:
        assert ([a.contains(w) for w in words]
                == [ref_trace(a, w) == 0 for w in words])
    sizes = [sum(map(len, words)) for _, words in batches]
    times = _best_each([lambda a=a, words=words: [a.contains(w) for w in words]
                        for a, words in batches])
    assert _slope(sizes, times) <= 1.2, (sizes, times)
    assert times[-1] < 0.15, times
