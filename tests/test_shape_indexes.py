"""The graph and shape indexes against the full scans they replace.

Each reference below is the plain scan: darts by walking every edge,
fibers by walking the whole source, the spanning forest by a queue BFS
that copies a tree path per vertex, and conjugators by re-walking each
tree path from the component base.  The indexed code must agree with
them exactly, in order, on random graphs and maps whose ids mix ints,
strings and tuples.  Two timing guards pin the near-linear growth of
`classify` on long covers and collapses.
"""

import random
import time

from hypothesis import given, settings, strategies as st

from modalfib.classify import classify
from modalfib.corpus import random_map
from modalfib.graphs import FinGraph, GraphMap, _sort_key, fiber, terminal_map
from modalfib.groupoids import induce_functor, shape1
from modalfib.words import inv, mul, reduce_word
from lib_corpus import double_cover
from lib_graphs import cycle, disjoint_union, path_graph


# ---------------------------------------------------------------------------
# reference scans

def scan_darts(g, v):
    out = []
    for eid, a, b in g.edges:
        if a == v:
            out.append((eid, +1, b))
        if b == v:
            out.append((eid, -1, a))
    return out


def scan_fiber(f, y):
    vm = f.vertex_map
    verts = [x for x in f.source.vertices if vm[x] == y]
    edges = [(eid, u, v) for eid, u, v in f.source.edges
             if f.edge_map[eid] is None and vm[u] == y]
    return verts, edges


def queue_shape(g):
    """base -> (vertices, letters, tree paths), by a list-queue BFS over
    darts sorted lowest id first."""
    out = {}
    visited = set()
    for start in g.vertices:
        if start in visited:
            continue
        tree_paths = {start: ()}
        tree_edges = set()
        visited.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            ds = sorted(scan_darts(g, v),
                        key=lambda d: (_sort_key(d[0]), -d[1]))
            for eid, sign, other in ds:
                if other not in visited:
                    visited.add(other)
                    tree_edges.add(eid)
                    tree_paths[other] = tree_paths[v] + ((eid, sign),)
                    queue.append(other)
        letters = tuple(sorted(
            (eid for eid, u, _ in g.edges
             if u in tree_paths and eid not in tree_edges), key=_sort_key))
        out[start] = (frozenset(tree_paths), letters, tree_paths)
    return out


def functor_key(F):
    """The object map, generator images and conjugators of a shape
    functor, each as (key, value) rows in id order."""
    return tuple(tuple((k, d[k]) for k in sorted(d, key=_sort_key))
                 for d in (F.obj, F.gen_images, F.conj))


def walked_functor_key(f):
    """functor_key(induce_functor(f)), with every conjugator re-walked
    along its tree path from the base."""
    src = queue_shape(f.source)
    dst = queue_shape(f.target)
    letter_set = {l for _, ls, _ in dst.values() for l in ls}

    def image_word(eid, sign):
        img = f.dart_image(eid, sign)
        if img[0] == "r" or img[1] not in letter_set:
            return ()
        return ((img[1], img[2]),)

    conj, gens = {}, {}
    for verts, letters, paths in src.values():
        for v in verts:
            w = ()
            for eid, sign in paths[v]:
                w = mul(w, image_word(eid, sign))
            conj[v] = w
        for l in letters:
            u, v = f.source.ends[l]
            gens[l] = mul(conj[u], image_word(l, +1), inv(conj[v]))

    def rows(d):
        return tuple(sorted(((k, reduce_word(w)) for k, w in d.items()),
                            key=lambda kv: _sort_key(kv[0])))

    obj = tuple(sorted(f.vertex_map.items(),
                       key=lambda kv: _sort_key(kv[0])))
    return obj, rows(gens), rows(conj)


# ---------------------------------------------------------------------------
# random graphs with mixed ids

IDS = st.one_of(st.integers(0, 6), st.sampled_from("abcdef"),
                st.tuples(st.integers(0, 2), st.sampled_from("xy")))
EDGE_ID = (lambda i: i, lambda i: "e%d" % i, lambda i: (i, "t"))


@st.composite
def graphs(draw, union=True):
    verts = draw(st.lists(IDS, min_size=1, max_size=7, unique=True))
    edges = []
    for i in range(draw(st.integers(0, 9))):
        eid = EDGE_ID[draw(st.integers(0, 2))](i)
        edges.append((eid, draw(st.sampled_from(verts)),
                      draw(st.sampled_from(verts))))
    g = FinGraph(tuple(verts), tuple(edges), verts[0])
    if union and draw(st.booleans()):
        g = disjoint_union(g, draw(graphs(union=False)))
    return g


@st.composite
def maps(draw):
    src, dst = draw(graphs()), draw(graphs())
    return random_map(random.Random(draw(st.integers(0, 2 ** 32))), src, dst)


@settings(deadline=None)
@given(graphs())
def test_darts_match_edge_scan_in_order(g):
    for v in g.vertices:
        assert list(g.darts(v)) == scan_darts(g, v)


@settings(deadline=None)
@given(maps())
def test_fiber_matches_source_scan(f):
    for y in f.target.vertices:
        verts, edges = scan_fiber(f, y)
        sub = fiber(f, y).subgraph
        assert sub == FinGraph(tuple(verts), tuple(edges))
        assert list(f.preimages[y][0]) == verts
        assert list(f.preimages[y][1]) == edges


@settings(deadline=None)
@given(graphs())
def test_shape_matches_queue_bfs(g):
    ref = queue_shape(g)
    S = shape1(g)
    assert list(S.components) == list(ref)
    for base, (verts, letters, paths) in ref.items():
        comp = S.components[base]
        assert comp.vertices == verts
        assert comp.letters == letters
        for v in verts:
            assert comp.tree_path(v) == paths[v]
            assert S.comp_of[v] == base


@settings(deadline=None)
@given(maps())
def test_induced_functor_matches_walked_tree_paths(f):
    assert functor_key(induce_functor(f)) == walked_functor_key(f)


# ---------------------------------------------------------------------------
# scaling guards

def _timed_classify(f):
    t0 = time.perf_counter()
    c = classify(f)
    return c, time.perf_counter() - t0


def test_classify_of_long_double_cover_is_near_linear():
    n = 1600
    f = GraphMap.build(cycle(2 * n), cycle(n),
                       {i: i % n for i in range(2 * n)},
                       {"e%d" % i: "e%d" % (i % n) for i in range(2 * n)})
    c, took = _timed_classify(f)
    assert c.as_dict() == classify(double_cover()).as_dict()
    assert c.pi1.etale.is_true and c.pi1.fibration.is_true
    assert not c.pi1.equivalence.is_true
    assert took < 1.5


def test_classify_of_long_path_collapse_is_near_linear():
    f = terminal_map(path_graph(3200))
    c, took = _timed_classify(f)
    assert c.as_dict() == classify(terminal_map(path_graph(3))).as_dict()
    assert c.pi1.connected.is_true and c.pi1.equivalence.is_true
    assert not c.pi1.modal.is_true
    assert took < 1.5
