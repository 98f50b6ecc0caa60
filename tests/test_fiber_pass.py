"""The one-pass fiber data of a map against the per-vertex fiber routes.

The references below are the routes `classify` took before the piece
index: build `fiber(f, y)` for every target vertex and read its
components with `pi0`, and cut each source component along its
collapsed edges by scanning every source edge.  The piece index
(`GraphMap.pieces`), the cached component map and the component slices
of the gamma and etale routes must agree with them on random maps whose
ids mix ints, strings and tuples, disjoint unions included.  Two guards
pin the linear growth of `classify` in the number of source components,
and a third that a graph's darts are walked once, by `component_map`,
however `shape1` and `component_map` are called.
"""

import gc
import math
import random
import time
from contextlib import contextmanager

from hypothesis import example, given, settings, strategies as st

from modalfib.classify import (
    _classify_pi0, _comp_pairing, _etale_shape_route, classify,
    constant_fiber_criterion, factor0,
)
from modalfib import corpus
from modalfib.automata import SubgroupAutomaton
from modalfib.corpus import random_map
from modalfib.graphs import (
    FinGraph, GraphMap, _sort_key, component_map, cycle, disjoint_union,
    fiber, pi0,
)
from modalfib.groupoids import induce_functor, shape1
from modalfib.hfiber import GammaAnalyzer
from modalfib.verdicts import Flag, LevelVerdicts
from modalfib.words import inv, mul


# ---------------------------------------------------------------------------
# reference routes: one explicit fiber per target vertex

def ref_edges_over(f):
    out = {d: [] for d in f.target.edge_ids()}
    for e in f.source.edge_ids():
        img = f.edge_map[e]
        if img is not None:
            out[img[0]].append((e, img[1]))
    return out


def ref_fibers(f):
    return [fiber(f, y).subgraph for y in f.target.vertices]


def ref_classify_pi0(f):
    cm_src = component_map(f.source)
    cm_dst = component_map(f.target)
    over = {r: [] for r in set(cm_dst.values())}
    for r in sorted(set(cm_src.values()), key=_sort_key):
        over[cm_dst[f.vertex_map[r]]].append(r)
    eo = ref_edges_over(f)
    modal = all(img is not None for img in f.edge_map.values())
    connected = all(len(sub.vertices) >= 1 and len(pi0(sub)) == 1
                    for sub in ref_fibers(f))
    if connected:
        connected = all(len(es) == 1 for es in eo.values())
    equivalence = all(len(cs) == 1 for cs in over.values())

    def one_edge_per_component_over(d, es):
        counts = {}
        for e, _ in es:
            r = cm_src[f.source.ends[e][0]]
            counts[r] = counts.get(r, 0) + 1
        td = cm_dst[f.target.ends[d][0]]
        return (sorted(counts, key=_sort_key)
                == sorted(over[td], key=_sort_key)
                and all(c == 1 for c in counts.values()))

    fibration = True
    for y, sub in zip(f.target.vertices, ref_fibers(f)):
        reps = [cm_src[min(K, key=_sort_key)] for K in pi0(sub)]
        if sorted(reps, key=_sort_key) != sorted(over[cm_dst[y]],
                                                 key=_sort_key):
            fibration = False
            break
    if fibration:
        fibration = all(one_edge_per_component_over(d, es)
                        for d, es in eo.items())
    etale = modal
    if etale:
        for y in f.target.vertices:
            by_comp = {}
            for x in f.preimages[y][0]:
                by_comp[cm_src[x]] = by_comp.get(cm_src[x], 0) + 1
            if (sorted(by_comp, key=_sort_key)
                    != sorted(over[cm_dst[y]], key=_sort_key)
                    or any(c != 1 for c in by_comp.values())):
                etale = False
                break
    if etale:
        etale = all(one_edge_per_component_over(d, es)
                    for d, es in eo.items())
    return LevelVerdicts(
        modal=Flag.of(modal), connected=Flag.of(connected),
        etale=Flag.of(etale), equivalence=Flag.of(equivalence),
        fibration=Flag.of(fibration))


def ref_pi1_connected(f):
    return (all(len(sub.vertices) >= 1 and len(pi0(sub)) == 1
                and len(sub.edges) == len(sub.vertices) - 1
                for sub in ref_fibers(f))
            and all(len(es) == 1 for es in ref_edges_over(f).values()))


def ref_constant_fiber_criterion(f):
    sigs = []
    for sub in ref_fibers(f):
        ranks = []
        for K in pi0(sub):
            edges_in = sum(1 for _, u, _ in sub.edges if u in K)
            ranks.append(edges_in - len(K) + 1)
        sigs.append(tuple(sorted(ranks)))
    return all(s == sigs[0] for s in sigs)


def ref_union_find(vertices, edges):
    """dict vertex -> least vertex of its class, by plain relabelling."""
    label = {v: v for v in vertices}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            a, b = label[u], label[v]
            if a != b:
                low = min(a, b, key=_sort_key)
                for x in label:
                    if label[x] in (a, b) and label[x] != low:
                        label[x] = low
                        changed = True
    return label


def ref_pieces(f):
    return ref_union_find(
        f.source.vertices,
        [(u, v) for e, u, v in f.source.edges if f.edge_map[e] is None])


def ref_incidence_classes(f, F, comp):
    """The incidence graph of a source component: its pieces as nodes,
    one arc per non-collapsed edge, labelled by the target word of the
    edge's image.  Returns one (nodes, arcs) pair per class."""
    piece_of = ref_pieces(f)
    nodes = sorted({piece_of[x] for x in comp.vertices}, key=_sort_key)
    arcs = []
    for e, u, v in f.source.edges:
        if u in comp.vertices and f.edge_map[e] is not None:
            _, d, s = f.dart_image(e, +1)
            arcs.append((piece_of[u], piece_of[v], F.dst.dart_word(d, s)))
    cls = ref_union_find(nodes, [(u, v) for u, v, _ in arcs])
    return [([p for p in nodes if cls[p] == c],
             [a for a in arcs if cls[a[0]] == c])
            for c in sorted(set(cls.values()), key=_sort_key)]


def ref_incidence_injective(nodes, arcs, letters):
    """Does the incidence class's fundamental group inject into the
    target's?  Transport along a breadth-first tree, fold the words of
    the other arcs, and compare ranks."""
    transport = {nodes[0]: ()}
    tree = set()
    frontier = [nodes[0]]
    while frontier:
        nxt = []
        for p in frontier:
            for i, (u, v, label) in enumerate(arcs):
                for a, b, w in ((u, v, label), (v, u, inv(label))):
                    if a == p and b not in transport:
                        transport[b] = mul(transport[a], w)
                        tree.add(i)
                        nxt.append(b)
        frontier = nxt
    gens = [mul(transport[u], label, inv(transport[v]))
            for i, (u, v, label) in enumerate(arcs) if i not in tree]
    return SubgroupAutomaton.from_words(letters, gens).rank() == len(gens)


def ref_gamma_at_vertex(f, F, y):
    """The gamma test with clause (c) read off the incidence graph: a
    rank-0 piece needs every piece of its incidence class to be rank 0
    and the class to inject into the target's fundamental group; a
    piece of positive rank needs its class to be a tree with no other
    piece of positive rank."""
    S, T = F.src, F.dst
    piece_of = ref_pieces(f)
    rank = {}
    for x in f.source.vertices:
        rank[piece_of[x]] = rank.get(piece_of[x], 1) - 1
    for e, u, _ in f.source.edges:
        if f.edge_map[e] is None:
            rank[piece_of[u]] += 1
    for cb, comp in S.components.items():
        if T.comp_of[F.obj[cb]] != T.comp_of[y]:
            continue
        H = SubgroupAutomaton.from_words(
            T.letters_at(y), [F.gen_images[l] for l in comp.letters])
        over = {}
        for x in f.source.vertices:
            if x in comp.vertices and F.obj[x] == y:
                over.setdefault(piece_of[x], []).append(x)
        if not H.complete() or not over:
            return False
        states = {H.trace(F.conj[xs[0]]) for xs in over.values()}
        if len(states) != len(over) or len(states) != H.n:
            return False
        for nodes, arcs in ref_incidence_classes(f, F, comp):
            for p in nodes:
                if p not in over:
                    continue
                if rank[p] == 0:
                    if any(rank[q] > 0 for q in nodes) or not (
                            ref_incidence_injective(nodes, arcs,
                                                    T.letters_at(y))):
                        return False
                elif (len(arcs) != len(nodes) - 1
                      or sum(1 for q in nodes if rank[q] > 0) > 1):
                    return False
    return True


def ref_etale_shape_route(f, F, over):
    """The route before component slicing: every source edge and every
    preimage is scanned once per source component."""
    S, T = F.src, F.dst
    for tb, cbs in over.items():
        tvs = T.components[tb].vertices
        tes = [d for d, u, v in f.target.edges if u in tvs]
        for cb in cbs:
            comp = S.components[cb]
            H = F.image_subgroup(cb)
            if not H.complete() or H.rank() != len(comp.letters):
                return False
            full = list(range(H.n))
            for y in tvs:
                traces = sorted(H.trace(F.conj[x]) for x in f.preimages[y][0]
                                if x in comp.vertices)
                if traces != full:
                    return False
            by_edge = {d: [] for d in tes}
            for e in f.source.edge_ids():
                u, v = f.source.ends[e]
                if u not in comp.vertices:
                    continue
                d, s = f.edge_map[e]
                by_edge[d].append(H.trace(F.conj[u if s == +1 else v]))
            for d in tes:
                if sorted(by_edge[d]) != full:
                    return False
    return True


# ---------------------------------------------------------------------------
# random maps with mixed ids

IDS = st.one_of(st.integers(0, 6), st.sampled_from("abcdef"),
                st.tuples(st.integers(0, 2), st.sampled_from("xy")))
EDGE_ID = (lambda i: i, lambda i: "e%d" % i, lambda i: (i, "t"))


@st.composite
def graphs(draw, union=True, max_vertices=7):
    verts = draw(st.lists(IDS, min_size=1, max_size=max_vertices,
                          unique=True))
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
    """Random maps; small targets make collapsed edges and multi-piece
    fibers common."""
    src = draw(graphs())
    dst = draw(graphs(max_vertices=draw(st.sampled_from([1, 2, 3, 7]))))
    return random_map(random.Random(draw(st.integers(0, 2 ** 32))), src, dst)


@st.composite
def modal_maps(draw):
    """Discrete-fibered maps onto a graph Y from disjoint copies of Y,
    some with edges dropped: coverings and near-coverings."""
    Y = draw(graphs(union=False))
    verts, edges = [], []
    for c in range(draw(st.integers(1, 3))):
        verts += [(c, v) for v in Y.vertices]
        edges += [((c, e), (c, u), (c, v)) for e, u, v in Y.edges
                  if c == 0 or draw(st.booleans())]
    X = FinGraph(tuple(verts), tuple(edges), verts[0])
    return GraphMap(X, Y, {x: x[1] for x in verts},
                    {e: (e[1], +1) for e, _, _ in edges})


def interval_onto_loop():
    """Two fiber components in one source component over a loop whose
    edge has exactly one lift: only the count of fiber components tells
    it from a fibration."""
    loop = FinGraph(("y",), (("d", "y", "y"),), "y")
    return GraphMap(FinGraph(("a", "b"), (("e", "a", "b"),), "a"), loop,
                    {"a": "y", "b": "y"}, {"e": ("d", +1)})


FIXED = [interval_onto_loop()] + [getattr(corpus, name)() for name in (
    "wedge_fold", "retraction_fold", "collapse_fold", "double_cover",
    "triangle_with_tail_fold", "box_projection", "bad_fold_figure_eight",
    "two_sheets", "split_fibration", "tree_collapse")]


def with_fixed(test):
    for f in FIXED:
        test = example(f)(test)
    return test


@settings(deadline=None)
@with_fixed
@given(maps())
def test_pieces_match_a_fresh_union_find(f):
    assert f.pieces == ref_pieces(f)
    assert list(f.pieces) == list(f.source.vertices)
    assert f.pieces is f.pieces


@settings(deadline=None)
@given(graphs())
def test_component_map_is_cached_and_matches_a_fresh_union_find(g):
    cm = component_map(g)
    assert cm is component_map(g)
    assert cm == ref_union_find(g.vertices, [(u, v) for _, u, v in g.edges])
    assert list(cm) == list(g.vertices)


@contextmanager
def counted_darts():
    """Calls of FinGraph.darts made while the block runs."""
    calls = [0]
    darts = FinGraph.darts

    def counted(self, v):
        calls[0] += 1
        return darts(self, v)
    FinGraph.darts = counted
    try:
        yield calls
    finally:
        FinGraph.darts = darts


@settings(deadline=None)
@given(graphs())
def test_one_traversal_per_graph(g):
    # the shape reads the spanning forest of the one component pass, in
    # either order of calls, and never walks the darts itself
    g = FinGraph(g.vertices, g.edges, g.basepoint)
    with counted_darts() as calls:
        cm = component_map(g)
        walked = calls[0]
        shape = shape1(g)
    assert walked == len(g.vertices)
    assert calls[0] == walked
    assert shape.comp_of is cm
    g = FinGraph(g.vertices, g.edges, g.basepoint)
    shape1(g)
    with counted_darts() as calls:
        assert component_map(g) == cm
    assert calls[0] == 0


@settings(deadline=None)
@with_fixed
@given(maps())
def test_pi0_verdicts_match_the_fiber_route(f):
    assert _classify_pi0(f) == ref_classify_pi0(f)


@settings(deadline=None)
@with_fixed
@given(maps())
def test_pi1_connected_matches_the_fiber_route(f):
    assert classify(f).pi1.connected == Flag.of(ref_pi1_connected(f))


@settings(deadline=None)
@with_fixed
@given(maps())
def test_constant_fiber_criterion_matches_the_fiber_route(f):
    assert constant_fiber_criterion(f) == ref_constant_fiber_criterion(f)


@settings(deadline=None)
@with_fixed
@given(maps())
def test_factor0_pieces_match_the_piece_graph(f):
    X = f.source
    piece_of = component_map(FinGraph(
        X.vertices,
        tuple(t for t in X.edges if f.edge_map[t[0]] is None)))
    mid, left, right = factor0(f)
    assert left.vertex_map == piece_of
    assert mid.vertices == tuple(sorted(set(piece_of.values()),
                                        key=_sort_key))
    assert left.compose(right) == f


@settings(deadline=None)
@with_fixed
@given(maps())
def test_gamma_component_slices_match_a_component_scan(f):
    an = GammaAnalyzer(f)
    F = an.F
    S, T = F.src, F.dst
    over = {}
    for cb in S.components:
        over.setdefault(T.comp_of[F.obj[cb]], []).append(cb)
    assert an._over == over
    all_ranks = {}
    for cb, comp in S.components.items():
        data = an._data_for(cb)
        piece_of = ref_union_find(
            sorted(comp.vertices, key=_sort_key),
            [(u, v) for e, u, v in f.source.edges
             if u in comp.vertices and f.edge_map[e] is None])
        want = {}
        for x in f.source.vertices:
            if x in comp.vertices:
                want.setdefault(F.obj[x], {}).setdefault(
                    piece_of[x], []).append(x)
        assert data.pieces_over == want
        ranks = {p: 1 - sum(1 for x in comp.vertices if piece_of[x] == p)
                 for p in set(piece_of.values())}
        for e, u, v in f.source.edges:
            if u in comp.vertices and f.edge_map[e] is None:
                ranks[piece_of[u]] += 1
        assert {p: f.piece_ranks[p] for p in ranks} == ranks
        all_ranks.update(ranks)
    assert f.piece_ranks == all_ranks
    assert list(f.piece_ranks) == list(dict.fromkeys(f.pieces.values()))
    assert f.piece_ranks is f.piece_ranks


@settings(deadline=None)
@with_fixed
@given(maps())
def test_gamma_counts_match_the_incidence_graph(f):
    an = GammaAnalyzer(f)
    for comp in an.F.src.components.values():
        assert len(ref_incidence_classes(f, an.F, comp)) == 1
    for y in f.target.vertices:
        assert an.at_vertex(y) == ref_gamma_at_vertex(f, an.F, y), y


@settings(deadline=None)
@with_fixed
@given(maps())
def test_image_subgroup_is_folded_once_per_component(f):
    F = induce_functor(f)
    for comp in F.src.components.values():
        H = F.image_subgroup(comp.base)
        assert all(F.image_subgroup(x) is H for x in comp.vertices)
        fresh = SubgroupAutomaton.from_words(
            F.dst.letters_at(F.obj[comp.base]),
            [F.gen_images[l] for l in comp.letters])
        assert H.same(fresh)


@settings(deadline=None)
@given(modal_maps())
def test_etale_shape_route_matches_the_per_component_scan(f):
    F = induce_functor(f)
    over = {tb: [] for tb in F.dst.components}
    for cb in sorted(F.src.components, key=_sort_key):
        over[F.dst.comp_of[F.obj[cb]]].append(cb)
    assert _etale_shape_route(f, F, over) == \
        ref_etale_shape_route(f, F, over)


def test_comp_pairing_lists_are_sorted_and_distinct():
    f = triangles(5)
    _, _, over = _comp_pairing(f)
    for cs in over.values():
        assert cs == sorted(set(cs), key=_sort_key)


# ---------------------------------------------------------------------------
# scaling guards

def triangles(k):
    """k disjoint triangles, each mapped isomorphically onto cycle(3)."""
    verts = tuple((i, j) for i in range(k) for j in range(3))
    edges = tuple(((i, "e%d" % j), (i, j), (i, (j + 1) % 3))
                  for i in range(k) for j in range(3))
    X = FinGraph(verts, edges, (0, 0))
    return GraphMap(X, cycle(3), {(i, j): j for i, j in verts},
                    {e: (e[1], +1) for e, _, _ in edges})


def _timed_classify(f):
    t0 = time.perf_counter()
    c = classify(f)
    return c, time.perf_counter() - t0


def test_classify_of_many_disjoint_triangles_is_fast():
    c, took = _timed_classify(triangles(1600))
    assert c.as_dict() == classify(triangles(2)).as_dict()
    # a trivial 1600-sheeted cover: etale and a fibration at both
    # levels, with disconnected fibers and 1600 components over one
    for level in (c.pi0, c.pi1):
        assert level.modal.is_true and level.etale.is_true
        assert level.fibration.is_true
        assert level.connected.value == "false" \
            and level.equivalence.value == "false"
    assert took < 1.5


def test_classify_grows_linearly_in_the_number_of_components():
    ks = (100, 200, 400, 800, 1600, 3200)
    times = []
    # frozen objects are left out of collections, so a full collection
    # during a timed call does not scan the rest of the test session
    gc.freeze()
    try:
        for k in ks:
            f = triangles(k)
            times.append(min(_timed_classify(f)[1] for _ in range(3)))
    finally:
        gc.unfreeze()
    xs = [math.log(k) for k in ks]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    assert slope <= 1.2, (slope, times)
