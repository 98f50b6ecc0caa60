"""Core graph machinery: maps, fibers, pullbacks, products, components.

The oracles here are deliberately naive: exhaustive map enumeration for
universal properties, bitmask subset search for components, direct
preimages for fibers.  The fast implementations must agree with them.
"""

import random

import pytest

from modalfib.graphs import (
    FinGraph, GraphMap, GraphError, DEG, fiber, pullback, product,
    terminal_map, pi0, component_map, point, bouquet, _composes_to, _sort_key,
)
from modalfib.corpus import random_map
from lib_corpus import random_graph
from lib_graphs import (cycle, disjoint_union, enumerate_graph_maps, flat,
                        graph_isomorphic, interval, is_discrete, path_graph,
                        pi0_by_definition, star)


# ---------------------------------------------------------------------------
# Construction and composition.

def test_graph_validation():
    with pytest.raises(GraphError):
        FinGraph((0, 1), (("e", 0, 2),))
    with pytest.raises(GraphError):
        FinGraph((0,), (("e", 0, 0), ("e", 0, 0)))
    with pytest.raises(GraphError):
        FinGraph((0,), (), basepoint=1)


def test_map_validation_catches_endpoint_mismatch():
    I = interval()
    C = cycle(3)
    with pytest.raises(GraphError):
        GraphMap(I, C, {0: 0, 1: 2}, {"e": ("e0", +1)})
    # degenerate image needs equal endpoint images
    with pytest.raises(GraphError):
        GraphMap(I, C, {0: 0, 1: 1}, {"e": None})
    # an edge id is not a vertex image
    with pytest.raises(GraphError):
        GraphMap(I, interval(), {0: "e", 1: "e"}, {"e": None})


def test_build_infers_sign():
    I = interval()
    C = cycle(3)
    f = GraphMap.build(I, C, {0: 1, 1: 0}, {"e": "e0"})
    assert f.edge_map["e"] == ("e0", -1)


def test_compose_associative_and_unital():
    rng = random.Random(901)
    for _ in range(40):
        a = random_graph(rng, 5, 6)
        b = random_graph(rng, 5, 6)
        c = random_graph(rng, 5, 6)
        d = random_graph(rng, 5, 6)
        f = random_map(rng, a, b)
        g = random_map(rng, b, c)
        h = random_map(rng, c, d)
        lhs = f.compose(g).compose(h)
        rhs = f.compose(g.compose(h))
        assert lhs.vertex_map == rhs.vertex_map
        assert lhs.edge_map == rhs.edge_map
        ida = GraphMap.identity(a)
        idb = GraphMap.identity(b)
        assert ida.compose(f).edge_map == f.edge_map
        assert f.compose(idb).edge_map == f.edge_map


def test_composes_to_agrees_with_compose_on_random_maps():
    rng = random.Random(907)
    for _ in range(40):
        a = random_graph(rng, 5, 6)
        b = random_graph(rng, 5, 6)
        c = random_graph(rng, 5, 6)
        f = random_map(rng, a, b)
        g = random_map(rng, b, c)
        for h in (f.compose(g), random_map(rng, a, c)):
            assert _composes_to(f, g, h) == (f.compose(g) == h)


def test_composes_to_rejects_each_kind_of_mismatch():
    c4 = cycle(4)

    def rot(k):
        return GraphMap.build(c4, c4, {i: (i + k) % 4 for i in range(4)},
                              {"e%d" % i: "e%d" % ((i + k) % 4)
                               for i in range(4)})

    assert _composes_to(rot(1), rot(1), rot(2))
    assert _composes_to(rot(1), terminal_map(c4), terminal_map(c4))
    # a vertex image
    assert not _composes_to(rot(1), rot(1), rot(3))
    # an edge id: the two parallel edges swapped, every vertex fixed
    two = FinGraph((0, 1), (("a", 0, 1), ("b", 0, 1)))
    ident = GraphMap.identity(two)
    swap = GraphMap(two, two, {0: 0, 1: 1}, {"a": ("b", 1), "b": ("a", 1)})
    assert _composes_to(swap, swap, ident)
    assert not _composes_to(ident, ident, swap)
    # an edge sign: the loop reversed, its vertex fixed
    loop = bouquet(1)
    one = GraphMap.identity(loop)
    flip = GraphMap(loop, loop, {"w": "w"}, {"l0": ("l0", -1)})
    assert _composes_to(flip, flip, one)
    assert not _composes_to(one, one, flip)
    assert not _composes_to(flip, one, one)


def test_dart_image_respects_reversal():
    rng = random.Random(902)
    for _ in range(30):
        a = random_graph(rng, 5, 6)
        b = random_graph(rng, 5, 6)
        f = random_map(rng, a, b)
        for eid in a.edge_ids():
            plus = f.dart_image(eid, +1)
            minus = f.dart_image(eid, -1)
            if plus[0] == "r":
                # degenerate either way, and at the same vertex
                assert minus[0] == "r" and minus[1] == plus[1]
            else:
                assert minus == ("e", plus[1], -plus[2])


# ---------------------------------------------------------------------------
# Components.

def naive_pi0(g):
    return pi0_by_definition(g, bound=12)


def test_pi0_matches_definition_on_random_graphs():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng, max_vertices=7, max_edges=8)
        assert set(pi0(g)) == set(naive_pi0(g))


def test_pi0_disjoint_union_adds():
    rng = random.Random(102)
    for _ in range(30):
        a = random_graph(rng, 5, 5)
        b = random_graph(rng, 5, 5)
        assert len(pi0(disjoint_union(a, b))) == len(pi0(a)) + len(pi0(b))


def test_component_map_constant_on_edges():
    rng = random.Random(103)
    graphs = [random_graph(rng, 7, 9) for _ in range(30)]
    # mixed int, str and (nested) tuple ids
    graphs += [disjoint_union(star(3), random_graph(rng, 7, 8))
               for _ in range(15)]
    graphs.append(disjoint_union(disjoint_union(star(2), point()), cycle(3)))
    for g in graphs:
        cm = component_map(g)
        for _, u, v in g.edges:
            assert cm[u] == cm[v]
        for K in pi0_by_definition(g):
            least = min(K, key=_sort_key)
            assert all(cm[v] == least for v in K)


def test_pi0_known_counts():
    assert len(pi0(cycle(5))) == 1
    assert len(pi0(flat(cycle(5))[0])) == 5
    assert len(pi0(star(4))) == 1
    two = disjoint_union(cycle(3), point())
    assert len(pi0(two)) == 2


def test_pi0_by_definition_refuses_large_graphs():
    g = FinGraph(tuple(range(13)), ())
    with pytest.raises(GraphError):
        pi0_by_definition(g)


# ---------------------------------------------------------------------------
# Discreteness via path counting.

def test_map_count_from_interval():
    # maps out of the interval = one per dart plus one per vertex
    rng = random.Random(104)
    I = interval()
    for _ in range(25):
        g = random_graph(rng, 5, 6)
        n = len(enumerate_graph_maps(I, g))
        assert n == len(g.vertices) + 2 * len(g.edges)
        assert is_discrete(g) == (n == len(g.vertices))


def test_flat_is_discrete_and_counit_covers_vertices():
    g = cycle(4)
    fg, counit = flat(g)
    assert is_discrete(fg)
    assert set(counit.vertex_map.values()) == set(g.vertices)


# ---------------------------------------------------------------------------
# Fibers.

def test_fiber_is_preimage():
    rng = random.Random(105)
    for _ in range(40):
        a = random_graph(rng, 6, 7)
        b = random_graph(rng, 4, 4)
        f = random_map(rng, a, b)
        for y in b.vertices:
            fib = fiber(f, y)
            want_vs = {x for x in a.vertices if f.vertex_map[x] == y}
            assert set(fib.subgraph.vertices) == want_vs
            for eid, u, v in fib.subgraph.edges:
                assert f.edge_map[eid] is None
                assert u in want_vs and v in want_vs
            # nothing degenerate over y is missed
            for eid, u, v in a.edges:
                if f.edge_map[eid] is None and f.vertex_map[u] == y:
                    assert eid in fib.subgraph.ends


def test_fiber_agrees_with_pullback_along_point():
    rng = random.Random(106)
    pt = point()
    for _ in range(30):
        a = random_graph(rng, 5, 6)
        b = random_graph(rng, 4, 4)
        f = random_map(rng, a, b)
        for y in b.vertices:
            g = GraphMap(pt, b, {"pt": y}, {})
            P, p1, _ = pullback(f, g)
            fib = fiber(f, y)
            assert len(P.vertices) == len(fib.subgraph.vertices)
            assert len(P.edges) == len(fib.subgraph.edges)
            assert graph_isomorphic(P, fib.subgraph)


# ---------------------------------------------------------------------------
# Pullbacks and products: universal property by counting.

SMALL_TESTERS = None


def small_testers():
    global SMALL_TESTERS
    if SMALL_TESTERS is None:
        SMALL_TESTERS = [point(), interval(), cycle(3), cycle(1),
                         FinGraph((0, 1), (("e0", 0, 1), ("e1", 0, 1)))]
    return SMALL_TESTERS


def count_cones(T, f, g):
    """Pairs (p : T -> X, q : T -> Y) agreeing in the common target."""
    n = 0
    for p in enumerate_graph_maps(T, f.source):
        pf = p.compose(f)
        for q in enumerate_graph_maps(T, g.source):
            qg = q.compose(g)
            if pf.vertex_map == qg.vertex_map and pf.edge_map == qg.edge_map:
                n += 1
    return n


def test_pullback_universal_property_counts():
    rng = random.Random(107)
    for _ in range(12):
        z = random_graph(rng, 3, 3)
        x = random_graph(rng, 3, 3)
        y = random_graph(rng, 3, 3)
        f = random_map(rng, x, z)
        g = random_map(rng, y, z)
        P, p1, p2 = pullback(f, g)
        # projections really form a cone
        a = p1.compose(f)
        b = p2.compose(g)
        assert a.vertex_map == b.vertex_map and a.edge_map == b.edge_map
        for T in small_testers():
            maps_in = enumerate_graph_maps(T, P)
            # factoring through projections is injective on maps into P
            seen = set()
            for h in maps_in:
                key = (tuple(sorted(h.compose(p1).vertex_map.items())),
                       tuple(sorted((k, v) for k, v in h.compose(p1).edge_map.items())),
                       tuple(sorted(h.compose(p2).vertex_map.items())),
                       tuple(sorted((k, v) for k, v in h.compose(p2).edge_map.items())))
                assert key not in seen
                seen.add(key)
            assert len(maps_in) == count_cones(T, f, g)


def test_product_universal_property_counts():
    rng = random.Random(108)
    for _ in range(10):
        a = random_graph(rng, 3, 3)
        b = random_graph(rng, 3, 3)
        P, fst, snd = product(a, b)
        for T in small_testers():
            assert len(enumerate_graph_maps(T, P)) == \
                len(enumerate_graph_maps(T, a)) * len(enumerate_graph_maps(T, b))


def test_square_is_box_with_diagonals():
    # interval x interval, bit-exact convention
    P, fst, snd = product(interval(), interval())
    assert len(P.vertices) == 4
    assert len(P.edges) == 6
    ends = sorted(tuple(sorted((u, v))) for _, u, v in P.edges)
    assert ends.count(((0, 0), (1, 1))) == 1      # diagonal
    assert ends.count(((0, 1), (1, 0))) == 1      # antidiagonal
    assert ends.count(((0, 0), (0, 1))) == 1
    assert ends.count(((1, 0), (1, 1))) == 1
    assert ends.count(((0, 0), (1, 0))) == 1
    assert ends.count(((0, 1), (1, 1))) == 1
    # projections hit every vertex of each factor
    assert set(fst.vertex_map.values()) == {0, 1}
    assert set(snd.vertex_map.values()) == {0, 1}


def test_product_with_point_is_identity_shape():
    for g in [cycle(3), star(2), bouquet(2)]:
        P, _, _ = product(g, point())
        assert graph_isomorphic(P, g)


def test_pullback_symmetric():
    rng = random.Random(109)
    for _ in range(15):
        z = random_graph(rng, 3, 3)
        x = random_graph(rng, 3, 3)
        y = random_graph(rng, 3, 3)
        f = random_map(rng, x, z)
        g = random_map(rng, y, z)
        P1, _, _ = pullback(f, g)
        P2, _, _ = pullback(g, f)
        assert len(P1.vertices) == len(P2.vertices)
        assert len(P1.edges) == len(P2.edges)
        assert graph_isomorphic(P1, P2)


def test_pullback_of_disjoint_points_is_empty():
    # two different points of the interval have nothing in common
    I = interval()
    pt = point()
    f = GraphMap(pt, I, {"pt": 0}, {})
    g = GraphMap(pt, I, {"pt": 1}, {})
    P, _, _ = pullback(f, g)
    assert len(P.vertices) == 0 and len(P.edges) == 0


@pytest.mark.parametrize("call", [
    "GraphMap(pt, I, {'pt': 0}, {}).compose(terminal_map(J))",
    "pullback(GraphMap(pt, I, {'pt': 0}, {}), GraphMap(pt, J, {'pt': 0}, {}))",
])
def test_mismatched_maps_rejected_without_asserts(call, run_optimized):
    # J is the interval plus an isolated vertex: the tables line up, so
    # only the check itself can refuse, and it holds under python -O
    run = run_optimized(
        "from modalfib.graphs import FinGraph, GraphMap, GraphError, "
        "pullback, point, terminal_map\n"
        "from lib_graphs import interval\n"
        "pt, I = point(), interval()\n"
        "J = FinGraph((0, 1, 2), (('e', 0, 1),))\n"
        "try:\n    %s\nexcept GraphError:\n    print('rejected')\n" % call)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"


def test_cycle_rejects_no_vertices_without_asserts(run_optimized):
    run = run_optimized(
        "from modalfib.graphs import GraphError\n"
        "from lib_graphs import cycle\n"
        "try:\n    cycle(0)\nexcept GraphError:\n    print('rejected')\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"


# ---------------------------------------------------------------------------
# Isomorphism testing sanity.

def test_graph_isomorphic_basic():
    c3 = cycle(3)
    relabeled = FinGraph(("x", "y", "z"),
                         (("p", "x", "y"), ("q", "y", "z"), ("r", "z", "x")))
    assert graph_isomorphic(c3, relabeled)
    assert not graph_isomorphic(c3, path_graph(3))
    assert graph_isomorphic(bouquet(1), cycle(1))
    assert not graph_isomorphic(bouquet(2), cycle(2))


def test_terminal_map_and_stock_shapes():
    for g in [cycle(4), star(3), bouquet(2)]:
        t = terminal_map(g)
        assert set(t.vertex_map.values()) == {"pt"}
        assert all(v is None for v in t.edge_map.values())
    assert len(star(3).edges) == 3
    assert len(path_graph(4).edges) == 3
    assert len(bouquet(3).edges) == 3
