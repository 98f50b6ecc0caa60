"""Named example spaces and maps, plus seeded random generators.

The fixtures here are the recurring characters of the test suite: folds,
covers, collapses, and small mixed cases whose classification is known by
hand.  The random generators are deterministic given an explicit
random.Random, so every property loop in the tests is replayable from its
seed.  `modalfib.corpus` keeps the two generators that the benchmark
also draws from, `random_connected_graph` and `random_map`.
"""

from modalfib.graphs import (
    FinGraph, GraphMap, bouquet, point, product, terminal_map,
)
from lib_graphs import cycle, disjoint_union, interval, path_graph, star


def circle():
    """Canonical circle: the 3-cycle (no loops, no parallel edges)."""
    return cycle(3)


def loop():
    """One vertex with one loop; the compact circle used as covering base."""
    return cycle(1)


def figure_eight():
    """Two loops on one vertex."""
    return bouquet(2)


def wedge_fold():
    """Two intervals glued at a point, folded onto one interval.

    Ramified at the far endpoint: the fiber there is two points while the
    fiber over the glue point is one, so the fiber shape jumps.
    """
    src = star(2)
    dst = interval()
    return GraphMap.build(src, dst,
                          {"c": 0, 0: 1, 1: 1},
                          {"a0": "e", "a1": "e"})


def retraction_fold():
    """Two intervals glued at a point, retracted onto one of them.

    One arm maps onto the edge, the other collapses to the near endpoint.
    Every fiber is a nonempty tree and exactly one edge sits over the
    target edge, so the map is connected in the strongest sense.
    """
    src = star(2)
    dst = interval()
    return GraphMap.build(src, dst,
                          {"c": 0, 0: 0, 1: 1},
                          {"a0": None, "a1": "e"})


def collapse_fold():
    """A cross collapsed onto its horizontal axis.

    The vertical arms land on the middle vertex.  Every fiber is a
    nonempty tree, and the map is a fibration.
    """
    src = FinGraph(("c", "l", "r", "u", "d"),
                   (("h0", "l", "c"), ("h1", "c", "r"),
                    ("v0", "u", "c"), ("v1", "c", "d")), "c")
    dst = path_graph(3)
    return GraphMap.build(src, dst,
                          {"c": 1, "l": 0, "r": 2, "u": 1, "d": 1},
                          {"h0": "e0", "h1": "e1", "v0": None, "v1": None})


def double_cover():
    """The connected double cover of the 3-cycle: the 6-cycle wrapping twice."""
    src = cycle(6)
    dst = cycle(3)
    vm = {i: i % 3 for i in range(6)}
    em = {"e%d" % i: "e%d" % (i % 3) for i in range(6)}
    return GraphMap.build(src, dst, vm, em)


def triangle_with_tail_fold():
    """Triangle plus a tail edge, mapped to an interval.

    The triangle collapses to one endpoint, the tail maps onto the edge.
    The fiber over the collapse point carries the loop; the fiber over the
    other endpoint is a bare point, which breaks the fibration condition
    there.
    """
    src = FinGraph(("a", "b", "c", "d"),
                   (("t0", "a", "b"), ("t1", "b", "c"), ("t2", "c", "a"),
                    ("tail", "c", "d")))
    dst = interval()
    return GraphMap.build(src, dst,
                          {"a": 0, "b": 0, "c": 0, "d": 1},
                          {"t0": None, "t1": None, "t2": None, "tail": "e"})


def box_projection():
    """First projection of interval x interval (box with both diagonals)."""
    P, fst, _ = product(interval(), interval())
    return fst


def bad_fold_figure_eight():
    """Both loops of the figure eight wrapped onto the single loop.

    Surjective on fundamental groups but far from injective; the fiber
    over the base vertex is a single point.
    """
    src = figure_eight()
    dst = loop()
    return GraphMap.build(src, dst,
                          {"w": 0},
                          {"l0": ("e0", +1), "l1": ("e0", +1)})


def two_sheets():
    """Two disjoint copies of the interval over one interval."""
    src = disjoint_union(interval(), interval())
    dst = interval()
    vm = {(t, v): v for (t, v) in src.vertices}
    em = {e: ("e", +1) for e in src.edge_ids()}
    return GraphMap.build(src, dst, vm, em)


def split_fibration():
    """A fibration whose fiber shape differs between target components.

    A point over the first component, a circle over the second.
    """
    src = disjoint_union(point(), cycle(3))
    dst = disjoint_union(point("p"), point("q"))
    vm = {}
    for (t, v) in src.vertices:
        vm[(t, v)] = (0, "p") if t == 0 else (1, "q")
    em = {e: None for e in src.edge_ids()}
    return GraphMap.build(src, dst, vm, em)


def tree_collapse():
    """A star collapsed to a point: connected at both levels."""
    return terminal_map(star(3))


# ---------------------------------------------------------------------------
# Seeded random generators.

def random_graph(rng, max_vertices=8, max_edges=10):
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    edges = []
    for i in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append(("e%d" % i, u, v))
    return FinGraph(tuple(range(n)), tuple(edges), 0)


def random_permutation(rng, n):
    """Permutation of 1..n as a dict."""
    xs = list(range(1, n + 1))
    rng.shuffle(xs)
    return {i + 1: xs[i] for i in range(n)}


def random_words(rng, rank, count, max_len=6):
    """Random reduced words in a free group of the given rank.

    Words are tuples of (generator_index, sign) letters.
    """
    out = []
    for _ in range(count):
        L = rng.randint(1, max_len)
        word = []
        for _ in range(L):
            while True:
                letter = (rng.randrange(rank), rng.choice((+1, -1)))
                if word and word[-1] == (letter[0], -letter[1]):
                    continue
                break
            word.append(letter)
        out.append(tuple(word))
    return out
