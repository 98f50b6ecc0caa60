"""Seeded random graphs and graph maps.

`random_connected_graph` and `random_map` draw the small random maps of
the benchmark's graph-maps workload (`perfbench/bench_workloads.py`) and
of the tests.  They are deterministic given an explicit random.Random, so
every loop that uses them is replayable from its seed.  The fixed
example maps and the other generators of the tests are in
tests/lib_corpus.py.
"""

from .graphs import FinGraph, GraphMap

__all__ = ["random_connected_graph", "random_map"]


def random_connected_graph(rng, max_vertices=8, max_extra_edges=6):
    n = rng.randint(1, max_vertices)
    edges = []
    for i in range(1, n):
        edges.append(("t%d" % i, rng.randrange(i), i))
    m = rng.randint(0, max_extra_edges)
    for i in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append(("x%d" % i, u, v))
    return FinGraph(tuple(range(n)), tuple(edges), 0)


def random_map(rng, src, dst, tries=40):
    """A random graph map src -> dst.

    Rejection-samples vertex images until every edge has a compatible
    image; falls back to a constant map, which always exists since every
    vertex carries its degenerate loop.
    """
    darts_between = {}
    for eid in dst.edge_ids():
        for s in (+1, -1):
            a, b = dst.dart_ends(eid, s)
            darts_between.setdefault((a, b), []).append((eid, s))
    for _ in range(tries):
        vm = {v: rng.choice(dst.vertices) for v in src.vertices}
        em = {}
        ok = True
        for eid, u, v in src.edges:
            opts = list(darts_between.get((vm[u], vm[v]), []))
            if vm[u] == vm[v]:
                opts.append(None)
            if not opts:
                ok = False
                break
            em[eid] = rng.choice(opts)
        if ok:
            return GraphMap(src, dst, vm, em)
    c = rng.choice(dst.vertices)
    return GraphMap(src, dst, {v: c for v in src.vertices},
                    {e: None for e in src.edge_ids()})
