"""Graph oracles and stock graphs that only the tests use.

The oracles decide by brute force what `modalfib.graphs` decides by its
own passes: components from detachable subsets (`pi0_by_definition`),
isomorphism (`graph_isomorphic`) and every map between two graphs
(`enumerate_graph_maps`).  Kept beside the tests, no module of the
package can come to call them, so they stay independent of it.
"""

from itertools import product as iproduct

from modalfib.graphs import (FinGraph, GraphError, GraphMap, _least_id,
                             _sorted_ids)


def pi0_by_definition(g, bound=12):
    """Components straight from the defining properties.

    A subset of vertices is detachable when no edge crosses between it
    and its complement; detachable subsets play the role of propositions
    on the space (a proposition is constant on any edge).  A component is
    then a subset that is inhabited, detachable, and connected: it meets
    every detachable subset in nothing or in all of itself.

    Enumerates subsets as bitmasks, so it refuses graphs with more than
    `bound` vertices (default 12).
    """
    n = len(g.vertices)
    if n > bound:
        raise GraphError("pi0_by_definition limited to %d vertices, got %d"
                         % (bound, n))
    idx = {v: i for i, v in enumerate(g.vertices)}
    full = (1 << n) - 1
    edge_masks = [(1 << idx[u]) | (1 << idx[v]) for _, u, v in g.edges]

    def detachable(mask):
        comp = full & ~mask
        for em in edge_masks:
            if (em & mask) and (em & comp):
                return False
        return True

    detachables = [m for m in range(full + 1) if detachable(m)]
    out = []
    for c in detachables:
        if c == 0:
            continue
        if all((c & p) == c or (c & p) == 0 for p in detachables):
            out.append(frozenset(v for v in g.vertices if c & (1 << idx[v])))
    least = {_least_id(c): c for c in out}      # components are disjoint
    return tuple(least[v] for v in _sorted_ids(least))


def flat(g):
    """Underlying point-set: same vertices, no edges.  Returns (flat, counit)."""
    fg = FinGraph(g.vertices, (), g.basepoint)
    counit = GraphMap(fg, g, {v: v for v in fg.vertices}, {})
    return fg, counit


def is_discrete(g):
    """A graph is discrete iff it has no edges.

    Cross-checkable against the path criterion: the number of maps from
    the interval equals the number of vertices exactly when no edge gives
    the interval anywhere non-trivial to go (see tests).
    """
    return len(g.edges) == 0


def enumerate_graph_maps(a, b):
    """All GraphMaps a -> b, by brute force.

    Vertex images are chosen freely; each edge then takes every
    compatible image: any dart of b with matching endpoints, plus the
    degenerate image when the endpoints coincide.
    """
    avs = list(a.vertices)
    out = []
    bdarts = {}
    for v in b.vertices:
        bdarts[v] = {}
    for eid in b.edge_ids():
        for s in (+1, -1):
            t, h = b.dart_ends(eid, s)
            bdarts[t].setdefault(h, []).append((eid, s))
    for images in iproduct(b.vertices, repeat=len(avs)):
        vm = dict(zip(avs, images))
        options = []
        for eid, u, v in a.edges:
            opts = list(bdarts[vm[u]].get(vm[v], []))
            if vm[u] == vm[v]:
                opts.append(None)
            options.append(opts)
        for combo in iproduct(*options):
            em = dict(zip(a.edge_ids(), combo))
            out.append(GraphMap(a, b, vm, em))
    return out


def graph_isomorphic(a, b):
    """Brute-force isomorphism test for small graphs (ignores basepoints)."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False

    def profile(g):
        deg = {v: 0 for v in g.vertices}
        loops = {v: 0 for v in g.vertices}
        for _, u, v in g.edges:
            if u == v:
                loops[u] += 1
            else:
                deg[u] += 1
                deg[v] += 1
        return deg, loops

    dega, loopa = profile(a)
    degb, loopb = profile(b)
    if sorted(dega.values()) != sorted(degb.values()):
        return False
    if sorted(loopa.values()) != sorted(loopb.values()):
        return False

    def multiset(g, vm=None):
        out = {}
        for _, u, v in g.edges:
            if vm is not None:
                u, v = vm[u], vm[v]
            key = tuple(_sorted_ids((u, v)))
            out[key] = out.get(key, 0) + 1
        return out

    target = multiset(b)
    from itertools import permutations
    bvs = list(b.vertices)
    avs = list(a.vertices)
    for perm in permutations(bvs):
        vm = dict(zip(avs, perm))
        if any(dega[x] != degb[vm[x]] or loopa[x] != loopb[vm[x]] for x in avs):
            continue
        if multiset(a, vm) == target:
            return True
    return False


# ---------------------------------------------------------------------------
# Stock graphs.

def interval():
    """The generator of paths: two vertices, one edge."""
    return FinGraph((0, 1), (("e", 0, 1),), 0)


def cycle(k):
    if k < 1:
        raise GraphError("a cycle needs k >= 1 vertices, got %r" % (k,))
    verts = tuple(range(k))
    edges = tuple(("e%d" % i, i, (i + 1) % k) for i in range(k))
    return FinGraph(verts, edges, 0)


def path_graph(k):
    """Path with k vertices 0..k-1."""
    verts = tuple(range(k))
    edges = tuple(("e%d" % i, i, i + 1) for i in range(k - 1))
    return FinGraph(verts, edges, 0)


def star(arms):
    """Star with a center 'c' and numbered arm tips."""
    verts = ("c",) + tuple(range(arms))
    edges = tuple(("a%d" % i, "c", i) for i in range(arms))
    return FinGraph(verts, edges, "c")


def disjoint_union(a, b):
    """Disjoint union, tagging ids with 0 and 1."""
    verts = tuple((0, v) for v in a.vertices) + tuple((1, v) for v in b.vertices)
    edges = tuple(((0, e), (0, u), (0, v)) for e, u, v in a.edges) + \
        tuple(((1, e), (1, u), (1, v)) for e, u, v in b.edges)
    bp = (0, a.basepoint) if a.basepoint is not None else None
    return FinGraph(verts, edges, bp)
