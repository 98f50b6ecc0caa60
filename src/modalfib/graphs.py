"""Finite reflexive graphs as combinatorial spaces.

A FinGraph is a finite undirected multigraph with stable edge ids.  Loops
and parallel edges are allowed.  Every vertex implicitly carries a
degenerate (reflexive) loop, which never appears in the edge list but is
available as the image of an edge under a GraphMap.  This makes the maps
exactly the reflexive-graph maps: an edge may land on an edge or collapse
to a vertex.

Orientation convention.  Edges are undirected, but each edge stores its
endpoints as an ordered pair (tail, head); that order is the canonical
orientation, used whenever an edge must be read as a path segment.  A dart
is a pair (edge_id, sign) with sign +1 for tail->head and -1 for the
reverse.

Product convention (documented bit-exactly).  product(a, b) is the
categorical product in reflexive graphs, computed dart-wise:

  * vertices are the pairs (u, v);
  * for every edge e of `a` and vertex v of `b` there is an edge
    ((e, +1), ('r', v)) joining (tail e, v) -- (head e, v);
  * symmetrically (('r', u), (e', +1)) for u in `a`, e' an edge of `b`;
  * for every pair of edges e, e' there are TWO edges, the aligned pair
    ((e, +1), (e', +1)) and the anti-aligned pair ((e, +1), (e', -1)),
    i.e. a box with both diagonals.

So the product of two one-edge intervals has 4 vertices and 6 edges:
the 4-cycle plus both diagonals.  Edge ids of products and pullbacks are
the canonical dart pairs themselves.
"""

from dataclasses import dataclass

__all__ = [
    "InputError", "GraphError", "FinGraph", "GraphMap", "VertexFiber", "DEG",
    "fiber", "pullback", "product", "terminal_map",
    "pi0", "component_map", "point", "bouquet",
]

# Marker for a degenerate edge image in GraphMap.build inputs.
DEG = "deg"


class InputError(ValueError):
    """An input that a constructor rejects, and the base of each module's
    error for one.  `subject` names the offending id as a (kind, id)
    pair, as ("vertex", 7), or is None."""

    def __init__(self, message, subject=None):
        super().__init__(message)
        self.subject = subject


class GraphError(InputError):
    """A graph or graph map that breaks its invariants."""


def _sort_key(x):
    # Vertex and edge ids may be ints, strings, or nested tuples of those;
    # a single graph may mix them (disjoint unions tag with ints).
    if isinstance(x, tuple):
        return (2, tuple(_sort_key(y) for y in x))
    if isinstance(x, str):
        return (1, x)
    return (0, x)


def _sorted_ids(xs):
    """sorted(xs, key=_sort_key), sorting by natural `<` where it can.

    Exact: Timsort uses only `<`, and wherever Python's `<` on ints, strs
    and nested tuples does not raise, it answers as `_sort_key` does --
    tuples compare at the first element that differs, and any int/str/
    tuple mix there raises.  So when the natural sort finishes it made the
    same comparisons with the same outcomes, and returns the same list.
    When it raises, `sorted` worked on a copy and the keyed sort starts
    over from xs, which must therefore be a collection, not an iterator.
    """
    try:
        return sorted(xs)
    except TypeError:
        return sorted(xs, key=_sort_key)


def _least_id(xs):
    """min(xs, key=_sort_key), by natural `<` where it can; exact for the
    reason given in `_sorted_ids`, since `min` also uses only `<`."""
    try:
        return min(xs)
    except TypeError:
        return min(xs, key=_sort_key)


class _memo:
    """A method read as an attribute, built on the first read and kept.

    The first read stores the method's result on the instance under its
    name with `object.__setattr__`, so frozen dataclasses take it too;
    with no `__set__` here, the instance attribute then shadows the
    descriptor and every later read is a plain attribute read.  Not
    `functools.cached_property`: it stores through `__dict__`, and on
    CPython 3.11 that turns the instance's inline attribute values into
    a dict and makes every other attribute read on it slower (about 2x
    by timeit).  Readers share the result: read it, do not change it."""

    __slots__ = ("fn", "name")

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


@dataclass(frozen=True)
class FinGraph:
    """Finite undirected multigraph with stable edge ids.

    vertices: tuple of vertex ids (deduped, sorted).
    edges: tuple of (edge_id, tail, head) triples, sorted by edge id.
    basepoint: optional distinguished vertex.
    vertex_set, edge_set: the vertex ids and the edge ids as frozensets.
    """

    vertices: tuple
    edges: tuple
    basepoint: object = None

    def __post_init__(self):
        vs = tuple(_sorted_ids(set(self.vertices)))
        object.__setattr__(self, "vertices", vs)
        vset = frozenset(vs)
        object.__setattr__(self, "vertex_set", vset)
        seen = set()
        es = []
        for eid, u, v in self.edges:
            if eid in seen:
                raise GraphError("duplicate edge id %r" % (eid,))
            seen.add(eid)
            if u not in vset or v not in vset:
                raise GraphError("edge %r has endpoint outside vertex set" % (eid,))
            es.append((eid, u, v))
        # Edge ids are distinct, so the triples compare at their ids.
        object.__setattr__(self, "edges", tuple(_sorted_ids(es)))
        object.__setattr__(self, "edge_set", frozenset(seen))
        if self.basepoint is not None and self.basepoint not in vset:
            raise GraphError("basepoint %r is not a vertex" % (self.basepoint,))

    @_memo
    def ends(self):
        """dict edge id -> (tail, head)."""
        return {eid: (u, v) for eid, u, v in self.edges}

    @_memo
    def _edge_ids(self):
        return tuple(eid for eid, _, _ in self.edges)

    def edge_ids(self):
        return self._edge_ids

    @_memo
    def _adjacency(self):
        """dict vertex -> the darts leaving it, as `darts` gives them."""
        lists = {u: [] for u in self.vertices}
        for eid, a, b in self.edges:
            lists[a].append((eid, +1, b))
            lists[b].append((eid, -1, a))
        return {u: tuple(ds) for u, ds in lists.items()}

    def darts(self, v):
        """All darts leaving v, as a tuple of (edge_id, sign, other_end)
        triples in edge order.

        A loop at v contributes both its darts, +1 first.  The adjacency
        index behind this is built on the first call.
        """
        return self._adjacency.get(v, ())

    @_memo
    def _forest(self):
        """(component map, spanning forest), from the one component
        pass: a breadth-first search from each vertex not yet reached, in
        vertex order, reading darts in `darts` order, so each start is
        its component's least vertex and stands for it in the map.  The
        forest sends each vertex to the tree dart (eid, sign) that first
        reached it, None at each start, in BFS order, one component
        after another."""
        cm = dict.fromkeys(self.vertices)
        parent = {}
        for start in self.vertices:
            if start in parent:
                continue
            parent[start] = None
            cm[start] = start
            queue = [start]
            for v in queue:
                # darts come in edge order, which is edge-id order, with
                # +1 before -1 on a loop: the lowest-id-first order of
                # the BFS
                for eid, sign, other in self.darts(v):
                    if other not in parent:
                        parent[other] = (eid, sign)
                        cm[other] = start
                        queue.append(other)
        return cm, parent

    def dart_ends(self, eid, sign):
        u, v = self.ends[eid]
        return (u, v) if sign == +1 else (v, u)

    def __repr__(self):
        return "FinGraph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))


@dataclass(frozen=True)
class GraphMap:
    """Reflexive-graph map.

    vertex_map: dict vertex -> vertex.
    edge_map: dict edge_id -> (edge_id', sign) or None for a degenerate
    image.  The pair means: the canonical dart of the source edge lands on
    the dart (edge_id', sign) of the target.
    """

    source: FinGraph
    target: FinGraph
    vertex_map: dict
    edge_map: dict

    def __post_init__(self):
        vm, em = self.vertex_map, self.edge_map
        src = self.source
        tverts = self.target.vertex_set
        for x in src.vertices:
            if x not in vm:
                raise GraphError("vertex %r has no image" % (x,), ("vertex", x))
            if vm[x] not in tverts:
                raise GraphError("vertex image %r is not in target" % (vm[x],),
                                 ("vertex", x))
        # every source vertex is a key, so a longer dict has a foreign key
        if len(vm) != len(src.vertices):
            x = next(x for x in vm if x not in src.vertex_set)
            raise GraphError("vertex %r not in source" % (x,), ("vertex", x))
        tends = self.target.ends
        for eid, u, v in src.edges:
            if eid not in em:
                raise GraphError("edge %r has no image" % (eid,), ("edge", eid))
            img = em[eid]
            if img is None:
                if vm[u] != vm[v]:
                    raise GraphError(
                        "edge %r collapses but endpoints map to %r != %r"
                        % (eid, vm[u], vm[v]), ("edge", eid))
            else:
                if not (isinstance(img, tuple) and len(img) == 2):
                    raise GraphError("edge %r has image %r, not an (edge, "
                                     "sign) pair" % (eid, img), ("edge", eid))
                e2, s = img
                if e2 not in tends:
                    raise GraphError("edge image %r not in target" % (e2,),
                                     ("edge", eid))
                if s != 1 and s != -1:
                    raise GraphError("edge %r has sign %r, not +1 or -1"
                                     % (eid, s), ("edge", eid))
                # the image dart runs tail -> head for +1, head -> tail
                # for -1
                ends = (vm[u], vm[v]) if s == 1 else (vm[v], vm[u])
                if ends != tends[e2]:
                    a, b = self.target.dart_ends(e2, s)
                    raise GraphError(
                        "edge %r endpoints map to (%r,%r), image dart has (%r,%r)"
                        % (eid, vm[u], vm[v], a, b), ("edge", eid))
        if len(em) != len(src.edges):
            x = next(x for x in em if x not in src.edge_set)
            raise GraphError("edge %r not in source" % (x,), ("edge", x))

    @staticmethod
    def build(source, target, vertex_map, edge_map):
        """Normalizing constructor.

        edge_map values may be a bare edge id (sign inferred, +1 preferred
        when ambiguous), an (edge_id, sign) pair, None, or the string
        "deg" for a degenerate image.  The GraphMap constructor checks
        the result.
        """
        vm = dict(vertex_map)
        em = dict(edge_map)
        for eid, u, v in source.edges:
            if eid not in em:
                continue
            img = em[eid]
            if img is None or img == DEG:
                em[eid] = None
            elif not (isinstance(img, tuple) and len(img) == 2
                      and img[1] in (+1, -1)):
                # -1 only when just the reverse dart fits; a dart that fits
                # neither way is left for the constructor to reject
                ends = (vm.get(u), vm.get(v))
                rev = img in target.ends and target.dart_ends(img, +1) != ends \
                    and target.dart_ends(img, -1) == ends
                em[eid] = (img, -1 if rev else +1)
        return GraphMap(source, target, vm, em)

    @staticmethod
    def identity(g):
        return GraphMap(g, g, {v: v for v in g.vertices},
                        {e: (e, +1) for e in g.edge_ids()})

    @_memo
    def preimages(self):
        """dict target vertex y -> (source vertices over y, collapsed
        source edges over y), both in source order."""
        vm = self.vertex_map
        index = {y: ([], []) for y in self.target.vertices}
        for x in self.source.vertices:
            index[vm[x]][0].append(x)
        for e, u, v in self.source.edges:
            if self.edge_map[e] is None:
                index[vm[u]][1].append((e, u, v))
        return index

    @_memo
    def pieces(self):
        """dict source vertex -> least vertex of its piece, in source
        order.  A piece is a component of the subgraph of collapsed
        edges, so it lies in one fiber, and the pieces over y are the
        components of the fiber over y."""
        # source vertices are sorted, so each root is its piece's least
        # vertex
        uf = _Classes(self.source.vertices)
        em = self.edge_map
        for e, u, v in self.source.edges:
            if em[e] is None:
                uf.union(u, v)
        return uf.roots()

    @_memo
    def piece_ranks(self):
        """dict piece -> its cycle rank, |edges| - |vertices| + 1, in
        source order."""
        pieces = self.pieces
        ranks = {}
        for p in pieces.values():
            ranks[p] = ranks.get(p, 1) - 1
        for e, u, _ in self.source.edges:
            if self.edge_map[e] is None:
                ranks[pieces[u]] += 1
        return ranks

    @_memo
    def pieces_over(self):
        """dict target vertex y -> the pieces over y, each named by its
        least vertex, in source order."""
        vm = self.vertex_map
        out = {y: [] for y in self.target.vertices}
        for x, p in self.pieces.items():
            if x == p:
                out[vm[x]].append(p)
        return out

    @_memo
    def edges_over(self):
        """dict target edge -> the (source edge, sign) pairs over it, in
        source order."""
        em = self.edge_map
        out = {d: [] for d in self.target.edge_ids()}
        for e, _, _ in self.source.edges:
            img = em[e]
            if img is not None:
                out[img[0]].append((e, img[1]))
        return out

    @_memo
    def components_over(self):
        """(source component map, target component map, dict target
        component rep -> the source component reps over it, sorted)."""
        cm_src = component_map(self.source)
        cm_dst = component_map(self.target)
        over = {r: [] for v, r in cm_dst.items() if v == r}
        vm = self.vertex_map
        # each rep is its component's least vertex, so the reps come in
        # vertex order, which is sorted
        for v, r in cm_src.items():
            if v == r:
                over[cm_dst[vm[r]]].append(r)
        return cm_src, cm_dst, over

    def dart_image(self, eid, sign):
        """Image of a dart: ('e', edge, sign) or ('r', vertex)."""
        img = self.edge_map[eid]
        if img is None:
            u, _ = self.source.ends[eid]
            return ("r", self.vertex_map[u])
        e2, s = img
        return ("e", e2, s * sign)

    def compose(self, other):
        """self then other (source of other = target of self)."""
        if other.source is not self.target and other.source != self.target:
            raise GraphError("maps do not compose: %r then %r"
                             % (self, other))
        vm = {x: other.vertex_map[self.vertex_map[x]] for x in self.source.vertices}
        em = {}
        for eid in self.source.edge_ids():
            img = self.edge_map[eid]
            if img is None:
                em[eid] = None
            else:
                e2, s = img
                img2 = other.edge_map[e2]
                em[eid] = None if img2 is None else (img2[0], img2[1] * s)
        return GraphMap(self.source, other.target, vm, em)

    def __repr__(self):
        return "GraphMap(%r -> %r)" % (self.source, self.target)


def _composes_to(f, g, h):
    """Whether f then g equals h, for maps f : X -> Y, g : Y -> Z and
    h : X -> Z: `f.compose(g)`'s images, worked out one at a time as
    `compose` works them out and compared with h's, stopping at the
    first that differs.  No GraphMap is built.  A map's image dicts are
    keyed by exactly its source's ids, so this answers as comparing the
    image dicts of `f.compose(g)` and h does."""
    gv, hv = g.vertex_map, h.vertex_map
    for x, y in f.vertex_map.items():
        if hv[x] != gv[y]:
            return False
    ge, he = g.edge_map, h.edge_map
    for e, img in f.edge_map.items():
        if img is not None:
            e2, s = img
            img = ge[e2]
            if img is not None:
                img = (img[0], img[1] * s)
        if he[e] != img:
            return False
    return True


@dataclass(frozen=True)
class VertexFiber:
    """The fiber of a map over a vertex: a subgraph plus its inclusion."""

    base_vertex: object
    subgraph: FinGraph
    inclusion: GraphMap


def fiber(f, y):
    """Fiber of f over the target vertex y.

    Contains exactly the vertices with image y and the edges whose image
    is degenerate at y.  Edges mapping onto actual edges (loops at y
    included) cover more than the single point y, so they are excluded.
    """
    if y not in f.target.vertex_set:
        raise GraphError("fiber base %r is not a target vertex" % (y,))
    verts, edges = f.preimages[y]
    sub = FinGraph(tuple(verts), tuple(edges))
    incl = GraphMap(sub, f.source, {v: v for v in verts},
                    {e: (e, +1) for e, _, _ in edges})
    return VertexFiber(y, sub, incl)


def _gdarts(g):
    """Generalized darts: ('e', eid, sign) and ('r', v)."""
    out = [("r", v) for v in g.vertices]
    for eid in g.edge_ids():
        out.append(("e", eid, +1))
        out.append(("e", eid, -1))
    return out


def _gdart_tail(g, d):
    return d[1] if d[0] == "r" else g.dart_ends(d[1], d[2])[0]


def _gdart_head(g, d):
    return d[1] if d[0] == "r" else g.dart_ends(d[1], d[2])[1]


def _gdart_rev(d):
    return d if d[0] == "r" else ("e", d[1], -d[2])


def _gdart_image(f, d):
    if d[0] == "r":
        return ("r", f.vertex_map[d[1]])
    return f.dart_image(d[1], d[2])


def pullback(f, g):
    """Pullback of f : X -> Z and g : Y -> Z in reflexive graphs.

    Computed dart-wise: vertices are compatible vertex pairs, edges are
    orbits (under simultaneous reversal) of compatible generalized-dart
    pairs with at least one actual coordinate.  A coordinate may be
    degenerate where the other coordinate's image collapses.

    Returns (P, proj1, proj2).
    """
    if f.target != g.target:
        raise GraphError("maps into different targets: %r and %r" % (f, g))
    X, Y = f.source, g.source
    verts = tuple((x, y) for x in X.vertices for y in Y.vertices
                  if f.vertex_map[x] == g.vertex_map[y])
    vset = set(verts)
    seen = set()
    edges = []
    for a in _gdarts(X):
        ia = _gdart_image(f, a)
        for b in _gdarts(Y):
            if a[0] == "r" and b[0] == "r":
                continue
            if ia != _gdart_image(g, b):
                continue
            tail = (_gdart_tail(X, a), _gdart_tail(Y, b))
            if tail not in vset:
                continue
            pair = (a, b)
            rev = (_gdart_rev(a), _gdart_rev(b))
            canon = _least_id((pair, rev))
            if canon in seen:
                continue
            seen.add(canon)
            ca, cb = canon
            edges.append((canon,
                          (_gdart_tail(X, ca), _gdart_tail(Y, cb)),
                          (_gdart_head(X, ca), _gdart_head(Y, cb))))
    P = FinGraph(verts, tuple(edges))

    def proj(which, G):
        vm = {p: p[which] for p in verts}
        em = {}
        for canon, _, _ in edges:
            d = canon[which]
            em[canon] = None if d[0] == "r" else (d[1], d[2])
        return GraphMap(P, G, vm, em)

    return P, proj(0, X), proj(1, Y)


def terminal_map(g, pt_graph=None):
    if pt_graph is None:
        pt_graph = point()
    t = pt_graph.vertices[0]
    return GraphMap(g, pt_graph, {v: t for v in g.vertices},
                    {e: None for e in g.edge_ids()})


def product(a, b):
    """Categorical product (box with both diagonals); see module docstring.

    Returns (P, fst, snd).
    """
    pt = point()
    P, p1, p2 = pullback(terminal_map(a, pt), terminal_map(b, pt))
    return P, p1, p2


class _Classes:
    """Union-find over a list of distinct hashable items, on their
    positions: `parent` is a list with path halving.  `join(i, j)` unites
    the items at positions i and j; `union(a, b)` unites two items by
    their positions, read from an index that the first `union` builds, so
    a caller that numbers its items itself and only joins never hashes
    them.  The smaller root wins, so parent[i] <= i throughout and each
    root is its class's first item."""

    __slots__ = ("items", "index", "parent")

    def __init__(self, items):
        self.items = items
        self.index = None
        self.parent = list(range(len(items)))

    def union(self, a, b):
        index = self.index
        if index is None:
            index = self.index = {o: i for i, o in enumerate(self.items)}
        self.join(index[a], index[b])

    def join(self, i, j):
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j

    def flatten(self):
        """The parent list with every position set to its root, the
        first position of its class; later joins keep working on it."""
        parent = self.parent
        # parent[p] <= p, so one pass upwards sends every item to its root
        for i, p in enumerate(parent):
            parent[i] = parent[p]
        return parent

    def roots(self):
        """dict item -> the first item of its class, keyed in item
        order."""
        items = self.items
        return {o: items[p] for o, p in zip(items, self.flatten())}


def component_map(g):
    """dict vertex -> canonical component representative (least id),
    from the graph's one component pass (`FinGraph._forest`), built
    once per graph and shared by every caller: read it, do not change
    it."""
    return g._forest[0]


def pi0(g):
    """Components as a sorted tuple of frozensets, read off
    `component_map`."""
    cm = component_map(g)
    comps = {}
    for v, r in cm.items():
        comps.setdefault(r, set()).add(v)
    return tuple(frozenset(comps[r]) for r in _sorted_ids(comps))


# ---------------------------------------------------------------------------
# Stock graphs.

def point(name="pt"):
    return FinGraph((name,), (), name)


def bouquet(k):
    """k loops on one vertex; bouquet(2) is the figure eight."""
    return FinGraph(("w",), tuple(("l%d" % i, "w", "w") for i in range(k)), "w")
