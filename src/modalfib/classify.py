"""Five-way classification of graph maps at two levels.

Each map gets five flags twice over: once at the component level (pi0),
where fibers are judged by their components, and once at the shape level
(pi1), where fibers are judged by their fundamental groupoids.

  modal        fibers are discrete sets (no edge collapses)
  connected    fibers are nonempty and as trivial as the level sees:
               connected components at pi0, contractible trees at pi1
  equivalence  the induced map at that level is invertible
  fibration    the comparison from each actual fiber to the symbolic
               fiber at that level is an equivalence, at vertices and
               across edge interiors
  etale        the map is, over each target component, exactly the
               covering its level data prescribes; computed by its own
               route, never as modal-and-fibration

The two flag identities (etale = modal and fibration; connected =
equivalence and fibration) are theorems of this model precisely because
the connected and component-level flags include the edge-interior
clauses; the test suite checks them on every classified map.

Also here: the component-level factorization of any map into a
component-collapsing left part and a discrete-fiber right part, the
constant-fiber criterion, and the discrete-family check.
"""

from .graphs import FinGraph, GraphMap, _composes_to, component_map
from .groupoids import induce_functor
from .hfiber import GammaAnalyzer
from .covers import is_cover
from .verdicts import LevelVerdicts, MapClassification

__all__ = [
    "classify", "factor0", "constant_fiber_criterion", "etale_family_check",
    "FactorError",
]


class FactorError(ValueError):
    pass


def _edge_free(f):
    return all(img is not None for img in f.edge_map.values())


def _connected0(f):
    """Connected at the component level: one fiber component over every
    target vertex and one source edge over every target edge."""
    return (all(len(ps) == 1 for ps in f.pieces_over.values())
            and all(len(es) == 1 for es in f.edges_over.values()))


def _classify_pi0(f):
    cm_src, cm_dst, over = f.components_over

    modal = _edge_free(f)

    connected = _connected0(f)

    equivalence = all(len(cs) == 1 for cs in over.values())
    # each list in `over` holds distinct reps, so a set comparison (with a
    # size check where the other side may repeat) compares sorted lists
    over_set = {r: frozenset(cs) for r, cs in over.items()}

    def one_edge_per_component_over(d, es):
        counts = {}
        for e, _ in es:
            r = cm_src[f.source.ends[e][0]]
            counts[r] = counts.get(r, 0) + 1
        td = cm_dst[f.target.ends[d][0]]
        return (counts.keys() == over_set[td]
                and all(c == 1 for c in counts.values()))

    # each fiber component lies in one source component; those must be
    # exactly the source components over y's component, once each
    fibration = True
    for y, ps in f.pieces_over.items():
        reps = [cm_src[p] for p in ps]
        r = cm_dst[y]
        if len(reps) != len(over[r]) or set(reps) != over_set[r]:
            fibration = False
            break
    if fibration:
        fibration = all(one_edge_per_component_over(d, es)
                        for d, es in f.edges_over.items())

    # etale, by its own route: discreteness plus a one-vertex-per-source-
    # component count over every target vertex, with the interior clause.
    etale = modal
    if etale:
        for y in f.target.vertices:
            by_comp = {}
            for x in f.preimages[y][0]:
                r = cm_src[x]
                by_comp[r] = by_comp.get(r, 0) + 1
            if (by_comp.keys() != over_set[cm_dst[y]]
                    or any(c != 1 for c in by_comp.values())):
                etale = False
                break
    if etale:
        etale = all(one_edge_per_component_over(d, es)
                    for d, es in f.edges_over.items())

    return LevelVerdicts.of(modal, connected, etale, equivalence, fibration)


def _classify_pi1(f, F, analyzer):
    S = F.src
    over = f.components_over[2]

    modal = _edge_free(f)

    # a connected fiber is a tree when it has one edge fewer than vertices
    connected = _connected0(f) and all(
        len(es) == len(xs) - 1 for xs, es in f.preimages.values())

    equivalence = all(len(cs) == 1 for cs in over.values())
    if equivalence:
        for cb in S.components:
            H = F.image_subgroup(cb)
            if not (H.complete() and H.n == 1
                    and H.rank() == len(S.components[cb].letters)):
                equivalence = False
                break

    fibration = analyzer.everywhere()

    etale = modal
    if etale:
        etale = _etale_shape_route(f, F, over)

    return LevelVerdicts.of(modal, connected, etale, equivalence, fibration)


def _etale_shape_route(f, F, over):
    """Each source component must be, on the nose, the covering of its
    target component classified by its image subgroup: vertices over
    every target vertex hit each coset state exactly once, and so do the
    edges over every target edge."""
    S, T = F.src, F.dst
    # one pass each: source vertices by (source component, image), source
    # edges by component, target edges by component
    verts_at = {}
    for x in f.source.vertices:
        verts_at.setdefault((S.comp_of[x], f.vertex_map[x]), []).append(x)
    src_edges = {}
    for e, u, v in f.source.edges:
        src_edges.setdefault(S.comp_of[u], []).append((e, u, v))
    tgt_edges = {}
    for d, u, _ in f.target.edges:
        tgt_edges.setdefault(T.comp_of[u], []).append(d)
    for tb, cbs in over.items():
        tvs = T.components[tb].vertices
        tes = tgt_edges.get(tb, ())
        for cb in cbs:
            comp = S.components[cb]
            H = F.image_subgroup(cb)
            if not H.complete() or H.rank() != len(comp.letters):
                return False
            full = list(range(H.n))
            for y in tvs:
                traces = sorted(H.trace(F.conj[x])
                                for x in verts_at.get((cb, y), ()))
                if traces != full:
                    return False
            by_edge = {d: [] for d in tes}
            for e, u, v in src_edges.get(cb, ()):
                d, s = f.edge_map[e]
                tail = u if s == +1 else v
                by_edge[d].append(H.trace(F.conj[tail]))
            for d in tes:
                if sorted(by_edge[d]) != full:
                    return False
    return True


def classify(f):
    """Classify one graph map at both levels; all flags exact."""
    F = induce_functor(f)
    analyzer = GammaAnalyzer(f, F)
    return MapClassification(pi0=_classify_pi0(f),
                             pi1=_classify_pi1(f, F, analyzer))


# ---------------------------------------------------------------------------
# component-level factorization

def factor0(f):
    """Factor f through the graph of its collapse pieces.

    Vertices of the middle graph are the components of the subgraph of
    collapsing edges; the left map crushes each piece to its point and
    is connected at the component level, the right map keeps every edge
    and is discrete-fibered.  The composite equals f on the nose, which
    is checked image by image, so only a factorization that recomposes
    is returned.
    """
    X = f.source
    piece_of = f.pieces

    mid_edges = tuple((e, piece_of[u], piece_of[v])
                      for e, u, v in X.edges if f.edge_map[e] is not None)
    bp = piece_of[X.basepoint] if X.basepoint is not None else None
    mid = FinGraph(tuple(set(piece_of.values())), mid_edges, bp)

    left = GraphMap(X, mid, dict(piece_of),
                    {e: (None if f.edge_map[e] is None else (e, +1))
                     for e in X.edge_ids()})
    right = GraphMap(mid, f.target,
                     {p: f.vertex_map[p] for p in mid.vertices},
                     {e: f.edge_map[e] for e, _, _ in mid_edges})

    if not _composes_to(left, right, f):
        raise FactorError("factorization does not recompose")
    if not _connected0(left):
        raise FactorError("left factor is not component-connected")
    if not _edge_free(right):
        raise FactorError("right factor is not discrete-fibered")
    return mid, left, right


# ---------------------------------------------------------------------------
# criteria

def constant_fiber_criterion(f):
    """True when all vertex fibers have the same shape signature: the
    same number of components with the same multiset of free ranks.

    One-way evidence for being a fibration, not proof: the criterion
    ignores how fibers are glued over edges.
    """
    ranks = f.piece_ranks
    sigs = [tuple(sorted(ranks[p] for p in ps))
            for ps in f.pieces_over.values()]
    return all(s == sigs[0] for s in sigs)


def etale_family_check(f):
    """Discrete-family test: constant fiber cardinality over each target
    component plus the covering star condition.

    Only meaningful for maps whose fibers are already discrete; anything
    with a collapsing edge gets the string "inapplicable".
    """
    if not _edge_free(f):
        return "inapplicable"
    cm_dst = component_map(f.target)
    sizes = {}
    constant = True
    for y in f.target.vertices:
        n = len(f.preimages[y][0])
        r = cm_dst[y]
        if r in sizes and sizes[r] != n:
            constant = False
        sizes.setdefault(r, n)
    return constant and is_cover(f)
