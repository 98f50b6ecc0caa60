"""Symbolic homotopy fibers, the prism triangle, and the gamma test.

For a map of graphs and a target vertex y, three fibers interact: the
honest vertex fiber (a graph), its fundamental groupoid, and the fiber
of the induced functor between fundamental groupoids.  The latter can be
infinite, so it is presented symbolically: per source component, the
image subgroup of the target vertex group acts on its own right cosets,
and the coset groupoid records the folded subgroup automaton, marked
representatives for fiber vertices, and stabilizer data.

gamma compares the shape of the vertex fiber with the symbolic fiber.
Deciding whether it is an equivalence is the heart of the package:

  (a) essential surjectivity: the image subgroup must have finite index
      (folded automaton complete) and every coset must be marked by some
      fiber vertex; an empty fiber under a nonempty coset space fails.
  (b) injectivity on components: distinct fiber components must mark
      distinct cosets.
  (c) full faithfulness: the kernel of the induced map on fundamental
      groups is computed through the piece decomposition.  Cut the
      source component along its collapsed edges into pieces (one fiber
      component per target vertex each); the incidence graph of pieces
      and non-collapsed edges controls the kernel by the Seifert-van
      Kampen decomposition of the pulled-back universal cover.  A fiber
      component of rank 0 demands every piece be rank 0 and the
      incidence graph inject into the target's fundamental group; one
      of positive rank demands the incidence graph be a tree and all
      other pieces be rank 0.  Three counts per source component decide
      this: `positive`, the pieces of positive rank; `incidence_rank`,
      the component's rank less the sum of the piece ranks; and
      `injective`, whether the image subgroup H, already folded for (a)
      and (b), keeps the component's rank.  Rank 0 then demands
      positive == 0 and injective, positive rank demands
      incidence_rank == 0 and positive == 1, because
        - a component's pieces, joined by its non-collapsed edges, form
          one connected incidence graph;
        - cycle ranks add: the component's rank is the sum of the piece
          ranks plus the incidence graph's rank;
        - when every piece is a tree, collapsing them is a homotopy
          equivalence, so the incidence group injects iff the vertex
          group does; finitely generated free groups are Hopfian, so
          that holds iff H keeps the rank (Stallings 1983).

All three conditions are exact; no bounds are involved.
"""

from dataclasses import dataclass

from .graphs import _sorted_ids, fiber
from .words import mul, inv
from .automata import SubgroupAutomaton
from .groupoids import shape1, induce_functor

__all__ = [
    "CosetEntry", "CosetGroupoid", "homotopy_fiber",
    "PrismData", "prism", "gamma_is_equivalence", "GammaAnalyzer",
]


@dataclass
class CosetEntry:
    """Coset data for one source component lying over the base."""

    source_base: object
    letters: tuple
    subgroup: SubgroupAutomaton     # image subgroup, rebased at a fiber vertex
    basing: tuple                   # word conjugating image to the rebased form
    marked: dict                    # fiber vertex -> representative word

    def same_coset(self, w1, w2):
        return self.subgroup.contains(mul(w1, inv(w2)))

    def coset_count(self):
        return self.subgroup.index()

    def enumerate_cosets(self, radius=16, max_cosets=64):
        """Breadth-first reduced words, one per coset, plus a truncation
        flag.  Complete automata finish exactly; infinite coset spaces
        stop at the radius or count bound."""
        reps = [()]
        frontier = [()]
        truncated = False
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for g in self.letters:
                    for s in (+1, -1):
                        if w and w[-1] == (g, -s):
                            continue
                        cand = w + ((g, s),)
                        if any(self.same_coset(cand, r) for r in reps):
                            continue
                        if len(reps) >= max_cosets:
                            return reps, True
                        reps.append(cand)
                        nxt.append(cand)
            frontier = nxt
            if not frontier:
                return reps, truncated
        if frontier:
            n = self.coset_count()
            truncated = n is None or n > len(reps)
        return reps, truncated


@dataclass
class CosetGroupoid:
    """Symbolic fiber of a shape functor over a vertex's component.

    One entry per source component over the target component; empty when
    nothing lies over it.
    """

    target_base: object
    ambient_letters: tuple
    entries: list

    def total_cosets(self):
        """Total number of cosets, or None when some entry is infinite."""
        out = 0
        for e in self.entries:
            n = e.coset_count()
            if n is None:
                return None
            out += n
        return out


def homotopy_fiber(F, y):
    """Coset groupoid of the functor F over the vertex y."""
    T = F.dst
    base = T.comp_of[y]
    letters = T.components[base].letters
    entries = []
    for cb in _sorted_ids(F.src.components):
        comp = F.src.components[cb]
        if T.comp_of[F.obj[cb]] != base:
            continue
        fib_vertices = _sorted_ids([x for x in comp.vertices
                                    if F.obj[x] == y])
        images = [F.gen_images[l] for l in comp.letters]
        basing = F.conj[fib_vertices[0]] if fib_vertices else ()
        rebased = [mul(inv(basing), w, basing) for w in images]
        subgroup = SubgroupAutomaton.from_words(letters, rebased)
        marked = {x: mul(inv(basing), F.conj[x]) for x in fib_vertices}
        entries.append(CosetEntry(cb, letters, subgroup, basing, marked))
    return CosetGroupoid(base, letters, entries)


@dataclass
class PrismData:
    fiber: object                  # VertexFiber
    fiber_shape: object            # PresGroupoid of the fiber graph
    hfib: CosetGroupoid
    delta: dict                    # fiber vertex -> (source component, word)
    gamma: dict                    # fiber component base -> (source component, word)
    triangle_commutes: bool


def prism(f, y, F=None):
    """The full triangle over y: fiber, its shape, symbolic fiber, and
    the two comparison maps."""
    if F is None:
        F = induce_functor(f)
    fib = fiber(f, y)
    fib_shape = shape1(fib.subgraph)
    hf = homotopy_fiber(F, y)
    entry_of = {e.source_base: e for e in hf.entries}
    delta = {}
    for e in hf.entries:
        for x, w in e.marked.items():
            delta[x] = (e.source_base, w)
    gamma = {}
    for kb in fib_shape.components:
        cb = F.src.comp_of[kb]
        gamma[kb] = (cb, entry_of[cb].marked[kb])
    commutes = True
    for x in fib.subgraph.vertices:
        kb = fib_shape.comp_of[x]
        cb, dw = delta[x]
        cb2, gw = gamma[kb]
        if cb != cb2 or not entry_of[cb].same_coset(dw, gw):
            commutes = False
    return PrismData(fib, fib_shape, hf, delta, gamma, commutes)


# ---------------------------------------------------------------------------
# The gamma decision procedure.

class _ComponentData:
    """Per-source-component facts independent of the queried vertex.

    pieces_over: target vertex -> piece -> the component's vertices over
    it in that piece, in source order."""

    def __init__(self, F, f, comp, pieces_over):
        self.subgroup = H = F.image_subgroup(comp.base)
        self.complete = H.complete()
        self.pieces_over = pieces_over
        ranks = [f.piece_ranks[p] for ps in pieces_over.values() for p in ps]
        # the three counts of clause (c), see the module docstring
        self.positive = sum(1 for r in ranks if r > 0)
        self.incidence_rank = len(comp.letters) - sum(ranks)
        self.injective = H.rank() == len(comp.letters)


class GammaAnalyzer:
    """Reusable gamma tester for one map: component data is built once,
    per-vertex queries are cheap."""

    def __init__(self, f, F=None):
        self.f = f
        self.F = F = F if F is not None else induce_functor(f)
        S, T = F.src, F.dst
        # one pass each: source components by target component, and
        # vertices by source component, image and piece
        self._over = {}
        for cb in S.components:
            self._over.setdefault(T.comp_of[F.obj[cb]], []).append(cb)
        pieces = f.pieces
        self._pieces_over = {cb: {} for cb in S.components}
        for x in f.source.vertices:
            self._pieces_over[S.comp_of[x]].setdefault(
                F.obj[x], {}).setdefault(pieces[x], []).append(x)
        self._comp_data = {}

    def _data_for(self, cb):
        if cb not in self._comp_data:
            self._comp_data[cb] = _ComponentData(
                self.F, self.f, self.F.src.components[cb],
                self._pieces_over[cb])
        return self._comp_data[cb]

    def at_vertex(self, y):
        F = self.F
        for cb in self._over.get(F.dst.comp_of[y], ()):
            data = self._data_for(cb)
            if not data.complete:
                return False
            H = data.subgroup
            pieces = data.pieces_over.get(y, {})
            if not pieces:
                return False
            # (a) all cosets marked, (b) injectively
            states = {}
            for p, xs in pieces.items():
                s = H.trace(F.conj[xs[0]])
                if s in states:
                    return False
                states[s] = p
            if len(states) != H.n:
                return False
            # (c) kernel analysis by the counts of the source component
            for p in pieces:
                if self.f.piece_ranks[p] == 0:
                    if data.positive or not data.injective:
                        return False
                elif data.incidence_rank or data.positive != 1:
                    return False
        return True

    def everywhere(self):
        return all(self.at_vertex(y) for y in self.f.target.vertices)


def gamma_is_equivalence(f, y, F=None):
    """Is the comparison functor from the fiber's shape to the symbolic
    fiber an equivalence over y?  Exact, no search bounds."""
    return GammaAnalyzer(f, F).at_vertex(y)
