"""Fundamental groupoids of graphs, presented by spanning forests.

The shape of a graph is its fundamental groupoid: one component per
graph component, with vertex groups free on the edges left out of a
spanning forest.  The forest is the graph's own, fixed by the
deterministic lowest-id-first BFS of `graphs.component_map`, so every
construction here is reproducible and shares that one component pass.

Morphisms u -> v are encoded as triples (u, v, word): the word lists the
cotree letters a representing path crosses, tree darts contributing
nothing.  That encoding is a bijection onto homotopy classes, words
compose by concatenation, and a loop's word is literally its image in
the vertex group of the component's base.

A functor induced by a graph map is stored as generator images (words in
the target's letters) together with one conjugator word per source
vertex, recording where the source spanning forest lands.
"""

from dataclasses import dataclass

from .graphs import _sorted_ids, component_map, FinGraph
from .words import reduce_word, mul, inv
from .automata import SubgroupAutomaton

__all__ = [
    "Component", "PresGroupoid", "shape1",
    "GroupoidFunctor", "induce_functor",
]


@dataclass(frozen=True)
class Component:
    base: object
    vertices: frozenset
    letters: tuple                  # cotree edge ids, sorted
    parent: dict                    # vertex -> tree dart (eid, sign) reaching
                                    # it, None at the base; in BFS order
    graph: FinGraph

    def tree_path(self, v):
        """The tree path from the base to v, as a tuple of darts."""
        darts = []
        while self.parent[v] is not None:
            eid, sign = self.parent[v]
            darts.append((eid, sign))
            v = self.graph.dart_ends(eid, sign)[0]
        return tuple(reversed(darts))


class PresGroupoid:
    def __init__(self, graph):
        self.graph = graph
        self.components = {}
        # the graph's one component pass; shared, so read-only here
        self.comp_of = comp_of = component_map(graph)
        parents = {}
        tree_edges = set()
        # the forest lists each component's BFS in one run, start first
        for v, dart in graph._forest[1].items():
            if dart is None:
                parent = parents[v] = {}
            else:
                tree_edges.add(dart[0])
            parent[v] = dart
        # one pass over the edges, already sorted by id, finds every
        # component's cotree letters
        letters = {start: [] for start in parents}
        for eid, u, _ in graph.edges:
            if eid not in tree_edges:
                letters[comp_of[u]].append(eid)
        self._letter_set = frozenset(l for ls in letters.values() for l in ls)
        for start, parent in parents.items():
            self.components[start] = Component(
                start, frozenset(parent), tuple(letters[start]), parent,
                graph)

    # -- words of paths ----------------------------------------------------

    def dart_word(self, eid, sign):
        if eid in self._letter_set:
            return ((eid, sign),)
        return ()

    def letters_at(self, v):
        return self.components[self.comp_of[v]].letters

    def summary(self):
        out = []
        for base in _sorted_ids(self.components):
            c = self.components[base]
            out.append((base, len(c.vertices), len(c.letters)))
        return out


def shape1(graph):
    return PresGroupoid(graph)


class GroupoidFunctor:
    """Functor between presented groupoids.

    obj: vertex map.  gen_images: letter -> target word, the image of
    the letter's based loop.  conj: vertex -> target word, where the
    source tree path to that vertex lands.
    """

    def __init__(self, src, dst, obj, gen_images, conj):
        self.src = src
        self.dst = dst
        self.obj = dict(obj)
        self.gen_images = {k: reduce_word(v) for k, v in gen_images.items()}
        self.conj = {k: reduce_word(v) for k, v in conj.items()}
        self._images = {}               # component base -> image automaton

    def image_subgroup(self, base):
        """Folded automaton of the image of the base's vertex group,
        folded once per component and shared by every vertex in it."""
        comp = self.src.components[self.src.comp_of[base]]
        if comp.base not in self._images:
            self._images[comp.base] = SubgroupAutomaton.from_words(
                self.dst.letters_at(self.obj[comp.base]),
                [self.gen_images[l] for l in comp.letters])
        return self._images[comp.base]

    def injective_on_vertex_group(self, base):
        """Free-group homs are injective iff the image keeps full rank."""
        comp = self.src.components[self.src.comp_of[base]]
        return self.image_subgroup(base).rank() == len(comp.letters)

    def __repr__(self):
        return "GroupoidFunctor(%d objects)" % (len(self.obj),)


def induce_functor(f, src_shape=None, dst_shape=None):
    """The functor a graph map induces between the shapes."""
    S = src_shape if src_shape is not None else shape1(f.source)
    T = dst_shape if dst_shape is not None else shape1(f.target)

    def image_word(eid, sign):
        img = f.dart_image(eid, sign)
        if img[0] == "r":
            return ()
        return T.dart_word(img[1], img[2])

    conj = {}
    gen_images = {}
    for base, comp in S.components.items():
        # BFS order puts every tree parent before its children, so each
        # conjugator extends its parent's by one dart image
        for v, dart in comp.parent.items():
            if dart is None:
                conj[v] = ()
            else:
                u = f.source.dart_ends(*dart)[0]
                conj[v] = mul(conj[u], image_word(*dart))
        for l in comp.letters:
            u, v = f.source.ends[l]
            gen_images[l] = mul(conj[u], image_word(l, +1), inv(conj[v]))
    return GroupoidFunctor(S, T, dict(f.vertex_map), gen_images, conj)
