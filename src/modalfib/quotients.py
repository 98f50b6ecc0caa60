"""Finite group actions on graphs and their homotopy quotients.

The groups that act are permutation groups: permutation_group checks
its generators and builds the one finite group type, fingroupoids'
FinGroup, on permutation tuples.  A GraphAction assigns a graph
automorphism to every element and is checked against the
multiplication table at each element and generator, which decides the
whole table.  The quotient of the shape groupoid by an action is
realized either as an explicit FinGroupoid (when every component of the
space is a tree) or as a lazy ActionGroupoid over the presented shape.
Group elements compose in diagram order like everything else here:
mul[(g, h)] is "g then h".
"""

from dataclasses import dataclass

from .graphs import (FinGraph, GraphMap, InputError, _composes_to, _least_id,
                     _sorted_ids)
from .groupoids import shape1, induce_functor
from .fingroupoids import FinGroup, FinGroupoid, _perm_then

__all__ = [
    "ActionError", "SizeError", "GraphAction", "ActionGroupoid",
    "permutation_group", "trivial_group", "cyclic_group", "graph_action",
    "shape_of_quotient", "orbit_graph",
    "quotient_is_fibration", "fiber_sequence_check",
    "QUOTIENT_GROUP_BOUND",
]

QUOTIENT_GROUP_BOUND = 24


class ActionError(InputError):
    """A group or graph action that breaks its invariants; its subject,
    if any, names a generator, as ("generator", 1)."""


class SizeError(ActionError):
    """A group too large for the exhaustive quotient routines."""


def permutation_group(degree, generators):
    """The group of permutations of range(degree) that the generators,
    permutation tuples, generate."""
    base = tuple(range(degree))
    gens = tuple(tuple(p) for p in generators)
    for i, p in enumerate(gens):
        if tuple(sorted(p)) != base:
            raise ActionError(
                "generator %d %r is not a permutation of range(%d)"
                % (i, p, degree), ("generator", i))
    return FinGroup(gens, _perm_then, base)


def trivial_group():
    return permutation_group(1, ())


def cyclic_group(n):
    """Rotation by one step on n points."""
    if n < 1:
        raise ActionError("order must be positive")
    if n == 1:
        return trivial_group()
    return permutation_group(n, (tuple((i + 1) % n for i in range(n)),))


def _check_automorphism(m):
    if set(m.vertex_map.values()) != set(m.source.vertices):
        raise ActionError("vertex map is not a bijection")
    image_ids = []
    for eid, img in m.edge_map.items():
        if img is None:
            raise ActionError("automorphism cannot collapse edge %r" % (eid,))
        image_ids.append(img[0])
    if _sorted_ids(image_ids) != _sorted_ids(m.source.edge_ids()):
        raise ActionError("edge map is not a bijection")


@dataclass(frozen=True)
class GraphAction:
    """A finite group acting on a graph by automorphisms.

    maps assigns a GraphMap to every group element.  Each map must be
    an automorphism of the space, the unit must act as the identity
    map, and maps[g . s] must be maps[g] then maps[s] for every element
    g and every generator s.

    That decides the whole multiplication table.  Say maps[e] is the
    identity and the law holds at every (g, s).  Every element h is a
    positive word in the generators: FinGroup's breadth-first search
    reaches each element as a product a . s of an element a reached
    before and a generator s.  By induction on that word, maps[g . h]
    is maps[g] then maps[h] for every g: for h = e both sides are
    maps[g], and for h = a . s, by associativity, the law at (g . a, s),
    the induction hypothesis for a and the law at (a, s),
      maps[g . a . s] = maps[g . a] maps[s] = maps[g] maps[a] maps[s]
                      = maps[g] maps[a . s].
    So n |S| comparisons (graphs._composes_to, which builds no map)
    replace the n^2 products of the full table; tests/test_quotients.py
    checks that both accept the same tables.
    """

    group: FinGroup
    space: FinGraph
    maps: dict

    def __post_init__(self):
        G = self.group
        if set(self.maps) != set(G.elements):
            raise ActionError("need exactly one map per group element")
        for g, m in self.maps.items():
            if m.source != self.space or m.target != self.space:
                raise ActionError("map for %r does not act on the space" % (g,))
            _check_automorphism(m)
        unit = self.maps[G.identity]
        if unit.vertex_map != {v: v for v in self.space.vertices} or \
                unit.edge_map != {e: (e, +1) for e in self.space.edge_ids()}:
            raise ActionError("unit element must act as the identity map")
        maps, mul = self.maps, G.mul
        for g in G.elements:
            for s in G.generators:
                if not _composes_to(maps[g], maps[s], maps[mul[(g, s)]]):
                    raise ActionError(
                        "action breaks the multiplication table at %r, %r"
                        % (g, s))

    def orbit(self, x):
        if x not in self.space.vertex_set:
            raise ActionError("unknown vertex %r" % (x,))
        return tuple(_sorted_ids({m.vertex_map[x]
                                  for m in self.maps.values()}))

    def stabilizer(self, x):
        if x not in self.space.vertex_set:
            raise ActionError("unknown vertex %r" % (x,))
        return tuple(g for g in self.group.elements
                     if self.maps[g].vertex_map[x] == x)


def graph_action(group, space, gen_images):
    """Extend automorphisms chosen for the generators to a full action.

    gen_images lines up with group.generators.  Raises ActionError when
    the chosen maps fail the group's relations, or when a generator that
    is the identity or repeats an earlier generator is given a map other
    than the one its element already gets.
    """
    gens = list(gen_images)
    if len(gens) != len(group.generators):
        raise ActionError("need one image per generator")
    maps = group.extend(gens, GraphMap.compose, GraphMap.identity(space))
    for i, g in enumerate(group.generators):
        m = maps[g]
        if m.vertex_map != gens[i].vertex_map or \
                m.edge_map != gens[i].edge_map:
            raise ActionError(
                "generator %d is given a map other than the one element %r "
                "already gets" % (i, g), ("generator", i))
    return GraphAction(group, space, maps)


def _check_bound(group, bound):
    if group.order > bound:
        raise SizeError("group order %d exceeds the bound %d"
                        % (group.order, bound))


def _require_free(a):
    unit = a.group.identity
    for g in a.group.elements:
        if g == unit:
            continue
        m = a.maps[g]
        for v in a.space.vertices:
            if m.vertex_map[v] == v:
                raise ActionError("element %r fixes vertex %r" % (g, v))
        for e in a.space.edge_ids():
            if m.edge_map[e] == (e, -1):
                raise ActionError(
                    "element %r sends edge %r to its own reversal" % (g, e))


class ActionGroupoid:
    """Shape groupoid with the action's morphisms adjoined, kept lazy.

    Objects are the component base vertices of the underlying shape.  A
    morphism from [c] to [c'] is a pair (g, w): a group element whose
    map carries c into the component of c', with a word in that
    component's letters.  Hom-sets are infinite once a component has
    positive rank, so nothing is materialized; the questions asked of
    the quotient (component count, vertex-group rank) are answered by
    counting instead.
    """

    def __init__(self, action, shape):
        self.action = action
        self.shape = shape
        self.objects = tuple(_sorted_ids(shape.components))

    def _comp_orbit(self, c):
        S = self.shape
        return {S.comp_of[self.action.maps[g].vertex_map[c]]
                for g in self.action.group.elements}

    def component_reps(self):
        """One object per orbit of components: the quotient's pi0."""
        reps = {_least_id(self._comp_orbit(c)) for c in self.objects}
        return tuple(_sorted_ids(reps))

    def vertex_group_rank(self, v):
        """Rank of the quotient's vertex group over v's component orbit.

        A free action divides the Euler characteristic of the orbit's
        components by the group order; the quotient piece is connected,
        so its rank is one minus that.  Demands a free action with no
        edge sent to its own reversal.
        """
        a = self.action
        _require_free(a)
        S = self.shape
        if v not in S.comp_of:
            raise ActionError("unknown vertex %r" % (v,))
        orbit = self._comp_orbit(S.comp_of[v])
        verts = sum(len(S.components[o].vertices) for o in orbit)
        edges = sum(1 for eid, u, w in a.space.edges if S.comp_of[u] in orbit)
        chi = verts - edges
        if chi % a.group.order:
            raise ActionError("Euler characteristic not divisible; action not free")
        return 1 - chi // a.group.order


def shape_of_quotient(a, max_group_order=QUOTIENT_GROUP_BOUND):
    """The groupoid of the action on the shape of the space.

    Forest spaces give an explicit FinGroupoid: one object per
    component, one morphism per (component, group element) pair.  A
    trivial action on a point therefore yields the one-object groupoid
    whose morphisms are the group itself.  Spaces with loops come back
    as a lazy ActionGroupoid.
    """
    _check_bound(a.group, max_group_order)
    S = shape1(a.space)
    reps = _sorted_ids(S.components)
    if any(S.components[c].letters for c in reps):
        return ActionGroupoid(a, S)
    G = a.group
    mors = []
    src = {}
    dst = {}
    for c in reps:
        for g in G.elements:
            m = (c, g, S.comp_of[a.maps[g].vertex_map[c]])
            mors.append(m)
            src[m] = c
            dst[m] = m[2]
    comp = {}
    for m1 in mors:
        for m2 in mors:
            if m1[2] == m2[0]:
                comp[(m1, m2)] = (m1[0], G.mul[(m1[1], m2[1])], m2[2])
    ident = {c: (c, G.identity, c) for c in reps}
    return FinGroupoid(tuple(reps), tuple(mors), src, dst, comp, ident)


def orbit_graph(a):
    """Quotient graph of a free action: one vertex and edge per orbit.

    The classical covering-space comparison point: the shape of this
    graph matches the lazy quotient groupoid of the action.  Each edge
    orbit keeps the orientation of its least representative.
    """
    _require_free(a)
    G = a.group
    vrep = {}
    for v in a.space.vertices:
        vrep[v] = _least_id([a.maps[g].vertex_map[v] for g in G.elements])
    erep = {}
    for e in a.space.edge_ids():
        ids = {a.maps[g].edge_map[e][0] for g in G.elements}
        erep[e] = _least_id(ids)
    edges = tuple((e, vrep[u], vrep[v]) for e, u, v in a.space.edges
                  if erep[e] == e)
    bp = vrep[a.space.basepoint] if a.space.basepoint is not None else None
    return FinGraph(tuple(set(vrep.values())), edges, bp)


def quotient_is_fibration(a, max_group_order=QUOTIENT_GROUP_BOUND):
    """Compare the strict fiber of a quotient map with the realized one.

    The strict fiber over any class is the set of group translates: |G|
    points, each rigid.  The realized homotopy fiber over a component
    decomposes into one class per (component, element) pair landing
    there, weighted by the coset count of the image vertex group, with
    automorphisms measured by the kernel.  The comparison map is an
    equivalence exactly when every coset count is 1, every vertex-group
    image is faithful, and the classes biject with the translates.
    Each side is computed on its own: the coset counts and kernels come
    from folded subgroup automata, not from the automorphism property.
    """
    _check_bound(a.group, max_group_order)
    S = shape1(a.space)
    functors = {g: induce_functor(a.maps[g], S, S)
                for g in a.group.elements}
    comps = _sorted_ids(S.components)
    for target in comps:
        pairs = 0
        for c in comps:
            for g in a.group.elements:
                if S.comp_of[a.maps[g].vertex_map[c]] != target:
                    continue
                fg = functors[g]
                if fg.image_subgroup(c).index() != 1:
                    return False
                if not fg.injective_on_vertex_group(c):
                    return False
                pairs += 1
        if pairs != a.group.order:
            return False
    return True


def fiber_sequence_check(a, x, max_group_order=QUOTIENT_GROUP_BOUND):
    """Orbit, stabilizer, and fiber counts at one vertex, as a report.

    Realizes the tail of the quotient's fiber sequence: the objects
    over the class of x project onto the orbit, every orbit point is
    hit by a full stabilizer coset, the orbit and stabilizer sizes
    multiply to the group order, and a trivial stabilizer makes the
    object set a copy of the group itself.
    """
    _check_bound(a.group, max_group_order)
    G = a.group
    orbit = a.orbit(x)
    stab = a.stabilizer(x)
    hits = {y: sum(1 for g in G.elements
                   if a.maps[g].vertex_map[x] == y) for y in orbit}
    fiber_objects = sum(hits.values())
    return {
        "vertex": x,
        "orbit": orbit,
        "orbit_size": len(orbit),
        "stabilizer_size": len(stab),
        "group_order": G.order,
        "exact": len(orbit) * len(stab) == G.order,
        "fiber_objects": fiber_objects,
        "fiber_matches_group": fiber_objects == G.order,
        "orbit_covered_evenly": all(h == len(stab) for h in hits.values()),
        "free_at_vertex": len(stab) == 1,
        "orbit_is_group": len(stab) != 1 or len(orbit) == G.order,
    }
