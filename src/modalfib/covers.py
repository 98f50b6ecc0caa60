"""Covering maps, monodromy, and covering-space enumeration.

A covering is a map with no degenerate edges whose dart star at every
source vertex maps bijectively onto the star at the image vertex.  Over
a connected base, covers correspond to permutation actions of the base
fundamental group on a fiber; both directions of the correspondence are
constructed here, together with the orbit/component comparison, bounded
universal-cover balls, and the per-orbit subgroup certificates relating
image subgroups to monodromy stabilizers.

Permutations act on the left along paths: lifting a loop that reads the
letters g then h moves a fiber point i to perm[h][perm[g][i]].
"""

from dataclasses import dataclass
from itertools import permutations as iter_permutations, product

from .graphs import (FinGraph, GraphMap, InputError, pi0, component_map,
                     _Classes, _least_id, _sorted_ids)
from .words import mul, inv, Unknown
from .automata import SubgroupAutomaton
from .groupoids import shape1, induce_functor

__all__ = [
    "CoverError", "CoverMap", "MonodromyAction",
    "is_cover", "monodromy", "total_space", "enumerate_covers",
    "components_vs_orbits", "universal_cover_ball",
    "shape_of_total", "universal_cover_initiality",
    "decompose_cover", "unmarked_cover_count",
]


class CoverError(InputError):
    """A cover or monodromy action that breaks its invariants."""


def _check_base(vertex_index, base):
    """Raise CoverError unless base is a key of the dict vertex_index."""
    if base not in vertex_index:
        raise CoverError("base %r is not a vertex of the base graph"
                         % (base,), ("vertex", base))


def is_cover(p):
    """Star-bijection test: every source dart star maps bijectively onto
    the image star, with no degenerate edges anywhere."""
    if any(img is None for img in p.edge_map.values()):
        return False
    target_stars = {v: _sorted_ids([(e, s) for e, s, _ in p.target.darts(v)])
                    for v in p.target.vertices}
    for x in p.source.vertices:
        images = []
        for e, s, _ in p.source.darts(x):
            img = p.dart_image(e, s)
            images.append((img[1], img[2]))
        if _sorted_ids(images) != target_stars[p.vertex_map[x]]:
            return False
    return True


@dataclass(frozen=True)
class CoverMap:
    """A graph map certified to be a covering at construction time."""

    map: GraphMap

    def __post_init__(self):
        if not is_cover(self.map):
            raise CoverError("not a covering: star bijection fails")

    @property
    def source(self):
        return self.map.source

    @property
    def target(self):
        return self.map.target

    def dart_lift(self, x, eid, sign):
        """The unique dart at x over the target dart (eid, sign); returns
        (source edge, sign, endpoint)."""
        for e, s, other in self.source.darts(x):
            img = self.map.dart_image(e, s)
            if (img[1], img[2]) == (eid, sign):
                return e, s, other
        raise CoverError("no lift; star bijection violated")

    def lift_path(self, x, darts):
        """Endpoint of the unique lift of a target dart path starting at x."""
        for eid, sign in darts:
            _, _, x = self.dart_lift(x, eid, sign)
        return x


@dataclass
class MonodromyAction:
    """Permutation action of a pointed connected base on a finite fiber."""

    shape: object                 # PresGroupoid of the base
    base: object                  # base vertex
    fiber: tuple
    perms: dict                   # letter -> {fiber point -> fiber point}

    def __post_init__(self):
        _check_base(self.shape.comp_of, self.base)
        letters = self.letters
        fib = set()
        for x in self.fiber:
            if x in fib:
                raise CoverError("fiber point %r is listed twice" % (x,),
                                 ("point", x))
            fib.add(x)
        for letter in letters:
            perm = self.perms.get(letter)
            if perm is None or set(perm) != fib or set(perm.values()) != fib:
                raise CoverError("loop letter %r has no permutation of the "
                                 "fiber" % (letter,), ("letter", letter))
        # every loop letter is a key, so a longer dict has a foreign key
        if len(self.perms) != len(letters):
            x = next(x for x in self.perms if x not in letters)
            raise CoverError("%r is not a loop letter of the base; letters "
                             "are %s" % (x, list(letters)), ("letter", x))

    @property
    def letters(self):
        return self.shape.components[self.shape.comp_of[self.base]].letters

    def orbits(self):
        uf = _Classes(self.fiber)
        for perm in self.perms.values():
            for i, j in perm.items():
                uf.union(i, j)
        root = uf.roots()
        groups = {}
        for i in self.fiber:
            groups.setdefault(root[i], []).append(i)
        return tuple(_sorted_ids([tuple(_sorted_ids(g))
                                  for g in groups.values()]))


def _letter_loop(shape, base, letter):
    """The loop at `base` whose word is the single cotree letter, as a
    dart sequence: back along the tree to the component base, up the tree
    to the letter's tail, across, and home again."""
    comp = shape.components[shape.comp_of[base]]
    u, v = shape.graph.ends[letter]
    to_base = comp.tree_path(base)
    to_root = tuple((e, -s) for e, s in reversed(to_base))
    back = tuple((e, -s) for e, s in reversed(comp.tree_path(v)))
    return (to_root + comp.tree_path(u) + ((letter, +1),) + back + to_base)


def monodromy(p, base):
    """Monodromy action of a cover over a connected base at a vertex."""
    cover = p if isinstance(p, CoverMap) else CoverMap(p)
    if len(pi0(cover.target)) != 1:
        raise CoverError(
            "target not connected: decompose per component first")
    shape = shape1(cover.target)
    _check_base(shape.comp_of, base)
    comp = shape.components[shape.comp_of[base]]
    fiber = tuple(x for x in cover.source.vertices
                  if cover.map.vertex_map[x] == base)
    perms = {}
    for letter in comp.letters:
        loop = _letter_loop(shape, base, letter)
        perms[letter] = {x: cover.lift_path(x, loop) for x in fiber}
    return MonodromyAction(shape, base, fiber, perms)


def total_space(m):
    """The cover presented by a monodromy action: one base copy per fiber
    point, glued along tree transport, with cotree edges twisted by the
    permutations."""
    comp = m.shape.components[m.shape.comp_of[m.base]]
    graph = m.shape.graph
    letters = set(comp.letters)
    vertices = [(v, i) for v in graph.vertices if v in comp.vertices
                for i in m.fiber]
    edges = []
    vm = {}
    em = {}
    for (v, i) in vertices:
        vm[(v, i)] = v
    for eid, u, v in graph.edges:
        if u not in comp.vertices:
            continue
        for i in m.fiber:
            j = m.perms[eid][i] if eid in letters else i
            edges.append(((eid, i), (u, i), (v, j)))
            em[(eid, i)] = (eid, +1)
    bp = (m.base, m.fiber[0]) if m.fiber else None
    E = FinGraph(tuple(vertices), tuple(edges), bp)
    return CoverMap(GraphMap.build(E, graph, vm, em))


def enumerate_covers(x, n):
    """All marked n-sheeted covers of a connected pointed base: one
    permutation of {1..n} per cotree generator."""
    if n < 1:
        raise CoverError("need at least one sheet")
    if len(pi0(x)) != 1:
        raise CoverError("base not connected")
    if x.basepoint is None:
        raise CoverError("base not pointed")
    shape = shape1(x)
    letters = shape.components[shape.comp_of[x.basepoint]].letters
    fiber = tuple(range(1, n + 1))
    perm_dicts = [{i: p[i - 1] for i in fiber}
                  for p in iter_permutations(fiber)]
    return [MonodromyAction(shape, x.basepoint, fiber,
                            dict(zip(letters, chosen)))
            for chosen in product(perm_dicts, repeat=len(letters))]


def components_vs_orbits(m):
    """Component count of the total space and orbit count of the action,
    computed independently."""
    E = total_space(m).source
    return len(pi0(E)), len(m.orbits())


def universal_cover_ball(x, base, r):
    """The radius-r ball of the universal cover: reduced dart paths from
    the base, one edge per extension.  Always a tree."""
    if len(pi0(x)) != 1:
        raise CoverError("base not connected")
    _check_base(component_map(x), base)
    endpoint = {(): base}
    layers = [[()]]
    for _ in range(r):
        nxt = []
        for path in layers[-1]:
            v = endpoint[path]
            for e, s, other in x.darts(v):
                if path and path[-1] == (e, -s):
                    continue
                child = path + ((e, s),)
                endpoint[child] = other
                nxt.append(child)
        layers.append(nxt)
        if not nxt:
            break
    vertices = [p for layer in layers for p in layer]
    edges = [(p, p[:-1], p) for p in vertices if p]
    U = FinGraph(tuple(vertices), tuple(edges), ())
    vm = {p: endpoint[p] for p in vertices}
    em = {p: (p[-1][0], p[-1][1]) for p in vertices if p}
    return U, GraphMap.build(U, x, vm, em)


def shape_of_total(p, base=None):
    """Per-orbit certificates for the total-space shape theorem: orbits
    match components, and at a chosen point of each orbit the image
    subgroup of the cover (by folding functor images) equals the
    monodromy stabilizer (by the Schreier construction)."""
    cover = p if isinstance(p, CoverMap) else CoverMap(p)
    if base is None:
        base = (cover.target.basepoint
                if cover.target.basepoint is not None
                else cover.target.vertices[0])
    m = monodromy(cover, base)
    orbits = m.orbits()
    E = cover.source
    comp_sets = pi0(E)
    comp_of_point = {}
    for K in comp_sets:
        for v in K:
            comp_of_point[v] = K
    orbit_comps = [frozenset(comp_of_point[x] for x in orbit)
                   for orbit in orbits]
    components_match = (
        len(comp_sets) == len(orbits)
        and all(len(cs) == 1 for cs in orbit_comps)
        and len(set(orbit_comps)) == len(orbit_comps))

    F = induce_functor(cover.map)
    letters = m.letters
    certificates = []
    for orbit in orbits:
        point = orbit[0]
        cb = F.src.comp_of[point]
        comp = F.src.components[cb]
        c = F.conj[point]
        image_words = [mul(inv(c), F.gen_images[l], c) for l in comp.letters]
        image = SubgroupAutomaton.from_words(letters, image_words)
        stab = SubgroupAutomaton.from_schreier(letters, m.perms, point)
        certificates.append({
            "orbit": orbit,
            "point": point,
            "image": image,
            "stabilizer": stab,
            "image_rank": image.rank(),
            "index": stab.index(),
            "equal": image.same(stab),
        })
    ok = components_match and all(c["equal"] for c in certificates)
    return {"ok": ok, "components_match_orbits": components_match,
            "orbit_count": len(orbits), "component_count": len(comp_sets),
            "certificates": certificates}


def decompose_cover(p):
    """Split a cover over a disconnected base into one cover per target
    component, keyed by the component representative."""
    cover = p if isinstance(p, CoverMap) else CoverMap(p)
    X, B = cover.source, cover.target
    out = {}
    for K in pi0(B):
        rep = _least_id(K)
        bverts = tuple(v for v in B.vertices if v in K)
        bedges = tuple((e, u, v) for e, u, v in B.edges if u in K)
        sub_b = FinGraph(bverts, bedges,
                         B.basepoint if B.basepoint in K else None)
        sverts = tuple(x for x in X.vertices if cover.map.vertex_map[x] in K)
        svset = set(sverts)
        sedges = tuple((e, u, v) for e, u, v in X.edges if u in svset)
        sub_x = FinGraph(sverts, sedges,
                         X.basepoint if X.basepoint in svset else None)
        vm = {x: cover.map.vertex_map[x] for x in sverts}
        em = {e: cover.map.edge_map[e] for e, _, _ in sedges}
        out[rep] = CoverMap(GraphMap(sub_x, sub_b, vm, em))
    return out


def unmarked_cover_count(x, n):
    """Number of n-sheeted covers up to relabeling the fiber.

    A transitive action is fixed up to relabeling by the stabilizer of
    any of its points, whose canonical automaton `from_schreier` builds;
    the least of these over an orbit is a relabeling invariant of the
    orbit that tells non-isomorphic orbits apart.  An action is the
    disjoint union of its orbits, so the sorted orbit keys name its
    isomorphism class, and the count is the number of distinct keys.
    """
    seen = set()
    for m in enumerate_covers(x, n):
        seen.add(tuple(_sorted_ids([
            _least_id([SubgroupAutomaton.from_schreier(
                m.letters, m.perms, p).key() for p in orbit])
            for orbit in m.orbits()])))
    return len(seen)


def _count_pointed_lifts(U, proj, cover, cap=100000):
    """Exhaustive backtracking count of pointed maps U -> E over the base.

    Vertices of the ball are visited in BFS order (parents first); at each
    edge every dart over the required base dart is tried, so the count is
    exact and does not presuppose unique lifting.
    """
    order = [p for p in U.vertices if p]
    order.sort(key=len)
    solutions = [0]
    budget = [cap]

    def extend(idx, vm):
        if budget[0] <= 0:
            return
        if idx == len(order):
            solutions[0] += 1
            return
        path = order[idx]
        eid, sign = path[-1]
        at = vm[path[:-1]]
        budget[0] -= 1
        for e2, s2, other in cover.source.darts(at):
            img = cover.map.dart_image(e2, s2)
            if img[0] == "e" and (img[1], img[2]) == (eid, sign):
                vm[path] = other
                extend(idx + 1, vm)
                del vm[path]

    extend(0, {(): cover.source.basepoint})
    if budget[0] <= 0:
        return None
    return solutions[0]


def universal_cover_initiality(x, covers, r):
    """Pointed lifts of the radius-r universal-cover ball into each
    pointed cover, with uniqueness certified by exhaustive search.

    The canonical lift is built by unique dart lifting.  A cover is fully
    witnessed when the lift also reaches every vertex of its total space;
    otherwise the initiality claim for that cover is returned as
    Unknown(r): the radius was too small to exhibit the whole cover.
    """
    if x.basepoint is None:
        raise CoverError("base not pointed")
    U, proj = universal_cover_ball(x, x.basepoint, r)
    reports = []
    for p in covers:
        cover = p if isinstance(p, CoverMap) else CoverMap(p)
        if cover.source.basepoint is None:
            raise CoverError("cover not pointed")
        if cover.map.vertex_map[cover.source.basepoint] != x.basepoint:
            raise CoverError("cover basepoint not over the base basepoint")
        vm = {(): cover.source.basepoint}
        em = {}
        for path in sorted(U.vertices, key=len):
            if not path:
                continue
            eid, sign = path[-1]
            e2, s2, other = cover.dart_lift(vm[path[:-1]], eid, sign)
            vm[path] = other
            em[path] = (e2, s2)
        lift = GraphMap.build(U, cover.source, vm, em)
        # each path's last dart was lifted over itself from its parent's lift
        assert lift.compose(cover.map) == proj
        count = _count_pointed_lifts(U, proj, cover)
        onto = set(vm.values()) == set(cover.source.vertices)
        reports.append({
            "lift": lift,
            "exists": count is None or count >= 1,
            "unique": count == 1 if count is not None else None,
            "onto": onto,
            "verdict": "certified" if (count == 1 and onto) else Unknown(r),
        })
    return {"ball": U, "projection": proj, "lifts": reports}
