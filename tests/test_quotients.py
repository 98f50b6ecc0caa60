"""Group actions on graphs: action validation, quotient groupoids,
fiber sequences, and the always-a-fibration property suite.

Orbit/stabilizer rows and quotient shapes were derived by hand before
running anything; the free-action cases are cross-checked against the
shape of an independently built orbit graph.
"""

import random
from itertools import product as iproduct

import pytest

from modalfib.graphs import (
    FinGraph, GraphMap, _sort_key,
    point, interval, star, cycle, path_graph, bouquet, disjoint_union,
    graph_isomorphic, pi0, pi0_by_definition,
)
from modalfib.groupoids import shape1
from modalfib.corpus import random_graph, random_connected_graph
from modalfib.fingroupoids import FinGroupoid, hfiber
from modalfib.quotients import (
    ActionError, SizeError, ActionGroupoid, GraphAction,
    permutation_group, trivial_group, cyclic_group, klein_group,
    graph_action,
    enumerate_automorphisms, enumerate_actions,
    shape_of_quotient, shape_quotient_functor, orbit_graph,
    quotient_is_fibration, fiber_sequence_check,
)

from reference_action_laws import all_pairs_law_holds


def swap_star_action():
    s = star(2)
    m = GraphMap.build(s, s, {"c": "c", 0: 1, 1: 0}, {"a0": "a1", "a1": "a0"})
    return graph_action(cyclic_group(2), s, [m])


def rotation_c6_action():
    c6 = cycle(6)
    m = GraphMap.build(c6, c6, {i: (i + 3) % 6 for i in range(6)},
                       {"e%d" % i: "e%d" % ((i + 3) % 6) for i in range(6)})
    return graph_action(cyclic_group(2), c6, [m])


def loop_flip_action():
    b1 = bouquet(1)
    m = GraphMap(b1, b1, {"w": "w"}, {"l0": ("l0", -1)})
    return graph_action(cyclic_group(2), b1, [m])


def edge_reversal_action():
    # free on vertices, but each edge lands on its own reversal
    g = FinGraph((0, 1), (("e0", 0, 1), ("e1", 1, 0)), 0)
    m = GraphMap(g, g, {0: 1, 1: 0}, {"e0": ("e0", -1), "e1": ("e1", -1)})
    return graph_action(cyclic_group(2), g, [m])


SUITE_GROUPS = [
    ("c1", trivial_group()),
    ("c2", cyclic_group(2)),
    ("c3", cyclic_group(3)),
    ("c4", cyclic_group(4)),
    ("v4", klein_group()),
]

SUITE_SPACES = [
    ("pt", point()),
    ("interval", interval()),
    ("star2", star(2)),
    ("path3", path_graph(3)),
    ("cyc3", cycle(3)),
    ("cyc4", cycle(4)),
    ("cyc6", cycle(6)),
    ("loop", bouquet(1)),
    ("fig8", bouquet(2)),
    ("cyc3+pt", disjoint_union(cycle(3), point())),
]


def suite_actions():
    for _, g in SUITE_GROUPS:
        for _, x in SUITE_SPACES:
            for a in enumerate_actions(g, x):
                yield a


# -- groups ----------------------------------------------------------------


def test_group_catalog_orders():
    assert trivial_group().order == 1
    assert cyclic_group(2).order == 2
    assert cyclic_group(3).order == 3
    assert cyclic_group(4).order == 4
    assert klein_group().order == 4


def test_group_multiplication_is_diagram_order():
    g = permutation_group(3, ((1, 2, 0),))
    r = (1, 2, 0)
    assert g.mul[(r, r)] == (2, 0, 1)
    assert g.inv[r] == (2, 0, 1)
    assert g.mul[(r, g.inv[r])] == g.identity


def test_group_words_reproduce_elements():
    for _, g in SUITE_GROUPS:
        for el in g.elements:
            acc = g.identity
            for i in g.words[el]:
                acc = g.mul[(acc, g.generators[i])]
            assert acc == el


def test_group_rejects_non_permutation():
    with pytest.raises(ActionError):
        permutation_group(3, ((0, 0, 1),))


# -- action validation -----------------------------------------------------


def test_relation_violation_is_refused():
    c3 = cycle(3)
    rot = GraphMap.build(c3, c3, {i: (i + 1) % 3 for i in range(3)},
                         {"e%d" % i: "e%d" % ((i + 1) % 3) for i in range(3)})
    with pytest.raises(ActionError):
        graph_action(cyclic_group(2), c3, [rot])


def test_repeated_generator_with_its_own_map_is_accepted():
    c3 = cycle(3)
    rot = GraphMap.build(c3, c3, {i: (i + 1) % 3 for i in range(3)},
                         {"e%d" % i: "e%d" % ((i + 1) % 3) for i in range(3)})
    r = (1, 2, 0)
    a = graph_action(permutation_group(3, (r, r)), c3, [rot, rot])
    assert a.group.order == 3
    assert a.maps[r].vertex_map == rot.vertex_map
    assert a.maps[r].edge_map == rot.edge_map


def test_collapsing_generator_is_refused():
    s = star(2)
    crush = GraphMap.build(s, s, {"c": "c", 0: "c", 1: 1},
                           {"a0": None, "a1": "a1"})
    with pytest.raises(ActionError):
        graph_action(cyclic_group(2), s, [crush])


def test_orbit_and_stabilizer():
    a = swap_star_action()
    assert a.orbit("c") == ("c",)
    assert a.orbit(0) == (0, 1)
    assert len(a.stabilizer("c")) == 2
    assert len(a.stabilizer(0)) == 1
    assert not a.is_free()
    assert rotation_c6_action().is_free()
    with pytest.raises(ActionError):
        a.orbit("nope")


def test_automorphism_counts():
    # dihedral counts, plus sign choices on loops
    assert len(enumerate_automorphisms(cycle(3))) == 6
    assert len(enumerate_automorphisms(cycle(4))) == 8
    assert len(enumerate_automorphisms(star(2))) == 2
    assert len(enumerate_automorphisms(bouquet(1))) == 2
    assert len(enumerate_automorphisms(bouquet(2))) == 8


# -- quotient shapes -------------------------------------------------------


def test_star_swap_quotient_is_two_element_group():
    Q = shape_of_quotient(swap_star_action())
    assert isinstance(Q, FinGroupoid)
    assert len(Q.objects) == 1
    assert len(Q.morphisms) == 2
    o = Q.objects[0]
    m = next(x for x in Q.morphisms if x != Q.ident[o])
    assert Q.comp[(m, m)] == Q.ident[o]


def test_trivial_point_quotient_delooping():
    def orders(Q):
        o = Q.objects[0]
        out = []
        for m in Q.morphisms:
            k, x = 1, m
            while x != Q.ident[o]:
                x = Q.comp[(x, m)]
                k += 1
            out.append(k)
        return sorted(out)

    c4, k4, pt = cyclic_group(4), klein_group(), point()
    ident = GraphMap.identity(pt)
    q4 = shape_of_quotient(
        graph_action(c4, pt, [ident] * len(c4.generators)))
    assert (len(q4.objects), len(q4.morphisms)) == (1, 4)
    assert orders(q4) == [1, 2, 4, 4]
    qk = shape_of_quotient(
        graph_action(k4, pt, [ident] * len(k4.generators)))
    assert (len(qk.objects), len(qk.morphisms)) == (1, 4)
    assert orders(qk) == [1, 2, 2, 2]


def test_free_rotation_quotient_matches_half_cycle():
    a = rotation_c6_action()
    Q = shape_of_quotient(a)
    assert isinstance(Q, ActionGroupoid)
    assert Q.component_reps() == (0,)
    assert Q.vertex_group_rank(0) == 1
    # independent route: build the orbit graph and present its shape
    og = orbit_graph(a)
    assert graph_isomorphic(og, cycle(3))
    assert shape1(og).summary() == [(0, 3, 1)]


def test_size_bound():
    with pytest.raises(SizeError):
        shape_of_quotient(rotation_c6_action(), max_group_order=1)
    with pytest.raises(SizeError):
        quotient_is_fibration(rotation_c6_action(), max_group_order=1)


def test_rank_preconditions():
    flip = shape_of_quotient(loop_flip_action())
    assert isinstance(flip, ActionGroupoid)
    with pytest.raises(ActionError):
        flip.vertex_group_rank("w")
    rev = shape_of_quotient(edge_reversal_action())
    assert isinstance(rev, ActionGroupoid)
    with pytest.raises(ActionError):
        rev.vertex_group_rank(0)
    with pytest.raises(ActionError):
        orbit_graph(edge_reversal_action())


# -- fiber sequence reports ------------------------------------------------


def test_fiber_sequence_free_rotation():
    r = fiber_sequence_check(rotation_c6_action(), 0)
    assert r["orbit"] == (0, 3)
    assert r["orbit_size"] == 2
    assert r["stabilizer_size"] == 1
    assert r["exact"] and r["fiber_matches_group"]
    assert r["free_at_vertex"] and r["orbit_is_group"]


def test_fiber_sequence_star_center():
    r = fiber_sequence_check(swap_star_action(), "c")
    assert r["orbit"] == ("c",)
    assert r["orbit_size"] == 1
    assert r["stabilizer_size"] == 2
    assert r["exact"] and r["fiber_matches_group"]
    assert not r["free_at_vertex"]
    arm = fiber_sequence_check(swap_star_action(), 0)
    assert (arm["orbit_size"], arm["stabilizer_size"]) == (2, 1)


def test_fiber_sequence_trivial_action():
    k4, pt = klein_group(), point()
    r = fiber_sequence_check(
        graph_action(k4, pt, [GraphMap.identity(pt)] * len(k4.generators)),
        "pt")
    assert r["orbit_size"] == 1
    assert r["stabilizer_size"] == 4
    assert r["exact"] and r["fiber_matches_group"]


def test_fiber_sequence_exact_everywhere():
    for a in suite_actions():
        for v in a.space.vertices:
            r = fiber_sequence_check(a, v)
            assert r["exact"]
            assert r["fiber_matches_group"]
            assert r["orbit_covered_evenly"]
            assert r["orbit_is_group"]


# -- the quotient map is always a fibration --------------------------------


def test_fibration_spec_rows():
    assert quotient_is_fibration(swap_star_action())
    assert quotient_is_fibration(rotation_c6_action())
    k4, pt = klein_group(), point()
    assert quotient_is_fibration(
        graph_action(k4, pt, [GraphMap.identity(pt)] * len(k4.generators)))
    assert quotient_is_fibration(loop_flip_action())
    assert quotient_is_fibration(edge_reversal_action())


def test_fibration_exhaustive_suite():
    total = 0
    free = 0
    for a in suite_actions():
        assert quotient_is_fibration(a)
        total += 1
        free += a.is_free()
    assert total == 237
    assert free == 30


def test_action_counts_for_hand_checked_cells():
    # involutions-or-unit in the dihedral groups of small cycles
    assert len(enumerate_actions(cyclic_group(2), cycle(3))) == 4
    assert len(enumerate_actions(cyclic_group(2), cycle(4))) == 6
    # order dividing 3: the unit and both rotations
    assert len(enumerate_actions(cyclic_group(3), cycle(3))) == 3
    assert len(enumerate_actions(trivial_group(), cycle(6))) == 1


# -- the law on generators against the all-pairs reference ----------------


def _images(space, m):
    return (tuple(m.vertex_map[v] for v in space.vertices),
            tuple(m.edge_map[e] for e in space.edge_ids()))


def test_generator_law_accepts_exactly_the_tables_all_pairs_accepts():
    """Every table that sends the unit to the identity and each other
    element to an automorphism: GraphAction accepts it exactly when the
    all-pairs reference does, and the accepted tables are the actions
    that enumerate_actions finds."""
    groups = (cyclic_group(2), cyclic_group(3), cyclic_group(4),
              klein_group())
    outcomes = {True: 0, False: 0}
    for space in (cycle(4), path_graph(3), star(3)):
        auts = enumerate_automorphisms(space)
        index = {_images(space, m): i for i, m in enumerate(auts)}
        unit = GraphMap.identity(space)
        for group in groups:
            others = [g for g in group.elements if g != group.identity]
            accepted = set()
            for choice in iproduct(range(len(auts)), repeat=len(others)):
                maps = {g: auts[i] for g, i in zip(others, choice)}
                maps[group.identity] = unit
                try:
                    GraphAction(group, space, maps)
                except ActionError:
                    ok = False
                else:
                    ok = True
                    accepted.add(choice)
                assert ok == all_pairs_law_holds(group, maps), (space, choice)
                outcomes[ok] += 1
            found = {tuple(index[_images(space, a.maps[g])] for g in others)
                     for a in enumerate_actions(group, space)}
            assert found == accepted
    assert outcomes[True] and outcomes[False], outcomes


def test_swapping_two_non_generator_maps_breaks_the_table():
    c4 = cycle(4)
    rot = GraphMap.build(c4, c4, {i: (i + 1) % 4 for i in range(4)},
                         {"e%d" % i: "e%d" % ((i + 1) % 4) for i in range(4)})
    group = cyclic_group(4)
    maps = dict(graph_action(group, c4, [rot]).maps)
    x, y = [g for g in group.elements
            if g != group.identity and g not in group.generators]
    maps[x], maps[y] = maps[y], maps[x]
    assert not all_pairs_law_holds(group, maps)
    with pytest.raises(ActionError, match="multiplication table"):
        GraphAction(group, c4, maps)


# -- free-action comparison with the orbit graph ---------------------------


def _quotient_profile(a):
    """(component count, sorted vertex-group ranks) of the quotient."""
    Q = shape_of_quotient(a)
    if isinstance(Q, FinGroupoid):
        cm = Q.component_map()
        reps = sorted(set(cm.values()), key=_sort_key)
        for o in reps:
            assert len(Q.aut(o)) == 1
        return len(reps), [0] * len(reps)
    reps = Q.component_reps()
    return len(reps), sorted(Q.vertex_group_rank(r) for r in reps)


def test_free_quotients_match_orbit_graph_shape():
    compared = 0
    for a in suite_actions():
        if not a.is_free():
            continue
        try:
            og = orbit_graph(a)
        except ActionError:
            continue        # edge meets its own reversal; no quotient graph
        S = shape1(og)
        want = (len(S.components),
                sorted(len(c.letters) for c in S.components.values()))
        assert _quotient_profile(a) == want
        compared += 1
    assert compared >= 15


# -- identification counts in the quotient groupoid ------------------------


def test_hom_counts_match_translations_on_forests():
    forests = [point(), interval(), star(2), path_graph(3),
               disjoint_union(point(), point()),
               disjoint_union(interval(), point())]
    checked = 0
    for _, g in SUITE_GROUPS:
        for x in forests:
            S = shape1(x)
            for a in enumerate_actions(g, x):
                Q = shape_of_quotient(a)
                assert isinstance(Q, FinGroupoid)
                for u in Q.objects:
                    for v in Q.objects:
                        translates = sum(
                            1 for el in g.elements
                            if S.comp_of[a.maps[el].vertex_map[u]] == v)
                        assert len(Q.hom(u, v)) == translates
                        checked += 1
    assert checked > 50


def test_quotient_functor_fibers_are_group_sized():
    a = swap_star_action()
    F = shape_quotient_functor(a)
    H = hfiber(F, F.target.objects[0])
    cm = H.component_map()
    assert len(H.objects) == 2
    assert len(set(cm.values())) == 2
    assert all(m == H.ident[H.src[m]] for m in H.morphisms)
    k4, pt = klein_group(), point()
    tk = graph_action(k4, pt, [GraphMap.identity(pt)] * len(k4.generators))
    Hk = hfiber(shape_quotient_functor(tk), "pt")
    assert len(Hk.objects) == 4
    assert len(set(Hk.component_map().values())) == 4
    with pytest.raises(ActionError):
        shape_quotient_functor(rotation_c6_action())


# -- shape preserves connectedness -----------------------------------------


def test_connectedness_fixed_rows():
    for g in (cycle(3), star(5), path_graph(4)):
        assert len(pi0_by_definition(g)) == 1
        assert len(shape1(g).components) == 1


def test_connectedness_on_corpus():
    # shape1 and pi0 read one spanning forest, so each is checked against
    # the components found from their definition
    rng = random.Random(940)
    for _ in range(40):
        g = random_graph(rng)
        want = set(pi0_by_definition(g))
        assert set(pi0(g)) == want
        assert {c.vertices for c in shape1(g).components.values()} == want
        g = random_connected_graph(rng)
        assert len(pi0(g)) == 1
        assert len(pi0_by_definition(g)) == 1
        assert len(shape1(g).components) == 1
