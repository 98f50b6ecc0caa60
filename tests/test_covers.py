"""Covers, monodromy, enumeration, and the total-space shape theorem."""

import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from modalfib.graphs import (
    FinGraph, GraphMap, cycle, path_graph, star, point, bouquet,
    disjoint_union, pi0, graph_isomorphic, enumerate_graph_maps,
)
from modalfib.groupoids import shape1
from modalfib.words import Unknown
from modalfib.automata import SubgroupAutomaton
from modalfib.corpus import (
    circle, loop, figure_eight, wedge_fold, collapse_fold, double_cover,
    bad_fold_figure_eight, two_sheets, random_connected_graph,
)
from modalfib.covers import (
    CoverError, CoverMap, MonodromyAction,
    is_cover, monodromy, total_space, enumerate_covers,
    components_vs_orbits, universal_cover_ball,
    shape_of_total, universal_cover_initiality,
    decompose_cover, unmarked_cover_count,
)


# The 5-point permutation from the worked covering example, in cycle
# notation (12)(354): two points swap, the other three rotate.
FIG_PERM = {1: 2, 2: 1, 3: 5, 5: 4, 4: 3}


def five_fold_action():
    return MonodromyAction(shape1(loop()), 0, (1, 2, 3, 4, 5),
                           {"e0": FIG_PERM})


# ---------------------------------------------------------------------------
# is_cover

def test_is_cover_examples():
    # C6 -> C3 wrap: every star is one in, one out, images distinct.
    assert is_cover(double_cover())
    assert is_cover(GraphMap.identity(cycle(5)))
    assert not is_cover(wedge_fold())          # star at the hub is 2:1
    assert not is_cover(bad_fold_figure_eight())
    assert not is_cover(collapse_fold())       # degenerate edges


def test_cover_map_certifies():
    CoverMap(double_cover())
    with pytest.raises(CoverError):
        CoverMap(wedge_fold())


def test_is_cover_star_counts_by_hand():
    # Independent route for the C6 -> C3 wrap: count darts per vertex on
    # both sides and check the induced map on darts is injective.
    dc = double_cover()
    for x in dc.source.vertices:
        ds = dc.source.darts(x)
        assert len(ds) == 2
        images = {dc.dart_image(e, s) for e, s, _ in ds}
        assert len(images) == 2


# ---------------------------------------------------------------------------
# monodromy

def test_double_cover_monodromy_is_transposition():
    # Lifting the triangle loop 0-1-2-0 from source vertex 0 walks the
    # hexagon halfway: 0,1,2 -> 3.  Frozen from the hand walk.
    m = monodromy(double_cover(), 0)
    assert m.fiber == (0, 3)
    assert m.letters == ("e1",)
    assert m.perms["e1"] == {0: 3, 3: 0}


def test_monodromy_at_non_base_vertex():
    # Conjugating by the tree transport gives the action on the fiber
    # over any chosen vertex; over vertex 1 the fiber is {1, 4}.
    m = monodromy(double_cover(), 1)
    assert m.fiber == (1, 4)
    assert m.perms["e1"] == {1: 4, 4: 1}


def test_trivial_bundle_monodromy_identity():
    m = monodromy(two_sheets(), 0)
    assert m.letters == ()
    assert len(m.fiber) == 2


def test_monodromy_rejects_disconnected_target():
    base = disjoint_union(cycle(3), point())
    p = GraphMap.identity(base)
    with pytest.raises(CoverError):
        monodromy(p, (0, 0))


def test_monodromy_action_validates_permutations():
    with pytest.raises(CoverError):
        MonodromyAction(shape1(loop()), 0, (1, 2), {"e0": {1: 1, 2: 1}})


# ---------------------------------------------------------------------------
# total_space

def test_identity_perms_give_disjoint_copies():
    base = circle()
    m = MonodromyAction(shape1(base), 0, (1, 2),
                        {"e1": {1: 1, 2: 2}})
    E = total_space(m).source
    assert graph_isomorphic(E, disjoint_union(cycle(3), cycle(3)))


def test_transposition_gives_hexagon():
    base = circle()
    m = MonodromyAction(shape1(base), 0, (1, 2),
                        {"e1": {1: 2, 2: 1}})
    E = total_space(m).source
    assert graph_isomorphic(E, cycle(6))


def test_five_fold_total_space_components():
    # The (12)(354) action splits the total space into a 2-sheet part and
    # a 3-sheet part over the one-vertex circle.
    m = five_fold_action()
    E = total_space(m).source
    comps = pi0(E)
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [2, 3]


def test_five_fold_over_subdivided_circle():
    m = MonodromyAction(shape1(circle()), 0, (1, 2, 3, 4, 5),
                        {"e1": FIG_PERM})
    E = total_space(m).source
    comps = pi0(E)
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [6, 9]


def test_round_trip_action_to_cover_to_action():
    m = five_fold_action()
    p = total_space(m)
    m2 = monodromy(p, 0)
    assert m2.fiber == tuple((0, i) for i in m.fiber)
    expected = {(0, i): (0, j) for i, j in m.perms["e0"].items()}
    assert m2.perms["e0"] == expected


def test_round_trip_cover_to_action_to_cover():
    dc = double_cover()
    m = monodromy(dc, 0)
    E = total_space(m).source
    assert graph_isomorphic(E, cycle(6))
    m2 = monodromy(total_space(m), 0)
    assert m2.perms["e1"] == {(0, i): (0, j)
                              for i, j in m.perms["e1"].items()}


# ---------------------------------------------------------------------------
# enumeration

def test_circle_cover_counts():
    for n, expected in [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)]:
        assert len(enumerate_covers(loop(), n)) == expected
    assert len(enumerate_covers(circle(), 3)) == 6


def test_figure_eight_two_sheets():
    assert len(enumerate_covers(figure_eight(), 2)) == 4


def test_enumerate_rejects_bad_input():
    with pytest.raises(CoverError):
        enumerate_covers(loop(), 0)
    with pytest.raises(CoverError):
        enumerate_covers(disjoint_union(loop(), loop()), 2)


BAD_BASES = [
    "monodromy(total_space(five_fold_action()), 'nope')",
    "shape_of_total(total_space(five_fold_action()), base='nope')",
    "universal_cover_ball(loop(), 'nope', 3)",
]


@pytest.mark.parametrize("call", BAD_BASES)
def test_base_that_is_not_a_vertex_rejected(call):
    with pytest.raises(CoverError) as info:
        eval(call)
    assert info.value.subject == ("vertex", "nope")
    assert "'nope'" in str(info.value)


def test_base_that_is_not_a_vertex_rejected_without_asserts(run_optimized):
    run = run_optimized(
        "from modalfib.corpus import loop\n"
        "from modalfib.covers import CoverError, universal_cover_ball\n"
        "try:\n    %s\nexcept CoverError as e:\n    print(e.subject)\n"
        % BAD_BASES[-1])
    assert run.returncode == 0, run.stderr
    assert run.stdout == "('vertex', 'nope')\n"


def test_enumerated_covers_build_valid_total_spaces():
    for base in (loop(), figure_eight()):
        for n in (1, 2, 3):
            for m in enumerate_covers(base, n):
                p = total_space(m)     # CoverMap certifies the star law
                assert len(p.source.vertices) == n * len(base.vertices)


def test_components_equal_orbits_exhaustive_small():
    for base in (loop(), circle()):
        for n in range(1, 6):
            for m in enumerate_covers(base, n):
                c, o = components_vs_orbits(m)
                assert c == o
    for n in range(1, 4):
        for m in enumerate_covers(figure_eight(), n):
            c, o = components_vs_orbits(m)
            assert c == o


def test_components_vs_orbits_examples():
    assert components_vs_orbits(five_fold_action()) == (2, 2)
    # identity on n points: n copies of the base
    m = MonodromyAction(shape1(loop()), 0, (1, 2, 3),
                        {"e0": {1: 1, 2: 2, 3: 3}})
    assert components_vs_orbits(m) == (3, 3)
    # n-cycle: a single orbit and a single connected total space
    m = MonodromyAction(shape1(loop()), 0, (1, 2, 3),
                        {"e0": {1: 2, 2: 3, 3: 1}})
    assert components_vs_orbits(m) == (1, 1)


def test_unmarked_counts():
    # Up to fiber relabeling the covers of the circle are the conjugacy
    # classes of the symmetric group: 1, 2, 3 for n = 1, 2, 3.
    assert unmarked_cover_count(loop(), 1) == 1
    assert unmarked_cover_count(loop(), 2) == 2
    assert unmarked_cover_count(loop(), 3) == 3
    # S2 is abelian, so conjugation cannot merge any of the 4 pairs.
    assert unmarked_cover_count(figure_eight(), 2) == 4


def partitions(n, most=None):
    """The partitions of n into parts of at most `most`, as tuples."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, most or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def burnside_count(r, n):
    """Unmarked n-sheeted covers of a rank-r bouquet by Burnside's lemma:
    the sum over cycle types lambda of n of z_lambda^(r-1), where
    z_lambda = prod of i^m_i * m_i! is the centralizer order of a
    permutation of type lambda."""
    total = Fraction(0)
    for lam in partitions(n):
        z = prod(i ** m * factorial(m) for i, m in Counter(lam).items())
        total += Fraction(z) ** (r - 1)
    assert total.denominator == 1
    return int(total)


def test_burnside_counts_of_known_values():
    assert [burnside_count(0, n) for n in range(1, 5)] == [1, 1, 1, 1]
    assert [burnside_count(1, n) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]
    assert burnside_count(2, 3) == 11 and burnside_count(2, 4) == 43
    assert burnside_count(3, 3) == 49


@pytest.mark.parametrize("r, n", [
    (r, n) for r in range(4) for n in range(1, 7)
    if factorial(n) ** r <= 1000])
def test_unmarked_count_matches_burnside(r, n):
    # canonical orbit forms against the closed form, with no enumeration
    # of relabelings on either side
    assert unmarked_cover_count(bouquet(r), n) == burnside_count(r, n)


# ---------------------------------------------------------------------------
# universal cover balls

def test_circle_ball_is_path():
    U, proj = universal_cover_ball(circle(), 0, 2)
    assert graph_isomorphic(U, path_graph(5))
    assert proj.vertex_map[()] == 0


def test_loop_ball_is_path():
    U, _ = universal_cover_ball(loop(), 0, 3)
    assert graph_isomorphic(U, path_graph(7))


def test_figure_eight_ball_is_star():
    U, _ = universal_cover_ball(figure_eight(), "w", 1)
    assert graph_isomorphic(U, star(4))


def test_tree_ball_recovers_tree():
    t = star(3)
    U, proj = universal_cover_ball(t, "c", 2)
    assert graph_isomorphic(U, t)
    assert set(proj.vertex_map.values()) == set(t.vertices)
    # from an arm tip the radius must reach the diameter
    U2, proj2 = universal_cover_ball(t, 0, 2)
    assert graph_isomorphic(U2, t)
    assert len(set(proj2.vertex_map.values())) == len(t.vertices)


def test_ball_radius_zero():
    U, _ = universal_cover_ball(figure_eight(), "w", 0)
    assert len(U.vertices) == 1 and len(U.edges) == 0


def test_balls_always_trees():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=5, max_extra_edges=3)
        for r in (0, 1, 2, 3):
            U, proj = universal_cover_ball(g, g.vertices[0], r)
            assert len(U.edges) == len(U.vertices) - 1
            assert len(pi0(U)) == 1
            assert proj.source is U


# ---------------------------------------------------------------------------
# shape of the total space

def test_double_cover_stabilizer_is_squares():
    report = shape_of_total(CoverMap(double_cover()))
    assert report["ok"]
    assert report["orbit_count"] == 1
    cert = report["certificates"][0]
    expected = SubgroupAutomaton.from_words(
        ("e1",), [(("e1", +1), ("e1", +1))])
    assert cert["stabilizer"].same(expected)
    assert cert["image"].same(expected)
    assert cert["index"] == 2


def test_trivial_bundle_stabilizers_full():
    m = MonodromyAction(shape1(circle()), 0, (1, 2),
                        {"e1": {1: 1, 2: 2}})
    report = shape_of_total(total_space(m))
    assert report["ok"]
    assert report["orbit_count"] == 2
    full = SubgroupAutomaton(("e1",), 1, {(0, "e1"): 0})
    for cert in report["certificates"]:
        assert cert["stabilizer"].same(full)
        assert cert["image"].same(full)


def test_figure_eight_cover_certificate():
    m = MonodromyAction(shape1(figure_eight()), "w", (1, 2),
                        {"l0": {1: 2, 2: 1}, "l1": {1: 1, 2: 2}})
    report = shape_of_total(total_space(m))
    assert report["ok"]
    assert report["orbit_count"] == 1
    cert = report["certificates"][0]
    assert cert["index"] == 2
    # Schreier generators of the even-l0 subgroup, derived by hand with
    # coset representatives {1, l0}.
    a, b = ("l0", +1), ("l1", +1)
    ai = ("l0", -1)
    expected = SubgroupAutomaton.from_words(
        ("l0", "l1"), [(b,), (a, a), (a, b, ai)])
    assert cert["stabilizer"].same(expected)
    assert cert["image"].same(expected)


def test_five_fold_shape_report():
    report = shape_of_total(total_space(five_fold_action()))
    assert report["ok"]
    assert report["component_count"] == 2
    indices = sorted(c["index"] for c in report["certificates"])
    assert indices == [2, 3]


def test_shape_report_random_covers():
    rng = random.Random(33)
    bases = [loop(), circle(), figure_eight()]
    for _ in range(30):
        base = rng.choice(bases)
        n = rng.randint(1, 4)
        sh = shape1(base)
        letters = sh.components[sh.comp_of[base.basepoint]].letters
        perms = {}
        for l in letters:
            xs = list(range(1, n + 1))
            rng.shuffle(xs)
            perms[l] = {i + 1: xs[i] for i in range(n)}
        m = MonodromyAction(sh, base.basepoint, tuple(range(1, n + 1)), perms)
        report = shape_of_total(total_space(m))
        assert report["ok"]


# ---------------------------------------------------------------------------
# decomposition over disconnected bases

def test_decompose_cover():
    B = disjoint_union(circle(), point())
    X = disjoint_union(cycle(6), FinGraph(("p", "q"), ()))
    vm = {(0, i): (0, i % 3) for i in range(6)}
    vm[(1, "p")] = (1, "pt")
    vm[(1, "q")] = (1, "pt")
    em = {(0, "e%d" % i): ((0, "e%d" % (i % 3)), +1) for i in range(6)}
    p = GraphMap(X, B, vm, em)
    parts = decompose_cover(p)
    assert set(parts) == {(0, 0), (1, "pt")}
    hex_part = parts[(0, 0)]
    assert len(hex_part.source.vertices) == 6
    m = monodromy(hex_part, (0, 0))
    assert m.perms[(0, "e1")] == {(0, 0): (0, 3), (0, 3): (0, 0)}
    disc_part = parts[(1, "pt")]
    assert len(disc_part.source.vertices) == 2
    assert len(disc_part.source.edges) == 0


# ---------------------------------------------------------------------------
# initiality of the universal cover ball

def test_double_cover_lift_exists_unique():
    dc = CoverMap(double_cover())
    report = universal_cover_initiality(circle(), [dc], 2)
    entry = report["lifts"][0]
    assert entry["exists"] and entry["unique"]
    # radius 2 cannot exhibit all six vertices upstairs
    assert not entry["onto"]
    assert isinstance(entry["verdict"], Unknown)
    assert entry["verdict"].bound == 2


def test_double_cover_lift_brute_force():
    # Independent exhaustive route: enumerate every graph map from the
    # ball into the hexagon and keep the pointed commuting ones.
    dc = double_cover()
    report = universal_cover_initiality(circle(), [CoverMap(dc)], 2)
    U, proj = report["ball"], report["projection"]
    found = [h for h in enumerate_graph_maps(U, dc.source)
             if h.vertex_map[()] == 0 and h.compose(dc) == proj]
    assert len(found) == 1
    assert found[0] == report["lifts"][0]["lift"]


def test_identity_cover_lift_is_projection():
    ident = CoverMap(GraphMap.identity(circle()))
    report = universal_cover_initiality(circle(), [ident], 2)
    entry = report["lifts"][0]
    assert entry["lift"] == report["projection"]
    assert entry["verdict"] == "certified"


def test_three_fold_cyclic_lift():
    m = MonodromyAction(shape1(circle()), 0, (1, 2, 3),
                        {"e1": {1: 2, 2: 3, 3: 1}})
    p = total_space(m)
    report = universal_cover_initiality(circle(), [p], 4)
    entry = report["lifts"][0]
    assert entry["exists"] and entry["unique"] and entry["onto"]
    assert entry["verdict"] == "certified"


def test_insufficient_radius_reported():
    dc = CoverMap(double_cover())
    report = universal_cover_initiality(circle(), [dc], 1)
    entry = report["lifts"][0]
    assert entry["exists"] and entry["unique"]
    assert isinstance(entry["verdict"], Unknown)
    assert entry["verdict"].bound == 1
