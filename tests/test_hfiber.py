"""Symbolic fiber and gamma tests.

The gamma decision procedure is cross-checked against two independent
oracles: a direct count of reduced words for coset enumeration over the
trivial subgroup, and a rank-based criterion for maps onto trees, where
the symbolic fiber has exactly one coset and the whole question reduces
to the fiber being one tree-connected piece of the right rank.
"""

import random
from itertools import product as iproduct

from modalfib.graphs import GraphMap, point, fiber, pi0
from modalfib.words import reduce_word
from modalfib.automata import SubgroupAutomaton
from modalfib.groupoids import shape1, induce_functor
from modalfib.hfiber import (
    homotopy_fiber, prism, gamma_is_equivalence, GammaAnalyzer,
)
from modalfib.corpus import random_map
from lib_corpus import (bad_fold_figure_eight, box_projection, collapse_fold,
                        double_cover, random_graph, retraction_fold,
                        split_fibration, tree_collapse,
                        triangle_with_tail_fold, two_sheets, wedge_fold)
from lib_automata import conjugate_by
from lib_graphs import cycle, disjoint_union, interval, path_graph, star
from lib_hfiber import enumerate_cosets


# --- oracles ---------------------------------------------------------------

def count_reduced_words(rank, length):
    """All distinct reduced words of at most the given length, counted by
    brute enumeration of letter sequences."""
    letters = [(g, s) for g in range(rank) for s in (+1, -1)]
    seen = {()}
    for n in range(1, length + 1):
        for seq in iproduct(letters, repeat=n):
            w = reduce_word(seq)
            if len(w) == n:
                seen.add(w)
    return len(seen)


def gamma_tree_target_oracle(f, y):
    """Gamma test valid when every target component is a tree: one coset,
    so gamma is an equivalence iff each source component over y's
    component meets the fiber in a single piece of full rank."""
    S = shape1(f.source)
    T = shape1(f.target)
    assert all(not c.letters for c in T.components.values())
    base = T.comp_of[y]
    fib = fiber(f, y)
    comps = pi0(fib.subgraph)
    for cb, comp in S.components.items():
        if T.comp_of[f.vertex_map[cb]] != base:
            continue
        mine = [K for K in comps if K <= comp.vertices]
        if len(mine) != 1:
            return False
        K = mine[0]
        edges_in = sum(1 for _, u, _ in fib.subgraph.edges if u in K)
        if edges_in - len(K) + 1 != len(comp.letters):
            return False
    return True


# --- coset enumeration against the word count ------------------------------

def test_point_into_circle_coset_ball():
    f = GraphMap.build(point(), cycle(3), {"pt": 0}, {})
    hf = homotopy_fiber(induce_functor(f), 0)
    assert len(hf.entries) == 1
    entry = hf.entries[0]
    assert entry.subgroup.index() is None
    reps, truncated = enumerate_cosets(entry, radius=3)
    assert len(reps) == count_reduced_words(1, 3) == 7
    assert truncated
    assert not gamma_is_equivalence(f, 0)


def test_trivial_subgroup_ball_matches_word_count_rank2():
    # a bouquet target gives ambient rank 2
    from modalfib.graphs import bouquet
    f = GraphMap.build(point(), bouquet(2), {"pt": "w"}, {})
    entry = homotopy_fiber(induce_functor(f), "w").entries[0]
    reps, truncated = enumerate_cosets(entry, radius=2, max_cosets=100)
    assert len(reps) == count_reduced_words(2, 2) == 17
    assert truncated


# --- the double cover ------------------------------------------------------

def test_double_cover_symbolic_fiber():
    f = double_cover()
    F = induce_functor(f)
    hf = homotopy_fiber(F, 0)
    assert len(hf.entries) == 1
    entry = hf.entries[0]
    assert entry.subgroup.index() == 2
    assert hf.total_cosets() == 2

    # the image subgroup is generated by the square of the ambient letter
    g = shape1(cycle(3)).components[0].letters[0]
    squares = SubgroupAutomaton.from_words((g,), [((g, 1), (g, 1))])
    assert entry.subgroup.same(squares)

    # the two fiber vertices mark the two distinct cosets
    assert set(entry.marked) == {0, 3}
    assert not entry.same_coset(entry.marked[0], entry.marked[3])

    # stabilizers at both cosets are the same squared subgroup
    for x in (0, 3):
        assert conjugate_by(entry.subgroup, entry.marked[x]).same(squares)

    reps, truncated = enumerate_cosets(entry)
    assert len(reps) == 2 and not truncated


def test_double_cover_gamma_everywhere():
    f = double_cover()
    an = GammaAnalyzer(f)
    for y in f.target.vertices:
        assert an.at_vertex(y)
    assert an.everywhere()


def test_double_cover_prism_triangle():
    f = double_cover()
    data = prism(f, 0)
    assert data.triangle_commutes
    assert len(data.delta) == 2
    assert len(data.gamma) == 2
    entry = data.hfib.entries[0]
    (c1, w1), (c2, w2) = data.delta[0], data.delta[3]
    assert c1 == c2
    assert not entry.same_coset(w1, w2)


# --- folds and collapses ---------------------------------------------------

def test_wedge_fold_gamma_center_only():
    f = wedge_fold()
    assert gamma_is_equivalence(f, 0)
    assert not gamma_is_equivalence(f, 1)


def test_retraction_fold_gamma_everywhere():
    assert GammaAnalyzer(retraction_fold()).everywhere()


def test_collapse_fold_gamma_everywhere():
    assert GammaAnalyzer(collapse_fold()).everywhere()


def test_tree_collapse_and_split_fibration():
    assert GammaAnalyzer(tree_collapse()).everywhere()
    assert GammaAnalyzer(split_fibration()).everywhere()
    assert GammaAnalyzer(two_sheets()).everywhere()


def test_triangle_with_tail_fold_fails_over_tail_end():
    f = triangle_with_tail_fold()
    assert gamma_is_equivalence(f, 0)
    assert not gamma_is_equivalence(f, 1)


def test_bad_fold_figure_eight_not_gamma():
    f = bad_fold_figure_eight()
    assert not gamma_is_equivalence(f, 0)


def test_box_projection_not_gamma():
    f = box_projection()
    for y in f.target.vertices:
        assert not gamma_is_equivalence(f, y)


def test_empty_fiber_over_reached_component():
    f = GraphMap.build(point(), interval(), {"pt": 0}, {})
    assert gamma_is_equivalence(f, 0)
    assert not gamma_is_equivalence(f, 1)
    hf = homotopy_fiber(induce_functor(f), 1)
    assert len(hf.entries) == 1
    assert hf.entries[0].marked == {}


def test_unreached_component_is_vacuous():
    dst = disjoint_union(point("p"), point("q"))
    f = GraphMap.build(point(), dst, {"pt": (0, "p")}, {})
    hf = homotopy_fiber(induce_functor(f), (1, "q"))
    assert not hf.entries
    assert gamma_is_equivalence(f, (1, "q"))
    assert gamma_is_equivalence(f, (0, "p"))


def test_identity_gamma_and_fiber():
    f = GraphMap.identity(cycle(3))
    an = GammaAnalyzer(f)
    assert an.everywhere()
    hf = homotopy_fiber(an.F, 1)
    entry = hf.entries[0]
    assert entry.subgroup.index() == 1
    assert list(entry.marked) == [1]


# --- oracle agreement on tree targets --------------------------------------

def test_gamma_agrees_with_tree_target_oracle():
    rng = random.Random(20)
    targets = [interval(), path_graph(3), star(3), point()]
    checked = disagreed = 0
    for i in range(80):
        src = random_graph(rng, max_vertices=6, max_edges=7)
        dst = targets[i % len(targets)]
        f = random_map(rng, src, dst)
        for y in dst.vertices:
            got = gamma_is_equivalence(f, y)
            want = gamma_tree_target_oracle(f, y)
            checked += 1
            if got != want:
                disagreed += 1
    assert checked >= 200
    assert disagreed == 0


def test_covers_are_gamma_equivalences():
    # hand-built covers: wrapping maps between cycles
    for n, k in ((6, 3), (6, 2), (6, 1), (4, 2), (3, 1)):
        src, dst = cycle(n), cycle(k)
        vm = {i: i % k for i in range(n)}
        em = {"e%d" % i: "e%d" % (i % k) for i in range(n)}
        f = GraphMap.build(src, dst, vm, em)
        assert GammaAnalyzer(f).everywhere(), (n, k)


def test_prism_triangle_commutes_randomly():
    rng = random.Random(21)
    for _ in range(50):
        src = random_graph(rng, max_vertices=6, max_edges=7)
        dst = random_graph(rng, max_vertices=5, max_edges=6)
        f = random_map(rng, src, dst)
        y = rng.choice(dst.vertices)
        data = prism(f, y)
        assert data.triangle_commutes
        assert set(data.delta) == set(fiber(f, y).subgraph.vertices)
