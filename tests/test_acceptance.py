"""End-to-end acceptance checks.

One test per criterion.  Each prints a single PASS/FAIL line straight to
the terminal (past pytest's capture) and enforces its wall-clock budget.
Every test rebuilds what it needs from scratch so it can run standalone.
"""

import math
import random
import time

import pytest

from modalfib import suites
from modalfib.automata import SubgroupAutomaton
from modalfib.classify import classify
from modalfib.corpus import figure_eight, loop, random_graph, random_words
from modalfib.covers import (MonodromyAction, components_vs_orbits,
                             enumerate_covers, total_space,
                             universal_cover_ball,
                             universal_cover_initiality)
from modalfib.fingroupoids import random_functor
from modalfib.graphs import (FinGraph, GraphMap, bouquet, cycle,
                             disjoint_union, graph_isomorphic, interval,
                             path_graph, pi0, pi0_by_definition, point,
                             star)
from modalfib.groupoids import shape1
from modalfib.quotients import (cyclic_group, enumerate_actions,
                                graph_action, klein_group,
                                quotient_is_fibration, shape_of_quotient,
                                trivial_group)
from modalfib.words import inv, mul, reduce_word


@pytest.fixture
def criterion(capsys):
    def check(num, name, budget, ok, elapsed):
        verdict = "PASS" if (ok and elapsed < budget) else "FAIL"
        with capsys.disabled():
            print("ACCEPTANCE %2d %-28s %s (%.2fs, budget %gs)"
                  % (num, name, verdict, elapsed, budget))
        assert ok, "criterion %d (%s) failed" % (num, name)
        assert elapsed < budget, \
            "criterion %d (%s) over budget: %.2fs" % (num, name, elapsed)
    return check


def functor_corpus():
    rng = random.Random(42)
    return [random_functor(rng) for _ in range(1000)]


def test_acceptance_01_circle_loop_rank(criterion):
    t0 = time.perf_counter()
    ok = all(shape1(cycle(k)).summary() == [(0, k, 1)]
             for k in range(3, 13))
    criterion(1, "circle loop rank", 1.0, ok, time.perf_counter() - t0)


def test_acceptance_02_cover_counts(criterion):
    t0 = time.perf_counter()
    counts = [len(enumerate_covers(loop(), n)) for n in range(1, 7)]
    ok = counts == [math.factorial(n) for n in range(1, 7)]
    criterion(2, "marked cover counts", 5.0, ok, time.perf_counter() - t0)


def test_acceptance_03_orbits_match_components(criterion):
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for base, top in ((loop(), 5), (figure_eight(), 3)):
        for n in range(1, top + 1):
            for m in enumerate_covers(base, n):
                comps, orbits = components_vs_orbits(m)
                ok = ok and comps == orbits
                checked += 1
    ok = ok and checked == 153 + 41
    fig2 = MonodromyAction(
        shape1(figure_eight()), "w", (1, 2, 3, 4, 5),
        {"l0": {1: 2, 2: 1, 3: 3, 4: 4, 5: 5},
         "l1": {1: 1, 2: 2, 3: 5, 4: 3, 5: 4}})
    ok = ok and components_vs_orbits(fig2) == (2, 2)
    criterion(3, "orbits match components", 30.0, ok,
              time.perf_counter() - t0)


def test_acceptance_04_nine_way_agreement(criterion):
    t0 = time.perf_counter()
    counts = suites.nine_way(
        (F, random.Random(10000 + i)) for i, F in enumerate(functor_corpus()))
    criterion(4, "nine-way agreement", 60.0, counts["ok"],
              time.perf_counter() - t0)


def test_acceptance_05_fibration_closure(criterion):
    t0 = time.perf_counter()
    counts = suites.closure(functor_corpus(), random.Random(43))
    ok = counts["ok"] and counts["fibrations_seen"] > 100
    criterion(5, "fibration closure", 60.0, ok, time.perf_counter() - t0)


def test_acceptance_06_modality_comparison(criterion):
    t0 = time.perf_counter()
    counts = suites.compare_modalities(functor_corpus())
    criterion(6, "modality comparison", 30.0, counts["ok"],
              time.perf_counter() - t0)


def test_acceptance_07_quotient_fibration(criterion):
    t0 = time.perf_counter()
    groups = [trivial_group(), cyclic_group(2), cyclic_group(3),
              cyclic_group(4), klein_group()]
    spaces = [point(), interval(), star(2), path_graph(3), cycle(3),
              cycle(4), cycle(6), bouquet(1), bouquet(2),
              disjoint_union(cycle(3), point())]
    checked = 0
    ok = True
    for G in groups:
        for X in spaces:
            for a in enumerate_actions(G, X):
                ok = ok and quotient_is_fibration(a)
                checked += 1
    ok = ok and checked >= 200

    s = star(2)
    swap = GraphMap.build(s, s, {"c": "c", 0: 1, 1: 0},
                          {"a0": "a1", "a1": "a0"})
    Q = shape_of_quotient(graph_action(cyclic_group(2), s, [swap]))
    ok = ok and len(Q.objects) == 1 and len(Q.morphisms) == 2
    t = [m for m in Q.morphisms if m != Q.ident[Q.objects[0]]][0]
    ok = ok and Q.comp[(t, t)] == Q.ident[Q.objects[0]]
    criterion(7, "quotient fibration", 60.0, ok, time.perf_counter() - t0)


def test_acceptance_08_total_space_shape(criterion):
    from modalfib.covers import shape_of_total
    from modalfib.corpus import random_permutation
    t0 = time.perf_counter()
    rng = random.Random(88)
    ok = True
    for _ in range(200):
        base = loop() if rng.random() < 0.5 else figure_eight()
        n = rng.randint(1, 4)
        shape = shape1(base)
        letters = shape.components[shape.comp_of[base.basepoint]].letters
        m = MonodromyAction(shape, base.basepoint, tuple(range(1, n + 1)),
                            {l: random_permutation(rng, n)
                             for l in letters})
        rep = shape_of_total(total_space(m))
        ok = ok and rep["ok"]
        for cert in rep["certificates"]:
            ok = ok and cert["image"].same(cert["stabilizer"])
            ok = ok and cert["stabilizer"].same(cert["image"])
    criterion(8, "total space shape", 60.0, ok, time.perf_counter() - t0)


def test_acceptance_09_universal_cover(criterion):
    t0 = time.perf_counter()
    base = loop()
    U, _ = universal_cover_ball(base, base.basepoint, 3)
    ok = graph_isomorphic(U, path_graph(7))
    covers = [total_space(m)
              for n in (2, 3) for m in enumerate_covers(base, n)]
    rep = universal_cover_initiality(base, covers, 3)
    ok = ok and len(rep["lifts"]) == 8
    for row in rep["lifts"]:
        ok = ok and row["exists"] is True and row["unique"] is True
    criterion(9, "universal cover", 5.0, ok, time.perf_counter() - t0)


def bounded_members(gens, max_len):
    """Reduced products of the generators that stay within max_len at
    every step of the search."""
    factors = sorted({reduce_word(g) for g in gens}
                     | {inv(g) for g in gens})
    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for f in factors:
                r = mul(w, f)
                if len(r) <= max_len and r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def test_acceptance_10_oracle_agreement(criterion):
    t0 = time.perf_counter()
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        g = random_graph(rng, max_vertices=8, max_edges=10)
        ok = ok and set(pi0(g)) == set(pi0_by_definition(g))
    for _ in range(100):
        gens = random_words(rng, 2, rng.randint(1, 3), 4)
        A = SubgroupAutomaton.from_words((0, 1), gens)
        for w in bounded_members(gens, 8):
            if not A.contains(w):
                ok = False
    criterion(10, "oracle agreement", 60.0, ok, time.perf_counter() - t0)
