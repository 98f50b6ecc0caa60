"""Presented fundamental groupoids and induced functors.

Rank oracle: for a connected graph, rank = edges - vertices + 1 (Euler).
Functor laws are checked strictly on the stored presentation data.
"""

import random

import pytest

from modalfib.graphs import (
    cycle, star, bouquet, path_graph, point, disjoint_union, GraphMap,
)
from modalfib.corpus import (
    random_graph, random_map, double_cover, bad_fold_figure_eight,
    random_words,
)
from modalfib.groupoids import (
    shape1, induce_functor, identity_functor, natural_iso,
)
from modalfib.words import mul, inv, conj, reduce_word
from modalfib.graphs import pi0


def euler_ranks(g):
    comps = pi0(g)
    out = []
    for c in comps:
        ne = sum(1 for _, u, v in g.edges if u in c)
        out.append(ne - len(c) + 1)
    return sorted(out)


def test_shape_ranks_match_euler():
    rng = random.Random(401)
    for _ in range(50):
        g = random_graph(rng, 7, 9)
        S = shape1(g)
        got = sorted(len(c.letters) for c in S.components.values())
        assert got == euler_ranks(g)
        assert len(S.components) == len(pi0(g))


def test_shape_known_cases():
    for k in range(3, 13):
        assert shape1(cycle(k)).summary() == [(0, k, 1)]
    assert shape1(bouquet(2)).summary() == [("w", 1, 2)]
    assert shape1(star(4)).summary() == [(0, 5, 0)]
    two = disjoint_union(cycle(3), path_graph(2))
    assert [r for _, _, r in shape1(two).summary()] == [1, 0]


def test_tree_paths_have_empty_words():
    rng = random.Random(402)
    for _ in range(30):
        g = random_graph(rng, 7, 9)
        S = shape1(g)
        for comp in S.components.values():
            for v in comp.vertices:
                assert S.path_word(comp.tree_path(v)) == ()


def test_loop_words_around_cycle():
    S = shape1(cycle(3))
    comp = S.components[0]
    assert len(comp.letters) == 1
    l = comp.letters[0]
    # walk all the way around: must read the letter exactly once
    darts = [("e0", +1), ("e1", +1), ("e2", +1)]
    m = S.morphism_from_path(0, darts)
    assert m[0] == m[1] == 0
    assert m[2] in (((l, +1),), ((l, -1),))


def test_morphism_groupoid_laws():
    rng = random.Random(403)
    g = cycle(3)
    S = shape1(g)
    for w1 in random_words(rng, 1, 10, 4):
        w = tuple((S.components[0].letters[0], s) for _, s in w1)
        m = (0, 0, reduce_word(w))
        assert S.compose(m, S.inverse(m)) == S.identity(0)
        assert S.compose(S.identity(0), m) == m


def test_identity_functor_from_identity_map():
    rng = random.Random(404)
    for _ in range(20):
        g = random_graph(rng, 6, 8)
        F = induce_functor(GraphMap.identity(g))
        I = identity_functor(F.src)
        # same shape construction, so strict data comparison is fair
        assert F.obj == I.obj
        assert F.gen_images == {k: reduce_word(v) for k, v in I.gen_images.items()}
        assert all(w == () for w in F.conj.values())


def test_induce_respects_composition_strictly():
    rng = random.Random(405)
    for _ in range(30):
        a = random_graph(rng, 5, 7)
        b = random_graph(rng, 5, 7)
        c = random_graph(rng, 5, 7)
        f = random_map(rng, a, b)
        g = random_map(rng, b, c)
        Sa, Sb, Sc = shape1(a), shape1(b), shape1(c)
        F = induce_functor(f, Sa, Sb)
        G = induce_functor(g, Sb, Sc)
        FG = F.compose(G)
        direct = induce_functor(f.compose(g), Sa, Sc)
        assert (FG.obj, FG.gen_images, FG.conj) \
            == (direct.obj, direct.gen_images, direct.conj)


def test_map_morphism_preserves_composition():
    rng = random.Random(406)
    for _ in range(25):
        a = random_graph(rng, 5, 7)
        b = random_graph(rng, 5, 7)
        f = random_map(rng, a, b)
        F = induce_functor(f)
        S = F.src
        for comp in S.components.values():
            ls = comp.letters
            if not ls:
                continue
            base = comp.base
            w1 = tuple((rng.choice(ls), rng.choice((1, -1))) for _ in range(3))
            w2 = tuple((rng.choice(ls), rng.choice((1, -1))) for _ in range(3))
            m1 = (base, base, reduce_word(w1))
            m2 = (base, base, reduce_word(w2))
            lhs = F.map_morphism(S.compose(m1, m2))
            rhs = F.dst.compose(F.map_morphism(m1), F.map_morphism(m2))
            assert lhs == rhs
            ident = F.map_morphism(S.identity(base))
            assert ident == (F.obj[base], F.obj[base], ())


def test_double_cover_doubles_the_generator():
    F = induce_functor(double_cover())
    comp = F.src.components[0]
    assert len(comp.letters) == 1
    img = F.gen_images[comp.letters[0]]
    assert len(img) == 2
    (g1, s1), (g2, s2) = img
    assert g1 == g2 and s1 == s2
    H = F.image_subgroup(0)
    assert H.complete() and H.index() == 2
    assert F.injective_on_vertex_group(0)


def test_bad_fold_not_injective_on_vertex_group():
    F = induce_functor(bad_fold_figure_eight())
    assert not F.injective_on_vertex_group("w")
    H = F.image_subgroup("w")
    assert H.index() == 1  # image is everything, kernel is not trivial


def test_natural_iso_reflexive_and_conjugation_invariant():
    rng = random.Random(407)
    for _ in range(25):
        a = random_graph(rng, 5, 7)
        b = random_graph(rng, 5, 7)
        f = random_map(rng, a, b)
        F = induce_functor(f)
        assert natural_iso(F, F) is True
        # twist every component's images by a fixed inner conjugation
        gen_images = dict(F.gen_images)
        for comp in F.src.components.values():
            if not comp.letters:
                continue
            tl = F.dst.letters_at(F.obj[comp.base])
            if not tl:
                continue
            h = tuple((rng.choice(tl), rng.choice((1, -1))) for _ in range(2))
            for l in comp.letters:
                gen_images[l] = mul(inv(h), F.gen_images[l], h)
        G = type(F)(F.src, F.dst, F.obj, gen_images, F.conj)
        assert natural_iso(F, G) is True


def test_natural_iso_rejects_distinct_images():
    g = cycle(3)
    S = shape1(g)
    F = induce_functor(GraphMap.identity(g), S, S)
    const = GraphMap(g, g, {v: 0 for v in g.vertices},
                     {e: None for e in g.edge_ids()})
    C = induce_functor(const, S, S)
    assert natural_iso(F, C) is False


def test_natural_iso_rejects_component_mismatch():
    two = disjoint_union(point("p"), point("q"))
    pt = point()
    S, T = shape1(pt), shape1(two)
    f1 = GraphMap(pt, two, {"pt": (0, "p")}, {})
    f2 = GraphMap(pt, two, {"pt": (1, "q")}, {})
    F1 = induce_functor(f1, S, T)
    F2 = induce_functor(f2, S, T)
    assert natural_iso(F1, F2) is False
    assert natural_iso(F1, F1) is True


def test_natural_iso_rejects_non_parallel_without_asserts(run_optimized):
    run = run_optimized(
        "from modalfib.graphs import cycle, path_graph\n"
        "from modalfib.groupoids import shape1, identity_functor, "
        "natural_iso\n"
        "F = identity_functor(shape1(cycle(3)))\n"
        "G = identity_functor(shape1(path_graph(3)))\n"
        "try:\n    natural_iso(F, G)\n"
        "except ValueError:\n    print('rejected')\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"


@pytest.mark.parametrize("call", [
    "S.compose((0, 1, ()), (0, 1, ()))",
    "S.morphism_from_path(0, [('e0', 1), ('e0', 1)])",
])
def test_morphisms_that_do_not_meet_rejected_without_asserts(
        call, run_optimized):
    run = run_optimized(
        "from modalfib.graphs import cycle\n"
        "from modalfib.groupoids import shape1\n"
        "S = shape1(cycle(3))\n"
        "try:\n    %s\nexcept ValueError:\n    print('rejected')\n" % call)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"
