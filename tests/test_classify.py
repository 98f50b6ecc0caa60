"""Classification flags, the collapse factorization, and the criteria.

Expected rows were worked out by hand on the fixture maps; the property
loops then check the two flag identities and the covering agreements on
seeded random maps.
"""

import random

import pytest

from modalfib.graphs import (
    FinGraph, GraphMap, cycle, interval, point, disjoint_union, product,
    pullback, terminal_map, component_map,
    enumerate_graph_maps,
)
from modalfib.corpus import (
    circle, figure_eight, loop,
    wedge_fold, retraction_fold, collapse_fold, double_cover,
    triangle_with_tail_fold, box_projection, bad_fold_figure_eight,
    two_sheets, split_fibration, tree_collapse,
    random_graph, random_connected_graph, random_map,
)
from modalfib.covers import enumerate_covers, is_cover, total_space
from modalfib.classify import (
    classify, factor0, constant_fiber_criterion, etale_family_check,
)
from modalfib.verdicts import Flag


def identity_map(g):
    return GraphMap(g, g, {v: v for v in g.vertices},
                    {e: (e, +1) for e in g.edge_ids()})


def point_into_interval():
    return GraphMap(point(), interval(), {"pt": 0}, {})


def row(verdicts):
    """Flags as a T/F string: modal, connected, etale, equivalence, fibration."""
    flags = (verdicts.modal, verdicts.connected, verdicts.etale,
             verdicts.equivalence, verdicts.fibration)
    assert all(fl.decided for fl in flags)
    return "".join("T" if fl.is_true else "F" for fl in flags)


def corpus_maps():
    return [
        double_cover(), wedge_fold(), retraction_fold(), collapse_fold(),
        triangle_with_tail_fold(), box_projection(),
        bad_fold_figure_eight(), two_sheets(), split_fibration(),
        tree_collapse(), identity_map(circle()), point_into_interval(),
    ]


# ---------------------------------------------------------------------------
# expected rows

def test_classification_rows():
    expected = [
        (double_cover(), "TFFTF", "TFTFT"),
        (wedge_fold(), "TFFTF", "TFFTF"),
        (retraction_fold(), "FTFTT", "FTFTT"),
        (collapse_fold(), "FTFTT", "FTFTT"),
        (triangle_with_tail_fold(), "FTFTT", "FFFFF"),
        (box_projection(), "FFFTF", "FFFFF"),
        (bad_fold_figure_eight(), "TFFTF", "TFFFF"),
        (two_sheets(), "TFTFT", "TFTFT"),
        (split_fibration(), "FTFTT", "FFFFT"),
        (tree_collapse(), "FTFTT", "FTFTT"),
    ]
    for f, r0, r1 in expected:
        cls = classify(f)
        assert row(cls.pi0) == r0, (f, row(cls.pi0))
        assert row(cls.pi1) == r1, (f, row(cls.pi1))


def test_identity_has_every_property():
    cls = classify(identity_map(circle()))
    assert row(cls.pi0) == "TTTTT"
    assert row(cls.pi1) == "TTTTT"


def test_projection_to_point_factor_is_iso():
    # first projection of circle x point is an isomorphism in disguise
    _, fst, _ = product(circle(), point())
    cls = classify(fst)
    assert row(cls.pi0) == "TTTTT"
    assert row(cls.pi1) == "TTTTT"


def test_point_into_interval_is_equivalence_but_no_fibration():
    cls = classify(point_into_interval())
    assert row(cls.pi0) == "TFFTF"
    assert row(cls.pi1) == "TFFTF"


# ---------------------------------------------------------------------------
# the two flag identities

def test_flag_identities_on_corpus_and_random_maps():
    maps = corpus_maps()
    rng = random.Random(7)
    while len(maps) < 90:
        src = random_graph(rng, 5, 6)
        dst = random_graph(rng, 5, 6)
        maps.append(random_map(rng, src, dst))
    for f in maps:
        checks = classify(f).coherent()
        assert all(v is True for v in checks.values()), (f, checks)


def test_discrete_etale_agrees_with_covering_condition():
    # etale with discrete fibers is the same thing as the star condition,
    # computed by completely different code
    maps = corpus_maps()
    rng = random.Random(11)
    while len(maps) < 80:
        src = random_graph(rng, 5, 6)
        dst = random_graph(rng, 5, 6)
        maps.append(random_map(rng, src, dst))
    for f in maps:
        cls = classify(f)
        assert is_cover(f) == (cls.pi1.modal.is_true
                               and cls.pi1.etale.is_true), f


def test_enumerated_covers_classify_as_etale_fibrations():
    checked = 0
    for base, n in ((loop(), 3), (circle(), 2), (figure_eight(), 2)):
        for action in enumerate_covers(base, n):
            p = total_space(action).map
            cls = classify(p)
            assert cls.pi1.modal.is_true
            assert cls.pi1.etale.is_true
            assert cls.pi1.fibration.is_true
            checked += 1
    assert checked == 6 + 2 + 4


# ---------------------------------------------------------------------------
# closure properties

def test_composite_of_coverings_is_again_one():
    c12, c6 = cycle(12), cycle(6)
    halve = GraphMap.build(c12, c6,
                           {i: i % 6 for i in range(12)},
                           {"e%d" % i: "e%d" % (i % 6) for i in range(12)})
    assert is_cover(halve) and is_cover(double_cover())
    quadruple = halve.compose(double_cover())
    cls = classify(quadruple)
    assert row(cls.pi1) == "TFTFT"
    assert row(cls.pi0) == "TFFTF"


def test_pullback_of_covering_along_any_map():
    rng = random.Random(23)
    dc = double_cover()
    for _ in range(25):
        z = random_connected_graph(rng, 5, 3)
        g = random_map(rng, z, circle())
        _, p1, _ = pullback(g, dc)
        assert is_cover(p1)
        cls = classify(p1)
        assert cls.pi1.modal.is_true
        assert cls.pi1.etale.is_true
        assert cls.pi1.fibration.is_true


def test_shape_fibrations_not_closed_under_pullback():
    # both terminal maps off the interval are shape fibrations, yet their
    # pullback (the first box projection) is not: the four edge interiors
    # over the base edge fold onto a fiber that only has one
    assert classify(terminal_map(interval())).pi1.fibration.is_true
    cls = classify(box_projection())
    assert cls.pi1.fibration.value == "false"
    assert cls.pi0.fibration.value == "false"


def set_pullback_of_components(f, g):
    cmx = component_map(f.source)
    cmy = component_map(g.source)
    cmz = component_map(f.target)
    return {(a, b)
            for a in set(cmx.values()) for b in set(cmy.values())
            if cmz[f.vertex_map[a]] == cmz[g.vertex_map[b]]}


def test_components_compute_pullbacks_along_component_fibrations():
    # when one leg is a component-level fibration, components of the
    # pullback are exactly the pairs of components agreeing downstairs
    rng = random.Random(5)
    fib0 = [split_fibration(), retraction_fold(), two_sheets(),
            tree_collapse(), terminal_map(circle()),
            identity_map(circle())]
    for f in fib0:
        assert classify(f).pi0.fibration.is_true
        cmx = component_map(f.source)
        for _ in range(8):
            other = random_graph(rng, 4, 4)
            g = random_map(rng, other, f.target)
            cmy = component_map(g.source)
            P, p1, p2 = pullback(f, g)
            reps = set(component_map(P).values())
            image = {(cmx[p1.vertex_map[r]], cmy[p2.vertex_map[r]])
                     for r in reps}
            assert len(image) == len(reps)
            assert image == set_pullback_of_components(f, g)


def test_component_fibration_closure_fails_in_this_model():
    # pullback multiplies edge interiors: over the extra loop downstairs
    # the pullback acquires one edge per fiber vertex and per fiber edge,
    # nine in all, folding onto a single fiber component.  Components
    # still compute correctly (previous test); the interior clause of
    # the fibration condition does not survive.
    f = split_fibration()
    w = FinGraph(("w",), (("l", "w", "w"),), "w")
    g = GraphMap(w, f.target, {"w": (1, "q")}, {"l": None})
    P, _, p2 = pullback(f, g)
    assert classify(f).pi0.fibration.is_true
    assert classify(p2).pi0.fibration.value == "false"
    over_loop = [e for e in P.edge_ids()
                 if p2.edge_map[e] is not None and p2.edge_map[e][0] == "l"]
    assert len(over_loop) == 9


# ---------------------------------------------------------------------------
# the collapse factorization

def test_factor0_collapse_to_point():
    mid, left, right = factor0(tree_collapse())
    assert len(mid.vertices) == 1 and len(mid.edges) == 0
    assert left.compose(right) == tree_collapse()


def test_factor0_counts_pieces():
    f = terminal_map(disjoint_union(interval(), interval()))
    mid, _, _ = factor0(f)
    assert len(mid.vertices) == 2 and len(mid.edges) == 0


def test_factor0_of_discrete_map_is_trivial():
    f = identity_map(figure_eight())
    mid, left, right = factor0(f)
    assert mid == figure_eight()
    assert left == f and right == f


def test_factor0_recomposes_with_the_right_flags():
    for f in corpus_maps():
        mid, left, right = factor0(f)
        assert left.compose(right) == f
        assert classify(left).pi0.connected.is_true
        assert classify(right).pi0.modal.is_true


def test_factor0_middle_unique_up_to_unique_iso():
    for f in (retraction_fold(), collapse_fold()):
        mid, left, right = factor0(f)
        relabel = {v: ("m", v) for v in mid.vertices}
        mid2 = FinGraph(tuple(relabel[v] for v in mid.vertices),
                        tuple((e, relabel[u], relabel[v])
                              for e, u, v in mid.edges),
                        relabel[mid.basepoint]
                        if mid.basepoint is not None else None)
        l2 = GraphMap(f.source, mid2,
                      {x: relabel[left.vertex_map[x]]
                       for x in f.source.vertices},
                      dict(left.edge_map))
        r2 = GraphMap(mid2, f.target,
                      {relabel[p]: right.vertex_map[p]
                       for p in mid.vertices},
                      dict(right.edge_map))
        assert l2.compose(r2) == f
        comparisons = [phi for phi in enumerate_graph_maps(mid, mid2)
                       if left.compose(phi) == l2
                       and phi.compose(r2) == right]
        assert len(comparisons) == 1


# ---------------------------------------------------------------------------
# criteria

def test_constant_fiber_signature_rows():
    assert constant_fiber_criterion(double_cover())
    assert constant_fiber_criterion(collapse_fold())
    assert not constant_fiber_criterion(wedge_fold())
    assert not constant_fiber_criterion(triangle_with_tail_fold())
    _, fst, snd = product(circle(), interval())
    assert constant_fiber_criterion(fst)
    assert constant_fiber_criterion(snd)


def test_constant_fibers_do_not_imply_fibration():
    # the box projection keeps the same interval fiber over both target
    # vertices and still fails over the edge interior; the criterion is
    # one-way evidence only
    f = box_projection()
    assert constant_fiber_criterion(f)
    cls = classify(f)
    assert cls.pi0.fibration.value == "false"
    assert cls.pi1.fibration.value == "false"


def test_criterion_is_global_while_fibrations_are_local():
    # a fibration may change fiber between target components, which the
    # all-vertices signature comparison deliberately rejects
    f = split_fibration()
    cls = classify(f)
    assert cls.pi0.fibration.is_true and cls.pi1.fibration.is_true
    assert not constant_fiber_criterion(f)


def test_discrete_family_check_rows():
    assert etale_family_check(double_cover()) is True
    assert etale_family_check(two_sheets()) is True
    assert etale_family_check(wedge_fold()) is False
    assert etale_family_check(bad_fold_figure_eight()) is False
    assert etale_family_check(collapse_fold()) == "inapplicable"
    assert etale_family_check(retraction_fold()) == "inapplicable"


@pytest.mark.parametrize("call", [
    "Flag('maybe')", "Flag('undecided')", "Flag('true', 3)",
])
def test_malformed_flags_rejected_without_asserts(call, run_optimized):
    # an unknown value, and a bound that does not match decidedness
    run = run_optimized(
        "from modalfib.verdicts import Flag\n"
        "try:\n    %s\nexcept ValueError:\n    print('rejected')\n" % call)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"


def test_flag_of_hands_out_one_true_and_one_false_flag():
    # flags are immutable, so the verdict routes share two instances
    assert Flag.of(1) is Flag.of(True) == Flag("true")
    assert Flag.of(0) is Flag.of(()) == Flag("false")
    assert Flag.of(True).render() == "true" \
        and Flag.of(False).value == "false"
