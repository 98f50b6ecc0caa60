"""Groups and graph actions that only the tests use.

The Klein four-group, every automorphism of a graph and every action of
a group on a graph by brute force, the freeness test of an action, and
the quotient map on shapes as an explicit functor (forest spaces only).
"""

from itertools import product as iproduct

from modalfib.fingroupoids import FinFunctor, FinGroupoid, discrete_groupoid
from modalfib.quotients import (QUOTIENT_GROUP_BOUND, ActionError,
                                _check_automorphism, graph_action,
                                permutation_group, shape_of_quotient)
from lib_graphs import enumerate_graph_maps


def klein_group():
    """Double swaps on four points: the non-cyclic group of order 4."""
    return permutation_group(4, ((1, 0, 3, 2), (2, 3, 0, 1)))


def is_free(a):
    """No element besides the unit fixes a vertex."""
    for g in a.group.elements:
        if g == a.group.identity:
            continue
        vm = a.maps[g].vertex_map
        if any(vm[v] == v for v in a.space.vertices):
            return False
    return True


def enumerate_automorphisms(g):
    """All automorphisms of a graph, loop reversals included."""
    out = []
    for m in enumerate_graph_maps(g, g):
        try:
            _check_automorphism(m)
        except ActionError:
            continue
        out.append(m)
    return out


def enumerate_actions(group, space):
    """Every action of the group on the space.

    Exhausts assignments of automorphisms to the generators and keeps
    the ones that satisfy the relations.  Distinct assignments give
    distinct actions, so no deduplication is needed.
    """
    auts = enumerate_automorphisms(space)
    out = []
    for choice in iproduct(auts, repeat=len(group.generators)):
        try:
            out.append(graph_action(group, space, choice))
        except ActionError:
            continue
    return out


def shape_quotient_functor(a, max_group_order=QUOTIENT_GROUP_BOUND):
    """The quotient map on shapes as an explicit functor (forests only).

    Source: the discrete groupoid on the component representatives,
    which is the shape of a forest.  Target: the quotient groupoid.
    Components with loops have infinite hom-sets on the quotient side
    and are refused.
    """
    Q = shape_of_quotient(a, max_group_order)
    if not isinstance(Q, FinGroupoid):
        raise ActionError("quotient functor needs a forest space")
    disc = discrete_groupoid(Q.objects)
    obj_map = {c: c for c in Q.objects}
    mor_map = {disc.ident[c]: Q.ident[c] for c in Q.objects}
    return FinFunctor(disc, Q, obj_map, mor_map)
