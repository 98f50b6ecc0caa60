"""Presented-groupoid helpers that only the tests use.

Morphisms of a `modalfib.groupoids.PresGroupoid` from paths of darts,
functor images of morphisms, the identity functor, and natural
isomorphism.  Natural isomorphism of two functors reduces, per source
component, to a simultaneous conjugacy problem over the target letters,
which lib_words.solve_simultaneous_conjugacy decides exactly.
"""

from modalfib.groupoids import GroupoidFunctor
from modalfib.words import Unknown, inv, mul, reduce_word
from lib_words import solve_simultaneous_conjugacy


def path_word(shape, darts):
    return reduce_word(tuple(
        letter for eid, sign in darts for letter in shape.dart_word(eid, sign)))


def morphism_from_path(shape, u, darts):
    v = u
    for eid, sign in darts:
        a, b = shape.graph.dart_ends(eid, sign)
        if a != v:
            raise ValueError("%r does not leave %r" % ((eid, sign), v))
        v = b
    return (u, v, path_word(shape, darts))


def map_morphism(F, m):
    u, v, w = m
    return (F.obj[u], F.obj[v],
            mul(inv(F.conj[u]), F.map_word(w), F.conj[v]))


def identity_functor(shape):
    obj = {v: v for v in shape.comp_of}
    gens = {}
    conj = {v: () for v in shape.comp_of}
    for comp in shape.components.values():
        for l in comp.letters:
            gens[l] = ((l, +1),)
    return GroupoidFunctor(shape, shape, obj, gens, conj)


def natural_iso(F, G, max_power=None):
    """Decide whether two parallel functors are naturally isomorphic.

    Returns True, False, or a words.Unknown when an explicit max_power
    cut the conjugacy search short.  Per source component the functors
    must land in one target component and their generator images must be
    simultaneously conjugate.
    """
    if F.src is not G.src and F.src.graph != G.src.graph:
        raise ValueError("functors are not parallel: %r and %r"
                         % (F.src.graph, G.src.graph))
    undecided = None
    for base, comp in F.src.components.items():
        fb = F.dst.comp_of[F.obj[base]]
        gb = G.dst.comp_of[G.obj[base]]
        if fb != gb:
            return False
        pairs = [(F.gen_images[l], G.gen_images[l]) for l in comp.letters]
        h = solve_simultaneous_conjugacy(pairs, max_power=max_power)
        if h is None:
            return False
        if isinstance(h, Unknown):
            undecided = h
    return True if undecided is None else undecided
