"""Presented-groupoid helpers that only the tests use.

Morphisms of a `modalfib.groupoids.PresGroupoid` as (u, v, word)
triples, from paths of darts, with their identities, composites and
inverses; functor images of words and morphisms, composites of
functors, the identity functor, and natural isomorphism.  Natural
isomorphism of two functors reduces, per source component, to a
simultaneous conjugacy problem over the target letters, which
lib_words.solve_simultaneous_conjugacy decides exactly.
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


def identity(shape, v):
    return (v, v, ())


def compose(shape, m1, m2):
    u1, v1, w1 = m1
    u2, v2, w2 = m2
    if v1 != u2:
        raise ValueError("%r then %r do not compose" % (m1, m2))
    return (u1, v2, mul(w1, w2))


def inverse(shape, m):
    u, v, w = m
    return (v, u, inv(w))


def map_word(F, w):
    out = ()
    for g, s in w:
        img = F.gen_images[g]
        out = mul(out, img if s > 0 else inv(img))
    return out


def map_morphism(F, m):
    u, v, w = m
    return (F.obj[u], F.obj[v],
            mul(inv(F.conj[u]), map_word(F, w), F.conj[v]))


def compose_functors(F, other):
    """F then other."""
    obj = {v: other.obj[F.obj[v]] for v in F.obj}
    gen_images = {}
    conj = {}
    for base, comp in F.src.components.items():
        fb = F.obj[base]
        cb = other.conj[fb]
        for l in comp.letters:
            gen_images[l] = mul(inv(cb), map_word(other, F.gen_images[l]), cb)
        for v in comp.vertices:
            conj[v] = mul(inv(cb), map_word(other, F.conj[v]),
                          other.conj[F.obj[v]])
    return GroupoidFunctor(F.src, other.dst, obj, gen_images, conj)


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
