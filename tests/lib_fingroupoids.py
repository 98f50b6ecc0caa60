"""Table groupoids, functors and factorizations that only the tests use.

Builders (`connected_groupoid`, `group_groupoid`, `group_hom_functor`,
`identity_fin_functor`, `full_subgroupoid`), the truncations `trunc0`
and `trunc_prop` with their unit functors, the two factorizations at
levels -1 and 0, the connecting functor between their middles, and the
instability witness.  A factorization checks its own result with
`classify_trunc` and raises FinGroupoidError when it does not recompose.

The factorization middles are built by `fingroupoids._arrow_groupoid`,
read off the module at each call, so a test that swaps that builder for
its table oracle reaches these middles too.
"""

from modalfib import fingroupoids
from modalfib.fingroupoids import (
    _GROUPS, _POINT, FinFunctor, FinGroupoid, FinGroupoidError,
    _transport, classify_trunc, discrete_groupoid, empty_groupoid,
    homotopy_pullback, object_inclusion,
)
from modalfib.graphs import _sorted_ids


def connected_groupoid(labels, group_name):
    """Connected groupoid on the given objects with the named vertex
    group: morphisms are (a, g, b) triples composing through the group."""
    G = _GROUPS[group_name]
    labels = tuple(labels)
    mors = tuple((a, g, b) for a in labels for g in G.elements
                 for b in labels)
    comp = {}
    for a, g, b in mors:
        for c in labels:
            for h in G.elements:
                comp[((a, g, b), (b, h, c))] = (a, G.product(g, h), c)
    return FinGroupoid(
        labels, mors,
        {m: m[0] for m in mors}, {m: m[2] for m in mors},
        comp, {o: (o, G.identity, o) for o in labels})


def group_groupoid(group_name, label="o"):
    """One object whose automorphisms are the named group."""
    return connected_groupoid((label,), group_name)


def group_hom_functor(src_name, dst_name, images, label="o"):
    """Functor of one-object groupoids induced by the homomorphism that
    sends the generators of the source group to the given images."""
    A, B = group_groupoid(src_name, label), group_groupoid(dst_name, label)
    G, H = _GROUPS[src_name], _GROUPS[dst_name]
    phi = G.extend(images, H.product, H.identity)
    return FinFunctor(A, B, {label: label},
                      {(label, g, label): (label, phi[g], label)
                       for g in G.elements})


def identity_fin_functor(g):
    return FinFunctor(g, g, {o: o for o in g.objects},
                      {m: m for m in g.morphisms})


def full_subgroupoid(g, objs):
    """The full subgroupoid of g on the given objects of g."""
    objs = tuple(objs)
    for o in objs:
        if o not in g._components:
            raise FinGroupoidError("object %r not in groupoid" % (o,))
    oset = set(objs)
    objs = tuple(o for o in g.objects if o in oset)
    mors = tuple(m for m in g.morphisms
                 if g.src[m] in oset and g.dst[m] in oset)
    mset = set(mors)
    comp = {p: k for p, k in g.comp.items() if p[0] in mset and p[1] in mset}
    return FinGroupoid(objs, mors,
                       {m: g.src[m] for m in mors},
                       {m: g.dst[m] for m in mors},
                       comp, {o: g.ident[o] for o in objs})


# ---------------------------------------------------------------------------
# truncations

def trunc0(g):
    """Discrete groupoid on isomorphism classes, with its unit functor."""
    cm = g.component_map()
    classes = tuple(_sorted_ids(set(cm.values())))
    t = discrete_groupoid(classes)
    unit = FinFunctor(g, t, {o: cm[o] for o in g.objects},
                      {m: t.ident[cm[g.src[m]]] for m in g.morphisms})
    return t, unit


def trunc_prop(g):
    """Point if inhabited, empty otherwise, with its unit functor."""
    if not g.objects:
        t = empty_groupoid()
        return t, FinFunctor(g, t, {}, {})
    t = _POINT
    unit = FinFunctor(g, t, {o: "pt" for o in g.objects},
                      {m: t.ident["pt"] for m in g.morphisms})
    return t, unit


# ---------------------------------------------------------------------------
# the two factorizations

def factor_connected_modal(F, level):
    """Factor F through the collapsed fibers: left crushes each fiber to
    its truncation, right projects.  Composite is strictly F."""
    if level == -1:
        return _factor_cm_prop(F)
    if level != 0:
        raise FinGroupoidError("level must be -1 or 0, got %r" % (level,))
    S, T = F.source, F.target
    fcms, classes = {}, {}
    for y in T.objects:
        fcms[y], classes[y] = F._fiber_classes[y]
    objs = tuple((y, c) for y in T.objects for c in classes[y])
    mors = []
    for h in T.morphisms:
        y, y2 = T.src[h], T.dst[h]
        for c in classes[y]:
            mors.append(((y, c), (y2, _transport(F, h, c, fcms[y2])), h))
    mid = fingroupoids._arrow_groupoid(
        objs, mors, lambda h, h2: T.comp[(h, h2)], lambda o: T.ident[o[0]])

    def left_obj(x):
        y = F.obj_map[x]
        return (y, fcms[y][(x, T.ident[y])])

    left = FinFunctor(
        S, mid, {x: left_obj(x) for x in S.objects},
        {g: (left_obj(S.src[g]), left_obj(S.dst[g]), F.mor_map[g])
         for g in S.morphisms})
    right = FinFunctor(
        mid, T, {(y, c): y for (y, c) in objs},
        {t: t[2] for t in mors})
    _check_factorization(F, left, right,
                         ("connected", "modal"), level)
    return mid, left, right


def _factor_cm_prop(F):
    S, T = F.source, F.target
    _, ycm, over = F._classes_over
    hit = [y for y in T.objects if over[ycm[y]]]
    mid = full_subgroupoid(T, hit)
    left = FinFunctor(S, mid, dict(F.obj_map), dict(F.mor_map))
    right = FinFunctor(mid, T, {o: o for o in mid.objects},
                       {m: m for m in mid.morphisms})
    _check_factorization(F, left, right, ("connected", "modal"), -1)
    return mid, left, right


def factor_equiv_etale(F, level):
    """Factor F through the classes of its source: left is the unit-like
    comparison, right the projection.  Composite is strictly F."""
    if level == -1:
        return _factor_ee_prop(F)
    if level != 0:
        raise FinGroupoidError("level must be -1 or 0, got %r" % (level,))
    S, T = F.source, F.target
    xcm, ycm, over = F._classes_over
    objs = tuple((y, d) for y in T.objects for d in over[ycm[y]])
    mors = tuple(((T.src[h], d), (T.dst[h], d), h)
                 for h in T.morphisms for d in over[ycm[T.src[h]]])
    mid = fingroupoids._arrow_groupoid(
        objs, mors, lambda h, h2: T.comp[(h, h2)], lambda o: T.ident[o[0]])
    left = FinFunctor(
        S, mid, {x: (F.obj_map[x], xcm[x]) for x in S.objects},
        {g: ((F.obj_map[S.src[g]], xcm[S.src[g]]),
             (F.obj_map[S.dst[g]], xcm[S.dst[g]]), F.mor_map[g])
         for g in S.morphisms})
    right = FinFunctor(mid, T, {(y, d): y for (y, d) in objs},
                       {t: t[2] for t in mors})
    _check_factorization(F, left, right, ("equivalence", "etale"), level)
    return mid, left, right


def _factor_ee_prop(F):
    S, T = F.source, F.target
    if S.objects:
        mid = T
        left = FinFunctor(S, mid, dict(F.obj_map), dict(F.mor_map))
        right = identity_fin_functor(T)
    else:
        mid = empty_groupoid()
        left = FinFunctor(S, mid, {}, {})
        right = FinFunctor(mid, T, {}, {})
    _check_factorization(F, left, right, ("equivalence", "etale"), -1)
    return mid, left, right


def _check_factorization(F, left, right, kinds, level):
    both = left.compose(right)
    if both.obj_map != F.obj_map or both.mor_map != F.mor_map:
        raise FinGroupoidError("factorization does not recompose")
    lv = classify_trunc(left, level)
    rv = classify_trunc(right, level)
    if not getattr(lv, kinds[0]).is_true:
        raise FinGroupoidError("left factor is not %s" % kinds[0])
    if not getattr(rv, kinds[1]).is_true:
        raise FinGroupoidError("right factor is not %s" % kinds[1])


def connecting_functor(F, level=0):
    """The comparison from the collapsed-fiber middle to the class
    middle; an equivalence exactly on fibrations."""
    mid_cm, _, _ = factor_connected_modal(F, level)
    mid_ee, _, _ = factor_equiv_etale(F, level)
    if level == -1:
        return FinFunctor(mid_cm, mid_ee,
                          {o: o for o in mid_cm.objects},
                          {m: m for m in mid_cm.morphisms})
    xcm = F.source.component_map()
    omap = {(y, c): (y, xcm[c[0]]) for (y, c) in mid_cm.objects}
    mmap = {(a, b, h): (omap[a], omap[b], h) for (a, b, h) in mid_cm.morphisms}
    return FinFunctor(mid_cm, mid_ee, omap, mmap)


# ---------------------------------------------------------------------------
# the instability witness

def instability_witness():
    """A pullback square whose bottom leg is a level-0 equivalence while
    the induced top leg is not: both legs pick the object of the
    one-object two-morphism groupoid, and the comma square is the
    two-point discrete groupoid over the point."""
    B = group_groupoid("c2")
    leg = object_inclusion(B, "o")
    P, p1, p2 = homotopy_pullback(leg, leg)
    return {
        "corner": B, "bottom": leg, "right": leg,
        "pullback": P, "top": p1,
        "bottom_is_equivalence": classify_trunc(leg, 0).equivalence.is_true,
        "top_is_equivalence": classify_trunc(p1, 0).equivalence.is_true,
    }
