"""Finite groupoids with explicit composition tables.

Everything here is small enough to check by exhaustion: groupoid axioms
are verified on construction, functors are verified on construction, and
the five classification flags at the two bottom truncation levels are
computed straight from their definitions.  Level 0 collapses each fiber
to its set of components; level -1 collapses it to inhabitedness.

Composition is written in diagram order throughout: comp[(g, h)] is "g
then h", matching the word convention used for graphs.
"""

import random as _random

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product as iproduct
from operator import itemgetter

from .graphs import _Classes, _memo, _sorted_ids
from .verdicts import LevelVerdicts

__all__ = [
    "FinGroupoidError", "FinGroupoid", "FinFunctor",
    "empty_groupoid", "discrete_groupoid", "connected_groupoid",
    "group_groupoid", "group_hom_functor",
    "identity_fin_functor", "object_inclusion", "full_subgroupoid",
    "trunc0", "trunc_prop", "hfiber", "classify_trunc",
    "factor_connected_modal", "factor_equiv_etale", "connecting_functor",
    "functor_is_equivalence", "essentially_surjective",
    "automorphism_surjective",
    "homotopy_pullback", "product_groupoid",
    "compare_modalities", "nine_way", "instability_witness",
    "random_groupoid", "random_functor", "random_functor_into",
    "GROUP_NAMES",
]


class FinGroupoidError(ValueError):
    pass


# ---------------------------------------------------------------------------
# small groups, used as vertex groups by the builders and generators

@dataclass(frozen=True)
class _Group:
    name: str
    elements: tuple
    mul: dict
    unit: object
    gens: tuple
    words: dict     # element -> tuple of generator indices reaching it


def _make_group(name, elements, mul, unit, gens):
    words = {unit: ()}
    frontier = [unit]
    while frontier:
        nxt = []
        for a in frontier:
            for i, g in enumerate(gens):
                b = mul[(a, g)]
                if b not in words:
                    words[b] = words[a] + (i,)
                    nxt.append(b)
        frontier = nxt
    if len(words) != len(elements):
        raise FinGroupoidError("generators do not generate %s" % name)
    return _Group(name, tuple(elements), mul, unit, tuple(gens), words)


def _cyclic(n):
    mul = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    gens = (1,) if n > 1 else ()
    return _make_group("c%d" % n, tuple(range(n)), mul, 0, gens)


def _klein():
    els = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mul = {(a, b): ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
           for a in els for b in els}
    return _make_group("v4", tuple(els), mul, (0, 0), ((1, 0), (0, 1)))


def _sym3():
    els = [p for p in iproduct(range(3), repeat=3) if len(set(p)) == 3]
    mul = {(a, b): tuple(b[a[i]] for i in range(3)) for a in els for b in els}
    return _make_group("s3", tuple(els), mul, (0, 1, 2),
                       ((1, 2, 0), (1, 0, 2)))


_GROUPS = {g.name: g for g in
           (_cyclic(1), _cyclic(2), _cyclic(3), _cyclic(4), _klein(), _sym3())}
GROUP_NAMES = tuple(sorted(_GROUPS))


def _homs_into(group, elements, mul, unit):
    """All homomorphisms from a catalog group into the abstract group
    (elements, mul, unit), found by generator images and verified on
    every product."""
    out = []
    for images in iproduct(elements, repeat=len(group.gens)):
        phi = {}
        ok = True
        for el in group.elements:
            v = unit
            for i in group.words[el]:
                v = mul[(v, images[i])]
            phi[el] = v
        for a in group.elements:
            for b in group.elements:
                if mul[(phi[a], phi[b])] != phi[group.mul[(a, b)]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(phi)
    return out


# ---------------------------------------------------------------------------
# the two core types

@dataclass(frozen=True)
class FinGroupoid:
    """Groupoid as tables: one certificate, two storages of comp.

    src/dst assign endpoints to morphism ids and ident picks the identity
    at each object.  Construction puts every groupoid in normal form and
    checks that (_normal_form), then caches inverses, a hom-set index,
    the component map and a generating set.  comp (in diagram order) is
    either
    - raw: a dict defined on exactly the composable pairs, from the
      parser, the catalog, full subgroupoids or a direct caller; the
      normal form reads its labels off the dict, every entry must be its
      cell, and the dict is kept; or
    - built: the _ArrowComp of an arrow groupoid (_arrow_groupoid: the
      products, pullbacks, fibers and factorization middles); the normal
      form composes the triples' labels, and comp becomes a read-only
      mapping computed from the vertex groups.
    """

    objects: tuple
    morphisms: tuple
    src: dict
    dst: dict
    comp: Mapping
    ident: dict

    def __post_init__(self):
        objs = tuple(_sorted_ids(set(self.objects)))
        mors = tuple(_sorted_ids(set(self.morphisms)))
        object.__setattr__(self, "objects", objs)
        object.__setattr__(self, "morphisms", mors)
        src, dst, comp, ident = self.src, self.dst, self.comp, self.ident
        oset, mset = set(objs), set(mors)
        for m in mors:
            if src.get(m) not in oset or dst.get(m) not in oset:
                raise FinGroupoidError("morphism %r has bad endpoints" % (m,))
        for o in objs:
            i = ident.get(o)
            if i not in mset or src[i] != o or dst[i] != o:
                raise FinGroupoidError("object %r has no identity" % (o,))
        hom = {}
        for m in mors:
            hom.setdefault((src[m], dst[m]), []).append(m)
        hom = {key: tuple(ms) for key, ms in hom.items()}
        object.__setattr__(self, "_hom", hom)
        if isinstance(comp, _ArrowComp) and comp.compose is not None:
            comp._at, comp._cells, comp._n = self._normal_form(
                comp.compose, _triple_label)
            comp.compose = None
            return
        into, outof = {}, {}
        for m in mors:
            outof[src[m]] = outof.get(src[m], 0) + 1
            into[dst[m]] = into.get(dst[m], 0) + 1
        expected = sum(into.get(o, 0) * outof.get(o, 0) for o in objs)
        if len(comp) != expected:
            raise FinGroupoidError(
                "composition table has %d entries, expected %d"
                % (len(comp), expected))
        for (g, h), k in comp.items():
            if g not in mset or h not in mset or dst[g] != src[h]:
                raise FinGroupoidError("(%r, %r) is not composable" % (g, h))
            if k not in mset or src[k] != src[g] or dst[k] != dst[h]:
                raise FinGroupoidError("composite of (%r, %r) ill-typed"
                                       % (g, h))
        # from here on comp is defined on exactly the composable pairs, so
        # it is the normal form's composition iff each entry is its cell
        at, cells, n = self._normal_form(
            lambda g, h: comp[g, h], _morphism_label)
        for (g, h), k in comp.items():
            a, _, i, mul = at[g]
            _, c, j, _ = at[h]
            if cells[a * n + c][mul[i][j]] != k:
                raise FinGroupoidError(
                    "composite of (%r, %r) does not match its vertex group"
                    % (g, h))

    def _normal_form(self, compose, label):
        """Put the groupoid in normal form, check it in full and return
        it as (at, cells, n), the fields that _ArrowComp reads.

        A morphism's label is label(m): the morphism itself for a raw
        table, the third entry of a built triple.  Per component of _frame
        (base b, tree arrows t_a, hom-set sizes), with the label
        composition `compose`: inv(t_c) by a search of hom(c, b), G_b as
        an int Cayley table checked by _vertex_group, and phi(m) =
        t_a;m;inv(t_c) as an index into hom(b, b).  Once phi with the
        endpoints is a bijection onto the cells (a, c, g), g in G_b, and
        every identity sits at the unit, comp[(p, q)] := the morphism of
        hom(src p, dst q) at phi(p)phi(q) is the groupoid obj x G_b x obj
        on these ids and identities (Brown, Topology and Groupoids, 2006,
        6.7), and inv(m) is the one at phi(m)^-1.  That this comp is the
        labels' composition is the one claim left: a raw table checks it
        entry by entry, and _arrow_groupoid proves it for its callers.
        """
        objs, mors, hom = self.objects, self.morphisms, self._hom
        ident = self.ident
        base, tree, members = _frame(objs, hom)
        lead, back = {}, {}
        for c in objs:
            b = base[c]
            t = lead[c] = label(tree[c])
            one_b, one_c = label(ident[b]), label(ident[c])
            for w in hom[(c, b)]:
                x = label(w)
                if compose(t, x) == one_b and compose(x, t) == one_c:
                    back[c] = x
                    break
            else:
                raise FinGroupoidError("morphism %r has no inverse"
                                       % (tree[c],))
        n = len(objs)
        index = {o: i for i, o in enumerate(objs)}
        groups, gens, ginv_at = {}, [], [None] * n
        for b, comp_objs in members.items():
            group = hom[(b, b)]
            labels = [label(m) for m in group]
            pos = {x: i for i, x in enumerate(labels)}
            mul = []
            for p, x in zip(group, labels):
                row = [pos.get(compose(x, y)) for y in labels]
                if None in row:
                    raise FinGroupoidError(
                        "composite of (%r, %r) leaves hom(%r, %r)"
                        % (p, group[row.index(None)], b, b))
                mul.append(row)
            e = pos[label(ident[b])]
            ginv, vgens = _vertex_group(mul, e, group)
            groups[b] = (pos, mul, e)
            gens.extend(group[i] for i in vgens)
            for a in comp_objs:
                ginv_at[index[a]] = ginv
        # _frame gave every hom-set inside a component |G_b| morphisms, so
        # once no morphism leaves its component and phi is injective on
        # each hom-set, every cell is filled
        at, cells = {}, {}
        for (a, c), ms in hom.items():
            b = base[a]
            if base[c] != b:
                raise FinGroupoidError("morphism %r joins two components"
                                       % (ms[0],))
            pos, mul, _ = groups[b]
            t, u, ia, ic = lead[a], back[c], index[a], index[c]
            cell = cells[ia * n + ic] = [None] * len(mul)
            for m in ms:
                i = pos.get(compose(compose(t, label(m)), u))
                if i is None:
                    raise FinGroupoidError(
                        "transport of %r leaves hom(%r, %r)" % (m, b, b))
                if cell[i] is not None:
                    raise FinGroupoidError(
                        "morphisms %r and %r take one cell" % (cell[i], m))
                cell[i] = m
                at[m] = (ia, ic, i, mul)
        for o in objs:
            if at[ident[o]][2] != groups[base[o]][2]:
                raise FinGroupoidError("unit law fails at %r" % (ident[o],))
        inv = {}
        for m in mors:
            ia, ic, i, _ = at[m]
            inv[m] = cells[ic * n + ia][ginv_at[ia][i]]
        object.__setattr__(self, "inv", inv)
        _keep_frame(self, base, tree, gens)
        return at, cells, n

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def aut(self, x):
        return self.hom(x, x)

    def component_map(self):
        """dict object -> least object in its isomorphism class.  The
        dict is shared by every caller: read it, do not change it."""
        return self._components

    @_memo
    def _check_plan(self):
        """The triples (p, s, p;s) for s in the generating set and p into
        src(s), in that order: the composites a functor check out of the
        groupoid reads."""
        comp, into, src = self.comp, self._into, self.src
        return [(p, s, comp[(p, s)])
                for s in self._gens for p in into[src[s]]]

    @_memo
    def _out_index(self):
        """(object -> the morphisms leaving it, in id order; morphism ->
        its position in that list)."""
        out, pos = {o: [] for o in self.objects}, {}
        for m in self.morphisms:
            ms = out[self.src[m]]
            pos[m] = len(ms)
            ms.append(m)
        return out, pos

    @_memo
    def _hom_positions(self):
        """morphism -> its position in hom(src, dst), in id order, so
        that hom(a, b)[pos[m]] is m."""
        return {m: i for ms in self._hom.values() for i, m in enumerate(ms)}

    @_memo
    def _homs_memo(self):
        """(catalog group name, object y) -> _homs_into of that group
        into aut(y), filled by _homs_into_aut."""
        return {}

    def __repr__(self):
        return "FinGroupoid(%d objects, %d morphisms)" % (
            len(self.objects), len(self.morphisms))


def _frame(objs, hom):
    """Components of the groupoid with hom-sets `hom`, keyed by their least
    objects b, with the tree arrows t_a = hom(b, a)[0]; checks that every
    hom(a, c) inside a component has |hom(b, b)| elements.  Returns (base,
    tree, members): object -> b, object -> t_a, b -> its objects."""
    out = {}
    for a, c in hom:
        out.setdefault(a, []).append(c)
    # in a groupoid, hom(b', a) and hom(b, a) both nonempty would make
    # hom(b', b) nonempty, so no object is reached from two bases and a
    # morphism a -> c never leaves the component of a, since t_a;m lies
    # in hom(b, c); _normal_form checks the second, which also rules out
    # the first
    base, tree, members = {}, {}, {}
    for b in objs:
        if b in base:
            continue
        members[b] = out[b]
        for a in out[b]:
            base[a] = b
            tree[a] = hom[(b, a)][0]
    for b, comp_objs in members.items():
        order = len(hom[(b, b)])
        for a in comp_objs:
            for c in comp_objs:
                if len(hom.get((a, c), ())) != order:
                    raise FinGroupoidError(
                        "hom(%r, %r) has %d morphisms, hom(%r, %r) has %d"
                        % (a, c, len(hom.get((a, c), ())), b, b, order))
    return base, tree, members


def _vertex_group(mul, e, names):
    """Check that the int Cayley table `mul` (rows of indices into names,
    the elements of G_b) is a group with unit e: unit laws, two-sided
    inverses, and associativity by Light's test (Clifford-Preston,
    Algebraic Theory of Semigroups I, 1961, 1.2): the s with (x s) y =
    x (s y) for all x, y are closed under products, so it is enough to
    test the s in a generating set.  Returns (inverse indices, generator
    indices); the generators are found by closure from the unit under
    right products, scanning names in order."""
    n = len(mul)
    for x in range(n):
        if mul[e][x] != x or mul[x][e] != x:
            raise FinGroupoidError("unit law fails at %r" % (names[x],))
    ginv = []
    for x, row in enumerate(mul):
        for w in range(n):
            if row[w] == e and mul[w][x] == e:
                ginv.append(w)
                break
        else:
            raise FinGroupoidError("morphism %r has no inverse" % (names[x],))
    # the unit passes Light's test by the unit laws, so the generators
    # found here together with it generate G_b
    reached = {e}
    gens = []
    for x in range(n):
        if x in reached:
            continue
        gens.append(x)
        todo = [(y, x) for y in reached]
        while todo:
            y, s = todo.pop()
            z = mul[y][s]
            if z not in reached:
                reached.add(z)
                todo.extend((z, t) for t in gens)
    for s in gens:
        s_then = mul[s]
        for x, row in enumerate(mul):
            xs_then = mul[row[s]]
            if xs_then != [row[z] for z in s_then]:
                y = next(y for y in range(n) if xs_then[y] != row[s_then[y]])
                raise FinGroupoidError("associativity fails at (%r, %r, %r)"
                                       % (names[x], names[s], names[y]))
    return ginv, gens


def _keep_frame(g, base, tree, gens):
    """Store the component map, the `into` index (object -> morphisms
    ending there, in id order) and the generating set: the vertex-group
    generators `gens`, then the tree arrows that are not identities.

    Their inverses need no place in the generating set, because a functor
    check that passes at s passes at inv(s), and the identities need none
    either, because it passes at every identity once identities are
    preserved, which FinFunctor checks first.  The same set drives the
    level-0 component passes (fibers, the pullback square, the two
    middles and the connecting map's fibers): each unites along the
    generators only, since the morphisms whose relation holds are closed
    under composition and inverses.
    """
    objs, ident = g.objects, g.ident
    gens.extend(tree[a] for a in objs if tree[a] != ident[a])
    into = {o: [] for o in objs}
    for m in g.morphisms:
        into[g.dst[m]].append(m)
    object.__setattr__(g, "_components", {o: base[o] for o in objs})
    object.__setattr__(g, "_into", into)
    object.__setattr__(g, "_gens", tuple(dict.fromkeys(gens)))


def _morphism_label(m):
    return m


_triple_label = itemgetter(2)


class _ArrowComp(Mapping):
    """comp of an arrow groupoid (see _arrow_groupoid): made from the
    given triples and their label composition `compose`, and put in
    normal form by FinGroupoid._normal_form, after which FinGroupoid
    drops `compose`.

    From then on it is read-only: `_at` sends each morphism m : a -> c to
    (index of a, index of c, phi(m), Cayley table of its vertex group),
    and `_cells` sends index(a) * n + index(c) to hom(a, c) listed by phi,
    so comp[(p, q)] is the morphism of hom(src p, dst q) whose phi is
    phi(p)phi(q).  Its length and its order follow the given triples,
    as a dict of the composable pairs would."""

    __slots__ = ("compose", "_given", "_len", "_at", "_cells", "_n")

    def __init__(self, given, compose):
        self.compose, self._given, self._len = compose, given, None
        self._at, self._cells, self._n = {}, {}, 0

    def __getitem__(self, pair):
        try:
            p, q = pair
            a, b, i, mul = self._at[p]
            b2, c, j, _ = self._at[q]
        except (KeyError, TypeError, ValueError):
            raise KeyError(pair) from None
        if b != b2:
            raise KeyError(pair)
        return self._cells[a * self._n + c][mul[i][j]]

    def __len__(self):
        if self._len is None:
            given = dict.fromkeys(self._given)
            outof = {}
            for t in given:
                outof[t[0]] = outof.get(t[0], 0) + 1
            self._len = sum(outof.get(t[1], 0) for t in given)
        return self._len

    def __iter__(self):
        given = tuple(dict.fromkeys(self._given))
        by_src = {}
        for t in given:
            by_src.setdefault(t[0], []).append(t)
        for p in given:
            for q in by_src.get(p[1], ()):
                yield p, q


@dataclass(frozen=True)
class FinFunctor:
    source: FinGroupoid
    target: FinGroupoid
    obj_map: dict
    mor_map: dict

    def __post_init__(self):
        S, T = self.source, self.target
        om, fm = self.obj_map, self.mor_map
        # keyed by exactly the target's objects and morphisms
        tobjs, tmors = T._components, T.inv
        for x in S.objects:
            if om.get(x) not in tobjs:
                raise FinGroupoidError("object %r has no image" % (x,))
        ssrc, sdst, tsrc, tdst = S.src, S.dst, T.src, T.dst
        for m in S.morphisms:
            w = fm.get(m)
            if w not in tmors:
                raise FinGroupoidError("morphism %r has no image" % (m,))
            if tsrc[w] != om[ssrc[m]] or tdst[w] != om[sdst[m]]:
                raise FinGroupoidError("image of %r ill-typed" % (m,))
        # every source object and morphism is a key, so a longer map has a
        # foreign key
        if len(om) != len(S.objects):
            x = next(x for x in om if x not in S._components)
            raise FinGroupoidError("object %r not in source" % (x,))
        if len(fm) != len(S.morphisms):
            m = next(m for m in fm if m not in S.inv)
            raise FinGroupoidError("morphism %r not in source" % (m,))
        sident, tident = S.ident, T.ident
        for o in S.objects:
            if fm[sident[o]] != tident[om[o]]:
                raise FinGroupoidError("identity at %r not preserved" % (o,))
        # with identities preserved, the s with F(g;s) = F(g);F(s) for
        # every g into src(s) are closed under composition and inverses,
        # so checking the source's generating set checks every pair
        tcomp = T.comp
        for g, s, gs in S._check_plan:
            if tcomp[(fm[g], fm[s])] != fm[gs]:
                raise FinGroupoidError(
                    "composition not preserved at (%r, %r)" % (g, s))

    def compose(self, other):
        """self then other."""
        if other.source != self.target:
            raise FinGroupoidError("functors do not compose: %r then %r"
                                   % (self, other))
        return FinFunctor(
            self.source, other.target,
            {x: other.obj_map[self.obj_map[x]] for x in self.source.objects},
            {m: other.mor_map[self.mor_map[m]]
             for m in self.source.morphisms})

    def __repr__(self):
        return "FinFunctor(%r -> %r)" % (self.source, self.target)


# ---------------------------------------------------------------------------
# builders

def _arrow_groupoid(objs, mors, compose, ident):
    """Groupoid whose morphisms are (source, target, label) triples.

    Two triples compose when the first ends where the second starts; the
    composite carries compose(label, label2).  The identity at o is
    (o, o, ident(o)).  The table is never written out: FinGroupoid keeps
    the triples in normal form (_normal_form).

    That normal form composes as the labels do, for every caller here.
    The labels compose in a validated groupoid (X x Y for products and
    pullbacks, the source for hfiber, the target for the two middles),
    and each caller carries its endpoints along functorially (m =
    F(g);m2;inv(G(h)), m = F(g);m2, the transport h.c, or a class held
    fixed).  So the triples are closed under the labelled composite, a
    triple is fixed by its source and label, and the triples inherit
    associativity, units and inverses from the labels: (p;q);r and
    p;(q;r), or p;1 and p, share source and label.  In a groupoid the
    search finds the true inv(t_c), the Cayley table is hom(b, b)'s, and
    phi(p;q) = t_a;p;inv(t_b);t_b;q;inv(t_c) = phi(p)phi(q), so the cell
    at phi(p)phi(q) holds p;q (Brown, Topology and Groupoids, 2006, 6.7).
    """
    mors = tuple(mors)
    return FinGroupoid(
        objs, mors, {t: t[0] for t in mors}, {t: t[1] for t in mors},
        _ArrowComp(mors, compose), {o: (o, o, ident(o)) for o in objs})


def empty_groupoid():
    return FinGroupoid((), (), {}, {}, {}, {})


def discrete_groupoid(labels):
    labels = tuple(labels)
    ident = {o: ("id", o) for o in labels}
    mors = tuple(ident.values())
    return FinGroupoid(
        labels, mors,
        {m: m[1] for m in mors}, {m: m[1] for m in mors},
        {(m, m): m for m in mors}, ident)


# The one-object groupoid that object_inclusion and trunc_prop land on or
# come from; built and validated once.
_POINT = discrete_groupoid(("pt",))


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
                comp[((a, g, b), (b, h, c))] = (a, G.mul[(g, h)], c)
    return FinGroupoid(
        labels, mors,
        {m: m[0] for m in mors}, {m: m[2] for m in mors},
        comp, {o: (o, G.unit, o) for o in labels})


def group_groupoid(group_name, label="o"):
    """One object whose automorphisms are the named group."""
    return connected_groupoid((label,), group_name)


def group_hom_functor(src_name, dst_name, images, label="o"):
    """Functor of one-object groupoids induced by the homomorphism that
    sends the generators of the source group to the given images."""
    A, B = group_groupoid(src_name, label), group_groupoid(dst_name, label)
    G, H = _GROUPS[src_name], _GROUPS[dst_name]
    phi = {}
    for el in G.elements:
        v = H.unit
        for i in G.words[el]:
            v = H.mul[(v, images[i])]
        phi[el] = v
    return FinFunctor(A, B, {label: label},
                      {(label, g, label): (label, phi[g], label)
                       for g in G.elements})


def identity_fin_functor(g):
    return FinFunctor(g, g, {o: o for o in g.objects},
                      {m: m for m in g.morphisms})


def object_inclusion(g, y):
    """The point groupoid landing on the object y."""
    if y not in g._components:
        raise FinGroupoidError("object %r not in groupoid" % (y,))
    return FinFunctor(_POINT, g, {"pt": y}, {("id", "pt"): g.ident[y]})


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
# fibers

def hfiber(F, y):
    """The fiber of F over the target object y, as a groupoid: objects
    (x, m) with m : F(x) -> y, and a morphism (x, m) -> (x', m') for each
    source morphism g : x -> x' with F(g);m' = m."""
    S, T = F.source, F.target
    if y not in T._components:
        raise FinGroupoidError("fiber base %r is not a target object" % (y,))
    objs = tuple((x, m) for x in S.objects for m in T.hom(F.obj_map[x], y))
    mors = []
    for g in S.morphisms:
        x, x2 = S.src[g], S.dst[g]
        for m2 in T.hom(F.obj_map[x2], y):
            m = T.comp[(F.mor_map[g], m2)]
            mors.append(((x, m), (x2, m2), g))
    return _arrow_groupoid(objs, mors, lambda g, h: S.comp[(g, h)],
                           lambda o: S.ident[o[0]])


# ---------------------------------------------------------------------------
# lightweight fiber analysis (shared by the flag routes; no tables built)
#
# _fiber_pass, _fiber_aut_trivial and _classes_over keep their results on
# the functor by hand, not as `_memo` methods: the mutation harness
# (tests/mutants.py) swaps each in by its name in this module, which a
# method read through the functor would not see.

def _fiber_pass(F, y):
    """(fiber object -> least member of its class, those members), in
    id order (graphs._sorted_ids).  One union-find pass fills them for
    every base of F; they are kept on F: read them, do not change them.

    The fiber's arrows are the source morphisms g : x -> x2, one from
    (x, F(g);m2) to (x2, m2) for each m2 : F(x2) -> y.  The pass unites
    their ends only for g in the source's generating set.  That is
    enough: the g whose arrows all join united ends contain the
    identities and are closed under composition (F(g;h);m3 = F(g);
    (F(h);m3)) and inverses (take m2 = F(inv g);m), and the tree arrows
    with the vertex-group generators generate every morphism, as
    m = inv(t_a);(t_a;m;inv(t_c));t_c.

    The pass numbers the fiber objects over all bases densely: the block
    of x starts at start[x], the number of fiber objects before x, and
    (x, m) gets start[x] plus the position of m among the morphisms
    leaving F(x) (FinGroupoid._out_index).  Fibers over different bases
    never meet, and within one fiber the codes follow the id order of its
    objects (sorted source objects, then sorted hom-sets), so the smaller
    root that wins each join is the least member of its class."""
    try:
        return F._fiber_cms[y]
    except AttributeError:
        pass
    S, T = F.source, F.target
    out, pos = T._out_index
    fm, om, tcomp, tdst = F.mor_map, F.obj_map, T.comp, T.dst
    start, items = {}, []
    for x in S.objects:
        start[x] = len(items)
        items.extend([(x, m) for m in out[om[x]]])
    uf = _Classes(items)
    join = uf.join
    for s in S._gens:
        x2, fs = S.dst[s], fm[s]
        i, j = start[S.src[s]], start[x2]
        for m2 in out[om[x2]]:
            join(i + pos[tcomp[(fs, m2)]], j)
            j += 1
    fcms = {b: {} for b in T.objects}
    for o, r in uf.roots().items():
        fcms[tdst[o[1]]][o] = r
    cms = {b: (fcm, tuple(dict.fromkeys(fcm.values())))
           for b, fcm in fcms.items()}
    object.__setattr__(F, "_fiber_cms", cms)
    return cms[y]


def _transport(F, h, rep, target_map):
    """Move a fiber class over src(h) to one over dst(h) by composing
    with h; target_map is the component map of the target fiber."""
    x, m = rep
    return target_map[(x, F.target.comp[(m, h)])]


def _fiber_aut_trivial(F, y):
    """Whether every fiber object over y has only the identity
    automorphism; decided for every base at once and kept on F.

    An automorphism of (x, m) is a g in aut(x) with F(g);m = m, that is
    F(g) = id, and some (x, m) lies over y iff F x is in y's component
    (_classes_over).  So the fiber over y is trivial iff no such x has a
    g != id in aut(x) with F(g) = id."""
    try:
        return F._fiber_trivial[y]
    except AttributeError:
        pass
    S, T = F.source, F.target
    ycm, om, fm = T._components, F.obj_map, F.mor_map
    kernels = set()
    for x in S.objects:
        c = ycm[om[x]]
        if c not in kernels:
            one, sid = T.ident[om[x]], S.ident[x]
            if any(fm[g] == one and g != sid for g in S.aut(x)):
                kernels.add(c)
    trivial = {b: ycm[b] not in kernels for b in T.objects}
    object.__setattr__(F, "_fiber_trivial", trivial)
    return trivial[y]


def _classes_over(F):
    """(source component map, target component map, dict target
    component rep -> sorted source component reps over it), computed
    once per functor and shared by every caller: read it, do not change
    it.

    Level 0 rests on one fact: hom(F x, y) is nonempty iff F x and y
    share a component [y] (R. Brown, "Fibrations of groupoids", J.
    Algebra 15, 1970).  The shadow of a fiber class is the source class
    of its objects (x, m), well defined as the fiber's arrows are source
    morphisms.  Hence:
    - Shadows: those of the classes over y are exactly over[[y]], as
      some (x, m) lies over y iff F x is in [y].
    - Transport: each y' in [y] has some h : y' -> y, and (x, m) |->
      (x, m;h) keeps x, so each first-middle component over [y] with
      shadow d holds some (y, h.c') with shadow d.
    So no reading compares a set over y with the one over [y]: that
    clause always holds, and only its count or distinctness can fail."""
    try:
        return F._over
    except AttributeError:
        pass
    xcm = F.source.component_map()
    ycm = F.target.component_map()
    over = {r: [] for r in set(ycm.values())}
    for r in _sorted_ids(set(xcm.values())):
        over[ycm[F.obj_map[r]]].append(r)
    object.__setattr__(F, "_over", (xcm, ycm, over))
    return F._over


# ---------------------------------------------------------------------------
# the five flags at the two levels

def _flags_level0(F):
    T = F.target
    xcm, ycm, over = _classes_over(F)

    modal = all(_fiber_aut_trivial(F, y) for y in T.objects)

    connected = True
    equivalence = all(len(v) == 1 for v in over.values())
    fibration = True
    etale = True
    for y in T.objects:
        classes = _fiber_pass(F, y)[1]
        if len(classes) != 1:
            connected = False
        if len({xcm[x] for (x, _) in classes}) != len(classes):
            fibration = False
        # etale, by the unit-square route: the fiber must be equivalent,
        # through its own data, to the discrete set of classes downstairs
        if not _fiber_aut_trivial(F, y) \
                or len(classes) != len(over[ycm[y]]):
            etale = False
    return LevelVerdicts.of(modal, connected, etale, equivalence, fibration)


def _flags_level_prop(F):
    T = F.target
    x_inhabited = bool(F.source.objects)

    modal = True
    connected = True
    fibration = True
    etale = True
    for y in T.objects:
        ncomp = len(_fiber_pass(F, y)[1])
        inhabited = ncomp > 0
        contractible = ncomp == 1 and _fiber_aut_trivial(F, y)
        if inhabited and not contractible:
            modal = False
        if not inhabited:
            connected = False
        if inhabited != x_inhabited:
            fibration = False
        # delta route: the fiber must match the source's inhabitedness
        # as a proposition, so it is empty with it or contractible
        if (inhabited != x_inhabited) or (inhabited and not contractible):
            etale = False
    equivalence = x_inhabited == bool(T.objects)
    return LevelVerdicts.of(modal, connected, etale, equivalence, fibration)


def classify_trunc(F, level):
    """Five flags for one truncation level (0 = components, -1 =
    inhabitedness), each computed from its defining condition."""
    if level == 0:
        return _flags_level0(F)
    if level == -1:
        return _flags_level_prop(F)
    raise FinGroupoidError("level must be -1 or 0, got %r" % (level,))


def essentially_surjective(F):
    """Every fiber is inhabited: by _classes_over, every target
    component has a class over it."""
    return all(_classes_over(F)[2].values())


def automorphism_surjective(F):
    """Whether each automorphism group surjects onto its image object's."""
    S, T = F.source, F.target
    for x in S.objects:
        image = {F.mor_map[g] for g in S.aut(x)}
        if image != set(T.aut(F.obj_map[x])):
            return False
    return True


def functor_is_equivalence(F):
    """Essentially surjective and bijective on every hom-set."""
    S, T = F.source, F.target
    if not essentially_surjective(F):
        return False
    for a in S.objects:
        for b in S.objects:
            dom = S.hom(a, b)
            images = {F.mor_map[m] for m in dom}
            if len(images) != len(dom) \
                    or images != set(T.hom(F.obj_map[a], F.obj_map[b])):
                return False
    return True


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
        fcms[y], classes[y] = _fiber_pass(F, y)
    objs = tuple((y, c) for y in T.objects for c in classes[y])
    mors = []
    for h in T.morphisms:
        y, y2 = T.src[h], T.dst[h]
        for c in classes[y]:
            mors.append(((y, c), (y2, _transport(F, h, c, fcms[y2])), h))
    mid = _arrow_groupoid(objs, mors, lambda h, h2: T.comp[(h, h2)],
                          lambda o: T.ident[o[0]])

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
    _, ycm, over = _classes_over(F)
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
    xcm, ycm, over = _classes_over(F)
    objs = tuple((y, d) for y in T.objects for d in over[ycm[y]])
    mors = tuple(((T.src[h], d), (T.dst[h], d), h)
                 for h in T.morphisms for d in over[ycm[T.src[h]]])
    mid = _arrow_groupoid(objs, mors, lambda h, h2: T.comp[(h, h2)],
                          lambda o: T.ident[o[0]])
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
# pullbacks and products

def homotopy_pullback(F, G):
    """Iso-comma groupoid of F : X -> Z and G : Y -> Z.

    Objects are (x, y, m : F x -> G y); morphisms are pairs of source
    morphisms whose images commute with the connecting morphisms.
    Returns (P, proj1, proj2).
    """
    if F.target != G.target:
        raise FinGroupoidError("functors into different targets: %r and %r"
                               % (F, G))
    X, Y, Z = F.source, G.source, F.target
    objs = tuple((x, y, m) for x in X.objects for y in Y.objects
                 for m in Z.hom(F.obj_map[x], G.obj_map[y]))
    mors = []
    for g in X.morphisms:
        for h in Y.morphisms:
            x, x2 = X.src[g], X.dst[g]
            y, y2 = Y.src[h], Y.dst[h]
            for m2 in Z.hom(F.obj_map[x2], G.obj_map[y2]):
                m = Z.comp[(Z.comp[(F.mor_map[g], m2)], Z.inv[G.mor_map[h]])]
                mors.append(((x, y, m), (x2, y2, m2), (g, h)))
    P = _arrow_groupoid(
        objs, mors,
        lambda p, q: (X.comp[(p[0], q[0])], Y.comp[(p[1], q[1])]),
        lambda o: (X.ident[o[0]], Y.ident[o[1]]))
    proj1 = FinFunctor(P, X, {o: o[0] for o in P.objects},
                       {t: t[2][0] for t in P.morphisms})
    proj2 = FinFunctor(P, Y, {o: o[1] for o in P.objects},
                       {t: t[2][1] for t in P.morphisms})
    return P, proj1, proj2


def product_groupoid(A, B):
    """Product with componentwise composition; returns (P, fst, snd)."""
    objs = tuple((a, b) for a in A.objects for b in B.objects)
    mors = tuple(((A.src[g], B.src[h]), (A.dst[g], B.dst[h]), (g, h))
                 for g in A.morphisms for h in B.morphisms)
    P = _arrow_groupoid(
        objs, mors,
        lambda p, q: (A.comp[(p[0], q[0])], B.comp[(p[1], q[1])]),
        lambda o: (A.ident[o[0]], B.ident[o[1]]))
    fst = FinFunctor(P, A, {o: o[0] for o in objs},
                     {t: t[2][0] for t in mors})
    snd = FinFunctor(P, B, {o: o[1] for o in objs},
                     {t: t[2][1] for t in mors})
    return P, fst, snd


# ---------------------------------------------------------------------------
# comparing the two levels

def compare_modalities(F):
    """The five transfer implications between the inhabitedness level and
    the component level, each judged on this one functor.

    Fibration transfers down when F is a level-0 fibration and so is its
    discrete shadow at level -1: the functor that F induces from the
    classes of trunc0(F.source) to those of trunc0(F.target).  The
    shadow's fiber over a class d is inhabited iff some x has F x in d,
    so its level -1 flag is read off the source classes over each target
    class, and no shadow is built.  That flag is also F's own level -1
    flag (_classes_over): the premise contains the conclusion, and this
    implication cannot fail here."""
    lo = classify_trunc(F, -1)
    hi = classify_trunc(F, 0)
    xcm, _, over = _classes_over(F)
    shadow_fibration = not xcm or all(over.values())

    def imp(premise, conclusion):
        return {"premise": premise, "conclusion": conclusion,
                "holds": (not premise) or conclusion}

    report = {
        "modal_ascends": imp(lo.modal.is_true, hi.modal.is_true),
        "etale_ascends": imp(lo.etale.is_true, hi.etale.is_true),
        "equivalence_descends": imp(hi.equivalence.is_true,
                                    lo.equivalence.is_true),
        "connected_descends": imp(hi.connected.is_true, lo.connected.is_true),
        "fibration_transfers": imp(
            hi.fibration.is_true and shadow_fibration,
            lo.fibration.is_true),
    }
    report["all_hold"] = all(v["holds"] for v in report.values())
    return report


# ---------------------------------------------------------------------------
# the agreement suite at level 0

def nine_way(F, rng=None, sampled_bases=3):
    """All the equivalent readings of the level-0 fibration condition,
    plus the surjective-case criterion and the one-way connecting-map
    check.

    Readings that decide one fact share its pass:
    - (a), (b) and (d) are one count, no two classes over y share a
      shadow.  The shadows over y are over[[y]] (_classes_over), so (b)
      is that count.  The connecting functor is onto the classes and
      transport keeps shadows, so (d), that it is an equivalence, is too.
    - (e) and (h) read one first-middle pass (_middle_readings).
    - (c), (f) and (g) keep their own code.  (f) counts the classes over
      y for each class in over[[y]], so it alone catches some faults of
      _classes_over (tests/mutants.py).

    Returns a dict of booleans; "agree" ands together the routes that
    must coincide, "connecting_ok" is the one-way implication.
    """
    T = F.target
    xcm, ycm, over = _classes_over(F)
    fcms, classes = {}, {}
    for y in T.objects:
        fcms[y], classes[y] = _fiber_pass(F, y)
    gamma = {y: {c: xcm[c[0]] for c in classes[y]} for y in T.objects}

    # (a) the comparison from collapsed fibers to classes is bijective;
    #     it is onto the classes over [y] by _classes_over
    a = all(len(set(gamma[y].values())) == len(classes[y])
            for y in T.objects)

    # (c) pullback preservation: every point base, then sampled bases
    c = all(_pullback_preserved(F, object_inclusion(T, y))
            for y in T.objects)
    if c and sampled_bases:
        rng = rng or _random.Random(0)
        for _ in range(sampled_bases):
            G = random_functor_into(rng, T, max_objects=2)
            if not _pullback_preserved(F, G):
                c = False
                break

    # (e) the modal factor is etale, and (h) the connecting map between
    #     the middles is itself a fibration
    e, h_flag = _middle_readings(F, fcms, classes, gamma)

    # (f) the equivalence factor is connected: each class downstairs is
    #     hit by exactly one collapsed fiber class
    f = all(
        sum(1 for c in classes[y] if gamma[y][c] == dd) == 1
        for y in T.objects for dd in over[ycm[y]])

    # (g) fibers are locally constant: loops act trivially on them
    g = all(
        _transport(F, h, c, fcms[y]) == c
        for y in T.objects for h in T.aut(y) for c in classes[y])

    surjective = all(classes[y] for y in T.objects)
    i = automorphism_surjective(F) if surjective else None

    core = [a, c, e, f, g]
    if surjective:
        core.append(i)
    return {
        "gamma_equivalence": a,
        "fibers_preserved": a,
        "pullbacks_preserved": c,
        "factorizations_agree": a,
        "modal_factor_etale": e,
        "equivalence_factor_connected": f,
        "locally_constant_fibers": g,
        "connecting_map_fibration": h_flag,
        "surjective": surjective,
        "loop_surjectivity": i,
        "agree": all(x == core[0] for x in core),
        "connecting_ok": (not a) or h_flag,
    }


def _pullback_preserved(F, G):
    """Components of the iso-comma square against the set pullback.

    An arrow (g, h) : (x, y, m) -> (x2, y2, m2) of the square, with
    m = F(g);m2;inv(G(h)), is the composite (g, id);(id, h).  So the
    pass unites along (s, id_y) for s in X's generating set and along
    (id_x, t) for t in Y's: on each side the morphisms whose arrows all
    join united ends contain the identities and are closed under
    composition and inverses, so they are every morphism (see
    _fiber_pass).

    The pass joins codes and never hashes an object of the square: (x,
    y, m) is start + the position of m in hom(F x, G y) (Z._hom_positions),
    where the block of (x, y) starts after those of the earlier x, then
    of the earlier y.  The codes follow the id order of the objects, so
    the smaller root that wins each join is the least member of its
    class, and the roots are the positions that are their own parent.
    Every root (x, y, m) lies over a pair of components of X and Y with
    one image component in Z, so the roots meet each such pair exactly
    once iff their pairs are distinct and as many as those pairs.
    """
    X, Y, Z = F.source, G.source, F.target
    xcm, zcm, over = _classes_over(F)
    ycm = Y.component_map()
    hom, hpos, zcomp = Z._hom, Z._hom_positions, Z.comp
    gys = [G.obj_map[y] for y in Y.objects]
    # x -> (start of the block of (x, y), hom(F x, G y)) for y in order
    items, blocks = [], {}
    for x in X.objects:
        fx = F.obj_map[x]
        starts, homs = blocks[x] = [], []
        for y, gy in zip(Y.objects, gys):
            ms = hom.get((fx, gy), ())
            starts.append(len(items))
            homs.append(ms)
            items.extend([(x, y, m) for m in ms])
    uf = _Classes(items)
    join = uf.join
    for s in X._gens:
        fs = F.mor_map[s]
        starts = blocks[X.src[s]][0]
        starts2, homs2 = blocks[X.dst[s]]
        for i, j, ms in zip(starts, starts2, homs2):
            for m2 in ms:
                join(i + hpos[zcomp[(fs, m2)]], j)
                j += 1
    at = {y: k for k, y in enumerate(Y.objects)}
    for t in Y._gens:
        k, k2, back = at[Y.src[t]], at[Y.dst[t]], Z.inv[G.mor_map[t]]
        for starts, homs in blocks.values():
            j = starts[k2]
            for m2 in homs[k2]:
                join(starts[k] + hpos[zcomp[(m2, back)]], j)
                j += 1
    reps = [items[i] for i, p in enumerate(uf.parent) if p == i]
    image = {(xcm[x], ycm[y]) for (x, y, _) in reps}
    ys_over = {}
    for cy in set(ycm.values()):
        zc = zcm[G.obj_map[cy]]
        ys_over[zc] = ys_over.get(zc, 0) + 1
    want = sum(len(over[zc]) * n for zc, n in ys_over.items())
    return len(image) == len(reps) == want


def _class_codes(T, classes):
    """(start, at): the object (y, c) of a middle groupoid is coded
    start[y] + at[y][c], at[y][c] the index of c in classes[y], an
    iterable of distinct classes over y, so the codes follow the order
    of the objects."""
    start, at, n = {}, {}, 0
    for y in T.objects:
        start[y] = n
        at[y] = {c: i for i, c in enumerate(classes[y])}
        n += len(classes[y])
    return start, at


def _middle_readings(F, fcms, classes, gamma):
    """(e, h): whether the modal factor is etale, and whether the
    connecting map from its middle to the equivalence factor's, (y, c)
    |-> (y, gamma(c)), is a fibration, both read off one union pass.

    The middle groupoid of the modal factor, the first middle, has the
    objects (y, c) and an arrow (y, c) -> (y2, h.c) for each h : y ->
    y2, where h.c is the transport of the class c.  Transport is
    functorial on classes, (h;k).c = k.(h.c) and inv(h).(h.c) = c, so
    uniting along the target's generating set finds its components, as
    in _fiber_pass.  The pass joins the codes of _class_codes, which
    follow the order of the objects (y, c), so each root is the least
    member of its class and a middle component is named by its root's
    code.

    (e): the fiber components of the projection over y are exactly the
    transports of classes to y; delta sends each to its middle
    component, onto those over [y] (_classes_over), and must be
    injective.

    (h): the class middle and the connecting map's fibers have a closed
    form: both middles are action groupoids of the target and the map is
    induced by the equivariant gamma, so its fiber over (y, d) is
    equivalent to the discrete set of classes over y with shadow d (R.
    Brown, "Fibrations of groupoids", J. Algebra 15, 1970).  In detail:

    - The class middle has an arrow (y, d) -> (y2, d) for each h : y ->
      y2, and the shadows over y are the source classes over [y]
      (_classes_over).  So the component of (y, d) is ([y], d).
    - The fiber over (y, d) has the objects ((y2, c2), h) with gamma(c2)
      = d and h : y2 -> y, and an arrow ((y2, c2), h) -> ((y3, k.c2),
      inv(k);h) for each k : y2 -> y3.  Transport is functorial, so h.c2
      is constant along the arrows, and k = h joins ((y2, c2), h) to
      ((y, h.c2), id).  So the fiber has one component for each class c
      over y with gamma(c) = d, and it meets the first-middle component
      of (y, c).

    Hence the map is a fibration iff, for every y and d, the first-middle
    components of the classes over y with shadow d are pairwise distinct
    (by Transport in _classes_over, they are all those over [y]).  So (e)
    implies (h), and (h) is read only where (e) fails."""
    T = F.target
    start, at = _class_codes(T, classes)
    uf = _Classes([(y, c) for y in T.objects for c in classes[y]])
    join = uf.join
    for k in T._gens:
        y2 = T.dst[k]
        fcm, at2, j0 = fcms[y2], at[y2], start[y2]
        for i, c in enumerate(classes[T.src[k]], start[T.src[k]]):
            join(i, j0 + at2[_transport(F, k, c, fcm)])
    mid = uf.flatten()
    etale = fibration = True
    for y in T.objects:
        ms = mid[start[y]:start[y] + len(classes[y])]
        if len(set(ms)) < len(ms):
            etale = False
            shadow = gamma[y]
            if len({(shadow[c], m) for c, m in zip(classes[y], ms)}) \
                    < len(ms):
                fibration = False
    return etale, fibration


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


# ---------------------------------------------------------------------------
# randomized corpus

def _random_blocks(rng, max_objects, max_morphisms):
    # no block fits a bound below 1; checked before the first draw
    for name, bound in (("max_objects", max_objects),
                        ("max_morphisms", max_morphisms)):
        if bound < 1:
            raise FinGroupoidError("%s must be at least 1, got %r"
                                   % (name, bound))
    names = list(GROUP_NAMES)
    while True:
        blocks = []
        total_o = 0
        total_m = 0
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3)
            gname = rng.choice(names)
            size = k * k * len(_GROUPS[gname].elements)
            if total_o + k > max_objects or total_m + size > max_morphisms:
                continue
            blocks.append((k, gname))
            total_o += k
            total_m += size
        if blocks:
            return blocks


# Validated catalog assemblies, keyed by the block list.  Blocks have
# k <= 3 objects, a list holds at most 3 blocks and there are 6 catalog
# groups, so there are at most 18 + 18**2 + 18**3 = 6,174 keys; at the
# defaults (6, 24) and (2, 8) only 1,356 and 37 lists are reachable, each
# with at most 24 morphisms.  Every entry went through the constructor
# once; a hit returns that same object.  Its morphisms are ints numbered
# in the order of the triples they stand for (_build_blocks), so samples
# hash flat ids and serialize_fingroupoid can print them.
_ASSEMBLED = {}


def _assemble_blocks(blocks):
    """The disjoint union of the catalog blocks (k, group name), with
    objects numbered from 0 block by block; memoized, uses no rng."""
    key = tuple(blocks)
    g = _ASSEMBLED.get(key)
    if g is None:
        g = _ASSEMBLED[key] = _build_blocks(key)
    return g, blocks


def _build_blocks(blocks):
    """Morphism ids are ints 0..N-1.  In a block with first object o, k
    objects and a group of order n whose morphisms start at id `off`, the
    id of a -[G.elements[i]]-> b is off + ((a - o) * n + i) * k + (b - o):
    the order of the (a, g, b) triples of connected_groupoid, since each
    catalog group's elements are sorted."""
    src, dst, comp, ident = {}, {}, {}, {}
    o = off = 0
    for k, gname in blocks:
        G = _GROUPS[gname]
        n = len(G.elements)
        index = {g: i for i, g in enumerate(G.elements)}
        mul = [[index[G.mul[(g, h)]] for h in G.elements]
               for g in G.elements]
        e = index[G.unit]
        for a in range(k):
            for i in range(n):
                for b in range(k):
                    m = off + (a * n + i) * k + b
                    src[m], dst[m] = o + a, o + b
                    row = mul[i]
                    for j in range(n):
                        first = off + (b * n + j) * k
                        into = off + (a * n + row[j]) * k
                        for c in range(k):
                            comp[m, first + c] = into + c
            ident[o + a] = off + (a * n + e) * k + a
        o += k
        off += k * k * n
    return FinGroupoid(tuple(range(o)), tuple(range(off)),
                       src, dst, comp, ident)


def random_groupoid(rng, max_objects=6, max_morphisms=24):
    """Seeded random groupoid: a disjoint union of connected blocks."""
    g, _ = _assemble_blocks(_random_blocks(rng, max_objects, max_morphisms))
    return g


def _homs_into_aut(G, T, y):
    """_homs_into of the catalog group G into aut(y) of T, computed once
    per (group, object) and kept on T; callers only read the list."""
    memo = T._homs_memo
    key = (G.name, y)
    homs = memo.get(key)
    if homs is None:
        els = T.aut(y)
        mul = {(a, b): T.comp[(a, b)] for a in els for b in els}
        homs = memo[key] = _homs_into(G, els, mul, T.ident[y])
    return homs


def random_functor_into(rng, target, max_objects=6, max_morphisms=24):
    """Random functor from a fresh random groupoid into the target.

    Per source block: pick a base image object, a homomorphism of the
    block group into its automorphisms, and a random transport to spread
    the block over the image's isomorphism class.  The source is a
    catalog assembly, whose objects and morphisms are numbered 0, 1, ...
    in the order of the loops below (_build_blocks).
    """
    if not target.objects:
        return FinFunctor(empty_groupoid(), target, {}, {})
    source, blocks = _assemble_blocks(
        _random_blocks(rng, max_objects, max_morphisms))
    out, tcomp = target._out_index[0], target.comp
    obj_images, mor_images = [], []
    for k, gname in blocks:
        G = _GROUPS[gname]
        y = rng.choice(target.objects)
        phi = rng.choice(_homs_into_aut(G, target, y))
        t = [rng.choice(out[y]) for _ in range(k)]
        obj_images.extend([target.dst[ta] for ta in t])
        for ta in t:
            back = target.inv[ta]
            for g in G.elements:
                w = tcomp[(back, phi[g])]
                mor_images.extend([tcomp[(w, tb)] for tb in t])
    return FinFunctor(source, target, dict(enumerate(obj_images)),
                      dict(enumerate(mor_images)))


def random_functor(rng, max_objects=6, max_morphisms=24):
    """Random functor between two fresh random groupoids."""
    target = random_groupoid(rng, max_objects, max_morphisms)
    return random_functor_into(rng, target, max_objects, max_morphisms)
