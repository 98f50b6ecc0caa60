"""Level-0 fiber routes against the all-morphism passes they replace.

The fiber component map, the pullback check and the first middle of
`nine_way`'s routes (e) and (h) each unite along a generating set of
their groupoid (the tree arrows and the vertex-group generators); route
(h) reads the connecting map's class middle and fibers off the first
middle in closed form.  The references below are the earlier passes,
which unite along every morphism and pick representatives with the
`least()` of the reference union-find in `reference_union_find.py`; the
modal factor's reference builds its own middle, and the connecting
map's reference builds the first middle, the class middle and every
fiber.  Each route must build the same partitions, return the same
verdict, and keep the same representatives and the same order of
classes; the roots of each `_Classes` a route builds must be those least
members, the invariant `FinFunctor._fiber_classes` reads its representatives
by.
Routes (e) and (h) share one pass, which must be the first pass of both
references.  Routes (b) and (d) read route (a)'s count: (d) is checked
against the pair-by-pair transports of the connecting functor, and a
counted-work guard bounds the transports one `nine_way` call makes by
one per class and generator, for (e) and (h), and one per class and
loop, for (g).  The fibers over all bases come from a single `_Classes`
pass per functor; the kernel rule that decides trivial fiber
automorphisms by target component must agree with the per-base scan of
the source objects; and `_Classes.join` on positions must partition as
`union` on items does.  The pullback and middle passes also join codes
only, so none of them builds an item index, and the hom-position index
the pullback codes by must agree with the hom-sets.  The fact that lets
the routes skip every set comparison against the component [y] is
checked directly: the shadows of the fiber classes over y, and the
middle components over y with each shadow, are those over [y], so route
(b)'s count is route (a)'s.  The functors come from the mutation
harness's sampler, `mutants.sample_functor`.
"""

import gc
import random
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from modalfib import fingroupoids
from modalfib.fingroupoids import (
    FinFunctor, _Classes, _middle_readings, _pullback_preserved, _transport,
    discrete_groupoid, nine_way, object_inclusion, product_groupoid, random_functor,
    random_functor_into,
)
from modalfib.graphs import _sort_key
from mutants import SAMPLE_KINDS, sample_functor
from reference_union_find import UnionFind
from lib_fingroupoids import connected_groupoid, group_groupoid


# ---------------------------------------------------------------------------
# reference passes: every morphism, least() representatives

def fiber_objects(F, y):
    return [(x, m) for x in F.source.objects
            for m in F.target.hom(F.obj_map[x], y)]


def ref_fiber_component_map(F, y):
    S, T = F.source, F.target
    uf = UnionFind(fiber_objects(F, y))
    for g in S.morphisms:
        x, x2 = S.src[g], S.dst[g]
        for m2 in T.hom(F.obj_map[x2], y):
            uf.union((x, T.comp[(F.mor_map[g], m2)]), (x2, m2))
    return uf.least()


def ref_pullback_preserved(F, G):
    """(verdict, least() map of the iso-comma components)."""
    X, Y, Z = F.source, G.source, F.target
    xcm, ycm, zcm = X.component_map(), Y.component_map(), Z.component_map()
    objs = [(x, y, m) for x in X.objects for y in Y.objects
            for m in Z.hom(F.obj_map[x], G.obj_map[y])]
    uf = UnionFind(objs)
    for g in X.morphisms:
        for h in Y.morphisms:
            x, x2 = X.src[g], X.dst[g]
            y, y2 = Y.src[h], Y.dst[h]
            for m2 in Z.hom(F.obj_map[x2], G.obj_map[y2]):
                m = Z.comp[(Z.comp[(F.mor_map[g], m2)],
                            Z.inv[G.mor_map[h]])]
                uf.union((x, y, m), (x2, y2, m2))
    reps = {uf.find(o) for o in objs}
    image = {(xcm[x], ycm[y]) for (x, y, m) in reps}
    want = {(cx, cy)
            for cx in set(xcm.values()) for cy in set(ycm.values())
            if zcm[F.obj_map[cx]] == zcm[G.obj_map[cy]]}
    return len(image) == len(reps) and image == want, uf.least()


def middle_pass(F, fcms, classes):
    T = F.target
    uf = UnionFind([(y, c) for y in T.objects for c in classes[y]])
    for h in T.morphisms:
        y, y2 = T.src[h], T.dst[h]
        for c in classes[y]:
            uf.union((y, c), (y2, _transport(F, h, c, fcms[y2])))
    return uf


def ref_modal_factor_etale(F, fcms, classes, ycm):
    """(verdict, least() map of the middle groupoid)."""
    T = F.target
    uf = middle_pass(F, fcms, classes)
    mids_over = {}
    for (y, c) in uf.parent:
        mids_over.setdefault(ycm[y], set()).add(uf.find((y, c)))
    ok = True
    for y in T.objects:
        delta = {uf.find((y, c)) for c in classes[y]}
        want = mids_over.get(ycm[y], set())
        if len(delta) != len(classes[y]) or delta != want:
            ok = False
            break
    return ok, uf.least()


def ref_connecting_map_fibration(F, fcms, classes, gamma):
    """(verdict, least() maps of every union pass made, in order)."""
    T = F.target
    uf = middle_pass(F, fcms, classes)
    passes = [uf.least()]
    ee_objs = [(y, d) for y in T.objects for d in set(gamma[y].values())]
    uf2 = UnionFind(ee_objs)
    for h in T.morphisms:
        y, y2 = T.src[h], T.dst[h]
        for d in set(gamma[y].values()):
            if (y2, d) in uf2.parent:
                uf2.union((y, d), (y2, d))
    passes.append(uf2.least())
    cm_over_ee = {}
    for (y, c) in uf.parent:
        cm_over_ee.setdefault(uf2.find((y, gamma[y][c])), set()).add(
            uf.find((y, c)))
    for (y, d) in ee_objs:
        fiber = [(y2, c2, h) for y2 in T.objects for c2 in classes[y2]
                 if gamma[y2][c2] == d for h in T.hom(y2, y)]
        if not fiber and cm_over_ee.get(uf2.find((y, d))):
            return False, passes
        uf3 = UnionFind(fiber)
        for (y2, c2, h) in fiber:
            for k in T.morphisms:
                if T.src[k] != y2:
                    continue
                y3 = T.dst[k]
                uf3.union((y2, c2, h), (y3, _transport(F, k, c2, fcms[y3]),
                                        T.comp[(T.inv[k], h)]))
        passes.append(uf3.least())
        reps = {uf3.find(o) for o in fiber}
        image = {uf.find((y2, c2)) for (y2, c2, h) in reps}
        want = cm_over_ee.get(uf2.find((y, d)), set())
        if len(image) != len(reps) or image != want:
            return False, passes
    return True, passes


def ref_fiber_aut_trivial(F, y):
    """Whether no fiber object over y has an automorphism other than the
    identity, by a scan of the source objects whose image reaches y."""
    S, T = F.source, F.target
    return not any(
        g != S.ident[x] and F.mor_map[g] == T.ident[F.obj_map[x]]
        for x in S.objects if T.hom(F.obj_map[x], y)
        for g in S.aut(x))


def ref_factorizations_agree(F, fcms, classes, gamma):
    """Route (d) of nine_way, transporting once per pair of classes."""
    T = F.target
    _, ycm, over = F._classes_over
    d = all(set(gamma[y].values()) == set(over[ycm[y]]) for y in T.objects)
    if d:
        for h in T.morphisms:
            y, y2 = T.src[h], T.dst[h]
            for c1 in classes[y]:
                for c2 in classes[y2]:
                    if gamma[y][c1] == gamma[y2][c2] \
                            and _transport(F, h, c1, fcms[y2]) != c2:
                        d = False
    return d


@contextmanager
def recorded_passes():
    """Every union-find the routes build, in order of construction."""
    made = []

    class Recording(_Classes):
        def __init__(self, items):
            super().__init__(items)
            made.append(self)

    saved = fingroupoids._Classes
    fingroupoids._Classes = Recording
    try:
        yield made
    finally:
        fingroupoids._Classes = saved


# ---------------------------------------------------------------------------
# inputs: the mutation harness's sample kinds (random functors, product
# projections, pullback legs, and functors into connected groupoids with
# mixed object ids)

KINDS = st.sampled_from(SAMPLE_KINDS)


def level0_data(F):
    T = F.target
    fcms, classes = {}, {}
    for y in T.objects:
        fcms[y], classes[y] = F._fiber_classes[y]
    xcm = F.source.component_map()
    gamma = {y: {c: xcm[c[0]] for c in classes[y]} for y in T.objects}
    return fcms, classes, gamma


# ---------------------------------------------------------------------------
# the four routes against their references

@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_fiber_component_map_matches_all_morphism_pass(kind, seed):
    F = sample_functor(kind, random.Random(seed))
    for y in F.target.objects:
        ref = ref_fiber_component_map(F, y)
        fcm, classes = F._fiber_classes[y]
        assert fcm == ref
        assert list(fcm) == list(ref)
        assert list(classes) == sorted(set(ref.values()), key=_sort_key)
        # computed once and shared
        assert F._fiber_classes[y][0] is fcm


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_one_fiber_pass_fills_every_base(kind, seed):
    F = sample_functor(kind, random.Random(seed))
    objs = F.target.objects
    with recorded_passes() as made:
        F._fiber_classes[objs[seed % len(objs)]]
        assert set(F._fiber_classes) == set(objs)
        for y in objs:
            F._fiber_classes[y]
    assert len(made) == 1
    assert len(made[0].items) \
        == sum(len(fiber_objects(F, y)) for y in objs)
    # the pass joins dense codes and never indexes the fiber objects
    assert made[0].index is None


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_fiber_kernels_decided_by_component(kind, seed):
    F = sample_functor(kind, random.Random(seed))
    for y in F.target.objects:
        assert F._fiber_trivial[y] is ref_fiber_aut_trivial(F, y)


def test_fiber_kernel_over_one_component_only():
    # c2 collapsed onto a: the fiber over a is c2 itself, the fiber over
    # b, in another component, is empty
    S, T = group_groupoid("c2"), discrete_groupoid(("a", "b"))
    F = FinFunctor(S, T, {"o": "a"},
                   {m: T.ident["a"] for m in S.morphisms})
    assert [F._fiber_trivial[y] for y in T.objects] \
        == [ref_fiber_aut_trivial(F, y) for y in T.objects] == [False, True]


ITEMS = st.lists(
    st.one_of(st.integers(-5, 40), st.text("abc", max_size=2),
              st.tuples(st.integers(0, 3), st.text("ab", max_size=1))),
    unique=True, min_size=1, max_size=30)


@settings(max_examples=100, deadline=None)
@given(ITEMS, st.data())
def test_join_on_positions_matches_union_on_items(items, data):
    pairs = data.draw(st.lists(st.tuples(
        st.integers(0, len(items) - 1), st.integers(0, len(items) - 1)),
        max_size=40))
    by_item, by_pos, ref = _Classes(items), _Classes(items), \
        UnionFind(items)
    for i, j in pairs:
        by_item.union(items[i], items[j])
        by_pos.join(i, j)
        ref.union(items[i], items[j])
    # a caller that only joins never indexes its items
    assert by_pos.index is None
    roots = by_pos.roots()
    assert by_item.roots() == roots
    assert list(roots) == items
    # the same partition as the reference, each root its class's first
    first = {}
    for o in items:
        first.setdefault(ref.find(o), o)
    assert roots == {o: first[ref.find(o)] for o in items}


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_pullback_route_matches_all_morphism_pass(kind, seed):
    rng = random.Random(seed)
    F = sample_functor(kind, rng)
    T = F.target
    legs = [object_inclusion(T, y) for y in T.objects]
    legs += [random_functor_into(rng, T, max_objects=3, max_morphisms=8)
             for _ in range(2)]
    for G in legs:
        want, ref = ref_pullback_preserved(F, G)
        with recorded_passes() as made:
            got = _pullback_preserved(F, G)
        assert got == want
        assert [uf.roots() for uf in made] == [ref]


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_middle_routes_match_all_morphism_passes(kind, seed):
    F = sample_functor(kind, random.Random(seed))
    fcms, classes, gamma = level0_data(F)
    ycm = F.target.component_map()

    want_e, ref = ref_modal_factor_etale(F, fcms, classes, ycm)
    want_h, refs = ref_connecting_map_fibration(F, fcms, classes, gamma)
    # one pass for (e) and (h), the first of both references; (h) reads
    # off it the class middle and the fibers its reference builds
    with recorded_passes() as made:
        got = _middle_readings(F, fcms, classes, gamma)
    assert got == (want_e, want_h)
    assert [uf.roots() for uf in made] == [ref] == refs[:1]


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_route_passes_join_codes_and_build_no_index(kind, seed):
    rng = random.Random(seed)
    F = sample_functor(kind, rng)
    T = F.target
    fcms, classes, gamma = level0_data(F)
    legs = [object_inclusion(T, y) for y in T.objects]
    legs.append(random_functor_into(rng, T, max_objects=3, max_morphisms=8))
    with recorded_passes() as made:
        for G in legs:
            _pullback_preserved(F, G)
        _middle_readings(F, fcms, classes, gamma)
    # one square per leg, and the first middle
    assert len(made) == len(legs) + 1
    assert [uf.index for uf in made] == [None] * len(made)


@settings(max_examples=40, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_hom_positions_match_hom_sets(kind, seed):
    F = sample_functor(kind, random.Random(seed))
    for g in (F.source, F.target):
        pos = g._hom_positions
        assert len(pos) == len(g.morphisms)
        for m in g.morphisms:
            assert g.hom(g.src[m], g.dst[m]).index(m) == pos[m]
        assert g._hom_positions is pos


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_factorizations_route_matches_pairwise_transports(kind, seed):
    F = sample_functor(kind, random.Random(seed))
    want = ref_factorizations_agree(F, *level0_data(F))
    assert nine_way(F)["factorizations_agree"] is want


def test_loops_that_move_fiber_classes():
    # the point in a group groupoid: the fiber over o is the group itself,
    # its classes are the group elements, and each loop moves them
    for name in ("c2", "c3", "s3", "v4"):
        T = connected_groupoid((0, "b"), name)
        F = object_inclusion(T, 0)
        fcms, classes, gamma = level0_data(F)
        assert len(classes[0]) == len(T.aut(0)) > 1
        ycm = T.component_map()
        assert _middle_readings(F, fcms, classes, gamma) == (
            ref_modal_factor_etale(F, fcms, classes, ycm)[0],
            ref_connecting_map_fibration(F, fcms, classes, gamma)[0])
        assert nine_way(F)["agree"]


def test_nine_way_transports_each_class_once_per_generator_and_loop(
        monkeypatch):
    # several classes per fiber: the fiber of the point over y is
    # hom(0, y), one class per morphism, so pairwise transports would be
    # quadratic in the classes over each hom-set's ends.  The point is no
    # fibration, so the readings stop at their first failure; the
    # projection from T x {p, q}, two classes over each y, is one, so
    # every reading runs to the end
    calls = []

    def counting(*args):
        calls.append(args)
        return _transport(*args)

    monkeypatch.setattr(fingroupoids, "_transport", counting)
    for name in ("c2", "c3", "s3", "v4"):
        T = connected_groupoid((0, "b"), name)
        for F in (object_inclusion(T, 0), product_groupoid(
                T, discrete_groupoid(("p", "q")))[1]):
            _, classes, _ = level0_data(F)
            per_generator = sum(len(classes[T.src[k]]) for k in T._gens)
            per_loop = sum(len(T.aut(y)) * len(classes[y])
                           for y in T.objects)
            del calls[:]
            assert nine_way(F)["agree"]
            # (e) and (h) together per generator, (g) per loop
            assert len(calls) <= per_generator + per_loop


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_shadows_and_middles_over_y_are_those_over_its_component(kind, seed):
    # the fact the level-0 readings rely on (FinFunctor._classes_over), so
    # that none of them compares a set over y with the one over [y]
    F = sample_functor(kind, random.Random(seed))
    xcm, ycm, over = F._classes_over
    fcms, classes, gamma = level0_data(F)
    uf = middle_pass(F, fcms, classes)
    mids, mids_over = {}, {}
    for y in F.target.objects:
        assert {xcm[x] for (x, _) in classes[y]} == set(over[ycm[y]])
        # so route (b)'s count is route (a)'s
        assert (len(classes[y]) == len(over[ycm[y]])) \
            == (len(set(gamma[y].values())) == len(classes[y]))
        for c in classes[y]:
            mid = uf.find((y, c))
            mids.setdefault((y, gamma[y][c]), set()).add(mid)
            mids_over.setdefault((ycm[y], gamma[y][c]), set()).add(mid)
    for (y, d), ms in mids.items():
        assert ms == mids_over[ycm[y], d]


def test_classes_over_computed_once_per_functor():
    F = random_functor(random.Random(8))
    assert F._classes_over is F._classes_over


# ---------------------------------------------------------------------------
# scaling guard

@pytest.fixture(scope="module")
def big_projection():
    """The first projection of a 16-object, 6,144-morphism product
    (2,359,296 composable pairs, kept in normal form: built in about
    0.12 s at 21 MB peak RSS on a 2-CPU x86_64 host).  The
    collector is paused while the tables are built and the tables are
    then frozen, so no full collection pass over them falls inside a
    timed call."""
    A = connected_groupoid(range(4), "s3")
    B = connected_groupoid(range(4), "c4")
    gc.disable()
    try:
        P, fst, _ = product_groupoid(A, B)
    finally:
        gc.enable()
    gc.freeze()
    yield A, P, fst
    gc.unfreeze()


def test_nine_way_on_large_product_projection(big_projection):
    A, P, fst = big_projection
    assert len(P.objects) == 16 and len(P.morphisms) == 6144
    best = None
    for _ in range(3):
        # a fresh functor each time: no fiber map or class cache carried
        F = FinFunctor(P, A, fst.obj_map, fst.mor_map)
        t = time.perf_counter()
        out = nine_way(F)
        took = time.perf_counter() - t
        best = took if best is None else min(best, took)
        assert out["agree"] is True
        assert out["pullbacks_preserved"] is True
    assert best < 0.3, best
