"""Built groupoids in normal form against the tables they replace.

`_arrow_groupoid` builds products, pullbacks, fibers and the two
factorization middles from the vertex groups, without writing out comp.
The oracle below is the dict-building construction it replaced: every
composable pair gets its entry from the label composition, and the raw
FinGroupoid constructor checks the whole table.  Both must give the same
fields in the same order and the same composite for every pair.  Label
compositions that are not a groupoid must be refused, and the work must
stay linear in the morphisms plus the vertex groups' tables.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from modalfib import fingroupoids, textio
from modalfib.fingroupoids import (
    FinGroupoid, FinGroupoidError, _arrow_groupoid, hfiber, homotopy_pullback,
    product_groupoid, random_functor, random_functor_into, random_groupoid,
)
from modalfib.textio import serialize_fingroupoid
from lib_fingroupoids import (connected_groupoid, connecting_functor,
                              factor_connected_modal, factor_equiv_etale,
                              instability_witness)


def table_arrow_groupoid(objs, mors, compose, ident):
    """The composition table written out entry by entry, then checked by
    the raw constructor."""
    by_src = {}
    for t in mors:
        by_src.setdefault(t[0], []).append(t)
    comp = {}
    for a, b, l in mors:
        for _, c, l2 in by_src.get(b, ()):
            comp[((a, b, l), (b, c, l2))] = (a, c, compose(l, l2))
    return FinGroupoid(
        objs, tuple(mors),
        {t: t[0] for t in mors}, {t: t[1] for t in mors}, comp,
        {o: (o, o, ident(o)) for o in objs})


@contextmanager
def arrows_by(build):
    real = fingroupoids._arrow_groupoid
    fingroupoids._arrow_groupoid = build
    try:
        yield
    finally:
        fingroupoids._arrow_groupoid = real


def both(make):
    """make() with the normal-form construction, then with the table
    oracle."""
    new = make()
    with arrows_by(table_arrow_groupoid):
        old = make()
    return new, old


FIELDS = ("objects", "morphisms", "src", "dst", "ident", "inv", "_hom",
          "_components", "_into", "_gens")


def assert_same_groupoid(new, old):
    for name in FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a == b, name
        if isinstance(a, dict):
            assert list(a) == list(b), name
    assert isinstance(old.comp, dict)
    assert len(new.comp) == len(old.comp)
    assert list(new.comp) == list(old.comp)
    for pair, k in old.comp.items():
        assert new.comp[pair] == k, pair


def assert_same_functor(new, old):
    assert_same_groupoid(new.source, old.source)
    assert_same_groupoid(new.target, old.target)
    assert new.obj_map == old.obj_map and new.mor_map == old.mor_map


def sample_functor(rng):
    return random_functor(rng, max_objects=3, max_morphisms=12)


SEEDS = st.integers(0, 2 ** 32)


# ---------------------------------------------------------------------------
# every construction against the oracle

@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_product_matches_table(seed):
    def make():
        rng = random.Random(seed)
        A = random_groupoid(rng, max_objects=3, max_morphisms=12)
        B = random_groupoid(rng, max_objects=2, max_morphisms=8)
        return product_groupoid(A, B)
    (P, fst, snd), (P0, fst0, snd0) = both(make)
    assert_same_groupoid(P, P0)
    assert_same_functor(fst, fst0)
    assert_same_functor(snd, snd0)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_pullback_matches_table(seed):
    def make():
        rng = random.Random(seed)
        F = sample_functor(rng)
        G = random_functor_into(rng, F.target, max_objects=2,
                                max_morphisms=8)
        return homotopy_pullback(F, G)
    (P, p1, p2), (P0, q1, q2) = both(make)
    assert_same_groupoid(P, P0)
    assert_same_functor(p1, q1)
    assert_same_functor(p2, q2)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_fiber_matches_table(seed):
    def make():
        rng = random.Random(seed)
        F = sample_functor(rng)
        return hfiber(F, rng.choice(F.target.objects))
    assert_same_groupoid(*both(make))


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.sampled_from([factor_connected_modal, factor_equiv_etale]))
def test_factorization_middles_match_table(seed, factor):
    def make():
        return factor(sample_functor(random.Random(seed)), 0)
    (mid, left, right), (mid0, left0, right0) = both(make)
    assert_same_groupoid(mid, mid0)
    assert_same_functor(left, left0)
    assert_same_functor(right, right0)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_connecting_functor_matches_table(seed):
    def make():
        return connecting_functor(sample_functor(random.Random(seed)))
    assert_same_functor(*both(make))


def test_instability_witness_matches_table():
    new, old = both(instability_witness)
    assert_same_groupoid(new["pullback"], old["pullback"])
    assert_same_functor(new["top"], old["top"])
    for key in ("bottom_is_equivalence", "top_is_equivalence"):
        assert new[key] == old[key]


# ---------------------------------------------------------------------------
# a built groupoid as raw tables

def built_sample(seed):
    rng = random.Random(seed)
    F = sample_functor(rng)
    kind = rng.randrange(3)
    if kind == 0:
        A = random_groupoid(rng, max_objects=2, max_morphisms=8)
        return product_groupoid(F.source, A)[0]
    if kind == 1:
        G = random_functor_into(rng, F.target, max_objects=2,
                                max_morphisms=8)
        return homotopy_pullback(F, G)[0]
    return hfiber(F, rng.choice(F.target.objects))


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_raw_copy_derives_the_same_caches(seed):
    P = built_sample(seed)
    raw = FinGroupoid(P.objects, P.morphisms, P.src, P.dst,
                      dict(P.comp.items()), P.ident)
    for name in ("inv", "_hom", "_components", "_into", "_gens"):
        assert getattr(raw, name) == getattr(P, name), name
        assert list(getattr(raw, name)) == list(getattr(P, name)), name


def spelled(x):
    return repr(x).replace(" ", "")


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_serialized_built_groupoid_equals_its_raw_copy(seed):
    # built ids are nested tuples, which no token spells, so the ids are
    # written with repr; the rows, their order and every composite are
    # the serializer's own
    P = built_sample(seed)
    raw = FinGroupoid(P.objects, P.morphisms, P.src, P.dst,
                      dict(P.comp.items()), P.ident)
    real = textio.token
    textio.token = spelled
    try:
        text = serialize_fingroupoid("p", P)
        assert text == serialize_fingroupoid("p", raw)
    finally:
        textio.token = real
    assert text.count("\ncompose: ") == len(P.comp)


def test_comp_is_a_read_only_mapping_of_the_composable_pairs():
    P = product_groupoid(connected_groupoid("ab", "c2"),
                         connected_groupoid("x", "c3"))[0]
    m = P.morphisms[0]
    w = next(w for w in P.morphisms if P.src[w] != P.dst[m])
    assert (m, P.inv[m]) in P.comp
    assert (m, w) not in P.comp and P.comp.get((m, w)) is None
    assert ("no", "such") not in P.comp and 7 not in P.comp
    with pytest.raises(KeyError):
        P.comp[(m, w)]
    with pytest.raises(TypeError):
        P.comp[(m, m)] = m
    assert len(P.comp) == sum(1 for _ in P.comp) == 2 * (2 * 6) ** 2


# ---------------------------------------------------------------------------
# label compositions that are not a groupoid

def cyclic(compose, n=3):
    """One object o with the labels 0..n-1."""
    return _arrow_groupoid(("o",), [("o", "o", k) for k in range(n)],
                           compose, lambda o: 0)


def test_cyclic_labels_build():
    g = cyclic(lambda x, y: (x + y) % 3)
    assert g.comp[(("o", "o", 1), ("o", "o", 2))] == ("o", "o", 0)
    assert g.inv[("o", "o", 1)] == ("o", "o", 2)


def test_composite_leaving_the_vertex_group_rejected():
    with pytest.raises(FinGroupoidError, match="leaves hom"):
        cyclic(lambda x, y: x + y)


def test_broken_unit_rejected():
    def compose(x, y):
        return 2 if (x, y) == (0, 1) else (x + y) % 3
    with pytest.raises(FinGroupoidError, match="unit"):
        cyclic(compose)


def test_two_morphisms_in_one_cell_rejected():
    # labels name their hom-set; every label from a to b and back composes
    # to the identity at a, so the transports of both arrows b -> a land
    # on the same element of G_a
    objs = ("a", "b")
    mors = [(x, y, (x + y, g)) for x in objs for y in objs for g in (0, 1)]

    def compose(p, q):
        if p[0] == "ab" and q[0] == "ba":
            return ("aa", 0)
        return (p[0][0] + q[0][1], (p[1] + q[1]) % 2)
    with pytest.raises(FinGroupoidError, match="one cell"):
        _arrow_groupoid(objs, mors, compose, lambda o: (o + o, 0))


def test_morphism_across_components_rejected():
    mors = [("a", "a", 0), ("b", "b", 0), ("a", "b", 0)]
    with pytest.raises(FinGroupoidError):
        _arrow_groupoid(("a", "b"), mors, lambda x, y: 0, lambda o: 0)


def test_missing_identity_rejected():
    with pytest.raises(FinGroupoidError, match="identity"):
        _arrow_groupoid(("o",), [("o", "o", 1)], lambda x, y: 1,
                        lambda o: 0)


def test_non_associative_loop_rejected():
    # the Latin square of test_table_validation: units and inverses hold,
    # Light's test does not
    rows = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    with pytest.raises(FinGroupoidError, match="associativity"):
        cyclic(lambda x, y: rows[x][y], n=5)


# ---------------------------------------------------------------------------
# work

def test_large_product_composes_linearly_many_labels():
    A = connected_groupoid(range(4), "s3")
    B = connected_groupoid(range(4), "c4")
    calls = [0]

    def counting(objs, mors, compose, ident):
        def counted(p, q):
            calls[0] += 1
            return compose(p, q)
        return _arrow_groupoid(objs, mors, counted, ident)
    with arrows_by(counting):
        P = product_groupoid(A, B)[0]
    bases = set(P.component_map().values())
    bound = 4 * len(P.morphisms) + sum(len(P.aut(b)) ** 2 for b in bases)
    assert len(P.morphisms) == 6144 and len(P.comp) == 16 ** 3 * 24 ** 2
    assert calls[0] <= bound, (calls[0], bound)


def test_object_reached_from_two_bases_rejected():
    # c is joined both ways to a and to b, but a and b are not joined:
    # every hom-set the bases see has one element, and the arrows
    # between a and c are left joining two components
    mors = [(o, o, 0) for o in "abc"] + [
        ("a", "c", 0), ("c", "a", 0), ("b", "c", 0), ("c", "b", 0)]
    with pytest.raises(FinGroupoidError, match="two components"):
        _arrow_groupoid(tuple("abc"), mors, lambda x, y: 0, lambda o: 0)
