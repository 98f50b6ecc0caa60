"""Finite-groupoid layer: truncations, fibers, five flags at two levels,
factorizations, closure, and the level-0 agreement suite.

Expected flag rows and fiber shapes were worked out by hand from the
composition tables before the implementation ran; counts are frozen.
"""

import itertools
import random

import pytest

from modalfib.fingroupoids import (
    FinGroupoid, FinFunctor, FinGroupoidError, empty_groupoid,
    discrete_groupoid, object_inclusion, hfiber, classify_trunc,
    functor_is_equivalence, essentially_surjective, automorphism_surjective,
    homotopy_pullback, product_groupoid, compare_modalities, nine_way,
    random_groupoid, random_functor, random_functor_into,
)
from modalfib.fingroupoids import _GROUPS, _homs_into, _homs_into_aut
from modalfib.quotients import permutation_group
from modalfib.verdicts import Flag, LevelVerdicts
from reference_homs import all_pairs_homs
from lib_fingroupoids import (connected_groupoid, connecting_functor,
                              factor_connected_modal, factor_equiv_etale,
                              group_groupoid, group_hom_functor,
                              identity_fin_functor, instability_witness,
                              trunc0, trunc_prop)


def row(v):
    """modal/connected/etale/equivalence/fibration as a T/F string."""
    d = v.as_dict()
    return "".join("T" if d[k] == "true" else "F"
                   for k in ("modal", "connected", "etale",
                             "equivalence", "fibration"))


def b2():
    return group_groupoid("c2")


def point_into_b2():
    return object_inclusion(b2(), "o")


def mod2_quotient():
    # one-object groupoids, generator of the 4-element cycle to the flip
    return group_hom_functor("c4", "c2", (1,))


def sign_quotient():
    # 6-element permutation group onto the flip by parity
    return group_hom_functor("s3", "c2", (0, 1))


def flip_inclusion():
    # flip subgroup inside the permutation group, via a transposition
    return group_hom_functor("c2", "s3", ((1, 0, 2),))


def two_points_to_point():
    src = discrete_groupoid(("a", "b"))
    dst = discrete_groupoid(("pt",))
    return FinFunctor(src, dst, {"a": "pt", "b": "pt"},
                      {("id", "a"): ("id", "pt"), ("id", "b"): ("id", "pt")})


def empty_into_b2():
    return FinFunctor(empty_groupoid(), b2(), {}, {})


# ---------------------------------------------------------------------------
# construction and validation

def test_groupoid_validation_rejects_broken_tables():
    g = b2()
    bad_comp = dict(g.comp)
    bad_comp[(("o", 1, "o"), ("o", 1, "o"))] = ("o", 1, "o")  # 1*1 = 1
    with pytest.raises(FinGroupoidError):
        FinGroupoid(g.objects, g.morphisms, g.src, g.dst, bad_comp, g.ident)
    with pytest.raises(FinGroupoidError):
        FinGroupoid(g.objects, g.morphisms, g.src, g.dst, {}, g.ident)
    with pytest.raises(FinGroupoidError):
        FinGroupoid(g.objects, g.morphisms, g.src, g.dst, g.comp, {})


def test_functor_validation_rejects_non_homomorphisms():
    # sending the 3-cycle generator to the flip breaks composition
    with pytest.raises(FinGroupoidError):
        group_hom_functor("c3", "c2", (1,))


def test_homs_from_the_catalog_into_s3_as_a_permutation_group():
    # |Hom(G, S_3)|: the elements of S_3 whose order divides |G| for a
    # cyclic G; commuting pairs of involutions or units for V_4; for S_3
    # the trivial hom, three onto a transposition and six automorphisms
    s3 = permutation_group(3, ((1, 2, 0), (1, 0, 2)))
    counts = {name: len(_homs_into(G, s3.elements, s3.product, s3.identity))
              for name, G in _GROUPS.items()}
    assert counts == {"c1": 1, "c2": 4, "c3": 3, "c4": 4, "v4": 10,
                      "s3": 10}


def test_homs_into_matches_the_all_pairs_reference_in_order():
    # the order of the list decides random_functor_into's rng draws
    s3 = permutation_group(3, ((1, 2, 0), (1, 0, 2)))
    targets = dict(_GROUPS, perm_s3=s3)
    for name, G in _GROUPS.items():
        for tname, H in targets.items():
            args = (G, H.elements, H.product, H.identity)
            assert _homs_into(*args) == all_pairs_homs(*args), (name, tname)
        for tname in _GROUPS:
            T = group_groupoid(tname)
            els = T.aut("o")
            compose = lambda a, b: T.comp[(a, b)]
            assert _homs_into_aut(name, T, "o") == all_pairs_homs(
                G, els, compose, T.ident["o"]), (name, tname)


def test_respects_names_the_first_pair_that_breaks_the_law():
    # the image 1 of c4's generator, carried into c3 along the words:
    # the law holds at (0, 1), (1, 1) and (2, 1) and fails at (3, 1),
    # where 3 + 1 = 0 in c4 but 0 + 1 = 1 in c3
    c4, c3 = _GROUPS["c4"], _GROUPS["c3"]
    phi = c4.extend((1,), c3.product, c3.identity)
    assert phi == {0: 0, 1: 1, 2: 2, 3: 0}
    assert c4.respects(phi, lambda x, y, z: c3.product(x, y) == z) == (3, 1)
    assert _homs_into(c4, c3.elements, c3.product, c3.identity) == [
        {0: 0, 1: 0, 2: 0, 3: 0}]


def test_inverses_are_cached():
    g = group_groupoid("c4")
    m = ("o", 1, "o")
    assert g.inv[m] == ("o", 3, "o")
    assert g.comp[(m, g.inv[m])] == g.ident["o"]


# ---------------------------------------------------------------------------
# truncations

def test_trunc0_of_discrete_is_identity_shaped():
    g = discrete_groupoid(("a", "b", "c"))
    t, unit = trunc0(g)
    assert t.objects == g.objects
    assert all(unit.obj_map[o] == o for o in g.objects)


def test_trunc0_of_one_object_group_is_point():
    t, unit = trunc0(b2())
    assert len(t.objects) == 1
    assert len(t.morphisms) == 1
    p, punit = trunc_prop(b2())
    assert len(p.objects) == 1


def test_trunc0_merges_isomorphic_objects_only():
    # two isomorphic objects plus an isolated one: two classes; "xy" is
    # the one morphism x -> y
    objs, mors = "abc", ("aa", "ab", "ba", "bb", "cc")
    comp = {(p, q): p[0] + q[1] for p in mors for q in mors if p[1] == q[0]}
    g = FinGroupoid(objs, mors, {m: m[0] for m in mors},
                    {m: m[1] for m in mors}, comp, {o: o + o for o in objs})
    t, unit = trunc0(g)
    assert len(t.objects) == 2
    assert unit.obj_map["a"] == unit.obj_map["b"]
    assert unit.obj_map["c"] != unit.obj_map["a"]


def test_trunc_prop_of_empty_is_empty():
    t, unit = trunc_prop(empty_groupoid())
    assert t.objects == ()


# ---------------------------------------------------------------------------
# fibers, shapes frozen from the tables

def test_fiber_of_identity_is_contractible():
    fib = hfiber(identity_fin_functor(b2()), "o")
    assert len(fib.objects) == 2
    assert len(fib.morphisms) == 4
    assert len(set(fib.component_map().values())) == 1
    assert all(len(fib.aut(o)) == 1 for o in fib.objects)


def test_fiber_of_point_inclusion_is_two_point_discrete():
    fib = hfiber(point_into_b2(), "o")
    assert len(fib.objects) == 2
    assert len(fib.morphisms) == 2
    assert all(m == fib.ident[fib.src[m]] for m in fib.morphisms)


def test_fiber_of_mod2_quotient():
    # two objects, every hom-set the size of the kernel, connected
    fib = hfiber(mod2_quotient(), "o")
    assert len(fib.objects) == 2
    assert len(fib.morphisms) == 8
    assert len(set(fib.component_map().values())) == 1
    for a in fib.objects:
        for c in fib.objects:
            assert len(fib.hom(a, c)) == 2


def test_fiber_of_flip_inclusion_has_three_cosets():
    fib = hfiber(flip_inclusion(), "o")
    assert len(fib.objects) == 6
    assert len(fib.morphisms) == 12
    assert len(set(fib.component_map().values())) == 3
    assert all(len(fib.aut(o)) == 1 for o in fib.objects)


def test_fiber_rejects_unknown_base():
    with pytest.raises(FinGroupoidError):
        hfiber(point_into_b2(), "nope")


# ---------------------------------------------------------------------------
# classification rows, both levels

def test_classification_rows():
    cases = [
        (identity_fin_functor(b2()), "TTTTT", "TTTTT"),
        (point_into_b2(), "TFFTF", "FTFTT"),
        (mod2_quotient(), "FTFTT", "FTFTT"),
        (sign_quotient(), "FTFTT", "FTFTT"),
        (flip_inclusion(), "TFFTF", "FTFTT"),
        (two_points_to_point(), "TFTFT", "FTFTT"),
        (empty_into_b2(), "TFTFT", "TFTFT"),
    ]
    for F, want0, want_prop in cases:
        assert row(classify_trunc(F, 0)) == want0
        assert row(classify_trunc(F, -1)) == want_prop


def test_classify_rejects_other_levels():
    with pytest.raises(FinGroupoidError):
        classify_trunc(point_into_b2(), 1)


def test_surjectivity_criterion_on_fixtures():
    # for a surjective functor, being a level-0 fibration is exactly
    # surjectivity on automorphism groups
    for F in (mod2_quotient(), sign_quotient(), point_into_b2()):
        assert essentially_surjective(F)
        assert classify_trunc(F, 0).fibration.is_true \
            == automorphism_surjective(F)


# ---------------------------------------------------------------------------
# factorizations

def test_factorization_of_point_inclusion():
    F = point_into_b2()
    mid_cm, l1, r1 = factor_connected_modal(F, 0)
    mid_ee, l2, r2 = factor_equiv_etale(F, 0)
    # collapsed-fiber middle: contractible on two objects
    assert len(mid_cm.objects) == 2
    assert len(mid_cm.morphisms) == 4
    assert len(set(mid_cm.component_map().values())) == 1
    assert all(len(mid_cm.aut(o)) == 1 for o in mid_cm.objects)
    # class middle: one object carrying the full flip group
    assert len(mid_ee.objects) == 1
    assert len(mid_ee.morphisms) == 2
    # the middles disagree, certifying the fibration flag
    assert not functor_is_equivalence(connecting_functor(F, 0))
    assert classify_trunc(F, 0).fibration.value == "false"


def test_factorization_of_two_points_to_point():
    F = two_points_to_point()
    for factor in (factor_connected_modal, factor_equiv_etale):
        mid, left, right = factor(F, 0)
        assert len(mid.objects) == 2
        assert len(mid.morphisms) == 2
    assert functor_is_equivalence(connecting_functor(F, 0))


def test_factorizations_on_random_corpus():
    # the factor operations verify recomposition and their own flags
    # internally; here we add the connecting-functor criterion
    rng = random.Random(31)
    for _ in range(40):
        F = random_functor(rng, max_objects=4, max_morphisms=16)
        for level in (0, -1):
            factor_connected_modal(F, level)
            factor_equiv_etale(F, level)
            want = classify_trunc(F, level).fibration.is_true
            got = functor_is_equivalence(connecting_functor(F, level))
            assert got == want


# ---------------------------------------------------------------------------
# fiber tables against the lightweight routes

def test_fiber_tables_match_component_routes():
    rng = random.Random(17)
    for _ in range(15):
        F = random_functor(rng, max_objects=4, max_morphisms=16)
        for y in F.target.objects:
            gpd = hfiber(F, y)
            light = F._fiber_classes[y][0]
            # same classes and the same least representative in each
            assert gpd.component_map() == light


# ---------------------------------------------------------------------------
# flag identities and the agreement suite

def test_flag_identities_on_random_corpus():
    rng = random.Random(5)
    for _ in range(120):
        F = random_functor(rng)
        for level in (0, -1):
            v = classify_trunc(F, level)
            assert v.etale.is_true \
                == (v.modal.is_true and v.fibration.is_true)
            assert v.connected.is_true \
                == (v.equivalence.is_true and v.fibration.is_true)


def test_nine_way_agreement_on_random_corpus():
    rng = random.Random(42)
    seen_true = seen_false = 0
    for _ in range(300):
        F = random_functor(rng)
        rep = nine_way(F, rng)
        assert rep["agree"]
        assert rep["connecting_ok"]
        if rep["gamma_equivalence"]:
            seen_true += 1
        else:
            seen_false += 1
    # the corpus must exercise both outcomes
    assert seen_true > 20
    assert seen_false > 20


def test_nine_way_rows_on_fixtures():
    rep = nine_way(mod2_quotient())
    assert rep["agree"] and rep["gamma_equivalence"]
    assert rep["surjective"] and rep["loop_surjectivity"]
    rep = nine_way(point_into_b2())
    assert rep["agree"] and not rep["gamma_equivalence"]
    assert rep["surjective"] and rep["loop_surjectivity"] is False


# ---------------------------------------------------------------------------
# closure and projections

def test_pullback_closure_of_fibrations():
    rng = random.Random(3)
    done = 0
    while done < 10:
        F = random_functor(rng, max_objects=4, max_morphisms=16)
        if not classify_trunc(F, 0).fibration.is_true:
            continue
        G = random_functor_into(rng, F.target, max_objects=2,
                                max_morphisms=8)
        P, p1, p2 = homotopy_pullback(F, G)
        assert classify_trunc(p2, 0).fibration.is_true
        done += 1


def test_composite_closure_of_fibrations():
    rng = random.Random(13)
    done = 0
    while done < 10:
        F = random_functor(rng, max_objects=4, max_morphisms=12)
        if not classify_trunc(F, 0).fibration.is_true:
            continue
        A = random_groupoid(rng, max_objects=2, max_morphisms=8)
        P, fst, snd = product_groupoid(F.source, A)
        comp = fst.compose(F)
        assert classify_trunc(comp, 0).fibration.is_true
        done += 1


def test_projections_are_fibrations_at_both_levels():
    rng = random.Random(9)
    for _ in range(12):
        A = random_groupoid(rng, max_objects=3, max_morphisms=12)
        B = random_groupoid(rng, max_objects=3, max_morphisms=12)
        P, fst, snd = product_groupoid(A, B)
        for level in (0, -1):
            assert classify_trunc(fst, level).fibration.is_true
            assert classify_trunc(snd, level).fibration.is_true


# ---------------------------------------------------------------------------
# stability and instability of equivalences under pullback

def test_equivalences_pull_back_along_fibrations():
    F = mod2_quotient()                       # a fibration
    src = connected_groupoid(("a", "b"), "c2")
    G = FinFunctor(src, F.target,
                   {"a": "o", "b": "o"},
                   {m: ("o", m[1], "o") for m in src.morphisms})
    assert functor_is_equivalence(G)
    P, p1, p2 = homotopy_pullback(F, G)
    assert functor_is_equivalence(p1)
    assert classify_trunc(p1, 0).equivalence.is_true


def test_equivalences_do_not_pull_back_in_general():
    w = instability_witness()
    assert w["bottom_is_equivalence"]
    assert not w["top_is_equivalence"]
    P = w["pullback"]
    assert len(P.objects) == 2
    assert len(set(P.component_map().values())) == 2
    # the non-fibration leg is exactly the point inclusion
    assert classify_trunc(w["bottom"], 0).fibration.value == "false"


# ---------------------------------------------------------------------------
# comparing the two levels

def test_comparison_implications_on_random_corpus():
    rng = random.Random(12)
    for _ in range(120):
        F = random_functor(rng)
        assert compare_modalities(F)["all_hold"]


def test_comparison_report_shape():
    rep = compare_modalities(mod2_quotient())
    assert set(rep) == {
        "modal_ascends", "etale_ascends", "equivalence_descends",
        "connected_descends", "fibration_transfers", "all_hold"}
    assert rep["fibration_transfers"]["premise"]
    assert rep["fibration_transfers"]["conclusion"]


def shadow_fibration(F):
    """Whether the discrete shadow trunc0(F) is a fibration at level -1,
    by building it: trunc0 of both sides, the functor between them, and
    its classification."""
    t0, _ = trunc0(F.source)
    t0y, _ = trunc0(F.target)
    ycm = F.target.component_map()
    shadow = FinFunctor(
        t0, t0y, {c: ycm[F.obj_map[c]] for c in t0.objects},
        {m: t0y.ident[ycm[F.obj_map[m[1]]]] for m in t0.morphisms})
    return classify_trunc(shadow, -1).fibration.is_true


def test_fibration_premise_matches_the_built_shadow():
    rng = random.Random(26)
    fired = set()
    functors = [random_functor(rng) for _ in range(1000)]
    # an empty source, and a point that misses a target component
    functors.append(empty_into_b2())
    misses = object_inclusion(discrete_groupoid(("a", "b")), "a")
    functors.append(misses)
    for F in functors:
        hi = classify_trunc(F, 0)
        premise = compare_modalities(F)["fibration_transfers"]["premise"]
        shadow = shadow_fibration(F)
        assert premise == (hi.fibration.is_true and shadow)
        # the shadow's flag is F's own level -1 flag: the premise
        # contains the conclusion
        assert shadow == classify_trunc(F, -1).fibration.is_true
        fired.add(premise)
    assert fired == {True, False}
    assert compare_modalities(functors[-2])["fibration_transfers"]["premise"]
    assert classify_trunc(misses, 0).fibration.is_true
    assert not shadow_fibration(misses)


def test_compare_modalities_builds_no_functor(monkeypatch):
    rng = random.Random(27)
    functors = [random_functor(rng) for _ in range(50)]
    built = []
    for cls in (FinGroupoid, FinFunctor):
        init = cls.__post_init__

        def counted(self, init=init):
            built.append(type(self).__name__)
            init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for F in functors:
        compare_modalities(F)
    assert built == []
    # the count sees a functor that is built
    identity_fin_functor(functors[0].source)
    assert built == ["FinFunctor"]


def test_surjective_criterion_on_random_corpus():
    rng = random.Random(20)
    hits = 0
    for _ in range(150):
        F = random_functor(rng)
        if essentially_surjective(F):
            hits += 1
            assert classify_trunc(F, 0).fibration.is_true \
                == automorphism_surjective(F)
    assert hits > 50


def test_table_level_verdicts_are_shared_records():
    # the table layer returns one of 32 shared records, keyed by the five
    # booleans; a record built field by field reads the same
    names = ("modal", "connected", "etale", "equivalence", "fibration")
    for bits in itertools.product((False, True), repeat=5):
        v = LevelVerdicts.of(*bits)
        assert v is LevelVerdicts.of(*bits)
        assert v == LevelVerdicts(*map(Flag.of, bits))
        assert [getattr(v, n).is_true for n in names] == list(bits)
    rng = random.Random(27)
    seen = {}
    for _ in range(300):
        F = random_functor(rng)
        for level in (0, -1):
            v = classify_trunc(F, level)
            bits = tuple(getattr(v, n).is_true for n in names)
            assert seen.setdefault(bits, v) is v
            assert v.as_dict() \
                == LevelVerdicts(*map(Flag.of, bits)).as_dict()
    assert len(seen) > 4
