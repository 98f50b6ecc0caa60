"""Table validation against the full scans it replaces.

FinGroupoid proves associativity by a normal-form certificate and
FinFunctor checks composition on the source's generating set; the
references below are the plain scans over every composable triple and
every composable pair.  Both must accept the same tables and reject every
single-entry corruption of a valid one: a changed composite or image, an
identity swapped for another automorphism, a dropped entry or an extra
one on a pair that does not compose.  The memoized catalog assemblies
must equal fresh ones and leave the rng stream as it was, and the cached
component map must equal a fresh union-find.  `object_inclusion` and
`full_subgroupoid` name the first object that is not in the groupoid.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from modalfib import fingroupoids
from modalfib.fingroupoids import (
    FinFunctor, FinGroupoid, FinGroupoidError, _assemble_blocks,
    _build_blocks, connected_groupoid, full_subgroupoid, group_groupoid,
    group_hom_functor, hfiber, homotopy_pullback, nine_way,
    object_inclusion, product_groupoid, random_functor,
    random_functor_into, random_groupoid,
)
from reference_catalog import ref_build_blocks
from reference_union_find import UnionFind


# ---------------------------------------------------------------------------
# reference scans

def triple_scan(objects, morphisms, src, dst, comp, ident):
    """Groupoid laws by exhaustion: typing, units, every composable
    triple, then a two-sided inverse for every morphism."""
    mset = set(morphisms)
    for m in morphisms:
        if src.get(m) not in objects or dst.get(m) not in objects:
            raise FinGroupoidError("bad endpoints")
    for o in objects:
        i = ident.get(o)
        if i not in mset or src[i] != o or dst[i] != o:
            raise FinGroupoidError("no identity")
    pairs = [(p, q) for p in morphisms for q in morphisms if dst[p] == src[q]]
    if len(comp) != len(pairs):
        raise FinGroupoidError("wrong size")
    for (p, q), k in comp.items():
        if p not in mset or q not in mset or dst[p] != src[q]:
            raise FinGroupoidError("not composable")
        if k not in mset or src[k] != src[p] or dst[k] != dst[q]:
            raise FinGroupoidError("ill-typed")
    for m in morphisms:
        if comp[(ident[src[m]], m)] != m or comp[(m, ident[dst[m]])] != m:
            raise FinGroupoidError("unit law")
    for (p, q), pq in comp.items():
        for k in morphisms:
            if src[k] == dst[q] and comp[(pq, k)] != comp[(p, comp[(q, k)])]:
                raise FinGroupoidError("associativity")
    for m in morphisms:
        if not any(comp[(m, w)] == ident[src[m]]
                   and comp[(w, m)] == ident[dst[m]]
                   for w in morphisms
                   if src[w] == dst[m] and dst[w] == src[m]):
            raise FinGroupoidError("no inverse")


def pair_scan(S, T, obj_map, mor_map):
    """Functor laws by exhaustion: typing, identities, and every
    composable pair of the source."""
    for m in S.morphisms:
        w = mor_map.get(m)
        if w not in T.src or T.src[w] != obj_map[S.src[m]] \
                or T.dst[w] != obj_map[S.dst[m]]:
            raise FinGroupoidError("ill-typed")
    for o in S.objects:
        if mor_map[S.ident[o]] != T.ident[obj_map[o]]:
            raise FinGroupoidError("identity")
    for (g, h), k in S.comp.items():
        if T.comp[(mor_map[g], mor_map[h])] != mor_map[k]:
            raise FinGroupoidError("composition")


def verdict(check, *args):
    try:
        check(*args)
    except FinGroupoidError:
        return False
    return True


def tables(g):
    return g.objects, g.morphisms, g.src, g.dst, g.comp, g.ident


def fresh_component_map(g):
    uf = UnionFind(g.objects)
    for m in g.morphisms:
        uf.union(g.src[m], g.dst[m])
    return uf.least()


# ---------------------------------------------------------------------------
# table sources: catalog assemblies, products and pullbacks

def sample_groupoid(kind, rng):
    if kind == "random":
        return random_groupoid(rng, max_objects=4, max_morphisms=12)
    if kind == "product":
        A = random_groupoid(rng, max_objects=2, max_morphisms=4)
        B = random_groupoid(rng, max_objects=2, max_morphisms=4)
        return product_groupoid(A, B)[0]
    if kind == "fiber":
        F = random_functor(rng, max_objects=3, max_morphisms=8)
        return hfiber(F, rng.choice(F.target.objects))
    F = random_functor(rng, max_objects=2, max_morphisms=4)
    G = random_functor_into(rng, F.target, max_objects=2, max_morphisms=4)
    return homotopy_pullback(F, G)[0]


def sample_functor(kind, rng):
    if kind == "random":
        return random_functor(rng, max_objects=4, max_morphisms=12)
    if kind == "product":
        F = random_functor(rng, max_objects=2, max_morphisms=6)
        A = random_groupoid(rng, max_objects=2, max_morphisms=4)
        return product_groupoid(F.source, A)[1].compose(F)
    F = random_functor(rng, max_objects=2, max_morphisms=4)
    G = random_functor_into(rng, F.target, max_objects=2, max_morphisms=4)
    return homotopy_pullback(F, G)[2]


KINDS = st.sampled_from(["random", "product", "fiber", "pullback"])


# ---------------------------------------------------------------------------
# the certificate against the triple scan

@settings(max_examples=30, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_certificate_matches_triple_scan(kind, seed):
    rng = random.Random(seed)
    g = sample_groupoid(kind, rng)
    triple_scan(*tables(g))
    assert FinGroupoid(*tables(g)).inv == g.inv
    hom = {}
    for m in g.morphisms:
        hom.setdefault((g.src[m], g.dst[m]), []).append(m)
    # every entry of a small table; a seeded sample of a large one
    entries = list(g.comp)
    if len(entries) > 128:
        entries = rng.sample(entries, 128)
    for pair in entries:
        # the next morphism of the same hom-set keeps every entry well
        # typed, so only the laws can refuse it; a one-element hom-set
        # leaves only an ill-typed replacement
        k = g.comp[pair]
        same = hom[(g.src[k], g.dst[k])]
        alt = same[(same.index(k) + 1) % len(same)]
        if alt == k:
            alt = next((m for m in g.morphisms if m != k), None)
            if alt is None:
                continue
        bad = dict(g.comp)
        bad[pair] = alt
        corrupted = (g.objects, g.morphisms, g.src, g.dst, bad, g.ident)
        assert not verdict(triple_scan, *corrupted), pair
        assert not verdict(FinGroupoid, *corrupted), pair


@settings(max_examples=30, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_certificate_rejects_swapped_identities_and_wrong_domains(kind, seed):
    rng = random.Random(seed)
    g = sample_groupoid(kind, rng)
    objects, morphisms, src, dst, comp, ident = tables(g)
    comp = dict(comp)
    corrupted = []
    # each identity swapped for another automorphism of its object
    for o in objects:
        alt = next((m for m in g.aut(o) if m != ident[o]), None)
        if alt is not None:
            corrupted.append((comp, {**ident, o: alt}))
    # one entry dropped
    if comp:
        dropped = dict(comp)
        del dropped[rng.choice(list(comp))]
        corrupted.append((dropped, ident))
    # one extra entry on a pair that does not compose
    loose = next(((p, q) for p in morphisms for q in morphisms
                  if dst[p] != src[q]), None)
    if loose is not None:
        corrupted.append(({**comp, loose: loose[0]}, ident))
    for bad_comp, bad_ident in corrupted:
        args = (objects, morphisms, src, dst, bad_comp, bad_ident)
        assert not verdict(triple_scan, *args)
        assert not verdict(FinGroupoid, *args)


def test_certificate_rejects_non_associative_loop():
    # the smallest loop that is not a group: a Latin square on 0..4 with
    # unit 0 and x;x = 0, so units, inverses and, with the identity as
    # the tree arrow, the vertex-group transport all pass; only Light's
    # test sees that (1;2);2 = 4 while 1;(2;2) = 1
    rows = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    comp = {(x, y): rows[x][y] for x in range(5) for y in range(5)}
    loops = dict.fromkeys(range(5), "o")
    args = (("o",), tuple(range(5)), loops, loops, comp, {"o": 0})
    assert not verdict(triple_scan, *args)
    with pytest.raises(FinGroupoidError, match="associativity"):
        FinGroupoid(*args)


def test_certificate_rejects_unequal_hom_sets():
    # a two-element vertex group at a, a trivial one at b, one arrow each
    # way: typing, units and inverses hold, (p;f);g = 1_a but p;(f;g) = p
    src = {"ia": "a", "p": "a", "ib": "b", "f": "a", "g": "b"}
    dst = {"ia": "a", "p": "a", "ib": "b", "f": "b", "g": "a"}
    comp = {("ia", "ia"): "ia", ("ia", "p"): "p", ("p", "ia"): "p",
            ("p", "p"): "ia", ("ia", "f"): "f", ("p", "f"): "f",
            ("f", "ib"): "f", ("ib", "ib"): "ib", ("ib", "g"): "g",
            ("g", "ia"): "g", ("g", "p"): "g", ("f", "g"): "ia",
            ("g", "f"): "ib"}
    args = (("a", "b"), tuple(src), src, dst, comp, {"a": "ia", "b": "ib"})
    assert not verdict(triple_scan, *args)
    with pytest.raises(FinGroupoidError, match="hom"):
        FinGroupoid(*args)


# ---------------------------------------------------------------------------
# the generator check against the pair scan

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["random", "product", "pullback"]),
       st.integers(0, 2 ** 32))
def test_generator_check_matches_pair_scan(kind, seed):
    rng = random.Random(seed)
    F = sample_functor(kind, rng)
    S, T = F.source, F.target
    pair_scan(S, T, F.obj_map, F.mor_map)
    for m in S.morphisms:
        for w in T.hom(F.obj_map[S.src[m]], F.obj_map[S.dst[m]]):
            if w == F.mor_map[m]:
                continue
            mm = dict(F.mor_map)
            mm[m] = w
            assert verdict(FinFunctor, S, T, F.obj_map, mm) \
                == verdict(pair_scan, S, T, F.obj_map, mm), (m, w)


def test_corrupted_mor_map_entry_rejected():
    # the generator of the 4-cycle onto the flip; moving the image of
    # the element 2 off the identity breaks 1;1 = 2
    F = group_hom_functor("c4", "c2", (1,))
    mm = dict(F.mor_map)
    mm[("o", 2, "o")] = ("o", 1, "o")
    assert not verdict(pair_scan, F.source, F.target, F.obj_map, mm)
    with pytest.raises(FinGroupoidError):
        FinFunctor(F.source, F.target, F.obj_map, mm)


# ---------------------------------------------------------------------------
# caches

@settings(max_examples=40, deadline=None)
@given(KINDS, st.integers(0, 2 ** 32))
def test_component_map_matches_fresh_union_find(kind, seed):
    g = sample_groupoid(kind, random.Random(seed))
    cm = g.component_map()
    ref = fresh_component_map(g)
    assert cm == ref
    assert list(cm) == list(ref)


def test_catalog_memo_keeps_tables_and_rng_stream(monkeypatch):
    drawn = []
    real = fingroupoids._random_blocks

    def recording(*args):
        blocks = real(*args)
        drawn.append(blocks)
        return blocks
    monkeypatch.setattr(fingroupoids, "_random_blocks", recording)

    rng = random.Random(2024)
    digest = hashlib.sha256()
    for i in range(60):
        drawn.clear()
        F = random_functor(rng)
        G = random_functor_into(rng, F.target, max_objects=2,
                                max_morphisms=8)
        A = random_groupoid(rng, max_objects=2, max_morphisms=8)
        if i % 10 == 0:
            nine_way(F, rng)
        got = (F.target, F.source, G.source, A)
        for blocks, g in zip(drawn, got):
            assert g == _build_blocks(blocks)
            assert _assemble_blocks(list(blocks))[0] is g
        # each int id decoded to the (a, g, b) triple it is numbered after
        y, x, w, a = (ref_build_blocks(b).morphisms for b in drawn[:4])
        digest.update(repr((
            F.obj_map, {x[m]: y[n] for m, n in F.mor_map.items()},
            G.obj_map, {w[m]: y[n] for m, n in G.mor_map.items()},
            tuple(a[m] for m in A.morphisms))).encode())
    # both digests were recorded from the same stream before the memo, on
    # triple ids
    assert digest.hexdigest() == (
        "ae3916289650b4843eda653cd93384dbd1ba009b212b3f7577e4f4977b91c48c")
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
        "0f9692b19d1d3be3ced1b32ab12ea5262a2128eb982e2f7badfbf42e0e83dd1f")


# ---------------------------------------------------------------------------
# API checks that are raises, not asserts

@pytest.mark.parametrize("call", [
    "identity_fin_functor(discrete_groupoid('ab')).compose("
    "identity_fin_functor(discrete_groupoid('abc')))",
    "homotopy_pullback(object_inclusion(group_groupoid('c2'), 'o'), "
    "object_inclusion(group_groupoid('c3'), 'o'))",
])
def test_mismatched_functors_rejected_without_asserts(call, run_optimized):
    run = run_optimized(
        "from modalfib.fingroupoids import *\n"
        "try:\n    %s\nexcept FinGroupoidError:\n    print('rejected')\n"
        % call)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"


def test_generators_reject_bounds_below_one_before_drawing(run_optimized):
    # no block fits such a bound, so the draw loop would never end; the
    # timeout fails the test here instead of hanging it
    run = run_optimized(
        "import random\n"
        "from modalfib.fingroupoids import *\n"
        "for gen, bound in ((random_groupoid, 'max_objects'),\n"
        "                   (random_functor, 'max_morphisms')):\n"
        "    rng = random.Random(0)\n"
        "    try:\n        gen(rng, **{bound: 0})\n"
        "    except FinGroupoidError as e:\n"
        "        print(e, rng.getstate() == random.Random(0).getstate())\n",
        timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == ("max_objects must be at least 1, got 0 True\n"
                          "max_morphisms must be at least 1, got 0 True\n")


def test_functor_rejects_foreign_keys():
    g = group_groupoid("c2")
    ident = {m: m for m in g.morphisms}
    with pytest.raises(FinGroupoidError, match="object 'zzz' not in source"):
        FinFunctor(g, g, {"o": "o", "zzz": "o"}, ident)
    with pytest.raises(FinGroupoidError,
                       match="morphism 'junk' not in source"):
        FinFunctor(g, g, {"o": "o"}, {**ident, "junk": g.ident["o"]})


def test_functor_rejects_foreign_keys_without_asserts(run_optimized):
    run = run_optimized(
        "from modalfib.fingroupoids import *\n"
        "g = group_groupoid('c2')\n"
        "ident = {m: m for m in g.morphisms}\n"
        "for omap, mmap in (({'o': 'o', 'zzz': 'o'}, ident),\n"
        "                   ({'o': 'o'}, {**ident, 'junk': g.ident['o']})):\n"
        "    try:\n        FinFunctor(g, g, omap, mmap)\n"
        "    except FinGroupoidError as e:\n        print(e)\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout == ("object 'zzz' not in source\n"
                          "morphism 'junk' not in source\n")


def test_object_inclusion_rejects_a_foreign_object():
    with pytest.raises(FinGroupoidError, match="object 'zzz' not in groupoid"):
        object_inclusion(group_groupoid("c2"), "zzz")


def test_full_subgroupoid_rejects_objects_outside_the_groupoid():
    g = connected_groupoid((0, 1, 2), "c3")
    with pytest.raises(FinGroupoidError, match="object 'zzz' not in groupoid"):
        full_subgroupoid(g, ["zzz"])
    # the first foreign object in the order given is named
    with pytest.raises(FinGroupoidError, match="object 'yy' not in groupoid"):
        full_subgroupoid(g, iter([2, "yy", 0, "zzz"]))


def test_foreign_objects_rejected_without_asserts(run_optimized):
    run = run_optimized(
        "from modalfib.fingroupoids import *\n"
        "g = group_groupoid('c2')\n"
        "for call in (lambda: object_inclusion(g, 'zzz'),\n"
        "             lambda: full_subgroupoid(g, ['o', 'zzz'])):\n"
        "    try:\n        call()\n"
        "    except FinGroupoidError as e:\n        print(e)\n"
        "    else:\n        print('accepted')\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout == ("object 'zzz' not in groupoid\n" * 2)


@pytest.mark.parametrize("keep", [(), (2,), (2, 0), (0, 1, 2)])
def test_full_subgroupoid_keeps_every_morphism_between_its_objects(keep):
    g = connected_groupoid((0, 1, 2), "s3")
    h = full_subgroupoid(g, iter(keep))
    assert h.objects == tuple(sorted(keep))
    assert h.morphisms == tuple(m for m in g.morphisms
                                if g.src[m] in keep and g.dst[m] in keep)
    for a in keep:
        assert h.ident[a] == g.ident[a]
        for b in keep:
            assert h.hom(a, b) == g.hom(a, b)
            for p in h.hom(a, b):
                for c in keep:
                    for q in h.hom(b, c):
                        assert h.comp[(p, q)] == g.comp[(p, q)]
    assert h.component_map() == {o: min(keep) for o in keep}
