"""Free-group words and subgroup automata.

Membership gets two independent oracles: bounded products of generators
certify members directly, and permutation actions decide stabilizer
membership exactly in both directions.
"""

import random
import time
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from modalfib.words import reduce_word, mul, inv, conj, Unknown
from modalfib import automata
from modalfib.automata import SubgroupAutomaton
from reference_union_find import UnionFind
from lib_automata import conjugate_by, subgroup_equal
from lib_corpus import random_permutation, random_words
from lib_words import (conjugacy_witness, cyclic_reduce, is_cyclically_reduced,
                       power, primitive_root, solve_simultaneous_conjugacy)

letters2 = st.tuples(st.integers(0, 1), st.sampled_from((-1, +1)))
letters3 = st.tuples(st.integers(0, 2), st.sampled_from((-1, +1)))
raw_words = st.lists(letters2, max_size=10).map(tuple)


# ---------------------------------------------------------------------------
# Word laws.

@given(raw_words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    for (g1, s1), (g2, s2) in zip(r, r[1:]):
        assert not (g1 == g2 and s1 == -s2)


@given(raw_words, raw_words, raw_words)
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(raw_words)
def test_inverse_cancels(w):
    assert mul(w, inv(w)) == ()
    assert mul(inv(w), w) == ()
    assert inv(inv(w)) == tuple(w)
    assert reduce_word(inv(w)) == inv(reduce_word(w))


@given(raw_words, raw_words)
def test_conj_is_hom(p, w):
    assert conj(p, ()) == ()
    assert conj(p, mul(w, w)) == mul(conj(p, w), conj(p, w))


@given(raw_words)
def test_cyclic_reduce_reassembles(w):
    core, pre = cyclic_reduce(w)
    assert is_cyclically_reduced(core)
    assert mul(pre, core, inv(pre)) == reduce_word(w)


def test_primitive_root_cases():
    a, b = (0, +1), (1, +1)
    w = (a, b, a, b, a, b)
    r, k = primitive_root(w)
    assert r == (a, b) and k == 3
    r, k = primitive_root((a,))
    assert r == (a,) and k == 1
    r, k = primitive_root((a, b))
    assert k == 1


@pytest.mark.parametrize("word", ["()", "((0, 1), (1, 1), (0, -1))"])
def test_primitive_root_rejects_bad_words_without_asserts(word, run_optimized):
    # the empty word and a word that is not cyclically reduced
    run = run_optimized(
        "from lib_words import primitive_root\n"
        "try:\n    primitive_root(%s)\n"
        "except ValueError:\n    print('rejected')\n" % word)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"


def brute_conjugate(a, b, max_len=4):
    """Search all short words for a witness h^-1 a h == b."""
    alphabet = [(0, +1), (0, -1), (1, +1), (1, -1)]
    frontier = [()]
    for _ in range(max_len + 1):
        nxt = []
        for h in frontier:
            if mul(inv(h), a, h) == reduce_word(b):
                return h
            for l in alphabet:
                if h and h[-1] == (l[0], -l[1]):
                    continue
                nxt.append(h + (l,))
        frontier = nxt
    return None


def test_conjugacy_witness_positive():
    rng = random.Random(201)
    for _ in range(80):
        w = random_words(rng, 2, 1, 6)[0]
        p = random_words(rng, 2, 1, 4)[0]
        a = conj(p, w)
        h = conjugacy_witness(a, w)
        assert h is not None
        assert mul(inv(h), a, h) == reduce_word(w)


def test_conjugacy_witness_negative_by_abelianization():
    rng = random.Random(202)
    checked = 0
    for _ in range(120):
        a = random_words(rng, 2, 1, 5)[0]
        b = random_words(rng, 2, 1, 5)[0]

        def abel(w):
            e = [0, 0]
            for g, s in w:
                e[g] += s
            return tuple(e)

        if abel(a) != abel(b):
            assert conjugacy_witness(a, b) is None
            checked += 1
    assert checked > 20


def test_conjugacy_witness_agrees_with_brute_force():
    rng = random.Random(203)
    for _ in range(60):
        a = random_words(rng, 2, 1, 4)[0]
        b = random_words(rng, 2, 1, 4)[0]
        brute = brute_conjugate(a, b)
        smart = conjugacy_witness(a, b)
        if brute is not None:
            assert smart is not None
        if smart is not None:
            assert mul(inv(smart), a, smart) == reduce_word(b)


def test_simultaneous_conjugacy_positive():
    rng = random.Random(204)
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = random_words(rng, 2, n, 5)
        h = random_words(rng, 2, 1, 5)[0]
        pairs = [(a, mul(inv(h), a, h)) for a in gens]
        got = solve_simultaneous_conjugacy(pairs)
        assert got is not None and not isinstance(got, Unknown)
        for a, b in pairs:
            assert mul(inv(got), a, got) == reduce_word(b)


def test_simultaneous_conjugacy_negative():
    x = ((0, +1),)
    y = ((1, +1),)
    # each pair solvable alone, but the solution sets miss each other:
    # the first forces h into the powers of x, the second needs a word
    # ending in y x y up to the centralizer of y.
    w = mul(y, x, y)
    pairs = [(x, x), (y, mul(inv(w), y, w))]
    assert solve_simultaneous_conjugacy(pairs) is None
    # plainly non-conjugate second coordinate
    assert solve_simultaneous_conjugacy([(x, x), (y, inv(y))]) is None


def test_simultaneous_conjugacy_user_bound_reports_unknown():
    x = ((0, +1),)
    y = ((1, +1),)
    h = power(x, 9)
    pairs = [(x, x), (conj(y, x), mul(inv(h), conj(y, x), h))]
    full = solve_simultaneous_conjugacy(pairs)
    assert full is not None and not isinstance(full, Unknown)
    cut = solve_simultaneous_conjugacy(pairs, max_power=1)
    assert isinstance(cut, Unknown) or cut is not None


# ---------------------------------------------------------------------------
# Automata: membership, completeness, rank.

def closure(gens, depth):
    """All reduced products of up to `depth` generator factors."""
    factors = [reduce_word(g) for g in gens] + [inv(g) for g in gens]
    seen = {()}
    frontier = {()}
    for _ in range(depth):
        nxt = set()
        for w in frontier:
            for f in factors:
                r = mul(w, f)
                if r not in seen:
                    seen.add(r)
                    nxt.add(r)
        frontier = nxt
    return seen


def test_membership_accepts_bounded_closure():
    rng = random.Random(301)
    for _ in range(40):
        gens = random_words(rng, 2, rng.randint(1, 3), 4)
        A = SubgroupAutomaton.from_words((0, 1), gens)
        for w in closure(gens, 4):
            assert A.contains(w), (gens, w)


def test_membership_exact_against_permutation_action():
    # stabilizers decided independently by multiplying permutations
    rng = random.Random(302)
    for _ in range(40):
        n = rng.randint(2, 5)
        perms = {0: random_permutation(rng, n), 1: random_permutation(rng, n)}
        A = SubgroupAutomaton.from_schreier((0, 1), perms, 1)

        def act(w, p):
            for g, s in w:
                table = perms[g]
                if s > 0:
                    p = table[p]
                else:
                    p = next(k for k, v in table.items() if v == p)
            return p

        for w in random_words(rng, 2, 30, 8):
            assert A.contains(w) == (act(w, 1) == 1), (perms, w)


def test_schreier_automaton_complete_with_orbit_index():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.randint(1, 6)
        perms = {0: random_permutation(rng, n), 1: random_permutation(rng, n)}
        A = SubgroupAutomaton.from_schreier((0, 1), perms, 1)
        assert A.complete()
        # orbit of 1 under the group generated by both permutations
        orbit = {1}
        frontier = [1]
        while frontier:
            p = frontier.pop()
            for t in perms.values():
                q = t[p]
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        assert A.index() == len(orbit)
        # Nielsen-Schreier: finite index n in rank 2 gives rank n + 1
        assert A.rank() == len(orbit) + 1


def test_schreier_rejects_non_permutation_without_asserts(run_optimized):
    # 1 and 2 are not reached from 0, so no fold clash can refuse the
    # table; only the permutation check itself can, under python -O too
    run = run_optimized(
        "from modalfib.automata import SubgroupAutomaton\n"
        "try:\n"
        "    SubgroupAutomaton.from_schreier((0,), {0: {0: 0, 1: 0, 2: 1}}, 0)\n"
        "except ValueError:\n    print('rejected')\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"



@pytest.mark.parametrize("letters, perms, basepoint, named", [
    # a letter with no permutation, a basepoint outside the points, a
    # letter whose point set is not the other letters'
    (("a",), {}, 0, "letter 'a' has no permutation"),
    (("a",), {"a": {0: 1, 1: 0}}, 5, "basepoint 5"),
    (("a", "b"), {"a": {0: 1, 1: 0}, "b": {0: 0}}, 0, "letter 'b'"),
    # a key of perms that is not a letter, whatever its value, and with
    # no letters at all
    (("a",), {"a": {0: 0}, "b": {0: 1, 1: 0}, "c": 7}, 0,
     "'b' is not a letter"),
    ((), {"a": {0: 1, 1: 0}}, 99, "'a' is not a letter"),
])
def test_schreier_names_bad_input_without_asserts(letters, perms, basepoint,
                                                  named, run_optimized):
    run = run_optimized(
        "from modalfib.automata import SubgroupAutomaton\n"
        "try:\n"
        "    SubgroupAutomaton.from_schreier(%r, %r, %r)\n"
        "except ValueError as e:\n    print(e)\n"
        % (letters, perms, basepoint))
    assert run.returncode == 0, run.stderr
    assert named in run.stdout

def test_generators_regenerate_same_automaton():
    rng = random.Random(304)
    for _ in range(40):
        gens = random_words(rng, 2, rng.randint(1, 4), 5)
        A = SubgroupAutomaton.from_words((0, 1), gens)
        B = SubgroupAutomaton.from_words((0, 1), A.generators())
        assert A.same(B)
        assert subgroup_equal(A, B)
        assert len(A.generators()) == A.rank()


def test_structural_equality_survives_nielsen_moves():
    rng = random.Random(305)
    for _ in range(30):
        gens = random_words(rng, 2, rng.randint(2, 4), 4)
        A = SubgroupAutomaton.from_words((0, 1), gens)
        moved = list(gens)
        moved[0] = mul(moved[0], moved[1])
        rng.shuffle(moved)
        B = SubgroupAutomaton.from_words((0, 1), moved)
        assert A.same(B)
        assert subgroup_equal(A, B)


def test_distinct_subgroups_differ():
    a = ((0, +1),)
    A1 = SubgroupAutomaton.from_words((0, 1), [a])
    A2 = SubgroupAutomaton.from_words((0, 1), [power(a, 2)])
    assert not A1.same(A2)
    assert not subgroup_equal(A1, A2)
    assert A1.contains(a) and not A2.contains(a)
    assert A2.contains(power(a, 2))


def test_index_two_subgroup():
    a, b = ((0, +1),), ((1, +1),)
    H = SubgroupAutomaton.from_words(
        (0, 1), [power(a, 2), b, mul(a, b, inv(a))])
    assert H.complete()
    assert H.index() == 2
    assert H.rank() == 3
    assert not H.contains(a)
    assert H.contains(mul(a, b, a))


def test_full_group_automaton():
    F = SubgroupAutomaton((0, 1), 1, {(0, 0): 0, (0, 1): 0})
    assert F.complete() and F.index() == 1 and F.rank() == 2
    rng = random.Random(306)
    for w in random_words(rng, 2, 20, 6):
        assert F.contains(w)


def test_conjugate_by_translates_membership():
    rng = random.Random(307)
    for _ in range(30):
        gens = random_words(rng, 2, rng.randint(1, 3), 4)
        w = random_words(rng, 2, 1, 4)[0]
        H = SubgroupAutomaton.from_words((0, 1), gens)
        Hw = conjugate_by(H, w)
        for h in closure(gens, 3):
            assert Hw.contains(mul(inv(w), h, w))
        assert conjugate_by(Hw, inv(w)).same(H)


def test_trivial_and_hanging_tree_cases():
    T = SubgroupAutomaton.from_words((0, 1), [])
    assert T.rank() == 0 and T.n == 1 and not T.complete()
    assert T.contains(())
    assert not T.contains(((0, +1),))
    # a conjugated generator folds through a hanging path, then trims
    a, b = ((0, +1),), ((1, +1),)
    H = SubgroupAutomaton.from_words((0, 1), [mul(a, b, inv(a))])
    assert H.rank() == 1
    assert H.contains(mul(a, b, inv(a)))
    assert not H.contains(b)
    assert not H.contains(a)


@pytest.mark.parametrize("words, number, position", [
    ([(("c", 1), ("a", 1), ("c", -1))], 0, 0),
    ([(("a", 2),)], 0, 0),
    ([(("a", 1), ("b", 1)), (("a", 1), ("b", -1), ("a", -2))], 1, 2),
    ([(("a", 1), ("b", 1)), (("a", 1), ("c", 1), ("b", 1))], 1, 1),
    # letters that free reduction cancels
    ([(("a", 2), ("a", -2))], 0, 0),
    ([(("a", 1),), (("b", 1), ("c", 1), ("c", -1), ("a", 1))], 1, 1),
    # unhashable generators, read by a walk, a middle or no one
    ([((["x"], 1), ("a", 1))], 0, 0),
    ([(("a", 1), ("b", 1)), (("a", 1), ("b", 1), (["x"], 1))], 1, 2),
    ([(("a", 1), (["x"], 1), (["x"], -1))], 0, 1),
    # letters of three entries and of one, first and mid-word
    ([(("a", 1, 2),)], 0, 0),
    ([(("a",),)], 0, 0),
    ([(("a", 1), ("b", 1)), (("a", 1), ("b", 1, 2), ("a", 1))], 1, 1),
    ([(("a", 1), ("b",), ("a", 1))], 0, 1),
])
def test_from_words_rejects_foreign_letters_and_bad_signs(words, number,
                                                          position):
    with pytest.raises(ValueError) as caught:
        SubgroupAutomaton.from_words(("a", "b"), words)
    assert ("word %d, letter %d " % (number, position)) in str(caught.value)


def test_trace_rejects_a_bad_sign():
    H = SubgroupAutomaton.from_words(("a", "b"), [(("a", 1), ("a", 1))])
    for w in ([("a", 2)], [("a", 1), ("a", -2)], [("b", 1), ("a", 2)],
              [("a", 1), ("b", 2), ("b", -2), ("a", 1)]):
        with pytest.raises(ValueError, match="letter"):
            H.contains(w)


def test_trace_rejects_an_unhashable_generator():
    H = SubgroupAutomaton.from_words(("a", "b"), [(("a", 1), ("a", 1))])
    for w in ([(["x"], 1)], [("a", 1), (["x"], 1)],
              [("a", 1), (["x"], 1), (["x"], -1), ("a", 1)]):
        with pytest.raises(ValueError, match="letter"):
            H.trace(w)
    # a list-shaped letter is a letter
    assert H.contains([["a", 1], ("a", 1)])


@pytest.mark.parametrize("call", [
    "SubgroupAutomaton.from_words(('a', 'b'), [(('c', 1), ('a', 1), "
    "('c', -1))])",
    "SubgroupAutomaton.from_words(('a', 'b'), [(('a', 2),)])",
    "SubgroupAutomaton.from_words(('a', 'b'), [(('a', 1),)])"
    ".contains([('a', 2)])",
    "SubgroupAutomaton.from_words(('a',), [(('a', 2), ('a', -2))])",
    "SubgroupAutomaton.from_words(('a', 'b'), [(('a', 1),)])"
    ".contains([('a', 1), ('b', 2), ('b', -2)])",
    "SubgroupAutomaton.from_words(('a', 'b'), [((['x'], 1),)])",
    "SubgroupAutomaton.from_words(('a', 'b'), [(('a', 1),)])"
    ".contains([(['x'], 1)])",
])
def test_bad_letters_rejected_without_asserts(call, run_optimized):
    run = run_optimized(
        "from modalfib.automata import SubgroupAutomaton\n"
        "try:\n    %s\n"
        "except ValueError:\n    print('rejected')\n" % call)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "rejected\n"


@pytest.mark.parametrize("words, number, position", [
    ("[(('a', 1, 2),)]", 0, 0),
    ("[(('a',),)]", 0, 0),
    ("[(('a', 1),), (('a', 1), ('b', 1, 2))]", 1, 1),
    ("[(('a', 1), ('b',), ('a', 1))]", 0, 1),
])
def test_letters_of_the_wrong_length_named_without_asserts(
        words, number, position, run_optimized):
    run = run_optimized(
        "from modalfib.automata import SubgroupAutomaton\n"
        "try:\n    SubgroupAutomaton.from_words(('a', 'b'), %s)\n"
        "except ValueError as e:\n    print(e)\n" % words)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("word %d, letter %d " % (number, position))


def test_coset_states_partition_words():
    # words reach the same state iff they differ by a subgroup element
    rng = random.Random(308)
    a, b = ((0, +1),), ((1, +1),)
    H = SubgroupAutomaton.from_words((0, 1), [power(a, 2), b, mul(a, b, inv(a))])
    for w1 in random_words(rng, 2, 15, 5):
        for w2 in random_words(rng, 2, 3, 5):
            same_state = H.trace(w1) == H.trace(w2)
            assert same_state == H.contains(mul(w1, inv(w2)))


# ---------------------------------------------------------------------------
# Folding: the worklist fold against the plain fixpoint loop.

def reference_automaton(letters, words):
    """The plain fixpoint loops of Stallings' process: rescan every edge
    after each single merge, then trim whole rounds of leaves."""
    edges = []
    fresh = 1
    for w in map(reduce_word, words):
        cur = 0
        for i, (g, s) in enumerate(w):
            nxt = 0 if i == len(w) - 1 else fresh
            fresh += nxt != 0
            edges.append((cur, g, nxt) if s > 0 else (nxt, g, cur))
            cur = nxt
    p = list(range(fresh))

    def find(x):
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    while True:
        out = {}
        inn = {}
        merge = None
        for u, a, v in edges:
            ru, rv = find(u), find(v)
            k = (ru, a)
            if k in out and out[k] != rv:
                merge = (out[k], rv)
                break
            out[k] = rv
            k = (rv, a)
            if k in inn and inn[k] != ru:
                merge = (inn[k], ru)
                break
            inn[k] = ru
        if merge is None:
            break
        p[find(merge[1])] = find(merge[0])
    states = set()
    delta = {}
    for u, a, v in edges:
        ru, rv = find(u), find(v)
        delta[(ru, a)] = rv
        states.add(ru)
        states.add(rv)
    root = find(0)
    states.add(root)
    while True:
        deg = {s: 0 for s in states}
        for (u, a), v in delta.items():
            deg[u] += 1
            deg[v] += 1
        leaves = {s for s in states if s != root and deg[s] <= 1}
        if not leaves:
            break
        states = states - leaves
        delta = {(u, a): v for (u, a), v in delta.items()
                 if u not in leaves and v not in leaves}
    darts = [{} for _ in range(fresh)]
    for (u, a), v in delta.items():
        darts[u][a, 1] = v
        darts[v][a, -1] = u
    n, delta = automata._numbered(letters, darts, p)
    assert n == len(states), "reference automaton not connected"
    return SubgroupAutomaton(letters, n, delta)


@st.composite
def word_lists(draw):
    """0-6 reduced words of length 0-40; some are conjugates by one
    shared word, so they share long prefixes and suffixes."""
    def reduced(n):
        return st.lists(letters2, max_size=n).map(reduce_word)
    u = draw(reduced(10))
    out = []
    for w in draw(st.lists(reduced(40), max_size=6)):
        if len(w) <= 20 and draw(st.booleans()):
            w = mul(inv(u), w, u)
        out.append(w)
    return out


@settings(max_examples=300)
@given(word_lists())
def test_fold_matches_reference_fixpoint(words):
    got = SubgroupAutomaton.from_words((0, 1), words)
    assert got.key() == reference_automaton((0, 1), words).key()


@st.composite
def shared_word_lists(draw):
    """0-8 words over 3 letters, most of them made from earlier ones:
    repeats, the inverse of the word before, prefixes and suffixes,
    products and conjugates (which trace through the automaton built so
    far, so the walks meet or the forward walk reads the whole word),
    cancelling pairs spliced in, and empty words."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("fresh", "repeat", "inverse", "prefix",
                                     "suffix", "product", "conjugate",
                                     "unreduced")))
        if not out or kind == "fresh":
            w = tuple(draw(st.lists(letters3, max_size=12)))
        elif kind == "inverse":
            w = inv(out[-1])
        else:
            v = draw(st.sampled_from(out))
            cut = draw(st.integers(0, len(v)))
            if kind == "repeat":
                w = v
            elif kind == "prefix":
                w = v[:cut]
            elif kind == "suffix":
                w = v[cut:]
            elif kind == "product":
                w = mul(v, draw(st.sampled_from(out)))
            elif kind == "conjugate":
                u = draw(st.sampled_from(out))[:3]
                w = mul(inv(u), v, u)
            else:
                x = draw(letters3)
                w = v[:cut] + (x, (x[0], -x[1])) + v[cut:]
        out.append(w)
    return out


@settings(max_examples=500)
@given(shared_word_lists())
def test_fold_on_insert_matches_reference_on_shared_words(words):
    got = SubgroupAutomaton.from_words((0, 1, 2), words)
    assert got.key() == reference_automaton((0, 1, 2), words).key()


def fold_reading_every_edge(nstates, edges, root):
    """The worklist fold with its result read edge by edge, through two
    finds per edge: the reference for reading it off the dart dicts."""
    uf = UnionFind(range(nstates))
    darts = [{} for _ in range(nstates)]
    pending = []

    def seed(s, key, far):
        if key in darts[s]:
            pending.append((darts[s][key], far))
        else:
            darts[s][key] = far

    for u, a, v in edges:
        seed(u, (a, 1), v)
        seed(v, (a, -1), u)
    while pending:
        rx, ry = map(uf.find, pending.pop())
        if rx == ry:
            continue
        uf.union(rx, ry)
        keep = uf.find(rx)
        gone = ry if keep == rx else rx
        for key, far in darts[gone].items():
            seed(keep, key, far)
        darts[gone] = None
    seen = set()
    delta = {}
    for u, a, v in edges:
        ru, rv = uf.find(u), uf.find(v)
        delta[(ru, a)] = rv
        seen.add(ru)
        seen.add(rv)
    seen.add(uf.find(root))
    return seen, delta, uf.find(root)


@st.composite
def edge_soups(draw):
    """Any labelled multigraph on 1-8 states, isolated states, loops and
    repeated edges included, with any root."""
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, st.sampled_from((0, 1, "x")),
                                    state), max_size=16))
    return n, edges, draw(state)


def fold_reading_dart_dicts(nstates, edges, root):
    """`_fold_darts` on the merge queue that seeding the edges gives, with
    its result read off the live classes' dicts.

    Each edge u -a-> v is seeded as the darts (a, +1) -> v at u and
    (a, -1) -> u at v; a dart whose key is taken queues its far end for
    merging with the far end already there.  Merges only move entries
    into the kept class or queue clashing far ends, so at the end each
    edge u -a-> v has left (a, +1) -> f in u's class with find(f) ==
    find(v), and every entry came from an edge: the live classes' dicts
    give the states and delta that reading each edge through `find`
    twice gives."""
    darts = [{} for _ in range(nstates)]
    pending = []
    for u, a, v in edges:
        for s, key, far in ((u, (a, 1), v), (v, (a, -1), u)):
            d = darts[s]
            if key in d:
                pending.append((d[key], far))
            else:
                d[key] = far
    parent = automata._fold_darts(darts, pending)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    root = find(root)
    seen = {root} | {r for r, d in enumerate(darts) if d}
    delta = {(r, a): find(far) for r, d in enumerate(darts) if d
             for (a, sign), far in d.items() if sign == 1}
    return seen, delta, root


@settings(max_examples=300)
@given(edge_soups())
def test_fold_reads_the_same_result_off_the_dart_dicts(soup):
    assert fold_reading_dart_dicts(*soup) == fold_reading_every_edge(*soup)


def long_conjugates():
    """Six conjugates u^-1 w u of one cyclically reduced word of length
    1000, by conjugators u = x v that share a tail v of length 500."""
    rng = random.Random(309)

    def word(n):
        w = [(rng.randrange(2), rng.choice((-1, 1)))]
        while len(w) < n:
            g = (rng.randrange(2), rng.choice((-1, 1)))
            if g != (w[-1][0], -w[-1][1]):
                w.append(g)
        return tuple(w)

    w = word(1000)
    while w[0] == (w[-1][0], -w[-1][1]):
        w = word(1000)
    v = word(500)
    return [mul(inv(u), w, u) for u in (mul(word(3), v) for _ in range(6))]


def test_fold_of_long_conjugates_is_near_linear():
    # quadratic folding takes tens of seconds here
    gens = long_conjugates()
    assert min(map(len, gens)) >= 1900
    t0 = time.perf_counter()
    A = SubgroupAutomaton.from_words((0, 1), gens)
    elapsed = time.perf_counter() - t0
    assert all(A.contains(g) for g in gens)
    assert A.rank() <= 6
    assert elapsed < 2.0, elapsed


def test_fold_on_insert_builds_only_the_unshared_letters(monkeypatch):
    # counted work, not time: how many states reach the fold
    gens = long_conjugates()
    handed = []
    fold = automata._fold_darts

    def counting(darts, pending):
        handed.append(len(darts))
        return fold(darts, pending)

    monkeypatch.setattr(automata, "_fold_darts", counting)
    A = SubgroupAutomaton.from_words((0, 1), gens)
    assert all(A.contains(g) for g in gens)

    def common(x, y):
        n = 0
        while n < min(len(x), len(y)) and x[n] == y[n]:
            n += 1
        return n

    # a word of length L has L - 1 inner points; those on its longest
    # prefix and its longest suffix shared with an earlier word are not
    # built again
    unshared = 0
    for i, g in enumerate(gens):
        pre = max((common(g, h) for h in gens[:i]), default=0)
        suf = max((common(g[::-1], h[::-1]) for h in gens[:i]), default=0)
        unshared += max(0, len(g) - 1 - pre - suf)
    flower = 1 + sum(len(g) - 1 for g in gens)
    assert handed == [handed[0]]
    assert A.n <= handed[0] <= 1 + unshared, (handed, unshared)
    assert unshared < 0.75 * flower, (unshared, flower)
