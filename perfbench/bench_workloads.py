"""Seeded operations for the three benchmark workloads, each with an oracle.

An operation ("op") is one closed-loop request.  Every op carries its
inputs as plain data (document text, words, permutations), so a run can
re-import the program without invalidating them, and an oracle that
checks the op's output against an answer known by construction, never
against an earlier output of the program.

Inputs are built with ``corpus`` helpers, explicit constructors and
``textio.serialize_document``; documents are parsed inside the timed op,
because users pay for parsing.  The program's unbounded enumerators
(``quotients.enumerate_actions``, ``covers.enumerate_covers``) are never
called.

Workloads and why they were chosen:

graph-maps       CLI requests on map and action documents.  The graph
                 side (graphs, groupoids, hfiber, classify, words) does
                 most of the work and its kernels are quadratic, so the
                 cycle-cover and collapse size classes carry ops_per_s
                 and op_p90_ms, while the small random maps and the
                 action documents keep per-call cost visible in
                 op_p50_ms.
table-suites     The randomized theorem suites through the CLI.  Table
                 groupoid validation (fingroupoids) dominates; the graph
                 layers are bypassed.  Closure requests are the long ops
                 (see SUITE_ROUND for why they are few).
covers-automata  Covering-space commands on monodromy documents,
                 Stallings folding of six conjugates of one word, and
                 membership batches against parsed automata.  Folding
                 and membership use the automata layer in two ways;
                 fingroupoids and classify are bypassed.
"""

import json
import math
import random

# Source-vertex counts of the cover and collapse series on graph-maps.
MAP_SIZES = (48, 96, 192, 384)
COVER_FOLDS = (2, 3)
MAP_COMMANDS = ("classify", "criteria", "prism", "factor0")
RANDOM_MAPS = 60
ACTIONS = ((2, 24), (3, 48), (4, 96), (6, 96))      # (group order, cycle length)

# Fiber degrees of the monodromy series and bouquet ranks on covers-automata.
# Each cover, ball and fold case appears COVER_COPIES times per round, with
# fresh permutations and words, so that the percentiles rest on more ops.
COVER_COPIES = 2
DEGREES = (10, 20, 40, 80)
BOUQUET_RANKS = (2, 3)
BALLS = ((2, 3), (2, 5), (3, 3), (3, 4))             # (loops, radius)
FOLD_LENGTHS = (12, 24, 48, 96)                      # length of the conjugated word
# Membership batches are alike in size, so that op_p50_ms falls inside
# one group of equal ops.
MEMBER_DEGREE = 32
MEMBER_OPS = 128
MEMBER_BATCH = 192
MEMBER_WORD = 32
LETTERS = ("a", "b")

# Suite requests per table-suites round.  A random functor is a level-0
# fibration about 28% of the time, so 48 closure samples see none with
# probability below 1e-6.  Closure requests are the long ops, but their
# cost is heavy-tailed (the slowest 1% of samples take a third of the
# time, and 48-sample requests range over 3x between their 10th and 90th
# percentiles), so one closure request per round keeps its share of the
# round near an eighth and the run-to-run spread of ops_per_s low.
# op_p50_ms falls among the compare-modalities requests and op_p90_ms
# among the nine-way requests.
SUITE_ROUND = ((("suite closure", 48),)
               + (("suite compare-modalities", 20),
                  ("suite compare-modalities", 20),
                  ("suite nine-way", 20)) * 33)

WORKLOADS = ("graph-maps", "table-suites", "covers-automata")


class Op:
    """One request.  `run(mods)` is the timed part; `render(result)` gives
    the canonical output text; `check(result)` returns None or a reason."""

    __slots__ = ("command", "label", "series", "run", "render", "check",
                 "input_text")

    def __init__(self, command, label, series, run, render, check,
                 input_text):
        self.command = command
        self.label = label
        self.series = series
        self.run = run
        self.render = render
        self.check = check
        self.input_text = input_text


# ---------------------------------------------------------------------------
# CLI ops

def _cli_op(series, command, text, options, expect):
    """Parse, dispatch and render --format json, then check the data.

    `expect(data)` returns a list of problems; the exit status must be 0.
    """
    opts = dict(options)
    opts["format"] = "json"

    def run(mods):
        docs = (mods.textio.parse_document(text),) if text is not None else ()
        report = mods.cli.run(mods.cli.AnalysisRequest(command, docs, opts))
        return report.status, report.machine()

    def check(result):
        status, out = result
        if status != 0:
            return "exit status %d: %s" % (status, out[:300])
        problems = expect(json.loads(out))
        if problems:
            return "; ".join(problems)
        return None

    label = command + "".join(" --%s %s" % kv for kv in sorted(options.items()))
    return Op(command, label, series, run, lambda r: r[1], check,
              text if text is not None else label)


def _want(problems, data, path, value):
    cur = data
    for key in path:
        if not isinstance(cur, dict) or key not in cur:
            problems.append("missing %s" % ".".join(path))
            return
        cur = cur[key]
    if cur != value:
        problems.append("%s is %r, expected %r" % (".".join(path), cur, value))


def _all_true(problems, data, key):
    for k, v in sorted(data.get(key, {}).items()):
        if v is not True:
            problems.append("%s.%s is %r" % (key, k, v))


def _levels(problems, data, expected):
    for level, flags in expected.items():
        for flag, value in flags.items():
            _want(problems, data, ("levels", level, flag), value)


def _map_ops(text, facts):
    """The four map commands on one map document.

    facts: levels (expected flags), fiber (vertices, edges, cosets at the
    target basepoint, or None), middle (vertices, edges, components of
    the factor0 middle graph, or None), constant_fiber, etale_family.
    """
    def classify_expect(data):
        p = []
        _levels(p, data, facts["levels"])
        _all_true(p, data, "coherence")
        if len(data.get("coherence", {})) != 4:
            p.append("coherence has %d entries" % len(data.get("coherence", {})))
        return p

    def criteria_expect(data):
        p = []
        _levels(p, data, facts["levels"])
        _all_true(p, data, "consistency")
        for key in ("constant_fiber", "etale_family"):
            if facts.get(key) is not None:
                _want(p, data, (key,), facts[key])
        return p

    def prism_expect(data):
        p = []
        _want(p, data, ("triangle_commutes",), True)
        fib = facts.get("fiber")
        if fib is not None:
            _want(p, data, ("fiber_vertices",), fib[0])
            _want(p, data, ("fiber_edges",), fib[1])
            _want(p, data, ("symbolic_cosets",), fib[2])
            _want(p, data, ("gamma_equivalence",), True)
        return p

    def factor0_expect(data):
        p = []
        _want(p, data, ("ok",), True)
        _want(p, data, ("recomposes",), True)
        _want(p, data, ("left", "connected"), "true")
        _want(p, data, ("right", "modal"), "true")
        mid = facts.get("middle")
        if mid is not None:
            _want(p, data, ("middle", "vertices"), mid[0])
            _want(p, data, ("middle", "edges"), mid[1])
            _want(p, data, ("middle", "components"), mid[2])
        return p

    expects = {"classify": classify_expect, "criteria": criteria_expect,
               "prism": prism_expect, "factor0": factor0_expect}
    return [_cli_op(facts["series"], cmd, text, {}, expects[cmd])
            for cmd in MAP_COMMANDS]


# ---------------------------------------------------------------------------
# graph-maps inputs

def _shuffled(rng, n):
    xs = list(range(n))
    rng.shuffle(xs)
    return xs


def _oriented(rng, eid, a, b):
    return (eid, a, b) if rng.random() < 0.5 else (eid, b, a)


def _sign(vm, edge, target_edge):
    _, a, b = edge
    _, ta, tb = target_edge
    return +1 if (vm[a], vm[b]) == (ta, tb) else -1


def _map_text(mods, f):
    doc = mods.textio.Document()
    doc.add("graph", "X", f.source)
    doc.add("graph", "Y", f.target)
    doc.add("map", "f", f)
    return mods.textio.serialize_document(doc)


def _cycle_cover(mods, rng, k, size):
    """The connected k-fold cover cycle(size) -> cycle(size / k), with
    shuffled ids and random edge orientations."""
    FinGraph, GraphMap = mods.graphs.FinGraph, mods.graphs.GraphMap
    n = size // k
    sv, tv = _shuffled(rng, size), _shuffled(rng, n)
    se, te = _shuffled(rng, size), _shuffled(rng, n)
    t_edges = [_oriented(rng, "f%d" % te[j], tv[j], tv[(j + 1) % n])
               for j in range(n)]
    s_edges = [_oriented(rng, "e%d" % se[i], sv[i], sv[(i + 1) % size])
               for i in range(size)]
    vm = {sv[i]: tv[i % n] for i in range(size)}
    em = {s_edges[i][0]: (t_edges[i % n][0], _sign(vm, s_edges[i], t_edges[i % n]))
          for i in range(size)}
    f = GraphMap(FinGraph(tuple(sv), tuple(s_edges), sv[0]),
                 FinGraph(tuple(tv), tuple(t_edges), tv[0]), vm, em)
    # A connected k-fold cover of a circle, k >= 2: discrete fibers of k
    # points, etale and a fibration at pi1, an index-k image subgroup.
    facts = {
        "series": "cover",
        "levels": {
            "pi0": {"modal": "true", "equivalence": "true",
                    "connected": "false"},
            "pi1": {"modal": "true", "etale": "true", "fibration": "true",
                    "equivalence": "false", "connected": "false"},
        },
        "fiber": (k, 0, k),
        "middle": (size, size, 1),
        "constant_fiber": True,
        "etale_family": True,
    }
    return _map_text(mods, f), facts


_CONNECTED_BOTH = {
    level: {"modal": "false", "etale": "false", "connected": "true",
            "equivalence": "true", "fibration": "true"}
    for level in ("pi0", "pi1")
}


def _tree_collapse(mods, rng, size):
    """A random recursive tree collapsed to a point: connected at both
    levels."""
    FinGraph = mods.graphs.FinGraph
    lab = _shuffled(rng, size)
    edges = [_oriented(rng, "t%d" % i, lab[rng.randrange(i)], lab[i])
             for i in range(1, size)]
    tree = FinGraph(tuple(lab), tuple(edges), lab[0])
    f = mods.graphs.terminal_map(tree, mods.graphs.point())
    facts = {"series": "collapse", "levels": _CONNECTED_BOTH,
             "fiber": (size, size - 1, 1), "middle": (1, 0, 1),
             "constant_fiber": True, "etale_family": "inapplicable"}
    return _map_text(mods, f), facts


def _path_collapse(mods, rng, size):
    """path(size) -> path(size / 4): runs of source edges collapse, one
    source edge crosses each target edge.  Connected at both levels."""
    FinGraph, GraphMap = mods.graphs.FinGraph, mods.graphs.GraphMap
    m = size // 4
    cuts = sorted(rng.sample(range(size - 1), m - 1))
    block = []
    b = 0
    for i in range(size):
        block.append(b)
        if b < m - 1 and cuts[b] == i:
            b += 1
    sv, tv = _shuffled(rng, size), _shuffled(rng, m)
    t_edges = [_oriented(rng, "f%d" % j, tv[j], tv[j + 1]) for j in range(m - 1)]
    s_edges = [_oriented(rng, "e%d" % i, sv[i], sv[i + 1])
               for i in range(size - 1)]
    vm = {sv[i]: tv[block[i]] for i in range(size)}
    em = {}
    for i, edge in enumerate(s_edges):
        if block[i] == block[i + 1]:
            em[edge[0]] = None
        else:
            t_edge = t_edges[block[i]]
            em[edge[0]] = (t_edge[0], _sign(vm, edge, t_edge))
    f = GraphMap(FinGraph(tuple(sv), tuple(s_edges), sv[0]),
                 FinGraph(tuple(tv), tuple(t_edges), tv[0]), vm, em)
    first = block.count(0)
    facts = {"series": "collapse", "levels": _CONNECTED_BOTH,
             "fiber": (first, first - 1, 1), "middle": (m, m - 1, 1),
             "constant_fiber": True, "etale_family": "inapplicable"}
    return _map_text(mods, f), facts


def _components(vertices, edges):
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, u, v in edges:
        parent[find(u)] = find(v)
    return {v: find(v) for v in vertices}


def _random_small_map(mods, rng):
    """corpus.random_map between small random connected graphs.  Modality
    and pi0-equivalence are recomputed here from the map's tables."""
    corpus = mods.corpus
    src = corpus.random_connected_graph(rng)
    dst = corpus.random_connected_graph(rng)
    f = corpus.random_map(rng, src, dst)
    modal = "true" if all(img is not None for img in f.edge_map.values()) \
        else "false"
    sc = _components(src.vertices, src.edges)
    tc = _components(dst.vertices, dst.edges)
    over = {}
    for x, r in sc.items():
        over.setdefault(tc[f.vertex_map[x]], set()).add(r)
    equivalence = all(len(over.get(r, ())) == 1 for r in set(tc.values()))
    facts = {"series": "small",
             "levels": {"pi0": {"modal": modal,
                                "equivalence": "true" if equivalence
                                else "false"},
                        "pi1": {"modal": modal}}}
    return _map_text(mods, f), facts


def _rotation_action(mods, rng, order, length):
    """The cyclic group of the given order rotating cycle(length) freely;
    its quotient map is a fibration and the quotient is a circle."""
    FinGraph, GraphMap = mods.graphs.FinGraph, mods.graphs.GraphMap
    q = mods.quotients
    sv = _shuffled(rng, length)
    edges = [_oriented(rng, "e%d" % i, sv[i], sv[(i + 1) % length])
             for i in range(length)]
    space = FinGraph(tuple(sv), tuple(edges), sv[0])
    units = [j for j in range(1, order + 1) if math.gcd(j, order) == 1]
    step = rng.choice(units) * (length // order) % length
    vm = {sv[i]: sv[(i + step) % length] for i in range(length)}
    em = {edges[i][0]: (edges[(i + step) % length][0],
                        _sign(vm, edges[i], edges[(i + step) % length]))
          for i in range(length)}
    gen = GraphMap(space, space, vm, em)
    action = q.graph_action(q.cyclic_group(order), space, [gen])
    doc = mods.textio.Document()
    doc.add("graph", "X", space)
    doc.add("action", "a", action)
    text = mods.textio.serialize_document(doc)

    def verify_expect(data):
        p = []
        _want(p, data, ("fibration",), True)
        _want(p, data, ("ok",), True)
        rows = data.get("rows", [])
        if len(rows) != length:
            p.append("%d rows, expected %d" % (len(rows), length))
        for r in rows:
            if (r.get("exact") is not True or r.get("orbit_size") != order
                    or r.get("stabilizer_size") != 1
                    or r.get("group_order") != order):
                p.append("row %r breaks the free orbit count" % (r,))
                break
        return p

    def shape_expect(data):
        p = []
        _want(p, data, ("kind",), "presented")
        if len(data.get("component_reps", [])) != 1:
            p.append("component_reps %r" % (data.get("component_reps"),))
        if list(data.get("ranks", {}).values()) != [1]:
            p.append("ranks %r, expected one circle" % (data.get("ranks"),))
        return p

    return [_cli_op("action", "quotient verify", text, {}, verify_expect),
            _cli_op("action", "quotient shape", text, {}, shape_expect)]


def graph_maps_round(mods, rng):
    ops = []
    for size in MAP_SIZES:
        for k in COVER_FOLDS:
            text, facts = _cycle_cover(mods, rng, k, size)
            ops += _map_ops(text, facts)
        for build in (_tree_collapse, _path_collapse):
            text, facts = build(mods, rng, size)
            ops += _map_ops(text, facts)
    for _ in range(RANDOM_MAPS):
        text, facts = _random_small_map(mods, rng)
        ops += _map_ops(text, facts)
    for order, length in ACTIONS:
        ops += _rotation_action(mods, rng, order, length)
    return ops


# ---------------------------------------------------------------------------
# covers-automata inputs

def _perm(rng, d):
    xs = list(range(1, d + 1))
    rng.shuffle(xs)
    return {i + 1: xs[i] for i in range(d)}


def _orbits(points, perms):
    comp = _components(points, [(None, i, p[i]) for p in perms for i in p])
    groups = {}
    for i in points:
        groups.setdefault(comp[i], []).append(i)
    return sorted(sorted(g) for g in groups.values())


def _parse_cycles(s, points):
    perm = {i: i for i in points}
    for cyc in s.replace(")", "").split("(")[1:]:
        xs = [int(t) for t in cyc.split()]
        for a, b in zip(xs, xs[1:] + xs[:1]):
            perm[a] = b
    return perm


def _monodromy_ops(mods, rng, k, d):
    base = mods.graphs.bouquet(k)
    shape = mods.groupoids.shape1(base)
    letters = shape.components[shape.comp_of[base.basepoint]].letters
    fiber = tuple(range(1, d + 1))
    perms = {l: _perm(rng, d) for l in letters}
    m = mods.covers.MonodromyAction(shape, base.basepoint, fiber, perms)
    doc = mods.textio.Document()
    doc.add("graph", "B", base)
    doc.add("monodromy", "m", m)
    text = mods.textio.serialize_document(doc)
    orbits = _orbits(list(fiber), list(perms.values()))

    def shape_expect(data):
        p = []
        _want(p, data, ("ok",), True)
        _want(p, data, ("components_match_orbits",), True)
        _want(p, data, ("orbit_count",), len(orbits))
        _want(p, data, ("component_count",), len(orbits))
        certs = data.get("certificates", [])
        # Orbit points are total-space vertices [base vertex, fiber point].
        if sorted(sorted(v[1] for v in c["orbit"]) for c in certs) != orbits:
            p.append("certificate orbits differ from the action's orbits")
        for c in certs:
            size = len(c["orbit"])
            # Schreier: an index-m subgroup of a rank-k free group has
            # rank 1 + m(k - 1).
            if (c["equal"] is not True or c["index"] != size
                    or c["image_rank"] != 1 + size * (k - 1)):
                p.append("certificate at %r: equal %r, index %r, rank %r"
                         % (c["point"], c["equal"], c["index"],
                            c["image_rank"]))
        return p

    def total_expect(data):
        p = []
        _want(p, data, ("vertices",), d)
        _want(p, data, ("edges",), d * k)
        _want(p, data, ("components",), len(orbits))
        _want(p, data, ("orbits",), len(orbits))
        return p

    def monodromy_expect(data):
        p = []
        _want(p, data, ("fiber",), list(fiber))
        _want(p, data, ("orbits",), orbits)
        got = data.get("letters", {})
        for l in letters:
            if _parse_cycles(got.get(l, ""), fiber) != perms[l]:
                p.append("letter %s permutation differs" % (l,))
        return p

    return [
        _cli_op("verify-shape", "covers verify-shape", text, {},
                shape_expect),
        _cli_op("total", "covers total", text, {}, total_expect),
        _cli_op("monodromy", "covers monodromy", text, {},
                monodromy_expect),
    ]


def _ball_op(mods, k, r):
    doc = mods.textio.Document()
    doc.add("graph", "B", mods.graphs.bouquet(k))
    text = mods.textio.serialize_document(doc)
    # The radius-r ball of the 2k-regular tree.
    vertices = 1 + 2 * k * ((2 * k - 1) ** r - 1) // (2 * k - 2)

    def expect(data):
        p = []
        _want(p, data, ("vertices",), vertices)
        _want(p, data, ("edges",), vertices - 1)
        _want(p, data, ("components",), 1)
        return p

    return _cli_op("ball", "covers universal-ball", text,
                   {"radius": r}, expect)


def _reduce(w):
    out = []
    for g, s in w:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def _inverse(w):
    return tuple((g, -s) for g, s in reversed(w))


# Shared letter objects keep the many query words small in memory; each
# letter may be followed by any letter but its inverse.
_LETTERS = tuple((l, s) for l in LETTERS for s in (1, -1))
_FOLLOW = {x: tuple(y for y in _LETTERS if y != (x[0], -x[1]))
           for x in _LETTERS}


def _random_word(rng, length):
    """A uniformly random reduced word of the given length."""
    x = rng.choice(_LETTERS)
    w = [x]
    for i in rng.choices((0, 1, 2), k=length - 1):
        x = _FOLLOW[x][i]
        w.append(x)
    return tuple(w)


def _trace(delta, rdelta, word):
    s = 0
    for g, sign in _reduce(word):
        s = (delta if sign > 0 else rdelta).get((s, g))
        if s is None:
            return None
    return s


def _fold_op(rng, length):
    """Six conjugates u^-1 w u of one cyclically reduced word w, with
    conjugators u = x v sharing a long tail v, so folding has to merge
    long common prefixes and suffixes."""
    while True:
        w = _random_word(rng, length)
        if w[0] != (w[-1][0], -w[-1][1]):
            break
    v = _random_word(rng, length // 2)
    words = []
    for _ in range(6):
        u = _reduce(_random_word(rng, 3) + v)
        words.append(_reduce(_inverse(u) + w + u))
    words = tuple(words)

    def run(mods):
        return mods.automata.SubgroupAutomaton.from_words(LETTERS, words)

    def render(a):
        return json.dumps([a.n, [[s, l, t] for (s, l), t in a.transitions()]],
                          separators=(",", ":"))

    def check(a):
        rdelta = {(t, l): s for (s, l), t in a.delta.items()}
        missed = [i for i, g in enumerate(words)
                  if _trace(a.delta, rdelta, g) != 0]
        if missed:
            return "generators %r are not accepted" % (missed,)
        rank = len(a.delta) - a.n + 1
        if rank > len(words):
            return "rank %d exceeds %d generators" % (rank, len(words))
        return None

    text = "from_words %r\n%s" % (LETTERS, "\n".join(
        " ".join("%s%s" % (g, "" if s > 0 else "^-1") for g, s in word)
        for word in words))
    return Op("from_words",
              "from_words, six conjugates of a length-%d word" % length,
              "fold", run, render, check, text)


def _member_op(mods, rng, d):
    """A batch of membership queries against the point stabilizer of a
    permutation action, read from an automaton: document.  The answers
    come from acting on the point directly."""
    perms = {l: _perm(rng, d) for l in LETTERS}
    inverse = {l: {v: k for k, v in p.items()} for l, p in perms.items()}
    auto = mods.automata.SubgroupAutomaton.from_schreier(LETTERS, perms, 1)
    doc = mods.textio.Document()
    doc.add("automaton", "H", auto)
    text = mods.textio.serialize_document(doc)

    def act(word):
        p = 1
        for g, s in word:
            p = perms[g][p] if s > 0 else inverse[g][p]
        return p

    def way_home(p):
        back = {p: ()}
        frontier = [p]
        while 1 not in back:
            nxt = []
            for q in frontier:
                for x in _LETTERS:
                    r = (perms if x[1] > 0 else inverse)[x[0]][q]
                    if r not in back:
                        back[r] = back[q] + (x,)
                        nxt.append(r)
            frontier = nxt
        return back[1]

    words = []
    for i in range(MEMBER_BATCH):
        w = _random_word(rng, MEMBER_WORD)
        if i % 2:
            w = w + way_home(act(w))
        words.append(w)
    words = tuple(words)
    expected = [act(w) == 1 for w in words]

    def run(mods):
        a = mods.textio.parse_document(text).single("automaton")
        return [a.contains(w) for w in words]

    def check(got):
        if got != expected:
            bad = [i for i, (x, y) in enumerate(zip(got, expected)) if x != y]
            return "membership differs at queries %r" % (bad[:10],)
        return None

    return Op("contains",
              "contains x%d on a degree-%d stabilizer" % (len(words), d),
              "member", run, json.dumps, check, text)


def covers_automata_round(mods, rng):
    ops = []
    for _ in range(COVER_COPIES):
        for d in DEGREES:
            for k in BOUQUET_RANKS:
                ops += _monodromy_ops(mods, rng, k, d)
        ops += [_ball_op(mods, k, r) for k, r in BALLS]
        for length in FOLD_LENGTHS:
            ops += [_fold_op(rng, length) for _ in range(2)]
    ops += [_member_op(mods, rng, MEMBER_DEGREE) for _ in range(MEMBER_OPS)]
    return ops


# ---------------------------------------------------------------------------
# table-suites inputs

def _suite_op(command, samples, seed):
    def expect(data):
        p = []
        _want(p, data, ("ok",), True)
        _want(p, data, ("samples",), samples)
        _want(p, data, ("seed",), seed)
        if command == "suite closure" and data.get("fibrations_seen", 0) < 1:
            p.append("no fibration exercised")
        return p

    return _cli_op("suite", command, None,
                   {"samples": samples, "seed": seed}, expect)


def table_suites_round(rng):
    return [_suite_op(cmd, samples, rng.randrange(2 ** 31))
            for cmd, samples in SUITE_ROUND]


# ---------------------------------------------------------------------------

class Stream:
    """The deterministic op stream of one workload and seed.

    A round is a fixed list of op slots.  Graph and cover inputs are
    generated once, so every round repeats the same ops; suite requests
    draw fresh seeds every round, so a suite slot stands for a request of
    its kind.  Rounds are repeated so that each slot's latency can be
    taken as a median over the rounds.
    """

    def __init__(self, mods, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % (workload,))
        self.workload = workload
        self.seed = seed
        build = {"graph-maps": graph_maps_round,
                 "covers-automata": covers_automata_round}.get(workload)
        self.fixed = None
        if build is not None:
            self.fixed = build(mods, random.Random("%s:%d" % (workload, seed)))

    def round(self, r):
        if self.fixed is not None:
            return self.fixed
        return table_suites_round(random.Random("%s:%d:%d"
                                                % (self.workload, self.seed, r)))

    def warmup_ops(self):
        """One op of every series and command, the smallest first, for
        warm-up."""
        if self.fixed is None:
            return [_suite_op(cmd, 2, 0)
                    for cmd in sorted({cmd for cmd, _ in SUITE_ROUND})]
        seen = {}
        for op in self.fixed:
            key = (op.series, op.command)
            if key not in seen:
                seen[key] = op
        return list(seen.values())
