"""One table of bad inputs, each rejected by the parser and by the API.

Every invariant of a map, an action, an automaton, a monodromy action or
a table groupoid is checked once, by its constructor, which raises an
InputError.  The parser adds only what the text alone knows (row syntax
and arity, repeated rows) and places each constructor error at the row
that introduced the offending id, or at the header or generator block
line when no row did, as for a missing image.

Each case is run as a document, which must fail with a ParseError at the
stated line, and as the direct constructor call, which must fail with
the stated error naming the same id as its `subject`.  What only the
parser rejects (row and header arity, cycle syntax, non-integer numbers,
missing, unknown and repeated rows) has no constructor call, and nor do
the relation errors of an action and the groupoid constructor's errors
other than its compose-table checks, which carry no subject and land at
the section header.  A compose entry that is not composable, ill-typed
or not the vertex group's product is named as ("pair", (g, h)) and lands
at its compose row, and a states count below 1, or a state that no
chain of transitions joins to the root, at the states row.  A group
generator that is not a permutation of the first one's degree, or whose
map disagrees with the map its element already gets, is named as
("generator", i) and lands at its group-gen line.  A constructor input
that no document can spell (a missing perm row is the identity) has no
document.
"""

from collections import namedtuple

import pytest

from modalfib.cli import main
from modalfib.covers import CoverError
from modalfib.fingroupoids import FinGroupoidError
from modalfib.graphs import GraphError, InputError
from modalfib.quotients import ActionError
from modalfib.textio import ParseError, parse_document, serialize_fingroupoid

# Every call below is evaluated against this prelude, in this process
# and under python -O.
PRELUDE = """\
from modalfib.automata import SubgroupAutomaton
from modalfib.covers import MonodromyAction, universal_cover_ball
from modalfib.fingroupoids import FinGroupoid
from modalfib.graphs import GraphMap, InputError, bouquet
from modalfib.groupoids import shape1
from modalfib.quotients import graph_action, permutation_group
from lib_graphs import cycle
c, t, loop = cycle(2), cycle(3), shape1(cycle(1))
rot = GraphMap.build(t, t, {0: 1, 1: 2, 2: 0},
                     {'e0': 'e1', 'e1': 'e2', 'e2': 'e0'})
# the groupoid i : x -> x, j : y -> y, with the given compose table
two = lambda comp: FinGroupoid(('x', 'y'), ('i', 'j'), {'i': 'x', 'j': 'y'},
                               {'i': 'x', 'j': 'y'}, comp, {'x': 'i', 'y': 'j'})
# x and y joined, with vertex groups of order 2: ARROW[m] spells m's
# source, target and group element, and composing adds the elements
ARROW = {'i': 'xx0', 'a': 'xx1', 'j': 'yy0', 'b': 'yy1',
         'f': 'xy0', 'g': 'xy1', 'h': 'yx0', 'k': 'yx1'}
NAME = {v: m for m, v in ARROW.items()}
Z2 = {(p, q): NAME[u[0] + v[1] + str((int(u[2]) + int(v[2])) % 2)]
      for p, u in ARROW.items() for q, v in ARROW.items() if u[1] == v[0]}
z2 = lambda comp: FinGroupoid(('x', 'y'), tuple(ARROW),
                              {m: v[0] for m, v in ARROW.items()},
                              {m: v[1] for m, v in ARROW.items()},
                              comp, {'x': 'i', 'y': 'j'})
"""

Case = namedtuple("Case", "name doc line call error subject")

# cycle(2) as text; the map header is line 6, its rows start at line 7
C2 = "graph: c\nvertices: 0 1\nedges: e0 0 1\nedges: e1 1 0\n\nmap: f c c\n"
C2_ID = "v 0 -> 0\nv 1 -> 1\ne e0 -> e0 +\ne e1 -> e1 +\n"
C2_EDGES = "{'e0': ('e0', 1), 'e1': ('e1', 1)}"

# cycle(1) with its basepoint; the monodromy header is line 6
LOOP = "graph: g\nvertices: 0\nedges: e0 0 0\nbasepoint: 0\n\nmonodromy: m g\n"
ID2 = "{1: 1, 2: 2}"

# cycle(3) under the rotation and its square: the action header is line
# 7, the blocks start at lines 8 and 15
T3 = ("graph: t\nvertices: 0 1 2\nedges: e0 0 1\nedges: e1 1 2\n"
      "edges: e2 2 0\n\naction: r t\n")
ROT_BLOCK = ("vertex-perm: 0 -> 1\nvertex-perm: 1 -> 2\nvertex-perm: 2 -> 0\n"
             "edge-perm: e0 -> e1 +\nedge-perm: e1 -> e2 +\n"
             "edge-perm: e2 -> e0 +\n")
ROT = "group-gen: 1 2 0\n" + ROT_BLOCK
ROT2_ROWS = ["vertex-perm: 0 -> 2", "vertex-perm: 1 -> 0", "vertex-perm: 2 -> 1",
             "edge-perm: e0 -> e2 +", "edge-perm: e1 -> e0 +",
             "edge-perm: e2 -> e1 +"]
ROT2_VM = {0: 2, 1: 0, 2: 1}
ROT2_EM = {"e0": ("e2", 1), "e1": ("e0", 1), "e2": ("e1", 1)}


# an automaton before its states line, which is line 3
AUT = "automaton: a\nletters: a\n"

# the trivial groupoid on one object but for its compose row, line 5
FG = "fingroupoid: q\nobjects: x\nmorphisms: i x x\nidentity: x i\n"

# the prelude's `two` but for its compose rows, which start at line 7
FG2 = ("fingroupoid: q\nobjects: x y\nmorphisms: i x x\nmorphisms: j y y\n"
       "identity: x i\nidentity: y j\n")


def z2_doc(row, wrong):
    """The prelude's z2(Z2) as text, with the compose row `row`
    replaced by `wrong`."""
    scope = {}
    exec(PRELUDE, scope)
    text = serialize_fingroupoid("q", scope["z2"](scope["Z2"]))
    assert row + "\n" in text
    return text.replace(row + "\n", wrong + "\n")


def rot2(rows):
    return T3 + ROT + "group-gen: 2 0 1\n" + "".join(r + "\n" for r in rows)


CASES = [
    # -- maps: a sign other than +-1, foreign keys, and GraphMap.build's
    # former KeyErrors
    Case("map sign 5",
         C2 + "v 0 -> 0\nv 1 -> 1\ne e0 -> e1 5\ne e1 -> e0 -\n", 9,
         "GraphMap(c, c, {0: 0, 1: 1}, {'e0': ('e1', 5), 'e1': ('e0', -1)})",
         GraphError, ("edge", "e0")),
    Case("map foreign vertex key", C2 + C2_ID + "v 7 -> 0\n", 11,
         "GraphMap(c, c, {0: 0, 1: 1, 7: 0}, %s)" % C2_EDGES,
         GraphError, ("vertex", 7)),
    Case("map foreign edge key", C2 + C2_ID + "e e3 -> e0 +\n", 11,
         "GraphMap(c, c, {0: 0, 1: 1}, {'e0': ('e0', 1), 'e1': ('e1', 1), "
         "'e3': ('e0', 1)})", GraphError, ("edge", "e3")),
    Case("map foreign edge key beside a bare row",
         C2 + "v 0 -> 0\nv 1 -> 1\ne e0 -> e0\ne e1 -> e1\ne e3 -> e0\n", 11,
         "GraphMap.build(c, c, {0: 0, 1: 1}, "
         "{'e0': 'e0', 'e1': 'e1', 'e3': 'e0'})", GraphError, ("edge", "e3")),
    Case("map target vertex unknown", C2 + "v 0 -> 0\nv 1 -> 9\n"
         "e e0 -> e0 +\ne e1 -> e1 +\n", 8,
         "GraphMap(c, c, {0: 0, 1: 9}, %s)" % C2_EDGES,
         GraphError, ("vertex", 1)),
    Case("build without a vertex image",
         C2 + "v 0 -> 0\ne e0 -> e0\ne e1 -> e1\n", 6,
         "GraphMap.build(c, c, {0: 0}, {'e0': 'e0', 'e1': 'e1'})",
         GraphError, ("vertex", 1)),
    Case("build onto an unknown bare edge",
         C2 + "v 0 -> 0\nv 1 -> 1\ne e0 -> zz\ne e1 -> e1\n", 9,
         "GraphMap.build(c, c, {0: 0, 1: 1}, {'e0': 'zz', 'e1': 'e1'})",
         GraphError, ("edge", "e0")),
    Case("build without an edge image",
         C2 + "v 0 -> 0\nv 1 -> 1\ne e0 -> e0\n", 6,
         "GraphMap.build(c, c, {0: 0, 1: 1}, {'e0': 'e0'})",
         GraphError, ("edge", "e1")),
    Case("map edge image that is a bare id", None, None,
         "GraphMap(c, c, {0: 0, 1: 1}, {'e0': 'e00', 'e1': ('e1', 1)})",
         GraphError, ("edge", "e0")),
    Case("map edge image that is a two-letter id", None, None,
         "GraphMap(c, c, {0: 0, 1: 1}, {'e0': ('e0', 1), 'e1': 'e1'})",
         GraphError, ("edge", "e1")),
    Case("map edge onto a dart with other ends",
         C2 + "v 0 -> 0\nv 1 -> 1\ne e0 -> e1 +\ne e1 -> e1 +\n", 9,
         "GraphMap(c, c, {0: 0, 1: 1}, {'e0': ('e1', 1), 'e1': ('e1', 1)})",
         GraphError, ("edge", "e0")),
    # -- automata: states out of range, undeclared letters, unfolded,
    # unreached
    Case("automaton state out of range",
         "automaton: a\nletters: a\nstates: 1\ndelta: 0 a 5\n", 4,
         "SubgroupAutomaton(('a',), 1, {(0, 'a'): 5})",
         InputError, ("arrow", (0, "a"))),
    Case("automaton state that is not an int", None, None,
         "SubgroupAutomaton(('a',), 1, {('0', 'a'): 0})",
         InputError, ("arrow", ("0", "a"))),
    Case("automaton letter not declared",
         "automaton: a\nletters: a\nstates: 1\ndelta: 0 a 0\ndelta: 0 b 0\n",
         5, "SubgroupAutomaton(('a',), 1, {(0, 'a'): 0, (0, 'b'): 0})",
         InputError, ("arrow", (0, "b"))),
    Case("automaton not folded",
         "automaton: a\nletters: a\nstates: 2\ndelta: 0 a 1\ndelta: 1 a 1\n",
         5, "SubgroupAutomaton(('a',), 2, {(0, 'a'): 1, (1, 'a'): 1})",
         InputError, ("arrow", (1, "a"))),
    Case("automaton without states", AUT + "states: 0\n", 3,
         "SubgroupAutomaton(('a',), 0, {})", InputError, ("states", 0)),
    Case("automaton with a negative states count", AUT + "states: -1\n", 3,
         "SubgroupAutomaton(('a',), -1, {})", InputError, ("states", -1)),
    Case("automaton state not reached from the root",
         AUT + "states: 2\ndelta: 1 a 1\n", 3,
         "SubgroupAutomaton(('a',), 2, {(1, 'a'): 1})",
         InputError, ("states", 2)),
    Case("automaton with too few transitions to reach its states",
         AUT + "states: 3\ndelta: 0 a 1\n", 3,
         "SubgroupAutomaton(('a',), 3, {(0, 'a'): 1})",
         InputError, ("states", 3)),
    # -- the automaton builders: a word's letter, a Schreier table
    Case("automaton word with an undeclared letter", None, None,
         "SubgroupAutomaton.from_words(('a',), [(('a', 1),), (('b', 1),)])",
         InputError, ("word", 1)),
    Case("Schreier letter without a permutation", None, None,
         "SubgroupAutomaton.from_schreier(('a', 'b'), {'a': {0: 0}}, 0)",
         InputError, ("letter", "b")),
    Case("Schreier letter that is not a permutation", None, None,
         "SubgroupAutomaton.from_schreier(('a',), {'a': {0: 0, 1: 0}}, 0)",
         InputError, ("letter", "a")),
    Case("Schreier key that is not a letter", None, None,
         "SubgroupAutomaton.from_schreier(('a',), "
         "{'a': {0: 0}, 'z': {0: 0}}, 0)", InputError, ("letter", "z")),
    Case("Schreier basepoint outside the points", None, None,
         "SubgroupAutomaton.from_schreier(('a',), {'a': {0: 0}}, 5)",
         InputError, ("point", 5)),
    # -- fingroupoids: the three checks of a compose entry
    Case("compose row that is not composable",
         FG2 + "compose: i i i\ncompose: i j j\n", 8,
         "two({('i', 'i'): 'i', ('i', 'j'): 'j'})",
         FinGroupoidError, ("pair", ("i", "j"))),
    Case("compose row that is ill-typed",
         FG2 + "compose: i i i\ncompose: j j i\n", 8,
         "two({('i', 'i'): 'i', ('j', 'j'): 'i'})",
         FinGroupoidError, ("pair", ("j", "j"))),
    Case("compose row that is not the vertex group's product",
         z2_doc("compose: j j j", "compose: j j b"), 39,
         "z2({**Z2, ('j', 'j'): 'b'})",
         FinGroupoidError, ("pair", ("j", "j"))),
    # -- monodromy: a foreign letter, a missing one, a repeated fiber
    # point, a non-permutation
    Case("monodromy foreign letter",
         LOOP + "degree: 2\nperm: e0 (1 2)\nperm: zz (1 2)\n", 9,
         "MonodromyAction(loop, 0, (1, 2), {'e0': %s, 'zz': %s})"
         % (ID2, ID2), CoverError, ("letter", "zz")),
    Case("monodromy missing letter", None, None,
         "MonodromyAction(loop, 0, (1, 2), {})",
         CoverError, ("letter", "e0")),
    Case("monodromy missing letter, empty fiber", None, None,
         "MonodromyAction(loop, 0, (), {})", CoverError, ("letter", "e0")),
    Case("monodromy base that is not a vertex", None, None,
         "MonodromyAction(loop, 5, (1, 2), {'e0': %s})" % (ID2,),
         CoverError, ("vertex", 5)),
    Case("monodromy fiber point listed twice",
         LOOP + "fiber: 1 1 2\nperm: e0 (1 2)\n", 7,
         "MonodromyAction(loop, 0, (1, 1, 2), {'e0': {1: 2, 2: 1}})",
         CoverError, ("point", 1)),
    Case("monodromy not a permutation", None, None,
         "MonodromyAction(loop, 0, (1, 2), {'e0': {1: 1, 2: 1}})",
         CoverError, ("letter", "e0")),
    # -- universal-cover balls: the radius, as the CLI's --radius check
    Case("ball of negative radius", None, None,
         "universal_cover_ball(bouquet(1), 'w', -1)",
         CoverError, ("radius", -1)),
    Case("ball of fractional radius", None, None,
         "universal_cover_ball(bouquet(1), 'w', 1.5)",
         CoverError, ("radius", 1.5)),
    # -- actions: the error lands in the failing generator block
    Case("action image outside the space, second block",
         rot2(["vertex-perm: 0 -> 9"] + ROT2_ROWS[1:]), 16,
         "GraphMap.build(t, t, {0: 9, 1: 0, 2: 1}, %r)" % (ROT2_EM,),
         GraphError, ("vertex", 0)),
    Case("action missing vertex image, second block",
         rot2(ROT2_ROWS[:2] + ROT2_ROWS[3:]), 15,
         "GraphMap.build(t, t, {0: 2, 1: 0}, %r)" % (ROT2_EM,),
         GraphError, ("vertex", 2)),
    Case("action foreign edge key, second block",
         rot2(ROT2_ROWS + ["edge-perm: e9 -> e0 +"]), 22,
         "GraphMap.build(t, t, %r, %r)"
         % (ROT2_VM, dict(ROT2_EM, e9=("e0", 1))),
         GraphError, ("edge", "e9")),
    # -- row arity and repeated rows: the text alone shows these
    Case("v row with a trailing token", C2 + "v 0 -> 0 junk\n", 7,
         None, None, None),
    Case("e row to deg with a trailing token",
         C2 + "v 0 -> 0\nv 1 -> 0\ne e0 -> deg junk\n", 9,
         None, None, None),
    Case("e row to deg with a sign",
         C2 + "v 0 -> 0\nv 1 -> 0\ne e0 -> deg +\n", 9, None, None, None),
    Case("e row with a token after its sign", C2 + "e e0 -> e0 + junk\n", 7,
         None, None, None),
    Case("e row with two signs", C2 + "e e0 -> e0 + -\n", 7,
         None, None, None),
    Case("e row with a bad sign", C2 + "e e0 -> e0 *\n", 7,
         None, None, None),
    Case("vertex-perm row with a trailing token",
         T3 + "group-gen: 1 2 0\nvertex-perm: 0 -> 1 junk\n", 9,
         None, None, None),
    Case("vertex-perm row with a sign",
         T3 + "group-gen: 1 2 0\nvertex-perm: 0 -> 1 +\n", 9,
         None, None, None),
    Case("edge-perm row with a token after its sign",
         T3 + "group-gen: 1 2 0\nedge-perm: e0 -> e1 + junk\n", 9,
         None, None, None),
    Case("repeated vertex-perm row in a block",
         rot2(ROT2_ROWS[:1] + ROT2_ROWS), 17, None, None, None),
    Case("edges row with two tokens", "graph: g\nvertices: 0\nedges: e0 0\n",
         3, None, None, None),
    Case("basepoint row with two vertices",
         "graph: g\nvertices: 0 1\nbasepoint: 0 1\n", 3, None, None, None),
    Case("states row with two numbers", AUT + "states: 1 2\n", 3,
         None, None, None),
    Case("delta row with two tokens", AUT + "states: 1\ndelta: 0 a\n", 4,
         None, None, None),
    Case("morphisms row with two tokens",
         "fingroupoid: q\nobjects: x\nmorphisms: i x\n", 3, None, None, None),
    Case("identity row with one token",
         "fingroupoid: q\nobjects: x\nmorphisms: i x x\nidentity: x\n", 4,
         None, None, None),
    Case("compose row with two tokens", FG + "compose: i i\n", 5,
         None, None, None),
    # -- header arity
    Case("map header without a target", C2.replace("f c c", "f c"), 6,
         None, None, None),
    Case("monodromy header with two bases",
         LOOP.replace("m g", "m g g") + "degree: 2\n", 6, None, None, None),
    Case("action header with two spaces",
         T3.replace("r t", "r t t") + ROT, 7, None, None, None),
    # -- cycles, degrees and perm rows
    Case("cycle spec with a stray token",
         LOOP + "degree: 2\nperm: e0 (1 2) 3\n", 8, None, None, None),
    Case("one-point cycle", LOOP + "degree: 2\nperm: e0 (1)\n", 8,
         None, None, None),
    Case("cycle through an unknown point",
         LOOP + "degree: 2\nperm: e0 (1 3)\n", 8, None, None, None),
    Case("point repeated in cycles",
         LOOP + "degree: 3\nperm: e0 (1 2)(2 3)\n", 8, None, None, None),
    Case("degree zero", LOOP + "degree: 0\n", 7, None, None, None),
    Case("degree that is not a number", LOOP + "degree: two\n", 7,
         None, None, None),
    Case("perm row without a letter", LOOP + "degree: 2\nperm:\n", 8,
         None, None, None),
    # -- group generators
    Case("group-gen with a non-integer image", T3 + "group-gen: 1 2 x\n", 8,
         None, None, None),
    Case("vertex-perm before any group-gen",
         T3 + "vertex-perm: 0 -> 1\n", 8, None, None, None),
    Case("generators of different degree", T3 + ROT + "group-gen: 1 0\n", 15,
         "permutation_group(3, [(1, 2, 0), (1, 0)])",
         ActionError, ("generator", 1)),
    Case("generator that is not a permutation",
         T3 + "group-gen: 0 0 1\n" + ROT_BLOCK, 8,
         "permutation_group(3, [(0, 0, 1)])", ActionError, ("generator", 0)),
    Case("identity generator acting by the rotation",
         T3 + "group-gen: 0 1 2\n" + ROT_BLOCK, 8,
         "graph_action(permutation_group(3, [(0, 1, 2)]), t, [rot])",
         ActionError, ("generator", 0)),
    Case("repeated generator acting by another map",
         T3 + ROT + "group-gen: 1 2 0\n" + "".join(r + "\n" for r in ROT2_ROWS),
         15, "graph_action(permutation_group(3, [(1, 2, 0)] * 2), t, "
         "[rot, rot.compose(rot)])", ActionError, ("generator", 1)),
    # -- non-integer states
    Case("states row that is not an integer", AUT + "states: one\n", 3,
         None, None, None),
    Case("delta row with a non-integer state",
         AUT + "states: 1\ndelta: 0 a x\n", 4, None, None, None),
    # -- missing rows, reported at the header
    Case("monodromy without a degree or fiber row", LOOP + "perm: e0\n", 6,
         None, None, None),
    Case("automaton without a states row", AUT + "delta: 0 a 0\n", 1,
         None, None, None),
    # -- unknown row keys
    Case("unknown map row", C2 + "w 0 -> 0\n", 7, None, None, None),
    Case("unknown monodromy row", LOOP + "degree: 2\nsheets: 2\n", 8,
         None, None, None),
    Case("unknown action row", T3 + "group-gen: 1 2 0\nfixes: 0\n", 9,
         None, None, None),
    Case("unknown automaton row", AUT + "states: 1\nstart: 0\n", 4,
         None, None, None),
    Case("unknown fingroupoid row", FG + "compose: i i i\ninverse: i i\n", 6,
         None, None, None),
    # -- group and groupoid constructor errors, reported at the header
    Case("action that breaks the group's relations",
         T3 + "group-gen: 1 0\n" + ROT_BLOCK, 7, None, None, None),
    Case("fingroupoid without its composition", FG, 1, None, None, None),
]


def _name(case):
    return case.name


def raised(call):
    """The error that `call` raises, evaluated against PRELUDE."""
    scope = {}
    exec(PRELUDE, scope)
    with pytest.raises(InputError) as info:
        eval(call, scope)
    return info.value


@pytest.mark.parametrize("case", [c for c in CASES if c.doc], ids=_name)
def test_document_rejected_at_the_offending_row(case):
    with pytest.raises(ParseError) as info:
        parse_document(case.doc)
    assert info.value.line == case.line, str(info.value)


@pytest.mark.parametrize("case", [c for c in CASES if c.call], ids=_name)
def test_constructor_names_the_same_subject(case):
    e = raised(case.call)
    assert isinstance(e, case.error) and e.subject == case.subject


def test_constructor_checks_hold_without_asserts(run_optimized):
    calls = [c for c in CASES if c.call]
    run = run_optimized(
        PRELUDE + "for call in %r:\n"
        "    try:\n        eval(call)\n"
        "    except InputError as e:\n"
        "        print(repr(e.subject))\n"
        "    else:\n        print('accepted')\n" % ([c.call for c in calls],))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [repr(c.subject) for c in calls]


def test_good_versions_of_the_documents_parse():
    # the fixtures are sound, so each case fails for its one fault
    doc = parse_document(C2 + C2_ID)
    assert doc.single("map").vertex_map == {0: 0, 1: 1}
    doc = parse_document(rot2(ROT2_ROWS))
    assert doc.single("action").group.order == 3
    doc = parse_document(LOOP + "degree: 2\nperm: e0 (1 2)\n")
    assert doc.single("monodromy").perms["e0"] == {1: 2, 2: 1}
    doc = parse_document(AUT + "states: 1\ndelta: 0 a 0\n")
    assert doc.single("automaton").n == 1
    doc = parse_document(FG + "compose: i i i\n")
    assert doc.single("fingroupoid").objects == ("x",)
    doc = parse_document(FG2 + "compose: i i i\ncompose: j j j\n")
    assert doc.single("fingroupoid").objects == ("x", "y")
    doc = parse_document(z2_doc("compose: j j j", "compose: j j j"))
    assert len(doc.single("fingroupoid").comp) == 32


@pytest.mark.parametrize("command", ["monodromy", "total"])
def test_repeated_fiber_point_exits_65_at_the_fiber_line(command, tmp_path,
                                                         capsys):
    p = tmp_path / "twice.txt"
    p.write_text(LOOP + "fiber: 1 1 2\nperm: e0 (1 2)\n")
    assert main(["covers", command, str(p)]) == 65
    err = capsys.readouterr().err
    assert "line 7: bad monodromy 'm': fiber point 1 is listed twice" in err
