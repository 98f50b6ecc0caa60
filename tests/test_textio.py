import os
import subprocess
import sys
from pathlib import Path

import pytest

import modalfib
from modalfib.graphs import FinGraph, GraphMap, cycle
from modalfib.groupoids import shape1
from modalfib.corpus import figure_eight
from modalfib.automata import SubgroupAutomaton
from modalfib.covers import MonodromyAction, monodromy, CoverMap
from modalfib.fingroupoids import FinGroupoid
from modalfib.quotients import cyclic_group, graph_action
from modalfib.textio import (
    Document, ParseError, cycles_of_perm, parse_document,
    serialize_document, serialize_graph, token,
)


def named_b2():
    """Two-element vertex group on one object, atomic morphism ids."""
    comp = {("u", "u"): "u", ("u", "t"): "t",
            ("t", "u"): "t", ("t", "t"): "u"}
    return FinGroupoid(("o",), ("t", "u"), {"t": "o", "u": "o"},
                       {"t": "o", "u": "o"}, comp, {"o": "u"})


def hexagon_to_triangle():
    hexa = cycle(6)
    tri = cycle(3)
    return GraphMap.build(
        hexa, tri,
        {i: i % 3 for i in range(6)},
        {"e%d" % i: "e%d" % (i % 3) for i in range(6)})


def full_document():
    """One document exercising every section kind."""
    doc = Document()
    hexa = cycle(6)
    tri = cycle(3)
    wrap = hexagon_to_triangle()
    doc.add("graph", "hexagon", hexa)
    doc.add("graph", "triangle", tri)
    doc.add("graph", "wedge", figure_eight())
    doc.add("map", "wrap", wrap)
    doc.add("monodromy", "five",
            MonodromyAction(shape1(figure_eight()), "w",
                            (1, 2, 3, 4, 5),
                            {"l0": {1: 2, 2: 1, 3: 3, 4: 4, 5: 5},
                             "l1": {1: 1, 2: 2, 3: 5, 4: 3, 5: 4}}))
    doc.add("action", "rot",
            graph_action(cyclic_group(3), tri,
                         [GraphMap.build(
                             tri, tri, {0: 1, 1: 2, 2: 0},
                             {"e0": "e1", "e1": "e2", "e2": "e0"})]))
    doc.add("groupoid", "tri-shape", shape1(tri))
    doc.add("automaton", "sub",
            SubgroupAutomaton.from_words(("a", "b"),
                             [(("a", 1), ("a", 1)), (("b", 1),)]))
    doc.add("fingroupoid", "b2", named_b2())
    return doc


# ---------------------------------------------------------------------------
# round-trip: parse after serialize reproduces every section

def test_serialize_then_parse_is_fixpoint():
    text = serialize_document(full_document())
    again = serialize_document(parse_document(text))
    assert text == again


def test_round_trip_preserves_graph_and_map_values():
    doc = parse_document(serialize_document(full_document()))
    assert doc.single("map") == hexagon_to_triangle()
    kinds = [doc.kinds[name] for name in doc.order]
    assert sorted(set(kinds)) == ["action", "automaton", "fingroupoid",
                                  "graph", "groupoid", "map", "monodromy"]


def test_round_trip_preserves_monodromy_fields():
    doc = parse_document(serialize_document(full_document()))
    m = doc.single("monodromy")
    assert m.base == "w"
    assert m.fiber == (1, 2, 3, 4, 5)
    assert m.perms["l0"][1] == 2
    assert m.perms["l1"][3] == 5
    assert [len(o) for o in m.orbits()] == [2, 3]


def test_round_trip_preserves_action_tables():
    doc = parse_document(serialize_document(full_document()))
    a = doc.single("action")
    assert a.group.order == 3
    assert a == full_document().entries["rot"]
    gen = next(g for g in a.group.elements if g != a.group.identity)
    assert a.maps[gen].vertex_map in ({0: 1, 1: 2, 2: 0},
                                      {0: 2, 1: 0, 2: 1})


def test_round_trip_preserves_automaton_and_fingroupoid():
    doc = parse_document(serialize_document(full_document()))
    aut = doc.single("automaton")
    ref = SubgroupAutomaton.from_words(("a", "b"),
                             [(("a", 1), ("a", 1)), (("b", 1),)])
    assert aut.same(ref)
    q = doc.single("fingroupoid")
    assert len(q.objects) == 1 and len(q.morphisms) == 2
    m = [x for x in q.morphisms if x not in q.ident.values()][0]
    assert q.comp[(m, m)] == q.ident[q.objects[0]]


def test_compose_rows_follow_id_order():
    # ids 9 and 10 sort differently as strings and as ints
    comp = {(9, 9): 9, (9, 10): 10, (10, 9): 10, (10, 10): 9}
    q = FinGroupoid(("o",), (9, 10), {9: "o", 10: "o"}, {9: "o", 10: "o"},
                    comp, {"o": 9})
    doc = Document()
    doc.add("fingroupoid", "z2", q)
    text = serialize_document(doc)
    assert [l for l in text.splitlines() if l.startswith("compose:")] == [
        "compose: 9 9 9", "compose: 9 10 10",
        "compose: 10 9 10", "compose: 10 10 9"]
    again = parse_document(text).single("fingroupoid")
    assert again.comp == comp
    assert serialize_document(parse_document(text)) == text


def test_parse_accepts_comments_and_blank_lines():
    text = """
# leading comment
graph: g
vertices: 0 1

# interior comment
edges: e 0 1
basepoint: 0
"""
    g = parse_document(text).single("graph")
    assert g == FinGraph((0, 1), (("e", 0, 1),), 0)


# ---------------------------------------------------------------------------
# parse errors carry line numbers

def err(text):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    return str(info.value)


def test_dangling_edge_endpoint_reported_with_line():
    # graph bodies are order-independent, so the complaint lands on the
    # section header line
    msg = err("graph: g\nvertices: 0\nedges: e 0 7\n")
    assert msg.startswith("line 1:")
    assert "'e'" in msg


def test_map_target_vertex_errors_name_their_line():
    msg = err("graph: a\nvertices: 0\n\ngraph: b\nvertices: 1\n\n"
              "map: f a b\nv 0 -> 9\n")
    assert msg.startswith("line 8:")


def test_content_before_header_rejected():
    assert err("vertices: 0\n").startswith("line 1:")


def test_undefined_source_graph_rejected():
    msg = err("map: f nope alsono\n")
    assert "nope" in msg


def test_duplicate_section_names_rejected():
    msg = err("graph: g\nvertices: 0\n\ngraph: g\nvertices: 1\n")
    assert "g" in msg


def test_unknown_section_kind_rejected():
    assert err("widget: w\n").startswith("line 1:")


def test_unknown_row_key_rejected():
    msg = err("graph: g\nvertices: 0\nwidget: 1\n")
    assert msg.startswith("line 3:") and "widget" in msg


def test_incomplete_map_rejected_at_header():
    msg = err("graph: a\nvertices: 0 1\nedges: e 0 1\n\n"
              "graph: b\nvertices: 2\nedges: f 2 2\n\n"
              "map: p a b\nv 0 -> 2\ne e -> f +\n")
    assert "1" in msg          # the unmapped vertex is named


def test_unfolded_automaton_rejected():
    msg = err("automaton: a\nletters: x\nstates: 2\n"
              "delta: 0 x 1\ndelta: 1 x 1\n")
    assert "folded" in msg


def test_monodromy_needs_pointed_base():
    msg = err("graph: g\nvertices: 0\nedges: l 0 0\n\n"
              "monodromy: m g\ndegree: 2\n")
    assert "basepoint" in msg


def test_monodromy_rejects_foreign_letter():
    msg = err("graph: g\nvertices: 0\nedges: l 0 0\nbasepoint: 0\n\n"
              "monodromy: m g\ndegree: 2\nperm: zz (1 2)\n")
    assert "zz" in msg


# a repeated row is rejected at its own line; none overrides another

CIRCLE = "graph: g\nvertices: 0\nedges: l 0 0\nbasepoint: 0\n\n"
B2_ROWS = ("fingroupoid: q\nobjects: o\nmorphisms: u o o\nmorphisms: t o o\n"
           "identity: o u\ncompose: u u u\ncompose: u t t\n"
           "compose: t u t\ncompose: t t u\n")


def test_second_basepoint_rejected_at_its_line():
    msg = err("graph: g\nvertices: 0 1\nbasepoint: 0\nbasepoint: 1\n")
    assert msg.startswith("line 4:") and "basepoint" in msg


@pytest.mark.parametrize("rows", ["degree: 2\ndegree: 3\n",
                                  "fiber: a b\nfiber: a b\n",
                                  "degree: 2\nfiber: a b\n"])
def test_second_fiber_line_rejected_at_its_line(rows):
    msg = err(CIRCLE + "monodromy: m g\n" + rows)
    assert msg.startswith("line 8:")


def test_repeated_perm_letter_rejected_at_its_line():
    msg = err(CIRCLE + "monodromy: m g\ndegree: 3\n"
              "perm: l (1 2)\nperm: l (2 3)\n")
    assert msg.startswith("line 9:") and "'l'" in msg


def test_repeated_identity_object_rejected_at_its_line():
    parse_document(B2_ROWS)
    msg = err(B2_ROWS + "identity: o t\n")
    assert msg.startswith("line 10:") and "'o'" in msg


def test_repeated_compose_pair_rejected_at_its_line():
    msg = err(B2_ROWS + "compose: t t t\n")
    assert msg.startswith("line 10:") and "'t' 't'" in msg


@pytest.mark.parametrize("rows, line", [
    (B2_ROWS + "morphisms: t o o\n", 10),
    # the second row would make k a loop at b, and the rest a groupoid
    ("fingroupoid: q\nobjects: a b\nmorphisms: ia a a\nmorphisms: ib b b\n"
     "morphisms: k a b\nmorphisms: k b b\nidentity: a ia\nidentity: b ib\n"
     "compose: ia ia ia\ncompose: ib ib ib\ncompose: ib k k\n"
     "compose: k ib k\ncompose: k k ib\n", 6),
    # the second row would leave a without its identity
    ("fingroupoid: q\nobjects: a b\nmorphisms: i a a\nmorphisms: i b b\n"
     "identity: a i\nidentity: b i\ncompose: i i i\n", 4),
])
def test_repeated_morphism_id_rejected_at_its_line(rows, line):
    msg = err(rows)
    assert msg.startswith("line %d:" % line) and "second morphisms" in msg


def test_repeated_delta_row_rejected_at_its_line():
    msg = err("automaton: a\nletters: x\nstates: 2\n"
              "delta: 0 x 1\ndelta: 0 x 0\n")
    assert msg.startswith("line 5:") and "0 'x'" in msg


def test_out_of_range_delta_state_rejected_at_its_row():
    # the states line comes after the offending row
    msg = err("automaton: a\nletters: x\ndelta: 0 x 0\n"
              "delta: 1 x 2\nstates: 2\n")
    assert msg.startswith("line 4:") and "out of range" in msg


def test_undeclared_delta_letter_rejected_at_its_row():
    msg = err("automaton: a\nletters: x\nstates: 1\n"
              "delta: 0 x 0\ndelta: 0 y 0\n")
    assert msg.startswith("line 5:") and "'y' not declared" in msg


def test_second_states_line_rejected_at_its_line():
    msg = err("automaton: a\nletters: x\nstates: 2\nstates: 3\n")
    assert msg.startswith("line 4:") and "states" in msg


# a loop at one vertex over a loop at one vertex; line 11 is the map row
LOOP_TO_LOOP = ("graph: a\nvertices: 0\nedges: l 0 0\n\n"
                "graph: b\nvertices: 0\nedges: k 0 0\n\n"
                "map: f a b\nv 0 -> 0\ne l -> k +\n")


def test_repeated_map_vertex_row_rejected_at_its_line():
    parse_document(LOOP_TO_LOOP)
    msg = err(LOOP_TO_LOOP + "v 0 -> 0\n")
    assert msg.startswith("line 12:") and "v line for 0" in msg


@pytest.mark.parametrize("row", ["e l -> k +\n", "e l -> deg\n"])
def test_repeated_map_edge_row_rejected_at_its_line(row):
    msg = err(LOOP_TO_LOOP + row)
    assert msg.startswith("line 12:") and "e line for 'l'" in msg


def test_unfolded_automaton_rejected_without_asserts(tmp_path):
    # foldedness is a real check, so it holds under python -O as well
    p = tmp_path / "unfolded.txt"
    p.write_text("automaton: a\nletters: x\nstates: 2\n"
                 "delta: 0 x 1\ndelta: 1 x 1\n")
    src = str(Path(modalfib.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "modalfib.cli", "classify", str(p)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 65
    assert "not folded" in run.stderr


# ---------------------------------------------------------------------------
# token and cycle rendering

def test_token_rejects_unrepresentable_values():
    assert token("ab") == "ab" and token(-3) == "-3"
    for bad in (True, "deg", "->", "3", "", "a b", "(x)", None):
        with pytest.raises(ValueError):
            token(bad)


def test_cycle_rendering_rows():
    assert cycles_of_perm({1: 1, 2: 2}) == ""
    assert cycles_of_perm({1: 2, 2: 1, 3: 3}) == "(1 2)"
    assert cycles_of_perm({1: 2, 2: 1, 3: 5, 4: 3, 5: 4}) == "(1 2)(3 5 4)"


def test_serialize_graph_shape():
    text = serialize_graph("g", FinGraph((0, 1), (("e", 0, 1),), 1))
    assert text.splitlines() == [
        "graph: g", "vertices: 0 1", "edges: e 0 1", "basepoint: 1"]
