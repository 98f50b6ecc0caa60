"""The mutation ratchet: every checked-in mutant of `mutants.py` stays
caught on the fixed sample of 100 functors of each kind.

A mutant pinned as caught fails the test when a suite check catches it
on fewer samples than its floor; one caught only by crashing has a floor
on the samples that raised.  A known survivor (a FOUND line in
CHANGES.md names it) must still change verdicts and still escape every
suite check, so a change that starts to catch it fails here until its
status is updated.

The harness binds a mutant of a `_memo` field on its class and a mutant
of a module function in every package module that imports it, and puts
every binding back afterwards; two throwaway graph mutants, which are
not scored, show both.  It refuses a function that a package table
holds, which no rebinding would reach.
"""

import pytest

from modalfib import classify, graphs, quotients
from modalfib.graphs import FinGraph, GraphMap, terminal_map
from modalfib.quotients import cyclic_group, graph_action
from lib_graphs import path_graph
from mutants import (MODULES, MUTANTS, HeldMutant, Mutant, StaleMutant,
                     bound, compile_mutant, resolve, score_all)

PER_KIND = 100

# mutant -> (floor on samples caught by a suite check, floor on samples
# that raised); SURVIVES for a known survivor
SURVIVES = None
EXPECTED = {
    "fiber_pass_first": (93, 0),
    "fiber_pass_last": (147, 0),
    "fiber_aut_trivial": SURVIVES,
    "classes_over_last": (350, 0),
    "class_codes_index1": (46, 0),
    "transport_inverse": (0, 141),
    "transport_loops_identity": (174, 0),
    "pullback_y_gens": (46, 0),
    "pullback_want": (81, 0),
}


@pytest.fixture(scope="module")
def scores():
    base, scores = score_all(PER_KIND)
    assert len(base) == 4 * PER_KIND
    # unmutated, every suite check holds on every sample
    assert all(holds for _, holds, _ in base)
    return scores


def test_every_mutant_has_an_expected_status():
    assert [m.name for m in MUTANTS] == list(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_mutant_keeps_its_status(scores, name):
    s = scores[name]
    assert s.changed > 0
    if EXPECTED[name] is SURVIVES:
        assert (s.caught, s.raised) == (0, 0), \
            "a known survivor is now caught: update its status"
        return
    caught, raised = EXPECTED[name]
    assert s.caught >= caught
    assert s.raised >= raised


@pytest.mark.parametrize("old", ["for s in S._gens[1:]:", "S"])
def test_stale_mutant_fails_loudly(old):
    # an old text that is gone, or occurs more than once, is refused
    # before the mutant runs, in a `_memo` field as in a module function
    for path in ("fingroupoids.FinFunctor._fiber_classes",
                 "fingroupoids._transport"):
        with pytest.raises(StaleMutant):
            compile_mutant(Mutant("stale", path, old, "pass"))


def bindings():
    """Every name bound in a package module or on one of its classes,
    with the object bound to it."""
    out = {}
    for m in MODULES:
        for k, v in vars(m).items():
            out[m.__name__, k] = v
            if isinstance(v, type) and v.__module__ == m.__name__:
                out.update(((m.__name__, k, a), w)
                           for a, w in vars(v).items())
    return out


def assert_unchanged(before):
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_mutants_leave_the_module_as_it_was():
    before = bindings()
    originals = {m.function: resolve(m.function)[2] for m in MUTANTS}
    score_all(1)
    assert {p: resolve(p)[2] for p in originals} == originals
    assert_unchanged(before)


def test_bound_rebinds_a_memo_field_and_a_module_function():
    before = bindings()
    # a `_memo` field: the pieces of a map skip its last edge
    pieces = compile_mutant(Mutant(
        "pieces_last", "graphs.GraphMap.pieces",
        "for e, u, v in self.source.edges:",
        "for e, u, v in self.source.edges[:-1]:"))
    with bound("graphs.GraphMap.pieces", pieces):
        assert vars(GraphMap)["pieces"] is pieces
        assert terminal_map(path_graph(3)).pieces == {0: 0, 1: 0, 2: 2}
    assert terminal_map(path_graph(3)).pieces == {0: 0, 1: 0, 2: 0}
    assert_unchanged(before)

    # a module function that classify and quotients import by name: every
    # composite with a vertex then fails
    composes_to = compile_mutant(Mutant(
        "composes_to_vertex", "graphs._composes_to",
        "if hv[x] != gv[y]:", "if hv[x] == gv[y]:"))
    f = terminal_map(path_graph(3))
    g = FinGraph((0, 1), ())
    swap = [GraphMap(g, g, {0: 1, 1: 0}, {})]
    with bound("graphs._composes_to", composes_to):
        assert graphs._composes_to is composes_to
        assert classify._composes_to is composes_to
        assert quotients._composes_to is composes_to
        with pytest.raises(classify.FactorError):
            classify.factor0(f)
        with pytest.raises(quotients.ActionError):
            graph_action(cyclic_group(2), g, swap)
    assert classify.factor0(f)[0].vertices == (0,)
    assert graph_action(cyclic_group(2), g, swap).orbit(0) == (0, 1)
    assert_unchanged(before)


@pytest.mark.parametrize("path, old, table", [
    ("cli._cmd_classify", "doc = request.documents[0]", "cli._COMMANDS"),
    ("suites._closure_step", "return None", "suites.SUITES"),
])
def test_bound_refuses_a_function_that_a_table_holds(path, old, table):
    # `cli.run` reads the handler from its row of `_COMMANDS`, and the
    # suites read `_closure_step` from `SUITES`, so a rebound name would
    # leave them calling the original: a silent no-op
    before = bindings()
    fn = compile_mutant(Mutant("raises", path, old, "raise RuntimeError"))
    with pytest.raises(HeldMutant, match=table):
        with bound(path, fn):
            pass
    assert_unchanged(before)
