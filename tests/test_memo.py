"""Lazily built indexes are `graphs._memo` attributes.

Each one is built on its first read, once, and then kept on the instance,
where every later read finds it; it changes neither `==` nor `repr`, and
read on the class it is the descriptor.  An `ast` gate keeps hand-rolled
memos out of the package: no `functools.cached_property`, and no
`except AttributeError`.  The mutation harness (`tests/mutants.py`)
rebinds a `_memo` field on its class, so the functor's fiber analysis
is kept in such fields too.
"""

import ast
from pathlib import Path

import pytest

import modalfib
from modalfib.automata import SubgroupAutomaton
from modalfib.fingroupoids import FinFunctor, FinGroupoid
from modalfib.graphs import FinGraph, GraphMap, _memo
from lib_fingroupoids import connected_groupoid, identity_fin_functor
from lib_graphs import cycle

PACKAGE = Path(modalfib.__file__).resolve().parent


def triangle_with_loop():
    return FinGraph((0, 1, 2), (("a", 0, 1), ("b", 1, 2), ("c", 2, 0),
                                ("d", 1, 1)), 0)


def collapsing_map():
    # a and the loop d collapse into the piece {0, 1}, of rank 1
    return GraphMap.build(triangle_with_loop(), cycle(2), {0: 0, 1: 0, 2: 1},
                          {"a": None, "b": "e0", "c": "e1", "d": None})


FACTORIES = {
    FinGraph: triangle_with_loop,
    GraphMap: collapsing_map,
    FinGroupoid: lambda: connected_groupoid(("x", "y"), "c3"),
    FinFunctor: lambda: identity_fin_functor(
        connected_groupoid(("x", "y"), "c3")),
    SubgroupAutomaton: lambda: SubgroupAutomaton.from_words(
        ("a", "b"), [(("a", 1), ("a", 1)), (("b", 1), ("a", -1))]),
}

MEMOS = [(cls, name) for cls in FACTORIES
         for name, d in vars(cls).items() if isinstance(d, _memo)]


def test_the_memo_attributes_are_these():
    assert sorted("%s.%s" % (cls.__name__, name) for cls, name in MEMOS) == [
        "FinFunctor._classes_over", "FinFunctor._fiber_classes",
        "FinFunctor._fiber_trivial",
        "FinGraph._adjacency", "FinGraph._edge_ids", "FinGraph._forest",
        "FinGraph.ends",
        "FinGroupoid._check_plan", "FinGroupoid._hom_positions",
        "FinGroupoid._homs_memo", "FinGroupoid._out_index",
        "GraphMap.components_over", "GraphMap.edges_over",
        "GraphMap.piece_ranks", "GraphMap.pieces", "GraphMap.pieces_over",
        "GraphMap.preimages",
        "SubgroupAutomaton._columns",
    ]


@pytest.mark.parametrize("cls, name", MEMOS,
                         ids=["%s.%s" % (c.__name__, n) for c, n in MEMOS])
def test_memo_is_built_once_and_kept_on_the_instance(cls, name,
                                                     monkeypatch):
    memo = vars(cls)[name]
    assert getattr(cls, name) is memo
    built = []
    fn = memo.fn
    monkeypatch.setattr(memo, "fn", lambda obj: built.append(obj) or fn(obj))
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    equal, text = a == b, repr(a)
    assert name not in vars(a)
    first = getattr(a, name)
    assert getattr(a, name) is first
    assert len(built) == 1 and built[0] is a
    assert vars(a)[name] is first
    assert (a == b) == equal and repr(a) == text
    assert getattr(cls, name) is memo


def handled_names(handler):
    return {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)} \
        if handler.type is not None else set()


def test_no_module_hand_rolls_a_memo():
    cached, by_hand = [], []
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "cached_property":
                cached.append("%s:%d" % (p.name, node.lineno))
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else [node]
            for d in inner:
                if isinstance(d, ast.FunctionDef) and any(
                        isinstance(h, ast.ExceptHandler)
                        and "AttributeError" in handled_names(h)
                        for h in ast.walk(d)):
                    by_hand.append("%s %s" % (p.name, d.name))
    assert cached == []
    assert by_hand == []
