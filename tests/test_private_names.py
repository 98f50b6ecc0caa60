"""Every private function of the package is used inside it.

A private module-level function or method (one `_`, not a dunder) is no
API: if nothing in `src/modalfib` names it outside its own definition, it
is dead code, kept alive only by the tests that call it.  This test reads
the package's sources with `ast` and lists such functions.
"""

import ast
from collections import Counter
from pathlib import Path

import modalfib

PACKAGE = Path(modalfib.__file__).resolve().parent


def referenced(tree):
    """Counter of the names a tree uses: bare names and attributes."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def private_defs(tree):
    """The private functions at module level and in module-level
    classes."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in inner:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and d.name.startswith("_") \
                    and not d.name.endswith("__"):
                yield d


def test_every_private_function_is_referenced_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(referenced(tree))
    defs = [(name, d) for name, tree in trees.items()
            for d in private_defs(tree)]
    assert any(d.name == "_fold_darts" for _, d in defs)
    unused = ["%s:%d %s" % (name, d.lineno, d.name) for name, d in defs
              if uses[d.name] - referenced(d)[d.name] <= 0]
    assert unused == []
