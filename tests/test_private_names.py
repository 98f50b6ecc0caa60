"""Every private function, every import and every exported name of the
package is used.

A private module-level function or method (one `_`, not a dunder) is no
API: if nothing in `src/modalfib` names it outside its own definition, it
is dead code, kept alive only by the tests that call it.  A module-level
import that its module never names, and does not list in `__all__`, is
dead too.  A name in a module's `__all__` is public: it needs a caller in
the package or in `perfbench/`, or a line under the README's "Library
API" heading, which names the fixtures, oracles and builders kept for
callers outside the package.  The public methods of an exported class
follow the same rule, and a README line names one as `Class.method`.
Every public module-level function and class is listed in its module's
`__all__`.  These tests read the sources with `ast` and list the names
that break these rules.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import modalfib

PACKAGE = Path(modalfib.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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


def exported(tree):
    """The names a module lists in `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_module_level_import_is_used():
    unused = []
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        # only bare names count: an attribute of the same name is not a
        # use of the import
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (p.name, node.lineno,
                                                    name))
    assert unused == []


def module_defs(tree):
    """The functions and classes at module level, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def library_api():
    """The names in backticks under the README's "Library API" heading,
    up to the next heading of its level."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([^`]+)`", section))


def test_every_exported_name_has_a_caller_or_is_library_api():
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(referenced(tree))
    bench = Counter()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        bench.update(referenced(ast.parse(p.read_text(), str(p))))
    documented = library_api()
    assert {"random_map", "trunc0", "natural_iso"} <= documented
    unused = []
    for name, tree in trees.items():
        defs = module_defs(tree)
        for e in sorted(exported(tree)):
            own = referenced(defs[e])[e] if e in defs else 0
            if uses[e] - own <= 0 and not bench[e] and e not in documented:
                unused.append("%s %s" % (name, e))
    assert unused == []


def attributes(tree):
    """Counter of the attribute names a tree uses: a method is reached
    only through an attribute."""
    return Counter(n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute))


def public_methods(tree):
    """(class name, def) for the public methods, properties included, of
    the module-level classes that a module exports."""
    names = exported(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in names:
            for d in node.body:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not d.name.startswith("_"):
                    yield node.name, d


def test_every_public_method_has_a_caller_or_is_library_api():
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(attributes(tree))
    bench = Counter()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        bench.update(attributes(ast.parse(p.read_text(), str(p))))
    documented = library_api()
    methods = [(name, cls, d) for name, tree in trees.items()
               for cls, d in public_methods(tree)]
    assert any(cls == "FinFunctor" and d.name == "compose"
               for _, cls, d in methods)
    unused = ["%s:%d %s.%s" % (name, d.lineno, cls, d.name)
              for name, cls, d in methods
              if uses[d.name] - attributes(d)[d.name] <= 0
              and not bench[d.name]
              and "%s.%s" % (cls, d.name) not in documented]
    assert unused == []


def test_every_public_function_and_class_is_exported():
    missing = []
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        names = exported(tree)
        missing += ["%s:%d %s" % (p.name, d.lineno, name)
                    for name, d in module_defs(tree).items()
                    if not name.startswith("_") and name not in names]
    assert missing == []
