"""Every definition, every import and every exported name of the package
is reachable.

The package's code counts as used only when something that runs can call
it.  The roots are:
- the statements at module level of each package module, other than its
  imports and its `__all__` (so the command table `cli._COMMANDS` and the
  suite table `suites.SUITES` are roots);
- `main`, the `[project.scripts]` entry of pyproject.toml;
- every attribute name that `perfbench/*.py` reads, such as `run` in
  `mods.cli.run` or `machine` in `report.machine`: the benchmark reaches
  the package through attributes only, so a bare name there, such as a
  local variable `inverse`, is its own;
- the names listed under the README's "Library API" heading, which open
  ROADMAP items will call.

A module-level function or class is reached when a root or a reached
definition names it; a method, once its class is reached, through an
attribute of its name; a dunder method with its class.  A name in the
package resolves in its module: a bare name through the module's own
definitions and its `from .m import` lines, and `x.f` names the
module-level `f` of m only when `x` is a package module m (`from . import
m`).  So an attribute such as `F.conj`, or the name `product` that
`covers` imports from itertools, reaches no package function of that
name.  The roots from `perfbench/` and the README go by name alone.  A
name that a function binds itself (a parameter, a local variable or a
nested definition) is not a use of a module-level name.  An unreached
caller does not count, so one dead name cannot vouch for another.  A
module-level import that its module never names, and does not list in
`__all__`, is dead too.  Every public module-level function and class is
listed in its module's `__all__`.  A README entry leaves the list once
its name has another caller.  These tests read the sources with `ast`
and list the names that break these rules.
"""

import ast
import re
from pathlib import Path

import modalfib

PACKAGE = Path(modalfib.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def trees():
    """module name -> parsed source, for every package module."""
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def named(tree, local=frozenset()):
    """The names a tree uses: the bare names it reads, except those in
    `local`, and the attribute names."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store) \
                and n.id not in local:
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def scopes(modules):
    """module -> (bare name -> the key (module, None, name) of the
    module-level definition it names, local name -> package module it
    names), read off the module's own definitions, its `from .m import`
    lines, followed through re-imports, and its `from . import m` lines."""
    defs = {mod: {n.name for n in tree.body if isinstance(n, DEFS)}
            for mod, tree in modules.items()}
    imports = {mod: {} for mod in modules}
    packaged = {mod: {} for mod in modules}
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        packaged[mod][local] = alias.name
                    else:
                        imports[mod][local] = (node.module, alias.name)

    def resolve(mod, name):
        while name not in defs[mod]:
            if name not in imports[mod]:
                return None
            mod, name = imports[mod][name]
        return mod, None, name

    return {mod: ({n: key for n in defs[mod] | set(imports[mod])
                   if (key := resolve(mod, n))}, packaged[mod])
            for mod in modules}


def uses(tree, scope, mod, local=frozenset()):
    """The definitions that a tree in module `mod` names, by `scope`
    (scopes): a bare name not in `local`, and `m.f` where m names a
    package module."""
    bare, packaged = scope[mod]
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store) \
                and n.id in bare and n.id not in local:
            out.add(bare[n.id])
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in packaged and n.value.id not in local:
            key = scope[packaged[n.value.id]][0].get(n.attr)
            if key:
                out.add(key)
    return out


def bound(fn):
    """The names a function binds itself: its parameters, the names it
    assigns and its nested definitions, less those it declares global."""
    out, free = set(), set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.arg):
            out.add(n.arg)
        elif isinstance(n, DEFS) and n is not fn:
            out.add(n.name)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            free.update(n.names)
    return out - free


def is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def definitions(tree):
    """(class name or None, def) for the module-level functions and
    classes and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield None, node
        if isinstance(node, ast.ClassDef):
            for d in node.body:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, d


def passes_on(node, scope, mod):
    """(definition keys, names) that a reached definition makes
    reachable.  A class passes on its decorators, bases and class-level
    statements, not its methods; a function passes on what it uses and
    does not bind."""
    if isinstance(node, ast.ClassDef):
        keys, names = set(), set()
        for part in node.decorator_list + node.bases + node.keywords + [
                d for d in node.body
                if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]:
            keys |= uses(part, scope, mod)
            names |= named(part)
        return keys, names
    local = bound(node)
    return uses(node, scope, mod, local), named(node, local)


def package_roots(modules):
    """(definition keys, names): `main`, and what the package's
    module-level statements use, imports and `__all__` aside."""
    scope = scopes(modules)
    scripts = (ROOT / "pyproject.toml").read_text()
    keys = {scope[mod][0][name] for mod, name in
            re.findall(r'"modalfib\.(\w+):(\w+)"', scripts)}
    names = set()
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, DEFS + (ast.Import, ast.ImportFrom)) \
                    and not is_all(node):
                keys |= uses(node, scope, mod)
                names |= named(node)
    return keys, names


def bench_names():
    """The attribute names that `perfbench/*.py` reads, as
    `mods.cli.run` or `report.machine`: the benchmark reaches the package
    through attributes only, so a bare name it binds or reads is its
    own."""
    out = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        out |= {n.attr for n in ast.walk(ast.parse(p.read_text(), str(p)))
                if isinstance(n, ast.Attribute)}
    return out


def library_api():
    """The names in backticks in the list items under the README's
    "Library API" heading, up to the next heading of its level: `name`
    for a function or class, `Class.method` for a method.  The prose
    around the list may name anything."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- .*(?:\n  .*)*", section, re.M)
    return set(re.findall(r"`([^`]+)`", "\n".join(items)))


def reach(modules, keys, names=frozenset(), by_name=frozenset()):
    """The definitions reached from the root definition keys, the root
    names and the names in `by_name`, which reach a module-level
    definition of that name in any module, as (module, class or None,
    name) keys; and every name that the roots and those definitions
    use.  A method is reached through a name once its class is reached,
    and a `Class.method` root is such a name."""
    scope = scopes(modules)
    defs = {(mod, cls, d.name): d for mod, tree in modules.items()
            for cls, d in definitions(tree)}
    by_name = {r.split(".")[-1] for r in by_name}
    keys, names = set(keys), set(names) | by_name
    reached = set()
    grew = True
    while grew:
        grew = False
        for (mod, cls, name), d in defs.items():
            if (mod, cls, name) in reached:
                continue
            if cls is not None and ((mod, None, cls) not in reached or not (
                    name in names
                    or name.startswith("__") and name.endswith("__"))):
                continue
            if cls is None and (mod, None, name) not in keys \
                    and name not in by_name:
                continue
            reached.add((mod, cls, name))
            more_keys, more_names = passes_on(d, scope, mod)
            keys |= more_keys
            names |= more_names
            grew = True
    return reached, names


def reach_all(modules):
    """reach from every root: the package's own, and by name the names
    that `perfbench/` uses and the README lists."""
    keys, names = package_roots(modules)
    return reach(modules, keys, names, bench_names() | library_api())


def exported(tree):
    """The names a module lists in `__all__`."""
    for node in tree.body:
        if is_all(node):
            return set(ast.literal_eval(node.value))
    return set()


def module_defs(tree):
    """The functions and classes at module level, by name."""
    return {node.name: node for node in tree.body if isinstance(node, DEFS)}


def test_every_private_function_is_referenced_in_the_package():
    modules = trees()
    reached, _ = reach_all(modules)
    defs = [(mod, cls, d) for mod, tree in modules.items()
            for cls, d in definitions(tree)
            if not isinstance(d, ast.ClassDef) and d.name.startswith("_")
            and not d.name.endswith("__")]
    assert any(d.name == "_fold_darts" for _, _, d in defs)
    unused = ["%s:%d %s" % (mod, d.lineno, d.name) for mod, cls, d in defs
              if (mod, cls, d.name) not in reached]
    assert unused == []


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


def test_every_exported_name_has_a_caller_or_is_library_api():
    modules = trees()
    documented = library_api()
    assert "hfiber" in documented
    reached, names = reach_all(modules)
    # the benchmark's inputs draw from corpus.random_map
    assert "random_map" in bench_names()
    assert ("corpus", None, "random_map") in reached
    unused = []
    for mod, tree in modules.items():
        defs = module_defs(tree)
        for e in sorted(exported(tree)):
            # a constant is reached when reached code or a root reads it
            if ((mod, None, e) not in reached if e in defs
                    else e not in names):
                unused.append("%s %s" % (mod, e))
    assert unused == []


def public_methods(tree):
    """(class name, def) for the public methods, properties included, of
    the module-level classes that a module exports."""
    names = exported(tree)
    for cls, d in definitions(tree):
        if cls in names and not d.name.startswith("_"):
            yield cls, d


def test_every_public_method_has_a_caller_or_is_library_api():
    modules = trees()
    reached, _ = reach_all(modules)
    methods = [(mod, cls, d) for mod, tree in modules.items()
               for cls, d in public_methods(tree)]
    assert any(cls == "FinFunctor" and d.name == "compose"
               for _, cls, d in methods)
    unused = ["%s:%d %s.%s" % (mod, d.lineno, cls, d.name)
              for mod, cls, d in methods if (mod, cls, d.name) not in reached]
    assert unused == []


def test_no_library_api_name_is_reached_otherwise():
    # a README entry names a definition that exists, and leaves the list
    # once the package or the benchmark calls it
    modules = trees()
    documented = library_api()
    defs = {(cls + "." if cls else "") + d.name: (mod, cls, d.name)
            for mod, tree in modules.items() for cls, d in definitions(tree)}
    assert sorted(documented - set(defs)) == []
    keys, names = package_roots(modules)
    reached, _ = reach(modules, keys, names, bench_names())
    assert sorted(n for n in documented if defs[n] in reached) == []


def test_every_public_function_and_class_is_exported():
    missing = []
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        names = exported(tree)
        missing += ["%s:%d %s" % (p.name, d.lineno, name)
                    for name, d in module_defs(tree).items()
                    if not name.startswith("_") and name not in names]
    assert missing == []
