"""Line-oriented text format shared by every command.

A document is a sequence of named sections.  A section starts at the
left margin with ``kind: name ...`` and owns the following lines until
the next section header.  ``#`` starts a comment, blank lines are
skipped, and ids are bare tokens: integers where they look like
integers, strings otherwise.

Section kinds and their body lines:

  graph: NAME            vertices: a b c | edges: id u v | basepoint: v
  map: NAME SRC DST      v u -> w  |  e id -> id' [+|-]  |  e id -> deg
  monodromy: NAME BASE   degree: n (fiber 1..n) or fiber: x y z
                         perm: letter (a b)(c d e)
  action: NAME SPACE     group-gen: p0 p1 ...  followed by its
                         vertex-perm: u -> w  and  edge-perm: e -> e' [+|-]
  groupoid: NAME         graph body lines; parses to the presented shape
  automaton: NAME        letters: a b | states: n | delta: s letter t
  fingroupoid: NAME      objects: a b | morphisms: id src dst
                         identity: obj id | compose: f g h

Maps, monodromy data, and actions refer to graphs defined earlier in
the same document.  Parse errors carry 1-based line numbers.
"""

import re

from .graphs import FinGraph, GraphMap, GraphError, _sorted_ids
from .groupoids import PresGroupoid, shape1
from .automata import SubgroupAutomaton
from .covers import MonodromyAction, CoverError
from .fingroupoids import FinGroupoid, FinGroupoidError
from .quotients import FinGroup, ActionError, graph_action

__all__ = [
    "ParseError", "Document", "parse_document", "serialize_document",
    "serialize_graph", "serialize_map", "serialize_monodromy",
    "serialize_action", "serialize_groupoid", "serialize_automaton",
    "serialize_fingroupoid", "cycles_of_perm", "token",
]

_CYCLE = re.compile(r"\(([^()]*)\)")
_BAD_TOKENS = {"deg", "->", "+", "-", ""}


class ParseError(ValueError):
    def __init__(self, line, message):
        self.line = line
        super().__init__("line %d: %s" % (line, message))


def _is_int(tok):
    """Does the token read as an integer: an optional minus sign, then
    one or more Unicode decimal digits (the strings re's -?\\d+ accepts)?"""
    return (tok[1:] if tok[:1] == "-" else tok).isdecimal()


# Ids repeat across the rows and the documents of a session, so tokens
# are memoized, in at most _ATOM_BOUND entries (about 0.8 MB when full of
# short tokens); a full memo is emptied and starts over.  A dict is used
# rather than functools.lru_cache, whose wrapper builds an argument tuple
# on every call.
_ATOM_BOUND = 8192
_ATOMS = {}


def _atom(tok):
    try:
        return _ATOMS[tok]
    except KeyError:
        pass
    if len(_ATOMS) >= _ATOM_BOUND:
        _ATOMS.clear()
    a = _ATOMS[tok] = int(tok) if _is_int(tok) else tok
    return a


def token(x):
    """Render an id for the text format; not every id is representable."""
    if isinstance(x, bool):
        raise ValueError("boolean ids are not representable")
    if isinstance(x, int):
        return str(x)
    if not isinstance(x, str):
        raise ValueError("id %r is not representable as a token" % (x,))
    if x in _BAD_TOKENS or _is_int(x) or "(" in x or ")" in x \
            or "#" in x or any(c.isspace() for c in x):
        raise ValueError("id %r is not representable as a token" % (x,))
    return x


class Document:
    """Parsed sections in file order."""

    def __init__(self):
        self.entries = {}
        self.kinds = {}
        self.order = []

    def add(self, kind, name, obj):
        if name in self.entries:
            raise ValueError("duplicate section name %r" % (name,))
        self.entries[name] = obj
        self.kinds[name] = kind
        self.order.append(name)

    def of_kind(self, kind):
        return [n for n in self.order if self.kinds[n] == kind]

    def single(self, kind):
        names = self.of_kind(kind)
        if len(names) != 1:
            raise ValueError("document needs exactly one %s section, found %d"
                             % (kind, len(names)))
        return self.entries[names[0]]


# -- parsing ----------------------------------------------------------------


class _Section:
    def __init__(self, kind, name, header_line, args):
        self.kind = kind
        self.name = name
        self.header_line = header_line
        self.args = args
        self.rows = []          # (line_no, key, tokens)


def _uncomment(line):
    return line.split("#", 1)[0] if "#" in line else line


def _before_any_section(row):
    raise ParseError(row[0], "content before any section header")


def _split_sections(text):
    """The sections in file order, each with its rows.  Each line is
    split once; comments are cut only from lines that hold a '#'.  Rows
    go to the section open at the time, and before the first header to
    _before_any_section, which rejects them."""
    lines = text.splitlines()
    if "#" in text:
        lines = list(map(_uncomment, lines))
    sections = []
    add_row = _before_any_section
    for i, toks in enumerate(map(str.split, lines), start=1):
        if not toks:
            continue
        key = head = toks[0]
        if head[-1] == ":":
            key = head[:-1]
            # a header starts at the left margin (a commented line that
            # starts with '#' has no tokens)
            if key in _KIND_SET and not lines[i - 1][0].isspace():
                if len(toks) < 2:
                    raise ParseError(i, "section %s needs a name" % (head,))
                current = _Section(key, toks[1], i, toks[2:])
                sections.append(current)
                add_row = current.rows.append
                continue
        del toks[0]
        add_row((i, key, toks))
    return sections


def _build_graph(sec, doc):
    verts = []
    edges = []
    bp = None
    for line, key, toks in sec.rows:
        if key == "edges":
            if len(toks) != 3:
                raise ParseError(line, "edges line wants: id tail head")
            e, u, v = toks
            edges.append((_atom(e), _atom(u), _atom(v)))
        elif key == "vertices":
            verts.extend(map(_atom, toks))
        elif key == "basepoint":
            if len(toks) != 1:
                raise ParseError(line, "basepoint wants one vertex")
            if bp is not None:
                raise ParseError(line, "second basepoint line")
            bp = _atom(toks[0])
        else:
            raise ParseError(line, "unknown graph line %r" % (key,))
    try:
        return FinGraph(tuple(verts), tuple(edges), bp)
    except GraphError as e:
        raise ParseError(sec.header_line, str(e))


def _build_groupoid(sec, doc):
    return PresGroupoid(_build_graph(sec, doc))


_SIGNS = {"+": +1, "-": -1}

# The rows that introduce each kind of id a constructor error can name.
_INTRODUCED_BY = {"vertex": ("v", "vertex-perm"), "edge": ("e", "edge-perm"),
                  "letter": ("perm",), "arrow": ("delta",)}


def _line_of(rows, err, fallback):
    """The line of the first of `rows` that introduced the id the error's
    `subject` names, or `fallback` (a header or block line) when none
    did, as for a missing image.  Only error paths scan the rows."""
    subject = getattr(err, "subject", None)
    if subject is not None:
        kind, x = subject
        for line, key, toks in rows:
            if key in _INTRODUCED_BY[kind] and x == (
                    (_atom(toks[0]), _atom(toks[1])) if kind == "arrow"
                    else _atom(toks[0])):
                return line
    return fallback


def _graph_arg(sec, doc, i, role):
    """The graph that the header's i-th argument names."""
    gname = sec.args[i]
    if doc.kinds.get(gname) != "graph":
        raise ParseError(sec.header_line,
                         "%s graph %r is not defined" % (role, gname))
    return doc.entries[gname]


def _read_images(rows, vkey, ekey, kind):
    """The vertex and edge images of a map section or an action block,
    from its rows `vkey u -> w` and `ekey id -> id' [+|-]` or `ekey id ->
    deg`; and whether some edge image is a bare edge, with its sign left
    to infer."""
    vm = {}
    em = {}             # source edge -> None, (edge, sign) or bare edge
    bare = False
    for line, key, toks in rows:
        # map rows are the bulk of a document: the row checks are written
        # out here rather than called
        if key == vkey:
            if len(toks) != 3 or toks[1] != "->":
                raise ParseError(line, "expected: %s u -> w" % (key,))
            u = _atom(toks[0])
            if u in vm:
                raise ParseError(line, "second %s line for %r" % (key, u))
            vm[u] = _atom(toks[2])
        elif key == ekey:
            n = len(toks)
            s = _SIGNS.get(toks[3]) if n == 4 and toks[2] != "deg" else None
            if (n != 3 and s is None) or toks[1] != "->":
                raise ParseError(line, "expected: %s id -> id' [+|-] or %s "
                                 "id -> deg" % (key, key))
            e = _atom(toks[0])
            if e in em:
                raise ParseError(line, "second %s line for %r" % (key, e))
            if s is not None:
                em[e] = (_atom(toks[2]), s)
            elif toks[2] == "deg":
                em[e] = None
            else:
                em[e] = _atom(toks[2])
                bare = True
        else:
            raise ParseError(line, "unknown %s line %r" % (kind, key))
    return vm, em, bare


def _build_map(sec, doc):
    if len(sec.args) != 2:
        raise ParseError(sec.header_line, "map header wants: name src dst")
    src = _graph_arg(sec, doc, 0, "source")
    dst = _graph_arg(sec, doc, 1, "target")
    vm, em, bare = _read_images(sec.rows, "v", "e", "map")
    try:
        if bare:
            return GraphMap.build(src, dst, vm, em)
        return GraphMap(src, dst, vm, em)
    except GraphError as e:
        raise ParseError(_line_of(sec.rows, e, sec.header_line),
                         "bad map %r: %s" % (sec.name, e))


def _parse_cycles(line, toks, points):
    text = " ".join(toks)
    stripped = _CYCLE.sub("", text).strip()
    if stripped:
        raise ParseError(line, "stray tokens in cycle spec: %r" % (stripped,))
    perm = {p: p for p in points}
    seen = set()
    for body in _CYCLE.findall(text):
        cyc = [_atom(t) for t in body.split()]
        if len(cyc) < 2:
            raise ParseError(line, "cycles need at least two points")
        for p in cyc:
            if p not in perm:
                raise ParseError(line, "unknown fiber point %r" % (p,))
            if p in seen:
                raise ParseError(line, "point %r repeated in cycles" % (p,))
            seen.add(p)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return perm


def _build_monodromy(sec, doc):
    if len(sec.args) != 1:
        raise ParseError(sec.header_line, "monodromy header wants: name base")
    base_graph = _graph_arg(sec, doc, 0, "base")
    if base_graph.basepoint is None:
        raise ParseError(sec.header_line, "base graph needs a basepoint")
    shape = shape1(base_graph)
    letters = shape.components[shape.comp_of[base_graph.basepoint]].letters
    fiber = fiber_line = None
    perm_rows = {}
    for line, key, toks in sec.rows:
        if key in ("degree", "fiber") and fiber is not None:
            raise ParseError(line, "second degree or fiber line")
        if key == "degree":
            if len(toks) != 1 or not _is_int(toks[0]) or int(toks[0]) < 1:
                raise ParseError(line, "degree wants a positive integer")
            fiber = tuple(range(1, int(toks[0]) + 1))
        elif key == "fiber":
            fiber, fiber_line = tuple(_atom(t) for t in toks), line
        elif key == "perm":
            if not toks:
                raise ParseError(line, "perm wants a letter")
            letter = _atom(toks[0])
            if letter in perm_rows:
                raise ParseError(line, "second perm line for %r" % (letter,))
            perm_rows[letter] = (line, toks[1:])
        else:
            raise ParseError(line, "unknown monodromy line %r" % (key,))
    if fiber is None:
        raise ParseError(sec.header_line,
                         "monodromy needs a degree or fiber line")
    # a letter without a perm row acts as the identity
    perms = {l: {p: p for p in fiber} for l in letters}
    for letter, (line, toks) in perm_rows.items():
        perms[letter] = _parse_cycles(line, toks, fiber)
    try:
        return MonodromyAction(shape, base_graph.basepoint, fiber, perms)
    except CoverError as e:
        # a repeated point is the fiber line's fault, not a later row's
        if e.subject is not None and e.subject[0] == "point":
            raise ParseError(fiber_line, str(e))
        raise ParseError(_line_of(sec.rows, e, sec.header_line), str(e))


def _build_action(sec, doc):
    if len(sec.args) != 1:
        raise ParseError(sec.header_line, "action header wants: name space")
    space = _graph_arg(sec, doc, 0, "space")
    gens = []
    blocks = []         # (group-gen line, rows of its block)
    for row in sec.rows:
        line, key, toks = row
        if key == "group-gen":
            try:
                gens.append(tuple(int(t) for t in toks))
            except ValueError:
                raise ParseError(line, "group-gen wants integer images")
            blocks.append((line, []))
        elif key == "vertex-perm" or key == "edge-perm":
            if not blocks:
                raise ParseError(line, "%s before any group-gen" % (key,))
            blocks[-1][1].append(row)
        else:
            raise ParseError(line, "unknown action line %r" % (key,))
    degree = len(gens[0]) if gens else 1
    if any(len(g) != degree for g in gens):
        raise ParseError(sec.header_line, "generators disagree on degree")
    maps = []
    for line, rows in blocks:
        vm, em, _ = _read_images(rows, "vertex-perm", "edge-perm", "action")
        try:
            maps.append(GraphMap.build(space, space, vm, em))
        except GraphError as e:
            raise ParseError(_line_of(rows, e, line),
                             "bad action %r: %s" % (sec.name, e))
    try:
        return graph_action(FinGroup(degree, tuple(gens)), space, maps)
    except (ActionError, GraphError) as e:
        raise ParseError(sec.header_line, "bad action %r: %s" % (sec.name, e))


def _build_automaton(sec, doc):
    letters = []
    n = None
    delta = {}
    for line, key, toks in sec.rows:
        if key == "letters":
            letters.extend(_atom(t) for t in toks)
        elif key == "states":
            if len(toks) != 1 or not _is_int(toks[0]):
                raise ParseError(line, "states wants an integer")
            if n is not None:
                raise ParseError(line, "second states line")
            n = int(toks[0])
        elif key == "delta":
            if len(toks) != 3:
                raise ParseError(line, "delta line wants: state letter state")
            s, a, t = toks
            if not (_is_int(s) and _is_int(t)):
                raise ParseError(line, "states are integers")
            arrow = (int(s), _atom(a))
            if arrow in delta:
                raise ParseError(line, "second delta line for %r %r" % arrow)
            delta[arrow] = int(t)
        else:
            raise ParseError(line, "unknown automaton line %r" % (key,))
    if n is None:
        raise ParseError(sec.header_line, "automaton needs a states line")
    try:
        return SubgroupAutomaton(tuple(letters), n, delta)
    except ValueError as e:
        raise ParseError(_line_of(sec.rows, e, sec.header_line),
                         "bad automaton %r: %s" % (sec.name, e))


def _build_fingroupoid(sec, doc):
    objs = []
    mors = []
    src = {}
    dst = {}
    comp = {}
    ident = {}
    for line, key, toks in sec.rows:
        if key == "objects":
            objs.extend(_atom(t) for t in toks)
        elif key == "morphisms":
            if len(toks) != 3:
                raise ParseError(line, "morphisms line wants: id src dst")
            m, a, b = (_atom(t) for t in toks)
            if m in src:
                raise ParseError(line, "second morphisms line for %r" % (m,))
            mors.append(m)
            src[m] = a
            dst[m] = b
        elif key == "identity":
            if len(toks) != 2:
                raise ParseError(line, "identity line wants: object morphism")
            o = _atom(toks[0])
            if o in ident:
                raise ParseError(line, "second identity line for %r" % (o,))
            ident[o] = _atom(toks[1])
        elif key == "compose":
            if len(toks) != 3:
                raise ParseError(line, "compose line wants: f g h")
            f, g, h = (_atom(t) for t in toks)
            if (f, g) in comp:
                raise ParseError(line, "second compose line for %r %r"
                                 % (f, g))
            comp[(f, g)] = h
        else:
            raise ParseError(line, "unknown fingroupoid line %r" % (key,))
    try:
        return FinGroupoid(tuple(objs), tuple(mors), src, dst, comp, ident)
    except FinGroupoidError as e:
        raise ParseError(sec.header_line,
                         "bad fingroupoid %r: %s" % (sec.name, e))


_BUILDERS = {
    "graph": _build_graph, "map": _build_map, "monodromy": _build_monodromy,
    "action": _build_action, "groupoid": _build_groupoid,
    "automaton": _build_automaton, "fingroupoid": _build_fingroupoid,
}
SECTION_KINDS = tuple(_BUILDERS)
_KIND_SET = frozenset(_BUILDERS)


def parse_document(text):
    doc = Document()
    for sec in _split_sections(text):
        obj = _BUILDERS[sec.kind](sec, doc)
        try:
            doc.add(sec.kind, sec.name, obj)
        except ValueError as e:
            raise ParseError(sec.header_line, str(e))
    return doc


# -- serialization ----------------------------------------------------------


def _graph_body(g):
    out = []
    if g.vertices:
        out.append("vertices: " + " ".join(token(v) for v in g.vertices))
    for eid, u, v in g.edges:
        out.append("edges: %s %s %s" % (token(eid), token(u), token(v)))
    if g.basepoint is not None:
        out.append("basepoint: " + token(g.basepoint))
    return out


def serialize_graph(name, g):
    return "\n".join(["graph: " + token(name)] + _graph_body(g)) + "\n"


def _image_rows(f, vkey, ekey):
    """The rows of the map f that `_read_images` reads back."""
    out = ["%s %s -> %s" % (vkey, token(u), token(f.vertex_map[u]))
           for u in f.source.vertices]
    for e in f.source.edge_ids():
        img = f.edge_map[e]
        to = "deg" if img is None else \
            "%s %s" % (token(img[0]), "+" if img[1] > 0 else "-")
        out.append("%s %s -> %s" % (ekey, token(e), to))
    return out


def serialize_map(name, f, src_name, dst_name):
    out = ["map: %s %s %s" % (token(name), token(src_name), token(dst_name))]
    return "\n".join(out + _image_rows(f, "v", "e")) + "\n"


def cycles_of_perm(perm):
    """Disjoint-cycle rendering of a permutation dict; fixed points
    omitted, identity rendered as the empty string."""
    seen = set()
    out = []
    for start in _sorted_ids(perm):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        out.append("(" + " ".join(token(p) for p in cyc) + ")")
    return "".join(out)


def serialize_monodromy(name, m, base_name):
    out = ["monodromy: %s %s" % (token(name), token(base_name))]
    n = len(m.fiber)
    if m.fiber == tuple(range(1, n + 1)):
        out.append("degree: %d" % n)
    else:
        out.append("fiber: " + " ".join(token(p) for p in m.fiber))
    for letter in m.letters:
        cyc = cycles_of_perm(m.perms[letter])
        if cyc:
            out.append("perm: %s %s" % (token(letter), cyc))
    return "\n".join(out) + "\n"


def serialize_action(name, a, space_name):
    out = ["action: %s %s" % (token(name), token(space_name))]
    for gen in a.group.generators:
        out.append("group-gen: " + " ".join(str(i) for i in gen))
        out += _image_rows(a.maps[gen], "vertex-perm:", "edge-perm:")
    return "\n".join(out) + "\n"


def serialize_groupoid(name, shape):
    return "\n".join(["groupoid: " + token(name)]
                     + _graph_body(shape.graph)) + "\n"


def serialize_automaton(name, a):
    out = ["automaton: " + token(name)]
    if a.letters:
        out.append("letters: " + " ".join(token(l) for l in a.letters))
    out.append("states: %d" % a.n)
    for (s, l), t in a.transitions():
        out.append("delta: %d %s %d" % (s, token(l), t))
    return "\n".join(out) + "\n"


def serialize_fingroupoid(name, q):
    out = ["fingroupoid: " + token(name)]
    if q.objects:
        out.append("objects: " + " ".join(token(o) for o in q.objects))
    for m in q.morphisms:
        out.append("morphisms: %s %s %s"
                   % (token(m), token(q.src[m]), token(q.dst[m])))
    for o in q.objects:
        out.append("identity: %s %s" % (token(o), token(q.ident[o])))
    for f, g in _sorted_ids(q.comp):
        out.append("compose: %s %s %s"
                   % (token(f), token(g), token(q.comp[f, g])))
    return "\n".join(out) + "\n"


def _find_graph_name(doc, g, what):
    for n in doc.of_kind("graph"):
        if doc.entries[n] == g:
            return n
    raise ValueError("document has no graph section for the %s" % (what,))


def serialize_document(doc):
    parts = []
    for name in doc.order:
        kind = doc.kinds[name]
        obj = doc.entries[name]
        if kind == "graph":
            parts.append(serialize_graph(name, obj))
        elif kind == "map":
            parts.append(serialize_map(
                name, obj,
                _find_graph_name(doc, obj.source, "map source"),
                _find_graph_name(doc, obj.target, "map target")))
        elif kind == "monodromy":
            parts.append(serialize_monodromy(
                name, obj, _find_graph_name(doc, obj.shape.graph,
                                            "monodromy base")))
        elif kind == "action":
            parts.append(serialize_action(
                name, obj, _find_graph_name(doc, obj.space, "action space")))
        elif kind == "groupoid":
            parts.append(serialize_groupoid(name, obj))
        elif kind == "automaton":
            parts.append(serialize_automaton(name, obj))
        else:
            parts.append(serialize_fingroupoid(name, obj))
    return "\n".join(parts)
