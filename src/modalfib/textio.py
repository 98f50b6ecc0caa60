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

The builders check only what the text alone shows: row shapes, signs
and repeated rows.  Every other invariant is the constructor's, which
raises graphs.InputError naming the offending id as its `subject`.
parse_document turns that one error type into a ParseError, "bad KIND
NAME: ...", at the row that introduced the id (_line_of), or at the
section header when no row did.
"""

import re

from .graphs import FinGraph, GraphMap, InputError, _sorted_ids
from .groupoids import PresGroupoid, shape1
from .automata import SubgroupAutomaton
from .covers import MonodromyAction
from .fingroupoids import FinGroupoid
from .quotients import graph_action, permutation_group

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
# short tokens); a full memo is emptied and starts over.  The builders
# read the memo by subscript, so a token seen before costs one dict
# lookup and no Python call; only a new token reaches __missing__.
_ATOM_BOUND = 8192


class _Atoms(dict):
    """dict token -> id, filled on the first lookup of each token."""

    __slots__ = ()

    def __missing__(self, tok):
        if len(self) >= _ATOM_BOUND:
            self.clear()
        a = self[tok] = int(tok) if _is_int(tok) else tok
        return a


_ATOMS = _Atoms()


def _atom(tok):
    return _ATOMS[tok]


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
            raise InputError("duplicate section name %r" % (name,))
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
        # (line_no, tokens); tokens[0] is the row's head as written, with
        # or without its colon
        self.rows = []


def _uncomment(line):
    return line.split("#", 1)[0] if "#" in line else line


def _before_any_section(row):
    raise ParseError(row[0], "content before any section header")


def _split_sections(text):
    """The sections in file order, each with its rows.  Each line is
    split once, and its token list is the row; comments are cut only
    from lines that hold a '#'.  Rows go to the section open at the
    time, and before the first header to _before_any_section, which
    rejects them."""
    lines = text.splitlines()
    if "#" in text:
        lines = list(map(_uncomment, lines))
    sections = []
    add_row = _before_any_section
    for i, toks in enumerate(map(str.split, lines), start=1):
        if not toks:
            continue
        # a header starts at the left margin (a commented line that
        # starts with '#' has no tokens)
        if toks[0] in _HEADERS and not lines[i - 1][0].isspace():
            if len(toks) < 2:
                raise ParseError(i, "section %s needs a name" % (toks[0],))
            current = _Section(toks[0][:-1], toks[1], i, toks[2:])
            sections.append(current)
            add_row = current.rows.append
            continue
        add_row((i, toks))
    return sections


def _key(head):
    """A row's key: its head without the colon it may end with."""
    return head[:-1] if head[-1] == ":" else head


def _heads(*keys):
    """The heads that spell the keys: each bare and with its colon."""
    return frozenset(h for k in keys for h in (k, k + ":"))


def _build_graph(sec, doc):
    verts = []
    edges = []
    bp = None
    atom = _ATOMS
    for line, toks in sec.rows:
        head = toks[0]
        if head == "edges:" or head == "edges":
            try:
                _, e, u, v = toks
            except ValueError:
                raise ParseError(line, "edges line wants: id tail head") \
                    from None
            edges.append((atom[e], atom[u], atom[v]))
        elif head == "vertices:" or head == "vertices":
            verts.extend(map(atom.__getitem__, toks[1:]))
        elif head == "basepoint:" or head == "basepoint":
            if len(toks) != 2:
                raise ParseError(line, "basepoint wants one vertex")
            if bp is not None:
                raise ParseError(line, "second basepoint line")
            bp = atom[toks[1]]
        else:
            raise ParseError(line, "unknown graph line %r" % (_key(head),))
    return FinGraph(tuple(verts), tuple(edges), bp)


def _build_groupoid(sec, doc):
    return PresGroupoid(_build_graph(sec, doc))


_SIGNS = {"+": +1, "-": -1}

# The heads of the rows that introduce each kind of id a constructor
# error can name, and how many tokens after the head spell the id.  The
# one fiber row lists every point, so it introduces each (width 0).
_INTRODUCED_BY = {
    "vertex": (_heads("v", "vertex-perm"), 1),
    "edge": (_heads("e", "edge-perm"), 1),
    "letter": (_heads("perm"), 1), "states": (_heads("states"), 1),
    "arrow": (_heads("delta"), 2), "pair": (_heads("compose"), 2),
    "point": (_heads("fiber"), 0),
}
_GROUP_GEN = _heads("group-gen")
_PERM_HEADS = _heads("vertex-perm", "edge-perm")
_FIBER_HEADS = _heads("degree", "fiber")


def _line_of(sec, subject):
    """The line of the first row of `sec` that introduced the id named by
    `subject`, or the header when no row did, as for a missing image.

    ("generator", i) names the i-th group-gen row.  It may carry a third
    entry, the subject of an error in that generator's map, which is
    then placed among the rows of its block, or else at the group-gen
    row.  Only error paths scan the rows."""
    rows, line = sec.rows, sec.header_line
    if subject is not None and subject[0] == "generator":
        starts = [k for k, (_, toks) in enumerate(rows)
                  if toks[0] in _GROUP_GEN]
        starts.append(len(rows))
        i = subject[1]
        line = rows[starts[i]][0]
        rows = rows[starts[i] + 1:starts[i + 1]]
        subject = subject[2] if len(subject) == 3 else None
    if subject is not None:
        (heads, width), x = _INTRODUCED_BY[subject[0]], subject[1]
        for n, toks in rows:
            if toks[0] in heads:
                lead = tuple(_atom(t) for t in toks[1:1 + width])
                if width == 0 or x == (lead[0] if width == 1 else lead):
                    return n
    return line


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
    deg` (either key bare or with its colon); and whether some edge
    image is a bare edge, with its sign left to infer."""
    vm = {}
    em = {}             # source edge -> None, (edge, sign) or bare edge
    bare = False
    atom = _ATOMS
    vcolon, ecolon = vkey + ":", ekey + ":"
    for line, toks in rows:
        # map rows are the bulk of a document: the row checks are written
        # out here rather than called
        head = toks[0]
        if head == vkey or head == vcolon:
            if len(toks) != 4 or toks[2] != "->":
                raise ParseError(line, "expected: %s u -> w" % (vkey,))
            u = atom[toks[1]]
            if u in vm:
                raise ParseError(line, "second %s line for %r" % (vkey, u))
            vm[u] = atom[toks[3]]
        elif head == ekey or head == ecolon:
            n = len(toks)
            s = _SIGNS.get(toks[4]) if n == 5 and toks[3] != "deg" else None
            if (n != 4 and s is None) or toks[2] != "->":
                raise ParseError(line, "expected: %s id -> id' [+|-] or %s "
                                 "id -> deg" % (ekey, ekey))
            e = atom[toks[1]]
            if e in em:
                raise ParseError(line, "second %s line for %r" % (ekey, e))
            if s is not None:
                em[e] = (atom[toks[3]], s)
            elif toks[3] == "deg":
                em[e] = None
            else:
                em[e] = atom[toks[3]]
                bare = True
        else:
            raise ParseError(line, "unknown %s line %r" % (kind, _key(head)))
    return vm, em, bare


def _build_map(sec, doc):
    if len(sec.args) != 2:
        raise ParseError(sec.header_line, "map header wants: name src dst")
    src = _graph_arg(sec, doc, 0, "source")
    dst = _graph_arg(sec, doc, 1, "target")
    vm, em, bare = _read_images(sec.rows, "v", "e", "map")
    if bare:
        return GraphMap.build(src, dst, vm, em)
    return GraphMap(src, dst, vm, em)


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
    fiber = None
    perm_rows = {}
    for line, toks in sec.rows:
        head = toks[0]
        if head in _FIBER_HEADS and fiber is not None:
            raise ParseError(line, "second degree or fiber line")
        if head == "degree:" or head == "degree":
            if len(toks) != 2 or not _is_int(toks[1]) or int(toks[1]) < 1:
                raise ParseError(line, "degree wants a positive integer")
            fiber = tuple(range(1, int(toks[1]) + 1))
        elif head == "fiber:" or head == "fiber":
            fiber = tuple(_atom(t) for t in toks[1:])
        elif head == "perm:" or head == "perm":
            if len(toks) < 2:
                raise ParseError(line, "perm wants a letter")
            letter = _atom(toks[1])
            if letter in perm_rows:
                raise ParseError(line, "second perm line for %r" % (letter,))
            perm_rows[letter] = (line, toks[2:])
        else:
            raise ParseError(line, "unknown monodromy line %r" % (_key(head),))
    if fiber is None:
        raise ParseError(sec.header_line,
                         "monodromy needs a degree or fiber line")
    # a letter without a perm row acts as the identity
    perms = {l: {p: p for p in fiber} for l in letters}
    for letter, (line, toks) in perm_rows.items():
        perms[letter] = _parse_cycles(line, toks, fiber)
    return MonodromyAction(shape, base_graph.basepoint, fiber, perms)


def _build_action(sec, doc):
    if len(sec.args) != 1:
        raise ParseError(sec.header_line, "action header wants: name space")
    space = _graph_arg(sec, doc, 0, "space")
    gens = []
    blocks = []         # (group-gen line, rows of its block)
    for row in sec.rows:
        line, toks = row
        head = toks[0]
        if head in _GROUP_GEN:
            try:
                gens.append(tuple(int(t) for t in toks[1:]))
            except ValueError:
                raise ParseError(line, "group-gen wants integer images")
            blocks.append((line, []))
        elif head in _PERM_HEADS:
            if not blocks:
                raise ParseError(line, "%s before any group-gen"
                                 % (_key(head),))
            blocks[-1][1].append(row)
        else:
            raise ParseError(line, "unknown action line %r" % (_key(head),))
    group = permutation_group(len(gens[0]) if gens else 1, gens)
    maps = []
    for i, (line, rows) in enumerate(blocks):
        vm, em, _ = _read_images(rows, "vertex-perm", "edge-perm", "action")
        try:
            maps.append(GraphMap.build(space, space, vm, em))
        except InputError as e:
            # an error in a generator's map lands inside its block
            raise InputError(str(e), ("generator", i, e.subject))
    return graph_action(group, space, maps)


def _build_automaton(sec, doc):
    letters = []
    n = None
    delta = {}
    atom = _ATOMS
    for line, toks in sec.rows:
        head = toks[0]
        # delta rows are the bulk of an automaton, so they are tested first;
        # a token reads as an int id exactly when it reads as an integer
        if head == "delta:" or head == "delta":
            if len(toks) != 4:
                raise ParseError(line, "delta line wants: state letter state")
            _, s, a, t = toks
            u, v = atom[s], atom[t]
            if type(u) is not int or type(v) is not int:
                raise ParseError(line, "states are integers")
            arrow = (u, atom[a])
            if arrow in delta:
                raise ParseError(line, "second delta line for %r %r" % arrow)
            delta[arrow] = v
        elif head == "letters:" or head == "letters":
            letters.extend(_atom(t) for t in toks[1:])
        elif head == "states:" or head == "states":
            if len(toks) != 2 or not _is_int(toks[1]):
                raise ParseError(line, "states wants an integer")
            if n is not None:
                raise ParseError(line, "second states line")
            n = int(toks[1])
        else:
            raise ParseError(line, "unknown automaton line %r" % (_key(head),))
    if n is None:
        raise ParseError(sec.header_line, "automaton needs a states line")
    return SubgroupAutomaton(tuple(letters), n, delta)


def _build_fingroupoid(sec, doc):
    objs = []
    mors = []
    src = {}
    dst = {}
    comp = {}
    ident = {}
    for line, toks in sec.rows:
        head = toks[0]
        if head == "objects:" or head == "objects":
            objs.extend(_atom(t) for t in toks[1:])
        elif head == "morphisms:" or head == "morphisms":
            if len(toks) != 4:
                raise ParseError(line, "morphisms line wants: id src dst")
            m, a, b = (_atom(t) for t in toks[1:])
            if m in src:
                raise ParseError(line, "second morphisms line for %r" % (m,))
            mors.append(m)
            src[m] = a
            dst[m] = b
        elif head == "identity:" or head == "identity":
            if len(toks) != 3:
                raise ParseError(line, "identity line wants: object morphism")
            o = _atom(toks[1])
            if o in ident:
                raise ParseError(line, "second identity line for %r" % (o,))
            ident[o] = _atom(toks[2])
        elif head == "compose:" or head == "compose":
            if len(toks) != 4:
                raise ParseError(line, "compose line wants: f g h")
            f, g, h = (_atom(t) for t in toks[1:])
            if (f, g) in comp:
                raise ParseError(line, "second compose line for %r %r"
                                 % (f, g))
            comp[(f, g)] = h
        else:
            raise ParseError(line, "unknown fingroupoid line %r"
                             % (_key(head),))
    return FinGroupoid(tuple(objs), tuple(mors), src, dst, comp, ident)


_BUILDERS = {
    "graph": _build_graph, "map": _build_map, "monodromy": _build_monodromy,
    "action": _build_action, "groupoid": _build_groupoid,
    "automaton": _build_automaton, "fingroupoid": _build_fingroupoid,
}
SECTION_KINDS = tuple(_BUILDERS)
# the header heads, "graph:" and the like
_HEADERS = frozenset(kind + ":" for kind in _BUILDERS)


def parse_document(text):
    doc = Document()
    for sec in _split_sections(text):
        try:
            doc.add(sec.kind, sec.name, _BUILDERS[sec.kind](sec, doc))
        except InputError as e:
            raise ParseError(_line_of(sec, e.subject), "bad %s %r: %s"
                             % (sec.kind, sec.name, e))
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
