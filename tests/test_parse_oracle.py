"""The parser's token rule and line splitter against the ones they replace.

`old_atom` is the regular-expression rule `-?\\d+` for integer tokens and
`old_split_sections` the line-by-line splitter that stripped every line;
both are kept here as references.  The parser must give the same ids,
and the same sections, rows and line numbers (or the same error at the
same line) on the golden documents, on variants of them with comments,
indentation, blank lines and other line endings, and on random line
soups.
"""

import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from modalfib import textio
from modalfib.textio import (
    SECTION_KINDS, ParseError, _atom, _is_int, _split_sections,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_DOCS = sorted(n for n in os.listdir(GOLDEN) if n.endswith(".txt"))

_OLD_INT = re.compile(r"-?\d+\Z")


def old_atom(tok):
    return int(tok) if _OLD_INT.match(tok) else tok


def old_split_sections(text):
    sections = []
    current = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = line.split()
        head = toks[0]
        if not raw[0].isspace() and head.endswith(":") \
                and head[:-1] in SECTION_KINDS:
            if len(toks) < 2:
                raise ParseError(i, "section %s needs a name" % (head,))
            current = (head[:-1], toks[1], i, toks[2:], [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError(i, "content before any section header")
        key = head[:-1] if head.endswith(":") else head
        current[4].append((i, key, toks[1:]))
    return sections


def old_rows(rows):
    """The parser's rows, (line, tokens with the head as written), in the
    old splitter's form: (line, head without its colon, the rest)."""
    return [(i, toks[0][:-1] if toks[0].endswith(":") else toks[0], toks[1:])
            for i, toks in rows]


def outcome(split, text):
    try:
        sections = split(text)
    except ParseError as e:
        return ("error", e.line, str(e))
    return [s if isinstance(s, tuple)
            else (s.kind, s.name, s.header_line, s.args, old_rows(s.rows))
            for s in sections]


def assert_same_split(text):
    assert outcome(_split_sections, text) == \
        outcome(old_split_sections, text)


# ---------------------------------------------------------------------------
# tokens

EDGE_TOKENS = ["-", "--1", "+1", "-0", "1_000", "²", "٣", "-٣",
               "0", "-12", "007", "12a", "", " 1", "1 ", "1\n", "−" "1"]


def same_atom(tok):
    new, old = _atom(tok), old_atom(tok)
    assert (type(new), new) == (type(old), old)
    assert _is_int(tok) == bool(_OLD_INT.match(tok))


@pytest.mark.parametrize("tok", EDGE_TOKENS)
def test_atom_matches_the_old_rule_on_edge_tokens(tok):
    same_atom(tok)
    same_atom(tok)              # the memoized answer is the same


@settings(deadline=None)
@given(st.text(max_size=12))
def test_atom_matches_the_old_rule_on_any_text(tok):
    same_atom(tok)


@settings(deadline=None)
@given(st.from_regex(r"-?[0-9٠-٩۰-۹]{1,6}",
                     fullmatch=True))
def test_atom_matches_the_old_rule_on_decimal_tokens(tok):
    same_atom(tok)


def test_atom_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(textio, "_ATOMS", textio._Atoms())
    for i in range(textio._ATOM_BOUND + 10):
        assert _atom("t%d" % i) == "t%d" % i
        assert len(textio._ATOMS) <= textio._ATOM_BOUND
    assert _atom("-7") == -7


# ---------------------------------------------------------------------------
# sections and rows

def read(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


def variants(text):
    lines = text.splitlines()
    yield text
    yield "\n".join(x for line in lines for x in ("# note", line, ""))
    yield "\n".join(line + "   # trailing #s" for line in lines)
    yield "# leading\n\n   # indented comment\n\t\n" + text
    yield "\n".join(line if line.split(":")[0] in SECTION_KINDS
                    else "  \t" + line for line in lines)
    yield "\r\n".join(lines) + "\r\n"
    yield "\r".join(lines)
    # an indented header is a row of the section before it
    yield "\n".join(" " + line if i and line.startswith("graph:") else line
                    for i, line in enumerate(lines))
    yield " " + text
    yield "#x\n" + lines[0].split()[0] + "\n" + text


@pytest.mark.parametrize("name", GOLDEN_DOCS)
def test_split_matches_the_old_splitter_on_golden_documents(name):
    assert len(GOLDEN_DOCS) == 12
    for text in variants(read(name)):
        assert_same_split(text)


LINES = st.sampled_from([
    "graph: G", "graph: H extra", "map: f G H", "graph:", "graph:#x",
    "map:x y", " graph: Z", "\tmap: m", "vertices: 1 2 3", "  edges: e 1 2",
    "edges: a b c # tail", "v 1 -> 2", "e e -> deg", "e a -> b - # c",
    "# comment", "#graph: Q", "", "   ", "\t", "fiber: 1 2", "x:", ":",
    "a::", "groupoid: G2", "fingroupoid:", "automaton: A", "   # c ",
])


@settings(deadline=None)
@given(st.lists(LINES, max_size=12),
       st.sampled_from(["\n", "\r\n", "\r", "\x0c", " "]))
def test_split_matches_the_old_splitter_on_line_soups(lines, sep):
    assert_same_split(sep.join(lines))
