"""Seeded mutants of the golden documents, and of seeded automaton and
table-groupoid documents (section kinds no golden document has): each
one parses, or fails with a ParseError at a line of the mutant.

A mutant deletes or duplicates a line, swaps two tokens of the document,
or replaces a token with another token of the same document.  Row
syntax is the parser's to check and every other invariant the
constructors', which raise an InputError that the parser places at a
row or at the section header.  So no other exception may escape, and
every reported line lies inside the mutant.  The seed and the count are
fixed, so the test is deterministic.
"""

import os
import random

import pytest

from modalfib.automata import SubgroupAutomaton
from modalfib.fingroupoids import random_groupoid
from modalfib.textio import (ParseError, parse_document,
                             serialize_automaton, serialize_fingroupoid)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_DOCS = sorted(n for n in os.listdir(GOLDEN) if n.endswith(".txt"))
SEED = 20190
MUTANTS_PER_DOC = 1000


def mutant(rng, lines):
    """One mutant of a document given as a list of token lists."""
    lines = [list(toks) for toks in lines]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    how = rng.randrange(4)
    if how == 0:
        del lines[rng.randrange(len(lines))]
    elif how == 1:
        i = rng.randrange(len(lines))
        lines.insert(i, list(lines[i]))
    elif how == 2:
        (i, j), (k, l) = rng.sample(spots, 2)
        lines[i][j], lines[k][l] = lines[k][l], lines[i][j]
    else:
        i, j = rng.choice(spots)
        k, l = rng.choice(spots)
        lines[i][j] = lines[k][l]
    return "".join(" ".join(toks) + "\n" for toks in lines)


def seeded_automaton(seed):
    """The folded automaton of three random words in a, b and c."""
    rng = random.Random(seed)
    words = [[(rng.choice("abc"), rng.choice((1, -1)))
              for _ in range(rng.randint(2, 6))] for _ in range(3)]
    return serialize_automaton("A", SubgroupAutomaton.from_words(
        ("a", "b", "c"), words))


def seeded_fingroupoid(seed):
    return serialize_fingroupoid("Q", random_groupoid(random.Random(seed),
                                                      4, 12))


SEEDED_DOCS = {"automaton-%d" % i: lambda i=i: seeded_automaton(i)
               for i in range(2)}
SEEDED_DOCS.update({"fingroupoid-%d" % i: lambda i=i: seeded_fingroupoid(i)
                    for i in range(2)})


def assert_mutants_parse_or_fail_inside(name, lines):
    rng = random.Random("%d %s" % (SEED, name))
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(MUTANTS_PER_DOC):
        text = mutant(rng, lines)
        try:
            parse_document(text)
        except ParseError as e:
            assert 1 <= e.line <= len(text.splitlines()), (text, str(e))
            outcomes["rejected"] += 1
        else:
            outcomes["parsed"] += 1
    # the mutants reach both outcomes, so the test exercises the parser
    assert outcomes["parsed"] and outcomes["rejected"], outcomes


@pytest.mark.parametrize("name", GOLDEN_DOCS)
def test_mutants_parse_or_fail_at_one_of_their_lines(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        lines = [line.split() for line in fh.read().splitlines()]
    assert_mutants_parse_or_fail_inside(name, lines)


@pytest.mark.parametrize("name", sorted(SEEDED_DOCS))
def test_mutants_of_seeded_documents_parse_or_fail_inside(name):
    text = SEEDED_DOCS[name]()
    doc = parse_document(text)
    assert doc.order == [text.split()[1]]
    assert_mutants_parse_or_fail_inside(
        name, [line.split() for line in text.splitlines()])
