"""Subgroup-automaton operations that only the tests use.

Conjugation, and subgroup equality by membership both ways: an oracle
independent of `SubgroupAutomaton.same`, which compares canonical forms.
"""

from modalfib.automata import SubgroupAutomaton
from modalfib.words import inv, mul


def conjugate_by(A, w):
    """Automaton of w^-1 H w."""
    return SubgroupAutomaton.from_words(
        A.letters, [mul(inv(w), g, w) for g in A.generators()])


def subgroup_equal(A, other):
    """Mutual membership of generators; independent of `same`."""
    return (all(other.contains(g) for g in A.generators()) and
            all(A.contains(g) for g in other.generators()))
