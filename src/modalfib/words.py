"""Reduced words in finitely generated free groups.

A word is a tuple of letters (generator, sign) with sign +1 or -1.
Generators are arbitrary hashable, orderable labels.  All functions
return fully reduced words.  `Unknown` marks a search that an explicit
bound cut short.
"""

__all__ = ["reduce_word", "mul", "inv", "Unknown"]


def reduce_word(w):
    out = []
    for g, s in w:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def mul(*words):
    out = []
    for w in words:
        for g, s in w:
            if out and out[-1][0] == g and out[-1][1] == -s:
                out.pop()
            else:
                out.append((g, s))
    return tuple(out)


def inv(w):
    return tuple((g, -s) for g, s in reversed(w))


class Unknown:
    """Marker for a search cut short by an explicit user bound."""

    def __init__(self, bound):
        self.bound = bound

    def __repr__(self):
        return "Unknown(bound=%r)" % (self.bound,)
