"""Three-valued verdicts and the per-level classification record.

A Flag is true, false, or undecided with the bound that cut the search
short.  Undecided flags refuse boolean coercion so a partial answer can
never silently pass an if-statement.
"""

from dataclasses import dataclass
from itertools import product

__all__ = ["FLAGS", "Flag", "LevelVerdicts", "MapClassification",
           "lemma_identities"]

# the five flags of a level, in the order of its fields and reports
FLAGS = ("modal", "connected", "etale", "equivalence", "fibration")


@dataclass(frozen=True)
class Flag:
    value: str                  # "true" | "false" | "undecided"
    bound: object = None

    def __post_init__(self):
        if self.value not in ("true", "false", "undecided") or \
                (self.bound is None) != (self.value != "undecided"):
            raise ValueError("bad flag %r, %r" % (self.value, self.bound))

    @staticmethod
    def of(b):
        """The true or the false flag; flags are immutable, so every
        call returns one of two shared instances."""
        return _TRUE if b else _FALSE

    @property
    def decided(self):
        return self.value != "undecided"

    @property
    def is_true(self):
        return self.value == "true"

    def __bool__(self):
        if not self.decided:
            raise ValueError(
                "undecided flag (bound=%r) used as a boolean" % (self.bound,))
        return self.is_true

    def render(self):
        if self.decided:
            return self.value
        return "undecided(bound=%r)" % (self.bound,)


_TRUE, _FALSE = Flag("true"), Flag("false")


@dataclass(frozen=True)
class LevelVerdicts:
    """The five flags of one modality level."""

    modal: Flag
    connected: Flag
    etale: Flag
    equivalence: Flag
    fibration: Flag

    @staticmethod
    def of(modal, connected, etale, equivalence, fibration):
        """The record of five decided flags, given as booleans; records
        are immutable, so every call returns one of 32 shared
        instances."""
        return _DECIDED[modal, connected, etale, equivalence, fibration]

    def as_dict(self):
        return {k: getattr(self, k).render() for k in FLAGS}


_DECIDED = {bits: LevelVerdicts(*map(Flag.of, bits))
            for bits in product((False, True), repeat=5)}


def lemma_identities(level):
    """The two flag identities a coherent level must satisfy.

    etale must equal modal AND fibration; connected must equal
    equivalence AND fibration.  Returns dict entries True/False, or None
    where an undecided flag blocks the comparison.
    """
    out = {}
    for flag, part in (("etale", "modal"), ("connected", "equivalence")):
        trio = (getattr(level, flag), getattr(level, part), level.fibration)
        out["%s_eq_%s_and_fibration" % (flag, part)] = (
            trio[0].is_true == (trio[1].is_true and trio[2].is_true)
            if all(f.decided for f in trio) else None)
    return out


@dataclass(frozen=True)
class MapClassification:
    """Classification of one graph map at the component level (pi0) and
    the shape level (pi1)."""

    pi0: LevelVerdicts
    pi1: LevelVerdicts

    def as_dict(self):
        return {"pi0": self.pi0.as_dict(), "pi1": self.pi1.as_dict()}

    def coherent(self):
        """Both lemma identities at both levels, None if blocked."""
        checks = {}
        for name, level in (("pi0", self.pi0), ("pi1", self.pi1)):
            for key, val in lemma_identities(level).items():
                checks["%s.%s" % (name, key)] = val
        return checks
