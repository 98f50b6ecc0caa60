"""Three-valued verdicts and the per-level classification record.

A Flag is true, false, or undecided with the bound that cut the search
short.  Undecided flags refuse boolean coercion so a partial answer can
never silently pass an if-statement.
"""

from dataclasses import dataclass
from itertools import product

__all__ = ["Flag", "LevelVerdicts", "MapClassification", "lemma_identities"]


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
        return {
            "modal": self.modal.render(),
            "connected": self.connected.render(),
            "etale": self.etale.render(),
            "equivalence": self.equivalence.render(),
            "fibration": self.fibration.render(),
        }


_DECIDED = {bits: LevelVerdicts(*map(Flag.of, bits))
            for bits in product((False, True), repeat=5)}


def lemma_identities(level):
    """The two flag identities a coherent level must satisfy.

    etale must equal modal AND fibration; connected must equal
    equivalence AND fibration.  Returns dict entries True/False, or None
    where an undecided flag blocks the comparison.
    """
    out = {}
    trio = (level.etale, level.modal, level.fibration)
    if all(f.decided for f in trio):
        out["etale_eq_modal_and_fibration"] = (
            level.etale.is_true == (level.modal.is_true
                                    and level.fibration.is_true))
    else:
        out["etale_eq_modal_and_fibration"] = None
    trio = (level.connected, level.equivalence, level.fibration)
    if all(f.decided for f in trio):
        out["connected_eq_equivalence_and_fibration"] = (
            level.connected.is_true == (level.equivalence.is_true
                                        and level.fibration.is_true))
    else:
        out["connected_eq_equivalence_and_fibration"] = None
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
