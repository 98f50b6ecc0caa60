"""The randomized theorem suites of the table layer, one row each.

`nine-way`: the readings of a level-0 fibration agree.  `closure`:
level-0 fibrations are closed under pullback and composition.
`compare-modalities`: flags transfer between the truncation levels.
A row of `SUITES` holds a suite's help line, how it reads one (functor,
rng) sample, and its checks: a count key, a text label and what must
hold in the reading.  `run` counts the failures of each check, `lines`
renders the counts, and the command line, the acceptance tests and the
mutation harness all read the rows.
"""

from collections import namedtuple
from operator import itemgetter

from . import fingroupoids

# A reader calls `fingroupoids.name(...)` when it runs, never a name bound
# here, so that a wrapper installed on the `fingroupoids` module (a
# tracer, a test's monkeypatch) sees every call a suite makes.

__all__ = ["Suite", "SUITES", "seeded", "run", "lines"]

# read(F, rng) is None when F fails the premise, and premise is the
# (count key, text) that counts the rest; tally is (true key, false key,
# text, reading -> bool).  Both default to ().
Suite = namedtuple("Suite", "help read checks premise tally",
                   defaults=((), ()))


def seeded(rng, samples):
    """Yield `samples` (functor, rng) pairs, each functor drawn from `rng`
    when it is asked for, so that a reader's draws follow its functor's."""
    for _ in range(samples):
        yield fingroupoids.random_functor(rng), rng


def _fibration0(F):
    return fingroupoids.classify_trunc(F, 0).fibration.is_true


def _closure_step(F, rng):
    """If F is a level-0 fibration, whether its pullback along a random
    functor into its target and its composite after the projection from a
    product with a random groupoid, both drawn from `rng`, are too."""
    if not _fibration0(F):
        return None
    G = fingroupoids.random_functor_into(rng, F.target, max_objects=2,
                                         max_morphisms=8)
    pullback = _fibration0(fingroupoids.homotopy_pullback(F, G)[2])
    A = fingroupoids.random_groupoid(rng, max_objects=2, max_morphisms=8)
    fst = fingroupoids.product_groupoid(F.source, A)[1]
    return {"pullback": pullback, "composite": _fibration0(fst.compose(F))}


SUITES = {
    "nine-way": Suite(
        "agreement of all decision routes",
        lambda F, rng: fingroupoids.nine_way(F, rng),
        (("disagreements", "disagreements", itemgetter("agree")),
         ("connecting_failures", "connecting-map failures",
          itemgetter("connecting_ok"))),
        tally=("gamma_true", "gamma_false", "gamma equivalence",
               itemgetter("gamma_equivalence"))),
    "closure": Suite(
        "pullback and composite closure", _closure_step,
        (("pullback_violations", "pullback violations",
          itemgetter("pullback")),
         ("composite_violations", "composite violations",
          itemgetter("composite"))),
        premise=("fibrations_seen", "fibrations exercised")),
    "compare-modalities": Suite(
        "level-comparison implications",
        lambda F, rng: fingroupoids.compare_modalities(F),
        (("violations", "implication violations", itemgetter("all_hold")),)),
}


def run(name, pairs):
    """Count, for each check of suite `name`, the (functor, rng) pairs
    whose reading fails it."""
    suite = SUITES[name]
    checks, premise, tally = suite.checks, suite.premise, suite.tally
    counts = dict.fromkeys([key for key, _, _ in checks]
                           + list(premise[:1]) + list(tally[:2]), 0)
    for F, rng in pairs:
        reading = suite.read(F, rng)
        if reading is None:
            continue
        if premise:
            counts[premise[0]] += 1
        for key, _, holds in checks:
            if not holds(reading):
                counts[key] += 1
        if tally:
            counts[tally[0] if tally[3](reading) else tally[1]] += 1
    counts["ok"] = not any(counts[key] for key, _, _ in checks)
    return counts


def lines(name, head, counts):
    """The text lines of suite `name`'s counts under the line `head`."""
    suite = SUITES[name]
    if suite.premise:
        head += ", %d %s" % (counts[suite.premise[0]], suite.premise[1])
    out = [head] + ["%s: %d" % (text, counts[key])
                    for key, text, _ in suite.checks]
    if suite.tally:
        yes, no, text, _ = suite.tally
        out.append("%s: %d true, %d false" % (text, counts[yes], counts[no]))
    return out
