"""Mutation harness for the level-0 table readings.

Each mutant is a one-line fault in a function of the package, given as
a (function, old text, new text) triple.  The function is a dotted path
from a package module: a module function, "fingroupoids._transport",
or a method, "fingroupoids.FinFunctor._fiber_classes", which may be a
`graphs._memo` field.  The harness applies a mutant by compiling the
function's source with the old text replaced, in its module's namespace
(a method dedented, with its decorator kept), and binding the result
while the samples are judged; no file is edited.  A method is rebound on
its class.  A module function is rebound in every package module that
holds it, so the modules that import it by name call the mutant too.
A function that a package table holds as an object, such as a handler
in a row of `cli._COMMANDS` or a reader in `suites.SUITES`, is refused:
its callers read it from the table, so no rebinding reaches them.
An old text that does not occur exactly once in the function's source
raises, so a stale mutant fails loudly instead of running as a no-op.

A `_memo` mutant reaches only the objects that first read the field
while it is bound: one read earlier keeps the value the original built.
The sample is fixed: `sample_functor` of each kind at seeds 0 to
per_kind - 1, with the rng that built a functor passed on to
`nine_way`.  Each run builds every functor afresh, unmutated, and
reads no fiber field before it binds the mutant for the judging, so
nothing cached on a functor carries over from one mutant to the next.
A sample is judged by `classify_trunc` at levels 0 and -1 and by the
readers of the `nine-way` and `compare-modalities` suites
(`modalfib.suites`), against the same calls without the mutant.  It is
caught when a check row of those suites fails on it, and the report
names the rows that caught each mutant's samples; a sample on which a
call raises is counted apart.  The readings that moved are the `nine_way` readings,
lettered (a) to (i) as in its code, and the level flags, `flag@level`,
whose values differ from the unmutated run.

Stdlib only; run from a checkout, with N samples per kind:

    python tests/mutants.py --per-kind N
"""

import argparse
import importlib
import inspect
import pkgutil
import random
import sys
import textwrap
import time
from collections import Counter, namedtuple
from contextlib import contextmanager
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import modalfib  # noqa: E402
from modalfib import suites  # noqa: E402
from modalfib.fingroupoids import (  # noqa: E402
    GROUP_NAMES, classify_trunc, homotopy_pullback, product_groupoid,
    random_functor, random_functor_into, random_groupoid,
)
from modalfib.graphs import _memo  # noqa: E402
from lib_fingroupoids import connected_groupoid  # noqa: E402

# every module of the package, imported up front: a module imported while
# a mutant is bound would keep the mutant
MODULES = [importlib.import_module("modalfib." + m.name)
           for m in pkgutil.iter_modules(modalfib.__path__)]


# ---------------------------------------------------------------------------
# the sample: random functors, product projections, pullback legs, and
# functors into connected groupoids with mixed object ids

SAMPLE_KINDS = ("random", "product", "pullback", "connected")

MIXED_IDS = (0, 1, -3, "a", "b", (0, "a"), (1, (2, "c")), ("z",))


def sample_functor(kind, rng):
    if kind == "random":
        return random_functor(rng, max_objects=4, max_morphisms=12)
    if kind == "product":
        A = random_groupoid(rng, max_objects=2, max_morphisms=6)
        B = random_groupoid(rng, max_objects=2, max_morphisms=6)
        return product_groupoid(A, B)[rng.choice((1, 2))]
    if kind == "pullback":
        F = random_functor(rng, max_objects=2, max_morphisms=6)
        G = random_functor_into(rng, F.target, max_objects=2,
                                max_morphisms=6)
        return homotopy_pullback(F, G)[rng.choice((1, 2))]
    labels = rng.sample(MIXED_IDS, rng.randint(1, 3))
    T = connected_groupoid(labels, rng.choice(GROUP_NAMES))
    return random_functor_into(rng, T, max_objects=4, max_morphisms=12)


# ---------------------------------------------------------------------------
# the mutants

Mutant = namedtuple("Mutant", "name function old new")

MUTANTS = (
    Mutant("fiber_pass_first", "fingroupoids.FinFunctor._fiber_classes",
           "for s in S._gens:", "for s in S._gens[1:]:"),
    Mutant("fiber_pass_last", "fingroupoids.FinFunctor._fiber_classes",
           "for s in S._gens:", "for s in S._gens[:-1]:"),
    Mutant("fiber_aut_trivial", "fingroupoids.FinFunctor._fiber_trivial",
           "for g in S.aut(x))", "for g in S.aut(x)[:-1])"),
    Mutant("classes_over_last", "fingroupoids.FinFunctor._classes_over",
           "_sorted_ids(set(xcm.values()))",
           "_sorted_ids(set(xcm.values()))[:-1]"),
    Mutant("class_codes_index1", "fingroupoids._class_codes",
           "{c: i for i, c in enumerate(classes[y])}",
           "{c: i - (i == 1) for i, c in enumerate(classes[y])}"),
    Mutant("transport_inverse", "fingroupoids._transport",
           "comp[(m, h)]", "comp[(m, F.target.inv[h])]"),
    Mutant("transport_loops_identity", "fingroupoids._transport",
           "return target_map[(x, F.target.comp[(m, h)])]",
           "return target_map[rep if F.target.src[h] == F.target.dst[h]"
           " else (x, F.target.comp[(m, h)])]"),
    Mutant("pullback_y_gens", "fingroupoids._pullback_preserved",
           "for t in Y._gens:", "for t in Y._gens[1:]:"),
    Mutant("pullback_want", "fingroupoids._pullback_preserved",
           "len(over[zc]) * n for", "len(over[zc]) for"),
)


class StaleMutant(Exception):
    """A mutant whose old text does not occur exactly once."""


class HeldMutant(Exception):
    """A mutant of a function that a package table holds as an object."""


TABLES = (dict, tuple, list)


def holds(table, obj):
    """Does the dict, tuple (a namedtuple too) or list `table` hold obj,
    as a key or a value at any depth?  `in` compares by `==`, which a
    function and a `_memo` answer by identity."""
    if isinstance(table, dict):
        table = (*table, *table.values())
    return obj in table or any(holds(x, obj) for x in table
                               if isinstance(x, TABLES))


def resolve(path):
    """(owner, name, original) for a dotted path from a package module:
    the module or class that defines the function, its name there, and
    the object bound to that name, a `_memo` for a memo field."""
    module, *rest = path.split(".")
    owner = importlib.import_module("modalfib." + module)
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1], vars(owner)[rest[-1]]


def compile_mutant(mutant):
    """The mutated function, or `_memo`, compiled in its module's
    namespace."""
    _, name, original = resolve(mutant.function)
    fn = original.fn if isinstance(original, _memo) else original
    source = textwrap.dedent(inspect.getsource(fn))
    n = source.count(mutant.old)
    if n != 1:
        raise StaleMutant("%s: %r occurs %d times in %s" % (
            mutant.name, mutant.old, n, mutant.function))
    # the def binds into `made`, and the function looks its names up in
    # the module, so it calls the helpers bound there; a method's
    # decorator wraps it again
    made = {}
    exec(compile(source.replace(mutant.old, mutant.new),
                 "<mutant %s>" % mutant.name, "exec"),
         vars(sys.modules[fn.__module__]), made)
    return made[name]


@contextmanager
def bound(path, fn):
    """The function at `path` is fn inside the block: a method on its
    class, a module function under every name that holds it in a package
    module.  A function that a module-level table holds raises
    HeldMutant before anything is bound."""
    owner, name, original = resolve(path)
    tables = ["%s.%s" % (m.__name__, k) for m in MODULES
              for k, v in vars(m).items()
              if isinstance(v, TABLES) and not k.startswith("__")
              and holds(v, original)]
    if tables:
        raise HeldMutant("%s is held by %s, whose readers no rebinding "
                         "reaches" % (path, ", ".join(tables)))
    if isinstance(owner, type):
        saved = [(owner, name)]
    else:
        saved = [(m, k) for m in MODULES
                 for k, v in vars(m).items() if v is original]
    try:
        for holder, k in saved:
            setattr(holder, k, fn)
        yield
    finally:
        for holder, k in saved:
            setattr(holder, k, original)


# ---------------------------------------------------------------------------
# judging one sample

LETTERS = {
    "gamma_equivalence": "a", "fibers_preserved": "b",
    "pullbacks_preserved": "c", "factorizations_agree": "d",
    "modal_factor_etale": "e", "equivalence_factor_connected": "f",
    "locally_constant_fibers": "g", "connecting_map_fibration": "h",
    "loop_surjectivity": "i",
}


# the suites whose checks judge a sample; closure draws samples of its
# own, so it judges none
JUDGES = ("nine-way", "compare-modalities")


def failing(reports):
    """The (suite, count key) of each check row that fails on a
    sample's suite reports."""
    return [(name, key) for name in JUDGES
            for key, _, holds in suites.SUITES[name].checks
            if not holds(reports[name])]


def outcome(F, rng):
    """(readings, suite checks hold, the whole report) for one functor;
    the whole report holds the level flags and each judging suite's
    reading."""
    levels = {level: classify_trunc(F, level).as_dict() for level in (0, -1)}
    reports = {name: suites.SUITES[name].read(F, rng) for name in JUDGES}
    readings = {letter: reports["nine-way"][key]
                for key, letter in LETTERS.items()}
    for level, flags in levels.items():
        readings.update(("%s@%d" % (flag, level), v)
                        for flag, v in flags.items())
    return readings, not failing(reports), (levels, reports)


def run(per_kind, mutant=None):
    """One entry per sample: an outcome, or the name of the exception a
    call raised under the mutant."""
    fn = compile_mutant(mutant) if mutant else None
    samples = []
    for kind in SAMPLE_KINDS:
        for seed in range(per_kind):
            rng = random.Random(seed)
            samples.append((sample_functor(kind, rng), rng))
    if fn is None:
        return [outcome(F, rng) for F, rng in samples]
    results = []
    with bound(mutant.function, fn):
        for F, rng in samples:
            try:
                results.append(outcome(F, rng))
            except Exception as e:  # a crash is a result here
                results.append(type(e).__name__)
    return results


Score = namedtuple("Score", "changed caught raised moved rows")


def score(base, results):
    """Score of one mutant's results against the unmutated ones; moved
    counts each set of readings that moved together, and rows the
    samples each check row caught."""
    changed = caught = raised = 0
    moved, rows = Counter(), Counter()
    for (readings, _, whole), got in zip(base, results):
        if isinstance(got, str):
            changed += 1
            raised += 1
            continue
        if got[2] != whole:
            changed += 1
        if not got[1]:
            caught += 1
            rows.update(failing(got[2][1]))
        diff = "+".join(k for k in readings if got[0][k] != readings[k])
        if diff:
            moved[diff] += 1
    return Score(changed, caught, raised, moved, rows)


def score_all(per_kind, mutants=MUTANTS):
    """(unmutated results, {mutant name: Score})."""
    base = run(per_kind)
    return base, {m.name: score(base, run(per_kind, m)) for m in mutants}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--per-kind", type=int, default=250,
                    help="samples of each sample_functor kind (default 250)")
    args = ap.parse_args(argv)
    if args.per_kind < 1:
        ap.error("--per-kind must be at least 1")
    t = time.perf_counter()
    base, scores = score_all(args.per_kind)
    failures = sum(1 for _, holds, _ in base if not holds)
    print("%d samples; unmutated, suite checks fail on %d"
          % (len(base), failures))
    print("%-26s %7s %7s %7s" % ("mutant", "changed", "caught", "raised"))
    for name, s in scores.items():
        print("%-26s %7d %7d %7d" % (name, s.changed, s.caught, s.raised))
        moved = ", ".join("%s %d" % kv for kv in s.moved.most_common())
        rows = ", ".join("%s %s %d" % (suite, key, n)
                         for (suite, key), n in s.rows.most_common())
        for label, text in (("moved", moved), ("caught by", rows)):
            print(textwrap.fill("%s: %s" % (label, text or "none"), 79,
                                initial_indent="    ",
                                subsequent_indent="      "))
    print("%.1f s" % (time.perf_counter() - t))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
