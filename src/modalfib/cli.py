"""Command-line front end.

Parses documents in the shared text format, dispatches the analyses the
library modules provide, and emits reports in two formats: a human text
rendering (with timing) and a canonical machine rendering (sorted-key
JSON with no timing, so identical inputs give byte-identical output).

Each command is one row of `_COMMANDS`: its handler, its help line and
its options.  The argv parser is built from the rows, and an
`AnalysisRequest` is checked against its command's row, so the library
API rejects exactly the commands and options that argv rejects.

Exit codes: 0 decided-pass, 1 decided-fail, 2 undecided or size-bounded,
64 usage errors, 65 parse and input-document errors.  Undecided is read
off the flags of the verdict records; descriptive commands exit 0.
"""

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from functools import partial

from .classify import (classify, constant_fiber_criterion,
                       etale_family_check, factor0, FactorError,
                       _classify_pi0)
from .covers import (CoverMap, enumerate_covers, monodromy, shape_of_total,
                     total_space, universal_cover_ball)
from .dot import fin_groupoid_dot, graph_dot
from .fingroupoids import FinGroupoid
from .graphs import InputError, pi0
from .groupoids import induce_functor
from .hfiber import gamma_is_equivalence, prism
from .quotients import (ActionError, QUOTIENT_GROUP_BOUND, SizeError,
                        fiber_sequence_check, orbit_graph,
                        quotient_is_fibration, shape_of_quotient)
from . import suites
from .textio import ParseError, _atom, cycles_of_perm, parse_document

__all__ = ["AnalysisRequest", "Report", "run", "main",
           "UsageError", "InputError"]


class UsageError(Exception):
    """Bad invocation: unknown command, flag, or option value."""


@dataclass(frozen=True)
class AnalysisRequest:
    """One dispatchable unit of work: a command, its parsed input
    documents, and validated options."""

    command: str
    documents: tuple = ()
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise UsageError("unknown command %r" % (self.command,))
        takes = _COMMANDS[self.command][2]
        for key, value in self.options.items():
            if key == "format":
                if value not in _FORMATS:
                    raise UsageError("format must be text or json")
            elif key in takes:
                _checked(key, takes[key], value)
            else:
                raise UsageError("command %r takes no option %r"
                                 % (self.command, key))

    def opt(self, key, default=None):
        return self.options.get(key, default)


@dataclass
class Report:
    """Verdicts plus certificates, renderable both ways.

    `data` carries the structured result (undecided flags keep their
    bounds inside the rendered value); `elapsed` is text-only so the
    machine format stays deterministic.
    """

    command: str
    data: dict
    status: int
    lines: list
    elapsed: float = 0.0

    def machine(self):
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def text(self):
        out = list(self.lines)
        out.append("elapsed: %.3fs" % self.elapsed)
        return "\n".join(out)


_FORMATS = ("text", "json")


def _checked(key, kind, value):
    """The value of option `key`, if it is of its kind: str, any integer
    (None) or an integer at least `kind`; else a UsageError."""
    if kind is str:
        if not isinstance(value, str):
            raise UsageError("option %r wants a string" % (key,))
    elif not isinstance(value, int) or isinstance(value, bool):
        raise UsageError("option %r wants an integer" % (key,))
    elif kind is not None and value < kind:
        raise UsageError("option %r must be at least %d" % (key, kind))
    return value


def _status(*levels):
    """2 if a flag of these LevelVerdicts is undecided, else 0."""
    decided = all(f.decided for v in levels for f in (
        v.modal, v.connected, v.etale, v.equivalence, v.fibration))
    return 0 if decided else 2


def _write_dot(request, lines, render, *args):
    """Write render(*args) to the --dot path and note it in the text
    lines; render nothing without it."""
    path = request.opt("dot")
    if path is None:
        return
    text = render(*args)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError("cannot write %s: %s" % (path, e.strerror))
    lines.append("dot written: %s" % path)


def _single(doc, kind, what):
    try:
        return doc.single(kind)
    except ValueError:
        raise InputError("document needs exactly one %s section (%s)"
                         % (kind, what))


def _flag_line(name, verdicts):
    d = verdicts.as_dict()
    return "%s: %s" % (name, " ".join("%s=%s" % (k, d[k])
                                      for k in ("modal", "connected",
                                                "etale", "equivalence",
                                                "fibration")))


def _tri(v):
    if v is None:
        return "blocked"
    return "holds" if v else "violated"


def _automaton_data(a):
    return {
        "letters": list(a.letters),
        "states": a.n,
        "complete": a.complete(),
        "index": a.index(),
        "rank": a.rank(),
        "transitions": [list(t) for t in a.transitions()],
    }


# ---------------------------------------------------------------------------
# per-command handlers; each returns (data, lines, status)

def _cmd_classify(request):
    doc = request.documents[0]
    f = _single(doc, "map", "the map to classify")
    c = classify(f)
    coherence = c.coherent()
    data = {"command": "classify",
            "levels": c.as_dict(),
            "coherence": coherence}
    lines = [_flag_line("pi0", c.pi0), _flag_line("pi1", c.pi1)]
    lines += ["coherence %s: %s" % (k, _tri(v))
              for k, v in sorted(coherence.items())]
    return data, lines, _status(c.pi0, c.pi1)


def _cmd_factor0(request):
    doc = request.documents[0]
    f = _single(doc, "map", "the map to factor")
    try:
        mid, left, right = factor0(f)
    except FactorError as e:
        data = {"command": "factor0", "ok": False, "reason": str(e)}
        return data, ["factorization failed: %s" % e], 1
    lv = _classify_pi0(left)
    rv = _classify_pi0(right)
    components = len(pi0(mid))
    data = {
        "command": "factor0",
        "ok": True,
        "middle": {"vertices": len(mid.vertices),
                   "edges": len(mid.edges),
                   "components": components},
        "left": lv.as_dict(),
        "right": rv.as_dict(),
        # factor0 returns only a factorization that recomposes to f
        "recomposes": True,
    }
    lines = ["middle graph: %d vertices, %d edges, %d components"
             % (len(mid.vertices), len(mid.edges), components),
             _flag_line("left (collapse)", lv),
             _flag_line("right (spread)", rv),
             "recomposes: %s" % str(data["recomposes"]).lower()]
    _write_dot(request, lines, graph_dot, mid, "middle")
    return data, lines, _status(lv, rv)


def _cmd_criteria(request):
    doc = request.documents[0]
    f = _single(doc, "map", "the map to test")
    c = classify(f)
    cf = constant_fiber_criterion(f)
    ef = etale_family_check(f)
    checks = {}
    if ef != "inapplicable" and c.pi1.etale.decided:
        checks["family_matches_etale"] = (ef == c.pi1.etale.is_true)
    if (len(pi0(f.target)) == 1 and c.pi1.fibration.decided
            and c.pi1.fibration.is_true):
        checks["fibration_implies_constant_fiber"] = cf
    data = {"command": "criteria",
            "levels": c.as_dict(),
            "constant_fiber": cf,
            "etale_family": ef,
            "consistency": checks}
    lines = [_flag_line("pi0", c.pi0), _flag_line("pi1", c.pi1),
             "constant fiber signature: %s" % str(cf).lower(),
             "discrete family check: %s"
             % (ef if isinstance(ef, str) else str(ef).lower())]
    lines += ["consistency %s: %s" % (k, _tri(v))
              for k, v in sorted(checks.items())]
    if _status(c.pi0, c.pi1):
        return data, lines, 2
    return data, lines, 0 if all(checks.values()) else 1


def _cmd_prism(request):
    doc = request.documents[0]
    f = _single(doc, "map", "the map to analyze")
    y = request.opt("vertex")
    if y is None:
        y = f.target.basepoint
        if y is None:
            raise InputError("target has no basepoint; pass --vertex")
    else:
        y = _atom(y)
    if y not in f.target.vertices:
        raise InputError("vertex %r is not in the target" % (y,))
    F = induce_functor(f)
    p = prism(f, y, F=F)
    cosets = p.hfib.total_cosets()
    gamma = gamma_is_equivalence(f, y, F=F)
    data = {
        "command": "prism",
        "vertex": y,
        "fiber_vertices": len(p.fiber.subgraph.vertices),
        "fiber_edges": len(p.fiber.subgraph.edges),
        "fiber_shape": [list(row) for row in p.fiber_shape.summary()],
        "symbolic_cosets": cosets,
        "triangle_commutes": p.triangle_commutes,
        "gamma_equivalence": gamma,
    }
    lines = ["fiber over %r: %d vertices, %d edges"
             % (y, data["fiber_vertices"], data["fiber_edges"]),
             "fiber shape: %s" % (p.fiber_shape.summary(),),
             "symbolic fiber cosets: %s"
             % ("infinite" if cosets is None else cosets),
             "triangle commutes: %s" % str(p.triangle_commutes).lower(),
             "comparison is equivalence: %s" % str(gamma).lower()]
    return data, lines, 0


def _cmd_covers_enumerate(request):
    n = request.opt("n")
    if n is None:
        raise UsageError("covers enumerate needs --n")
    g = _single(request.documents[0], "graph", "the base space")
    out = enumerate_covers(g, n)
    listed = [{l: cycles_of_perm(m.perms[l]) for l in m.letters}
              for m in out]
    data = {"command": "covers enumerate", "sheets": n,
            "count": len(out), "covers": listed}
    lines = ["%d marked %d-sheeted covers" % (len(out), n)]
    for i, row in enumerate(listed):
        desc = " ".join("%s=%s" % (l, c or "id")
                        for l, c in sorted(row.items()))
        lines.append("cover %d: %s" % (i, desc))
    return data, lines, 0


def _monodromy_from(doc):
    if doc.of_kind("monodromy"):
        return _single(doc, "monodromy", "the cover description")
    f = _single(doc, "map", "the covering map")
    base = f.target.basepoint
    if base is None:
        raise InputError("cover target needs a basepoint")
    return monodromy(CoverMap(f), base)


def _cmd_covers_monodromy(request):
    m = _monodromy_from(request.documents[0])
    orbits = m.orbits()
    perms = {l: cycles_of_perm(m.perms[l]) for l in m.letters}
    data = {"command": "covers monodromy", "base": m.base,
            "fiber": list(m.fiber),
            "letters": {l: perms[l] for l in m.letters},
            "orbits": [list(o) for o in orbits]}
    lines = ["base %r, fiber %s" % (m.base, list(m.fiber))]
    lines += ["letter %s: %s" % (l, perms[l] or "identity")
              for l in m.letters]
    lines.append("orbits: %s" % [list(o) for o in orbits])
    return data, lines, 0


def _cmd_covers_total(request):
    m = _monodromy_from(request.documents[0])
    cover = total_space(m)
    total = cover.source
    comps = pi0(total)
    orbits = len(m.orbits())
    data = {"command": "covers total",
            "vertices": len(total.vertices),
            "edges": len(total.edges),
            "components": len(comps),
            "orbits": orbits}
    lines = ["total space: %d vertices, %d edges, %d components"
             % (len(total.vertices), len(total.edges), len(comps)),
             "monodromy orbits: %d" % orbits]
    _write_dot(request, lines, graph_dot, total, "total")
    return data, lines, 0


def _cmd_covers_universal_ball(request):
    doc = request.documents[0]
    g = _single(doc, "graph", "the base space")
    if g.basepoint is None:
        raise InputError("base needs a basepoint")
    r = request.opt("radius", 3)
    U, proj = universal_cover_ball(g, g.basepoint, r)
    data = {"command": "covers universal-ball", "radius": r,
            "vertices": len(U.vertices), "edges": len(U.edges),
            "components": len(pi0(U))}
    lines = ["radius-%d ball: %d vertices, %d edges"
             % (r, len(U.vertices), len(U.edges))]
    _write_dot(request, lines, graph_dot, U, "ball")
    return data, lines, 0


def _cmd_covers_verify_shape(request):
    doc = request.documents[0]
    if doc.of_kind("map"):
        p = CoverMap(_single(doc, "map", "the covering map"))
    else:
        p = total_space(_monodromy_from(doc))
    rep = shape_of_total(p)
    certs = [{"orbit": list(c["orbit"]), "point": c["point"],
              "image": _automaton_data(c["image"]),
              "stabilizer": _automaton_data(c["stabilizer"]),
              "image_rank": c["image_rank"], "index": c["index"],
              "equal": c["equal"]}
             for c in rep["certificates"]]
    data = {"command": "covers verify-shape", "ok": rep["ok"],
            "components_match_orbits": rep["components_match_orbits"],
            "orbit_count": rep["orbit_count"],
            "component_count": rep["component_count"],
            "certificates": certs}
    lines = ["components match orbits: %s"
             % str(rep["components_match_orbits"]).lower(),
             "orbits %d, components %d"
             % (rep["orbit_count"], rep["component_count"])]
    for c in certs:
        lines.append(
            "orbit at %r: image rank %d, stabilizer index %s, equal %s"
            % (c["point"], c["image_rank"], c["index"],
               str(c["equal"]).lower()))
    lines.append("verdict: %s" % ("pass" if rep["ok"] else "fail"))
    return data, lines, 0 if rep["ok"] else 1


def _cmd_quotient_shape(request):
    doc = request.documents[0]
    a = _single(doc, "action", "the group action")
    bound = request.opt("max_group", QUOTIENT_GROUP_BOUND)
    q = shape_of_quotient(a, max_group_order=bound)
    if isinstance(q, FinGroupoid):
        data = {"command": "quotient shape", "kind": "groupoid",
                "objects": list(q.objects),
                "morphisms": len(q.morphisms)}
        lines = ["quotient shape: groupoid with %d objects, %d morphisms"
                 % (len(q.objects), len(q.morphisms))]
        _write_dot(request, lines, fin_groupoid_dot, q, "quotient")
        return data, lines, 0
    reps = q.component_reps()
    ranks = {}
    for v in reps:
        try:
            ranks[str(v)] = q.vertex_group_rank(v)
        except ActionError:
            ranks[str(v)] = "unavailable (action not free)"
    data = {"command": "quotient shape", "kind": "presented",
            "component_reps": list(reps), "ranks": ranks}
    lines = ["quotient shape: %d component(s)" % len(reps)]
    lines += ["component at %r: rank %s" % (v, ranks[str(v)])
              for v in reps]
    if request.opt("dot") is not None:
        try:
            _write_dot(request, lines, graph_dot, orbit_graph(a), "orbit")
        except ActionError:
            data["dot"] = "unavailable (action not free)"
            lines.append("dot: %s" % data["dot"])
    return data, lines, 0


def _cmd_quotient_verify(request):
    doc = request.documents[0]
    a = _single(doc, "action", "the group action")
    bound = request.opt("max_group", QUOTIENT_GROUP_BOUND)
    fib = quotient_is_fibration(a, max_group_order=bound)
    rows = [fiber_sequence_check(a, x, max_group_order=bound)
            for x in a.space.vertices]
    ok = fib and all(r["exact"] for r in rows)
    data = {"command": "quotient verify", "fibration": fib,
            "rows": rows, "ok": ok}
    lines = ["quotient map is a fibration: %s" % str(fib).lower()]
    for r in rows:
        lines.append(
            "vertex %r: orbit %d, stabilizer %d, group %d, exact %s"
            % (r["vertex"], r["orbit_size"], r["stabilizer_size"],
               r["group_order"], str(r["exact"]).lower()))
    lines.append("verdict: %s" % ("pass" if ok else "fail"))
    return data, lines, 0 if ok else 1


# Each suite runs on the seeded functor stream and its rng, and returns
# its counts and the text lines above the verdict.

def _suite_nine_way(head, functors, rng):
    c = suites.nine_way((F, rng) for F in functors)
    return c, [head, "disagreements: %d" % c["disagreements"],
               "connecting-map failures: %d" % c["connecting_failures"],
               "gamma equivalence: %d true, %d false"
               % (c["gamma_true"], c["gamma_false"])]


def _suite_closure(head, functors, rng):
    c = suites.closure(functors, rng)
    return c, ["%s, %d fibrations exercised" % (head, c["fibrations_seen"]),
               "pullback violations: %d" % c["pullback_violations"],
               "composite violations: %d" % c["composite_violations"]]


def _suite_compare(head, functors, rng):
    c = suites.compare_modalities(functors)
    return c, [head, "implication violations: %d" % c["violations"]]


def _cmd_suite(suite, request):
    samples = request.opt("samples", 1000)
    seed = request.opt("seed", 0)
    rng = random.Random(seed)
    counts, lines = suite("%d samples (seed %d)" % (samples, seed),
                          suites.seeded(rng, samples), rng)
    lines.append("verdict: %s" % ("pass" if counts["ok"] else "fail"))
    data = dict(counts, command=request.command, samples=samples, seed=seed)
    return data, lines, 0 if counts["ok"] else 1


_SUITE_OPTIONS = {"samples": 1, "seed": None}

# One row per command: its handler, its help line and the options it
# takes besides --format.  An option maps to its least value, to None
# for any integer, or to str.  The parser, the request check and run()
# read these rows; only the suites read no document.
_COMMANDS = {
    "classify": (_cmd_classify, "five-way verdicts at both levels", {}),
    "factor0": (_cmd_factor0, "connected/discrete factorization",
                {"dot": str}),
    "criteria": (_cmd_criteria, "cross-check fiber criteria", {}),
    "prism": (_cmd_prism, "fiber triangle over one vertex",
              {"vertex": str}),
    "covers enumerate": (_cmd_covers_enumerate,
                         "all marked n-sheeted covers", {"n": 1}),
    "covers monodromy": (_cmd_covers_monodromy,
                         "fiber permutations of a cover", {}),
    "covers total": (_cmd_covers_total,
                     "total space of a monodromy action", {"dot": str}),
    "covers universal-ball": (_cmd_covers_universal_ball,
                              "finite ball of the universal cover",
                              {"radius": 0, "dot": str}),
    "covers verify-shape": (_cmd_covers_verify_shape,
                            "certify orbits against components", {}),
    "quotient shape": (_cmd_quotient_shape,
                       "shape of the homotopy quotient",
                       {"dot": str, "max_group": 1}),
    "quotient verify": (_cmd_quotient_verify,
                        "fibration and fiber-sequence check",
                        {"max_group": 1}),
    "suite nine-way": (partial(_cmd_suite, _suite_nine_way),
                       "agreement of all decision routes", _SUITE_OPTIONS),
    "suite closure": (partial(_cmd_suite, _suite_closure),
                      "pullback and composite closure", _SUITE_OPTIONS),
    "suite compare-modalities": (partial(_cmd_suite, _suite_compare),
                                 "level-comparison implications",
                                 _SUITE_OPTIONS),
}

_GROUPS = {"covers": "covering-space analyses",
           "quotient": "group-action quotients",
           "suite": "randomized theorem suites"}


def _reads_document(command):
    return not command.startswith("suite ")


def run(request):
    """Dispatch one request and package the outcome as a Report."""
    if _reads_document(request.command) and not request.documents:
        raise UsageError("command %r needs an input document"
                         % request.command)
    handler = _COMMANDS[request.command][0]
    t0 = time.perf_counter()
    data, lines, status = handler(request)
    elapsed = time.perf_counter() - t0
    return Report(command=request.command, data=data, status=status,
                  lines=lines, elapsed=elapsed)


# ---------------------------------------------------------------------------
# argv plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _option_type(key, kind):
    """The argparse type of an option: the token itself, or an integer
    checked as the request checks it."""
    if kind is str:
        return str

    def integer(tok):
        return _checked(key, kind, int(tok))
    return integer


def _build_parser():
    parser = _Parser(prog="modalfib",
                     description="Modal classification toolkit for maps "
                                 "of graphs and finite groupoids.")
    # the subparsers of each group, the top level's under ""
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (_, hlp, options) in _COMMANDS.items():
        group, _, leaf = command.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help=_GROUPS[group]).add_subparsers(
                    dest="command", required=True)
        p = groups[group].add_parser(leaf, help=hlp)
        p.set_defaults(command=command)
        if _reads_document(command):
            p.add_argument("document",
                           help="input file in the shared text format")
        p.add_argument("--format", choices=_FORMATS, default="text")
        for key, kind in options.items():
            p.add_argument("--" + key.replace("_", "-"),
                           type=_option_type(key, kind))
    return parser


def _request_from(ns):
    """The request for the parsed argv: every option argparse set, and
    the document read and parsed."""
    options = {k: v for k, v in sorted(vars(ns).items()) if v is not None}
    command = options.pop("command")
    path = options.pop("document", None)
    documents = ()
    if path is not None:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise UsageError("cannot read %s: %s" % (path, e.strerror))
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(raw.count(b"\n", 0, e.start) + 1,
                             "not UTF-8 text (byte 0x%02x)" % raw[e.start])
        documents = (parse_document(text),)
    return AnalysisRequest(command=command, documents=documents,
                           options=options)


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 64
    except SystemExit as e:      # --help
        return e.code or 0
    try:
        request = _request_from(ns)
        report = run(request)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 64
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 65
    except SizeError as e:      # an InputError, so caught before it
        print("size bound: %s (raise with --max-group)" % e,
              file=sys.stderr)
        return 2
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 65
    if request.opt("format", "text") == "json":
        print(report.machine())
    else:
        print(report.text())
    return report.status


if __name__ == "__main__":
    sys.exit(main())
