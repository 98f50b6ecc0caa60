"""Span tracer that times modalfib's layers from outside the program.

Modules bind copies of functions through ``from .x import f``, so a
target function is replaced in every ``modalfib`` module namespace that
holds it, and a method is replaced on its class.  Each call becomes a
span with a name, start, end and parent.  Spans are kept in memory and
turned into metrics when the run ends: ``.s`` is busy time (outermost
spans of a name), ``.self_s`` is span time minus the part covered by
child spans, ``.calls`` is the call count.

Targets marked hot (called many times per request, such as ``words.mul``)
are aggregated in place instead of stored one by one; they still count
as children of the span that called them.
"""

import math
import statistics
import time

LAYERS = ("textio", "cli", "graphs", "groupoids", "hfiber", "classify",
          "words", "automata", "covers", "quotients", "fingroupoids")


def _source_vertices(args):
    return len(args[0].source.vertices)


def _letters_in(args):
    words = args[1]
    if not isinstance(words, (list, tuple)):
        return None         # a generator must reach the program unconsumed
    return sum(len(w) for w in words)


def _degree(args):
    p = args[0]
    p = getattr(p, "map", p)
    return len(p.source.vertices) // len(p.target.vertices)


def _comp_entries(args):
    return len(args[0].comp)


def _text_bytes(args):
    return len(args[0])


# (span name, module, attribute path, hot, x of the call)
# The x value feeds the scaling slopes and the work counters.
TARGETS = (
    ("textio.parse_document", "textio", "parse_document", False, _text_bytes),
    ("cli.run", "cli", "run", False, None),
    ("cli.Report.machine", "cli", "Report.machine", False, None),
    ("quotients.graph_action", "quotients", "graph_action", False, None),
    ("quotients.quotient_is_fibration", "quotients", "quotient_is_fibration",
     False, None),
    ("quotients.fiber_sequence_check", "quotients", "fiber_sequence_check",
     True, None),
    ("quotients.shape_of_quotient", "quotients", "shape_of_quotient",
     False, None),
    ("graphs.FinGraph.init", "graphs", "FinGraph.__post_init__", True, None),
    ("graphs.GraphMap.init", "graphs", "GraphMap.__post_init__", True, None),
    ("graphs.FinGraph.darts", "graphs", "FinGraph.darts", True, None),
    ("graphs.fiber", "graphs", "fiber", True, None),
    ("graphs.pi0", "graphs", "pi0", True, None),
    ("graphs.component_map", "graphs", "component_map", True, None),
    ("groupoids.shape1", "groupoids", "shape1", False, None),
    ("groupoids.induce_functor", "groupoids", "induce_functor", False,
     _source_vertices),
    ("groupoids.image_subgroup", "groupoids", "GroupoidFunctor.image_subgroup",
     False, None),
    ("hfiber.GammaAnalyzer", "hfiber", "GammaAnalyzer.at_vertex", False, None),
    ("hfiber.GammaAnalyzer", "hfiber", "GammaAnalyzer.everywhere", False, None),
    ("hfiber.prism", "hfiber", "prism", False, None),
    ("hfiber.gamma_is_equivalence", "hfiber", "gamma_is_equivalence", False,
     None),
    ("classify.classify", "classify", "classify", False, _source_vertices),
    ("classify.factor0", "classify", "factor0", False, None),
    ("classify.criteria", "classify", "constant_fiber_criterion", False, None),
    ("classify.criteria", "classify", "etale_family_check", False, None),
    ("words.mul", "words", "mul", True, None),
    ("automata.from_words", "automata", "SubgroupAutomaton.from_words", False,
     _letters_in),
    ("automata.from_schreier", "automata", "SubgroupAutomaton.from_schreier",
     False, None),
    ("automata.contains", "automata", "SubgroupAutomaton.contains", True,
     None),
    ("covers.total_space", "covers", "total_space", False, None),
    ("covers.shape_of_total", "covers", "shape_of_total", False, _degree),
    ("covers.monodromy", "covers", "monodromy", False, None),
    ("covers.universal_cover_ball", "covers", "universal_cover_ball", False,
     None),
    ("fingroupoids.FinGroupoid.init", "fingroupoids",
     "FinGroupoid.__post_init__", False, _comp_entries),
    ("fingroupoids.FinFunctor.init", "fingroupoids", "FinFunctor.__post_init__",
     True, None),
    ("fingroupoids.homotopy_pullback", "fingroupoids", "homotopy_pullback",
     False, None),
    ("fingroupoids.product_groupoid", "fingroupoids", "product_groupoid",
     False, None),
    ("fingroupoids.random_functor", "fingroupoids", "random_functor", False,
     None),
    ("fingroupoids.random_functor_into", "fingroupoids", "random_functor_into",
     False, None),
    ("fingroupoids.random_groupoid", "fingroupoids", "random_groupoid", False,
     None),
    ("fingroupoids.classify_trunc", "fingroupoids", "classify_trunc", True,
     None),
    ("fingroupoids.nine_way", "fingroupoids", "nine_way", False, None),
    ("fingroupoids.compare_modalities", "fingroupoids", "compare_modalities",
     False, None),
)


def _states_out(work, automaton):
    work["automata.states_out"] += automaton.n


# Work recorded from a call's result.
POST = {"automata.from_words": _states_out}

# Counted but not timed: too frequent for a span.
COUNTERS = (("words.reduce_word", "words", "reduce_word"),)


class Tracer:
    """Installs wrappers on the given modules and records spans while
    `enabled` is true; `uninstall` puts every original back."""

    def __init__(self, mods):
        self.mods = mods
        self.enabled = False
        self.series = None
        self.names = sorted({t[0] for t in TARGETS} | {c[0] for c in COUNTERS})
        self.calls = dict.fromkeys(self.names, 0)
        self.busy = dict.fromkeys(self.names, 0.0)
        self.self_time = dict.fromkeys(self.names, 0.0)
        self.work = dict.fromkeys(self.names + ["automata.states_out"], 0)
        self.spans = []          # (name, start, end, parent index, x, series)
        self._depth = dict.fromkeys(self.names, 0)
        self._stack = []         # [child time, span index] per open call
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self):
        namespaces = [vars(m) for m in vars(self.mods).values()]
        for name, mod, path, hot, xfn in TARGETS:
            self._patch(namespaces, mod, path,
                        lambda fn, n=name, h=hot, x=xfn: self._span(fn, n, h, x))
        for name, mod, path in COUNTERS:
            self._patch(namespaces, mod, path,
                        lambda fn, n=name: self._count(fn, n))

    def _patch(self, namespaces, mod, path, make):
        module = getattr(self.mods, mod)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = getattr(module, path)
        wrapper = make(original)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    ns[key] = wrapper

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    # -- wrappers -------------------------------------------------------

    def _count(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.enabled:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, name, hot, xfn):
        post = POST.get(name)
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        calls, busy, self_time, work = (self.calls, self.busy,
                                        self.self_time, self.work)
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            x = xfn(args) if xfn is not None else None
            parent = stack[-1][1] if stack else -1
            if hot:
                index = parent
            else:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                depth[name] -= 1
                if depth[name] == 0:
                    busy[name] += dur
                calls[name] += 1
                self_time[name] += dur - frame[0]
                if x is not None:
                    work[name] += x
                if not hot:
                    spans[index] = (name, t0, t1, parent, x, self.series)
            if post is not None:
                post(work, result)
            return result
        return wrapper

    # -- metrics --------------------------------------------------------

    def slope(self, name, series):
        """Log-log slope of span time against the span's x, fitted by
        least squares over the medians of power-of-two size bins."""
        bins = {}
        for span in self.spans:
            if span is None or span[0] != name or span[4] is None:
                continue
            if series is not None and span[5] != series:
                continue
            x = span[4]
            if x > 0:
                bins.setdefault(int(math.log2(x)), []).append(
                    (x, span[2] - span[1]))
        points = []
        for rows in bins.values():
            if len(rows) >= 3:
                xs = statistics.median(r[0] for r in rows)
                ys = statistics.median(r[1] for r in rows)
                if ys > 0:
                    points.append((math.log(xs), math.log(ys)))
        if len(points) < 2:
            return 0.0
        mx = statistics.fmean(p[0] for p in points)
        my = statistics.fmean(p[1] for p in points)
        sxx = sum((p[0] - mx) ** 2 for p in points)
        return sum((p[0] - mx) * (p[1] - my) for p in points) / sxx

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            out[name.split(".")[0]] += t
        return out
