"""Folded subgroup automata for finitely generated free groups.

A subgroup automaton is the classic folded labeled graph: states with a
root, and for each free-group letter a partial permutation-like
transition relation that is deterministic in both directions.  Words act
by tracing; a word lies in the subgroup iff it traces root to root.

Automata are canonicalized on construction (breadth-first relabeling in
sorted letter order), so two constructions of the same subgroup produce
literally equal objects.  Structural equality and mutual generator
membership are therefore two independent routes to subgroup equality,
and the tests drive them against each other.
"""

from collections import deque

from .graphs import _UnionFind, _sorted_ids
from .words import reduce_word, mul, inv

__all__ = ["SubgroupAutomaton"]


class _AutomatonError(ValueError):
    """`subject` names the offending transition, as ("arrow", (0, "a"))."""

    def __init__(self, message, arrow):
        super().__init__(message)
        self.subject = ("arrow", arrow)


def _fold(nstates, edges, root):
    """Identify states until transitions are deterministic both ways.

    Worklist folding (Touikan, "A fast algorithm for Stallings' folding
    process", IJAC 2006): each class keeps one dict of its darts keyed
    (letter, +-1), so a clash is seen when a dart arrives and its far ends
    are queued for merging; a dict never exceeds 2 * |letters| entries,
    so each merge costs O(|letters|).

    The result is read off the live classes' dicts.  Merges only move
    entries into the kept class or queue clashing far ends, so at the end
    each edge u -a-> v has left (a, +1) -> f in u's class with find(f) ==
    find(v), and every entry came from an edge: delta and the states (the
    roots with a non-empty dict) are those that reading each edge through
    `find` twice gives, hence the same `n` and `transitions()`.
    """
    uf = _UnionFind(range(nstates))
    darts = [{} for _ in range(nstates)]
    pending = []

    def seed(s, key, far):
        d = darts[s]
        if key in d:
            pending.append((d[key], far))
        else:
            d[key] = far

    for u, a, v in edges:
        seed(u, (a, 1), v)
        seed(v, (a, -1), u)
    while pending:
        x, y = pending.pop()
        rx, ry = uf.find(x), uf.find(y)
        if rx == ry:
            continue
        uf.union(rx, ry)
        keep = uf.find(rx)
        gone = ry if keep == rx else rx
        for key, far in darts[gone].items():
            seed(keep, key, far)
        darts[gone] = None
    root = uf.find(root)
    seen = {root} | {r for r, d in enumerate(darts) if d}
    delta = {(r, a): uf.find(far) for r, d in enumerate(darts) if d
             for (a, sign), far in d.items() if sign == 1}
    return seen, delta, root


class SubgroupAutomaton:
    """Core folded automaton of a finitely generated subgroup.

    letters: sorted tuple of ambient free-group generator labels.
    n: number of states, named 0..n-1 with root 0.
    delta: dict (state, letter) -> state, the positive direction.
    """

    def __init__(self, letters, n, delta):
        self.letters = tuple(_sorted_ids(set(letters)))
        self.n = n
        self.delta = dict(delta)
        declared = set(self.letters)
        rdelta = self.rdelta = {}
        for arrow, v in self.delta.items():
            u, a = arrow
            if not (isinstance(u, int) and isinstance(v, int)
                    and 0 <= u < n and 0 <= v < n):
                why = "delta state out of range in %r %r -> %r" % (u, a, v)
            elif a not in declared:
                why = "delta letter %r not declared" % (a,)
            elif (v, a) in rdelta:
                why = "not folded: two edges with one label enter one state"
            else:
                rdelta[v, a] = u
                continue
            raise _AutomatonError(why, arrow)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_words(letters, words):
        edges = []
        fresh = [1]

        def new_state():
            s = fresh[0]
            fresh[0] += 1
            return s

        for w in words:
            w = reduce_word(w)
            cur = 0
            for i, (g, s) in enumerate(w):
                nxt = 0 if i == len(w) - 1 else new_state()
                if s > 0:
                    edges.append((cur, g, nxt))
                else:
                    edges.append((nxt, g, cur))
                cur = nxt
        # No trimming: each non-root state lies inside the folded image of
        # a reduced closed path, which enters and leaves it by different
        # edges, so the folded graph is already the core.
        states, delta, root = _fold(fresh[0], edges, 0)
        return SubgroupAutomaton._canonical(letters, states, delta, root)

    @staticmethod
    def from_schreier(letters, perms, basepoint):
        """Stabilizer of basepoint under a permutation action.

        perms: dict letter -> dict point -> point (total on a common
        finite point set).  The resulting automaton is complete, with one
        state per point reachable from the basepoint.
        """
        letters = tuple(_sorted_ids(set(letters)))
        for a in letters:
            pa = perms[a]
            # as many values as keys, so equal sets make a bijection
            if set(pa.values()) != pa.keys():
                raise ValueError("letter %r does not act by a permutation"
                                 % (a,))
        states = set()
        delta = {}
        frontier = [basepoint]
        states.add(basepoint)
        while frontier:
            p = frontier.pop()
            for a in letters:
                q = perms[a][p]
                delta[(p, a)] = q
                if q not in states:
                    states.add(q)
                    frontier.append(q)
        return SubgroupAutomaton._canonical(letters, states, delta, basepoint)

    @staticmethod
    def full_group(letters):
        """The whole free group: one state, every letter a loop."""
        letters = tuple(_sorted_ids(set(letters)))
        return SubgroupAutomaton(letters, 1, {(0, a): 0 for a in letters})

    @staticmethod
    def _canonical(letters, states, delta, root):
        letters = tuple(_sorted_ids(set(letters)))
        rdelta = {(v, a): u for (u, a), v in delta.items()}
        order = {root: 0}
        queue = deque([root])
        while queue:
            s = queue.popleft()
            for a in letters:
                for nxt in (delta.get((s, a)), rdelta.get((s, a))):
                    if nxt is not None and nxt not in order:
                        order[nxt] = len(order)
                        queue.append(nxt)
        # both callers pass only states reachable from root along delta
        assert len(order) == len(states), "automaton not connected"
        new_delta = {(order[u], a): order[v] for (u, a), v in delta.items()}
        return SubgroupAutomaton(letters, len(states), new_delta)

    # -- tracing -----------------------------------------------------------

    def step(self, state, letter, sign):
        if sign > 0:
            return self.delta.get((state, letter))
        return self.rdelta.get((state, letter))

    def _letter_columns(self):
        """dict letter (g, +1) or (g, -1) -> dict state -> state."""
        cols = {}
        for (u, a), v in self.delta.items():
            cols.setdefault((a, 1), {})[u] = v
            cols.setdefault((a, -1), {})[v] = u
        self._columns = cols
        return cols

    def trace(self, word, start=0):
        """State reached from `start` along the reduced form of `word`,
        or None where the reduced word leaves the automaton.

        One pass reads the word as given through per-letter columns,
        built on the first trace.  This is exact: `__init__` makes rdelta
        invert delta, so the automaton is folded, and a cancelling pair
        x x^-1 returns to the state it left.  Free reduction only deletes
        such pairs, so if every step of the unreduced word is defined, it
        ends where the reduced word ends.  Whenever a step is undefined,
        or a letter is not a hashable (g, +-1) of some transition, the
        word is reduced and traced again from `start` (`_trace_reduced`).
        """
        try:
            cols = self._columns
        except AttributeError:
            cols = self._letter_columns()
        if not isinstance(word, (tuple, list)):
            word = tuple(word)
        s = start
        try:
            for x in word:
                s = cols[x][s]
        except (KeyError, TypeError):
            return self._trace_reduced(word, start)
        return s

    def _trace_reduced(self, word, start):
        """Reduce, then trace: the exact route for any word."""
        delta, rdelta = self.delta, self.rdelta
        s = start
        for g, sg in reduce_word(word):
            s = (delta if sg > 0 else rdelta).get((s, g))
            if s is None:
                return None
        return s

    def contains(self, word):
        return self.trace(word) == 0

    def coset_state(self, word):
        """State reached from the root, or None; complete automata give
        the full Schreier coset action."""
        return self.trace(word)

    # -- structure ---------------------------------------------------------

    def transitions(self):
        """delta's items in id order of their (state, letter) keys."""
        d = self.delta
        return [(k, d[k]) for k in _sorted_ids(d)]

    def complete(self):
        need = self.n * len(self.letters)
        return len(self.delta) == need and len(self.rdelta) == need

    def index(self):
        return self.n if self.complete() else None

    def rank(self):
        return len(self.delta) - self.n + 1

    def spanning_paths(self):
        """Word from the root to each state along a BFS tree."""
        paths = {0: ()}
        queue = deque([0])
        while queue:
            s = queue.popleft()
            for a in self.letters:
                t = self.delta.get((s, a))
                if t is not None and t not in paths:
                    paths[t] = paths[s] + ((a, +1),)
                    queue.append(t)
                t = self.rdelta.get((s, a))
                if t is not None and t not in paths:
                    paths[t] = paths[s] + ((a, -1),)
                    queue.append(t)
        return paths

    def generators(self):
        """Free basis: one word per transition off a spanning tree."""
        paths = self.spanning_paths()
        tree = set()
        for s, p in paths.items():
            if p:
                g, sg = p[-1]
                prev = self.step(s, g, -sg)
                tree.add((prev, g, s) if sg > 0 else (s, g, prev))
        gens = []
        for (u, a), v in self.transitions():
            if (u, a, v) in tree:
                continue
            gens.append(mul(paths[u], ((a, +1),), inv(paths[v])))
        return gens

    def conjugate_by(self, w):
        """Automaton of w^-1 H w."""
        return SubgroupAutomaton.from_words(
            self.letters, [mul(inv(w), g, w) for g in self.generators()])

    # -- comparisons -------------------------------------------------------

    def key(self):
        return (self.letters, self.n, tuple(self.transitions()))

    def same(self, other):
        """Structural equality of canonical forms."""
        return self.key() == other.key()

    def subgroup_equal(self, other):
        """Mutual membership of generators; independent of `same`."""
        return (all(other.contains(g) for g in self.generators()) and
                all(self.contains(g) for g in other.generators()))

    def __repr__(self):
        return "SubgroupAutomaton(%d states, rank %d%s)" % (
            self.n, self.rank(), ", complete" if self.complete() else "")
