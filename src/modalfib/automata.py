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

from .graphs import InputError, _memo, _sorted_ids
from .words import reduce_word, mul, inv

__all__ = ["SubgroupAutomaton"]


def _check_word(index, word, valid, letters):
    """Raise ValueError at the first letter of the word (number `index`)
    that is not in `valid`, the pairs (generator in `letters`, +1 or
    -1); an unhashable letter or one that is not a pair is not in it."""
    for i, x in enumerate(word):
        try:
            if tuple(x) in valid:
                continue
        except TypeError:
            pass
        raise ValueError("word %d, letter %d is %r, not a generator of %r "
                         "with sign +1 or -1" % (index, i, x, letters))


def _fold_darts(darts, pending):
    """Run the merge worklist in place; return the `parent` list.

    darts: list state -> dict (letter, +-1) -> far state, one entry per
    key.  pending: pairs of states to identify.

    Worklist folding (Touikan, "A fast algorithm for Stallings' folding
    process", IJAC 2006): each class keeps one dict of its darts, so a
    clash is seen when a dart arrives and its far ends are queued for
    merging; a dict never exceeds 2 * |letters| entries, so each merge
    costs O(|letters|).  Classes are int lists, union by size with path
    halving.  The smaller class's dict moves into the larger one and is
    set to None, so the live classes are the roots with a dict.  Stallings
    folding is confluent: the fully folded graph does not depend on the
    order of the folds, only on the identifications asked for.
    """
    n = len(darts)
    parent = list(range(n))
    size = [1] * n
    while pending:
        x, y = pending.pop()
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x == y:
            continue
        if size[x] < size[y]:
            x, y = y, x
        parent[y] = x
        size[x] += size[y]
        keep = darts[x]
        for key, far in darts[y].items():
            if key in keep:
                pending.append((keep[key], far))
            else:
                keep[key] = far
        darts[y] = None
    return parent


def _numbered(letters, darts, parent):
    """The canonical form of a folded automaton: (n, delta).

    darts: list state -> dict (letter, +-1) -> far state, where a state
    stands for its class under `parent` (a state is a root where
    parent[s] == s, and only roots' dicts are read); letters: sorted.
    Classes are numbered breadth-first from the class of state 0,
    reading each one's darts in sorted letter order with (a, +1) before
    (a, -1), so two constructions of one subgroup give literally equal
    automata.  delta comes out in `transitions()` order.
    """
    root = 0
    while parent[root] != root:
        root = parent[root]
    number = [None] * len(darts)
    number[root] = 0
    queue = [root]
    delta = {}
    keys = [(a, key) for a in letters for key in ((a, 1), (a, -1))]
    for i, s in enumerate(queue):
        d = darts[s]
        for a, key in keys:
            t = d.get(key)
            if t is None:
                continue
            while parent[t] != t:
                t = parent[t]
            j = number[t]
            if j is None:
                j = number[t] = len(queue)
                queue.append(t)
            if key[1] == 1:
                delta[i, a] = j
    return len(queue), delta


class SubgroupAutomaton:
    """Core folded automaton of a finitely generated subgroup.

    letters: sorted tuple of ambient free-group generator labels.
    n: number of states, named 0..n-1 with root 0, so at least 1.
    delta: dict (state, letter) -> state, the positive direction.
    An input that breaks these raises InputError, naming the states
    count as ("states", n) or the offending transition as ("arrow", (0,
    "a")).
    """

    def __init__(self, letters, n, delta):
        if not (isinstance(n, int) and n >= 1):
            raise InputError("an automaton needs at least its root state, "
                             "got %r states" % (n,), ("states", n))
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
            raise InputError(why, ("arrow", arrow))

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_words(letters, words):
        """Core automaton of the subgroup the words generate.

        Each reduced word is inserted as a closed path at the root.  A
        forward walk follows the existing darts from the root along the
        word's letters as far as they go, and a backward walk follows
        them from the root along the inverses of the word's tail, never
        past the forward walk.  Only the middle that neither walk covered
        gets fresh states; if the walks meet, or the forward walk reads
        the whole word, the two states reached stand for one point of
        the path and their merge is queued.

        Exact: in the flower, where every word is a separate loop, each
        reused dart is a Stallings fold of a fresh edge onto one with the
        same start and label, and a queued merge identifies two states
        that the folds of one word's path already identify.  So the
        graph built here is a quotient of the flower by identifications
        that its full fold makes, and since folding is confluent, folding
        it gives the flower's folded core.  No trimming is needed: each
        non-root state lies on the image of a reduced closed path, which
        enters and leaves it by different edges.

        The walks follow only darts laid by checked middles, so checking
        the middle letters checks every letter of a reduced word; a word
        that reduction shortened is checked as given, since no walk reads
        the letters it cancelled.  A letter that is not a pair of a
        generator in `letters` and a sign +1 or -1, an unhashable one
        included, raises ValueError naming the word and the letter.
        """
        letters = tuple(_sorted_ids(set(letters)))
        valid = {(a, sign) for a in letters for sign in (1, -1)}
        darts = [{}]
        pending = []
        for index, given in enumerate(words):
            if not isinstance(given, (tuple, list)):
                given = tuple(given)
            try:
                try:
                    w = reduce_word(given)
                except ValueError:
                    # a letter of one entry or of more than two
                    _check_word(index, given, valid, letters)
                    raise
                end = len(w)
                if end < len(given):
                    _check_word(index, given, valid, letters)
                if not end:
                    continue
                s, f = 0, 0
                while f < end:
                    t = darts[s].get(w[f])
                    if t is None:
                        break
                    s, f = t, f + 1
                if f == end:
                    if s:
                        pending.append((s, 0))
                    continue
                e, b = 0, end
                while b > f:
                    g, sg = w[b - 1]
                    t = darts[e].get((g, -sg))
                    if t is None:
                        break
                    e, b = t, b - 1
                if b == f:
                    if s != e:
                        pending.append((s, e))
                    continue
                if not valid.issuperset(w[f:b]):
                    _check_word(index, given, valid, letters)
            except TypeError:
                # an unhashable generator, or a letter that is not a pair
                _check_word(index, given, valid, letters)
                raise
            # the forward walk stopped for want of w[f] at s, the backward
            # one for want of w[b-1]'s inverse at e, and a fresh state
            # holds only the inverse of the letter that entered it, which
            # the next letter of a reduced word is not.  Those two darts
            # clash only where s == e and the middle starts with the
            # inverse of its last letter: folding that pair makes one
            # fresh dart, peeled off until the middle is cyclically
            # reduced at s.
            while s == e and w[f] == (w[b - 1][0], -w[b - 1][1]):
                g, sg = w[f]
                t = len(darts)
                darts[s][g, sg] = t
                darts.append({(g, -sg): s})
                s = e = t
                f, b = f + 1, b - 1
            for i in range(f, b - 1):
                g, sg = w[i]
                t = len(darts)
                darts[s][g, sg] = t
                darts.append({(g, -sg): s})
                s = t
            g, sg = w[b - 1]
            darts[s][g, sg] = e
            darts[e][g, -sg] = s
        n, delta = _numbered(letters, darts, _fold_darts(darts, pending))
        return SubgroupAutomaton(letters, n, delta)

    @staticmethod
    def from_schreier(letters, perms, basepoint):
        """Stabilizer of basepoint under a permutation action.

        perms: dict letter -> dict point -> point, a permutation of one
        finite point set for every letter, which must hold the basepoint.
        The resulting automaton is complete, with one state per point
        reachable from the basepoint.  A missing letter, a key of perms
        that is not a letter, a letter that does not permute the common
        point set, or a basepoint outside it raises ValueError naming
        it.
        """
        letters = tuple(_sorted_ids(set(letters)))
        points = None
        for a in letters:
            pa = perms.get(a)
            if pa is None:
                raise ValueError("letter %r has no permutation" % (a,))
            # as many values as keys, so equal sets make a bijection
            if set(pa.values()) != pa.keys():
                raise ValueError("letter %r does not act by a permutation"
                                 % (a,))
            if points is None:
                points = pa.keys()
            elif pa.keys() != points:
                raise ValueError("letter %r permutes other points than "
                                 "letter %r" % (a, letters[0]))
        # every letter is a key, so a longer dict has a foreign key
        if len(perms) != len(letters):
            x = next(x for x in perms if x not in letters)
            raise ValueError("%r is not a letter; letters are %s"
                             % (x, list(letters)))
        if points is not None and basepoint not in points:
            raise ValueError("basepoint %r is not a point of the action"
                             % (basepoint,))
        # the points reachable from the basepoint, numbered as found
        number = {basepoint: 0}
        found = [basepoint]
        darts = []
        for p in found:
            d = {}
            for a in letters:
                q = perms[a][p]
                j = number.get(q)
                if j is None:
                    j = number[q] = len(found)
                    found.append(q)
                d[a, 1] = j
            darts.append(d)
        for i, d in enumerate(darts):
            for a in letters:
                darts[d[a, 1]][a, -1] = i
        n, delta = _numbered(letters, darts, list(range(len(darts))))
        return SubgroupAutomaton(letters, n, delta)

    # -- tracing -----------------------------------------------------------

    def step(self, state, letter, sign):
        if sign > 0:
            return self.delta.get((state, letter))
        return self.rdelta.get((state, letter))

    @_memo
    def _columns(self):
        """dict letter (g, +1) or (g, -1) -> dict state -> state."""
        cols = {}
        for (u, a), v in self.delta.items():
            cols.setdefault((a, 1), {})[u] = v
            cols.setdefault((a, -1), {})[v] = u
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
        word is reduced and traced again from `start` (`_trace_reduced`),
        which rejects such a letter, cancelled or not.  So the fast pass
        answers only for words whose every letter is valid.
        """
        cols = self._columns
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
        """Reduce, then trace: the exact route for any word.  A letter
        that is not a pair of a hashable generator and a sign +1 or -1
        raises ValueError, also where reduction would cancel it."""
        for i, x in enumerate(word):
            try:
                g, sg = x
                hash(g)
            except (TypeError, ValueError):
                sg = None
            if sg != 1 and sg != -1:
                raise ValueError("letter %d of the word, %r, is not a pair of "
                                 "a hashable generator and a sign +1 or -1"
                                 % (i, x))
        delta, rdelta = self.delta, self.rdelta
        s = start
        for g, sg in reduce_word(word):
            s = (delta if sg == 1 else rdelta).get((s, g))
            if s is None:
                return None
        return s

    def contains(self, word):
        return self.trace(word) == 0

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
