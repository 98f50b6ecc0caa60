"""A plain union-find over hashable items, kept as an independent
reference for the tests: union by size with path halving on a dict of
parents, and least members picked by `_sort_key`.  The package's own
union-find (`graphs._Classes`) numbers its items and never picks a
least member, so the two share no code."""

from modalfib.graphs import _sort_key


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def least(self):
        """dict item -> least member of its class in id order, keyed in
        item order."""
        roots = {x: self.find(x) for x in self.parent}
        classes = {}
        for x, r in roots.items():
            classes.setdefault(r, []).append(x)
        rep = {r: min(xs, key=_sort_key) for r, xs in classes.items()}
        return {x: rep[r] for x, r in roots.items()}
