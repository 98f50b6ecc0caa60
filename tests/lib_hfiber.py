"""Coset enumeration that only the tests use.

`enumerate_cosets(entry)` lists one reduced word per coset of a
`modalfib.hfiber.CosetEntry`, breadth first, which the tests read as an
independent count of the symbolic fiber's points.
"""


def enumerate_cosets(entry, radius=16, max_cosets=64):
    """Breadth-first reduced words, one per coset, plus a truncation
    flag.  Complete automata finish exactly; infinite coset spaces
    stop at the radius or count bound."""
    reps = [()]
    frontier = [()]
    truncated = False
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in entry.letters:
                for s in (+1, -1):
                    if w and w[-1] == (g, -s):
                        continue
                    cand = w + ((g, s),)
                    if any(entry.same_coset(cand, r) for r in reps):
                        continue
                    if len(reps) >= max_cosets:
                        return reps, True
                    reps.append(cand)
                    nxt.append(cand)
        frontier = nxt
        if not frontier:
            return reps, truncated
    if frontier:
        n = entry.coset_count()
        truncated = n is None or n > len(reps)
    return reps, truncated
