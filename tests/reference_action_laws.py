"""The all-pairs check of an action's multiplication table, kept as an
independent reference for the tests: for every pair (g, h) of group
elements it builds maps[g].compose(maps[h]), a validated GraphMap, and
compares its images with those of maps[g h].  `GraphAction` checks the
law only at the pairs (element, generator), without building a map."""


def all_pairs_law_holds(group, maps):
    """Whether maps[g h] is maps[g] then maps[h] for every g and h."""
    for g in group.elements:
        for h in group.elements:
            got = maps[g].compose(maps[h])
            want = maps[group.product(g, h)]
            if got.vertex_map != want.vertex_map or \
                    got.edge_map != want.edge_map:
                return False
    return True
