"""The catalog assembly as it was built before its morphisms were
numbered, kept as an independent reference for the tests: each morphism
is an (a, g, b) triple of its source, its group element and its target,
composing through the group as in `connected_groupoid`."""

from itertools import product

from modalfib.fingroupoids import _GROUPS, GROUP_NAMES, FinGroupoid


def ref_build_blocks(blocks):
    objects = []
    morphisms = []
    src, dst, comp, ident = {}, {}, {}, {}
    base = 0
    for k, gname in blocks:
        G = _GROUPS[gname]
        labels = tuple(range(base, base + k))
        base += k
        objects.extend(labels)
        block_mors = [(a, g, b) for a in labels for g in G.elements
                      for b in labels]
        morphisms.extend(block_mors)
        for a, g, b in block_mors:
            src[(a, g, b)] = a
            dst[(a, g, b)] = b
            for c in labels:
                for h in G.elements:
                    comp[((a, g, b), (b, h, c))] = (a, G.mul[(g, h)], c)
        for o in labels:
            ident[o] = (o, G.unit, o)
    return FinGroupoid(tuple(objects), tuple(morphisms),
                       src, dst, comp, ident)


def reachable_block_lists(max_objects, max_morphisms):
    """Every block list that `_random_blocks` can return at these bounds:
    one to three blocks (k <= 3 objects, a catalog group) that fit."""
    blocks = [(k, g) for k in (1, 2, 3) for g in GROUP_NAMES]
    out = []
    for r in (1, 2, 3):
        for bl in product(blocks, repeat=r):
            if sum(k for k, _ in bl) <= max_objects and sum(
                    k * k * len(_GROUPS[g].elements) for k, g in bl) \
                    <= max_morphisms:
                out.append(bl)
    return out
