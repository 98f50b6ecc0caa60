"""The catalog groups and the catalog assembly as they were built before
one group type and numbered morphisms, kept as an independent reference
for the tests.  Each group is written out by its own formula; each
morphism of an assembly is an (a, g, b) triple of its source, its group
element and its target, composing through the group as in
`connected_groupoid`."""

from itertools import permutations, product

from modalfib.fingroupoids import _GROUPS, GROUP_NAMES, FinGroupoid


def _cyclic(n):
    els = tuple(range(n))
    return (els, 0, (1,) if n > 1 else (),
            {k: (0,) * k for k in els},
            {(a, b): (a + b) % n for a in els for b in els})


def _klein():
    els = ((0, 0), (0, 1), (1, 0), (1, 1))
    return (els, (0, 0), ((1, 0), (0, 1)),
            {(0, 0): (), (1, 0): (0,), (0, 1): (1,), (1, 1): (0, 1)},
            {(a, b): ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
             for a in els for b in els})


def _sym3():
    # a then b: the permutation i -> b[a[i]]
    els = tuple(permutations(range(3)))
    return (els, (0, 1, 2), ((1, 2, 0), (1, 0, 2)),
            {(0, 1, 2): (), (1, 2, 0): (0,), (1, 0, 2): (1,),
             (2, 0, 1): (0, 0), (0, 2, 1): (0, 1), (2, 1, 0): (1, 0)},
            {(a, b): tuple(b[a[i]] for i in range(3))
             for a in els for b in els})


# name -> (sorted elements, identity, generators, word of each element
# in breadth-first order, product table in diagram order)
REF_GROUPS = {"c1": _cyclic(1), "c2": _cyclic(2), "c3": _cyclic(3),
              "c4": _cyclic(4), "v4": _klein(), "s3": _sym3()}


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
                    comp[((a, g, b), (b, h, c))] = (a, G.product(g, h), c)
        for o in labels:
            ident[o] = (o, G.identity, o)
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
