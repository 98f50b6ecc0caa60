"""The all-pairs check of a group homomorphism, kept as an independent
reference for the tests: for each tuple of generator images, in
itertools.product order, it composes the images along each element's
word and keeps the map when it respects the product of every pair of
elements.  `_homs_into` checks the law only at the pairs (element,
generator), through `FinGroup.respects`."""

from itertools import product


def all_pairs_homs(group, elements, compose, unit):
    """The homomorphisms from `group` into `elements` under `compose`."""
    out = []
    for images in product(elements, repeat=len(group.generators)):
        phi = {}
        for el, word in group.words.items():
            acc = unit
            for i in word:
                acc = compose(acc, images[i])
            phi[el] = acc
        if all(compose(phi[a], phi[b]) == phi[group.product(a, b)]
               for a in group.elements for b in group.elements):
            out.append(phi)
    return out
