"""Free-group words beyond reduction, for the tests.

Conjugates, powers, cyclic reduction, primitive roots and exact
simultaneous conjugacy.  `natural_iso` (lib_groupoids) decides natural
isomorphism of induced functors with `solve_simultaneous_conjugacy`.

The conjugacy machinery at the bottom decides simultaneous conjugacy
exactly: given pairs (a_i, b_i), is there a single h with
h^-1 a_i h = b_i for all i?  Solutions of the first nontrivial equation
form a coset of the centralizer of a_1, which in a free group is the
cyclic group on the primitive root; the remaining equations then pin the
exponent down to a finite window whose size is bounded by word lengths,
so the search is complete.
"""

from math import ceil

from modalfib.words import Unknown, inv, mul, reduce_word

EMPTY = ()


def conj(p, w):
    """p w p^-1."""
    return mul(p, w, inv(p))


def power(w, k):
    if k < 0:
        return power(inv(w), -k)
    out = EMPTY
    for _ in range(k):
        out = mul(out, w)
    return out


def is_cyclically_reduced(w):
    w = reduce_word(w)
    if len(w) < 2:
        return True
    return not (w[0][0] == w[-1][0] and w[0][1] == -w[-1][1])


def cyclic_reduce(w):
    """Return (core, prefix) with w == prefix . core . prefix^-1."""
    w = reduce_word(w)
    pre = []
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        pre.append(w[0])
        w = w[1:-1]
    return w, tuple(pre)


def primitive_root(w):
    """Smallest r with w == r^k, for cyclically reduced nonempty w.

    Returns (r, k).
    """
    n = len(w)
    if n == 0 or not is_cyclically_reduced(w):
        raise ValueError("not a nonempty cyclically reduced word: %r" % (w,))
    for d in range(1, n + 1):
        if n % d:
            continue
        r = w[:d]
        if power(r, n // d) == w:
            return r, n // d
    raise AssertionError("unreachable")


def conjugacy_witness(a, b):
    """A word h with h^-1 a h == b, or None.

    Complete: two elements of a free group are conjugate iff their cyclic
    cores are rotations of one another.
    """
    ca, pa = cyclic_reduce(a)
    cb, pb = cyclic_reduce(b)
    if len(ca) != len(cb):
        return None
    if not ca:
        return EMPTY
    for i in range(len(cb)):
        if cb[i:] + cb[:i] == ca:
            u = cb[:i]
            h = mul(pa, inv(u), inv(pb))
            # a = pa ca pa^-1, b = pb cb pb^-1 and cb = u ca u^-1
            assert mul(inv(h), a, h) == reduce_word(b)
            return h
    return None


def solve_simultaneous_conjugacy(pairs, max_power=None):
    """Find h with h^-1 a h == b for every (a, b) in pairs.

    Returns the witness word, or None when no witness exists, or an
    Unknown when max_power was given and cut the exponent search below
    its complete bound.  With max_power=None the answer is exact.
    """
    pairs = [(reduce_word(a), reduce_word(b)) for a, b in pairs]
    rest = []
    for a, b in pairs:
        if not a and not b:
            continue
        if not a or not b:
            # only the identity is conjugate to the identity
            return None
        rest.append((a, b))
    if not rest:
        return EMPTY
    a1, b1 = rest[0]
    h0 = conjugacy_witness(a1, b1)
    if h0 is None:
        return None
    others = rest[1:]
    if not others:
        return h0
    ca, pa = cyclic_reduce(a1)
    r, _ = primitive_root(ca)
    # solutions of the first equation: p r^t p^-1 h0
    prepared = []
    bound = 0
    for x, y in others:
        X = mul(inv(pa), x, pa)
        Y = mul(inv(pa), h0, y, inv(h0), pa)
        prepared.append((X, Y))
        bound = max(bound, ceil((len(X) + len(Y)) / (2 * len(r))) + 2)
    truncated = False
    if max_power is not None and max_power < bound:
        bound = max_power
        truncated = True
    ts = [0]
    for t in range(1, bound + 1):
        ts.extend((t, -t))
    for t in ts:
        rt = power(r, t)
        rti = inv(rt)
        if all(mul(rti, X, rt) == Y for X, Y in prepared):
            h = mul(pa, rt, inv(pa), h0)
            # r^t commutes with ca; r^-t X r^t == Y says h^-1 x h == y
            for aa, bb in pairs:
                assert mul(inv(h), aa, h) == bb
            return h
    return Unknown(bound) if truncated else None
