"""Pure-Python kernels.

Permutations are bare tuples of point images; composition is left to right,
so compose(a, b) maps i to b[a[i]].  chromarank._kernels_c implements the
same contract compiled; chromarank.kernels picks one at import time.

Every product is one C-level call: _then(a) is operator.itemgetter(*a),
which maps b to (b[a[0]], b[a[1]], ...), that is to compose(a, b).  The
closure and orbit loops build the getter of a permutation, or of a tuple of
points, once and apply it to many others.  itemgetter of a single index
returns the bare item rather than a 1-tuple, and of no index is an error,
so below two points _then builds the tuple itself.
"""

from math import lcm
from operator import itemgetter

BACKEND = "pure"


def _then(a):
    """The map b -> (b[a[0]], b[a[1]], ...), compose(a, b) for a permutation a."""
    return itemgetter(*a) if len(a) > 1 else lambda b: tuple([b[i] for i in a])


def compose(a, b):
    """a then b: the permutation mapping i to b[a[i]]."""
    return _then(a)(b)


def inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def conjugate(x, g):
    """x conjugated by g, i.e. inverse(g) * x * g."""
    out = [0] * len(x)
    for j, gj in enumerate(g):
        out[gj] = g[x[j]]
    return tuple(out)


def commutes(a, b):
    return _then(a)(b) == _then(b)(a)


def element_order(a):
    n = 1
    seen = bytearray(len(a))
    for i in range(len(a)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = a[j]
            length += 1
        n = lcm(n, length)
    return n


def close_group(gens, limit):
    """All products of the generators, sorted; None once the count passes limit.

    Dimino's closure: the generators join one at a time, each grown into
    the span by _extend_span.  The generator list must be nonempty and of
    uniform degree.
    """
    span = {tuple(range(len(gens[0])))}
    added = []
    for s in gens:
        if s in span:
            continue
        added.append(s)
        _extend_span(span, added, limit)
        if len(span) > limit:
            return None
    return sorted(span)


def _extend_span(span, gens, cap):
    """Grow span, the group generated by gens[:-1], into the one generated by gens.

    Dimino's step (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 4.1): the new group is a union of left cosets y H of the old
    group H, and a product s r of a generator s and a coset representative
    r that lands outside the span so far represents a new coset.  Stops
    once the span has more than cap elements.
    """
    gen_thens = [_then(s) for s in gens]
    block = list(span)
    reps = [tuple(range(len(gens[0])))]
    for r in reps:
        for s_then in gen_thens:
            y = s_then(r)
            if y not in span:
                reps.append(y)
                y_then = _then(y)
                span.update([y_then(h) for h in block])
                if len(span) > cap:
                    return


def conjugacy_orbit(x, gens, inverses):
    """Orbit of x under conjugation by the generators, in discovery order.

    inverses[k] is the inverse of gens[k]; the caller inverts each generator
    once for all the orbits it walks.  Lists of different lengths raise
    ValueError.
    """
    gen_pairs = [(_then(g_inv), g) for g, g_inv in zip(gens, inverses, strict=True)]
    orbit = {x}
    queue = [x]
    for e in queue:
        e_then = _then(e)
        for g_inv_then, g in gen_pairs:
            y = g_inv_then(e_then(g))
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return queue


def tuple_orbit(x, perms):
    """Orbit of the tuple of points x under perms, in discovery order.

    A permutation acts on every entry at once: perm sends x to the tuple y
    with y[j] = perm[x[j]].  The perms must be nonempty and of one length,
    and x's entries points they act on.  The tuple walk passes tuples of
    indices into its sorted p-power elements, under conjugation by the
    group's generators tabulated as permutations of those indices.
    """
    orbit = {x}
    queue = [x]
    for e in queue:
        e_then = _then(e)
        for perm in perms:
            y = e_then(perm)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return queue


def centralizer_filter(elements, targets):
    """Members of elements commuting with every target, input order kept."""
    target_pairs = [(t, _then(t)) for t in targets]
    out = []
    for e in elements:
        e_then = _then(e)
        for t, t_then in target_pairs:
            if e_then(t) != t_then(e):
                break
        else:
            out.append(e)
    return out


def normalizer_filter(elements, sub_gens, sub_elements):
    """Members of elements conjugating the given subgroup onto itself."""
    sub = set(sub_elements)
    out = []
    for g in elements:
        for s in sub_gens:
            if conjugate(s, g) not in sub:
                break
        else:
            out.append(g)
    return out
