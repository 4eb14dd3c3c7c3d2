"""Commuting p-power tuples, their conjugation classes, and rank identities.

A height-h tuple over a group G at a prime p is an ordered h-tuple of
pairwise-commuting elements of p-power order; these correspond to
homomorphisms from Z_p^h into G.  Classes are taken under simultaneous
conjugation, and the class count at height h is the rank studied here.

Two independent algorithms count those classes.  hkr_rank recurses on the
centralizer decomposition rank(G, h) = sum of rank(C_G(x), h-1) over the
p-power conjugacy-class representatives x of G, so its work grows with the
number of classes; a direct product or wreath recorded by its constructor
(or a relabeled copy of one) takes its rank from its factors' ranks
instead.  commuting_tuple_classes walks the raw tuples and groups them
into orbits; it is the oracle the recursion and the factor rule are tested
against, and it supplies the tuple representatives and centralizers that
the loops command prints.  verify_rank_identity takes the rank at
height n from the walk and the sum over (n-t)-tuple centralizers from the
recursion, so for every t >= 1 it compares the two algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from . import kernels
from .arith import is_p_power, is_prime
from .errors import ChromarankError, HeightExceeded
from .group import PermGroup, enumeration_limit
from .perm import Permutation

DEFAULT_MAX_HEIGHT = 4


def _check_height(h: int) -> None:
    if h < 0:
        raise ValueError("height must be nonnegative")
    if h > DEFAULT_MAX_HEIGHT:
        raise HeightExceeded(f"height {h} above bound {DEFAULT_MAX_HEIGHT}")


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class PTuple:
    """Pairwise-commuting tuple of p-power-order permutations."""

    prime: int
    entries: tuple[Permutation, ...]

    def __post_init__(self):
        _check_prime(self.prime)
        raw = [e.images for e in self.entries]
        for i, t in enumerate(raw):
            if not is_p_power(kernels.element_order(t), self.prime):
                raise ChromarankError(f"entry {i} does not have {self.prime}-power order")
            for u in raw[i + 1 :]:
                if not kernels.commutes(t, u):
                    raise ChromarankError("tuple entries do not commute pairwise")

    @property
    def height(self) -> int:
        return len(self.entries)

    def cycle_strings(self) -> list[str]:
        return [e.cycle_string() for e in self.entries]


@dataclass(frozen=True)
class LoopComponent:
    """One conjugation class of tuples with its centralizer."""

    rep: PTuple
    centralizer: PermGroup
    orbit_size: int


@dataclass(frozen=True)
class LoopDecomposition:
    """All tuple classes at one prime and height over a fixed group."""

    prime: int
    height: int
    components: tuple[LoopComponent, ...]

    def raw_tuple_count(self) -> int:
        return sum(c.orbit_size for c in self.components)

    def __len__(self) -> int:
        return len(self.components)


def p_power_elements(
    group: PermGroup, p: int, limit: int | None = None
) -> tuple[Permutation, ...]:
    """Elements of p-power order (identity included), in lex order."""
    _check_prime(p)
    return group._cached(
        ("p_power", p),
        limit,
        lambda: tuple(
            Permutation._wrap(t)
            for t, o in zip(group._raw_elements(limit), group._element_orders(limit))
            if is_p_power(o, p)
        ),
    )


def commuting_tuple_classes(
    group: PermGroup, p: int, h: int, limit: int | None = None
) -> LoopDecomposition:
    """Conjugation classes of commuting p-power h-tuples.

    Tuples are enumerated by a depth-first walk through iterated
    centralizers: a node holds C(prefix), the centralizer of its prefix,
    built as C(prefix[:-1])._centralizer_raw([prefix[-1]]), and extends the
    prefix by the p-power elements of C(prefix).  Each new tuple, and each
    new prefix, is closed under simultaneous conjugation by the group
    generators.  The walk runs in lex order, so it reaches every class
    first at the class's lex-least tuple, which is its representative;
    components come out sorted by it.  A prefix of a lex-least tuple is
    lex-least among its own conjugates, so a prefix whose orbit was reached
    before is not extended.  No class table is read, and nothing is
    cached: each call checks the limit and walks again.
    """
    _check_prime(p)
    _check_height(h)
    if h == 0:  # one empty tuple, centralized by the group; nothing to enumerate
        return LoopDecomposition(p, 0, (LoopComponent(PTuple(p, ()), group, 1),))
    limit = enumeration_limit(limit)
    group._check_limit(limit)
    return _walk_classes(group, p, h, limit)


def _walk_classes(group: PermGroup, p: int, h: int, limit: int) -> LoopDecomposition:
    base = [e.images for e in p_power_elements(group, p, limit)]
    raw_gens = group._raw
    order = group.order()
    # Orbits reached so far, of prefixes and of full tuples alike: tuples of
    # different lengths never collide.
    seen: set[tuple] = set()
    components: list[LoopComponent] = []

    def first_reached(tup: tuple) -> tuple | None:
        """The orbit of tup, or None when the walk has reached it before."""
        if tup in seen:
            return None
        orbit = kernels.tuple_orbit(tup, raw_gens)
        seen.update(orbit)
        if min(orbit) != tup:
            raise ChromarankError("walk reached a tuple class away from its lex-least tuple")
        return orbit

    def visit(tup: tuple, above: PermGroup):
        orbit = first_reached(tup)
        if orbit is None:
            return
        ptuple = PTuple(p, tuple(Permutation._wrap(t) for t in tup))
        cent = above._centralizer_raw([tup[-1]], limit)
        if order % cent.order() or order // cent.order() != len(orbit):
            raise ChromarankError("orbit size disagrees with centralizer index")
        components.append(LoopComponent(ptuple, cent, len(orbit)))

    _walk([], group, base, h, limit, first_reached, visit)
    components.sort(key=lambda c: tuple(e.images for e in c.rep.entries))
    return LoopDecomposition(p, h, tuple(components))


def _walk(prefix: list, above: PermGroup, pool: list, h: int, limit: int, reach, visit) -> None:
    # above is C(prefix) and pool its p-power elements.  A prefix is
    # extended only when reach finds it first reached, and a full tuple's
    # centralizer is built in visit, only for a class representative.
    # Module-level, since a nested function that calls itself is a
    # reference cycle holding everything the walk built.
    for x in pool:
        prefix.append(x)
        if len(prefix) == h:
            visit(tuple(prefix), above)
        elif reach(tuple(prefix)) is not None:
            cent = above._centralizer_raw([x], limit)
            members = set(cent._raw_elements(limit))
            _walk(prefix, cent, [y for y in pool if y in members], h, limit, reach, visit)
        prefix.pop()


def hkr_rank(group: PermGroup, p: int, h: int, limit: int | None = None) -> int:
    """Number of commuting p-power h-tuple classes (1 at height 0).

    Counted by the centralizer recursion: at height 1 the classes are the
    p-power conjugacy classes, and above it the count is the sum of the
    height-(h-1) ranks of the centralizers of their representatives.  The
    centralizer of a central class is the group itself and is not rebuilt.
    Each centralizer's order times its class size must equal |G|.  A group
    with a factor record (PermGroup.factor_record) takes its rank from its
    factors' ranks instead, their product or _wreath_rank, and builds no
    class table of its own.  Counts are cached on the group, and the limit
    is checked before the cache is read; commuting_tuple_classes is the
    independent oracle.
    """
    _check_prime(p)
    _check_height(h)
    if h == 0:
        return 1
    limit = enumeration_limit(limit)
    return group._cached(("rank", p, h), limit, lambda: _rank(group, p, h, limit))


def _rank(group: PermGroup, p: int, h: int, limit: int) -> int:
    record = group.factor_record()
    if record is not None:
        factors, n = record
        ranks = [hkr_rank(f, p, h, limit) for f in factors]
        return prod(ranks) if n is None else _wreath_rank(ranks[0], p, h, n)
    table = group.conjugacy_classes(limit)
    reps = [
        (rep, size)
        for rep, size, o in zip(table.reps, table.sizes, table.orders)
        if is_p_power(o, p)
    ]
    if h == 1:
        return len(reps)
    order = group.order()
    count = 0
    for rep, size in reps:
        cent = group._class_centralizer(rep, size, limit)
        if cent.order() * size != order:
            raise ChromarankError("class size disagrees with centralizer index")
        count += hkr_rank(cent, p, h - 1, limit)
    return count


def _wreath_rank(base_rank: int, p: int, h: int, m: int) -> int:
    """rank(H wr C_m, h) from N = rank(H, h).

    A commuting tuple of H wr C_m maps onto a p-subgroup C_d of the top
    group C_m, d = p^b dividing m; s(d) of the homomorphisms Z_p^h -> C_m
    have image C_d, with s(1) = 1 and s(p^b) = p^(bh) - p^((b-1)h).  The
    classes over one such homomorphism are the necklaces of length m / d
    in N colours, Neck(k, N) = (1/k) sum over i < k of N^gcd(i, k), which
    is (1/k) sum over j | k of phi(j) N^(k/j).  The rank is the sum of
    s(d) Neck(m/d, N) over those d; for m = p it is
    (N^p + (p-1) N)/p + (p^h - 1) N.
    """
    total = 0
    d = 1
    while m % d == 0:
        k = m // d
        necklaces = sum(base_rank ** gcd(i, k) for i in range(k)) // k
        surjections = 1 if d == 1 else d**h - (d // p) ** h
        total += surjections * necklaces
        d *= p
    return total


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the centralizer rank identity at one (p, n, t)."""

    group: str
    p: int
    n: int
    t: int
    lhs: int
    per_component: tuple[tuple[PTuple, int, int], ...]
    rhs: int
    passed: bool

    def to_record(self) -> dict:
        return {
            "group": self.group,
            "p": self.p,
            "n": self.n,
            "t": self.t,
            "lhs": self.lhs,
            "per_component": [
                {
                    "tuple": rep.cycle_strings(),
                    "centralizer_order": c_order,
                    "rank_t": rank_t,
                }
                for rep, c_order, rank_t in self.per_component
            ],
            "rhs": self.rhs,
            "pass": self.passed,
        }


def verify_rank_identity(
    group: PermGroup, p: int, n: int, t: int, limit: int | None = None, label: str | None = None
) -> IdentityReport:
    """Check rank(G, n) against the t-rank sum over (n-t)-tuple centralizers.

    The identity holds for every finite group, so a failed report signals
    an implementation bug rather than an interesting group.  lhs counts the
    tuple walk's height-n classes; rhs sums hkr_rank, the centralizer
    recursion, at height t over the walk's (n-t)-tuple classes.  Every
    t >= 1 thus compares the two algorithms.  t = 0 is the only case that
    checks nothing: both sides count the components of one height-n walk.
    """
    _check_prime(p)
    _check_height(n)
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    decomposition = commuting_tuple_classes(group, p, n, limit)
    lhs = len(decomposition)
    if t:
        decomposition = commuting_tuple_classes(group, p, n - t, limit)
    per = []
    rhs = 0
    for comp in decomposition.components:
        rank_t = hkr_rank(comp.centralizer, p, t, limit)
        per.append((comp.rep, comp.centralizer.order(), rank_t))
        rhs += rank_t
    if label is None:
        label = f"<group of order {group.order()} on {group.degree} points>"
    return IdentityReport(label, p, n, t, lhs, tuple(per), rhs, lhs == rhs)
