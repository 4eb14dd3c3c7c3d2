"""Commuting p-power tuples, their conjugation classes, and rank identities.

A height-h tuple over a group G at a prime p is an ordered h-tuple of
pairwise-commuting elements of p-power order; these correspond to
homomorphisms from Z_p^h into G.  Classes are taken under simultaneous
conjugation, and the class count at height h is the rank studied here.

Two independent algorithms count those classes.  hkr_rank recurses on the
centralizer decomposition rank(G, h) = sum of rank(C_G(x), h-1) over the
p-power conjugacy-class representatives x of G, so its work grows with the
number of classes.  commuting_tuple_classes walks every raw tuple and
groups the walk's tuples into orbits; it is the oracle the recursion is
tested against, and it supplies the tuple representatives and centralizers
that the loops command prints.  verify_rank_identity takes the rank at
height n from the walk and the sum over (n-t)-tuple centralizers from the
recursion, so for every t >= 1 it compares the two algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .arith import is_p_power, is_prime
from .errors import ChromarankError, HeightExceeded
from .group import PermGroup
from .perm import Permutation

DEFAULT_MAX_HEIGHT = 4


def _check_height(h: int, max_height: int) -> None:
    if h < 0:
        raise ValueError("height must be nonnegative")
    if h > max_height:
        raise HeightExceeded(f"height {h} above configured bound {max_height}")


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

    def image_group(self, degree: int | None = None) -> PermGroup:
        """The subgroup generated by the entries (the image of Z_p^h)."""
        if self.entries:
            return PermGroup(self.entries[0].degree, self.entries)
        if degree is None:
            raise ValueError("empty tuple needs an explicit degree")
        return PermGroup.trivial(degree)

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
    group: PermGroup
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
    group._check_limit(limit)
    key = ("p_power", p)
    cached = group._cache.get(key)
    if cached is None:
        cached = tuple(
            Permutation._wrap(t)
            for t in group._raw_elements(limit)
            if is_p_power(kernels.element_order(t), p)
        )
        group._cache[key] = cached
    return cached


def commuting_tuple_classes(
    group: PermGroup,
    p: int,
    h: int,
    limit: int | None = None,
    max_height: int = DEFAULT_MAX_HEIGHT,
) -> LoopDecomposition:
    """Conjugation classes of commuting p-power h-tuples.

    Tuples are enumerated by a depth-first walk through iterated
    centralizers: a node holds C(prefix), the centralizer of its prefix,
    built as C(prefix[:-1])._centralizer_raw([prefix[-1]]), and extends the
    prefix by the p-power elements of C(prefix).  Each new tuple is closed
    under simultaneous conjugation by the group generators.  The walk runs
    in lex order, so it reaches every class first at the class's lex-least
    tuple, which is its representative; components come out sorted by it.
    """
    _check_prime(p)
    _check_height(h, max_height)
    if h:  # height 0 needs no enumeration
        group._check_limit(limit)
    key = ("tuple_classes", p, h)
    cached = group._cache.get(key)
    if cached is not None:
        return cached

    if h == 0:
        empty = PTuple(p, ())
        decomposition = LoopDecomposition(p, 0, group, (LoopComponent(empty, group, 1),))
        group._cache[key] = decomposition
        return decomposition

    base = [e.images for e in p_power_elements(group, p, limit)]
    raw_gens = group._raw
    order = group.order()
    seen: set[tuple] = set()
    components: list[LoopComponent] = []

    def visit(tup: tuple, above: PermGroup):
        if tup in seen:
            return
        orbit = kernels.tuple_orbit(tup, raw_gens)
        seen.update(orbit)
        rep = min(orbit)
        if rep != tup:
            raise ChromarankError("walk reached a tuple class away from its lex-least tuple")
        ptuple = PTuple(p, tuple(Permutation._wrap(t) for t in rep))
        cent = above._centralizer_raw([rep[-1]], limit)
        if order % cent.order() or order // cent.order() != len(orbit):
            raise ChromarankError("orbit size disagrees with centralizer index")
        components.append(LoopComponent(ptuple, cent, len(orbit)))

    def walk(prefix: list, above: PermGroup, pool: list):
        # above is C(prefix) and pool its p-power elements.  A full tuple's
        # centralizer is built in visit, and only for a class representative.
        for x in pool:
            prefix.append(x)
            if len(prefix) == h:
                visit(tuple(prefix), above)
            else:
                cent = above._centralizer_raw([x], limit)
                members = set(cent._raw_elements(limit))
                walk(prefix, cent, [y for y in pool if y in members])
            prefix.pop()

    walk([], group, base)
    components.sort(key=lambda c: tuple(e.images for e in c.rep.entries))
    decomposition = LoopDecomposition(p, h, group, tuple(components))
    group._cache[key] = decomposition
    return decomposition


def hkr_rank(
    group: PermGroup,
    p: int,
    h: int,
    limit: int | None = None,
    max_height: int = DEFAULT_MAX_HEIGHT,
) -> int:
    """Number of commuting p-power h-tuple classes (1 at height 0).

    Counted by the centralizer recursion: at height 1 the classes are the
    p-power conjugacy classes, and above it the count is the sum of the
    height-(h-1) ranks of the centralizers of their representatives.  The
    centralizer of a central class is the group itself and is not rebuilt.
    Each centralizer's order times its class size must equal |G|.  Counts
    are cached on the group; commuting_tuple_classes is the independent
    oracle.
    """
    _check_prime(p)
    _check_height(h, max_height)
    if h == 0:
        return 1
    group._check_limit(limit)
    key = ("rank", p, h)
    cached = group._cache.get(key)
    if cached is not None:
        return cached
    table = group.conjugacy_classes(limit)
    reps = [
        (rep, size) for rep, size in zip(table.reps, table.sizes) if is_p_power(rep.order(), p)
    ]
    if h == 1:
        count = len(reps)
    else:
        order = group.order()
        count = 0
        for rep, size in reps:
            # A central class (size 1) is centralized by the whole group.
            cent = group if size == 1 else group._centralizer_raw([rep.images], limit)
            if cent.order() * size != order:
                raise ChromarankError("class size disagrees with centralizer index")
            count += hkr_rank(cent, p, h - 1, limit, max_height)
    group._cache[key] = count
    return count


def tuple_centralizer(group: PermGroup, t: PTuple, limit: int | None = None) -> PermGroup:
    """Centralizer in the group of all entries of the tuple."""
    return group.centralizer(t.entries, limit)


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


def report_from_record(rec: dict, degree: int | None = None) -> dict:
    """Parse a serialized report back into plain fields (round-trip check).

    Tuple entries stay as cycle strings unless a degree is supplied, in
    which case they are parsed into permutations.
    """
    required = {"group", "p", "n", "t", "lhs", "per_component", "rhs", "pass"}
    missing = required - set(rec)
    if missing:
        raise ChromarankError(f"report record missing fields: {sorted(missing)}")
    out = {k: rec[k] for k in required}
    if degree is not None:
        out["per_component"] = [
            {
                "tuple": [Permutation.from_cycles(s, degree) for s in comp["tuple"]],
                "centralizer_order": comp["centralizer_order"],
                "rank_t": comp["rank_t"],
            }
            for comp in rec["per_component"]
        ]
    return out


def verify_rank_identity(
    group: PermGroup,
    p: int,
    n: int,
    t: int,
    limit: int | None = None,
    max_height: int = DEFAULT_MAX_HEIGHT,
    label: str | None = None,
) -> IdentityReport:
    """Check rank(G, n) against the t-rank sum over (n-t)-tuple centralizers.

    The identity holds for every finite group, so a failed report signals
    an implementation bug rather than an interesting group.  lhs counts the
    tuple walk's height-n classes; rhs sums hkr_rank, the centralizer
    recursion, at height t over the walk's (n-t)-tuple classes.  Every
    t >= 1 thus compares the two algorithms.  t = 0 is the only case that
    checks nothing: both sides count the same walk's components.
    """
    _check_prime(p)
    _check_height(n, max_height)
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    lhs = len(commuting_tuple_classes(group, p, n, limit, max_height))
    decomposition = commuting_tuple_classes(group, p, n - t, limit, max_height)
    per = []
    rhs = 0
    for comp in decomposition.components:
        rank_t = hkr_rank(comp.centralizer, p, t, limit, max_height)
        per.append((comp.rep, comp.centralizer.order(), rank_t))
        rhs += rank_t
    if label is None:
        label = f"<group of order {group.order()} on {group.degree} points>"
    return IdentityReport(label, p, n, t, lhs, tuple(per), rhs, lhs == rhs)
