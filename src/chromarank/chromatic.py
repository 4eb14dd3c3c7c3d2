"""Commuting p-power tuples, their conjugation classes, and rank identities.

A height-h tuple over a group G at a prime p is an ordered h-tuple of
pairwise-commuting elements of p-power order; these correspond to
homomorphisms from Z_p^h into G.  Classes are taken under simultaneous
conjugation, and the class count at height h is the rank studied here.

Two independent algorithms count those classes.  hkr_rank recurses on the
centralizer decomposition rank(G, h) = sum of rank(C_G(x), h-1) over the
p-power conjugacy-class representatives x of G, so its work grows with the
number of classes; a direct product or wreath recorded by its constructor,
a product's centralizer, or a relabeled copy of one takes its rank from
its factors' ranks instead.  commuting_tuple_classes walks the raw tuples
and groups them into orbits under the generators of G, each tuple held as
the tuple of its entries' indices into the p-power elements, on which
conjugation by each generator is tabulated once per walk, so that an orbit
is one kernel call.
The walk is one loop over a stack of prefixes, with the same checks at
every length, and entries are checked where the walk admits them to a
pool.  The walk is the oracle the recursion and the factor rule are tested
against, and it supplies the tuple representatives and centralizers that
the loops command prints.
verify_rank_identity takes the rank at height n from the walk and the sum
over (n-t)-tuple centralizers from the recursion, so for every t >= 1 it
compares the two algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .arith import check_prime, is_p_power
from .errors import ChromarankError, DegreeMismatch, HeightExceeded
from .group import PermGroup, enumeration_limit
from .perm import Permutation

DEFAULT_MAX_HEIGHT = 4


def _check_height(h: int) -> None:
    if h < 0:
        raise ValueError("height must be nonnegative")
    if h > DEFAULT_MAX_HEIGHT:
        raise HeightExceeded(f"height {h} above bound {DEFAULT_MAX_HEIGHT}")


@dataclass(frozen=True)
class PTuple:
    """Pairwise-commuting tuple of p-power-order permutations of one degree."""

    prime: int
    entries: tuple[Permutation, ...]

    def __post_init__(self):
        check_prime(self.prime)
        for i, entry in enumerate(self.entries):
            if entry.degree != self.entries[0].degree:
                raise DegreeMismatch(f"entry {i} has degree {entry.degree}, not {self.entries[0].degree}")
            if not is_p_power(kernels.element_order(entry.images), self.prime):
                raise ChromarankError(f"entry {i} does not have {self.prime}-power order")
            if not all(kernels.commutes(u.images, entry.images) for u in self.entries[:i]):
                raise ChromarankError("tuple entries do not commute pairwise")

    @classmethod
    def _unchecked(cls, prime: int, entries: tuple[Permutation, ...]) -> "PTuple":
        # The walk checked each entry when it admitted it to a pool.
        out = object.__new__(cls)
        object.__setattr__(out, "prime", prime)
        object.__setattr__(out, "entries", entries)
        return out

    @property
    def height(self) -> int:
        return len(self.entries)

    def cycle_strings(self) -> tuple[str, ...]:
        return tuple(e.cycle_string() for e in self.entries)


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

    def __len__(self) -> int:
        return len(self.components)


def p_power_elements(
    group: PermGroup, p: int, limit: int | None = None
) -> tuple[Permutation, ...]:
    """Elements of p-power order (identity included), in lex order."""
    check_prime(p)
    return group._cached(
        ("p_power", p),
        limit,
        lambda: tuple(
            Permutation._wrap(t)
            for t in group._raw_elements(limit)
            if is_p_power(kernels.element_order(t), p)
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
    generators, as one kernel call on the tuple of its entries' indices into
    the sorted p-power elements of G.  Conjugation by each generator is
    tabulated once per walk as a permutation of those indices, and a
    conjugate outside the p-power elements raises ChromarankError.  The walk
    runs in lex order, which index order is, so it reaches every class first
    at the class's lex-least tuple, which is its representative; components
    come out sorted by it.  A prefix of a lex-least tuple is lex-least among
    its own conjugates, so a prefix whose orbit was reached before is not
    extended.  The walk is one loop over a stack of prefixes, and one pass
    over a prefix's pool, the indices of the p-power elements of C(prefix),
    reaches every extension with the same steps at every length: for a
    first-reached tuple it checks that the tuple is lex-least in its orbit,
    builds C(tuple), and checks |G| = |C| * |orbit|; a full tuple's class
    becomes a component, its representative the one PTuple the walk builds,
    and a shorter tuple is pushed as a prefix with its pool.  Reaching all
    siblings before extending any changes no seen test, since only tuples of
    one length collide.  Entries are checked on admission: each p-power
    element's order once, as the root pool is built, and each index of a
    child pool against the prefix entry that formed it, so, pools being
    nested, every pair in every tuple is checked.
    No class table is read, and nothing is cached: each call walks again,
    and checks the limit as it reads p_power_elements, before anything is
    enumerated.
    """
    check_prime(p)
    _check_height(h)
    if h == 0:  # one empty tuple, centralized by the group; nothing to enumerate
        return LoopDecomposition(p, 0, (LoopComponent(PTuple(p, ()), group, 1),))
    return _walk_classes(group, p, h, enumeration_limit(limit))


def _walk_classes(group: PermGroup, p: int, h: int, limit: int) -> LoopDecomposition:
    order = group.order()
    elements = p_power_elements(group, p, limit)
    raw = [e.images for e in elements]
    # Each element's order is checked once per walk, as it joins the root pool.
    for i, x in enumerate(raw):
        if not is_p_power(kernels.element_order(x), p):
            raise ChromarankError(f"p-power element {i} does not have {p}-power order")
    # A k-tuple is walked as the k-tuple of its entries' indices into the
    # sorted p-power elements, so index order is lex order.  Conjugation by
    # each generator is tabulated once, as a permutation of those indices.
    index = {x: i for i, x in enumerate(raw)}
    try:
        perms = [tuple([index[kernels.conjugate(x, g)] for x in raw]) for g in group._raw]
    except KeyError:
        raise ChromarankError("a conjugate of a p-power element is not a p-power element") from None
    # Orbits reached so far, of prefixes and of full tuples alike: tuples of
    # different lengths never collide.
    seen: set[tuple] = set()
    components: list[LoopComponent] = []
    # A node is (index tuple, C(tuple), pool), the pool being the indices of
    # the p-power elements of C(tuple).  Children are pushed in reverse, so
    # nodes leave the stack in lex order.
    stack = [((), group, range(len(raw)))]
    while stack:
        tup, above, pool = stack.pop()
        children = []
        for i in pool:
            longer = tup + (i,)
            if longer in seen:
                continue
            orbit = kernels.tuple_orbit(longer, perms)
            seen.update(orbit)
            if min(orbit) != longer:
                raise ChromarankError("walk reached a tuple class away from its lex-least tuple")
            cent = above._centralizer_raw([raw[i]], limit)
            if order != cent.order() * len(orbit):
                raise ChromarankError("orbit size disagrees with centralizer index")
            if len(longer) == h:
                rep = PTuple._unchecked(p, tuple(elements[k] for k in longer))
                components.append(LoopComponent(rep, cent, len(orbit)))
                continue
            members = set(cent._raw_elements(limit))
            below = [j for j in pool if raw[j] in members]
            if not all(kernels.commutes(raw[i], raw[j]) for j in below):
                raise ChromarankError("tuple entries do not commute pairwise")
            children.append((longer, cent, below))
        stack.extend(reversed(children))
    return LoopDecomposition(p, h, tuple(components))


def hkr_rank(group: PermGroup, p: int, h: int, limit: int | None = None) -> int:
    """Number of commuting p-power h-tuple classes (1 at height 0).

    Counted by the centralizer recursion: at height 1 the classes are the
    p-power conjugacy classes, and above it the count is the sum of the
    height-(h-1) ranks of the centralizers of their representatives.  Both
    are read off the p-power rows of PermGroup._class_rows, which explore
    reads too, one per class with its centralizer; a central class's is
    the group itself.  Each centralizer's order times its class size must
    equal |G|.  A group with a record (PermGroup.factor_record) takes its
    rank from its factors' by the record's rule (group.Product.rank,
    group.Wreath.rank), with no class table of its own.  Counts are cached
    on the group, and the limit is checked before the cache is read;
    commuting_tuple_classes is the independent oracle.
    """
    check_prime(p)
    _check_height(h)
    if h == 0:
        return 1
    limit = enumeration_limit(limit)
    return group._cached(("rank", p, h), limit, lambda: _rank(group, p, h, limit))


def _rank(group: PermGroup, p: int, h: int, limit: int) -> int:
    record = group._record()
    if record is not None:
        return record.rank([hkr_rank(f, p, h, limit) for f in record.factors], p, h)
    rows, _, centralizer = group._class_rows(limit, lambda o: is_p_power(o, p))
    if h == 1:
        return sum(1 for _ in rows)
    order = group.order()
    count = 0
    for (_, size), key in rows:
        cent = centralizer(key)
        if cent.order() * size != order:
            raise ChromarankError("class size disagrees with centralizer index")
        count += hkr_rank(cent, p, h - 1, limit)
    return count


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
        """The report as a JSON-ready value: dicts, tuples, str, int and
        bool, never lists.

        json.dumps writes a tuple as an array.  CPython's collector untracks
        a tuple of untracked items, and in a full collection a dict of
        untracked keys and values, but never a list, nor a tuple that holds
        a dict.  So after two gc.collect() calls every component's dict and
        its "tuple" are untracked, and a held record leaves the collector
        two containers to walk, itself and its per_component tuple, however
        many components it has.
        """
        # Representatives share few distinct entries, so each entry's cycle
        # string is written once per call, keyed by its images.
        entries = {e.images: e for rep, _, _ in self.per_component for e in rep.entries}
        strings = {images: e.cycle_string() for images, e in entries.items()}
        return {
            "group": self.group,
            "p": self.p,
            "n": self.n,
            "t": self.t,
            "lhs": self.lhs,
            "per_component": tuple(
                {
                    "tuple": tuple(strings[e.images] for e in rep.entries),
                    "centralizer_order": c_order,
                    "rank_t": rank_t,
                }
                for rep, c_order, rank_t in self.per_component
            ),
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
    check_prime(p)
    _check_height(n)
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    limit = enumeration_limit(limit)
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
