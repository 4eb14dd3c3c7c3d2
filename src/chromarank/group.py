"""Permutation groups with deterministic stabilizer chains.

The chain is built by a non-randomized Schreier-Sims pass with base points
chosen as the smallest non-fixed point of each new strong generator, so
orders, transversals and membership tests reproduce bit for bit.  It is
built only for a membership test or for the order of a group that
recorded none (_record_order): the constructors record a closed form for
each atom family and the factors' for products and wreaths, and a
subgroup records the size of the element set it is built from.  Element
enumeration, conjugacy classes, centralizers, Sylow subgroups and
fingerprints only run below a configurable order limit (the default is
2**21; see enumeration_limit).  Every group's sorted elements are the
closure of its generators, and their orders come from the element_order
kernel.  A direct product or cyclic wreath product holds one record of
its construction, a Product or a Wreath, in one cache slot; the record
states each rule once and takes from the factors the order and
fingerprint, with no enumeration, the class table, with no class walk,
the centralizers, with no filtering of the group's own elements, and
the ranks.  A product's centralizer C_G(x) x C_H(y) is built from those
factor centralizers' generators as the product is from its factors', and
records them; so is a wreath's centralizer that lies in its base, the
product of the base's centralizers block by block.  A relabeled copy
(conjugate_by) holds the same record in the slot, marked as not made on
it, and reads from it only what a relabeling does not change: the class
profile, the derived order, the fingerprint and the ranks.  The class
walk and centralizer_filter serve every other group, and stay the
independent check of the factor rules (registry paranoid mode, tests).
A group is its own centralizer for targets that commute with its
generators; every other centralizer is interned, one subgroup per
element set, in a weak-valued table held by the root group and by each
subgroup in it, and memoized per target tuple as that subgroup.  A group
is never held in its own cache: nothing cached here forms a reference
cycle, so dropped groups are freed by reference counting alone.
"""

from __future__ import annotations

import json
import os
import weakref
from bisect import bisect_left
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cache
from itertools import islice, product
from math import gcd, lcm, prod
from operator import itemgetter, mul

from . import kernels
from .arith import check_prime, is_p_power, p_part
from .errors import (
    ChromarankError,
    DegreeMismatch,
    InvalidPermutation,
    NotInGroup,
    ParseError,
    ThresholdExceeded,
)
from .perm import Permutation

DEFAULT_ENUMERATION_LIMIT = 2**21
LIMIT_ENV_VAR = "CHROMARANK_MAX_ORDER"


def enumeration_limit(explicit: int | None = None) -> int:
    """Resolve the element-enumeration limit.

    Precedence: explicit argument, then the CHROMARANK_MAX_ORDER environment
    variable, then the built-in default of 2**21.
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("enumeration limit must be positive")
        return explicit
    raw = os.environ.get(LIMIT_ENV_VAR)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ChromarankError(f"{LIMIT_ENV_VAR} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ChromarankError(f"{LIMIT_ENV_VAR} must be positive, got {raw!r}")
        return value
    return DEFAULT_ENUMERATION_LIMIT


def check_limit(order: int, limit: int | None) -> int:
    """The resolved enumeration limit (enumeration_limit); raises
    ThresholdExceeded when a group of this order is past it."""
    cap = enumeration_limit(limit)
    if order > cap:
        raise ThresholdExceeded(f"desk-scale exceeded: group order {order} > limit {cap}")
    return cap


class _Level:
    __slots__ = ("base", "gens", "transversal")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        self.transversal: dict[int, tuple[int, ...]] = {}


def _orbit_transversal(base, gens, degree):
    """Schreier tree for base under gens; maps point -> word sending base there."""
    trans = {base: tuple(range(degree))}
    queue = [base]
    for pt in queue:
        u = trans[pt]
        for g in gens:
            img = g[pt]
            if img not in trans:
                trans[img] = kernels.compose(u, g)
                queue.append(img)
    return trans


class _Chain:
    """Stabilizer chain over a fixed base, deterministic construction."""

    __slots__ = ("degree", "identity", "levels")

    def __init__(self, degree: int, raw_gens: Iterable[tuple[int, ...]]):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        seen = set()
        for g in raw_gens:
            if g == self.identity or g in seen:
                continue
            seen.add(g)
            res, j = self.sift(g, 0)
            if res != self.identity:
                self._add_strong_gen(0, res, j)
        self._close()

    def sift(self, g, start=0):
        """Strip g through the chain; returns (residue, stop level)."""
        i = start
        cur = g
        while i < len(self.levels):
            if cur == self.identity:
                return cur, i
            lvl = self.levels[i]
            u = lvl.transversal.get(cur[lvl.base])
            if u is None:
                return cur, i
            cur = kernels.compose(cur, kernels.inverse(u))
            i += 1
        return cur, i

    def contains(self, g) -> bool:
        res, _ = self.sift(g)
        return res == self.identity

    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self.levels)

    def _add_strong_gen(self, low, g, depth):
        # g fixes the first `depth` base points; it generates at every level
        # from `low` through `depth`, whose transversals must be rebuilt.
        if depth == len(self.levels):
            base = next(i for i, j in enumerate(g) if i != j)
            self.levels.append(_Level(base))
        for i in range(low, depth + 1):
            self.levels[i].gens.append(g)
        for i in range(low, depth + 1):
            lvl = self.levels[i]
            lvl.transversal = _orbit_transversal(lvl.base, lvl.gens, self.degree)

    def _close(self):
        # Bottom-up Schreier closure: level i is complete once every one of
        # its Schreier generators sifts to the identity through i+1 onward.
        i = len(self.levels) - 1
        while i >= 0:
            lvl = self.levels[i]
            restart = False
            for pt in sorted(lvl.transversal):
                u = lvl.transversal[pt]
                for s in lvl.gens:
                    u2 = lvl.transversal[s[pt]]
                    sg = kernels.compose(kernels.compose(u, s), kernels.inverse(u2))
                    if sg == self.identity:
                        continue
                    res, j = self.sift(sg, i + 1)
                    if res != self.identity:
                        self._add_strong_gen(i + 1, res, j)
                        i = j
                        restart = True
                        break
                if restart:
                    break
            if not restart:
                i -= 1


@dataclass(frozen=True)
class ConjClassTable:
    """Conjugacy classes: lex-least representatives, sizes, element orders."""

    reps: tuple[Permutation, ...]
    sizes: tuple[int, ...]
    orders: tuple[int, ...]

    def profile(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, class size) pairs, one per class."""
        return tuple(sorted(zip(self.orders, self.sizes)))

    def __len__(self) -> int:
        return len(self.reps)


# Exact types, since bool is a subclass of int and int(3.7) == 3.
_JSON_KINDS: dict[str, Callable[[object], bool]] = {
    "an integer": lambda v: type(v) is int,
    "an integer or null": lambda v: v is None or type(v) is int,
    "a bool": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "a string or null": lambda v: v is None or type(v) is str,
    "an object or null": lambda v: v is None or type(v) is dict,
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "a list of integer pairs": lambda v: type(v) is list
    and all(type(x) is list and [type(y) for y in x] == [int, int] for x in v),
}


# Kinds that JSON holds in another form: a list for a tuple, and an object
# for the one record that a record nests, its fingerprint.
_FROM_JSON: dict[str, Callable[[object], object]] = {
    "a list of strings": tuple,
    "a list of integer pairs": lambda v: tuple(map(tuple, v)),
    "an object or null": lambda v: None if v is None else Fingerprint.from_record(v),
}
_TO_JSON: dict[str, Callable[[object], object]] = {
    "a list of strings": list,
    "a list of integer pairs": lambda v: [list(x) for x in v],
    "an object or null": lambda v: None if v is None else v.to_record(),
}


def _as_is(value):
    return value


def load_record(cls, rec: object, fields: dict[str, str], owner: str):
    """cls built from rec, a JSON object with exactly the fields of its table
    (field name -> JSON kind, in record order).  Every value is checked in
    table order, never coerced, before any is converted by kind, so a nested
    record is checked last.  A fault is a ParseError that names owner."""
    if type(rec) is not dict:
        raise ParseError(f"{owner} must be a JSON object")
    if rec.keys() != fields.keys():
        unknown = sorted(rec.keys() - fields.keys())
        missing = sorted(fields.keys() - rec.keys())
        trouble = [f"unknown fields {unknown}"] if unknown else []
        trouble += [f"missing fields {missing}"] if missing else []
        raise ParseError(f"{owner} with " + " and ".join(trouble))
    for name, kind in fields.items():
        if not _JSON_KINDS[kind](rec[name]):
            raise ParseError(f"{owner} field {name!r} must be {kind}, got {json.dumps(rec[name])}")
    return cls(**{name: _FROM_JSON.get(kind, _as_is)(rec[name]) for name, kind in fields.items()})


def dump_record(obj, fields: dict[str, str]) -> dict:
    """obj's fields as a JSON object in table order, converted by kind; the
    inverse of load_record."""
    return {name: _TO_JSON.get(kind, _as_is)(getattr(obj, name)) for name, kind in fields.items()}


FINGERPRINT_FIELDS: dict[str, str] = {
    "order": "an integer",
    "exponent": "an integer",
    "element_order_histogram": "a list of integer pairs",
    "class_size_histogram": "a list of integer pairs",
    "center_order": "an integer",
    "derived_order": "an integer",
    "abelian": "a bool",
}


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism-invariant summary of a finite group.

    Every field but order and derived_order follows from the class profile
    (PermGroup.class_profile): the exponent and the element-order histogram
    from the element orders weighted by class size, the class-size
    histogram, the center order as the number of classes of size 1, and
    abelian when every class has size 1.  A recorded direct product
    convolves its factors' histograms instead (product_fingerprint);
    every other group folds its class profile.  Equality of fingerprints is
    necessary but not sufficient for group isomorphism; the registry treats
    it as an identity heuristic, and its paranoid mode compares the full
    class profiles of groups whose fingerprints match.
    """

    order: int
    exponent: int
    element_order_histogram: tuple[tuple[int, int], ...]
    class_size_histogram: tuple[tuple[int, int], ...]
    center_order: int
    derived_order: int
    abelian: bool

    def __post_init__(self):
        # The relations every group's fingerprint satisfies.  Explore dedupes
        # groups by fingerprint, so a record that breaks one could hide or
        # shadow a real group; it is refused when it is read.
        order = self.order
        if order < 1:
            raise ChromarankError(f"fingerprint of order {order}")
        for name, pairs in (
            ("element order", self.element_order_histogram),
            ("class size", self.class_size_histogram),
        ):
            for d, count in pairs:
                if d < 1 or order % d or count < 1:
                    raise ChromarankError(
                        f"fingerprint of order {order} lists {name} {d} {count} times"
                    )
            keys = [d for d, _ in pairs]
            if any(a >= b for a, b in zip(keys, keys[1:])):
                raise ChromarankError(f"fingerprint {name}s {keys} are not strictly increasing")
        elements = sum(count for _, count in self.element_order_histogram)
        if elements != order:
            raise ChromarankError(f"fingerprint of order {order} counts {elements} element orders")
        covered = sum(size * count for size, count in self.class_size_histogram)
        if covered != order:
            raise ChromarankError(f"fingerprint of order {order} has classes of {covered} elements")
        central = dict(self.class_size_histogram).get(1, 0)
        if self.center_order != central:
            raise ChromarankError(
                f"fingerprint center order {self.center_order} with {central} classes of size 1"
            )
        if self.derived_order < 1 or order % self.derived_order:
            raise ChromarankError(
                f"fingerprint derived order {self.derived_order} does not divide order {order}"
            )
        if self.abelian != (self.center_order == order):
            raise ChromarankError(
                f"fingerprint abelian {self.abelian} with center order {self.center_order}"
                f" and order {order}"
            )
        exponent = lcm(*(o for o, _ in self.element_order_histogram))
        if self.exponent != exponent:
            raise ChromarankError(
                f"fingerprint exponent {self.exponent}, not the lcm {exponent}"
                " of its element orders"
            )

    def to_record(self) -> dict:
        return dump_record(self, FINGERPRINT_FIELDS)

    @classmethod
    def from_record(cls, rec: object) -> "Fingerprint":
        return load_record(cls, rec, FINGERPRINT_FIELDS, "fingerprint")


class PermGroup:
    """Finitely generated permutation group on {0, ..., degree-1}.

    Instances are immutable; derived data (chain, elements, class table,
    fingerprint) is computed on demand and cached on the instance.
    """

    __slots__ = ("degree", "generators", "_raw", "_chain", "_cache", "__weakref__")

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        gens = tuple(generators)
        if not gens:
            raise InvalidPermutation("a group needs at least one generator")
        for g in gens:
            if not isinstance(g, Permutation):
                raise InvalidPermutation(f"not a Permutation: {g!r}")
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree}, group degree {degree}")
        self.degree = degree
        self.generators = gens
        self._raw = tuple(g.images for g in gens)
        self._chain = None
        self._cache = {}

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, (Permutation.identity(degree),))._record_order(1)

    def _record_order(self, order: int) -> "PermGroup":
        """Record the group's order, known from how it was built; returns
        the group.

        The constructors of the atom families record a closed form, a
        product or wreath its factors' (_record_factors), and a subgroup
        the size of the span it was closed from, so none of them builds a
        stabilizer chain for order().  conjugate_by's copy records the
        original's order, and order() that of the chain it builds for a
        group that recorded none.  The record is checked wherever the
        elements are closed: _close compares the closure's length with it.
        """
        self._cache["order"] = order
        return self

    # -- chain-backed queries ------------------------------------------------

    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self.degree, self._raw)
        return self._chain

    def order(self) -> int:
        """|G|: the order recorded when the group was built (_record_order),
        else that of its stabilizer chain, which is then built."""
        cached = self._cache.get("order")
        if cached is None:
            cached = self.chain().order()
            self._record_order(cached)
        return cached

    def contains(self, x: Permutation) -> bool:
        """Membership: a binary search of the sorted elements once they are
        closed, else a sift through the stabilizer chain, built for it."""
        if x.degree != self.degree:
            raise DegreeMismatch(f"degree {x.degree} vs group degree {self.degree}")
        elements = self._cache.get("elements_raw")
        if elements is None:
            return self.chain().contains(x.images)
        i = bisect_left(elements, x.images)
        return i < len(elements) and elements[i] == x.images

    def __contains__(self, x: Permutation) -> bool:
        return self.contains(x)

    def is_abelian(self) -> bool:
        return not self._noncentral_generators()

    def _noncentral_generators(self) -> tuple[tuple[int, ...], ...]:
        """The generators that fail to commute with some generator.  An
        element of the group commutes with every generator exactly when it
        commutes with these, since the others are central."""
        raw = self._raw
        return self._stored(
            "noncentral", lambda: tuple(a for a in raw if not all(kernels.commutes(a, b) for b in raw))
        )

    def _class_rep(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """The least element of x's conjugacy class, as in the class table.
        The first query of a class walks its orbit and remembers the least
        member for every member, so each class is walked once."""
        reps = self._stored("class reps", dict)
        rep = reps.get(x)
        if rep is None:
            orbit = kernels.conjugacy_orbit(x, self._raw, [kernels.inverse(g) for g in self._raw])
            rep = min(orbit)
            reps.update(dict.fromkeys(orbit, rep))
        return rep

    # -- enumeration-backed queries -------------------------------------------

    def _stored(self, key, compute: Callable[..., object], *args):
        """The result stored under key, compute(*args) stored on a miss: the
        one store of every derived value.  A result that is the group itself
        is marked (_ITSELF) rather than held, since a group in its own cache
        is a reference cycle."""
        value = self._cache.get(key)
        if value is None:
            value = compute(*args)
            self._cache[key] = _ITSELF if value is self else value
        return self if value is _ITSELF else value

    def _cached(self, key, limit: int | None, compute: Callable[..., object], *args):
        """The enumeration-backed result stored under key (_stored), on a
        miss compute(*args, limit) with limit resolved.

        The limit is resolved and checked once, before the lookup, so a
        cached result is returned exactly when a fresh group would compute
        it, and compute reads no CHROMARANK_MAX_ORDER.
        """
        return self._stored(key, compute, *args, check_limit(self.order(), limit))

    def _raw_elements(self, limit: int | None = None) -> tuple[tuple[int, ...], ...]:
        check_limit(self.order(), limit)
        return self._stored("elements_raw", self._close)

    def _close(self) -> tuple[tuple[int, ...], ...]:
        """The sorted elements: the closure of the generators, whose length
        is checked against order().  That is the recorded order when there
        is one (_record_order): an atom's closed form, or the order a
        direct product's or wreath's record gives, so the closure checks
        each formula and generating set.  Else it is the stabilizer chain's.
        """
        n = self.order()
        closed = kernels.close_group(list(self._raw), n)
        if closed is None or len(closed) != n:
            raise ChromarankError("closure disagrees with the group order")
        return tuple(closed)

    def elements(self, limit: int | None = None) -> tuple[Permutation, ...]:
        """All elements, lexicographically sorted by image tuple."""
        return self._cached(
            "elements", limit, lambda limit: tuple(Permutation._wrap(t) for t in self._raw_elements(limit))
        )

    def exponent(self, limit: int | None = None) -> int:
        return lcm(*(o for o, _ in self.class_profile(limit)))

    def conjugacy_classes(self, limit: int | None = None) -> ConjClassTable:
        """The conjugacy classes, one row per class from _classes."""
        return self._cached("classes", limit, self._class_table)

    def _class_table(self, limit: int) -> ConjClassTable:
        reps, sizes, orders = zip(*self._classes(limit))
        return ConjClassTable(reps, sizes, orders)

    def _classes(self, limit: int | None, order: int | None = None):
        """Yield (rep, size, element order) per conjugacy class, in rep order.

        Each rep is the least element of its class.  A group with a record
        made on it reads the record's rows (Product.rows, Wreath.rows), of
        the element orders that divide order when it is given, with order
        and size from the formula its profile reads too, and builds the
        reps it yields.  Any other group walks its elements in sorted
        order, so each class is first reached at its least member, and
        takes the order of each element it has not seen; with order given,
        it walks that order's classes' orbits alone, and the others cost an
        order per element.  Both run lazily: a caller that stops early
        reads no further.  The generators are inverted once per walk.
        """
        record = self._record(own=True)
        if record is not None:
            limit = check_limit(self.order(), limit)
            # lcm(a, c) is order only when a and c divide it.
            rows, rep, _ = record.rows(self, limit, lambda o: order is None or order % o == 0)
            for (o, size), key in rows:
                if order is None or o == order:
                    yield Permutation._wrap(rep(key)), size, o
            return
        # A dict, not a set: on CPython a set of all |G| elements takes more memory.
        seen: dict[tuple[int, ...], None] = {}
        raw_gens = self._raw
        inverses = [kernels.inverse(g) for g in raw_gens]
        for t in self._raw_elements(limit):
            if t in seen:
                continue
            o = kernels.element_order(t)
            if order is not None and o != order:
                continue
            orbit = kernels.conjugacy_orbit(t, raw_gens, inverses)
            for x in orbit:
                seen[x] = None
            yield Permutation._wrap(t), len(orbit), o

    def _record_factors(self, record: "Product | Wreath") -> "PermGroup":
        """Put record, the Product or Wreath this group was just built as,
        in its one record slot, marked as made on it (_record), and store
        the order it gives, so no chain is built for it; returns the group.
        Queries the record has no rule for read the generators."""
        self._cache["record"] = (record, True)
        return self._record_order(record.order())

    def _record(self, own: bool = False) -> "Product | Wreath | None":
        """The record in the group's slot (_record_factors), else None; with
        own, only a record made on this group, not a relabeled copy's.

        A group built by direct_product or wreath_cyclic has one, and so has
        a centralizer that a record builds as a product of factor
        centralizers; one that filtering or a wreath's scan found has none.
        A relabeled copy keeps the record (conjugate_by) and reads from it
        only the class profile, derived order, fingerprint and ranks."""
        slot = self._cache.get("record")
        return slot[0] if slot is not None and (slot[1] or not own) else None

    def class_profile(self, limit: int | None = None) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, class size) pairs, one per conjugacy class."""
        return self._cached("profile", limit, self._profile)

    def _profile(self, limit: int) -> tuple[tuple[int, int], ...]:
        record = self._record()
        return self.conjugacy_classes(limit).profile() if record is None else record.profile(limit)

    def _derived_order(self, limit: int | None) -> int:
        """|G'|: the record's, else the order of derived_subgroup."""
        record = self._record()
        return self.derived_subgroup(limit).order() if record is None else record.derived_order(limit)

    def _intern_table(self) -> weakref.WeakValueDictionary:
        """The table this group's centralizers are interned in.

        A group that has none starts one.  The table is held by that group
        and by every subgroup interned in it, and holds them weakly: it
        lives as long as any of them, adds no reference cycle, and alone
        keeps no group alive.
        """
        return self._stored("intern", weakref.WeakValueDictionary)

    def _centralizer_raw(self, raw_targets, limit: int | None = None) -> "PermGroup":
        """Centralizer of raw elements of the group, one group per distinct
        element set: the one way into a centralizer, but for a recorded
        product's class rows (Product.rows), which build the same object.
        _centralizer_group finds it, memoized per target tuple (_stored).
        Any centralizer but the group is interned (_intern_table), under its
        sorted elements or its factor centralizers, so equal centralizers
        are one object, which computes its class table, fingerprint and
        ranks once.  The memo holds the subgroup (the table holds it
        weakly), so a repeated target costs one lookup.
        """
        targets = tuple(raw_targets)
        return self._cached(("centralizer", targets), limit, self._centralizer_group, targets)

    def _intern(self, elements) -> "PermGroup":
        """The subgroup on a sorted element tuple, from the intern table,
        built and added to it, holding it, when it is not there."""
        table = self._intern_table()
        sub = table.get(elements)
        if sub is None:
            sub = _subgroup_from_elements(self.degree, elements)
            sub._cache["intern"] = table
            table[sub._cache["elements_raw"]] = sub
        return sub

    def _centralizer_group(self, targets: tuple, limit: int) -> "PermGroup":
        """The elements commuting with every target: the group itself when
        all of them are central, else an interned proper subgroup.  A group
        with a record made on it asks the record; any other drops the
        targets central in it (_moving) and filters its own elements."""
        record = self._record(own=True)
        if record is not None:
            return record.centralizer(self, targets, limit)
        moving = self._moving(targets)
        if not moving:
            return self
        return self._intern(tuple(kernels.centralizer_filter(list(self._raw_elements(limit)), moving)))

    def _moving(self, targets) -> list[tuple[int, ...]]:
        """The targets that fail to commute with some generator
        (_noncentral_generators)."""
        gens = self._noncentral_generators()
        return [t for t in targets if not all(kernels.commutes(t, g) for g in gens)]

    def _class_rows(self, limit: int | None, keep: Callable[[int], bool]):
        """(rows, rep, centralizer) for the conjugacy classes whose element
        order keep accepts, in rep order: rows yields ((element order,
        class size), key) per class, rep(key) gives the class's least
        element, raw, and centralizer(key) the group _centralizer_raw gives
        for it, each built when called.  keep must accept lcm(a, c) exactly
        when it accepts a and c, as a p-power test and "divides k" do.

        A group with a record made on it reads the record's rows, any other
        its class table's.  It checks no limit: each caller has.
        """
        record = self._record(own=True)
        if record is not None:
            return record.rows(self, limit, keep)
        table = self.conjugacy_classes(limit)
        rows = zip(zip(table.orders, table.sizes), range(len(table)))
        return _rep_rows(self, rows, [x.images for x in table.reps].__getitem__, limit, keep)

    def centralizer(self, targets: Iterable[Permutation], limit: int | None = None) -> "PermGroup":
        """Centralizer of a set of elements (see _centralizer_group)."""
        tt = tuple(targets)
        for t in tt:
            if not isinstance(t, Permutation):
                raise InvalidPermutation(f"not a Permutation: {t!r}")
            if not self.contains(t):
                raise NotInGroup(f"{t!r} is not a member of this group")
        return self._centralizer_raw([t.images for t in tt], limit)

    def center(self, limit: int | None = None) -> "PermGroup":
        """Z(G), the centralizer of the generators: the union of the classes
        of size 1, and the group itself when it is abelian."""
        return self._centralizer_raw(self._raw, limit)

    def sylow_subgroup(self, p: int, limit: int | None = None) -> "PermGroup":
        """A Sylow p-subgroup, grown from the trivial group by normalizers.

        Each step adds the lexicographically least p-element outside the
        subgroup so far that normalizes it, so repeated runs agree.  The
        elements outside the span go to normalizer_filter in sorted chunks
        of the span's size, and the search stops at the first chunk with a
        p-element among its members, whose element orders alone are
        computed: each step tests about as many elements as the span it
        extends, not all of G, then grows it (kernels.extend_span).
        """
        check_prime(p)
        limit = enumeration_limit(limit)
        target = p_part(self.order(), p)
        if target == 1:
            return _subgroup_from_elements(self.degree, [tuple(range(self.degree))])
        elems = self._raw_elements(limit)
        gens = []
        span = {tuple(range(self.degree))}
        while len(span) < target:
            outside = (t for t in elems if t not in span)
            ext = None
            while ext is None:
                chunk = list(islice(outside, len(span)))
                if not chunk:
                    raise ChromarankError("normalizer holds no p-element outside the subgroup")
                normalizer = kernels.normalizer_filter(chunk, gens, span)
                ext = next((t for t in normalizer if is_p_power(kernels.element_order(t), p)), None)
            gens.append(ext)
            kernels.extend_span(span, gens, target)
        if len(span) != target:
            raise ChromarankError("p-subgroup grew past the p-part; non-p-element slipped in")
        return _subgroup_from_elements(self.degree, span)

    def derived_subgroup(self, limit: int | None = None) -> "PermGroup":
        """Normal closure of the generator commutators.

        Each commutator or conjugate outside the span joins it by Dimino's
        step (kernels.extend_span).  The result is generated by the elements
        the closure kept, and its order is the closure's size, so no second
        closure runs.  Raises ThresholdExceeded, and caches nothing, once
        the closure grows past the enumeration limit.
        """
        limit = enumeration_limit(limit)
        result = self._stored("derived", self._derived_subgroup, limit)
        check_limit(result.order(), limit)
        return result

    def _derived_subgroup(self, cap: int) -> "PermGroup":
        identity = tuple(range(self.degree))
        inv = [kernels.inverse(a) for a in self._raw]
        work = [
            kernels.compose(kernels.compose(ia, ib), kernels.compose(a, b))
            for a, ia in zip(self._raw, inv)
            for b, ib in zip(self._raw, inv)
        ]
        gens: list[tuple[int, ...]] = []
        span = {identity}
        for x in work:
            if x in span:
                continue
            gens.append(x)
            kernels.extend_span(span, gens, cap)
            if len(span) > cap:
                raise ThresholdExceeded(
                    f"desk-scale exceeded: derived subgroup order > limit {cap}"
                )
            work.extend(kernels.conjugate(x, g) for g in self._raw)
        return PermGroup(
            self.degree, tuple(Permutation._wrap(t) for t in gens or [identity])
        )._record_order(len(span))

    def fingerprint(self, limit: int | None = None) -> Fingerprint:
        return self._cached("fingerprint", limit, self._fingerprint)

    def _fingerprint(self, limit: int) -> Fingerprint:
        """The record's, else the fold of the class profile."""
        record = self._record()
        return _folded_fingerprint(self, limit) if record is None else record.fingerprint(self, limit)

    def conjugate_by(self, s: Permutation) -> "PermGroup":
        """The relabeled group s^-1 G s.

        The copy keeps what a relabeling does not change and is already
        known: the order and the record, marked as not made on the copy
        (_record).  Its elements, class table and centralizers come from
        its own generators.
        """
        if s.degree != self.degree:
            raise DegreeMismatch(f"degree {s.degree} vs group degree {self.degree}")
        copy = PermGroup(
            self.degree,
            tuple(Permutation._wrap(kernels.conjugate(t, s.images)) for t in self._raw),
        )
        if "order" in self._cache:
            copy._record_order(self._cache["order"])
        if "record" in self._cache:
            copy._cache["record"] = (self._cache["record"][0], False)
        return copy

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"


# PermGroup._stored's mark for a result that is the group itself.
_ITSELF = object()


class Product:
    """The record of the direct product of factors, each on its own block
    of points in order, the first on the lowest (_direct_product): each
    rule that gives its facts from theirs.  (G x H)' = G' x H', and a
    class is a pair of classes (_product_rows, _paired_classes).  group,
    where a rule takes it, is the group that holds the record."""

    def __init__(self, factors: tuple[PermGroup, ...]):
        self.factors = factors

    def order(self) -> int:
        return prod(f.order() for f in self.factors)

    def profile(self, limit: int | None) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(_product_rows([f.class_profile(limit) for f in self.factors])))

    def derived_order(self, limit: int | None) -> int:
        return prod(f._derived_order(limit) for f in self.factors)

    def fingerprint(self, group: PermGroup, limit: int | None) -> Fingerprint:
        return product_fingerprint([f.fingerprint(limit) for f in self.factors])

    def rank(self, ranks: list[int], p: int, h: int) -> int:
        return prod(ranks)

    def rows(self, group: PermGroup, limit: int | None, keep: Callable[[int], bool]):
        """PermGroup._class_rows' (rows, rep, centralizer): the factors'
        classes paired, and a pair's centralizer the product of the factors'
        C(x) and C(y), each found once; the intern table is read once."""
        factors = self.factors
        intern_table = cache(group._intern_table)

        # A factor class meets many pairs: asking _centralizer_raw once per
        # pair, limit check and key included, made the explore at p=3 to
        # 59049 take 1.42 s instead of 1.21 s (pure backend, 2 vCPUs).
        @cache
        def factor_centralizer(i, k):
            f = factors[i]
            return f._centralizer_raw([f.conjugacy_classes(limit).reps[k].images], limit)

        def centralizer(ks):
            subs = tuple(map(factor_centralizer, range(len(ks)), ks))
            return _product_of_centralizers(group, factors, subs, intern_table)

        return (*_paired_classes(factors, limit, keep), centralizer)

    def centralizer(self, group: PermGroup, targets: tuple, limit: int | None) -> PermGroup:
        """The product of the factors' centralizers of the targets' pieces
        (_product_centralizer), found before any commutes test."""
        pieces = _block_pieces([f.degree for f in self.factors], targets)
        subs = _product_centralizer(self.factors, pieces, limit)
        return _product_of_centralizers(group, self.factors, subs, group._intern_table)


class Wreath:
    """The record of H wr C_n, H = base, on n blocks of H's points with the
    block n-cycle on top (constructors.wreath_cyclic): each rule that
    gives its facts from H's.  Its classes are H's class words up to
    rotation (_wreath_words), and its abelianization is H/H' x C_n, so
    |G'| = |H|**(n-1) |H'|.  group, where a rule takes it, is the group
    that holds the record."""

    def __init__(self, base: PermGroup, n: int):
        self.base, self.n = base, n
        self.factors = (base,)

    def order(self) -> int:
        return self.base.order() ** self.n * self.n

    def profile(self, limit: int | None) -> tuple[tuple[int, int], ...]:
        base = self.base
        return tuple(sorted(row[2:] for row in _wreath_words(base.class_profile(limit), base.order(), self.n)))

    def derived_order(self, limit: int | None) -> int:
        return self.base.order() ** (self.n - 1) * self.base._derived_order(limit)

    def fingerprint(self, group: PermGroup, limit: int | None) -> Fingerprint:
        return _folded_fingerprint(group, limit)

    def rank(self, ranks: list[int], p: int, h: int) -> int:
        """rank(H wr C_m, h) from N = rank(H, h), ranks = [N].

        A commuting tuple of H wr C_m maps onto a p-subgroup C_d of the top
        group C_m, d = p^b dividing m; s(d) of the homomorphisms Z_p^h -> C_m
        have image C_d, with s(1) = 1 and s(p^b) = p^(bh) - p^((b-1)h).  The
        classes over one such homomorphism are the necklaces of length m / d
        in N colours, Neck(k, N) = (1/k) sum over i < k of N^gcd(i, k), which
        is (1/k) sum over j | k of phi(j) N^(k/j).  The rank is the sum of
        s(d) Neck(m/d, N) over those d; for m = p it is
        (N^p + (p-1) N)/p + (p^h - 1) N.
        """
        (base_rank,) = ranks
        m, total, d = self.n, 0, 1
        while m % d == 0:
            k = m // d
            necklaces = sum(base_rank ** gcd(i, k) for i in range(k)) // k
            surjections = 1 if d == 1 else d**h - (d // p) ** h
            total += surjections * necklaces
            d *= p
        return total

    def rows(self, group: PermGroup, limit: int | None, keep: Callable[[int], bool]):
        """PermGroup._class_rows' (rows, rep, centralizer), from
        _wreath_rows."""
        return _rep_rows(group, *_wreath_rows(self.base, self.n, limit), limit, keep)

    def centralizer(self, group: PermGroup, targets: tuple, limit: int | None) -> PermGroup:
        """The product of the base's centralizers of the targets' pieces,
        block by block, found before any commutes test, when the targets
        lie in the base H**n and their word of H-classes has no rotational
        symmetry (_aperiodic_class_word), which a target central in group
        never changes.  Else the centralizer of the first target not central in
        group (_wreath_centralizer), filtered by the others."""
        base, n = self.base, self.n
        # A top part c**j sends point 0 into block j: these lie in the base.
        in_base = all(z[0] < base.degree for z in targets)
        pieces = _block_pieces([base.degree] * n, targets) if in_base else None
        if not in_base or not _aperiodic_class_word(base, pieces):
            moving = group._moving(targets)
            if not moving:
                return group
            elements = _wreath_centralizer(base, n, moving[0], limit)
            if len(moving) > 1:
                elements = tuple(kernels.centralizer_filter(list(elements), moving[1:]))
            # Only several targets can meet in the base though their word
            # has a symmetry; their centralizer is then the product.
            if len(moving) == 1 or not in_base or elements[-1][0] >= base.degree:
                return group._intern(elements)
        subs = _product_centralizer((base,) * n, pieces, limit)
        return _product_of_centralizers(group, self.factors, subs, group._intern_table)


def _rep_rows(group: PermGroup, rows, rep, limit: int | None, keep: Callable[[int], bool]):
    """PermGroup._class_rows' (rows, rep, centralizer) from rows of
    ((element order, class size), key) and rep(key), raw: centralizer is
    _centralizer_raw's."""
    return (row for row in rows if keep(row[0][0])), rep, lambda key: group._centralizer_raw([rep(key)], limit)


def _product_of_centralizers(group: PermGroup, factors, subs, intern_table) -> PermGroup:
    """group itself when subs, the factor centralizers of some targets on
    its blocks, are its record's factors; else their direct product,
    built from their generators, with no elements, once per tuple subs,
    which keys it in intern_table() (no element tuple equals it)."""
    if subs == factors:  # identity: groups compare by object
        return group
    table = intern_table()
    sub = table.get(subs)
    if sub is None:
        sub = table[subs] = _direct_product(subs)
        sub._cache["intern"] = table
    return sub


def _folded_fingerprint(group: PermGroup, limit: int | None) -> Fingerprint:
    """The fold of group's class profile, with its derived order."""
    order_counts, size_counts = {}, {}
    for o, size in group.class_profile(limit):
        order_counts[o] = order_counts.get(o, 0) + size
        size_counts[size] = size_counts.get(size, 0) + 1
    derived_order = group._derived_order(limit)
    return _histogram_fingerprint(group.order(), order_counts, size_counts, derived_order)


def _product_rows(columns) -> list[tuple[int, int]]:
    """(element order, class size) of each class of a direct product, from
    the (element order, class size) rows of each factor's classes, in
    product order: the first factor's rows outermost.

    A class of G x H is a pair of classes, (a, b) of G and (c, d) of H: its
    elements have order lcm(a, c) and there are b * d of them.
    """
    rows = [(1, 1)]
    for column in columns:
        rows = [(lcm(a, c), b * d) for a, b in rows for c, d in column]
    return rows


def _convolve(histograms, combine) -> dict[int, int]:
    """value -> count over the tuples of one value from each histogram (a
    sequence of (value, count) pairs), valued by combine folded from 1.

    An element of G x H is a pair, of order lcm(o(g), o(h)), and a class
    is a pair of classes, of size |g^G| * |h^H|: with lcm the element-order
    histograms give the product's, and with multiplication the class-size
    histograms do.
    """
    counts = {1: 1}
    for histogram in histograms:
        combined: dict[int, int] = {}
        for a, m in counts.items():
            for b, k in histogram:
                c = combine(a, b)
                combined[c] = combined.get(c, 0) + m * k
        counts = combined
    return counts


def product_fingerprint(prints: list[Fingerprint]) -> Fingerprint:
    """The fingerprint of the direct product of groups with these
    fingerprints, in factor order.

    Its histograms convolve theirs (_convolve); its order and derived
    order are the products of theirs, since (G x H)' = G' x H'.  A recorded
    product's fingerprint is this one (Product.fingerprint), and explore
    reads it before building the product or a product's centralizer.
    """
    return _histogram_fingerprint(
        prod(fp.order for fp in prints),
        _convolve([fp.element_order_histogram for fp in prints], lcm),
        _convolve([fp.class_size_histogram for fp in prints], mul),
        prod(fp.derived_order for fp in prints),
    )


def _histogram_fingerprint(
    order: int, order_counts: dict, size_counts: dict, derived_order: int
) -> Fingerprint:
    """The fingerprint with these element-order and class-size counts."""
    center_order = size_counts.get(1, 0)
    return Fingerprint(
        order=order,
        exponent=lcm(*order_counts),
        element_order_histogram=tuple(sorted(order_counts.items())),
        class_size_histogram=tuple(sorted(size_counts.items())),
        center_order=center_order,
        derived_order=derived_order,
        abelian=center_order == order,
    )


def _wreath_words(rows, base_order: int, n: int):
    """Yield (j, word, element order, size) per conjugacy class of H wr C_n,
    from the (element order, class size) rows of H's classes and |H|.

    James and Kerber, The Representation Theory of the Symmetric Group,
    4.2.  An element with top part the j-th power of the block cycle has
    d = gcd(j, n) cycles of m = n / d blocks each, and its class is fixed
    by the classes (c_1, ..., c_d) of its d cycle products up to rotation
    by C_d.  word is the least rotation of those row indices.  The class
    has element order lcm(m * o(c_i)) and size r * |H|**(n - d) * prod
    |c_i|, for r the number of distinct rotations of word.

    The orders m * o(c) are read from a column made once per j, and the
    sizes from one made once per call.  The first rotation of word, by r
    = 1, ..., d, that is not greater than word decides it: a smaller one
    means word is not the least, and an equal one means r is its period,
    the number of its distinct rotations (r = d gives word back).
    """
    indices = range(len(rows))
    sizes = [size for _, size in rows]
    for j in range(n):
        d = gcd(j, n)
        m = n // d
        orders = [m * o for o, _ in rows]
        power = base_order ** (n - d)
        for word in product(indices, repeat=d):
            for r in range(1, d + 1):
                rotation = word[r:] + word[:r]
                if rotation <= word:
                    break
            if rotation == word:
                size = r * power * prod([sizes[i] for i in word])
                yield j, word, lcm(*[orders[i] for i in word]), size


def _paired_classes(factors, limit: int | None, keep):
    """(rows, rep) for the classes of the direct product of factors that
    pair classes of element orders keep accepts.  rows yields ((element
    order, class size), ks) per class in product order, the first
    factor's classes outermost, for ks the classes' indices in the
    factors' class tables; rep(ks) is the class's least element.

    Order and size come from _product_rows, and each least element from
    _product_elements of the factor classes' least elements, which lists
    them in product order, sorted: product order is rep order.  The first
    rep call lists them all, a tenth of the cost per rep of one call each.
    """
    tables = [f.conjugacy_classes(limit) for f in factors]
    kept = [[k for k, o in enumerate(table.orders) if keep(o)] for table in tables]
    columns = [[(t.orders[k], t.sizes[k]) for k in ks] for t, ks in zip(tables, kept)]

    @cache
    def reps():
        pieces = [(f.degree, [t.reps[k].images for k in ks]) for f, t, ks in zip(factors, tables, kept)]
        return dict(zip(product(*kept), _product_elements(pieces)))

    return zip(_product_rows(columns), product(*kept)), lambda ks: reps()[ks]


def _wreath_rows(base: "PermGroup", n: int, limit: int | None):
    """(rows, rep) for the classes of H wr C_n, H = base: rows yields
    ((element order, class size), (j, word)) per class of _wreath_words
    over H's class table, in rep order with no sort; rep((j, word)) is the
    least element, of top part c**j, the identity (least in H) on the first
    n - d blocks, and the reps of H's classes word on the last d, which
    meet each of the d block cycles once.  It sends point 0 into block j,
    so j orders the reps first; for one j, they differ only in word's
    H-reps, which compare in table order, as _wreath_words lists words.
    """
    table = base.conjugacy_classes(limit)
    reps = [rep.images for rep in table.reps]
    degree = base.degree
    identity = tuple(range(degree))

    def rep(key):
        j, word = key
        blocks = [identity] * (n - len(word)) + [reps[i] for i in word]
        return tuple(x + (b + j) % n * degree for b, h in enumerate(blocks) for x in h)

    words = _wreath_words(list(zip(table.orders, table.sizes)), base.order(), n)
    return (((o, size), (j, word)) for j, word, o, size in words), rep


def _product_elements(factors) -> tuple[tuple[int, ...], ...]:
    """Sorted elements of a direct product from (degree, sorted elements)
    of each factor, in order.

    An element is x + y shifted by deg x, for x and y elements of the
    factors.  Every point of the shifted part lies above every point of x,
    so with x in the outer loop the concatenations come out sorted.
    """
    out = [()]
    offset = 0
    for degree, elements in factors:
        shifted = [tuple(map(offset.__add__, y)) for y in elements]
        out = [x + y for x in out for y in shifted]
        offset += degree
    return tuple(out)


def _product_centralizer(factors, pieces, limit: int | None) -> tuple["PermGroup", ...]:
    """Each factor's centralizer of the targets' pieces on its block
    (_block_pieces), from its own _centralizer_raw: C(x + y) = C_G(x) x
    C_H(y), and every (x, y) with y central in H gives (C_G(x), H).
    """
    return tuple(f._centralizer_raw(p, limit) for f, p in zip(factors, pieces))


def _block_pieces(degrees, targets) -> list[list[tuple[int, ...]]]:
    """Per block of points, of these degrees in order from point 0, the
    pieces of the targets on it, moved onto points 0, 1, ...; each target
    must map every block onto itself."""
    out = []
    offset = 0
    for degree in degrees:
        end = offset + degree
        # The first block's pieces need no shift: a slice is their tuple.
        out.append([tuple([v - offset for v in z[offset:end]]) if offset else z[:end] for z in targets])
        offset = end
    return out


def _aperiodic_class_word(base: PermGroup, pieces) -> bool:
    """Whether the word of the blocks' tuples of H-classes, for H = base
    and the targets' pieces on each block of H wr C_n, equals no rotation
    of itself by 0 < t < n.

    A base element z = (h_0, ..., h_(n-1); 1) commutes with k = (k; c**t)
    exactly when h_(b+t) = k_b**-1 h_b k_b for every b
    (_wreath_centralizer's recurrence, with j = 0).  So top part c**t
    occurs in the centralizer of base targets only if, for each, the class
    of h_(b+t) is that of h_b for every b.  When the word has no such
    symmetry, the centralizer lies in the base, and it is the product,
    block by block, of C_H of the pieces on the block.  (James and Kerber,
    The Representation Theory of the Symmetric Group, 4.2.)  Each piece's
    class is read as its least member (PermGroup._class_rep).
    """
    word = [tuple(map(base._class_rep, block)) for block in pieces]
    return all(word[t:] + word[:t] != word for t in range(1, len(word)))


def _direct_product(factors) -> PermGroup:
    """The direct product of factors, each on its own block of points in
    order, the first on the lowest, with its Product record in the result's
    record slot (_record_factors).

    Its generators are each factor's generators on its block, in factor
    order, with every other point fixed.
    """
    degree = sum(f.degree for f in factors)
    gens = []
    offset = 0
    for f in factors:
        before, after = tuple(range(offset)), tuple(range(offset + f.degree, degree))
        gens += [Permutation._wrap(before + tuple(v + offset for v in g) + after) for g in f._raw]
        offset += f.degree
    return PermGroup(degree, gens)._record_factors(Product(tuple(factors)))


def _wreath_centralizer(base: "PermGroup", n: int, z: tuple[int, ...], limit: int | None):
    """The centralizer of z in H wr C_n, for H = base, as a sorted element
    tuple, which Wreath.centralizer asks for and interns.

    Write z = (h; c**j) when z sends point i of block b to point h_b(i) of
    block (b + j) mod n, and an element k = (k; c**t) likewise.  z then k
    sends block b to block b + j + t by
    h_b k_(b+j), and k then z by k_b h_(b+t), so k commutes with z exactly
    when k_(b+j) = h_b**-1 k_b h_(b+t) for every b, products left to
    right.  On each cycle c_0, c_1 = c_0 + j, ... of the shift by j, the
    value y at the cycle's start fixes every other value by that
    recurrence: k_(c_s) = q_s**-1 y r_s, for q_s the product of the h
    along c_0, ..., c_(s-1) and r_s the same along c_0 + t, ...,
    c_(s-1) + t.  The recurrence returns to y when y r_m = q_m y, so H is
    scanned once per t and cycle with that test, and the other values are
    composed for the kept y only.  The centralizer elements with top part
    c**t are the products of the kept values over the cycles, so the cost
    is about 2 n |H| compositions per t, where filtering the group costs
    n |H|**n.

    Compositions are itemgetters, each one C call: per t and cycle, the
    scan builds the getter of q_m once, and the values that of each
    q_s**-1 and r_s shifted onto its image block, so each kept y costs
    its own getter and two getter calls per block.  itemgetter of one
    index returns the bare item, so the getters need degree 2 or more: a
    base of degree 1 is trivial, its wreath is abelian and every target
    central, so none reaches here, and the function asserts as much.

    They come out sorted with no sort: an element with top part c**t sends
    point 0 into block t, so t comes first; and blocks 0, ..., d-1 are the
    starts of cycles 0, ..., d-1, whose kept values are scanned in H's
    sorted order, so the product over the cycles, cycle 0 outermost, runs
    in the order of those first d blocks.
    """
    degree = base.degree
    assert degree > 1, "a wreath of a degree-1 base is abelian"
    elements = base._raw_elements(limit)
    compose = kernels.compose
    identity = tuple(range(degree))
    j = z[0] // degree
    h = [
        tuple(v - (b + j) % n * degree for v in z[b * degree : (b + 1) * degree])
        for b in range(n)
    ]
    d = gcd(j, n)
    m = n // d
    # Cycle r holds blocks r, r + d, ..., r + (m-1)d.  The products list
    # the blocks cycle by cycle; when that is not block order, one getter
    # per element puts block b, at place (b mod d) m + b div d, back in
    # its place.
    reorder = None
    if 1 < d < n:
        places = [(b % d * m + b // d) * degree for b in range(n)]
        reorder = itemgetter(*(place + i for place in places for i in range(degree)))
    out = []
    for t in range(n):
        words = [()]
        for r in range(d):
            cycle = [(r + s * j) % n for s in range(m)]
            q, rr = [identity], [identity]
            for b in cycle:
                q.append(compose(q[-1], h[b]))
                rr.append(compose(rr[-1], h[(b + t) % n]))
            closed_q, closed_r = q.pop(), rr.pop()
            # y r = q y, with y r = itemgetter(*y)(r) and q y = q's getter of y.
            q_then = itemgetter(*closed_q)
            kept = [y for y in elements if itemgetter(*y)(closed_r) == q_then(y)]
            # Block s of the cycle, in block order r, r + d, ..., takes
            # q_s**-1 y r_s, shifted onto its image block c_s + t: y's
            # getter of r_s shifted there, then q_s**-1's getter.
            getters = []
            for s in sorted(range(m), key=cycle.__getitem__):
                offset = (cycle[s] + t) % n * degree
                getters.append((itemgetter(*kernels.inverse(q[s])), tuple([v + offset for v in rr[s]])))
            values = []
            for y in kept:
                y_then = itemgetter(*y)
                value = ()
                for qi_then, shifted in getters:
                    value += qi_then(y_then(shifted))
                values.append(value)
            words = [w + v for w in words for v in values]
        out.extend(words if reorder is None else map(reorder, words))
    return tuple(out)


def _subgroup_from_elements(degree: int, raw_elements) -> PermGroup:
    """Build a group from a closed element list, with a reduced generating set.

    Scans elements in sorted order and keeps those outside the span of the
    elements kept so far.  The span grows by Dimino's step
    (kernels.extend_span), so no stabilizer chain is built here; chain()
    builds one from the kept generators when it is asked for.  The element
    cache is pre-seeded since the full list is already in hand.
    """
    identity = tuple(range(degree))
    elems = sorted(raw_elements)
    gens: list[tuple[int, ...]] = []
    span = {identity}
    for t in elems:
        if len(span) >= len(elems):
            break
        if t in span:
            continue
        gens.append(t)
        kernels.extend_span(span, gens, len(elems))
    if len(span) != len(elems) or span != set(elems):
        raise ChromarankError("element list is not closed under the group operation")
    group = PermGroup(degree, tuple(Permutation._wrap(t) for t in gens or [identity]))
    group._record_order(len(elems))
    group._cache["elements_raw"] = tuple(elems)
    return group


def group_from_generators(generators: Iterable[Permutation]) -> PermGroup:
    """Public constructor used by callers that have bare generator lists.

    The degree is that of the first generator.
    """
    gens = tuple(generators)
    return PermGroup(gens[0].degree if gens else None, gens)


def read_generator_file(path: str) -> PermGroup:
    """Read a generator file: a degree header, then one permutation per line.

    Format: the first significant line is "degree <d>"; every following
    nonempty line is a generator in 0-based disjoint-cycle notation, with
    "()" for the identity.  "#" starts a comment.
    """
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    degree = None
    gens: list[Permutation] = []
    for no, line in enumerate(raw_lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if degree is None:
            parts = text.split()
            if (
                len(parts) != 2
                or parts[0] != "degree"
                or not (parts[1].isascii() and parts[1].isdigit())
            ):
                raise ParseError(f"expected 'degree <d>' header, got {text!r}", line=no)
            degree = int(parts[1])
            if degree < 1:
                raise ParseError("degree must be at least 1", line=no)
            continue
        try:
            gens.append(Permutation.from_cycles(text, degree))
        except ParseError as exc:
            raise ParseError(f"bad generator: {exc.args[0]}", line=no) from None
    if degree is None:
        raise ParseError(f"no degree header in {path}")
    if not gens:
        raise ParseError(f"no generators in {path}")
    return PermGroup(degree, gens)
