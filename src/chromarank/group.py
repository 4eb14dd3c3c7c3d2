"""Permutation groups with deterministic stabilizer chains.

The chain is built by a non-randomized Schreier-Sims pass with base points
chosen as the smallest non-fixed point of each new strong generator, so
orders, transversals and membership tests reproduce bit for bit.  Element
enumeration, conjugacy classes, centralizers, Sylow subgroups and
fingerprints only run below a configurable order limit (the default is
2**21; see enumeration_limit).  Every group's sorted elements are the
closure of its generators, and their orders come from the element_order
kernel.  A direct product or cyclic wreath product recorded by its
constructor takes its order and fingerprint from its factors', with no
chain or enumeration; its class table from theirs, with no class walk;
and its centralizers from their elements and centralizers, with no
filtering of its own elements.  A relabeled copy (conjugate_by) keeps
the order and the record, and reads from it only what a relabeling does
not change: the class profile, the derived order and, in chromatic, the
ranks.  The class walk and centralizer_filter serve every other group,
and stay the independent check of the factor rules (registry paranoid
mode, tests).  Every centralizer is interned, one subgroup per element
set, and memoized per target tuple as that subgroup, except that a group
is never held in its own cache: nothing cached here forms a reference
cycle, so dropped groups are freed by reference counting alone.
"""

from __future__ import annotations

import json
import os
import weakref
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain, compress, product
from math import gcd, lcm, prod
from operator import itemgetter

from . import kernels
from .arith import is_p_power, is_prime, p_part
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


def json_field(rec: dict, name: str, kind: str, owner: str = "field"):
    """rec[name] if it is of the JSON kind, else a ParseError naming the
    field: a loaded record is checked, never coerced."""
    value = rec[name]
    if not _JSON_KINDS[kind](value):
        raise ParseError(f"{owner} {name!r} must be {kind}, got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism-invariant summary of a finite group.

    Every field but order and derived_order is a fold of the class profile
    (PermGroup.class_profile): the exponent and the element-order histogram
    from the element orders weighted by class size, the class-size
    histogram, the center order as the number of classes of size 1, and
    abelian when every class has size 1.  Equality of fingerprints is
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

    def to_record(self) -> dict:
        return {
            "order": self.order,
            "exponent": self.exponent,
            "element_order_histogram": [list(x) for x in self.element_order_histogram],
            "class_size_histogram": [list(x) for x in self.class_size_histogram],
            "center_order": self.center_order,
            "derived_order": self.derived_order,
            "abelian": self.abelian,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Fingerprint":
        expected = {
            "order",
            "exponent",
            "element_order_histogram",
            "class_size_histogram",
            "center_order",
            "derived_order",
            "abelian",
        }
        if set(rec) != expected:
            raise ParseError(f"bad fingerprint fields: {sorted(rec)}")

        def field(name: str, kind: str = "an integer"):
            return json_field(rec, name, kind, owner="fingerprint field")

        def histogram(name: str) -> tuple[tuple[int, int], ...]:
            return tuple(map(tuple, field(name, "a list of integer pairs")))

        return cls(
            order=field("order"),
            exponent=field("exponent"),
            element_order_histogram=histogram("element_order_histogram"),
            class_size_histogram=histogram("class_size_histogram"),
            center_order=field("center_order"),
            derived_order=field("derived_order"),
            abelian=field("abelian", "a bool"),
        )


class PermGroup:
    """Finitely generated permutation group on {0, ..., degree-1}.

    Instances are immutable; derived data (chain, elements, class table,
    fingerprint) is computed on demand and cached on the instance.
    """

    __slots__ = ("degree", "generators", "_raw", "_chain", "_cache")

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
        return cls(degree, (Permutation.identity(degree),))

    # -- chain-backed queries ------------------------------------------------

    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self.degree, self._raw)
        return self._chain

    def order(self) -> int:
        cached = self._cache.get("order")
        if cached is None:
            cached = self.chain().order()
            self._cache["order"] = cached
        return cached

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs group degree {self.degree}")
        return self.chain().contains(p.images)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def is_abelian(self) -> bool:
        cached = self._cache.get("abelian")
        if cached is None:
            raw = self._raw
            cached = all(kernels.commutes(a, b) for i, a in enumerate(raw) for b in raw[i + 1 :])
            self._cache["abelian"] = cached
        return cached

    # -- enumeration-backed queries -------------------------------------------

    def _check_limit(self, limit: int | None) -> None:
        """Raise ThresholdExceeded when the group is past the enumeration limit."""
        cap = enumeration_limit(limit)
        n = self.order()
        if n > cap:
            raise ThresholdExceeded(f"desk-scale exceeded: group order {n} > limit {cap}")

    def _cached(self, key, limit: int | None, compute: Callable[[], object]):
        """The enumeration-backed result stored under key, computed on a miss.

        The limit is checked before the lookup, so a cached result is
        returned exactly when a fresh group would compute it.
        """
        self._check_limit(limit)
        value = self._cache.get(key)
        if value is None:
            value = compute()
            self._cache[key] = value
        return value

    def _raw_elements(self, limit: int | None = None) -> tuple[tuple[int, ...], ...]:
        return self._cached("elements_raw", limit, self._close)

    def _close(self) -> tuple[tuple[int, ...], ...]:
        """The sorted elements: the closure of the generators, whose length
        is checked against order(), the stabilizer chain order or, for a
        recorded direct product or wreath, the order its record gives."""
        n = self.order()
        closed = kernels.close_group(list(self._raw), n)
        if closed is None or len(closed) != n:
            raise ChromarankError("closure disagrees with the group order")
        return tuple(closed)

    def elements(self, limit: int | None = None) -> tuple[Permutation, ...]:
        """All elements, lexicographically sorted by image tuple."""
        return self._cached(
            "elements",
            limit,
            lambda: tuple(Permutation._wrap(t) for t in self._raw_elements(limit)),
        )

    def _element_orders(self, limit: int | None = None) -> tuple[int, ...]:
        """The order of each element of _raw_elements, in the same order."""
        return self._cached(
            "element_orders",
            limit,
            lambda: tuple(map(kernels.element_order, self._raw_elements(limit))),
        )

    def exponent(self, limit: int | None = None) -> int:
        return lcm(*(o for o, _ in self.class_profile(limit)))

    def conjugacy_classes(self, limit: int | None = None) -> ConjClassTable:
        """The conjugacy classes, one row per class from _classes."""
        return self._cached("classes", limit, lambda: self._class_table(limit))

    def _class_table(self, limit: int | None) -> ConjClassTable:
        reps, sizes, orders = zip(*self._classes(limit))
        return ConjClassTable(reps, sizes, orders)

    def _classes(self, limit: int | None, order: int | None = None):
        """Yield (rep, size, element order) per conjugacy class, in rep order.

        Each rep is the least element of its class.  A recorded direct
        product or wreath reads its classes from its factors' class tables
        (see _product_classes and _wreath_classes), with each class's
        element order and size from the formula _profile reads too
        (_product_rows, _wreath_words).  Any other group walks
        its elements in sorted order, so each class is first reached at its
        least member.  With order given, only the classes of that element
        order are yielded; the walk then visits only the elements of that
        order, read from _element_orders.  Without it, the walk computes the
        order of each rep alone, so a full table costs one kernel call per
        class.
        """
        record = self._cache.get("factors")
        if record is not None:
            self._check_limit(limit)
            factors, n = record
            if n is None:
                tables = [(f.degree, f.conjugacy_classes(limit)) for f in factors]
                rows = _product_classes(tables, order)
            else:
                (base,) = factors
                table = base.conjugacy_classes(limit)
                rows = _wreath_classes(table, base.order(), base.degree, n, order)
            for t, size, o in rows:
                yield Permutation._wrap(t), size, o
            return
        # A dict, not a set: on CPython a set of all |G| elements takes more memory.
        seen: dict[tuple[int, ...], None] = {}
        raw_gens = self._raw
        elements = self._raw_elements(limit)
        if order is not None:
            elements = compress(elements, [o == order for o in self._element_orders(limit)])
        for t in elements:
            if t in seen:
                continue
            o = kernels.element_order(t) if order is None else order
            orbit = kernels.conjugacy_orbit(t, raw_gens)
            for x in orbit:
                seen[x] = None
            yield Permutation._wrap(t), len(orbit), o

    def _record_factors(self, factors: tuple["PermGroup", ...], n: int | None = None) -> "PermGroup":
        """Record that this group is the direct product of factors or, when n
        is given, factors[0] wr C_n; returns the group.

        The order is stored now, as prod |factor| or |H|**n * n, so no
        stabilizer chain is built for it.  The conjugacy classes,
        class_profile, centralizers and the derived order of fingerprint
        are computed from the factors (see _classes, _profile,
        _centralizer_group and _derived_order); the classes and the profile
        read each class's element order and size from one formula per
        construction (_product_rows, _wreath_words).  The elements
        (_close), their orders and every other query come from the
        generators as for any group.  The record is also kept under a
        second key, which conjugate_by copies (see factor_record).
        """
        self._cache["factors"] = self._cache["factors up to relabeling"] = (factors, n)
        if n is None:
            self._cache["order"] = prod(f.order() for f in factors)
        else:
            (base,) = factors
            self._cache["order"] = base.order() ** n * n
        return self

    def factor_record(self) -> tuple[tuple["PermGroup", ...], int | None] | None:
        """(factors, n) when the group is, up to a relabeling of its points,
        the direct product of factors (n None) or factors[0] wr C_n, else
        None.

        Read-only.  A group built by direct_product or wreath_cyclic has a
        record, and conjugate_by keeps it on the relabeled copy; only facts
        that a relabeling does not change (class profile, derived order,
        ranks) may be read from it.  Class tables and centralizers come from
        the factors only on the group the constructor built (the "factors"
        key), and from the copy's own generators on a copy.
        """
        return self._cache.get("factors up to relabeling")

    def class_profile(self, limit: int | None = None) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, class size) pairs, one per conjugacy class."""
        return self._cached("profile", limit, lambda: self._profile(limit))

    def _profile(self, limit: int | None) -> tuple[tuple[int, int], ...]:
        record = self.factor_record()
        if record is None:
            return self.conjugacy_classes(limit).profile()
        factors, n = record
        if n is None:
            rows = _product_rows([f.class_profile(limit) for f in factors])
        else:
            (base,) = factors
            rows = (row[2:] for row in _wreath_words(base.class_profile(limit), base.order(), n))
        return tuple(sorted(rows))

    def _derived_order(self, limit: int | None) -> int:
        """|G'|: the product of the factors' for a recorded direct product,
        |H|**(n-1) * |H'| for a recorded H wr C_n (its abelianization is
        H/H' x C_n), else the order of derived_subgroup."""
        record = self.factor_record()
        if record is None:
            return self.derived_subgroup(limit).order()
        factors, n = record
        if n is None:
            return prod(f._derived_order(limit) for f in factors)
        (base,) = factors
        return base.order() ** (n - 1) * base._derived_order(limit)

    def _intern_table(self) -> "_InternTable":
        """The table this group's centralizers are interned in.

        A subgroup interned in a table reaches it through a weak reference;
        a group that reaches no live table starts one and holds it.  So the
        table lives exactly as long as the group it was started on, and
        adds no reference cycle.
        """
        ref = self._cache.get("intern")
        table = None if ref is None else ref()
        if table is None:
            table = _InternTable()
            self._cache["intern_table"] = table
            self._cache["intern"] = weakref.ref(table)
        return table

    def _centralizer_raw(self, raw_targets, limit: int | None = None) -> "PermGroup":
        """Centralizer of raw permutations, one group per distinct element set.

        Its elements are sorted, so they are an exact key into the intern
        table (_intern): equal centralizers come back as one object, which
        computes its class table, fingerprint and ranks once.  The subgroup
        is memoized per target tuple, so a repeated target costs one lookup.
        An interned group is its own centralizer for a central target; the
        memo then marks it (_ITSELF) rather than holding it, since a group
        in its own cache is a reference cycle.
        """
        self._check_limit(limit)
        key = ("centralizer", tuple(raw_targets))
        sub = self._cache.get(key)
        if sub is None:
            sub = self._centralizer_group(key[1], limit)
            self._cache[key] = _ITSELF if sub is self else sub
        elif sub is _ITSELF:
            sub = self
        return sub

    def _intern(self, elements) -> "PermGroup":
        """The subgroup on a sorted element tuple, from the intern table,
        built and added to it when it is not there."""
        table = self._intern_table()
        sub = table.get(elements)
        if sub is None:
            sub = _subgroup_from_elements(self.degree, elements)
            sub._cache["intern"] = weakref.ref(table)
            table[sub._cache["elements_raw"]] = sub
        return sub

    def _centralizer_group(self, targets: tuple, limit: int | None) -> "PermGroup":
        """The interned subgroup of elements commuting with every target.

        Any group but a recorded one filters its own elements.  A recorded
        direct product or wreath builds the centralizer of the first target
        from its factors (_product_centralizer, _wreath_centralizer) and
        filters that by the other targets.  Both rules first give a key,
        the data of the factors that fixes the centralizer, and assemble
        the elements only for a key not seen before: many targets share a
        centralizer, and a later one reads the subgroup from the cache.  A
        recorded group is never one of its own centralizers, and they do
        not reach it, so the cache holds them with no reference cycle.
        """
        record = self._cache.get("factors")
        if record is None or not targets:
            return self._intern(
                tuple(kernels.centralizer_filter(list(self._raw_elements(limit)), list(targets)))
            )
        factors, n = record
        first, rest = targets[0], list(targets[1:])
        if n is None:
            key, build = _product_centralizer(factors, first, limit)
        else:
            (base,) = factors
            key, build = _wreath_centralizer(base, n, first, limit)
        key = ("centralizer from factors", key)
        sub = self._cache.get(key)
        if sub is None:
            sub = self._cache[key] = self._intern(build())
        if rest:
            elements = sub._cache["elements_raw"]
            sub = self._intern(tuple(kernels.centralizer_filter(list(elements), rest)))
        return sub

    def centralizer(self, targets: Iterable[Permutation], limit: int | None = None) -> "PermGroup":
        """Centralizer of a set of elements (see _centralizer_group)."""
        tt = tuple(targets)
        for t in tt:
            if not isinstance(t, Permutation):
                raise InvalidPermutation(f"not a Permutation: {t!r}")
            if not self.contains(t):
                raise NotInGroup(f"{t!r} is not a member of this group")
        return self._centralizer_raw([t.images for t in tt], limit)

    def _class_centralizer(self, rep: Permutation, size: int, limit: int | None = None) -> "PermGroup":
        """Centralizer of a conjugacy-class representative whose class has
        the given size, read by the caller from the same class table.

        A central class (size 1) is centralized by the whole group, which is
        returned itself rather than rebuilt.
        """
        if size == 1:
            self._check_limit(limit)
            return self
        return self._centralizer_raw([rep.images], limit)

    def center(self, limit: int | None = None) -> "PermGroup":
        """Z(G), the centralizer of the generators: the union of the classes
        of size 1, interned like any other centralizer."""
        return self._centralizer_raw(self._raw, limit)

    def sylow_subgroup(self, p: int, limit: int | None = None) -> "PermGroup":
        """A Sylow p-subgroup, grown from a cyclic p-subgroup via normalizers.

        Deterministic: the seed and every extension element are the
        lexicographically least candidates, so repeated runs agree.
        """
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        target = p_part(self.order(), p)
        if target == 1:
            return _subgroup_from_elements(self.degree, [tuple(range(self.degree))])
        elems = self._raw_elements(limit)
        identity = tuple(range(self.degree))
        seed = next(t for t in elems if t != identity and is_p_power(kernels.element_order(t), p))
        gens = [seed]
        span = {identity}
        _extend_span(span, gens, identity, target)
        while len(span) < target:
            normalizer = kernels.normalizer_filter(list(elems), gens, span)
            ext = next(
                (
                    t
                    for t in normalizer
                    if t not in span and is_p_power(kernels.element_order(t), p)
                ),
                None,
            )
            if ext is None:
                raise ChromarankError("normalizer holds no p-element outside the subgroup")
            gens.append(ext)
            _extend_span(span, gens, identity, target)
        if len(span) != target:
            raise ChromarankError("p-subgroup grew past the p-part; non-p-element slipped in")
        return _subgroup_from_elements(self.degree, span)

    def derived_subgroup(self, limit: int | None = None) -> "PermGroup":
        """Normal closure of the generator commutators.

        The result is generated by the elements the closure kept, and its
        order is the closure's size, so no second closure runs.  Raises
        ThresholdExceeded, and caches nothing, once the closure grows past
        the enumeration limit.
        """
        result = self._cache.get("derived")
        if result is None:
            result = self._derived_subgroup(limit)
            self._cache["derived"] = result
        result._check_limit(limit)
        return result

    def _derived_subgroup(self, limit: int | None) -> "PermGroup":
        cap = enumeration_limit(limit)
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
            _extend_span(span, gens, identity, cap)
            if len(span) > cap:
                raise ThresholdExceeded(
                    f"desk-scale exceeded: derived subgroup order > limit {cap}"
                )
            work.extend(kernels.conjugate(x, g) for g in self._raw)
        derived = PermGroup(self.degree, tuple(Permutation._wrap(t) for t in gens or [identity]))
        derived._cache["order"] = len(span)
        return derived

    def fingerprint(self, limit: int | None = None) -> Fingerprint:
        return self._cached("fingerprint", limit, lambda: self._fingerprint(limit))

    def _fingerprint(self, limit: int | None) -> Fingerprint:
        order_counts: dict[int, int] = {}
        size_counts: dict[int, int] = {}
        for o, size in self.class_profile(limit):
            order_counts[o] = order_counts.get(o, 0) + size
            size_counts[size] = size_counts.get(size, 0) + 1
        center_order = size_counts.get(1, 0)
        return Fingerprint(
            order=self.order(),
            exponent=lcm(*order_counts),
            element_order_histogram=tuple(sorted(order_counts.items())),
            class_size_histogram=tuple(sorted(size_counts.items())),
            center_order=center_order,
            derived_order=self._derived_order(limit),
            abelian=center_order == self.order(),
        )

    def conjugate_by(self, s: Permutation) -> "PermGroup":
        """The relabeled group s^-1 G s.

        The copy keeps what a relabeling does not change and is already
        known: the order and the factor record (see factor_record).  Its
        elements, class table and centralizers come from its own
        generators.
        """
        if s.degree != self.degree:
            raise DegreeMismatch(f"degree {s.degree} vs group degree {self.degree}")
        copy = PermGroup(
            self.degree,
            tuple(Permutation._wrap(kernels.conjugate(t, s.images)) for t in self._raw),
        )
        for key in ("order", "factors up to relabeling"):
            if key in self._cache:
                copy._cache[key] = self._cache[key]
        return copy

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"


# The centralizer memo's mark for a group that centralizes the target itself.
_ITSELF = object()


class _InternTable(dict):
    """Sorted element tuple -> the subgroup built on it (see _intern_table)."""

    __slots__ = ("__weakref__",)


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
    """
    for j in range(n):
        d = gcd(j, n)
        m = n // d
        for word in product(range(len(rows)), repeat=d):
            rotations = {word[i:] + word[:i] for i in range(d)}
            if word == min(rotations):
                size = len(rotations) * base_order ** (n - d) * prod(rows[i][1] for i in word)
                yield j, word, lcm(*(m * rows[i][0] for i in word)), size


def _product_classes(tables, order: int | None) -> list:
    """Sorted (rep, size, element order) rows of a direct product's classes
    of the given element order (all when None), from (degree, class table)
    of each factor, in order.

    A class of G x H is a pair of classes, with order and size from
    _product_rows.  Its least element is x + y shifted by deg G, for the
    least elements x and y of the two classes, since G's points come
    first; _product_elements of the factors' sorted reps lists these in
    the same product order, sorted.
    """
    reps = _product_elements([(degree, [rep.images for rep in table.reps]) for degree, table in tables])
    rows = _product_rows([list(zip(table.orders, table.sizes)) for _, table in tables])
    return [(rep, size, o) for rep, (o, size) in zip(reps, rows) if order is None or o == order]


def _wreath_classes(table, base_order: int, degree: int, n: int, order: int | None) -> list:
    """Sorted (rep, size, element order) rows of the classes of H wr C_n of
    the given element order (all when None), from H's class table, order
    and degree.

    The least element of the class _wreath_words gives as (j, word) has
    top part c**j, h_b the identity for b < n - d, and h_(n-d+i) the least
    element of H's class word[i]: the identity is H's least element, and
    the last d blocks meet each of the d block cycles once.
    """
    reps = [rep.images for rep in table.reps]
    identity = tuple(range(degree))
    rows = []
    for j, word, o, size in _wreath_words(list(zip(table.orders, table.sizes)), base_order, n):
        if order is not None and o != order:
            continue
        base = [identity] * (n - len(word)) + [reps[i] for i in word]
        rep = tuple(x + (b + j) % n * degree for b, h in enumerate(base) for x in h)
        rows.append((rep, size, o))
    return sorted(rows)


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


def _product_centralizer(factors, z: tuple[int, ...], limit: int | None):
    """The centralizer of z in the direct product of factors, as (key,
    build) for PermGroup._centralizer_group: C(x, y) = C_G(x) x C_H(y),
    for z = x + y shifted by deg G.

    Each factor's centralizer comes from its own _centralizer_raw, so it is
    memoized and interned there, and the tuple of those subgroups is the
    key: every (x, y) with y central in H, say, gives C_G(x) x H.
    """
    subs = []
    offset = 0
    for f in factors:
        piece = tuple(v - offset for v in z[offset : offset + f.degree])
        subs.append(f._centralizer_raw((piece,), limit))
        offset += f.degree
    subs = tuple(subs)
    return subs, lambda: _product_elements([(s.degree, s._raw_elements(limit)) for s in subs])


def _wreath_centralizer(base: "PermGroup", n: int, z: tuple[int, ...], limit: int | None):
    """The centralizer of z in H wr C_n, for H = base, as (key, build) for
    PermGroup._centralizer_group.

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
    scanned once per cycle with that test, and the other values are
    composed for the kept y only.  The centralizer elements with top part
    c**t are the products of the kept values over the cycles, so the cost
    is about 2 n |H| compositions per t, where filtering the group costs
    n |H|**n.  The key is j and, per t and cycle, the kept values with the
    offset, q_s**-1 and r_s of each block: they fix the elements, which
    build() composes and concatenates.

    They come out sorted with no sort: an element with top part c**t sends
    point 0 into block t, so t comes first; and blocks 0, ..., d-1 are the
    starts of cycles 0, ..., d-1, whose kept values are scanned in H's
    sorted order, so the product over the cycles, cycle 0 outermost, runs
    in the order of those first d blocks.
    """
    degree = base.degree
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
    parts = []
    for t in range(n):
        cycles = []
        for r in range(d):
            cycle = [(r + s * j) % n for s in range(m)]
            q, rr = [identity], [identity]
            for b in cycle:
                q.append(compose(q[-1], h[b]))
                rr.append(compose(rr[-1], h[(b + t) % n]))
            closed_q, closed_r = q.pop(), rr.pop()
            kept = tuple(y for y in elements if compose(y, closed_r) == compose(closed_q, y))
            # Per block r, r + d, ... of the cycle, in that order: the
            # offset of its image block c_s + t, q_s**-1 and r_s.
            order = sorted(range(m), key=cycle.__getitem__)
            steps = tuple(((cycle[s] + t) % n * degree, kernels.inverse(q[s]), rr[s]) for s in order)
            cycles.append((kept, steps))
        parts.append(tuple(cycles))
    parts = tuple(parts)

    def build():
        # Cycle r holds blocks r, r + d, ..., r + (m-1)d.  The products list
        # the blocks cycle by cycle; when that is not block order, one
        # getter per element puts block b, at place (b mod d) m + b div d,
        # back in its place.
        reorder = None
        if 1 < d < n:
            places = [(b % d * m + b // d) * degree for b in range(n)]
            reorder = itemgetter(*(place + i for place in places for i in range(degree)))
        out = []
        for cycles in parts:
            words = [()]
            for kept, steps in cycles:
                values = [
                    tuple(
                        chain.from_iterable(
                            map(o.__add__, compose(compose(qi, y), ri)) for o, qi, ri in steps
                        )
                    )
                    for y in kept
                ]
                words = [w + v for w in words for v in values]
            out.extend(words if reorder is None else map(reorder, words))
        return tuple(out)

    return (j, parts), build


def _subgroup_from_elements(degree: int, raw_elements) -> PermGroup:
    """Build a group from a closed element list, with a reduced generating set.

    Scans elements in sorted order and keeps those outside the span of the
    elements kept so far.  The span grows by Dimino's coset extension, so
    no stabilizer chain is built here; chain() builds one from the kept
    generators when it is asked for.  The element cache is pre-seeded since
    the full list is already in hand.
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
        _extend_span(span, gens, identity, len(elems))
    if len(span) != len(elems) or span != set(elems):
        raise ChromarankError("element list is not closed under the group operation")
    group = PermGroup(degree, tuple(Permutation._wrap(t) for t in gens or [identity]))
    group._cache["order"] = len(elems)
    group._cache["elements_raw"] = tuple(elems)
    return group


def _extend_span(span: set, gens: list, identity: tuple, cap: int) -> None:
    """Grow span, the group generated by gens[:-1], into the one generated by gens.

    Dimino's algorithm (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 4.1): the new group is a union of right cosets H r of the
    old group H, and a product r s with a generator s that lands outside
    the span so far is the representative of a new coset.  Stops once the
    span has more than cap elements.
    """
    block = list(span)
    reps = [identity]
    for r in reps:
        for s in gens:
            y = kernels.compose(r, s)
            if y not in span:
                reps.append(y)
                span.update([kernels.compose(h, y) for h in block])
                if len(span) > cap:
                    return


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
