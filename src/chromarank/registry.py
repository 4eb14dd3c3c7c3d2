"""Good-group ledger: seed axioms, closure-rule certification, exploration.

A registry is keyed by a prime p and stores entries with a status of
"good", "bad" or "unknown" plus a fingerprint for concrete groups.  The
rule set mirrors the closure properties of the good class:

    SEED         axiom families (abelian, symmetric, GL coprime to p,
                 order p**3, order 32 at p = 2)
    PRODUCT      both factors good implies the product good
    WREATH       base good implies base wr C_p good
    CENTRALIZER  ambient good implies centralizers of p-power elements good
    SYLOW        Sylow p-subgroup good implies the group good
    FACTOR       product and one factor good implies the other factor good

Each rule's hypotheses are stated once, in _steps, which yields the rule
applications that conclude an expression is good.  certify searches those
steps backward from an expression to seed axioms, and replay accepts a
derivation node only when it is one of the steps for its subject.  explore
applies the forward constructions breadth-first, deduplicating by
fingerprint.  Matching fingerprints with contradictory statuses raise
ConsistencyError, and a derivation for a bad-fingerprinted group is a hard
error since the rules are theorems.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from . import constructors, dsl, kernels
from .arith import check_prime, is_p_power, p_part
from .errors import ChromarankError, ConsistencyError, ParseError, ThresholdExceeded
from .group import (
    Fingerprint,
    PermGroup,
    check_limit,
    dump_record,
    enumeration_limit,
    load_record,
    product_fingerprint,
)
from .perm import Permutation

log = logging.getLogger(__name__)

RULES = ("SEED", "PRODUCT", "WREATH", "CENTRALIZER", "SYLOW", "FACTOR")
STATUSES = ("good", "bad", "unknown")

ENTRY_FIELDS: dict[str, str] = {
    "name": "a string",
    "expr": "a string or null",
    "prime": "an integer",
    "order": "an integer or null",
    "fingerprint": "an object or null",
    "status": "a string",
    "rule": "a string",
    "parents": "a list of strings",
}

SEED_AXIOMS = ("abelian", "symmetric", "gl-coprime", "order-p3", "order-32")


@dataclass(frozen=True)
class RegistryEntry:
    """One ledger line; axiom entries carry no order or fingerprint."""

    name: str
    expr: str | None
    prime: int
    order: int | None
    fingerprint: Fingerprint | None
    status: str
    rule: str
    parents: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ChromarankError(f"bad status {self.status!r}")
        if self.order is not None and self.order < 1:
            raise ChromarankError(f"bad order {self.order}")
        if self.fingerprint is not None and self.fingerprint.order != self.order:
            raise ChromarankError(
                f"order {self.order} contradicts the fingerprint's order {self.fingerprint.order}"
            )

    def to_record(self) -> dict:
        return dump_record(self, ENTRY_FIELDS)

    @classmethod
    def from_record(cls, rec: object) -> "RegistryEntry":
        return load_record(cls, rec, ENTRY_FIELDS, "registry record")


@dataclass(frozen=True)
class DerivationTree:
    """A certificate: the expression, the rule applied, and its premises."""

    subject: str
    rule: str
    detail: str
    premises: tuple["DerivationTree", ...] = ()

    def to_record(self) -> dict:
        return {
            "subject": self.subject,
            "rule": self.rule,
            "detail": self.detail,
            "premises": [p.to_record() for p in self.premises],
        }

    def walk(self):
        yield self
        for p in self.premises:
            yield from p.walk()

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        head = f"{pad}{self.subject}  [{self.rule}"
        if self.detail:
            head += f": {self.detail}"
        head += "]"
        lines = [head]
        for p in self.premises:
            lines.append(p.render(indent + 1))
        return "\n".join(lines)


class Registry:
    """Ordered collection of entries for one prime, consistency-checked.

    A registry also keeps the groups it builds, one memo per resolved
    enumeration limit, for as long as it lives; they are never saved.
    Evaluation is deterministic, so certify, replay, register_derivation
    and explore share them, and a memo hit at a limit is a group whose
    fresh evaluation at that limit succeeds.
    """

    def __init__(self, prime: int | None = None, entries=()):
        if prime is not None:
            check_prime(prime)
        self.prime = prime
        self.entries: list[RegistryEntry] = []
        self._by_name: dict[str, RegistryEntry] = {}
        self._by_fp: dict[Fingerprint, list[RegistryEntry]] = {}
        self._groups: dict[int, dict] = {}
        for e in entries:
            self.add(e)

    @classmethod
    def with_defaults(cls, p: int) -> "Registry":
        return cls(p, seed_defaults(p))

    def add(self, entry: RegistryEntry) -> RegistryEntry:
        if self.prime is None:
            self.prime = entry.prime
        elif entry.prime != self.prime:
            raise ConsistencyError(
                f"registry is keyed to prime {self.prime}, entry has {entry.prime}"
            )
        if entry.name in self._by_name:
            existing = self._by_name[entry.name]
            if existing == entry:
                return existing
            raise ConsistencyError(f"duplicate entry name {entry.name!r}")
        if entry.fingerprint is not None:
            for other in self._by_fp.get(entry.fingerprint, ()):
                if {other.status, entry.status} == {"good", "bad"}:
                    raise ConsistencyError(
                        f"fingerprint of {entry.name!r} matches {other.name!r} "
                        f"with contradictory status"
                    )
            self._by_fp.setdefault(entry.fingerprint, []).append(entry)
        self.entries.append(entry)
        self._by_name[entry.name] = entry
        return entry

    def _memo(self, limit: int | None) -> dict:
        """Built groups for one limit: printed expression -> group, plus
        ("entry", name) -> group for explore's expressionless entries."""
        return self._groups.setdefault(enumeration_limit(limit), {})

    def _evaluate(self, expr: dsl.GroupExpr, limit: int | None) -> PermGroup:
        return dsl.evaluate(expr, limit, memo=self._memo(limit))

    def get(self, name: str) -> RegistryEntry | None:
        return self._by_name.get(name)

    def find_fingerprint(self, fp: Fingerprint) -> list[RegistryEntry]:
        return list(self._by_fp.get(fp, ()))

    def bad_match(self, fp: Fingerprint) -> RegistryEntry | None:
        for e in self.find_fingerprint(fp):
            if e.status == "bad":
                return e
        return None

    def good_entries(self) -> list[RegistryEntry]:
        return [e for e in self.entries if e.status == "good"]

    def has_bad_of_order(self, order: int) -> bool:
        return any(e.status == "bad" and e.order == order for e in self.entries)

    def save(self, path: str) -> None:
        """One canonical record per line; stable field order, append-friendly.

        The lines go to a temporary file beside path, which then replaces
        it, so a save that stops part way leaves the old file whole.
        """
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(e.to_record(), separators=(",", ":")) + "\n" for e in self.entries)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path: str) -> "Registry":
        reg = cls()
        with open(path, encoding="utf-8") as fh:
            for no, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    rec = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"bad registry line: {exc}", line=no) from None
                try:
                    reg.add(RegistryEntry.from_record(rec))
                except ConsistencyError as exc:
                    raise ConsistencyError(f"{exc} (line {no})") from None
                except ChromarankError as exc:
                    raise ParseError(str(exc.args[0]), line=no) from None
        return reg


# -- seeds ---------------------------------------------------------------


# The builder, from the prime, of each seeded entry that is a group.  The
# expression language has no atom for these, so their records carry no
# expression; _realize builds them from here.
SEEDED_GROUPS: dict[str, Callable[[int], PermGroup]] = {
    "unipotent-radical-gl4": constructors.unitriangular4,
}


def seed_defaults(p: int) -> list[RegistryEntry]:
    """Axiom entries for the good families, plus the known bad example.

    The bad entry at odd p is the unipotent radical of GL_4(F_p), the
    upper unitriangular 4x4 matrices, of order p**6.  Its fingerprint is a
    closed form (_unitriangular4_fingerprint), so seeding builds no group;
    _realize builds it (SEEDED_GROUPS) only when a candidate matches it.
    """
    check_prime(p)
    out = []
    for key in SEED_AXIOMS:
        if key == "order-32" and p != 2:
            continue
        out.append(
            RegistryEntry(
                name=f"axiom:{key}",
                expr=None,
                prime=p,
                order=None,
                fingerprint=None,
                status="good",
                rule="SEED",
            )
        )
    if p != 2:
        fingerprint = _unitriangular4_fingerprint(p)
        out.append(
            RegistryEntry(
                name="unipotent-radical-gl4",
                expr=None,
                prime=p,
                order=fingerprint.order,
                fingerprint=fingerprint,
                status="bad",
                rule="CITED",
                parents=(),
            )
        )
    return out


def _unitriangular4_fingerprint(p: int) -> Fingerprint:
    """Fingerprint of U_4(F_p) for an odd prime p, with no enumeration.

    U_4(F_p) has order p**6, centre and derived subgroup of orders p and
    p**3, and 2p**3 + p**2 - 2p classes: p of size 1, p**2 - 1 of size p,
    p**3 + p**2 - 2p of size p**2 and p**3 - p**2 - p + 1 of size p**3.
    Write an element as I + N with N strictly upper triangular.  In
    characteristic p, (I + N)**p = I + N**p, and N**4 = 0.  So for p >= 5
    every element but the identity has order p.  At p = 3,
    N**3 = n12*n23*n34*E14, and the (p-1)**3 * p**3 elements whose three
    superdiagonal entries are all nonzero have order p**2.
    """
    order_p2 = (p - 1) ** 3 * p**3 if p < 4 else 0
    orders = ((1, 1), (p, p**6 - 1 - order_p2)) + (((p**2, order_p2),) if order_p2 else ())
    return Fingerprint(
        order=p**6,
        exponent=orders[-1][0],
        element_order_histogram=orders,
        class_size_histogram=(
            (1, p),
            (p, p**2 - 1),
            (p**2, p**3 + p**2 - 2 * p),
            (p**3, p**3 - p**2 - p + 1),
        ),
        center_order=p,
        derived_order=p**3,
        abelian=False,
    )


def _match_seed(expr: dsl.GroupExpr, p: int, group: PermGroup) -> str | None:
    """First axiom family the expression falls into, or None."""
    if isinstance(expr, dsl.Atom) and expr.kind == "symmetric":
        return "symmetric"
    if isinstance(expr, dsl.GL) and expr.q != p:
        return "gl-coprime"
    if group.is_abelian():
        return "abelian"
    if group.order() == p**3:
        return "order-p3"
    if p == 2 and group.order() == 32:
        return "order-32"
    return None


# -- certification ---------------------------------------------------------


DEFAULT_SEARCH_DEPTH = 6


def certify(
    expr: dsl.GroupExpr | str,
    p: int,
    registry: Registry,
    depth: int = DEFAULT_SEARCH_DEPTH,
    limit: int | None = None,
) -> DerivationTree | None:
    """Backward search for a derivation of goodness; None when not found.

    Rules are tried in a fixed order (RULES), so results are deterministic.
    When a derivation is found but the group's fingerprint matches a
    bad-status entry, ConsistencyError is raised: the rules are theorems,
    so that combination marks a bug or a poisoned registry.
    """
    if isinstance(expr, str):
        expr = dsl.parse(expr)
    check_prime(p)
    if registry.prime not in (None, p):
        raise ConsistencyError(f"registry is keyed to prime {registry.prime}, not {p}")
    limit = enumeration_limit(limit)
    witnesses = functools.cache(lambda: _factor_witnesses(registry))
    tree = _search(expr, p, registry, depth, limit, witnesses)
    if tree is not None:
        group = registry._evaluate(expr, limit)
        if registry.has_bad_of_order(group.order()):
            fp = group.fingerprint(limit)
            bad = registry.bad_match(fp)
            if bad is not None:
                raise ConsistencyError(
                    f"derivation found for {dsl.print_expr(expr)} whose fingerprint "
                    f"matches bad entry {bad.name!r}"
                )
    return tree


def _factor_witnesses(registry: Registry) -> list:
    """(name, ((left text, right), (right text, left))) of each good product
    entry in registry order: the FACTOR rule's candidates.  A search or a
    replay adds no entries, so each parses them once per call, at the first
    node reaching FACTOR."""
    out = []
    for entry in registry.good_entries():
        try:
            parsed = None if entry.expr is None else dsl.parse(entry.expr)
        except ParseError:
            continue
        if isinstance(parsed, dsl.Prod):
            left, right = parsed.left, parsed.right
            out.append((entry.name, ((dsl.print_expr(left), right), (dsl.print_expr(right), left))))
    return out


def _steps(expr, p, registry, limit, witnesses):
    """Yield (rule, detail, premise expressions) for every rule application
    that concludes expr is good, in RULES order: the one statement of the
    rules' hypotheses, read by both _search and replay.  Lazy, so a search
    that stops at a step computes nothing for the later ones."""
    group = registry._evaluate(expr, limit)
    axiom = _match_seed(expr, p, group)
    if axiom is not None:
        yield "SEED", axiom, ()
    if isinstance(expr, dsl.Prod):
        yield "PRODUCT", "", (expr.left, expr.right)
    # base wr C_p with the registry prime on top
    if isinstance(expr, dsl.Wr) and expr.n == p:
        yield "WREATH", f"top c({p})", (expr.base,)
    # centralizers of p-power elements of a good group
    if isinstance(expr, dsl.Cent):
        inner_group = registry._evaluate(expr.inner, limit)
        rep = dsl._select_centralizer(inner_group, expr.order, expr.czorder, limit)
        if is_p_power(rep.order(), p):
            yield "CENTRALIZER", f"of class rep {rep.cycle_string()}", (expr.inner,)
    # a good Sylow p-subgroup lifts to the group; syl(p, X) is a p-group,
    # so this never offers SYLOW on one
    if p_part(group.order(), p) < group.order():
        yield "SYLOW", "", (dsl.Syl(p, expr),)
    # a registered good product with this expression as one factor
    text = dsl.print_expr(expr)
    for name, sides in witnesses():
        for mine, other in sides:
            if mine == text:
                yield "FACTOR", f"witness {name}", (other,)


def _search(expr, p, registry, depth, limit, witnesses) -> DerivationTree | None:
    """The first step of _steps whose premises all have derivations within
    depth - 1, as a tree; None when there is none."""
    if depth <= 0:
        return None
    for rule, detail, premises in _steps(expr, p, registry, limit, witnesses):
        subs = []
        for premise in premises:
            sub = _search(premise, p, registry, depth - 1, limit, witnesses)
            if sub is None:
                break
            subs.append(sub)
        else:
            return DerivationTree(dsl.print_expr(expr), rule, detail, tuple(subs))
    return None


def replay(
    tree: DerivationTree,
    p: int,
    registry: Registry,
    limit: int | None = None,
) -> None:
    """Re-check a derivation; raises ConsistencyError on failure.

    Every node's rule, detail and premise subjects, in order, must be one
    of the steps of _steps for its subject, and a SEED node's axiom entry
    must be in the registry.
    """
    limit = enumeration_limit(limit)
    witnesses = functools.cache(lambda: _factor_witnesses(registry))
    for node in tree.walk():
        claim = (node.rule, node.detail, tuple(t.subject for t in node.premises))
        allowed = []
        steps = _steps(dsl.parse(node.subject), p, registry, limit, witnesses)
        for rule, detail, premises in steps:
            allowed.append((rule, detail, tuple(map(dsl.print_expr, premises))))
            if allowed[-1] == claim:
                break
        else:
            raise ConsistencyError(
                f"{node.subject}: {node.rule} node {claim} is no rule step; "
                f"the rules allow {allowed}"
            )
        if node.rule == "SEED" and registry.get(f"axiom:{node.detail}") is None:
            # Seeded registries carry the axiom entries; their absence means
            # the registry was not initialized for this prime.
            raise ConsistencyError(f"axiom entry axiom:{node.detail} missing from registry")


def register_derivation(
    registry: Registry,
    tree: DerivationTree,
    p: int,
    limit: int | None = None,
) -> list[RegistryEntry]:
    """Add an entry per derivation node (leaves first); returns new entries."""
    limit = enumeration_limit(limit)
    added = []
    for node in reversed(list(tree.walk())):
        if registry.get(node.subject) is not None:
            continue
        group = registry._evaluate(dsl.parse(node.subject), limit)
        parents: tuple[str, ...]
        if node.rule == "SEED":
            parents = (f"axiom:{node.detail}",)
        else:
            parents = tuple(t.subject for t in node.premises)
        entry = RegistryEntry(
            name=node.subject,
            expr=node.subject,
            prime=p,
            order=group.order(),
            fingerprint=group.fingerprint(limit),
            status="good",
            rule=node.rule,
            parents=parents,
        )
        registry.add(entry)
        added.append(entry)
    return added


# -- exploration -------------------------------------------------------------


def _memo_key(name: str, expr: str | None):
    return expr if expr is not None else ("entry", name)


def _realize(registry: Registry, entry: RegistryEntry, limit) -> tuple[PermGroup | None, str]:
    """(the entry's group, ""), or (None, why it cannot be realized): it has
    no expression and no builder in SEEDED_GROUPS, its builder's group has
    another fingerprint than the entry, or its group is over the
    enumeration limit.  A built seeded group is kept in the registry's
    memo, as an explored entry's is."""
    memo = registry._memo(limit)
    key = _memo_key(entry.name, entry.expr)
    group = memo.get(key)
    if group is not None:
        return group, ""
    build = SEEDED_GROUPS.get(entry.name)
    if entry.expr is None and build is None:
        return None, "no expression"
    try:
        if entry.expr is not None:
            return registry._evaluate(dsl.parse(entry.expr), limit), ""
        group = build(entry.prime)
        fingerprint = group.fingerprint(limit)
    except ThresholdExceeded as exc:
        return None, f"over the enumeration limit: {exc}"
    if fingerprint != entry.fingerprint:
        return None, f"its builder {build.__name__}({entry.prime}) gives another fingerprint"
    memo[key] = group
    return group, ""


def _realize_or_skip(registry: Registry, entry: RegistryEntry, limit) -> PermGroup | None:
    """The entry's group, or None after logging why it is skipped."""
    group, why = _realize(registry, entry, limit)
    if group is None:
        log.info("explore: cannot realize %s (%s); skipping", entry.name, why)
    return group


def _register_candidate(
    registry: Registry,
    name: Callable[[], str],
    expr: str | None,
    p: int,
    fingerprint: Callable[[], Fingerprint],
    build: Callable[[], PermGroup],
    rule: str,
    parents: tuple[str, ...],
    limit,
    paranoid: bool,
    tally: Counter,
) -> RegistryEntry | None:
    """Fingerprint, dedup, and add a good group, built only if it is kept.

    fingerprint() gives the candidate's fingerprint, raising
    ThresholdExceeded past the limit, and build() the group.  Most
    candidates are fingerprint duplicates, so explore reads a product's
    fingerprint from its factors' (product_fingerprint) with no product
    built, and build() is called, at most once, only to add the entry, to
    compare the group with a bad entry its fingerprint matches, or in
    paranoid mode.  A centralizer candidate's fingerprint is that of the
    group _centralizer_raw gives, which for a recorded product, and for a
    wreath's base target whose word of classes has no rotational symmetry,
    is built from factor centralizers' generators, with no elements, and
    fingerprinted from theirs.  A centralizer candidate stands for every
    class that has that centralizer (_centralizer_children), so it is
    called once per distinct centralizer, not once per class.
    Counts the candidate in tally under its rule, and a fingerprint
    duplicate under "duplicate".  In paranoid mode every candidate is built
    and its fingerprint compared with fingerprint()'s; one with a factor
    record (a product, a wreath or a centralizer built as a product),
    whose order, class table, profile and derived order come from its
    factors, is checked once against a copy with no record of them
    (_check_factor_rule), and its centralizers in _centralizer_children.
    A fingerprint that matches a bad entry is a contradiction only when
    that entry cannot be realized or has the candidate's class profile;
    otherwise the collision is logged and the candidate skipped, since a
    good and a bad entry cannot share a fingerprint in one registry.
    name() gives the candidate's name, and is called only for an entry
    that is added, a skip that is logged or an error that is reported,
    since a centralizer's name prints its representative.
    """
    tally[rule] += 1
    try:
        fp = fingerprint()
    except ThresholdExceeded as exc:
        log.info("explore: skipping %s: %s", name(), exc)
        return None
    group = None
    if paranoid:
        group = build()
        if group.factor_record() is not None and "factor rule" not in group._cache:
            _check_factor_rule(name, group, limit)
            group._cache["factor rule"] = True  # passed: an interned group is checked once
        if group.fingerprint(limit) != fp:
            raise ConsistencyError(f"fingerprint of {name()!r} differs from its built group's")
    bad = registry.bad_match(fp)
    if bad is not None:
        known, why = _realize(registry, bad, limit)
        group = build() if group is None else group
        if known is None or known.class_profile(limit) == group.class_profile(limit):
            why = f", which cannot be realized ({why})" if known is None else ""
            raise ConsistencyError(
                f"constructed good group {name()!r} matches bad entry {bad.name!r}{why}"
            )
        log.warning(
            "explore: fingerprint collision between %s and bad entry %s: class profiles differ; "
            "skipping",
            name(),
            bad.name,
        )
        return None
    matches = registry.find_fingerprint(fp)
    if matches:
        tally["duplicate"] += 1
        if paranoid:
            profile = group.class_profile(limit)
            for other in matches:
                known = _realize_or_skip(registry, other, limit)
                if known is not None and known.class_profile(limit) != profile:
                    raise ConsistencyError(
                        f"fingerprint collision between {name()!r} and {other.name!r}: "
                        f"class profiles differ"
                    )
        return None
    group = build() if group is None else group
    name = name()
    if registry.get(name) is not None:
        # Same name, different fingerprint: disambiguate deterministically.
        suffix = 2
        while registry.get(f"{name}#{suffix}") is not None:
            suffix += 1
        name = f"{name}#{suffix}"
    entry = RegistryEntry(
        name=name,
        expr=expr,
        prime=p,
        order=group.order(),
        fingerprint=fp,
        status="good",
        rule=rule,
        parents=parents,
    )
    registry.add(entry)
    registry._memo(limit).setdefault(_memo_key(name, expr), group)
    return entry


def _class_table_rows(group: PermGroup, limit) -> list:
    table = group.conjugacy_classes(limit)
    return list(zip(table.reps, table.sizes, table.orders))


# What a group with a factor record takes from its factors, each checked
# against the same query on a copy of the group with no record of them.
_FACTOR_FACTS = (
    ("order", lambda g, limit: g.order()),
    ("class", _class_table_rows),
    ("class profile", lambda g, limit: g.class_profile(limit)),
    ("derived order", lambda g, limit: g._derived_order(limit)),
    ("fingerprint", lambda g, limit: g.fingerprint(limit)),
)


def _check_factor_rule(name: Callable[[], str], group: PermGroup, limit) -> None:
    """Raise ConsistencyError when a fact a group took from its factors
    differs from the one the copy PermGroup(group.degree, group.generators)
    gives: its order (stabilizer chain), class table (its own class walk),
    class profile, derived order (derived subgroup) and fingerprint (a
    fold of the copy's class profile, where a product's convolves its
    factors'), compared in that order.  The table and the profile read one
    formula per construction, so a wrong formula is named at the table.
    Elements need no check: both groups close the same generators."""
    plain = PermGroup(group.degree, group.generators)
    for fact, query in _FACTOR_FACTS:
        _compare_factor_fact(name, fact, query(group, limit), query(plain, limit))


def _compare_factor_fact(name: Callable[[], str], fact: str, ruled, enumerated) -> None:
    """Raise ConsistencyError when ruled, taken from the factors, differs
    from enumerated; a list or tuple names its first differing item, and
    name() the group."""
    if ruled == enumerated:
        return
    if isinstance(ruled, (list, tuple)):
        pairs = enumerate(zip(ruled, enumerated))
        i = next((i for i, (a, b) in pairs if a != b), None)
        if i is None:
            fact, ruled, enumerated = f"{fact} count", len(ruled), len(enumerated)
        else:
            fact, ruled, enumerated = f"{fact} {i}", ruled[i], enumerated[i]
    raise ConsistencyError(
        f"{fact} of {name()!r} from its factors is {ruled}, its generators give {enumerated}"
    )


def _centralizer_children(
    registry, parent: RegistryEntry, group: PermGroup, p, bound, limit, paranoid, tally
) -> list[RegistryEntry]:
    """Centralizers of one representative per non-central p-power class of
    the group whose centralizer order is at most bound, one candidate per
    distinct centralizer.  A central class is left out: its centralizer is
    the group itself, whose fingerprint the registry already holds.  So an
    abelian group, whose generators commute pairwise and whose classes are
    all central, builds no class table; a group past the limit is logged
    first, abelian or not.

    The classes and their centralizers are the p-power rows of
    PermGroup._class_rows, which a recorded product or wreath reads
    through its record, and any other group from its class table.  A
    pair's centralizer, and a wreath's for a base target
    whose word of classes has no rotational symmetry, is the direct
    product of factor centralizers, built with no elements and
    fingerprinted from theirs.  Many classes share one
    centralizer.  Only the first class, in rep order, that has it goes to
    _register_candidate; each later one counts as a CENTRALIZER candidate
    and a fingerprint duplicate, as its try would have, unless the first
    try was skipped (past the limit, or a collision with a bad entry),
    when it is tried and logged again.  Every class counts towards the
    first use of its (order, centralizer order) name, so the names, the
    log and the registry are those of one try per class.  In paranoid mode
    every class is tried, and each centralizer is checked to be the one
    _centralizer_raw gives for the rep and, by its elements, the one
    filtering the group's elements, the closure of its generators, finds.
    """
    try:
        group._check_limit(limit)
        if group.is_abelian():
            return []
        rows, rep, centralizer = group._class_rows(limit, lambda o: is_p_power(o, p))
        rows = list(rows)
    except ThresholdExceeded:
        log.info("explore: %s too large to enumerate for centralizers", parent.name)
        return []
    if paranoid:
        want = [row for row in _class_table_rows(group, limit) if is_p_power(row[2], p)]
        got = [(Permutation._wrap(rep(key)), size, o) for (o, size), key in rows]
        _compare_factor_fact(lambda: parent.name, "p-power class", got, want)
    added = []
    named: set[tuple[int, int]] = set()
    # A centralizer tried before -> whether that try settled it, coming to an
    # entry or a fingerprint duplicate; a skipped one is tried again, so that
    # each of its classes logs its skip.
    settled: dict[PermGroup, bool] = {}
    order = group.order()
    for (o, size), key in rows:
        czo = order // size
        if size == 1 or czo > bound:
            continue
        expr = None
        if parent.expr is not None and (o, czo) not in named:
            expr = f"cent({parent.expr},order={o},czorder={czo})"
        named.add((o, czo))
        sub = centralizer(key)
        if not paranoid and settled.get(sub):
            # The same group again: a fingerprint duplicate of the first try.
            tally["CENTRALIZER"] += 1
            tally["duplicate"] += 1
            continue

        def name():
            if expr:
                return expr
            return f"cent[{parent.name};o{o};cz{czo};{Permutation._wrap(rep(key)).cycle_string()}]"

        if paranoid:
            x = rep(key)
            ruled = group._centralizer_raw([x], limit)
            filtered = kernels.centralizer_filter(list(group._raw_elements(limit)), [x])
            _compare_factor_fact(name, "centralizer element", ruled._raw_elements(limit), tuple(filtered))
            if ruled is not sub:
                raise ConsistencyError(f"{name()!r} is not the centralizer of its class rep")
        duplicates = tally["duplicate"]
        entry = _register_candidate(
            registry, name, expr, p, lambda: sub.fingerprint(limit), lambda: sub, "CENTRALIZER",
            (parent.name,), limit, paranoid, tally,
        )
        settled[sub] = entry is not None or tally["duplicate"] > duplicates
        if entry is not None:
            added.append(entry)
    return added


def explore(
    registry: Registry,
    p: int,
    order_bound: int,
    depth: int = 3,
    limit: int | None = None,
    paranoid: bool = False,
) -> list[RegistryEntry]:
    """Forward closure of the good entries under the constructions.

    Each round applies, to the concrete good entries: the wreath with C_p
    (and centralizers of p-power classes inside the new wreath), products
    with other registry members, and centralizers of p-power classes of
    the entry itself.  Only results of order at most order_bound are
    registered, deduplicated by fingerprint, so a rerun with the same
    bounds adds nothing once a round reaches a fixed point.  depth caps
    the number of rounds; groups past the enumeration limit are skipped
    with a logged notice.

    A round tries only what involves an entry new to it, one past the
    previous round's snapshot: a new entry's wreath and centralizers (a
    wreath's in the round that adds it) and the product of each pair with
    a new member.  The rest was tried in an earlier round and could only
    find fingerprint duplicates, so the order of additions is unchanged.
    A product is fingerprinted from its factors and built only when it is
    added (_register_candidate); a centralizer of a product, or of a
    wreath's base target whose word of classes has no rotational symmetry,
    is built from factor centralizers, with no elements, and fingerprinted
    from theirs.  The classes of an entry that share a centralizer make
    one candidate (_centralizer_children), while the counts, names and log
    lines stay those of one candidate per class.  Each round logs its
    counts at INFO, every class counted.
    """
    check_prime(p)
    if registry.prime not in (None, p):
        raise ConsistencyError(f"registry is keyed to prime {registry.prime}, not {p}")
    limit = enumeration_limit(limit)
    added: list[RegistryEntry] = []
    # Every snapshot entry's group, or None; entries are only ever appended,
    # so the entries past its length are the round's new ones.
    groups: dict[str, PermGroup | None] = {}
    # Wreath entries whose centralizers were tried in the round that added them.
    expanded: set[str] = set()
    for round_no in range(1, depth + 1):
        snapshot = [e for e in registry.good_entries() if e.order is not None]
        start = len(groups)
        for entry in snapshot[start:]:
            groups[entry.name] = _realize_or_skip(registry, entry, limit)
        tally: Counter = Counter()
        fresh: list[RegistryEntry] = []

        def offer(name, expr, fingerprint, build, rule, parents) -> RegistryEntry | None:
            entry = _register_candidate(
                registry, lambda: name, expr, p, fingerprint, build, rule, parents, limit,
                paranoid, tally,
            )
            if entry is not None:
                fresh.append(entry)
            return entry

        def expand(parent, group):
            fresh.extend(
                _centralizer_children(registry, parent, group, p, order_bound, limit, paranoid, tally)
            )

        for i, entry in enumerate(snapshot):
            group = groups[entry.name]
            if group is None:
                continue
            new = i >= start
            # a new entry's wreath with C_p and its centralizers, then its own
            if new and entry.order**p * p <= order_bound:
                wexpr = f"wr({entry.expr},c({p}))" if entry.expr is not None else None
                wreath = constructors.wreath_cyclic(group, p)
                wname = wexpr or f"wr[{entry.name};c({p})]"
                wentry = offer(
                    wname, wexpr, lambda: wreath.fingerprint(limit), lambda: wreath, "WREATH",
                    (entry.name,),
                )
                if wentry is not None:
                    expand(wentry, wreath)
                    expanded.add(wentry.name)
            if new and entry.name not in expanded:
                expand(entry, group)
            # products with other snapshot members, unordered pairs once, one of them new
            for other in snapshot if new else snapshot[start:]:
                if entry.order * other.order > order_bound or other.name < entry.name:
                    continue
                ogroup = groups[other.name]
                if ogroup is None:
                    continue
                if entry.expr is not None and other.expr is not None:
                    pexpr = f"prod({entry.expr},{other.expr})"
                else:
                    pexpr = None
                pname = pexpr or f"prod[{entry.name};{other.name}]"

                def product_print():
                    check_limit(group.order() * ogroup.order(), limit)
                    return product_fingerprint([group.fingerprint(limit), ogroup.fingerprint(limit)])

                offer(
                    pname, pexpr, product_print, lambda: constructors.direct_product(group, ogroup),
                    "PRODUCT", (entry.name, other.name),
                )
        log.info(
            "explore round %d: %d entries, %d new; candidates WREATH %d, PRODUCT %d, "
            "CENTRALIZER %d; added %d, fingerprint duplicates %d",
            round_no,
            len(snapshot),
            len(snapshot) - start,
            tally["WREATH"],
            tally["PRODUCT"],
            tally["CENTRALIZER"],
            len(fresh),
            tally["duplicate"],
        )
        added.extend(fresh)
        if not fresh:
            break
    return added
