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
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from . import constructors, dsl, kernels
from .arith import is_p_power, is_prime, p_part
from .errors import ChromarankError, ConsistencyError, ParseError, ThresholdExceeded
from .group import Fingerprint, PermGroup, enumeration_limit, json_field

log = logging.getLogger(__name__)

RULES = ("SEED", "PRODUCT", "WREATH", "CENTRALIZER", "SYLOW", "FACTOR")
STATUSES = ("good", "bad", "unknown")

ENTRY_FIELDS = ("name", "expr", "prime", "order", "fingerprint", "status", "rule", "parents")

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

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "expr": self.expr,
            "prime": self.prime,
            "order": self.order,
            "fingerprint": None if self.fingerprint is None else self.fingerprint.to_record(),
            "status": self.status,
            "rule": self.rule,
            "parents": list(self.parents),
        }

    @classmethod
    def from_record(cls, rec: dict) -> "RegistryEntry":
        if type(rec) is not dict:
            raise ParseError("registry record must be a JSON object")
        if set(rec) != set(ENTRY_FIELDS):
            unknown = sorted(set(rec) - set(ENTRY_FIELDS))
            missing = sorted(set(ENTRY_FIELDS) - set(rec))
            trouble = []
            if unknown:
                trouble.append(f"unknown fields {unknown}")
            if missing:
                trouble.append(f"missing fields {missing}")
            raise ParseError("registry record with " + " and ".join(trouble))
        fp = json_field(rec, "fingerprint", "an object or null")
        return cls(
            name=json_field(rec, "name", "a string"),
            expr=json_field(rec, "expr", "a string or null"),
            prime=json_field(rec, "prime", "an integer"),
            order=json_field(rec, "order", "an integer or null"),
            fingerprint=None if fp is None else Fingerprint.from_record(fp),
            status=json_field(rec, "status", "a string"),
            rule=json_field(rec, "rule", "a string"),
            parents=tuple(json_field(rec, "parents", "a list of strings")),
        )


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
        if prime is not None and not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
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
        """One canonical record per line; stable field order, append-friendly."""
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(json.dumps(e.to_record(), separators=(",", ":")) + "\n")

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
                    entry = RegistryEntry.from_record(rec)
                except ChromarankError as exc:
                    raise ParseError(str(exc.args[0]), line=no) from None
                reg.add(entry)
        return reg


# -- seeds ---------------------------------------------------------------


def seed_defaults(p: int) -> list[RegistryEntry]:
    """Axiom entries for the good families, plus the known bad example.

    The bad entry at odd p is the unipotent radical of GL_4(F_p), the
    upper unitriangular 4x4 matrices, of order p**6.  Its fingerprint is a
    closed form (_unitriangular4_fingerprint), so seeding builds no group.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if registry.prime not in (None, p):
        raise ConsistencyError(f"registry is keyed to prime {registry.prime}, not {p}")
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
        rep, _ = dsl._select_centralizer(inner_group, expr.order, expr.czorder, limit)
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


def _realize(registry: Registry, entry: RegistryEntry, limit) -> PermGroup | None:
    group = registry._memo(limit).get(_memo_key(entry.name, entry.expr))
    if group is not None:
        return group
    if entry.expr is None:
        log.info("explore: cannot realize %s (no expression); skipping", entry.name)
        return None
    try:
        return registry._evaluate(dsl.parse(entry.expr), limit)
    except ThresholdExceeded as exc:
        log.info("explore: %s exceeds the enumeration limit (%s); skipping", entry.name, exc)
        return None


def _register_candidate(
    registry: Registry,
    name: Callable[[], str],
    expr: str | None,
    p: int,
    group: PermGroup,
    rule: str,
    parents: tuple[str, ...],
    limit,
    paranoid: bool,
    tally: Counter,
) -> RegistryEntry | None:
    """Fingerprint, dedup, and add a freshly constructed good group.

    Counts the candidate in tally under its rule, and a fingerprint
    duplicate under "duplicate".  In paranoid mode, a PRODUCT or WREATH
    candidate, whose order, class table, profile and derived order come
    from its factors, is checked against a copy with no record of them
    (_check_factor_rule), and its centralizers in _centralizer_children.
    name() gives the candidate's name, and is called only for an entry
    that is added, a skip that is logged or an error that is reported:
    most candidates are duplicates, and a centralizer's name prints its
    representative.
    """
    tally[rule] += 1
    try:
        fp = group.fingerprint(limit)
    except ThresholdExceeded as exc:
        log.info("explore: skipping %s: %s", name(), exc)
        return None
    if paranoid and rule in ("PRODUCT", "WREATH"):
        _check_factor_rule(name, group, limit)
    bad = registry.bad_match(fp)
    if bad is not None:
        raise ConsistencyError(f"constructed good group {name()!r} matches bad entry {bad.name!r}")
    matches = registry.find_fingerprint(fp)
    if matches:
        tally["duplicate"] += 1
        if paranoid:
            profile = group.class_profile(limit)
            for other in matches:
                known = _realize(registry, other, limit)
                if known is not None and known.class_profile(limit) != profile:
                    raise ConsistencyError(
                        f"fingerprint collision between {name()!r} and {other.name!r}: "
                        f"class profiles differ"
                    )
        return None
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


def _class_rows(group: PermGroup, limit) -> list:
    table = group.conjugacy_classes(limit)
    return list(zip(table.reps, table.sizes, table.orders))


# What a recorded product or wreath takes from its factors, each checked
# against the same query on a copy of the group with no record of them.
_FACTOR_FACTS = (
    ("order", lambda g, limit: g.order()),
    ("class", _class_rows),
    ("class profile", lambda g, limit: g.class_profile(limit)),
    ("derived order", lambda g, limit: g._derived_order(limit)),
)


def _check_factor_rule(name: Callable[[], str], group: PermGroup, limit) -> None:
    """Raise ConsistencyError when a fact a group took from its factors
    differs from the one the copy PermGroup(group.degree, group.generators)
    gives: its order (stabilizer chain), class table (its own class walk),
    class profile and derived order (derived subgroup), compared in that
    order.  The table and the profile read one formula per construction,
    so a wrong formula is named at the table.  Elements need no check:
    both groups close the same generators."""
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


def _centralizer_classes(group: PermGroup, p, bound, limit) -> list | None:
    """(representative, class size, element order, centralizer order) of
    each non-central p-power class whose centralizer order is at most
    bound; None when the group is past the enumeration limit.  A central
    class is left out: its centralizer is the group itself, whose
    fingerprint the registry already holds."""
    try:
        table = group.conjugacy_classes(limit)
    except ThresholdExceeded:
        return None
    out = []
    for rep, size, o in zip(table.reps, table.sizes, table.orders):
        czo = group.order() // size
        if size > 1 and is_p_power(o, p) and czo <= bound:
            out.append((rep, size, o, czo))
    return out


def _centralizer_children(
    registry, parent: RegistryEntry, group: PermGroup, p, bound, limit, paranoid, tally
) -> list[RegistryEntry]:
    """Centralizers of one representative per non-central p-power class of
    the group.  In paranoid mode, each is checked against filtering the
    group's elements, the closure of its generators, as a product or
    wreath builds its centralizers from its factors."""
    classes = _centralizer_classes(group, p, bound, limit)
    if classes is None:
        log.info("explore: %s too large to enumerate for centralizers", parent.name)
        return []
    added = []
    named: set[tuple[int, int]] = set()
    for rep, size, o, czo in classes:
        expr = None
        if parent.expr is not None and (o, czo) not in named:
            expr = f"cent({parent.expr},order={o},czorder={czo})"
        named.add((o, czo))

        def name():
            return expr or f"cent[{parent.name};o{o};cz{czo};{rep.cycle_string()}]"

        cent = group._class_centralizer(rep, size, limit)
        if paranoid:
            filtered = kernels.centralizer_filter(list(group._raw_elements(limit)), [rep.images])
            ruled = cent._raw_elements(limit)
            _compare_factor_fact(name, "centralizer element", ruled, tuple(filtered))
        entry = _register_candidate(
            registry, name, expr, p, cent, "CENTRALIZER", (parent.name,), limit, paranoid, tally
        )
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

    Rounds are semi-naive: the wreath and the centralizers of an entry are
    tried once, in the round after it is added (the first round tries every
    entry), and a product once, when its newer factor is new.  A candidate
    tried in an earlier round has its fingerprint in the registry since, so
    retrying it could only find a duplicate; skipping it leaves the order of
    additions unchanged.  Each round logs its counts at INFO.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if registry.prime not in (None, p):
        raise ConsistencyError(f"registry is keyed to prime {registry.prime}, not {p}")
    added: list[RegistryEntry] = []
    old: set[str] = set()  # the previous round's snapshot
    expanded: set[str] = set()  # entries whose centralizer children were tried
    for round_no in range(1, depth + 1):
        snapshot = [e for e in registry.good_entries() if e.order is not None]
        groups = {e.name: _realize(registry, e, limit) for e in snapshot}
        tally: Counter = Counter()
        fresh: list[RegistryEntry] = []
        for entry in snapshot:
            group = groups[entry.name]
            if group is None:
                continue
            new = entry.name not in old
            # wreath with C_p, then its centralizer children
            worder = entry.order**p * p
            if worder <= order_bound and not new:
                tally["skipped"] += 1
            elif worder <= order_bound:
                wexpr = f"wr({entry.expr},c({p}))" if entry.expr is not None else None
                wname = wexpr or f"wr[{entry.name};c({p})]"
                wreath = constructors.wreath_cyclic(group, p)
                wentry = _register_candidate(
                    registry,
                    lambda: wname,
                    wexpr,
                    p,
                    wreath,
                    "WREATH",
                    (entry.name,),
                    limit,
                    paranoid,
                    tally,
                )
                if wentry is not None:
                    fresh.append(wentry)
                    fresh.extend(
                        _centralizer_children(
                            registry, wentry, wreath, p, order_bound, limit, paranoid, tally
                        )
                    )
                    expanded.add(wentry.name)
            # centralizers inside the entry itself
            if entry.name in expanded:
                tally["skipped"] += len(_centralizer_classes(group, p, order_bound, limit) or ())
            else:
                fresh.extend(
                    _centralizer_children(
                        registry, entry, group, p, order_bound, limit, paranoid, tally
                    )
                )
                expanded.add(entry.name)
            # products with other snapshot members
            for other in snapshot:
                if entry.order * other.order > order_bound:
                    continue
                if other.name < entry.name:
                    continue  # unordered pairs once
                ogroup = groups[other.name]
                if ogroup is None:
                    continue
                if not new and other.name in old:
                    tally["skipped"] += 1
                    continue
                if entry.expr is not None and other.expr is not None:
                    pexpr = f"prod({entry.expr},{other.expr})"
                else:
                    pexpr = None
                pname = pexpr or f"prod[{entry.name};{other.name}]"
                product = constructors.direct_product(group, ogroup)
                parents = (entry.name, other.name)
                pentry = _register_candidate(
                    registry,
                    lambda: pname,
                    pexpr,
                    p,
                    product,
                    "PRODUCT",
                    parents,
                    limit,
                    paranoid,
                    tally,
                )
                if pentry is not None:
                    fresh.append(pentry)
        log.info(
            "explore round %d: %d entries, %d new; candidates WREATH %d, PRODUCT %d, "
            "CENTRALIZER %d; added %d, fingerprint duplicates %d, skipped as already tried %d",
            round_no,
            len(snapshot),
            sum(e.name not in old for e in snapshot),
            tally["WREATH"],
            tally["PRODUCT"],
            tally["CENTRALIZER"],
            len(fresh),
            tally["duplicate"],
            tally["skipped"],
        )
        old = {e.name for e in snapshot}
        added.extend(fresh)
        if not fresh:
            break
    return added
