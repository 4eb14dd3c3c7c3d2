"""Expression language for group constructions.

Grammar (whitespace-insensitive; canonical printing is lowercase with no
whitespace, and parse(print_expr(e)) == e):

    expr := atom | "prod(" expr "," expr ")" | "wr(" expr "," cyc ")"
          | "syl(" int "," expr ")"
          | "cent(" expr ",order=" int ["," "czorder=" int] ")"
          | "ingest(" quoted-path ")"
    atom := cyc | "s(" int ")" | "d(" int ")" | "q8"
          | "ab(" int {"," int} ")" | "gl(" int "," int ")"
    cyc  := "c(" int ")"

Parse errors carry the byte offset of the failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import constructors
from .arith import is_prime
from .errors import ChromarankError, ParseError
from .group import PermGroup, enumeration_limit, read_generator_file


@dataclass(frozen=True)
class Atom:
    kind: str  # cyclic | symmetric | dihedral | quaternion8 | abelian
    params: tuple[int, ...]


@dataclass(frozen=True)
class Prod:
    left: "GroupExpr"
    right: "GroupExpr"


@dataclass(frozen=True)
class Wr:
    base: "GroupExpr"
    n: int


@dataclass(frozen=True)
class GL:
    n: int
    q: int


@dataclass(frozen=True)
class Syl:
    p: int
    inner: "GroupExpr"


@dataclass(frozen=True)
class Cent:
    inner: "GroupExpr"
    order: int
    czorder: int | None = None


@dataclass(frozen=True)
class Ingest:
    path: str


GroupExpr = Union[Atom, Prod, Wr, GL, Syl, Cent, Ingest]

# The atoms with one integer: head -> (kind, least value, what the integer is).
_INT_ATOMS = {
    "c": ("cyclic", 1, "cyclic order"),
    "s": ("symmetric", 1, "symmetric degree"),
    "d": ("dihedral", 3, "dihedral parameter"),
}


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", offset=self.pos)
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected integer", offset=start)
        return int(self.text[start : self.pos])

    def quoted(self) -> str:
        self.skip_ws()
        if self.peek() != '"':
            raise ParseError("expected quoted path", offset=self.pos)
        self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != '"':
            self.pos += 1
        if self.pos >= len(self.text):
            raise ParseError("unterminated quoted path", offset=start)
        path = self.text[start : self.pos]
        self.pos += 1
        return path


def _parse_int_args(cur: _Cursor, count: int) -> list[int]:
    cur.expect("(")
    out = [cur.integer()]
    for _ in range(count - 1):
        cur.expect(",")
        out.append(cur.integer())
    cur.expect(")")
    return out


def _keyword(cur: _Cursor, name: str) -> int:
    """The integer of a "name=" argument."""
    at = cur.pos
    if cur.word() != name:
        raise ParseError(f"expected {name}=", offset=at)
    cur.expect("=")
    return cur.integer()


def _parse_expr(cur: _Cursor) -> GroupExpr:
    cur.skip_ws()
    at = cur.pos
    head = cur.word()
    if not head:
        raise ParseError("expected expression", offset=at)
    if head in _INT_ATOMS:
        kind, least, noun = _INT_ATOMS[head]
        (n,) = _parse_int_args(cur, 1)
        if n < least:
            raise ParseError(f"{noun} must be at least {least}", offset=at)
        return Atom(kind, (n,))
    if head == "q8":
        return Atom("quaternion8", ())
    if head == "ab":
        cur.expect("(")
        params = [cur.integer()]
        while cur.peek() == ",":
            cur.expect(",")
            params.append(cur.integer())
        cur.expect(")")
        if any(n < 1 for n in params):
            raise ParseError("abelian invariants must be positive", offset=at)
        return Atom("abelian", tuple(params))
    if head == "gl":
        n, q = _parse_int_args(cur, 2)
        if n < 1:
            raise ParseError("matrix rank must be at least 1", offset=at)
        if not is_prime(q):
            raise ParseError(f"field size {q} is not prime", offset=at)
        return GL(n, q)
    if head == "prod":
        cur.expect("(")
        left = _parse_expr(cur)
        cur.expect(",")
        right = _parse_expr(cur)
        cur.expect(")")
        return Prod(left, right)
    if head == "wr":
        cur.expect("(")
        base = _parse_expr(cur)
        cur.expect(",")
        inner_at = cur.pos
        top = _parse_expr(cur)
        if not (isinstance(top, Atom) and top.kind == "cyclic"):
            raise ParseError("wreath top must be cyclic, c(n)", offset=inner_at)
        cur.expect(")")
        return Wr(base, top.params[0])
    if head == "syl":
        cur.expect("(")
        p_at = cur.pos
        p = cur.integer()
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", offset=p_at)
        cur.expect(",")
        inner = _parse_expr(cur)
        cur.expect(")")
        return Syl(p, inner)
    if head == "cent":
        cur.expect("(")
        inner = _parse_expr(cur)
        cur.expect(",")
        order = _keyword(cur, "order")
        czorder = None
        if cur.peek() == ",":
            cur.expect(",")
            czorder = _keyword(cur, "czorder")
        cur.expect(")")
        if order < 1 or (czorder is not None and czorder < 1):
            raise ParseError("orders must be positive", offset=at)
        return Cent(inner, order, czorder)
    if head == "ingest":
        cur.expect("(")
        path = cur.quoted()
        cur.expect(")")
        return Ingest(path)
    raise ParseError(f"unknown constructor {head!r}", offset=at)


def parse(text: str) -> GroupExpr:
    """Parse an expression; raises ParseError with a byte offset on failure."""
    cur = _Cursor(text)
    expr = _parse_expr(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise ParseError("trailing input", offset=cur.pos)
    return expr


def print_expr(e: GroupExpr) -> str:
    """Canonical form: lowercase, no whitespace; parse(print_expr(e)) == e."""
    if isinstance(e, Atom):
        for head, (kind, _, _) in _INT_ATOMS.items():
            if e.kind == kind:
                return f"{head}({e.params[0]})"
        if e.kind == "quaternion8":
            return "q8"
        if e.kind == "abelian":
            return "ab(" + ",".join(map(str, e.params)) + ")"
        raise ChromarankError(f"unknown atom kind {e.kind!r}")
    if isinstance(e, Prod):
        return f"prod({print_expr(e.left)},{print_expr(e.right)})"
    if isinstance(e, Wr):
        return f"wr({print_expr(e.base)},c({e.n}))"
    if isinstance(e, GL):
        return f"gl({e.n},{e.q})"
    if isinstance(e, Syl):
        return f"syl({e.p},{print_expr(e.inner)})"
    if isinstance(e, Cent):
        if e.czorder is None:
            return f"cent({print_expr(e.inner)},order={e.order})"
        return f"cent({print_expr(e.inner)},order={e.order},czorder={e.czorder})"
    if isinstance(e, Ingest):
        return f'ingest("{e.path}")'
    raise ChromarankError(f"not a GroupExpr: {e!r}")


def _select_centralizer(group: PermGroup, order: int, czorder: int | None, limit: int | None):
    """The representative of the class whose centralizer cent(...) denotes:
    the lex-least rep of the given element order (and, when given,
    centralizer order).

    Reads only the classes of that element order (PermGroup._classes), so
    no class table is built, and builds no subgroup: |C_G(x)| is read as
    |G| / |x^G|.  The selection is cached on the group; a failed one is not.
    """

    def select(limit):
        for rep, size, _ in group._classes(limit, order):
            if czorder is None or group.order() // size == czorder:
                return rep
        wanted = f"element order {order}"
        if czorder is not None:
            wanted += f" and centralizer order {czorder}"
        raise ChromarankError(f"no conjugacy class with {wanted}")

    return group._cached(("class_with", order, czorder), limit, select)


def evaluate(e: GroupExpr, limit: int | None = None, memo: dict | None = None) -> PermGroup:
    """Build the permutation group an expression denotes.

    memo, when given, maps printed expressions to already-built groups and
    is filled in as a side effect; sharing one across calls keeps repeated
    subexpressions (and their cached class tables) identical objects.  The
    limit is resolved at entry (enumeration_limit), so a call reads
    CHROMARANK_MAX_ORDER at most once and refuses a limit below 1.
    """
    limit = enumeration_limit(limit)
    if memo is not None:
        key = print_expr(e)
        hit = memo.get(key)
        if hit is not None:
            return hit
    if isinstance(e, Atom):
        group = constructors.atomic_group(e.kind, e.params)
    elif isinstance(e, Prod):
        group = constructors.direct_product(
            evaluate(e.left, limit, memo), evaluate(e.right, limit, memo)
        )
    elif isinstance(e, Wr):
        group = constructors.wreath_cyclic(evaluate(e.base, limit, memo), e.n)
    elif isinstance(e, GL):
        group = constructors.general_linear(e.n, e.q)
    elif isinstance(e, Syl):
        group = evaluate(e.inner, limit, memo).sylow_subgroup(e.p, limit)
    elif isinstance(e, Cent):
        inner = evaluate(e.inner, limit, memo)
        rep = _select_centralizer(inner, e.order, e.czorder, limit)
        group = inner._centralizer_raw([rep.images], limit)
    elif isinstance(e, Ingest):
        group = read_generator_file(e.path)
    else:
        raise ChromarankError(f"not a GroupExpr: {e!r}")
    if memo is not None:
        memo[key] = group
    return group
