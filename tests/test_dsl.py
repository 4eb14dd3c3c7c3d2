import random
import re

import pytest
from hypothesis import given, settings

from chromarank import (
    ChromarankError,
    ParseError,
    PermGroup,
    ThresholdExceeded,
    evaluate,
    parse,
    print_expr,
)
from chromarank.dsl import GL, Atom, Cent, Ingest, Prod, Syl, Wr, _select_centralizer

from conftest import CORPUS_BUILDERS, small_groups


def test_parse_shapes():
    e = parse("wr(gl(2,3),c(2))")
    assert e == Wr(GL(2, 3), 2)
    assert parse("prod(c(2),c(2))") == Prod(Atom("cyclic", (2,)), Atom("cyclic", (2,)))
    assert parse("syl(2,s(4))") == Syl(2, Atom("symmetric", (4,)))
    assert parse("cent(q8,order=4)") == Cent(Atom("quaternion8", ()), 4, None)
    assert parse("cent(q8,order=4,czorder=8)") == Cent(Atom("quaternion8", ()), 4, 8)
    assert parse('ingest("some/file.txt")') == Ingest("some/file.txt")
    assert parse("ab(2,3,4)") == Atom("abelian", (2, 3, 4))


def test_parse_whitespace_insensitive():
    assert parse(" wr( gl( 2 , 3 ) , c( 2 ) ) ") == parse("wr(gl(2,3),c(2))")


def test_print_is_canonical():
    text = print_expr(parse("  prod( s(3) ,  ab(2, 2) )"))
    assert text == "prod(s(3),ab(2,2))"
    assert print_expr(parse(text)) == text
    assert parse(print_expr(Ingest("a/b.txt"))) == Ingest("a/b.txt")
    with pytest.raises(ChromarankError, match="unknown atom kind 'bogus'"):
        print_expr(Atom("bogus", ()))
    for call in (print_expr, lambda e: evaluate(e, None)):
        with pytest.raises(ChromarankError, match="not a GroupExpr: 'c\\(2\\)'"):
            call("c(2)")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse("wr(c(2),")
    assert exc.value.offset == 8
    with pytest.raises(ParseError):
        parse("nope(3)")
    with pytest.raises(ParseError):
        parse("c(2)trailing")
    with pytest.raises(ParseError):
        parse("c(2")
    with pytest.raises(ParseError):
        parse("c(-1)")
    with pytest.raises(ParseError):
        parse("")
    for text, message, offset in (
        ("ingest(x)", "expected quoted path", 7),
        ('ingest("x', "unterminated quoted path", 8),
    ):
        with pytest.raises(ParseError, match=message) as exc:
            parse(text)
        assert exc.value.offset == offset, text


def test_parse_validates_constructor_arguments():
    with pytest.raises(ParseError):
        parse("d(2)")  # dihedral needs n >= 3
    with pytest.raises(ParseError):
        parse("gl(2,4)")  # q must be prime
    with pytest.raises(ParseError, match="abelian invariants must be positive"):
        parse("ab(2,0)")
    with pytest.raises(ParseError, match="matrix rank must be at least 1"):
        parse("gl(0,3)")
    with pytest.raises(ParseError):
        parse("syl(4,s(4))")  # p must be prime
    with pytest.raises(ParseError):
        parse("wr(c(2),s(3))")  # wreath top must be a cyclic atom
    with pytest.raises(ParseError):
        parse("ab()")
    with pytest.raises(ParseError):
        parse("cent(c(2),czorder=2)")  # order= comes first
    for text, message in (
        ("c(0)", "cyclic order must be at least 1"),
        ("s(0)", "symmetric degree must be at least 1"),
        ("cent(c(2),order=1,cz=2)", "expected czorder="),
        ("cent(c(2),order=0)", "orders must be positive"),
    ):
        with pytest.raises(ParseError, match=message):
            parse(text)


def test_evaluate_orders():
    assert evaluate(parse("wr(gl(2,3),c(2))")).order() == 4608
    assert evaluate(parse("syl(2,s(4))")).order() == 8
    assert evaluate(parse("prod(s(3),c(4))")).order() == 24
    assert evaluate(parse("q8")).order() == 8
    assert evaluate(parse("ab(2,4)")).order() == 8
    assert evaluate(parse("d(6)")).order() == 12


def test_evaluate_centralizer_selection():
    g = evaluate(parse("cent(wr(gl(2,3),c(2)),order=4,czorder=96)"))
    assert g.order() == 96
    # without the filter the lex-least order-4 class is chosen
    # lex-least order-2 class rep of S_4 is the transposition (2 3)
    g2 = evaluate(parse("cent(s(4),order=2)"))
    assert g2.order() == 4
    g3 = evaluate(parse("cent(s(4),order=2,czorder=8)"))
    assert g3.order() == 8  # the double-transposition class instead
    with pytest.raises(ChromarankError):
        evaluate(parse("cent(c(3),order=2)"))  # no order-2 class


def assert_selection_matches_table(group, label=None):
    """For every (element order, centralizer order) pair of the group's
    classes, and every element order with no centralizer order, the
    selection is the first matching row of the class table of a copy of
    the group; a pair with no class raises and caches nothing."""
    n = group.order()
    table = PermGroup(group.degree, group.generators).conjugacy_classes()
    rows = list(zip(table.reps, table.sizes, table.orders))
    pairs = {(o, n // size) for _, size, o in rows} | {(o, None) for _, _, o in rows}
    for order, czorder in pairs:
        want = next(
            rep
            for rep, size, o in rows
            if o == order and (czorder is None or n // size == czorder)
        )
        assert _select_centralizer(group, order, czorder, None) == want, (label, order, czorder)
    assert "classes" not in group._cache, label
    missing = max(table.orders) + 1
    present = table.orders[-1]
    for order, czorder, message in (
        (missing, None, f"no conjugacy class with element order {missing}"),
        (
            present,
            n + 1,
            f"no conjugacy class with element order {present} and centralizer order {n + 1}",
        ),
    ):
        with pytest.raises(ChromarankError, match=f"^{re.escape(message)}$"):
            _select_centralizer(group, order, czorder, None)
        assert ("class_with", order, czorder) not in group._cache, label


def test_selection_is_the_first_matching_table_row():
    for name, build in CORPUS_BUILDERS.items():
        assert_selection_matches_table(build(), name)
    assert_selection_matches_table(evaluate(parse("wr(s(3),c(2))")), "wr(s(3),c(2))")


@settings(deadline=None, max_examples=40)
@given(small_groups())
def test_selection_matches_the_table_on_random_groups(group):
    assert_selection_matches_table(group)


def test_selection_holds_the_limit():
    # One element short of the group's order is past the limit, whether or
    # not the selection is cached.
    for text, order, czorder in (("gl(2,3)", 4, 8), ("wr(s(3),c(2))", 2, None)):
        group = evaluate(parse(text))
        n = group.order()
        with pytest.raises(ThresholdExceeded):
            _select_centralizer(group, order, czorder, n - 1)
        assert _select_centralizer(group, order, czorder, n) is not None
        assert ("class_with", order, czorder) in group._cache
        with pytest.raises(ThresholdExceeded):
            _select_centralizer(group, order, czorder, n - 1)


def test_paper_selections():
    # The class representatives the paper's example selects, in the order-4608
    # wreath and in the order-18432 tower over its centralizer of order 96.
    e4608 = "wr(gl(2,3),c(2))"
    e18432 = f"wr(cent({e4608},order=4,czorder=96),c(2))"
    group = evaluate(parse(e4608))
    rep = _select_centralizer(group, 4, 96, None)
    assert rep.cycle_string() == "(0 8 1 9)(2 10 5 13)(3 11 7 15)(4 12 6 14)"
    assert group.centralizer([rep]).order() == 96
    group = evaluate(parse(e18432))
    rep = _select_centralizer(group, 8, 192, None)
    assert rep.cycle_string() == (
        "(0 16 8 24 1 17 9 25)(2 18 10 26 5 21 13 29)(3 19 11 27 7 23 15 31)"
        "(4 20 12 28 6 22 14 30)"
    )
    assert group.centralizer([rep]).order() == 192


def test_evaluate_deterministic():
    a = evaluate(parse("wr(c(2),c(2))"))
    b = evaluate(parse("wr(c(2),c(2))"))
    assert a.generators == b.generators


def test_evaluate_memo_shares_objects():
    memo = {}
    a = evaluate(parse("s(4)"), memo=memo)
    b = evaluate(parse("s(4)"), memo=memo)
    assert a is b


def test_central_cent_is_the_inner_group():
    # (0 2)(1 3) is central in d(4), so its centralizer is d(4) itself.
    memo = {}
    cent = evaluate(parse("cent(d(4),order=2,czorder=8)"), memo=memo)
    assert cent is evaluate(parse("d(4)"), memo=memo)


def test_ingest(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("degree 3\n(0 1)\n(0 1 2)\n")
    g = evaluate(parse(f'ingest("{path}")'))
    assert g.order() == 6


# -- random AST round-trips ---------------------------------------------------


def random_ast(rng, depth):
    if depth <= 0:
        choice = rng.randrange(6)
        if choice == 0:
            return Atom("cyclic", (rng.randint(1, 9),))
        if choice == 1:
            return Atom("symmetric", (rng.randint(1, 6),))
        if choice == 2:
            return Atom("dihedral", (rng.randint(3, 9),))
        if choice == 3:
            return Atom("quaternion8", ())
        if choice == 4:
            return Atom("abelian", tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3))))
        return GL(rng.randint(1, 3), rng.choice([2, 3, 5, 7]))
    choice = rng.randrange(5)
    if choice == 0:
        return Prod(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if choice == 1:
        return Wr(random_ast(rng, depth - 1), rng.randint(1, 5))
    if choice == 2:
        return Syl(rng.choice([2, 3, 5]), random_ast(rng, depth - 1))
    if choice == 3:
        czorder = rng.choice([None, rng.randint(1, 64)])
        return Cent(random_ast(rng, depth - 1), rng.randint(1, 16), czorder)
    return random_ast(rng, 0)


def test_thousand_random_roundtrips():
    rng = random.Random(20260817)
    for _ in range(1000):
        ast = random_ast(rng, rng.randint(0, 3))
        text = print_expr(ast)
        assert parse(text) == ast
        assert print_expr(parse(text)) == text
