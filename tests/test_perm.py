import pytest
from hypothesis import given, strategies as st

from chromarank import DegreeMismatch, InvalidPermutation, ParseError, Permutation

from conftest import o_compose, o_inverse, o_order

perms = st.integers(min_value=1, max_value=10).flatmap(
    lambda d: st.permutations(range(d)).map(lambda im: Permutation(tuple(im)))
)


def same_degree_pairs(max_degree=10):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda d: st.tuples(
            st.permutations(range(d)).map(lambda im: Permutation(tuple(im))),
            st.permutations(range(d)).map(lambda im: Permutation(tuple(im))),
        )
    )


def test_identity():
    e = Permutation.identity(5)
    assert e.images == (0, 1, 2, 3, 4)
    assert e.is_identity()
    assert e.order() == 1
    assert e.cycle_string() == "()"


def test_validation_rejects_non_bijections():
    with pytest.raises(InvalidPermutation):
        Permutation((0, 0, 1))
    with pytest.raises(InvalidPermutation):
        Permutation((0, 3, 1))
    with pytest.raises(InvalidPermutation):
        Permutation(())


def test_validation_rejects_bool_entries():
    # bool is a subclass of int, and True == 1, yet it is no point.
    with pytest.raises(InvalidPermutation):
        Permutation([True, False])
    with pytest.raises(InvalidPermutation):
        Permutation((0, True, 2))


def test_compose_order_is_left_to_right():
    a = Permutation.from_cycles("(0 1 2)", degree=3)
    b = Permutation.from_cycles("(0 1)", degree=3)
    # apply a first, then b
    assert (a * b).images == tuple(b.images[a.images[i]] for i in range(3))
    assert (a * b)(0) == b(a(0))


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Permutation.identity(3) * Permutation.identity(4)


def test_from_cycles_roundtrip():
    p = Permutation.from_cycles("(0 3)(1 4 2)", degree=6)
    assert p(0) == 3 and p(3) == 0 and p(1) == 4 and p(5) == 5
    assert Permutation.from_cycles(p.cycle_string(), degree=6) == p


def test_from_cycles_inferred_degree():
    p = Permutation.from_cycles("(2 7)")
    assert p.degree == 8


def test_from_cycles_rejects_garbage():
    for bad in ["(0 1", "0 1)", "(0 1)x", "(0 0)", "(0 1)(1 2)", "(-1 2)"]:
        with pytest.raises(ParseError):
            Permutation.from_cycles(bad)


def test_identity_cycle_text():
    assert Permutation.from_cycles("()", degree=4) == Permutation.identity(4)


def test_pow():
    r = Permutation.from_cycles("(0 1 2 3)", degree=4)
    assert r**4 == Permutation.identity(4)
    assert r**-1 == r.inverse()
    assert r**3 == r.inverse()
    assert r**0 == Permutation.identity(4)


def test_lex_ordering_and_hash():
    a = Permutation((0, 1, 2))
    b = Permutation((0, 2, 1))
    assert a < b
    assert len({a, b, Permutation((0, 1, 2))}) == 2


def test_ordering_against_a_non_permutation_is_a_type_error():
    p = Permutation((1, 0))
    for compare in (
        lambda: p < 3,
        lambda: p <= 3,
        lambda: p > 3,
        lambda: p >= 3,
        lambda: 3 < p,
        lambda: p < (1, 0),
    ):
        with pytest.raises(TypeError):
            compare()
    assert p != 3 and p != (1, 0)
    assert Permutation((0, 1)) < p <= p and p > Permutation((0, 1))


def test_conjugate_matches_definition():
    x = Permutation.from_cycles("(0 1)", degree=4)
    g = Permutation.from_cycles("(0 2)(1 3)", degree=4)
    assert x.conjugate_by(g) == g.inverse() * x * g


@given(same_degree_pairs())
def test_mul_matches_oracle(pair):
    a, b = pair
    assert (a * b).images == o_compose(a.images, b.images)


@given(perms)
def test_inverse_roundtrip(p):
    assert (p * p.inverse()).is_identity()
    assert p.inverse().images == o_inverse(p.images)


@given(perms)
def test_order_matches_oracle(p):
    assert p.order() == o_order(p.images)


@given(perms)
def test_cycle_string_roundtrip(p):
    assert Permutation.from_cycles(p.cycle_string(), degree=p.degree) == p


@given(same_degree_pairs(8))
def test_commutes_agrees_with_products(pair):
    a, b = pair
    assert a.commutes_with(b) == (a * b == b * a)
