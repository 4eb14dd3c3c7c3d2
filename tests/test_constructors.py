import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from chromarank import (
    ChromarankError,
    PermGroup,
    Permutation,
    abelian,
    cyclic,
    dihedral,
    direct_product,
    general_linear,
    quaternion8,
    symmetric,
    unitriangular4,
    wreath_cyclic,
)

from chromarank import group as group_module, kernels
from chromarank.arith import primitive_root
from chromarank.constructors import atomic_group
from chromarank.dsl import evaluate, parse
from chromarank.group import Product, _Chain

from conftest import assert_factor_rule_matches_enumeration, o_close, o_exponent, small_groups


def gl_order(n, q):
    total = 1
    for i in range(n):
        total *= q**n - q**i
    return total


def test_cyclic():
    for n in (1, 2, 5, 12):
        g = cyclic(n)
        assert g.order() == n
        assert g.is_abelian()
    assert cyclic(1).degree == 1


def test_symmetric():
    for n in range(1, 7):
        assert symmetric(n).order() == math.factorial(n)


def test_dihedral():
    for n in (3, 4, 7, 10):
        g = dihedral(n)
        assert g.order() == 2 * n
        assert not g.is_abelian()
    with pytest.raises(ValueError):
        dihedral(2)


def test_dihedral_relation():
    g = dihedral(5)
    r, s = g.generators
    assert s * r * s == r.inverse()
    assert s * s == Permutation.identity(g.degree)


def test_quaternion8():
    q = quaternion8()
    assert q.order() == 8
    assert q.exponent() == 4
    i, j = q.generators
    k = i * j
    assert i * i == j * j == k * k  # the common square is -1
    assert (i * i).order() == 2


def test_abelian():
    g = abelian((2, 4))
    assert g.order() == 8
    assert g.is_abelian()
    assert g.exponent() == 4
    assert abelian((1, 1)).order() == 1
    assert abelian((3,)).order() == 3
    assert abelian((2, 3, 5)).order() == 30
    assert abelian((2, 3, 5)).exponent() == 30


def test_direct_product():
    g = direct_product(symmetric(3), cyclic(4))
    assert g.order() == 24
    assert g.degree == 7
    # blocks act independently
    elems = {e.images for e in g.elements()}
    assert len(elems) == 24
    for e in elems:
        assert set(e[:3]) == {0, 1, 2} and set(e[3:]) == {3, 4, 5, 6}


def test_wreath_cyclic_order_and_known_case():
    base = symmetric(3)
    for n in (1, 2, 3):
        w = wreath_cyclic(base, n)
        assert w.order() == 6**n * n
    # C_2 wr C_2 is dihedral of order 8
    w = wreath_cyclic(cyclic(2), 2)
    assert w.fingerprint() == dihedral(4).fingerprint()


def _per_block_wreath(g, n):
    """G wr C_n generated by a copy of each generator of G on every block,
    then the block n-cycle."""
    dg = g.degree
    degree = n * dg
    gens = []
    for a in g.generators:
        for block in range(n):
            off = block * dg
            images = list(range(degree))
            images[off : off + dg] = [off + x for x in a.images]
            gens.append(Permutation(images))
    gens.append(Permutation([((block + 1) % n) * dg + i for block in range(n) for i in range(dg)]))
    return PermGroup(degree, gens)


def test_wreath_generators_match_the_per_block_group():
    # gl(2,3) wr C_3 (order 331,776) is left out: its class table alone
    # takes about 10 s on the pure backend.
    bases = (cyclic(3), symmetric(3), dihedral(4), quaternion8())
    cases = [(base, n) for base in bases for n in (2, 3)]
    cases.append((general_linear(2, 3), 2))
    for base, n in cases:
        w = wreath_cyclic(base, n)
        ref = _per_block_wreath(base, n)
        assert len(w.generators) == len(base.generators) + 1
        assert w.elements() == ref.elements()
        table, ref_table = w.conjugacy_classes(), ref.conjugacy_classes()
        assert table.reps == ref_table.reps
        assert table.sizes == ref_table.sizes
        assert w.fingerprint() == ref.fingerprint()


def test_wreath_4608(wreath_4608):
    assert wreath_4608.order() == 4608
    assert wreath_4608.degree == 16


def test_general_linear_orders():
    assert general_linear(1, 2).order() == 1
    assert general_linear(1, 5).order() == 4
    assert general_linear(2, 2).order() == gl_order(2, 2) == 6
    assert general_linear(2, 3).order() == gl_order(2, 3) == 48
    assert general_linear(3, 2).order() == gl_order(3, 2) == 168
    assert general_linear(2, 5).order() == gl_order(2, 5) == 480


def test_general_linear_is_faithful_on_vectors():
    g = general_linear(2, 3)
    assert g.degree == 8  # 3^2 - 1 nonzero vectors
    elems = o_close(list(g._raw))
    assert len(elems) == 48


def test_gl2_f2_is_symmetric_3():
    assert general_linear(2, 2).fingerprint() == symmetric(3).fingerprint()


def test_general_linear_rejects_prime_powers():
    with pytest.raises(ChromarankError):
        general_linear(2, 4)
    with pytest.raises(ChromarankError):
        general_linear(2, 1)
    with pytest.raises(ValueError, match="matrix rank must be at least 1"):
        general_linear(0, 3)
    with pytest.raises(ChromarankError, match="field size 4 is not prime"):
        unitriangular4(4)
    with pytest.raises(ValueError, match="no primitive root modulo 8"):
        primitive_root(8)


def test_unitriangular4():
    for q in (2, 3):
        u = unitriangular4(q)
        assert u.order() == q**6
        assert u.degree == q**3
        assert not u.is_abelian()
    u3 = unitriangular4(3)
    assert u3.exponent() == 9
    assert u3.center().order() == 3


def test_constructor_validation():
    with pytest.raises(ValueError):
        cyclic(0)
    with pytest.raises(ValueError):
        symmetric(0)
    with pytest.raises(ValueError):
        abelian((0,))
    assert abelian(()).order() == 1
    with pytest.raises(ValueError):
        wreath_cyclic(cyclic(2), 0)
    with pytest.raises(ValueError, match="unknown atomic family 'klein'"):
        atomic_group("klein", ())
    with pytest.raises(ValueError, match="cyclic expects 1 parameter"):
        atomic_group("cyclic", (2, 3))


# -- class profiles from the factors ------------------------------------------


# Pairs whose product's centralizers of non-central class reps are checked
# too: each records the factors' centralizers C_G(x) and C_H(y).  In the
# last, C_H(y) is itself the centralizer of a recorded product.
CENTRALIZER_PAIRS = {("S_3", "D_8"), ("Q_8", "A_4"), ("S_4", "GL_2(3)"), ("S_4", "S_3xS_3")}


def test_factor_rule_on_products_of_corpus_pairs(corpus):
    for (a, g), (b, h) in itertools.combinations_with_replacement(corpus.items(), 2):
        product = direct_product(g, h)
        assert_factor_rule_matches_enumeration(product, (a, b))
        if (a, b) not in CENTRALIZER_PAIRS:
            continue
        table = product.conjugacy_classes()
        for rep, size in zip(table.reps, table.sizes):
            if size > 1:
                cent = product.centralizer([rep])
                assert cent._record() is not None, (a, b, rep)
                assert_factor_rule_matches_enumeration(cent, (a, b, rep.cycle_string()))


def test_a_product_centralizer_records_a_centralizing_factor_itself(monkeypatch):
    # C((0 1), 1) in S_3 x S_4 is C_S3((0 1)) x S_4.  The S_4 factor is
    # recorded as the factor object itself, not as an interned copy of it,
    # so the product centralizer's class table reads the table already
    # built on S_4 and walks no class of S_4 again.
    s4 = symmetric(4)
    table, elements = s4.conjugacy_classes(), s4._raw_elements()
    cent = direct_product(symmetric(3), s4).centralizer([Permutation.from_cycles("(0 1)", 7)])
    record = cent._record()
    c, factor = record.factors
    assert factor is s4 and isinstance(record, Product) and c.order() == 2
    assert factor._raw_elements() is elements and factor.conjugacy_classes() is table
    built = []
    class_table = PermGroup._class_table

    def counting(self, limit):
        built.append(self.order())
        return class_table(self, limit)

    monkeypatch.setattr(PermGroup, "_class_table", counting)
    assert len(cent.conjugacy_classes()) == 2 * len(table)
    assert sorted(built) == [2, 48]


@pytest.mark.parametrize(
    "text",
    [
        "wr(s(3),c(1))",
        "wr(gl(2,3),c(1))",
        "wr(q8,c(2))",
        "wr(d(4),c(2))",
        "wr(gl(2,3),c(2))",
        "wr(c(2),c(3))",
        "wr(s(3),c(3))",
        "wr(d(4),c(3))",
        "wr(c(2),c(4))",
        "wr(c(3),c(4))",
        "wr(s(3),c(4))",
        "wr(c(2),c(6))",
        "wr(c(3),c(6))",
        "wr(c(1),c(6))",
    ],
)
def test_factor_rule_on_wreaths(text, monkeypatch):
    # The centralizers are checked for every class rep.  Each rep takes one
    # of two routes, seen on a fresh copy of the group.  A base target
    # (top part 1) whose word of H-classes has no rotational symmetry gets
    # the product of the base's centralizers of its block pieces, recorded
    # as a product of n factors.  Every other non-central rep, with top
    # part c**j, j != 0, or a periodic word, reaches _wreath_centralizer's
    # scan, and every cycle count d = gcd(j, n) that such a rep has does.
    # For 1 < d < n (c**2 in wr(s(3),c(4)), say) the scan lists the blocks
    # cycle by cycle and puts them back in block order with one getter.
    assert_factor_rule_matches_enumeration(evaluate(parse(text)), text)
    tops = _record_wreath_centralizers(monkeypatch)
    group = evaluate(parse(text))
    record = group._record()
    (base,), n = record.factors, record.n
    degree = base.degree
    base_reps = [rep.images for rep in base.conjugacy_classes().reps]
    table = group.conjugacy_classes()
    scanned, products = set(), 0
    for rep, size in zip(table.reps, table.sizes):
        if size == 1:
            continue
        x = rep.images
        j = x[0] // degree
        cent = group._centralizer_raw([x])
        if j == 0:
            # the least element of the class: its pieces are H's class reps
            pieces = [tuple(v - b * degree for v in x[b * degree : (b + 1) * degree]) for b in range(n)]
            word = [base_reps.index(h) for h in pieces]
            if all(word[t:] + word[:t] != word for t in range(1, n)):
                record = cent._record()
                assert isinstance(record, Product) and len(record.factors) == n, (text, rep)
                assert record.factors == tuple(base._centralizer_raw([h]) for h in pieces), (text, rep)
                products += 1
                continue
        assert cent._record() is None, (text, rep)
        scanned.add(math.gcd(j, n))
    assert {math.gcd(j, n) for j in tops} == scanned, text
    assert (products, scanned) != (0, set()) or group.is_abelian(), text


def _record_wreath_centralizers(monkeypatch):
    """The top part j of the target of each _wreath_centralizer call from
    now on, for a target sending block 0 to block j."""
    tops = []
    wreath_centralizer = group_module._wreath_centralizer

    def recording(base, n, z, limit):
        tops.append(z[0] // base.degree)
        return wreath_centralizer(base, n, z, limit)

    monkeypatch.setattr(group_module, "_wreath_centralizer", recording)
    return tops


def _wreath_words_by_rotation_sets(rows, base_order, n):
    # The reference formulation: the set of a word's rotations, its min and
    # its length, for every word.
    for j in range(n):
        d = math.gcd(j, n)
        m = n // d
        for word in itertools.product(range(len(rows)), repeat=d):
            rotations = {word[i:] + word[:i] for i in range(d)}
            if word == min(rotations):
                size = len(rotations) * base_order ** (n - d) * math.prod(rows[i][1] for i in word)
                yield j, word, math.lcm(*(m * rows[i][0] for i in word)), size


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=4),
    st.integers(1, 50),
    st.integers(1, 6),
)
def test_wreath_words_match_the_rotation_set_reference(rows, base_order, n):
    got = list(group_module._wreath_words(rows, base_order, n))
    assert got == list(_wreath_words_by_rotation_sets(rows, base_order, n))


def test_a_wreath_centralizer_in_the_base_is_the_product_of_the_blocks(monkeypatch):
    # z = ((1 2), (1 2)) and z' = ((1 2), (0 1)) in S_3 wr C_2 each have
    # the word (transposition, transposition), which the block swap fixes,
    # so the scan runs; but no element of S_3 conjugates (1 2) to itself
    # and to (0 1) at once, so C(z, z') lies in the base.  It is then the
    # product of C((1 2)) and C((1 2), (0 1)) = 1, the object that route
    # gives, not a second subgroup on the same elements.
    tops = _record_wreath_centralizers(monkeypatch)
    group = wreath_cyclic(symmetric(3), 2)
    targets = [Permutation.from_cycles(text, 6).images for text in ("(1 2)(4 5)", "(1 2)(3 4)")]
    cent = group._centralizer_raw(targets)
    assert tops == [0]
    record = cent._record()
    left, right = record.factors
    assert isinstance(record, Product) and (left.order(), right.order()) == (2, 1)
    assert cent is group._intern_table()[(left, right)]
    elements = PermGroup(group.degree, group.generators)._raw_elements()
    assert cent._raw_elements() == tuple(kernels.centralizer_filter(list(elements), targets))


def test_a_wreath_asks_its_base_before_any_commutes_test(monkeypatch):
    # x = (r, 1, 1) in D_8 wr C_3, r a rotation of order 4, has the word
    # (class of r, 1, 1), which no rotation of the blocks fixes: its
    # centralizer is C(r) x D_8 x D_8 from the base, reached before the
    # wreath tests x against its generators, so no commutes call sees a
    # permutation of the wreath's 12 points.  The central z = (c, c, c) of
    # the wreath, c = r**2 central in D_8, has a constant word and central
    # pieces: next to x it changes neither the word's symmetry nor a
    # block's centralizer, so C(x, z) is the same object as C(x).
    base = dihedral(4)
    group = wreath_cyclic(base, 3)
    rotation = base.generators[0]
    r, c = rotation.images, (rotation * rotation).images
    x = r + tuple(range(4, 12))
    z = tuple(v + b * 4 for b in range(3) for v in c)
    calls = []
    commutes = kernels.commutes

    def counting(a, b):
        calls.append(len(a))
        return commutes(a, b)

    monkeypatch.setattr(kernels, "commutes", counting)
    cent = group._centralizer_raw([x])
    assert group.degree not in calls
    record = cent._record()
    assert isinstance(record, Product) and record.factors == (base._centralizer_raw([r]), base, base)
    assert group._centralizer_raw([x, z]) is cent


@settings(deadline=None, max_examples=60)
@given(small_groups(), st.integers(min_value=2, max_value=4), st.data())
def test_wreath_centralizers_match_filtering(h, n, data):
    # A wreath's centralizer of one or two targets, each drawn from the
    # base H**n half the time and from the whole group otherwise, is the
    # set centralizer_filter keeps from the group's elements, whichever
    # route it takes.  It is the product of the base's centralizers of the
    # targets' pieces, block by block, exactly when the targets and the
    # centralizer lie in the base.  The cycle length is cut down until the
    # group has at most 2000 elements.
    while n > 2 and h.order() ** n * n > 2000:
        n -= 1
    group = wreath_cyclic(h, n)
    elements = PermGroup(group.degree, group.generators)._raw_elements()
    in_base = [x for x in elements if x[0] < h.degree]
    targets = [
        data.draw(st.sampled_from(in_base if data.draw(st.booleans()) else elements))
        for _ in range(data.draw(st.integers(min_value=1, max_value=2)))
    ]
    cent = group._centralizer_raw(targets)
    filtered = tuple(kernels.centralizer_filter(list(elements), targets))
    assert cent._raw_elements() == filtered
    record = cent._record()
    routed = isinstance(record, Product)
    assert routed == all(x[0] < h.degree for x in filtered + tuple(targets))
    if routed:
        d = h.degree
        pieces = [[tuple(v - b * d for v in z[b * d : (b + 1) * d]) for z in targets] for b in range(n)]
        assert record.factors == tuple(h._centralizer_raw(block) for block in pieces)


def test_no_wreath_centralizer_has_a_base_of_degree_one(monkeypatch):
    # itemgetter of one index returns the bare item, not a 1-tuple, so the
    # getters of _wreath_centralizer need a base of degree 2 or more.  A
    # base of degree 1 is trivial and its wreath C_n abelian: every target
    # is central, and the group is its own centralizer before the wreath
    # rule is reached.
    def refuse(base, n, z, limit):
        raise AssertionError(f"wreath centralizer over a base of degree {base.degree}")

    monkeypatch.setattr(group_module, "_wreath_centralizer", refuse)
    for base in (cyclic(1), symmetric(1), general_linear(1, 2), PermGroup.trivial(1)):
        for n in range(1, 7):
            group = wreath_cyclic(base, n)
            for x in group._raw_elements():
                assert group._centralizer_raw([x]) is group, n
            assert group.center() is group, n
    # Were one to reach it, it would stop rather than compose wrongly.
    monkeypatch.undo()
    with pytest.raises(AssertionError, match="degree-1 base"):
        group_module._wreath_centralizer(cyclic(1), 2, (1, 0), None)


NESTED_CONSTRUCTIONS = [
    "wr(wr(c(2),c(2)),c(2))",
    "wr(wr(c(3),c(2)),c(2))",
    "wr(prod(c(2),c(3)),c(3))",
    "prod(wr(c(2),c(4)),s(3))",
    "prod(wr(c(2),c(2)),wr(c(3),c(2)))",
    "prod(wr(s(3),c(2)),q8)",
]


@pytest.mark.parametrize("text", NESTED_CONSTRUCTIONS)
def test_factor_rule_on_nested_constructions(text):
    assert_factor_rule_matches_enumeration(evaluate(parse(text)), text)


def _wreath_rank_without_surjections(self, ranks, p, h):
    # A wrong wreath rule: the necklaces over each C_d counted once, as if
    # s(d) = 1 homomorphisms Z_p^h -> C_m had image C_d.
    (base_rank,) = ranks
    total, d = 0, 1
    while self.n % d == 0:
        k = self.n // d
        total += sum(base_rank ** math.gcd(i, k) for i in range(k)) // k
        d *= p
    return total


@pytest.mark.parametrize(
    "record, wrong, text",
    [
        (group_module.Wreath, _wreath_rank_without_surjections, "wr(c(2),c(2))"),
        # the sum of the factors' ranks, not their product
        (group_module.Product, lambda self, ranks, p, h: sum(ranks), "prod(s(3),c(2))"),
    ],
)
def test_factor_rule_oracle_catches_a_wrong_rank_rule(monkeypatch, record, wrong, text):
    # Paranoid explore compares no ranks.  The oracle that
    # test_factor_rule_on_wreaths and test_factor_rule_on_nested_constructions
    # run compares them with the recursion on the unrecorded copy.
    monkeypatch.setattr(record, "rank", wrong)
    with pytest.raises(AssertionError):
        assert_factor_rule_matches_enumeration(evaluate(parse(text)), text)


# Every atom family, with the parameters whose recorded closed-form order is
# checked against the chain and the closure of its generators.
ATOMS = {
    **{f"c({n})": lambda n=n: cyclic(n) for n in range(1, 13)},
    **{f"s({n})": lambda n=n: symmetric(n) for n in range(1, 7)},
    **{f"d({n})": lambda n=n: dihedral(n) for n in range(3, 11)},
    "q8": quaternion8,
    **{f"ab{invs}": lambda invs=invs: abelian(invs) for invs in [(1, 1), (2, 4), (2, 2, 3)]},
    **{
        f"gl({n},{q})": lambda n=n, q=q: general_linear(n, q)
        for n, q in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
    },
    **{f"unitriangular4({q})": lambda q=q: unitriangular4(q) for q in (2, 3)},
}


def test_recorded_order_matches_the_chain(corpus):
    # An atom stores its closed-form order, and a product or wreath its
    # order from its factors, when it is built; a stabilizer chain on its
    # generators is the independent check, and for an atom so is the
    # number of elements its generators close to.
    groups = {
        (a, b): direct_product(g, h)
        for (a, g), (b, h) in itertools.combinations_with_replacement(corpus.items(), 2)
    }
    groups.update(
        ((name, n), wreath_cyclic(g, n)) for name, g in corpus.items() for n in (1, 2, 3, 4)
    )
    groups.update((text, evaluate(parse(text))) for text in NESTED_CONSTRUCTIONS)
    groups.update((text, build()) for text, build in ATOMS.items())
    for label, group in groups.items():
        assert group._chain is None, label
        assert group.order() == _Chain(group.degree, group._raw).order(), label
        assert group._chain is None, label
    for text in ATOMS:
        group = groups[text]
        assert group.order() == len(group.elements()), text
        assert group._chain is None, text


def test_closure_refuses_a_wrong_recorded_order(monkeypatch):
    # _close checks the closure of the generators against the recorded
    # order, so a wrong closed form, or a generating set that does not
    # give the group the formula counts, is caught as soon as the elements
    # are asked for: here every recorded order is one too many.
    record_order = PermGroup._record_order
    monkeypatch.setattr(PermGroup, "_record_order", lambda self, order: record_order(self, order + 1))
    for text, build in ATOMS.items():
        group = build()
        with pytest.raises(ChromarankError, match="closure disagrees with the group order"):
            group._raw_elements()
        assert group._chain is None, text


@settings(deadline=None, max_examples=30)
@given(small_groups(), small_groups(), st.integers(min_value=1, max_value=4))
def test_factor_rule_on_random_groups(g, h, n):
    # The wreath's cycle length is cut down until the group has at most
    # 2000 elements, so that the enumerating copy stays quick.
    while n > 1 and g.order() ** n * n > 2000:
        n -= 1
    assert_factor_rule_matches_enumeration(direct_product(g, h))
    assert_factor_rule_matches_enumeration(wreath_cyclic(g, n))
    if g.order() * h.order() <= 40:
        assert_factor_rule_matches_enumeration(wreath_cyclic(direct_product(g, h), 2))
