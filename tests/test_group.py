import dataclasses
import gc
import hashlib
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chromarank import (
    ChromarankError,
    DegreeMismatch,
    InvalidPermutation,
    NotInGroup,
    ParseError,
    PermGroup,
    Permutation,
    ThresholdExceeded,
    Registry,
    certify,
    commuting_tuple_classes,
    cyclic,
    dihedral,
    direct_product,
    explore,
    group_from_generators,
    hkr_rank,
    kernels,
    p_part,
    p_power_elements,
    quaternion8,
    read_generator_file,
    register_derivation,
    symmetric,
    verify_rank_identity,
    wreath_cyclic,
)
from chromarank import group as group_module
from chromarank.dsl import _select_centralizer, evaluate, parse
from chromarank.group import (
    FINGERPRINT_FIELDS,
    Fingerprint,
    Product,
    _Chain,
    _subgroup_from_elements,
    enumeration_limit,
)

from conftest import (
    CORPUS_BUILDERS,
    CORPUS_ORDERS,
    assert_factor_rule_matches_enumeration,
    o_centralizer,
    o_classes,
    o_close,
    o_compose,
    o_exponent,
    o_inverse,
    o_is_p_power,
    o_order,
    o_parity,
    relabeling,
    small_groups,
)


def test_orders_match_oracle(corpus):
    for name, group in corpus.items():
        assert group.order() == CORPUS_ORDERS[name] == len(o_close(list(group._raw))), name


def test_elements_sorted_and_complete(corpus):
    for group in corpus.values():
        elems = group.elements()
        raws = [e.images for e in elems]
        assert raws == o_close(list(group._raw))
        assert raws == sorted(raws)


def test_membership_by_parity():
    a4 = group_from_generators(
        [Permutation.from_cycles("(0 1 2)", degree=4), Permutation.from_cycles("(1 2 3)", degree=4)]
    )
    s4 = symmetric(4)
    for e in s4.elements():
        assert (e in a4) == (o_parity(e.images) == 0)


def test_group_from_generators_degree():
    gens = [Permutation.from_cycles("(0 1)", degree=3)]
    assert group_from_generators(gens).degree == 3
    with pytest.raises(InvalidPermutation):
        group_from_generators([])
    with pytest.raises(InvalidPermutation, match="not a Permutation"):
        PermGroup(3, [(1, 2, 0)])
    with pytest.raises(DegreeMismatch, match="generator degree 3, group degree 4"):
        PermGroup(4, gens)


def test_repr_names_the_degree_and_the_generator_count():
    assert repr(symmetric(3)) == "PermGroup(degree=3, gens=2)"


def test_contains_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        symmetric(3).contains(Permutation.identity(4))


def test_conjugacy_classes_match_oracle(corpus):
    for name, group in corpus.items():
        elems = [e.images for e in group.elements()]
        expected = o_classes(elems)
        table = group.conjugacy_classes()
        assert len(table) == len(expected), name
        # each rep is the lex-least member of its oracle class, with its size
        by_min = {min(cls): cls for cls in expected}
        assert {rep.images for rep in table.reps} == set(by_min), name
        for rep, size in zip(table.reps, table.sizes):
            assert size == len(by_min[rep.images]), name


def test_class_table_orders_match_oracle(corpus):
    for name, group in corpus.items():
        table = group.conjugacy_classes()
        assert table.orders == tuple(o_order(rep.images) for rep in table.reps), name


def test_one_order_walk_walks_only_that_orders_orbits(corpus, monkeypatch):
    # On a group with no factor record, a class of another element order
    # costs its elements' orders and no orbit walk, so a walk for one order
    # walks one orbit per row it yields, and yields the table's rows.
    walked = []
    conjugacy_orbit = kernels.conjugacy_orbit

    def counting(t, gens, inverses):
        walked.append(t)
        return conjugacy_orbit(t, gens, inverses)

    monkeypatch.setattr(kernels, "conjugacy_orbit", counting)
    for name, group in corpus.items():
        plain = PermGroup(group.degree, group.generators)
        table = plain.conjugacy_classes()
        for k in sorted(set(table.orders)):
            walked.clear()
            rows = list(plain._classes(None, k))
            assert walked == [rep.images for rep, _, _ in rows], (name, k)
            assert rows == [row for row in zip(table.reps, table.sizes, table.orders) if row[2] == k]


@settings(deadline=None, max_examples=40)
@given(small_groups(), small_groups())
def test_one_order_classes_of_recorded_groups_are_the_tables_rows(g, h):
    # A recorded product or wreath reads one order's classes from its
    # factors, building no class table of its own, and yields the table's
    # rows of that order, in rep order; an order no class has yields none.
    for group in [direct_product(g, h), direct_product(direct_product(g, h), g), wreath_cyclic(g, 2)]:
        orders = sorted({o for o, _ in group.class_profile()})
        rows = {k: list(group._classes(None, k)) for k in orders + [orders[-1] + 1]}
        assert "classes" not in group._cache
        table = group.conjugacy_classes()
        for k, got in rows.items():
            assert got == [row for row in zip(table.reps, table.sizes, table.orders) if row[2] == k], k


def test_one_order_classes_of_a_recorded_wreath_come_as_reached(monkeypatch):
    # _wreath_words lists a wreath's classes in rep order, so one order's
    # classes are yielded as they are reached, with no list to sort: the
    # first comes before the walk has yielded every class.
    group = wreath_cyclic(symmetric(3), 3)
    total = len(group.class_profile())
    words = group_module._wreath_words
    yielded = []

    def counting(*args):
        for row in words(*args):
            yielded.append(row)
            yield row

    monkeypatch.setattr(group_module, "_wreath_words", counting)
    first = next(group._classes(None, 2))
    assert len(yielded) < total
    assert first == next(PermGroup(group.degree, group.generators)._classes(None, 2))


def test_class_centralizer_reuses_the_group_for_central_classes(corpus):
    for name, group in corpus.items():
        table = group.conjugacy_classes()
        for rep, size in zip(table.reps, table.sizes):
            cent = group.centralizer([rep])
            if size == 1:
                assert cent is group, name
                # the memo marks the group, but the limit still holds
                with pytest.raises(ThresholdExceeded):
                    group.centralizer([rep], limit=group.order() - 1)
            else:
                assert cent.order() * size == group.order() and cent is not group, name


def test_class_equation(corpus):
    for group in corpus.values():
        table = group.conjugacy_classes()
        assert sum(table.sizes) == group.order()
        for size in table.sizes:
            assert group.order() % size == 0


def test_centralizer_matches_oracle(corpus):
    for name, group in corpus.items():
        elems = group.elements()
        for target in (elems[1], elems[len(elems) // 2]):
            cent = group.centralizer([target])
            expected = o_centralizer([e.images for e in elems], [target.images])
            assert sorted(e.images for e in cent.elements()) == expected, name


def test_equal_centralizers_are_one_group(corpus):
    # x and its inverse have one centralizer, and so do conjugate targets
    # inside it; within one root group each element set is built once.
    # In S_3 wr C_2, z = ((0 1 2), (3 4 5)) and its inverse both take the
    # wreath scan, and the second finds the subgroup the first interned.
    groups = {**corpus, "S_3 wr C_2": wreath_cyclic(symmetric(3), 2)}
    for name, group in groups.items():
        interned = {}
        for rep in group.conjugacy_classes().reps:
            for target in (rep, rep.inverse()):
                cent = group.centralizer([target])
                assert interned.setdefault(cent.elements(), cent) is cent, name
                # target is central in its own centralizer
                assert cent.centralizer([target]) is cent, name
        whole = group.centralizer([Permutation.identity(group.degree)])
        assert whole is group and interned[group.elements()] is group, name


def test_multi_target_wreath_centralizer_is_built_once(monkeypatch):
    # The wreath scan's elements for the first target are filtered by the
    # others before anything is interned, so one subgroup is built: the
    # result, not the first target's centralizer as well.
    calls = []

    def counting(degree, raw_elements):
        calls.append(degree)
        return _subgroup_from_elements(degree, raw_elements)

    monkeypatch.setattr(group_module, "_subgroup_from_elements", counting)
    for text in ("wr(s(3),c(2))", "wr(d(4),c(2))", "wr(s(3),c(3))"):
        group = evaluate(parse(text))
        gens = group.generators
        for name, targets in (("center", gens), ("centralizer", (gens[0], gens[-1]))):
            calls.clear()
            cent = group.center() if name == "center" else group.centralizer(targets)
            assert len(calls) == 1, (text, name)
            want = kernels.centralizer_filter(
                list(group._raw_elements()), [t.images for t in targets]
            )
            assert cent._raw_elements() == tuple(want), (text, name)


def _random_group(rng, max_degree):
    # As test_recursive_rank_matches_walk_on_random_groups draws its groups.
    degree = rng.randint(2, max_degree)
    gens = [
        Permutation(tuple(rng.sample(range(degree), degree))) for _ in range(rng.randint(1, 3))
    ]
    return group_from_generators(gens)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_a_group_is_its_own_centralizer_exactly_for_central_targets(seed):
    # A root on at most 6 points, its relabeled copy, a recorded product, a
    # recorded wreath (of a base on at most 4 points, so at most 1152
    # elements) and an interned subgroup, with 0 to 2 targets, each drawn
    # from the center half the time.  No group interns a copy of itself,
    # not even for a central target next to one that is not.
    rng = random.Random(seed)
    group = _random_group(rng, 6)
    groups = [
        group,
        group.conjugate_by(relabeling(group.degree)),
        direct_product(group, _random_group(rng, 3)),
        wreath_cyclic(_random_group(rng, 4), 2),
    ]
    groups += [c for c in (group.centralizer([x]) for x in group.generators) if c is not group][:1]
    filtered, built = [], []
    centralizer_filter = kernels.centralizer_filter
    subgroup_from_elements = group_module._subgroup_from_elements

    def counting(elements, targets):
        filtered.append(targets)
        return centralizer_filter(elements, targets)

    def building(degree, elements):
        built.append(len(elements))
        return subgroup_from_elements(degree, elements)

    for g in groups:
        elements = g._raw_elements()
        central = o_centralizer(elements, g._raw)
        assert g.is_abelian() == (len(central) == len(elements)), g
        for _ in range(3):
            targets = [
                rng.choice(central if rng.random() < 0.5 else elements)
                for _ in range(rng.randint(0, 2))
            ]
            commuting = all(o_compose(t, s) == o_compose(s, t) for t in targets for s in g._raw)
            filtered.clear()
            built.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "centralizer_filter", counting)
                mp.setattr(group_module, "_subgroup_from_elements", building)
                cent = g.centralizer([Permutation(t) for t in targets])
            assert (cent is g) == commuting, (g, targets)
            # every subgroup built is a proper centralizer: no copy of g
            assert g.order() not in built, (g, targets)
            if commuting:
                assert filtered == [], (g, targets)
            else:
                assert cent._raw_elements() == tuple(o_centralizer(elements, targets)), (g, targets)


def test_interned_centralizer_honours_a_smaller_limit():
    group = symmetric(5)
    x = Permutation.from_cycles("(0 1 2 3 4)", 5)
    cent = group.centralizer([x])
    assert cent.order() == 5
    with pytest.raises(ThresholdExceeded):
        group.centralizer([x], limit=10)
    with pytest.raises(ThresholdExceeded):
        cent.centralizer([x], limit=4)
    assert group.centralizer([x], limit=120) is cent
    assert cent.centralizer([x], limit=5) is cent


def test_interning_outlives_the_root_group():
    # The subgroup holds its root's intern table, so once the root is gone
    # the subgroup still finds itself there as its own centralizer.
    g = symmetric(4)
    x = Permutation.from_cycles("(0 1)", 4)
    c = g.centralizer([x])
    del g
    gc.collect()
    assert c.centralizer([x]) is c


def test_product_centralizers_with_one_factor_key_are_built_once(monkeypatch):
    # (x, h1) and (x, h2) with h1, h2 in the central factor C_4 both have
    # the centralizer C_S3(x) x C_4, keyed by the factors' centralizers: the
    # first target builds it from their generators, assembling no elements,
    # and the second finds it by that key.
    calls = []
    product_elements = group_module._product_elements
    build = group_module._direct_product

    def counting(factors):
        calls.append("elements")
        return product_elements(factors)

    def building(factors):
        calls.append("build")
        return build(factors)

    group = direct_product(symmetric(3), cyclic(4))
    monkeypatch.setattr(group_module, "_product_elements", counting)
    monkeypatch.setattr(group_module, "_direct_product", building)
    x = Permutation.from_cycles("(0 1)", 3).images
    h = cyclic(4).generators[0]
    cents = [
        group.centralizer([Permutation(x + tuple(3 + v for v in k.images))])
        for k in (h, h * h)
    ]
    assert cents[0] is cents[1]
    assert cents[0].order() == 2 * 4
    assert calls == ["build"]


@settings(deadline=None, max_examples=40)
@given(
    small_groups(),
    small_groups(),
    st.sampled_from([2, 3]),
    st.sampled_from(["p-power", "every order", "divisors"]),
    st.data(),
)
def test_p_class_centralizers_are_the_class_tables_rows(g, h, p, kept, data):
    # Per class whose element order keep accepts (p-power, any, or a divisor
    # of one element order of the group), in rep order, the rows give the
    # rep, size and element order of the class walk of the group's
    # unrecorded copy, filtered the same way, and the centralizer that
    # _centralizer_raw gives for the rep (the same object).  A recorded
    # product or wreath reads its factors' rows and builds no class table of
    # its own.  wr(g, c(4)) has classes with 1 < d < 4 block cycles.
    recorded = [direct_product(g, h), direct_product(direct_product(g, h), g), wreath_cyclic(g, 2)]
    if g.order() <= 6:
        recorded.append(wreath_cyclic(g, 4))
    for group in recorded + [g]:
        table = PermGroup(group.degree, group.generators).conjugacy_classes()
        k = data.draw(st.sampled_from(table.orders))
        keep = {
            "p-power": lambda o: o_is_p_power(o, p),
            "every order": lambda o: True,
            "divisors": lambda o: k % o == 0,
        }[kept]
        rows, rep, centralizer = group._class_rows(None, keep)
        rows = list(rows)
        assert ("classes" in group._cache) is (group is g)
        want = [row for row in zip(table.reps, table.sizes, table.orders) if keep(row[2])]
        assert [(Permutation._wrap(rep(key)), size, o) for (o, size), key in rows] == want
        for (o, size), key in rows:
            cent = centralizer(key)
            assert cent is group._centralizer_raw([rep(key)])
            assert (cent is group) == (size == 1)


@settings(deadline=None, max_examples=60)
@given(small_groups(), small_groups(), st.data())
def test_product_centralizers_close_their_elements_only_when_asked(g, h, data):
    # A recorded product's centralizer of 0 to 2 targets, each drawn from
    # the center half the time, is the product itself exactly when every
    # target is central, and otherwise the direct product of the factors'
    # centralizers, built from their generators: no elements are assembled,
    # picked or closed for it until they are asked for, and they are then
    # the ones centralizer_filter keeps.  Equal element sets are one object.
    product = direct_product(g, h)
    centers = [o_centralizer(f._raw_elements(), f._raw) for f in (g, h)]
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    interned = {}
    for _ in range(3):
        pairs = [
            tuple(
                data.draw(st.sampled_from(center if data.draw(st.booleans()) else f._raw_elements()))
                for f, center in zip((g, h), centers)
            )
            for _ in range(data.draw(st.integers(min_value=0, max_value=2)))
        ]
        # The factors' own centralizers, which the product's asks for.
        g._centralizer_raw([x for x, _ in pairs])
        h._centralizer_raw([y for _, y in pairs])
        targets = [x + tuple(g.degree + v for v in y) for x, y in pairs]
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            for owner, name in (
                (group_module, "_product_elements"),
                (group_module, "_subgroup_from_elements"),
                (kernels, "close_group"),
            ):
                mp.setattr(owner, name, counting(name, getattr(owner, name)))
            cent = product._centralizer_raw(targets)
            cent.order()
        assert calls == [], targets
        central = all(o_compose(t, s) == o_compose(s, t) for t in targets for s in product._raw)
        assert (cent is product) == central, targets
        elements = cent._raw_elements()
        assert elements == tuple(kernels.centralizer_filter(list(product._raw_elements()), targets))
        assert interned.setdefault(elements, cent) is cent, targets


def test_repeated_centralizer_skips_the_intern_table(corpus, monkeypatch):
    # The memo holds each centralizer, and marks the group itself when it is
    # its own centralizer, so a repeated target is one lookup.
    intern = PermGroup._intern
    calls = []

    def counting(self, elements):
        calls.append(elements)
        return intern(self, elements)

    for name, group in corpus.items():
        targets = [rep.images for rep in group.conjugacy_classes().reps]
        cents = [group._centralizer_raw([t]) for t in targets]
        for cent, t in zip(cents, targets):
            assert cent._centralizer_raw([t]) is cent, name
        monkeypatch.setattr(PermGroup, "_intern", counting)
        for cent, t in zip(cents, targets):
            assert group._centralizer_raw([t]) is cent, name
            assert cent._centralizer_raw([t]) is cent, name
        assert calls == [], name
        monkeypatch.undo()


def test_dropped_groups_leave_no_reference_cycles():
    # The intern table holds its subgroups only by weak references, so
    # everything goes by reference counting alone.
    # The recorded wreath takes its rank from its factors, so an unrecorded
    # copy keeps the recursion on a large group covered.  The interned
    # centralizer's walk meets the centralizer itself as C(identity).
    def work():
        group = evaluate(parse("wr(s(3),c(2))"))
        hkr_rank(group, 2, 3)
        hkr_rank(PermGroup(group.degree, group.generators), 2, 3)
        cent = group.centralizer([group.generators[-1]])
        hkr_rank(cent, 3, 2)
        commuting_tuple_classes(cent, 2, 1)
        verify_rank_identity(cent, 2, 2, 1)
        commuting_tuple_classes(group, 3, 2)
        for t in (0, 1, 2):
            verify_rank_identity(group, 2, 2, t)
        reg = Registry.with_defaults(3)
        for text in ("c(1)", "c(3)"):
            register_derivation(reg, certify(text, 3, reg), 3)
        explore(reg, 3, 81, depth=6)
        product = evaluate(parse("prod(s(3),d(4))"))
        hkr_rank(product, 2, 2)
        # a product's centralizer records its factors' centralizers, and
        # the walk takes its centralizers from theirs
        commuting_tuple_classes(product.centralizer([product.generators[0]]), 2, 2)
        group.center()
        evaluate(parse(E192))

    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _chain_per_generator_selection(degree, raw_elements):
    """The generator choice of a chain-based scan: keep each sorted element
    its predecessors' chain does not contain, rebuilding the chain each time."""
    identity = tuple(range(degree))
    elems = sorted(raw_elements)
    gens = []
    chain = None
    for t in elems:
        if t == identity or (chain is not None and chain.contains(t)):
            continue
        gens.append(t)
        chain = _Chain(degree, gens)
        if chain.order() == len(elems):
            break
    if not gens:
        gens = [identity]
        chain = _Chain(degree, gens)
    return gens, chain


def _levels(chain):
    return [(lvl.base, lvl.gens, list(lvl.transversal.items())) for lvl in chain.levels]


def test_subgroup_generators_match_chain_per_generator_selection(corpus):
    for name, group in corpus.items():
        table = group.conjugacy_classes()
        cents = [(group.centralizer([rep]), size) for rep, size in zip(table.reps, table.sizes)]
        assert all((sub is group) == (size == 1) for sub, size in cents), name
        subgroups = [sub for sub, size in cents if size > 1]
        subgroups += [group.center(), group.sylow_subgroup(2), group.sylow_subgroup(3)]
        for sub in subgroups:
            if sub is group:  # an abelian group is its own center
                continue
            record = sub._record()
            if record is not None:
                # a product's centralizer, built as the product is
                assert sub._raw == direct_product(*record.factors)._raw and isinstance(record, Product), name
                continue
            gens, chain = _chain_per_generator_selection(group.degree, sub._raw_elements())
            assert list(sub._raw) == gens, name
            assert _levels(sub.chain()) == _levels(chain), name


def test_subgroup_from_elements_rejects_a_non_closed_list():
    # The 4-cycle kept first generates a group of the list's size, but not
    # the list: the two reflections are outside it.
    elems = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 1, 0, 3), (3, 2, 1, 0)]
    with pytest.raises(ChromarankError):
        _subgroup_from_elements(4, elems)
    with pytest.raises(ChromarankError):
        _subgroup_from_elements(4, [(0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 2, 3)])


def test_centralizer_rejects_outsiders():
    for group, outsider, error in (
        (cyclic(3), Permutation.from_cycles("(0 1)", degree=3), NotInGroup),
        (symmetric(4), Permutation.from_cycles("(0 1)", degree=5), DegreeMismatch),
        (cyclic(3), (1, 2, 0), InvalidPermutation),
    ):
        with pytest.raises(error):
            group.centralizer([outsider])


def test_center():
    assert quaternion8().center().order() == 2
    assert dihedral(4).center().order() == 2
    assert symmetric(4).center().order() == 1
    assert cyclic(6).center().order() == 6


def test_center_is_the_interned_centralizer_of_the_generators(corpus):
    for name, group in corpus.items():
        table = group.conjugacy_classes()
        center = group.center()
        assert center is group.centralizer(group.generators), name
        assert [e.images for e in center.elements()] == sorted(
            rep.images for rep, size in zip(table.reps, table.sizes) if size == 1
        ), name


def test_exponent(corpus):
    for name, group in corpus.items():
        assert group.exponent() == o_exponent([e.images for e in group.elements()]), name


def test_sylow_subgroups(corpus):
    for name, group in corpus.items():
        for p in (2, 3):
            syl = group.sylow_subgroup(p)
            assert syl.order() == p_part(group.order(), p), (name, p)
            for e in syl.elements():
                assert o_is_p_power(e.order(), p)
                assert e in group


# sha256 over sylow_subgroup(p) at p in {2, 3} on the corpus and three of
# the paper's groups (E4608, E96, E192, defined below): the generators,
# order and sorted elements of each.
SYLOW_DIGEST = "951a20f6b29bfc880409459388fac67e45ebb938b88d3c13139f58c850b9a0b6"


def test_sylow_subgroups_match_golden_digest():
    digest = hashlib.sha256()
    memo = {}
    groups = {name: build() for name, build in CORPUS_BUILDERS.items()}
    groups.update((expr, evaluate(parse(expr), memo=memo)) for expr in (E4608, E96, E192))
    for name, group in groups.items():
        for p in (2, 3):
            syl = group.sylow_subgroup(p)
            digest.update(repr((name, p, syl._raw, syl.order(), syl._raw_elements())).encode())
    assert digest.hexdigest() == SYLOW_DIGEST


def reference_sylow(group, p):
    # The whole-group normalizer scan: at each step, the least p-element
    # outside the span whose conjugates of the span's generators all land
    # in the span, tested on every element of the group.
    identity = tuple(range(group.degree))
    target = p_part(group.order(), p)
    gens = []
    span = {identity}
    while len(span) < target:
        ext = next(
            t
            for t in group._raw_elements()
            if t not in span
            and all(kernels.conjugate(s, t) in span for s in gens)
            and o_is_p_power(kernels.element_order(t), p)
        )
        gens.append(ext)
        span = set(o_close(gens))
    return _subgroup_from_elements(group.degree, span)


SYLOW_REFERENCE_CASES = [
    ("wr(gl(2,3),c(2))", 2),
    ("wr(gl(2,3),c(2))", 3),
    ("prod(gl(2,3),s(4))", 2),
    ("prod(gl(2,3),s(4))", 3),
    ("wr(s(4),c(2))", 2),
    ("wr(s(4),c(2))", 3),
    ("E96", 2),
    ("E192", 2),
]


@pytest.mark.parametrize("expr, p", SYLOW_REFERENCE_CASES)
def test_sylow_growth_matches_the_whole_group_scan(expr, p):
    # Chunked normalizer tests find the step the whole-group scan finds.
    group = evaluate(parse({"E96": E96, "E192": E192}.get(expr, expr)))
    want = reference_sylow(group, p)
    got = group.sylow_subgroup(p)
    assert got._raw == want._raw
    assert got._raw_elements() == want._raw_elements()
    assert got.order() == p_part(group.order(), p)


def test_sylow_growth_tests_fewer_elements_than_the_group(monkeypatch):
    # Testing every element outside the span for the normalizer passes
    # 40,961 elements over the 9 steps of a Sylow 2-subgroup of the order-4608
    # group; testing chunks of the span's size, fewer than |G| in all.
    passed = []
    normalizer_filter = kernels.normalizer_filter

    def counting(elements, sub_gens, sub_elements):
        passed.append(len(elements))
        return normalizer_filter(elements, sub_gens, sub_elements)

    group = evaluate(parse(E4608))
    group._raw_elements()
    monkeypatch.setattr(kernels, "normalizer_filter", counting)
    assert group.sylow_subgroup(2).order() == 512
    assert 0 < sum(passed) < group.order() == 4608


def test_sylow_guards_catch_a_wrong_normalizer_filter(monkeypatch):
    # A filter that keeps nothing leaves no element to extend the span by,
    # and one that keeps every element lets in one that does not normalize
    # it, so the span grows past the p-part.
    monkeypatch.setattr(kernels, "normalizer_filter", lambda chunk, gens, span: [])
    with pytest.raises(ChromarankError, match="normalizer holds no p-element outside the subgroup"):
        symmetric(4).sylow_subgroup(2)
    monkeypatch.setattr(kernels, "normalizer_filter", lambda chunk, gens, span: chunk)
    with pytest.raises(ChromarankError, match="grew past the p-part"):
        symmetric(4).sylow_subgroup(2)


def test_sylow_rejects_composite():
    with pytest.raises(ValueError):
        symmetric(4).sylow_subgroup(4)


def test_derived_subgroup():
    assert symmetric(4).derived_subgroup().order() == 12
    assert symmetric(3).derived_subgroup().order() == 3
    assert quaternion8().derived_subgroup().order() == 2
    assert cyclic(12).derived_subgroup().order() == 1
    # commutators all land in the derived subgroup
    g = symmetric(4)
    der = g.derived_subgroup()
    elems = g.elements()
    for a in elems[:6]:
        for b in elems[:6]:
            assert a.inverse() * b.inverse() * a * b in der


def _count_chain_builds(monkeypatch) -> list:
    """The degrees of the stabilizer chains built from now on, in order."""
    builds = []
    chain_init = _Chain.__init__

    def counting(self, degree, raw_gens):
        builds.append(degree)
        chain_init(self, degree, raw_gens)

    monkeypatch.setattr(_Chain, "__init__", counting)
    return builds


def test_derived_and_sylow_build_no_chain(monkeypatch):
    # Derived and Sylow subgroups grow as Dimino spans inside the group, so
    # once the group's own chain exists no further chain is built.
    groups = [build() for build in CORPUS_BUILDERS.values()]
    for group in groups:
        group.chain()
    builds = _count_chain_builds(monkeypatch)
    for group in groups:
        group.derived_subgroup()
        for p in (2, 3):
            group.sylow_subgroup(p)
    assert builds == []


def test_derived_subgroup_past_the_limit_caches_nothing(corpus):
    for name, group in corpus.items():
        order = group.fingerprint().derived_order
        if order == 1:
            continue
        fresh = CORPUS_BUILDERS[name]()
        with pytest.raises(ThresholdExceeded):
            fresh.derived_subgroup(limit=order - 1)
        assert "derived" not in fresh._cache, name
        assert fresh.derived_subgroup(limit=order).order() == order, name


E4608 = "wr(gl(2,3),c(2))"
E96 = f"cent({E4608},order=4,czorder=96)"
E18432 = f"wr({E96},c(2))"
E192 = f"cent({E18432},order=8,czorder=192)"

# The fingerprints of the four groups of the paper's worked example.
PAPER_FINGERPRINTS = {
    E4608: {
        "order": 4608,
        "exponent": 48,
        "element_order_histogram": [
            [1, 1], [2, 243], [3, 80], [4, 828], [6, 1008], [8, 912], [12, 576], [16, 576],
            [24, 384],
        ],
        "class_size_histogram": [
            [1, 2], [2, 1], [12, 6], [16, 4], [24, 2], [36, 3], [48, 2], [64, 2], [72, 3],
            [96, 6], [128, 1], [144, 4], [192, 2], [288, 3], [384, 2], [576, 1],
        ],
        "center_order": 2,
        "derived_order": 1152,
        "abelian": False,
    },
    E96: {
        "order": 96,
        "exponent": 24,
        "element_order_histogram": [
            [1, 1], [2, 19], [3, 8], [4, 20], [6, 8], [8, 24], [12, 16],
        ],
        "class_size_histogram": [[1, 4], [6, 6], [8, 4], [12, 2]],
        "center_order": 4,
        "derived_order": 24,
        "abelian": False,
    },
    E18432: {
        "order": 18432,
        "exponent": 48,
        "element_order_histogram": [
            [1, 1], [2, 495], [3, 80], [4, 3024], [6, 1584], [8, 4416], [12, 3456],
            [16, 2304], [24, 3072],
        ],
        "class_size_histogram": [
            [1, 4], [2, 6], [12, 24], [16, 16], [24, 8], [36, 6], [64, 4], [72, 15],
            [96, 28], [128, 6], [144, 14], [192, 8], [288, 1], [576, 6], [768, 4],
            [1152, 2],
        ],
        "center_order": 4,
        "derived_order": 2304,
        "abelian": False,
    },
    E192: {
        "order": 192,
        "exponent": 24,
        "element_order_histogram": [
            [1, 1], [2, 19], [3, 8], [4, 44], [6, 8], [8, 64], [12, 16], [24, 32],
        ],
        "class_size_histogram": [[1, 8], [6, 12], [8, 8], [12, 4]],
        "center_order": 8,
        "derived_order": 24,
        "abelian": False,
    },
}


def test_derived_subgroup_is_closed_once(monkeypatch):
    # The normal closure already knows the derived subgroup's order, so the
    # result is built from the elements it kept, with no second closure.
    memo = {}
    paper = {expr: evaluate(parse(expr), memo=memo) for expr in PAPER_FINGERPRINTS}
    corpus = {name: build() for name, build in CORPUS_BUILDERS.items()}
    calls = []

    def counting(degree, raw_elements):
        calls.append(degree)
        return _subgroup_from_elements(degree, raw_elements)

    monkeypatch.setattr("chromarank.group._subgroup_from_elements", counting)
    for expr, group in paper.items():
        assert group.fingerprint().to_record() == PAPER_FINGERPRINTS[expr], expr
    for name, group in {**corpus, **paper}.items():
        derived = group.derived_subgroup()
        assert derived.order() == len(o_close(list(derived._raw))), name
    assert calls == []


def test_paper_tower_is_fingerprinted_from_its_factors(monkeypatch):
    # The order-18432 tower takes its profile and derived order from E96:
    # no class table, closure or derived subgroup of its own is built.  E96
    # is selected from the classes of order 4 of the 4608 group, read from
    # GL_2(F_3)'s class table, and is its centralizer built from GL_2(F_3)'s
    # elements, so that group builds no class table or closure either.
    calls = Counter()
    for name in ("_class_table", "_close", "_derived_subgroup"):

        def counting(self, *args, _name=name, _original=getattr(PermGroup, name)):
            calls[_name, self.order()] += 1
            return _original(self, *args)

        monkeypatch.setattr(PermGroup, name, counting)
    tower = evaluate(parse(E18432))
    assert tower.fingerprint().to_record() == PAPER_FINGERPRINTS[E18432]
    assert tower.exponent() == 48
    assert [key for key in calls if key[1] == 18432] == []
    assert calls["_class_table", 4608] == 0 and calls["_close", 4608] == 0
    monkeypatch.undo()
    assert_factor_rule_matches_enumeration(evaluate(parse(E18432)), E18432)


def test_paper_tower_is_enumerated_from_its_factors(monkeypatch):
    # The 4608 group and the 18432 tower over E96 take their class rows and
    # centralizers from their factors, so selecting E192 closes neither;
    # the selected classes are those of test_paper_selections.
    closed = []
    close_group = kernels.close_group

    def recording(gens, limit):
        closed.append(limit)
        return close_group(gens, limit)

    monkeypatch.setattr(kernels, "close_group", recording)
    memo = {}
    assert evaluate(parse(E192), memo=memo).order() == 192
    assert 4608 not in closed and 18432 not in closed
    rep = _select_centralizer(memo[E4608], 4, 96, None)
    assert rep.cycle_string() == "(0 8 1 9)(2 10 5 13)(3 11 7 15)(4 12 6 14)"
    assert memo[E4608].centralizer([rep]) is memo[E96] and memo[E96].order() == 96
    rep = _select_centralizer(memo[E18432], 8, 192, None)
    assert rep.cycle_string() == (
        "(0 16 8 24 1 17 9 25)(2 18 10 26 5 21 13 29)(3 19 11 27 7 23 15 31)"
        "(4 20 12 28 6 22 14 30)"
    )
    assert memo[E18432].centralizer([rep]) is memo[E192]


def test_paper_example_builds_no_chain(monkeypatch):
    # Every group of the paper's example records its order when it is
    # built: GL_2(F_3) and C_2 their closed forms, the wreaths their
    # factors', and the centralizers and the Sylow subgroup the size of the
    # element set they are built from.  So nothing asks for a chain.
    builds = _count_chain_builds(monkeypatch)
    group = evaluate(parse(E192))
    assert group.order() == 192
    assert len(group.conjugacy_classes()) == 32
    assert group.sylow_subgroup(2).order() == 64
    assert builds == []


def test_only_membership_builds_a_chain(monkeypatch):
    # A relabeled copy keeps the recorded order of every group of the
    # corpus but A_4, which is built from bare generators and records none,
    # so reading the copies' orders and elements builds A_4's chain alone.
    # A membership test builds one chain and keeps it.
    corpus = {name: build() for name, build in CORPUS_BUILDERS.items()}
    copies = {name: group.conjugate_by(relabeling(group.degree)) for name, group in corpus.items()}
    builds = _count_chain_builds(monkeypatch)
    for name, copy in copies.items():
        assert copy.order() == len(copy.elements()) == CORPUS_ORDERS[name], name
    assert builds == [copies["A_4"].degree]
    builds.clear()
    group = symmetric(4)
    assert Permutation.from_cycles("(0 1 2 3)", 4) in group
    assert Permutation.from_cycles("(0 1)", 4) in group
    assert builds == [4]


def test_membership_reads_closed_elements(monkeypatch):
    # Once a group's elements are closed, membership is a search of them,
    # so centralizer() checks its targets with no stabilizer chain, and an
    # element outside the group (or of the wrong degree) is still refused.
    group = wreath_cyclic(symmetric(3), 2)
    elements = group._raw_elements()
    builds = _count_chain_builds(monkeypatch)
    cent = group.centralizer([Permutation.from_cycles("(0 1 2)(3 4 5)", 6)])
    assert cent.order() == 18 and builds == [] and group._chain is None
    assert all(Permutation._wrap(x) in group for x in elements[::7])
    with pytest.raises(NotInGroup):
        group.centralizer([Permutation.from_cycles("(0 3)", 6)])
    with pytest.raises(DegreeMismatch):
        group.centralizer([Permutation.from_cycles("(0 1 2)", 7)])
    assert builds == []
    # Without closed elements, membership sifts through a chain, as before.
    fresh = wreath_cyclic(symmetric(3), 2)
    with pytest.raises(NotInGroup):
        fresh.centralizer([Permutation.from_cycles("(0 3)", 6)])
    assert builds == [6]


def test_enumeration_checks_the_recorded_order(monkeypatch):
    # A product or wreath closes its generators like any group, and the
    # closure's length is checked against the order its record gives, so a
    # wrong recorded order is caught as soon as its elements are asked for.
    record_factors = PermGroup._record_factors

    def doubled(self, record):
        record_factors(self, record)
        self._cache["order"] *= 2
        return self

    monkeypatch.setattr(PermGroup, "_record_factors", doubled)
    for text in ("wr(c(2),c(3))", "prod(s(3),c(2))"):
        group = evaluate(parse(text))
        with pytest.raises(ChromarankError, match="closure disagrees"):
            group._raw_elements()


def test_factor_rule_holds_the_limit():
    # One element short of the group's order is past the limit, whether or
    # not a result taken from the factors is cached.
    queries = (
        lambda g, limit: g.class_profile(limit=limit),
        lambda g, limit: hkr_rank(g, 2, 2, limit=limit),
        lambda g, limit: g.fingerprint(limit=limit),
        lambda g, limit: g.exponent(limit=limit),
        lambda g, limit: g._raw_elements(limit=limit),
        lambda g, limit: p_power_elements(g, 2, limit=limit),
        lambda g, limit: g.conjugacy_classes(limit=limit),
        lambda g, limit: list(g._classes(limit, 2)),
        lambda g, limit: g._centralizer_raw([g._raw[0]], limit=limit),
        lambda g, limit: g.center(limit=limit),
    )
    for text in ("prod(q8,s(3))", "wr(s(3),c(2))"):
        order = evaluate(parse(text)).order()
        for query in queries:
            with pytest.raises(ThresholdExceeded):
                query(evaluate(parse(text)), order - 1)
            warm = evaluate(parse(text))
            warm.class_profile()
            with pytest.raises(ThresholdExceeded):
                query(warm, order - 1)
            query(warm, order)
            with pytest.raises(ThresholdExceeded):
                query(warm, order - 1)


def test_fingerprint_distinguishes_q8_from_d8():
    fq = quaternion8().fingerprint()
    fd = dihedral(4).fingerprint()
    assert fq.order == fd.order == 8
    assert fq.element_order_histogram == ((1, 1), (2, 1), (4, 6))
    assert fd.element_order_histogram == ((1, 1), (2, 5), (4, 2))
    assert fq != fd


def test_fingerprint_matches_oracles(corpus):
    for name, group in corpus.items():
        elems = o_close(list(group._raw))
        center = o_centralizer(elems, elems)
        commutators = {
            o_compose(o_compose(o_inverse(a), o_inverse(b)), o_compose(a, b))
            for a in elems
            for b in elems
        }
        fp = group.fingerprint()
        assert fp.order == len(elems), name
        assert fp.exponent == o_exponent(elems), name
        assert fp.element_order_histogram == tuple(sorted(Counter(map(o_order, elems)).items())), name
        assert fp.class_size_histogram == tuple(
            sorted(Counter(len(c) for c in o_classes(elems)).items())
        ), name
        assert fp.center_order == len(center), name
        assert fp.derived_order == len(o_close(sorted(commutators))), name
        assert fp.abelian == (len(center) == len(elems)), name
        assert sorted(e.images for e in group.center().elements()) == center, name


# Factors of the products whose fingerprints are convolved from theirs.
PRODUCT_FACTORS = st.one_of(
    st.integers(min_value=1, max_value=6).map("c({})".format),
    st.sampled_from(["s(3)", "d(4)", "q8", "ab(2,4)"]),
)


@settings(deadline=None, max_examples=40)
@given(st.lists(PRODUCT_FACTORS, min_size=2, max_size=3), st.booleans())
def test_product_fingerprints_match_their_class_walks(texts, nest_left):
    # A recorded product's fingerprint convolves its factors'; a copy with
    # no record folds the profile of its own class walk.  A relabeled copy
    # keeps the record, so it takes the factors' path too.
    text = texts[0] if nest_left else texts[-1]
    for factor in texts[1:] if nest_left else texts[-2::-1]:
        text = f"prod({text},{factor})" if nest_left else f"prod({factor},{text})"
    group = evaluate(parse(text))
    for g in (group, group.conjugate_by(relabeling(group.degree))):
        assert isinstance(g._record(), Product), text
        assert g.fingerprint() == PermGroup(g.degree, g.generators).fingerprint(), text


def test_corpus_product_fingerprints_match_their_class_walks(corpus):
    # Every recorded product of the corpus, its relabeled copy and its
    # centralizers, which record the factors' centralizers.
    records = {name: g._record() for name, g in corpus.items()}
    products = [corpus[name] for name, record in records.items() if isinstance(record, Product)]
    assert products
    for group in products:
        table = group.conjugacy_classes()
        groups = [group, group.conjugate_by(relabeling(group.degree))] + [
            group.centralizer([rep]) for rep in table.reps
        ]
        for g in groups:
            assert isinstance(g._record(), Product)
            assert g.fingerprint() == PermGroup(g.degree, g.generators).fingerprint()


def test_product_fingerprint_builds_no_class_profile():
    # Reading a recorded product's fingerprint builds neither its class
    # profile nor its class table, nor those of a product among its
    # factors, nor those of a relabeled copy.
    group = evaluate(parse("prod(s(3),prod(c(3),d(4)))"))
    inner = group._record().factors[1]
    copy = group.conjugate_by(relabeling(group.degree))
    assert copy.fingerprint() == group.fingerprint()
    for g in (group, inner, copy):
        assert "profile" not in g._cache and "classes" not in g._cache
    assert group.fingerprint() == PermGroup(group.degree, group.generators).fingerprint()


def test_fingerprint_record_roundtrip():
    fp = symmetric(4).fingerprint()
    assert Fingerprint.from_record(fp.to_record()) == fp
    with pytest.raises(ParseError):
        Fingerprint.from_record({**fp.to_record(), "bogus": 1})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("order", 0, "fingerprint of order 0"),
        ("element_order_histogram", ((1, 1), (2, 90), (3, 8), (4, 6)), "counts 105 element orders"),
        ("element_order_histogram", ((1, 1), (2, 9), (3, 8), (5, 6)), "lists element order 5 6 times"),
        ("element_order_histogram", ((1, 1), (2, 9), (3, 14), (4, 0)), "lists element order 4 0 times"),
        ("class_size_histogram", ((1, 1), (3, 1), (6, 2), (8, 2)), "has classes of 32 elements"),
        ("class_size_histogram", ((1, 1), (5, 3), (8, 1)), "lists class size 5 3 times"),
        ("class_size_histogram", ((1, 1), (1, 23)), "class sizes [1, 1] are not strictly increasing"),
        ("element_order_histogram", ((1, 1), (3, 8), (2, 9), (4, 6)), "element orders [1, 3, 2, 4] are not"),
        ("center_order", 7, "center order 7 with 1 classes of size 1"),
        ("derived_order", 5, "derived order 5 does not divide order 24"),
        ("abelian", True, "abelian True with center order 1 and order 24"),
        ("exponent", 6, "exponent 6, not the lcm 12 of its element orders"),
    ],
)
def test_fingerprint_refuses_fields_that_contradict_each_other(field, value, message):
    fp = symmetric(4).fingerprint()
    with pytest.raises(ChromarankError, match=re.escape(message)):
        dataclasses.replace(fp, **{field: value})


def test_fingerprint_table_lists_the_dataclass_fields_in_order():
    assert list(FINGERPRINT_FIELDS) == [f.name for f in dataclasses.fields(Fingerprint)]


def test_fingerprint_record_names_its_unknown_and_missing_fields():
    rec = symmetric(4).fingerprint().to_record()
    del rec["derived_order"]
    with pytest.raises(ParseError) as exc:
        Fingerprint.from_record({**rec, "bogus": 1})
    assert str(exc.value) == (
        "fingerprint with unknown fields ['bogus'] and missing fields ['derived_order']"
    )


def test_threshold_exceeded():
    with pytest.raises(ThresholdExceeded):
        symmetric(6).elements(limit=100)
    # order() itself needs no enumeration
    assert symmetric(12).order() == math.factorial(12)


def test_is_abelian_is_cached(corpus, monkeypatch):
    calls = []
    commutes = kernels.commutes

    def counting(a, b):
        calls.append((a, b))
        return commutes(a, b)

    monkeypatch.setattr(kernels, "commutes", counting)
    for name, want in (("C_2xC_4", True), ("S_4", False)):
        group = PermGroup(corpus[name].degree, corpus[name].generators)
        assert group.is_abelian() is want
        first = len(calls)
        assert first > 0
        assert group.is_abelian() is want
        assert len(calls) == first, name
        calls.clear()


def test_limit_holds_on_cached_results():
    queries = (
        lambda g, limit: g.elements(limit=limit),
        lambda g, limit: g.conjugacy_classes(limit=limit),
        lambda g, limit: g.fingerprint(limit=limit),
        lambda g, limit: g.derived_subgroup(limit=limit),
        lambda g, limit: p_power_elements(g, 2, limit=limit),
        lambda g, limit: hkr_rank(g, 2, 1, limit=limit),
        lambda g, limit: hkr_rank(g, 2, 2, limit=limit),
        lambda g, limit: hkr_rank(g, 2, 3, limit=limit),
        lambda g, limit: g.class_profile(limit=limit),
        lambda g, limit: g.exponent(limit=limit),
        lambda g, limit: g.center(limit=limit),
        lambda g, limit: g.centralizer([Permutation.from_cycles("(0 1)", 5)], limit=limit),
        lambda g, limit: g.sylow_subgroup(2, limit=limit),
        lambda g, limit: commuting_tuple_classes(g, 2, 2, limit=limit),
        lambda g, limit: verify_rank_identity(g, 2, 2, 1, limit=limit),
    )
    for query in queries:
        with pytest.raises(ThresholdExceeded):
            query(symmetric(5), 10)
        warm = symmetric(5)
        query(warm, None)
        with pytest.raises(ThresholdExceeded):
            query(warm, 10)


def test_only_group_py_touches_a_groups_cache():
    # Other modules reach a group's stored results through its methods
    # (_cached, _record), never through the dict behind them, and no module
    # reads a record as a (factors, n) tuple (factor_record).
    touching = re.compile(r"\._cache\b|factor_record")
    sources = Path(group_module.__file__).parent.glob("*.py")
    assert sorted(path.name for path in sources if touching.search(path.read_text())) == ["group.py"]


def test_enumeration_limit_resolution(monkeypatch):
    assert enumeration_limit(500) == 500
    monkeypatch.setenv("CHROMARANK_MAX_ORDER", "1234")
    assert enumeration_limit(None) == 1234
    monkeypatch.delenv("CHROMARANK_MAX_ORDER")
    assert enumeration_limit(None) == 2**21
    with pytest.raises(ValueError):
        enumeration_limit(0)
    monkeypatch.setenv("CHROMARANK_MAX_ORDER", "junk")
    with pytest.raises(ChromarankError):
        enumeration_limit(None)
    for raw in ("0", "-3"):
        monkeypatch.setenv("CHROMARANK_MAX_ORDER", raw)
        with pytest.raises(ChromarankError, match="must be positive"):
            enumeration_limit(None)


def test_conjugate_by_relabels():
    g = symmetric(3)
    s = Permutation.from_cycles("(0 2)", degree=3)
    h = g.conjugate_by(s)
    assert h.order() == 6
    assert sorted(e.images for e in h.elements()) == sorted(e.images for e in g.elements())
    with pytest.raises(DegreeMismatch, match="degree 4 vs group degree 3"):
        g.conjugate_by(Permutation.identity(4))


@pytest.mark.parametrize("text", ["prod(q8,s(3))", "wr(s(3),c(2))", "wr(c(2),c(4))"])
def test_relabeled_copy_keeps_only_relabeling_invariant_facts(text):
    # The copy keeps the order and the factor record, so its rank and class
    # profile come from the factors, and a rank past the limit still
    # raises.  Its elements, class table and centralizers come from its own
    # generators, as those of an unrecorded group on them do.
    group = evaluate(parse(text))
    s = relabeling(group.degree)
    copy = group.conjugate_by(s)
    assert copy._record() is group._record() is not None
    with pytest.raises(ThresholdExceeded):
        hkr_rank(copy, 2, 2, limit=group.order() - 1)
    assert hkr_rank(copy, 2, 2) == hkr_rank(group, 2, 2)
    assert copy.class_profile() == group.class_profile()
    plain = PermGroup(copy.degree, copy.generators)
    conjugated = sorted(kernels.conjugate(t, s.images) for t in group._raw_elements())
    assert list(copy._raw_elements()) == list(plain._raw_elements()) == conjugated
    assert all(p_power_elements(copy, p) == p_power_elements(plain, p) for p in (2, 3))
    assert copy.conjugacy_classes() == plain.conjugacy_classes()
    x = copy.conjugacy_classes().reps[-1].images
    assert copy._centralizer_raw([x])._raw_elements() == tuple(
        kernels.centralizer_filter(list(plain._raw_elements()), [x])
    )


def test_trivial_group():
    t = PermGroup.trivial(4)
    assert t.order() == 1
    assert t.elements() == (Permutation.identity(4),)
    assert t.conjugacy_classes().sizes == (1,)


def test_empty_generators_rejected():
    with pytest.raises(ChromarankError):
        PermGroup(3, [])


def test_generator_file_roundtrip(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# a comment\ndegree 4\n(0 1 2 3)\n(0 1)\n")
    g = read_generator_file(str(path))
    assert g.order() == 24
    bad = tmp_path / "bad.txt"
    for text, message in (
        ("degree 4\n(0 1\n", "line 2"),
        ("degree 0\n()\n", "degree must be at least 1"),
        ("(0 1)\n", "expected 'degree <d>' header"),
        ("# only a comment\n", "no degree header"),
        ("degree 3\n", "no generators"),
        ("degree 3\n(0 3)\n", "point 3 exceeds degree 3"),
    ):
        bad.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_generator_file(str(bad))
        assert message in str(exc.value), text


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_generator_sets_close_consistently(seed):
    import random as _random

    rng = _random.Random(seed)
    degree = rng.randint(2, 6)
    gens = [
        Permutation(tuple(rng.sample(range(degree), degree))) for _ in range(rng.randint(1, 3))
    ]
    group = group_from_generators(gens)
    elems = o_close([g.images for g in gens])
    assert group.order() == len(elems)
    assert [e.images for e in group.elements()] == elems
    # membership agrees with the closure
    assert all(Permutation(e) in group for e in elems)
