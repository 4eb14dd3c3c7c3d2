import gc
import math
from collections import Counter

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
)
from chromarank.dsl import _select_centralizer, evaluate, parse
from chromarank.group import Fingerprint, _Chain, _subgroup_from_elements, enumeration_limit

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


def test_class_centralizer_reuses_the_group_for_central_classes(corpus):
    for name, group in corpus.items():
        table = group.conjugacy_classes()
        for rep, size in zip(table.reps, table.sizes):
            cent = group._class_centralizer(rep, size)
            if size == 1:
                assert cent is group, name
                # the cached table is not consulted, but the limit still holds
                with pytest.raises(ThresholdExceeded):
                    group._class_centralizer(rep, size, limit=group.order() - 1)
            else:
                assert cent is group.centralizer([rep]) and cent is not group, name


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
    for name, group in corpus.items():
        interned = {}
        for rep in group.conjugacy_classes().reps:
            for target in (rep, rep.inverse()):
                cent = group.centralizer([target])
                assert interned.setdefault(cent.elements(), cent) is cent, name
                # target is central in its own centralizer
                assert cent.centralizer([target]) is cent, name
        whole = group.centralizer([Permutation.identity(group.degree)])
        assert whole is not group and whole.order() == group.order()
        assert interned[group.elements()] is whole, name


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
    # The intern table is reached from its subgroups only by a weak
    # reference, so everything goes by reference counting alone.
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
        hkr_rank(evaluate(parse("prod(s(3),d(4))")), 2, 2)
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
        subgroups = [group.centralizer([rep]) for rep in table.reps]
        subgroups += [group.center(), group.sylow_subgroup(2), group.sylow_subgroup(3)]
        for sub in subgroups:
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


def test_derived_and_sylow_build_no_chain(monkeypatch):
    # Derived and Sylow subgroups grow as Dimino spans inside the group, so
    # once the group's own chain exists no further chain is built.
    groups = [build() for build in CORPUS_BUILDERS.values()]
    for group in groups:
        group.chain()
    builds = []
    chain_init = _Chain.__init__

    def counting(self, degree, raw_gens):
        builds.append(degree)
        chain_init(self, degree, raw_gens)

    monkeypatch.setattr(_Chain, "__init__", counting)
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
    rep, size = _select_centralizer(memo[E4608], 4, 96, None)
    assert (rep.cycle_string(), size) == ("(0 8 1 9)(2 10 5 13)(3 11 7 15)(4 12 6 14)", 48)
    rep, size = _select_centralizer(memo[E18432], 8, 192, None)
    assert (rep.cycle_string(), size) == (
        "(0 16 8 24 1 17 9 25)(2 18 10 26 5 21 13 29)(3 19 11 27 7 23 15 31)"
        "(4 20 12 28 6 22 14 30)",
        96,
    )


def test_enumeration_checks_the_recorded_order(monkeypatch):
    # A product or wreath closes its generators like any group, and the
    # closure's length is checked against the order its record gives, so a
    # wrong recorded order is caught as soon as its elements are asked for.
    record_factors = PermGroup._record_factors

    def doubled(self, factors, n=None):
        record_factors(self, factors, n)
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
        lambda g, limit: g._element_orders(limit=limit),
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


def test_fingerprint_record_roundtrip():
    fp = symmetric(4).fingerprint()
    assert Fingerprint.from_record(fp.to_record()) == fp
    with pytest.raises(ParseError):
        Fingerprint.from_record({**fp.to_record(), "bogus": 1})


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
    )
    for query in queries:
        with pytest.raises(ThresholdExceeded):
            query(symmetric(5), 10)
        warm = symmetric(5)
        query(warm, None)
        with pytest.raises(ThresholdExceeded):
            query(warm, 10)


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


def test_conjugate_by_relabels():
    g = symmetric(3)
    s = Permutation.from_cycles("(0 2)", degree=3)
    h = g.conjugate_by(s)
    assert h.order() == 6
    assert sorted(e.images for e in h.elements()) == sorted(e.images for e in g.elements())


@pytest.mark.parametrize("text", ["prod(q8,s(3))", "wr(s(3),c(2))", "wr(c(2),c(4))"])
def test_relabeled_copy_keeps_only_relabeling_invariant_facts(text):
    # The copy keeps the order and the factor record, so its rank and class
    # profile come from the factors, and a rank past the limit still
    # raises.  Its elements, class table and centralizers come from its own
    # generators, as those of an unrecorded group on them do.
    group = evaluate(parse(text))
    s = relabeling(group.degree)
    copy = group.conjugate_by(s)
    assert copy.factor_record() == group.factor_record() is not None
    with pytest.raises(ThresholdExceeded):
        hkr_rank(copy, 2, 2, limit=group.order() - 1)
    assert hkr_rank(copy, 2, 2) == hkr_rank(group, 2, 2)
    assert copy.class_profile() == group.class_profile()
    plain = PermGroup(copy.degree, copy.generators)
    conjugated = sorted(kernels.conjugate(t, s.images) for t in group._raw_elements())
    assert list(copy._raw_elements()) == list(plain._raw_elements()) == conjugated
    assert copy._element_orders() == plain._element_orders()
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
    bad.write_text("degree 4\n(0 1\n")
    with pytest.raises(ParseError) as exc:
        read_generator_file(str(bad))
    assert "line 2" in str(exc.value)


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
