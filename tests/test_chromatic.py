import gc
import hashlib
import platform
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from chromarank import (
    ChromarankError,
    DegreeMismatch,
    chromatic,
    HeightExceeded,
    Permutation,
    PTuple,
    commuting_tuple_classes,
    cyclic,
    direct_product,
    group_from_generators,
    hkr_rank,
    kernels,
    p_power_elements,
    symmetric,
    verify_rank_identity,
)
from chromarank import group as group_module
from chromarank.group import ConjClassTable, PermGroup, _Chain

from conftest import CORPUS_BUILDERS, o_commuting_tuples, o_tuple_classes, relabeling

# frozen by hand before the engine existed; see also the naive oracles
FROZEN = {
    ("S_3", 2, 2): {"raw": 10, "classes": 4},
    ("S_3", 2, 1): {"raw": 4, "classes": 2},
}


def test_frozen_s3_counts(corpus):
    s3 = corpus["S_3"]
    for (name, p, h), want in FROZEN.items():
        dec = commuting_tuple_classes(corpus[name], p, h)
        assert sum(c.orbit_size for c in dec.components) == want["raw"], (name, p, h)
        assert len(dec) == want["classes"]
    assert hkr_rank(s3, 2, 2) == 4


def test_frozen_p_power_pools(corpus):
    assert len(p_power_elements(corpus["GL_2(3)"], 2)) == 32
    assert len(p_power_elements(corpus["S_4"], 2)) == 16
    dec = commuting_tuple_classes(corpus["GL_2(3)"], 2, 2)
    assert sum(c.orbit_size for c in dec.components) == 256
    dec4 = commuting_tuple_classes(corpus["S_4"], 2, 2)
    assert sum(c.orbit_size for c in dec4.components) == 88


def test_rank_power_law():
    for p in (2, 3):
        for n in (1, 2, 3):
            assert hkr_rank(cyclic(p), p, n) == p**n


def test_coprime_collapse(corpus):
    # p does not divide the order: only the empty-support tuples remain
    assert hkr_rank(corpus["S_3"], 5, 2) == 1
    assert hkr_rank(cyclic(3), 2, 3) == 1
    assert hkr_rank(corpus["Q_8"], 3, 2) == 1


def test_height_zero_single_component(corpus):
    for group in corpus.values():
        dec = commuting_tuple_classes(group, 2, 0)
        assert len(dec) == 1
        comp = dec.components[0]
        assert comp.rep.entries == ()
        assert comp.centralizer is group
        assert comp.orbit_size == 1


def test_height_bound():
    with pytest.raises(HeightExceeded):
        commuting_tuple_classes(cyclic(2), 2, 5)
    for call, message in (
        (lambda: commuting_tuple_classes(cyclic(2), 2, -1), "height must be nonnegative"),
        (lambda: hkr_rank(cyclic(2), 2, -1), "height must be nonnegative"),
        (lambda: verify_rank_identity(cyclic(2), 2, 1, 2), "need 0 <= t <= n"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_dfs_matches_naive_oracle(corpus):
    for name, group in corpus.items():
        if group.order() > 100:
            continue
        elems = [e.images for e in group.elements()]
        for p in (2, 3):
            for h in (0, 1, 2):
                dec = commuting_tuple_classes(group, p, h)
                naive = o_commuting_tuples(elems, p, h)
                assert sum(c.orbit_size for c in dec.components) == len(naive), (name, p, h)
                assert len(dec) == o_tuple_classes(elems, naive), (name, p, h)


def test_orbit_stabilizer_per_component(corpus):
    for group in corpus.values():
        dec = commuting_tuple_classes(group, 2, 2)
        for comp in dec.components:
            assert comp.orbit_size * comp.centralizer.order() == group.order()


def test_multiplicativity(corpus):
    pairs = [
        ("S_3", "C_6"),
        ("S_3", "S_3"),
        ("D_8", "Q_8"),
        ("A_4", "C_6"),
        ("C_2xC_4", "S_3"),
    ]
    for p in (2, 3):
        for left, right in pairs:
            prod = direct_product(corpus[left], corpus[right])
            for h in (1, 2):
                assert hkr_rank(prod, p, h) == hkr_rank(corpus[left], p, h) * hkr_rank(
                    corpus[right], p, h
                ), (left, right, p, h)


def test_abelian_sylow_formula():
    from chromarank import abelian, p_part

    groups = [(2,), (4,), (2, 2), (2, 4), (8,), (3,), (9,), (3, 3), (6,), (2, 3, 5)]
    for invariants in groups:
        g = abelian(invariants)
        for p in (2, 3):
            syl = p_part(g.order(), p)
            for h in (1, 2, 3):
                assert hkr_rank(g, p, h) == syl**h, (invariants, p, h)


def test_monotone_restriction(corpus):
    for group in corpus.values():
        for p in (2, 3):
            ranks = [hkr_rank(group, p, h) for h in range(4)]
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_ptuple_validation(corpus):
    s4 = corpus["S_4"]
    a = Permutation.from_cycles("(0 1)(2 3)", degree=4)
    b = Permutation.from_cycles("(0 1)", degree=4)
    c = Permutation.from_cycles("(0 1 2)", degree=4)
    t = PTuple(2, (a, b))
    assert t.height == 2
    with pytest.raises(ChromarankError):
        PTuple(2, (a, c))  # order 3 is not a 2-power
    with pytest.raises(ChromarankError):
        PTuple(2, (b, Permutation.from_cycles("(1 2)", degree=4)))  # they do not commute
    cent = s4.centralizer(t.entries)
    assert cent.order() == 4


def test_ptuple_refuses_entries_of_different_degrees():
    # Checked before any kernel compares the entries, so both backends
    # raise the same error.
    with pytest.raises(DegreeMismatch, match="entry 1 has degree 3, not 2"):
        PTuple(2, (Permutation((1, 0)), Permutation((0, 1, 2))))


def test_ptuple_extension_checks_only_the_new_entry_as_the_constructor_does():
    # The walk builds a representative without the constructor's checks: it
    # checks each entry alone, as it admits the entry to a pool, with the
    # constructor's messages (test_walk_checks_each_entry_where_it_admits_it).
    # The tuples it builds are the constructor's.
    a = Permutation.from_cycles("(0 1)(2 3)", degree=4)
    b = Permutation.from_cycles("(0 1)", degree=4)
    c = Permutation.from_cycles("(0 1 2)", degree=4)
    d = Permutation.from_cycles("(1 2)", degree=4)
    t = PTuple(2, (a,))
    assert PTuple._unchecked(2, (a, b)) == PTuple(2, (a, b))
    assert PTuple._unchecked(2, (a, b, b)) == PTuple(2, (a, b, b))
    assert PTuple._unchecked(2, (a,)) == t
    with pytest.raises(ChromarankError, match="entry 1 does not have 2-power order"):
        PTuple(2, (a, c))
    with pytest.raises(ChromarankError, match="do not commute pairwise"):
        PTuple(2, (b, d))
    with pytest.raises(ChromarankError, match="do not commute pairwise"):
        PTuple(2, (a, b, d))


@pytest.mark.parametrize("h", range(5))
def test_trivial_group_of_degree_1_has_one_class_at_every_height(h):
    # At degree 1 a packed h-tuple has degree h: 1 is the single-index
    # edge of the pure kernels' getters, and h = 0 the empty tuple.
    for p in (2, 3):
        dec = commuting_tuple_classes(cyclic(1), p, h)
        assert len(dec) == sum(c.orbit_size for c in dec.components) == 1
        assert dec.components[0].rep == PTuple(p, (Permutation((0,)),) * h)


def test_tuple_centralizer_requires_membership(corpus):
    outside = Permutation.from_cycles("(0 1)", degree=5)
    with pytest.raises(ChromarankError):
        corpus["S_4"].centralizer(PTuple(2, (outside,)).entries)


def test_verify_identity_s3_component_breakdown(corpus):
    report = verify_rank_identity(corpus["S_3"], 2, 2, 1)
    assert report.passed
    assert report.lhs == report.rhs == 4
    # rhs decomposes as rank(S_3, h=1) + rank(C_2, h=1) = 2 + 2
    assert sorted(r for _, _, r in report.per_component) == [2, 2]


def test_verify_identity_degenerate_cases(corpus):
    g = corpus["S_4"]
    top = verify_rank_identity(g, 2, 2, 2)
    assert top.passed and len(top.per_component) == 1
    bottom = verify_rank_identity(g, 2, 2, 0)
    assert bottom.passed
    assert bottom.rhs == len(commuting_tuple_classes(g, 2, 2))


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=10**6))
def test_relabeling_invariance(seed):
    rng = random.Random(seed)
    group = symmetric(4)
    s = Permutation(tuple(rng.sample(range(4), 4)))
    relabeled = group.conjugate_by(s)
    for p, h in ((2, 1), (2, 2), (3, 1)):
        assert hkr_rank(group, p, h) == hkr_rank(relabeled, p, h)


def test_identity_at_t0_walks_height_n_once(corpus, monkeypatch):
    # The walk is not cached; t = 0 reads both sides off one height-n walk,
    # and t >= 1 walks heights n and n - t once each.
    walks = []
    walk = chromatic._walk_classes

    def counting(group, p, h, limit):
        walks.append(h)
        return walk(group, p, h, limit)

    monkeypatch.setattr(chromatic, "_walk_classes", counting)
    g = corpus["S_4"]
    for n in (1, 2, 3):
        walks.clear()
        report = verify_rank_identity(g, 2, n, 0)
        assert walks == [n], n
        assert report.passed and report.lhs == hkr_rank(g, 2, n), n
        walks.clear()
        verify_rank_identity(g, 2, n, 1)
        assert walks == ([n, n - 1] if n > 1 else [n]), n


def test_recursive_rank_matches_walk(corpus):
    rng = random.Random(2014)
    for name, group in corpus.items():
        s = Permutation(tuple(rng.sample(range(group.degree), group.degree)))
        for g in (group, group.conjugate_by(s)):
            for p in (2, 3):
                for h in range(4):
                    assert hkr_rank(g, p, h) == len(commuting_tuple_classes(g, p, h)), (name, p, h)


def test_walk_at_the_height_bound(corpus):
    # The deepest walk allowed: the recursion counts its classes, their
    # representatives come out strictly increasing, and where |G|^h is
    # small the naive scan counts its tuples.
    h = chromatic.DEFAULT_MAX_HEIGHT
    for name, group in corpus.items():
        for g in (group, group.conjugate_by(relabeling(group.degree))):
            elems = [e.images for e in g.elements()] if g.order() ** h <= 4096 else None
            for p in (2, 3):
                dec = commuting_tuple_classes(g, p, h)
                assert len(dec) == hkr_rank(g, p, h), (name, p)
                reps = [tuple(e.images for e in c.rep.entries) for c in dec.components]
                assert all(a < b for a, b in zip(reps, reps[1:])), (name, p)
                if elems is not None:
                    naive = o_commuting_tuples(elems, p, h)
                    assert sum(c.orbit_size for c in dec.components) == len(naive), (name, p)


def test_recursive_rank_of_the_wreath(wreath_4608):
    # the Burnside count of bench_e2e/oracle.py gives 940 independently
    assert hkr_rank(wreath_4608, 2, 2) == 940


def test_identity_detects_wrong_recursive_count(monkeypatch):
    # Drop the identity class from every class table: the walk never reads
    # the table, so only the recursive height-1 counts come out one short.
    original = PermGroup.conjugacy_classes

    def without_identity(self, limit=None):
        table = original(self, limit)
        return ConjClassTable(table.reps[1:], table.sizes[1:], table.orders[1:])

    monkeypatch.setattr(PermGroup, "conjugacy_classes", without_identity)
    report = verify_rank_identity(symmetric(4), 2, 2, 1)
    assert not report.passed
    assert report.lhs == 17
    assert report.rhs == report.lhs - len(report.per_component)


def test_recursion_checks_centralizer_orders(monkeypatch):
    # A centralizer smaller than |G| / |x^G| breaks the class equation at
    # the node that built it.
    def trivial_centralizer(self, raw_targets, limit=None):
        return PermGroup.trivial(self.degree)

    monkeypatch.setattr(PermGroup, "_centralizer_raw", trivial_centralizer)
    with pytest.raises(ChromarankError):
        hkr_rank(symmetric(4), 2, 2)
    with pytest.raises(ChromarankError):
        verify_rank_identity(symmetric(4), 2, 2, 1)


def test_recursion_reuses_the_group_for_central_classes(monkeypatch):
    # Every class of an abelian group is central: the recursion builds and
    # filters no centralizer, and the count is |G_p|**h.
    calls = []
    centralizer_filter = kernels.centralizer_filter
    subgroup_from_elements = group_module._subgroup_from_elements

    def filtering(elements, targets):
        calls.append("filter")
        return centralizer_filter(elements, targets)

    def building(degree, elements):
        calls.append("build")
        return subgroup_from_elements(degree, elements)

    monkeypatch.setattr(kernels, "centralizer_filter", filtering)
    monkeypatch.setattr(group_module, "_subgroup_from_elements", building)
    assert hkr_rank(cyclic(8), 2, 2) == 64
    assert calls == []


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_recursive_rank_matches_walk_on_random_groups(seed):
    rng = random.Random(seed)
    degree = rng.randint(2, 6)
    gens = [
        Permutation(tuple(rng.sample(range(degree), degree))) for _ in range(rng.randint(1, 3))
    ]
    group = group_from_generators(gens)
    for p in (2, 3):
        for h in (1, 2):
            assert hkr_rank(group, p, h) == len(commuting_tuple_classes(group, p, h)), (p, h)


def _walk_components():
    """(name, p, h, component) over the walk's components on the corpus,
    p in {2, 3}, h <= 3."""
    for name, build in CORPUS_BUILDERS.items():
        group = build()
        for p in (2, 3):
            for h in range(4):
                for comp in commuting_tuple_classes(group, p, h).components:
                    yield name, p, h, comp


# sha256 over the walk's components: the representative, orbit size,
# centralizer generators and order of each.
WALK_DIGEST = "df5b2b71047cdaefeaa711cef13081b725221df70b02d695aca8517b95449e8c"

# sha256 over the same components' centralizers apart from their
# generators: the sorted elements, order and class profile of each.
WALK_GROUPS_DIGEST = "ee7ee3b5a28c369ae681934d2108513e9bda17c1bc31024810f238859c6aa269"


def test_walk_components_match_golden_digest():
    digest = hashlib.sha256()
    for name, p, h, comp in _walk_components():
        record = (
            name,
            p,
            h,
            [e.images for e in comp.rep.entries],
            comp.orbit_size,
            comp.centralizer._raw,
            comp.centralizer.order(),
        )
        digest.update(repr(record).encode())
    assert digest.hexdigest() == WALK_DIGEST


def test_walk_centralizers_match_golden_digest():
    digest = hashlib.sha256()
    for name, p, h, comp in _walk_components():
        cent = comp.centralizer
        record = (name, p, h, cent._raw_elements(), cent.order(), cent.class_profile())
        digest.update(repr(record).encode())
    assert digest.hexdigest() == WALK_GROUPS_DIGEST


def test_walk_and_recursion_build_no_chain(monkeypatch):
    # Centralizers carry their order and elements from construction, so
    # below the input group (whose chain gives its order) no chain is built.
    groups = [build() for build in CORPUS_BUILDERS.values()]
    for group in groups:
        group.order()
    builds = []
    chain_init = _Chain.__init__

    def counting(self, degree, raw_gens):
        builds.append(degree)
        chain_init(self, degree, raw_gens)

    monkeypatch.setattr(_Chain, "__init__", counting)
    for group in groups:
        for p in (2, 3):
            for h in range(4):
                assert hkr_rank(group, p, h) == len(commuting_tuple_classes(group, p, h))
    assert builds == []


def test_identity_record_writes_each_distinct_entry_once(monkeypatch):
    # to_record writes a representative's entries as its cycle_strings, a
    # tuple, and each distinct entry's string once per call.
    report = verify_rank_identity(symmetric(4), 2, 3, 1)
    want = [rep.cycle_strings() for rep, _, _ in report.per_component]
    distinct = {e.images for rep, _, _ in report.per_component for e in rep.entries}
    written = []
    cycle_string = Permutation.cycle_string

    def counting(self):
        written.append(self.images)
        return cycle_string(self)

    monkeypatch.setattr(Permutation, "cycle_string", counting)
    record = report.to_record()
    assert [c["tuple"] for c in record["per_component"]] == want
    assert sorted(written) == sorted(distinct) and len(written) < sum(map(len, want))


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="CPython's collector untracks containers"
)
def test_identity_record_components_are_untracked_after_two_collections():
    # The record holds dicts, tuples, str, int and bool only, so the
    # collector untracks each component's dict and its "tuple".  The record
    # and its per_component tuple stay tracked, since CPython never untracks
    # a tuple that holds a dict: two containers, whatever the component count.
    record = verify_rank_identity(symmetric(4), 2, 3, 1).to_record()
    gc.collect()
    gc.collect()
    components = record["per_component"]
    inner = [*components, *(value for c in components for value in c.values())]
    assert len(components) > 1
    assert [c for c in inner if gc.is_tracked(c)] == []


def test_walk_closes_one_prefix_per_class(monkeypatch):
    # The walk closes a prefix only at the first, lex-least, member of its
    # class, so the length-k tuples it closes are one per height-k class,
    # counted here by the recursion, which closes no tuple.  A k-tuple is
    # closed as the k-tuple of its entries' indices.
    closed = []
    tuple_orbit = kernels.tuple_orbit

    def recording(tup, perms):
        closed.append(tup)
        return tuple_orbit(tup, perms)

    monkeypatch.setattr(kernels, "tuple_orbit", recording)
    for name, build in CORPUS_BUILDERS.items():
        group = build()
        for p in (2, 3):
            closed.clear()
            commuting_tuple_classes(group, p, 3)
            lengths = Counter(len(t) for t in closed)
            assert lengths == {k: hkr_rank(group, p, k) for k in (1, 2, 3)}, (name, p)
            assert len(closed) == len(set(closed)), (name, p)


def test_walk_rejects_a_prefix_away_from_its_lex_least_tuple(monkeypatch):
    # An orbit of prefixes with a member below the prefix the walk reached
    # means the walk's order is broken.  The smaller member is an index
    # 1-tuple.
    tuple_orbit = kernels.tuple_orbit

    def with_a_smaller_prefix(tup, perms):
        orbit = tuple_orbit(tup, perms)
        return orbit + [(-1,)] if len(tup) == 1 else orbit

    monkeypatch.setattr(kernels, "tuple_orbit", with_a_smaller_prefix)
    with pytest.raises(ChromarankError, match="lex-least"):
        commuting_tuple_classes(symmetric(3), 2, 2)


def test_walk_rejects_a_conjugate_outside_the_p_power_elements(monkeypatch):
    # The walk tabulates conjugation on the p-power elements; a conjugate
    # outside them means the element list or the kernel is wrong.  Here the
    # transposition (0 1) is sent to the 3-cycle (0 1 2).
    conjugate = kernels.conjugate

    def leaving(x, g):
        y = conjugate(x, g)
        return (1, 2, 0) if y == (1, 0, 2) else y

    monkeypatch.setattr(kernels, "conjugate", leaving)
    with pytest.raises(ChromarankError, match="not a p-power element"):
        commuting_tuple_classes(symmetric(3), 2, 1)


def test_walk_checks_the_centralizer_order_at_every_prefix(monkeypatch):
    # Every centralizer in the abelian C_6 is the group.  Here each height-1
    # prefix gets the Sylow 2-subgroup instead, which holds the same 2-power
    # elements, while the full tuples' centralizers stay right: only the
    # prefix's own orbit-stabilizer check sees the fault.
    group = cyclic(6)
    sylow = group.sylow_subgroup(2)
    centralizer_raw = PermGroup._centralizer_raw

    def small_at_prefixes(self, raw_targets, limit=None):
        if self is group:
            return sylow
        return centralizer_raw(group if self is sylow else self, raw_targets, limit)

    monkeypatch.setattr(PermGroup, "_centralizer_raw", small_at_prefixes)
    with pytest.raises(ChromarankError, match="orbit size disagrees with centralizer index"):
        commuting_tuple_classes(group, 2, 2)


def test_walk_checks_each_entry_where_it_admits_it(monkeypatch):
    # A root pool that holds an element of order 3 (both 3-cycles, so that
    # conjugation stays in the pool), and a prefix whose centralizer, of the
    # right order, holds a transposition that does not commute with it.
    s3 = symmetric(3)
    elements = p_power_elements(s3, 2)
    three_cycles = (Permutation((1, 2, 0)), Permutation((2, 0, 1)))
    with monkeypatch.context() as m:
        m.setattr(chromatic, "p_power_elements", lambda *args: elements + three_cycles)
        with pytest.raises(ChromarankError, match="does not have 2-power order"):
            commuting_tuple_classes(s3, 2, 1)
    # The walk reaches the transpositions' class first at (1 2), images (0, 2, 1).
    centralizer_raw = PermGroup._centralizer_raw
    swapped = group_from_generators([Permutation((1, 0, 2))])

    def elsewhere(self, raw_targets, limit=None):
        if list(raw_targets) == [(0, 2, 1)]:
            return swapped
        return centralizer_raw(self, raw_targets, limit)

    monkeypatch.setattr(PermGroup, "_centralizer_raw", elsewhere)
    with pytest.raises(ChromarankError, match="do not commute pairwise"):
        commuting_tuple_classes(s3, 2, 2)


def test_walk_checks_each_p_power_elements_order_once(monkeypatch):
    # Entries are checked where the walk admits them: each p-power element's
    # order once, as it joins the root pool, and none per representative.
    group = CORPUS_BUILDERS["GL_2(3)"]()
    want = Counter(e.images for e in p_power_elements(group, 2))
    checked = Counter()
    element_order = kernels.element_order

    def counting(x):
        checked[x] += 1
        return element_order(x)

    monkeypatch.setattr(kernels, "element_order", counting)
    commuting_tuple_classes(group, 2, 3)
    assert checked == want
