import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from chromarank import (
    ChromarankError,
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
from chromarank.group import ConjClassTable, PermGroup, _Chain

from conftest import CORPUS_BUILDERS, o_commuting_tuples, o_tuple_classes

# frozen by hand before the engine existed; see also the naive oracles
FROZEN = {
    ("S_3", 2, 2): {"raw": 10, "classes": 4},
    ("S_3", 2, 1): {"raw": 4, "classes": 2},
}


def test_frozen_s3_counts(corpus):
    s3 = corpus["S_3"]
    for (name, p, h), want in FROZEN.items():
        dec = commuting_tuple_classes(corpus[name], p, h)
        assert dec.raw_tuple_count() == want["raw"], (name, p, h)
        assert len(dec) == want["classes"]
    assert hkr_rank(s3, 2, 2) == 4


def test_frozen_p_power_pools(corpus):
    assert len(p_power_elements(corpus["GL_2(3)"], 2)) == 32
    assert len(p_power_elements(corpus["S_4"], 2)) == 16
    dec = commuting_tuple_classes(corpus["GL_2(3)"], 2, 2)
    assert dec.raw_tuple_count() == 256
    dec4 = commuting_tuple_classes(corpus["S_4"], 2, 2)
    assert dec4.raw_tuple_count() == 88


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


def test_dfs_matches_naive_oracle(corpus):
    for name, group in corpus.items():
        if group.order() > 100:
            continue
        elems = [e.images for e in group.elements()]
        for p in (2, 3):
            for h in (0, 1, 2):
                dec = commuting_tuple_classes(group, p, h)
                naive = o_commuting_tuples(elems, p, h)
                assert dec.raw_tuple_count() == len(naive), (name, p, h)
                assert len(dec) == o_tuple_classes(elems, naive), (name, p, h)


def test_orbit_stabilizer_per_component(corpus):
    for group in corpus.values():
        dec = commuting_tuple_classes(group, 2, 2)
        for comp in dec.components:
            assert comp.orbit_size * comp.centralizer.order() == group.order()
        assert dec.raw_tuple_count() == sum(c.orbit_size for c in dec.components)


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
    # Every class of an abelian group is central: the recursion builds no
    # centralizer, and the count is |G_p|**h.
    calls = []
    centralizer_raw = PermGroup._centralizer_raw

    def counting(self, raw_targets, limit=None):
        calls.append(self.order())
        return centralizer_raw(self, raw_targets, limit)

    monkeypatch.setattr(PermGroup, "_centralizer_raw", counting)
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


# sha256 over the walk's components on the corpus, p in {2, 3}, h <= 3: the
# representative, orbit size, centralizer generators and order of each.
WALK_DIGEST = "20a210948646cf9d9dd2decc04b3a3dbb041e0487acf93c4eda796f6f457c5da"


def test_walk_components_match_golden_digest():
    digest = hashlib.sha256()
    for name, build in CORPUS_BUILDERS.items():
        group = build()
        for p in (2, 3):
            for h in range(4):
                for comp in commuting_tuple_classes(group, p, h).components:
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


def test_walk_closes_one_prefix_per_class(monkeypatch):
    # The walk closes a prefix only at the first, lex-least, member of its
    # class, so the length-k tuples it closes are one per height-k class,
    # counted here by the recursion, which closes no tuple.
    closed = []
    tuple_orbit = kernels.tuple_orbit

    def recording(tup, gens):
        closed.append(tup)
        return tuple_orbit(tup, gens)

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
    # means the walk's order is broken.
    tuple_orbit = kernels.tuple_orbit

    def with_a_smaller_prefix(tup, gens):
        orbit = tuple_orbit(tup, gens)
        return orbit + [((-1,) * len(tup[0]),)] if len(tup) == 1 else orbit

    monkeypatch.setattr(kernels, "tuple_orbit", with_a_smaller_prefix)
    with pytest.raises(ChromarankError, match="lex-least"):
        commuting_tuple_classes(symmetric(3), 2, 2)
