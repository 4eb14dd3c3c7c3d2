"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets are wall-clock upper bounds asserted per criterion.  Heavy
intermediate objects are shared through module-scoped fixtures so each
budget covers the work the criterion actually describes.
"""

import math
import random
import time

import pytest

from chromarank import (
    Registry,
    certify,
    commuting_tuple_classes,
    cyclic,
    direct_product,
    dihedral,
    general_linear,
    hkr_rank,
    p_part,
    register_derivation,
    replay,
    symmetric,
    verify_rank_identity,
    wreath_cyclic,
)
from chromarank import abelian, dsl, explore
from chromarank.dsl import parse, print_expr

from conftest import o_commuting_tuples, o_tuple_classes
from test_dsl import random_ast


class Budget:
    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.label}: {self.elapsed:.2f}s exceeds {self.seconds}s budget"
            )
            print(f"PASS {self.label} ({self.elapsed:.2f}s)")


@pytest.fixture(scope="module")
def wreath():
    return wreath_cyclic(general_linear(2, 3), 2)


@pytest.fixture(scope="module")
def order4_centralizer(wreath):
    table = wreath.conjugacy_classes()
    for rep in table.reps:
        if rep.order() != 4:
            continue
        cent = wreath.centralizer([rep])
        if cent.order() == 96:
            return cent
    raise AssertionError("no order-4 class with a 96-element centralizer")


def test_criterion_1_wreath_order(wreath):
    with Budget(1.0, "criterion 1: |GL_2(F_3) wr C_2| = 4608"):
        assert wreath.order() == 4608


def test_criterion_2_order4_centralizer(wreath):
    with Budget(30.0, "criterion 2: order-4 centralizer 96, Sylow-2 order 32"):
        table = wreath.conjugacy_classes()
        hits = []
        for rep in table.reps:
            if rep.order() != 4:
                continue
            cent = wreath.centralizer([rep])
            if cent.order() == 96:
                hits.append(cent)
        assert len(hits) == 1
        assert hits[0].sylow_subgroup(2).order() == 32


def test_criterion_3_iterated_example(order4_centralizer):
    with Budget(300.0, "criterion 3: iterated wreath 18432, order-8 centralizer 192, Sylow-2 64"):
        tower = wreath_cyclic(order4_centralizer, 2)
        assert tower.order() == 18432
        table = tower.conjugacy_classes()
        matches = []
        for rep in table.reps:
            if rep.order() != 8:
                continue
            cent = tower.centralizer([rep])
            if cent.order() == 192:
                matches.append(cent)
        assert matches, "no order-8 class with a 192-element centralizer"
        assert any(c.sylow_subgroup(2).order() == 64 for c in matches)


def test_criterion_4_rank_power_law():
    with Budget(1.0, "criterion 4: rank(C_p, p, n) = p^n"):
        for p in (2, 3):
            for n in (1, 2, 3):
                assert hkr_rank(cyclic(p), p, n) == p**n


def test_criterion_5_identity_suite(corpus):
    with Budget(120.0, "criterion 5: rank identity on 9 groups x {2,3} x t<=n<=3"):
        for name, group in corpus.items():
            for p in (2, 3):
                for n in range(4):
                    for t in range(n + 1):
                        report = verify_rank_identity(group, p, n, t, label=name)
                        assert report.passed, (name, p, n, t, report.lhs, report.rhs)


def test_criterion_6_oracle_equivalence(corpus):
    with Budget(60.0, "criterion 6: DFS matches the naive |G|^h oracle"):
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


def test_criterion_7_multiplicativity_and_abelian(corpus):
    with Budget(120.0, "criterion 7: Kunneth shadow and abelian Sylow formula"):
        pairs = [
            ("S_3", "C_6"), ("S_3", "S_3"), ("D_8", "Q_8"), ("A_4", "C_6"),
            ("C_2xC_4", "S_3"), ("Q_8", "C_6"), ("D_8", "C_2xC_4"), ("S_4", "C_6"),
            ("A_4", "D_8"), ("S_3", "Q_8"),
        ]
        for p in (2, 3):
            for left, right in pairs:
                prod = direct_product(corpus[left], corpus[right])
                for h in (1, 2):
                    assert hkr_rank(prod, p, h) == (
                        hkr_rank(corpus[left], p, h) * hkr_rank(corpus[right], p, h)
                    ), (left, right, p, h)
        abelians = [(2,), (4,), (8,), (2, 2), (2, 4), (3,), (9,), (3, 3), (6,), (2, 3, 5)]
        for invariants in abelians:
            g = abelian(invariants)
            for p in (2, 3):
                for h in (1, 2, 3):
                    assert hkr_rank(g, p, h) == p_part(g.order(), p) ** h, (invariants, p, h)


def test_criterion_8_registry_narrative():
    with Budget(300.0, "criterion 8: certify WREATH/CENTRALIZER narrative with replays"):
        reg = Registry.with_defaults(2)
        e96 = "cent(wr(gl(2,3),c(2)),order=4,czorder=96)"
        e192 = f"cent(wr({e96},c(2)),order=8,czorder=192)"

        t1 = certify("wr(gl(2,3),c(2))", 2, reg)
        assert t1.rule == "WREATH" and t1.premises[0].rule == "SEED"
        replay(t1, 2, reg)
        register_derivation(reg, t1, 2)

        t2 = certify(e96, 2, reg)
        assert t2.rule == "CENTRALIZER"
        replay(t2, 2, reg)
        register_derivation(reg, t2, 2)
        assert reg.get(e96).order == 96

        t3 = certify(f"wr({e96},c(2))", 2, reg)
        assert t3.rule == "WREATH"
        replay(t3, 2, reg)
        register_derivation(reg, t3, 2)
        assert reg.get(f"wr({e96},c(2))").order == 18432

        t4 = certify(e192, 2, reg)
        assert t4.rule == "CENTRALIZER"
        rules = [node.rule for node in t4.walk()]
        assert rules == ["CENTRALIZER", "WREATH", "CENTRALIZER", "WREATH", "SEED"]
        replay(t4, 2, reg)
        register_derivation(reg, t4, 2)
        assert reg.get(e192).order == 192


def test_criterion_9_consistency_guard(tmp_path):
    with Budget(300.0, "criterion 9: p=3 explore never certifies the bad fingerprint"):
        reg = Registry.with_defaults(3)
        bad = reg.get("unipotent-radical-gl4")
        assert bad is not None and bad.status == "bad" and bad.order == 729
        register_derivation(reg, certify("c(1)", 3, reg), 3)
        register_derivation(reg, certify("c(3)", 3, reg), 3)
        added = explore(reg, 3, 729, depth=6)
        assert added
        for e in reg.entries:
            if e.status == "good" and e.fingerprint is not None:
                assert e.fingerprint != bad.fingerprint
        path = tmp_path / "p3.jsonl"
        reg.save(str(path))
        loaded = Registry.load(str(path))
        assert [e.to_record() for e in loaded.entries] == [e.to_record() for e in reg.entries]


def test_criterion_10_engine_sanity(corpus):
    with Budget(120.0, "criterion 10: S_n orders, class equation, AST round-trips"):
        for n in range(1, 9):
            assert symmetric(n).order() == math.factorial(n)
        for name, group in corpus.items():
            table = group.conjugacy_classes()
            assert sum(table.sizes) == group.order(), name
            for rep, size in zip(table.reps, table.sizes):
                cent = group.centralizer([rep])
                assert size * cent.order() == group.order(), name
        rng = random.Random(827348)
        for _ in range(1000):
            ast = random_ast(rng, rng.randint(0, 3))
            text = print_expr(ast)
            assert parse(text) == ast and print_expr(parse(text)) == text
