import hashlib
import json
import logging
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from chromarank import (
    ChromarankError,
    ConsistencyError,
    ParseError,
    Permutation,
    Registry,
    RegistryEntry,
    ThresholdExceeded,
    certify,
    cyclic,
    explore,
    general_linear,
    register_derivation,
    replay,
    seed_defaults,
    unitriangular4,
    wreath_cyclic,
)
from chromarank.group import PermGroup
from chromarank.registry import DerivationTree, _match_seed
from chromarank import constructors, dsl, group as group_mod, registry as registry_mod

GOLDEN = Path(__file__).parent / "golden"

# The paper's example: the centralizer of order 96 inside GL_2(F_3) wr C_2,
# then the tower over it and the centralizer of order 192 inside the tower.
E4608 = "wr(gl(2,3),c(2))"
E96 = f"cent({E4608},order=4,czorder=96)"
E18432 = f"wr({E96},c(2))"
E192 = f"cent({E18432},order=8,czorder=192)"


def entry_for(name, expr, p, group, status="good", rule="SEED", parents=()):
    return RegistryEntry(
        name=name,
        expr=expr,
        prime=p,
        order=group.order(),
        fingerprint=group.fingerprint(),
        status=status,
        rule=rule,
        parents=tuple(parents),
    )


# -- seeds -------------------------------------------------------------------


def test_seed_defaults_p2():
    seeds = seed_defaults(2)
    names = [e.name for e in seeds]
    assert names == [
        "axiom:abelian",
        "axiom:symmetric",
        "axiom:gl-coprime",
        "axiom:order-p3",
        "axiom:order-32",
    ]
    assert all(e.status == "good" and e.rule == "SEED" for e in seeds)


def test_seed_defaults_odd_p_has_bad_entry():
    seeds = seed_defaults(3)
    assert "axiom:order-32" not in [e.name for e in seeds]
    bad = [e for e in seeds if e.status == "bad"]
    assert len(bad) == 1
    assert bad[0].name == "unipotent-radical-gl4"
    assert bad[0].order == 729
    assert bad[0].fingerprint == unitriangular4(3).fingerprint()


def test_seed_bad_entry_closed_form_matches_enumeration():
    # The bad entry's fingerprint is a closed form at every odd prime; at
    # p = 3 (exponent 9) and p = 5 (exponent 5) the group is still small
    # enough to enumerate against it.
    for p in (3, 5):
        expected = unitriangular4(p).fingerprint()
        assert registry_mod._unitriangular4_fingerprint(p) == expected
        (bad,) = [e for e in seed_defaults(p) if e.status == "bad"]
        assert bad.order == p**6
        assert bad.fingerprint == expected


def test_seed_defaults_build_no_group(monkeypatch):
    def no_group(self, *args, **kwargs):
        raise AssertionError("seed_defaults built a group")

    monkeypatch.setattr(PermGroup, "__init__", no_group)
    for p in (3, 5, 7):
        reg = Registry.with_defaults(p)
        (bad,) = [e for e in reg.entries if e.status == "bad"]
        fp = bad.fingerprint
        assert bad.order == fp.order == p**6
        assert (fp.center_order, fp.derived_order, fp.abelian) == (p, p**3, False)
        assert sum(size * count for size, count in fp.class_size_histogram) == p**6
        if p == 3:
            assert fp.exponent == 9
            assert fp.element_order_histogram == ((1, 1), (3, 512), (9, 216))
        else:
            assert fp.exponent == p
            assert fp.element_order_histogram == ((1, 1), (p, p**6 - 1))


def test_seed_matching():
    assert _match_seed(dsl.parse("s(5)"), 2, dsl.evaluate(dsl.parse("s(5)"))) == "symmetric"
    assert _match_seed(dsl.parse("gl(2,3)"), 2, general_linear(2, 3)) == "gl-coprime"
    assert _match_seed(dsl.parse("gl(2,2)"), 2, general_linear(2, 2)) is None  # p divides q
    assert _match_seed(dsl.parse("c(12)"), 2, cyclic(12)) == "abelian"
    assert _match_seed(dsl.parse("q8"), 2, dsl.evaluate(dsl.parse("q8"))) == "order-p3"
    assert _match_seed(dsl.parse("d(8)"), 2, dsl.evaluate(dsl.parse("d(8)"))) is None
    w32 = dsl.parse("wr(ab(2,2),c(2))")
    assert _match_seed(w32, 2, dsl.evaluate(w32)) == "order-32"


# -- registry mechanics --------------------------------------------------------


def test_add_rejects_prime_mismatch():
    reg = Registry(2)
    with pytest.raises(ConsistencyError):
        reg.add(entry_for("c(3)", "c(3)", 3, cyclic(3)))


def test_add_rejects_duplicate_names():
    reg = Registry(2)
    e = entry_for("c(4)", "c(4)", 2, cyclic(4))
    reg.add(e)
    reg.add(e)  # identical re-add is a no-op
    assert len(reg.entries) == 1
    with pytest.raises(ConsistencyError):
        reg.add(entry_for("c(4)", "c(4)", 2, cyclic(8)))


def test_contradictory_fingerprint_rejected():
    reg = Registry(2)
    reg.add(entry_for("good-c4", "c(4)", 2, cyclic(4)))
    with pytest.raises(ConsistencyError):
        reg.add(entry_for("bad-c4", None, 2, cyclic(4), status="bad", rule="CITED"))


def test_entry_record_roundtrip():
    e = entry_for("gl(2,3)", "gl(2,3)", 2, general_linear(2, 3), rule="SEED", parents=("axiom:gl-coprime",))
    assert RegistryEntry.from_record(e.to_record()) == e
    with pytest.raises(ParseError):
        RegistryEntry.from_record({**e.to_record(), "extra": 1})
    rec = e.to_record()
    del rec["order"]
    with pytest.raises(ParseError):
        RegistryEntry.from_record(rec)


def test_save_load_roundtrip(tmp_path):
    reg = Registry.with_defaults(2)
    reg.add(entry_for("c(4)", "c(4)", 2, cyclic(4), parents=("axiom:abelian",)))
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    loaded = Registry.load(str(path))
    assert [e.to_record() for e in loaded.entries] == [e.to_record() for e in reg.entries]
    # canonical field order on every line
    for line in path.read_text().splitlines():
        assert list(json.loads(line)) == list(RegistryEntry.from_record(json.loads(line)).to_record())


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "broken.jsonl"
    first = '{"name":"x","expr":null,"prime":2,"order":null,"fingerprint":null,"status":"good","rule":"SEED","parents":[]}\n'
    for second in ("not json", first.replace('"x"', '"y"').replace('"good"', '"maybe"')):
        path.write_text(first + second + "\n")
        with pytest.raises(ParseError) as exc:
            Registry.load(str(path))
        assert "line 2" in str(exc.value)


def test_load_rejects_unknown_fields(tmp_path):
    path = tmp_path / "fields.jsonl"
    rec = {"name": "x", "expr": None, "prime": 2, "order": None, "fingerprint": None,
           "status": "good", "rule": "SEED", "parents": [], "surprise": 1}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError) as exc:
        Registry.load(str(path))
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("order", 3.7),
        ("order", "4"),
        ("order", True),
        ("prime", 2.0),
        ("prime", False),
        ("name", 4),
        ("expr", ["c(4)"]),
        ("status", None),
        ("rule", 1),
        ("parents", "abc"),
        ("parents", [1]),
        ("fingerprint", "abc"),
        ("fingerprint.abelian", "no"),
        ("fingerprint.abelian", 1),
        ("fingerprint.order", 4.0),
        ("fingerprint.exponent", "4"),
        ("fingerprint.center_order", None),
        ("fingerprint.derived_order", True),
        ("fingerprint.element_order_histogram", [[1, 1], [2, 1.0]]),
        ("fingerprint.element_order_histogram", [[1, 1, 1]]),
        ("fingerprint.class_size_histogram", "1,4"),
        ("fingerprint.class_size_histogram", [["1", 4]]),
    ],
)
def test_load_rejects_wrong_json_types(tmp_path, field, value):
    good = entry_for("c(4)", "c(4)", 2, cyclic(4)).to_record()
    bad = dict(json.loads(json.dumps(good)), name="c(4) again")
    *outer, key = field.split(".")
    (bad[outer[0]] if outer else bad)[key] = value
    path = tmp_path / "types.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ParseError) as exc:
        Registry.load(str(path))
    assert f"{key!r}" in str(exc.value) and "line 2" in str(exc.value)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    reg = Registry.load(str(path))
    assert reg.entries == [] and reg.prime is None


def test_load_contradiction_fails(tmp_path):
    g = cyclic(4)
    a = entry_for("a", "c(4)", 2, g)
    b = entry_for("b", None, 2, g, status="bad", rule="CITED")
    path = tmp_path / "contra.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(a.to_record()) + "\n")
        fh.write(json.dumps(b.to_record()) + "\n")
    with pytest.raises(ConsistencyError):
        Registry.load(str(path))


# -- certify -------------------------------------------------------------------


def test_certify_trivial_group_via_abelian_seed():
    reg = Registry.with_defaults(2)
    tree = certify("c(1)", 2, reg)
    assert tree.rule == "SEED" and tree.detail == "abelian"


def test_certify_symmetric_and_gl():
    reg = Registry.with_defaults(2)
    assert certify("s(6)", 2, reg).detail == "symmetric"
    assert certify("gl(2,3)", 2, reg).detail == "gl-coprime"


def test_certify_wreath_narrative():
    reg = Registry.with_defaults(2)
    tree = certify("wr(gl(2,3),c(2))", 2, reg)
    assert tree.rule == "WREATH"
    assert tree.premises[0].rule == "SEED"
    replay(tree, 2, reg)


def test_certify_centralizer_rule():
    reg = Registry.with_defaults(2)
    tree = certify("cent(wr(gl(2,3),c(2)),order=4,czorder=96)", 2, reg)
    assert tree.rule == "CENTRALIZER"
    assert tree.premises[0].rule == "WREATH"
    replay(tree, 2, reg)


def test_certify_sylow_rule():
    # GL_2(2) is no seed at p=2, but its Sylow 2-subgroup is abelian
    reg = Registry.with_defaults(2)
    tree = certify("gl(2,2)", 2, reg)
    assert tree.rule == "SYLOW"
    assert tree.premises[0].subject == "syl(2,gl(2,2))"
    replay(tree, 2, reg)


def test_certify_product_rule():
    reg = Registry.with_defaults(2)
    tree = certify("prod(gl(2,2),s(3))", 2, reg)
    # the left factor is no seed at p=2 and resolves through its Sylow subgroup
    assert tree.rule == "PRODUCT"
    assert [t.rule for t in tree.premises] == ["SYLOW", "SEED"]
    replay(tree, 2, reg)


def test_certify_factor_rule():
    # D_16 at p=2: not a seed, order 16 equals its own 2-part so SYLOW is
    # barred, but a registered good product with a good cofactor frees it.
    reg = Registry.with_defaults(2)
    assert certify("d(8)", 2, reg) is None
    witness = dsl.evaluate(dsl.parse("prod(d(8),c(3))"))
    reg.add(entry_for("witness", "prod(d(8),c(3))", 2, witness, rule="CITED"))
    tree = certify("d(8)", 2, reg)
    assert tree.rule == "FACTOR"
    assert tree.detail == "witness witness"
    assert tree.premises[0].subject == "c(3)"
    replay(tree, 2, reg)


def test_certify_parses_each_factor_witness_once(monkeypatch):
    # Every node of this failing search falls through to FACTOR: d(8) and
    # the product are no seeds, and both are 2-groups, so SYLOW is barred.
    reg = Registry.with_defaults(2)
    witnesses = ["prod(d(8),d(8))", "prod(s(3),c(2))", "prod(c(4),d(4))"]
    for text in witnesses:
        reg.add(entry_for(text, text, 2, dsl.evaluate(dsl.parse(text)), rule="CITED"))
    expr = dsl.parse("prod(d(8),d(8))")
    parsed = Counter()
    real_parse = dsl.parse

    def counting_parse(text):
        parsed[text] += 1
        return real_parse(text)

    nodes = Counter()
    real_search = registry_mod._search

    def counting_search(expr, *args):
        nodes[dsl.print_expr(expr)] += 1
        return real_search(expr, *args)

    monkeypatch.setattr(dsl, "parse", counting_parse)
    monkeypatch.setattr(registry_mod, "_search", counting_search)
    assert certify(expr, 2, reg) is None
    assert sum(nodes.values()) >= 2
    assert parsed == Counter(witnesses)


# Expressions whose certification takes in every rule, both sides of a FACTOR
# witness, failing searches (at depth 2 and for good) and an evaluation error.
DIGEST_WITNESSES = ("prod(c(3),d(8))", "prod(syl(3,wr(c(3),c(3))),c(2))")
DIGEST_CASES = {
    2: [
        "c(4)", "s(5)", "gl(2,3)", "d(4)", "q8", "prod(d(4),c(4))", "prod(gl(2,2),s(3))",
        "wr(gl(2,3),c(2))", "wr(wr(c(2),c(2)),c(2))", "cent(prod(s(4),s(3)),order=2,czorder=48)",
        "cent(s(6),order=3,czorder=18)", "gl(2,2)", "d(8)", "d(32)", "cent(c(4),order=3)",
    ],
    3: [
        "c(9)", "gl(2,3)", "gl(2,2)", "prod(gl(2,3),d(4))", "wr(c(3),c(3))", "wr(s(3),c(3))",
        "wr(c(3),c(2))", "cent(wr(s(3),c(3)),order=3)", "syl(3,wr(c(3),c(3)))",
        "prod(syl(3,wr(c(3),c(3))),syl(3,wr(c(3),c(3))))", "prod(s(3),wr(c(3),c(3)))",
    ],
}
CERTIFY_DIGEST = "4c90f03cc25a3c6e4ae59ddcf39f3ce71c564d5107595e61582cae00b52ce6f5"


def test_certify_trees_errors_and_records_match_digest(monkeypatch):
    # Pins every tree certify returns, every error it raises, the registry
    # records register_derivation writes and the number of search nodes.
    # Each tree also replays on a fresh registry with the same entries.
    nodes = []
    real_search = registry_mod._search

    def counting_search(expr, *args):
        nodes.append(expr)
        return real_search(expr, *args)

    monkeypatch.setattr(registry_mod, "_search", counting_search)
    digest = hashlib.sha256()
    for p, exprs in DIGEST_CASES.items():
        for depth in (2, 6):
            reg = Registry.with_defaults(p)
            for text in DIGEST_WITNESSES:
                reg.add(entry_for(text, text, p, dsl.evaluate(dsl.parse(text)), rule="CITED"))
            for text in exprs:
                try:
                    tree = certify(text, p, reg, depth=depth)
                except ChromarankError as exc:
                    line = f"{p} {depth} {text} error {type(exc).__name__}: {exc}"
                else:
                    line = f"{p} {depth} {text} " + json.dumps(tree and tree.to_record())
                    if tree is not None:
                        replay(tree, p, Registry(p, reg.entries))
                        register_derivation(reg, tree, p)
                digest.update(line.encode() + b"\n")
            for e in reg.entries:
                digest.update(json.dumps(e.to_record(), separators=(",", ":")).encode() + b"\n")
    assert len(nodes) == 111
    assert digest.hexdigest() == CERTIFY_DIGEST


def test_certify_depth_zero_finds_nothing():
    reg = Registry.with_defaults(2)
    assert certify("s(5)", 2, reg, depth=0) is None


def test_certify_poisoned_registry_raises():
    reg = Registry.with_defaults(2)
    reg.add(entry_for("poison", None, 2, cyclic(4), status="bad", rule="CITED"))
    with pytest.raises(ConsistencyError):
        certify("c(4)", 2, reg)


def test_replay_rejects_tampered_tree():
    reg = Registry.with_defaults(2)
    tree = certify("wr(gl(2,3),c(2))", 2, reg)
    forged = DerivationTree(tree.subject, "WREATH", tree.detail, (
        DerivationTree("gl(2,2)", "SEED", "gl-coprime"),
    ))
    with pytest.raises(ConsistencyError):
        replay(forged, 2, reg)
    with pytest.raises(ConsistencyError):
        replay(DerivationTree("s(4)", "SEED", "abelian"), 2, reg)


def _seed(subject, axiom="abelian"):
    return DerivationTree(subject, "SEED", axiom)


# Trees certify can never build: each node must be a step of the rules, with
# its detail and its premises, in rule order, as the search would give them.
FORGED_TREES = {
    "factor-premise-is-the-subject": DerivationTree(
        "c(4)", "FACTOR", "witness prod(c(4),c(3))", (_seed("c(4)"),)
    ),
    "sylow-on-a-p-group": DerivationTree("c(4)", "SYLOW", "", (_seed("syl(2,c(4))"),)),
    "sylow-on-a-sylow-subject": DerivationTree(
        "syl(2,gl(2,2))", "SYLOW", "", (_seed("syl(2,syl(2,gl(2,2)))"),)
    ),
    "wreath-top-detail": DerivationTree(
        "wr(gl(2,3),c(2))", "WREATH", "top c(7)", (_seed("gl(2,3)", "gl-coprime"),)
    ),
    "centralizer-rep-detail": DerivationTree(
        "cent(prod(s(4),s(3)),order=2,czorder=48)",
        "CENTRALIZER",
        "of class rep (9 9)",
        (
            DerivationTree(
                "prod(s(4),s(3))",
                "PRODUCT",
                "",
                (_seed("s(4)", "symmetric"), _seed("s(3)", "symmetric")),
            ),
        ),
    ),
    "product-premises-swapped": DerivationTree(
        "prod(gl(2,2),s(3))",
        "PRODUCT",
        "",
        (
            _seed("s(3)", "symmetric"),
            DerivationTree("gl(2,2)", "SYLOW", "", (_seed("syl(2,gl(2,2))"),)),
        ),
    ),
}


@pytest.mark.parametrize("forged", FORGED_TREES.values(), ids=FORGED_TREES)
def test_replay_rejects_steps_the_rules_do_not_allow(forged):
    reg = Registry.with_defaults(2)
    witness = dsl.evaluate(dsl.parse("prod(c(4),c(3))"))
    reg.add(entry_for("prod(c(4),c(3))", "prod(c(4),c(3))", 2, witness, rule="CITED"))
    with pytest.raises(ConsistencyError, match="the rules allow"):
        replay(forged, 2, reg)


def test_register_derivation_adds_all_nodes():
    reg = Registry.with_defaults(2)
    tree = certify("wr(gl(2,3),c(2))", 2, reg)
    added = register_derivation(reg, tree, 2)
    assert [e.name for e in added] == ["gl(2,3)", "wr(gl(2,3),c(2))"]
    assert reg.get("gl(2,3)").parents == ("axiom:gl-coprime",)
    assert reg.get("wr(gl(2,3),c(2))").rule == "WREATH"
    # re-registering is a no-op
    assert register_derivation(reg, tree, 2) == []


# -- explore -------------------------------------------------------------------


def seeded_registry(p, exprs):
    reg = Registry.with_defaults(p)
    for text in exprs:
        register_derivation(reg, certify(text, p, reg), p)
    return reg


def test_explore_finds_wreath_and_centralizer_children():
    reg = seeded_registry(2, ["gl(2,3)"])
    added = explore(reg, 2, 10**4, depth=1)
    names = {e.name for e in added}
    assert "wr(gl(2,3),c(2))" in names
    assert "cent(wr(gl(2,3),c(2)),order=4,czorder=96)" in names
    wreath = reg.get("wr(gl(2,3),c(2))")
    assert wreath.order == 4608 and wreath.rule == "WREATH"
    cent = reg.get("cent(wr(gl(2,3),c(2)),order=4,czorder=96)")
    assert cent.order == 96 and cent.rule == "CENTRALIZER"
    assert cent.parents == ("wr(gl(2,3),c(2))",)


def test_explore_from_trivial_builds_wreath_tower():
    reg = seeded_registry(2, ["c(1)"])
    added = explore(reg, 2, 10, depth=4)
    # the iterated-wreath tower appears: orders p, then p * p**p
    assert reg.get("wr(c(1),c(2))").order == 2
    assert reg.get("wr(wr(c(1),c(2)),c(2))").order == 8
    assert all(e.order <= 10 for e in added)


def test_explore_idempotent():
    reg = seeded_registry(2, ["c(2)", "s(3)"])
    explore(reg, 2, 200, depth=10)
    assert explore(reg, 2, 200, depth=10) == []


def test_explore_respects_bound():
    reg = seeded_registry(2, ["s(3)"])
    added = explore(reg, 2, 100, depth=3)
    assert all(e.order <= 100 for e in added)


def test_explore_never_certifies_bad_fingerprint_p3():
    reg = seeded_registry(3, ["c(3)", "c(1)"])
    bad = reg.get("unipotent-radical-gl4")
    assert bad is not None and bad.status == "bad"
    added = explore(reg, 3, 729, depth=6)
    assert added  # the run does construct groups up to the bound
    for e in reg.entries:
        if e.status == "good" and e.fingerprint is not None:
            assert e.fingerprint != bad.fingerprint


def test_explore_paranoid_mode_runs_clean():
    reg = seeded_registry(2, ["c(2)"])
    added = explore(reg, 2, 64, depth=3, paranoid=True)
    assert added


def test_explore_paranoid_mode_checks_existing_entries():
    # A good entry for c(9) whose stored fingerprint is that of C_3 x C_3:
    # the product c(3) x c(3) matches it, and paranoid mode must compare the
    # class profile of the group the entry's expression denotes.
    reg = seeded_registry(3, ["c(3)"])
    reg.add(
        RegistryEntry(
            name="poison",
            expr="c(9)",
            prime=3,
            order=9,
            fingerprint=dsl.evaluate(dsl.parse("prod(c(3),c(3))")).fingerprint(),
            status="good",
            rule="CITED",
        )
    )
    with pytest.raises(ConsistencyError):
        explore(reg, 3, 9, depth=1, paranoid=True)


def _multiplied_orders(columns):
    # A wrong product rule: element orders multiplied, not their lcm taken.
    rows = [(1, 1)]
    for column in columns:
        rows = [(a * c, b * d) for a, b in rows for c, d in column]
    return rows


def _misplaced_wreath_classes(original):
    # A wrong wreath rule: the reps of H's classes on the first d blocks
    # rather than the last d, a conjugate of the class's least element.
    def wrong(table, base_order, degree, n, order):
        rows = []
        for rep, size, o in original(table, base_order, degree, n, order):
            j = rep[0] // degree
            d = math.gcd(j, n)
            h = [[x - (b + j) % n * degree for x in rep[b * degree : (b + 1) * degree]] for b in range(n)]
            h = h[n - d :] + h[: n - d]
            rows.append((tuple(x + (b + j) % n * degree for b, hb in enumerate(h) for x in hb), size, o))
        return rows

    return wrong


def _base_only_wreath_centralizer(original):
    # A wrong wreath rule: the centralizer without its elements of top part
    # c**t, t != 0, which send point 0 off block 0.  They still form a group.
    def wrong(base, n, z, limit):
        key, build = original(base, n, z, limit)
        return key, lambda: tuple(x for x in build() if x[0] < base.degree)

    return wrong


def _first_factor_product_centralizer(original):
    # A wrong product rule: C_G(x) x H, as if y were central in H.
    def wrong(factors, z, limit):
        (first, *_), _ = original(factors, z, limit)
        subs = (first, *factors[1:])
        return subs, lambda: group_mod._product_elements(
            [(s.degree, s._raw_elements(limit)) for s in subs]
        )

    return wrong


@pytest.mark.parametrize(
    "owner, attr, wrong, bound, depth",
    [
        (group_mod, "_product_rows", lambda original: _multiplied_orders, 81, 1),
        # sizes without the factor |H|**(n - d)
        (group_mod, "_wreath_words", lambda original: lambda rows, order, n: original(rows, 1, n), 81, 1),
        (PermGroup, "_derived_order", lambda original: lambda g, limit: 2 * original(g, limit), 81, 1),
        # reps y + x rather than x + y
        (group_mod, "_product_classes", lambda original: lambda tables, o: original(tables[::-1], o), 81, 1),
        (group_mod, "_wreath_classes", _misplaced_wreath_classes, 81, 1),
        # first reached by cent(prod(c(3),wr(c(3),c(3))),order=3,czorder=81)
        (group_mod, "_product_centralizer", _first_factor_product_centralizer, 243, 3),
        (group_mod, "_wreath_centralizer", _base_only_wreath_centralizer, 81, 1),
    ],
)
def test_explore_paranoid_mode_checks_the_factor_rule(monkeypatch, owner, attr, wrong, bound, depth):
    # Products and wreaths take their class tables, centralizers and
    # fingerprints from their factors; paranoid mode compares each with the
    # group's own class walk, centralizer_filter over the closure of its
    # generators and derived subgroup, so a wrong rule is caught there.
    # Nothing else reads these facts against the generators, so without it
    # explore runs to the end.
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, bound, depth=depth)
    with pytest.raises(ConsistencyError, match="from its factors is"):
        explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, bound, depth=depth, paranoid=True)


def test_explore_paranoid_mode_checks_the_recorded_order(monkeypatch):
    # A wrong order recorded for products and wreaths: nothing else reads it
    # against the generators, so only paranoid mode sees that it is twice
    # the order of the group they generate.
    record_factors = PermGroup._record_factors

    def doubled(self, factors, n=None):
        record_factors(self, factors, n)
        self._cache["order"] *= 2
        return self

    monkeypatch.setattr(PermGroup, "_record_factors", doubled)
    explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, 81, depth=1)
    with pytest.raises(ConsistencyError, match=re.escape("order of 'wr(c(1),c(3))' from its factors is 6")):
        explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, 81, depth=1, paranoid=True)


def test_paper_example_registry_bytes_match_golden(tmp_path):
    # Golden file written by the implementation that fingerprinted every
    # group from its own class table; taking the fingerprints of products
    # and wreaths from their factors must not change a byte.
    reg = Registry.with_defaults(2)
    for expr in (E4608, E96, E18432, E192):
        tree = certify(expr, 2, reg)
        replay(tree, 2, reg)
        register_derivation(reg, tree, 2)
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert path.read_bytes() == (GOLDEN / "certify_example_p2.jsonl").read_bytes()


def test_explore_skips_unrealizable_entries(caplog):
    reg = Registry.with_defaults(2)
    reg.add(
        RegistryEntry(
            name="opaque",
            expr=None,
            prime=2,
            order=cyclic(4).order(),
            fingerprint=cyclic(4).fingerprint(),
            status="good",
            rule="CITED",
        )
    )
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        added = explore(reg, 2, 16, depth=1)
    assert any("cannot realize" in m for m in caplog.messages)
    assert all(e.parents != ("opaque",) for e in added)


def test_explore_registry_bytes_match_golden(tmp_path):
    # Golden file written by the implementation that evaluated each step
    # through its own private cache; a shared group memo must not change a
    # byte, and neither may a paranoid rerun.
    golden = (GOLDEN / "explore_p3_bound81.jsonl").read_bytes()
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    explore(reg, 3, 81, depth=6)
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert path.read_bytes() == golden
    assert explore(reg, 3, 81, depth=6, paranoid=True) == []
    reg.save(str(path))
    assert path.read_bytes() == golden


# sha256 of the registry file that explore at p=3, depth 6, writes from c(1)
# and c(3), by order bound.  Written by the implementation that re-expanded
# every entry in every round; the semi-naive rounds must not change a byte.
EXPLORE_P3_DIGESTS = {
    243: "5ec1c6b85cf43993b91b628153d77c9bc297ab2d6f45ea8f5cb4661fd72ef86d",
    729: "9dbf83e32b3b45a6727e9949135cc4365813a1557b30e7df64eecfce0c012ec3",
}


@pytest.mark.parametrize("bound", sorted(EXPLORE_P3_DIGESTS))
def test_explore_registry_bytes_match_digest(tmp_path, bound):
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    explore(reg, 3, bound, depth=6)
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPLORE_P3_DIGESTS[bound]


# sha256 of the registry file that explore at p=2, default depth 3, to order
# 512 writes from the README's certify -p 2 "wr(gl(2,3),c(2))" registry.
# Written by the implementation that filtered every centralizer of a product
# or wreath from the group's own elements; 108 entries.
EXPLORE_P2_DIGEST = "0a1c5cdeba0854cd1f7ed2f47ab8e6aa89b6aa6f2976959c480d7c24d8e11498"


def test_explore_p2_registry_bytes_match_digest(tmp_path):
    reg = seeded_registry(2, ["wr(gl(2,3),c(2))"])
    explore(reg, 2, 512)
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert len(reg.entries) == 108
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPLORE_P2_DIGEST


def test_explore_expands_each_entry_once(monkeypatch):
    # A wreath or a centralizer tried in an earlier round could only find a
    # fingerprint duplicate again, so no entry is wreathed or expanded twice.
    wreathed = []
    expanded = []
    wreath_cyclic_ = constructors.wreath_cyclic
    centralizer_children = registry_mod._centralizer_children

    def recording_wreath(group, n):
        wreathed.append(group)
        return wreath_cyclic_(group, n)

    def recording_children(registry, parent, *args):
        expanded.append(parent.name)
        return centralizer_children(registry, parent, *args)

    monkeypatch.setattr(constructors, "wreath_cyclic", recording_wreath)
    monkeypatch.setattr(registry_mod, "_centralizer_children", recording_children)
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    added = explore(reg, 3, 81, depth=6)
    assert len(added) == 8
    assert len(wreathed) == 2 and wreathed[0] is not wreathed[1]
    assert sorted(expanded) == sorted(set(expanded))
    assert set(expanded) == {"c(1)", "c(3)"} | {e.name for e in added}


def test_explore_names_only_the_centralizers_it_adds(monkeypatch):
    # An expressionless centralizer's name prints its representative; most
    # candidates are fingerprint duplicates, so only added ones are named.
    named = []
    cycle_string = Permutation.cycle_string

    def recording(self):
        named.append(self)
        return cycle_string(self)

    monkeypatch.setattr(Permutation, "cycle_string", recording)
    reg = seeded_registry(2, ["wr(gl(2,3),c(2))"])
    added = explore(reg, 2, 256)
    expressionless = [e for e in added if e.name.startswith("cent[")]
    assert expressionless and len(named) == len(expressionless)


def test_explore_logs_each_round(caplog):
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        explore(reg, 3, 81, depth=6)
    assert [m for m in caplog.messages if m.startswith("explore round")] == [
        "explore round 1: 2 entries, 2 new; candidates WREATH 2, PRODUCT 3, CENTRALIZER 14; "
        "added 4, fingerprint duplicates 15, skipped as already tried 0",
        "explore round 2: 6 entries, 4 new; candidates WREATH 0, PRODUCT 10, CENTRALIZER 0; "
        "added 4, fingerprint duplicates 6, skipped as already tried 19",
        "explore round 3: 10 entries, 4 new; candidates WREATH 0, PRODUCT 5, CENTRALIZER 0; "
        "added 0, fingerprint duplicates 5, skipped as already tried 29",
    ]


# -- the group memo --------------------------------------------------------------


def test_memo_hit_honours_a_smaller_limit(monkeypatch):
    # E96 selects its class from the classes of the order-4608 wreath, so at
    # a limit of 1000 a fresh registry raises; a registry that already built
    # E96 at the default limit must raise too.
    with pytest.raises(ThresholdExceeded):
        certify(E96, 2, Registry.with_defaults(2), limit=1000)
    reg = Registry.with_defaults(2)
    tree = certify(E96, 2, reg)
    replay(tree, 2, reg)
    with pytest.raises(ThresholdExceeded):
        certify(E96, 2, reg, limit=1000)
    with pytest.raises(ThresholdExceeded):
        replay(tree, 2, reg, limit=1000)
    monkeypatch.setenv("CHROMARANK_MAX_ORDER", "1000")
    with pytest.raises(ThresholdExceeded):
        certify(E96, 2, reg)
    with pytest.raises(ThresholdExceeded):
        register_derivation(reg, tree, 2)


def test_certify_replay_register_build_the_class_table_once(monkeypatch):
    # The CENTRALIZER steps select E96's class by a walk over the classes of
    # order 4 alone, so no class table of the order-4608 wreath is built,
    # and the selection is cached: one walk serves certify, replay and
    # register_derivation.
    builds = Counter()
    walks = Counter()
    class_table = PermGroup._class_table
    classes = PermGroup._classes

    def counting_table(self, limit):
        builds[self.order()] += 1
        return class_table(self, limit)

    def counting_walk(self, limit, order=None):
        walks[self.order(), order] += 1
        return classes(self, limit, order)

    monkeypatch.setattr(PermGroup, "_class_table", counting_table)
    monkeypatch.setattr(PermGroup, "_classes", counting_walk)
    reg = Registry.with_defaults(2)
    tree = certify(E96, 2, reg)
    replay(tree, 2, reg)
    register_derivation(reg, tree, 2)
    assert builds[4608] == 0
    assert walks[4608, 4] == 1


def test_certify_and_replay_build_a_centralizer_only_to_evaluate(monkeypatch):
    # The CENTRALIZER step of the search and of replay reads only the class
    # representative; the one build is the evaluation of the expression,
    # where the product takes C(x, y) from C(x) in S_4 and C(y) in S_3.
    calls = []
    centralizer_raw = PermGroup._centralizer_raw

    def counting(self, raw_targets, limit=None):
        calls.append(self.order())
        return centralizer_raw(self, raw_targets, limit)

    monkeypatch.setattr(PermGroup, "_centralizer_raw", counting)
    reg = Registry.with_defaults(2)
    tree = certify("cent(prod(s(4),s(3)),order=2,czorder=48)", 2, reg)
    assert tree.rule == "CENTRALIZER"
    replay(tree, 2, reg)
    assert calls == [144, 24, 6]


def test_explore_over_an_abelian_entry_builds_no_centralizer(monkeypatch):
    # Every class of c(4) is central, so each centralizer is c(4) itself.
    calls = []
    centralizer_raw = PermGroup._centralizer_raw

    def counting(self, raw_targets, limit=None):
        calls.append(self.order())
        return centralizer_raw(self, raw_targets, limit)

    reg = seeded_registry(2, ["c(4)"])
    monkeypatch.setattr(PermGroup, "_centralizer_raw", counting)
    added = explore(reg, 2, 16, depth=1)
    assert [e.name for e in added] == ["prod(c(4),c(4))"]
    assert calls == []
