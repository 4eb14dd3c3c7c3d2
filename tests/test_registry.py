import dataclasses
import hashlib
import json
import logging
import math
import operator
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    hkr_rank,
    register_derivation,
    replay,
    seed_defaults,
    unitriangular4,
    verify_rank_identity,
    wreath_cyclic,
)
from chromarank.group import FINGERPRINT_FIELDS, Fingerprint, PermGroup, Product, Wreath
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


def test_seed_bad_entry_closed_form_is_a_consistent_fingerprint():
    # Fingerprint refuses a record whose fields contradict each other; the
    # closed form must pass at p = 2 too, where it is not U_4's fingerprint.
    for p in (2, 3, 5, 7):
        fp = registry_mod._unitriangular4_fingerprint(p)
        assert fp.order == p**6


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
    # Blank lines are skipped.
    path.write_text("\n" + path.read_text().replace("\n", "\n  \n"))
    assert Registry.load(str(path)).entries == loaded.entries


def test_a_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    # A save that raises part way, here on its second record, leaves the
    # file it would replace byte for byte, and no temporary file beside it.
    reg = Registry.with_defaults(2)
    reg.add(entry_for("c(4)", "c(4)", 2, cyclic(4), parents=("axiom:abelian",)))
    path = tmp_path / "reg.jsonl"
    path.write_bytes(b"old ledger\n")
    to_record = RegistryEntry.to_record
    calls = []

    def failing(self):
        calls.append(self.name)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return to_record(self)

    monkeypatch.setattr(RegistryEntry, "to_record", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        reg.save(str(path))
    assert len(calls) == 2 < len(reg.entries)
    assert path.read_bytes() == b"old ledger\n"
    assert [f.name for f in tmp_path.iterdir()] == ["reg.jsonl"]


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


def test_load_rejects_an_order_its_fingerprint_contradicts(tmp_path):
    # An order below the truth let explore's bound pass groups far above it.
    reg = Registry.with_defaults(2)
    reg.add(entry_for("s(4)", "s(4)", 2, constructors.symmetric(4), parents=("axiom:symmetric",)))
    path = tmp_path / "order.jsonl"
    reg.save(str(path))
    text = path.read_text()
    assert text.count('"order":24,"fingerprint"') == 1
    path.write_text(text.replace('"order":24,"fingerprint"', '"order":2,"fingerprint"'))
    with pytest.raises(ParseError) as exc:
        Registry.load(str(path))
    assert "order 2" in str(exc.value) and f"line {len(reg.entries)}" in str(exc.value)


@pytest.mark.parametrize("order", [0, -4])
def test_entry_order_below_one_is_refused(order):
    with pytest.raises(ChromarankError, match=f"bad order {order}"):
        RegistryEntry("x", None, 2, order, None, "good", "SEED")


@pytest.mark.parametrize("line", ["[1, 2]", '"a string"', "7"])
def test_load_rejects_a_line_that_is_not_an_object(tmp_path, line):
    first = json.dumps(entry_for("c(4)", "c(4)", 2, cyclic(4)).to_record())
    path = tmp_path / "shapes.jsonl"
    path.write_text(first + "\n" + line + "\n")
    with pytest.raises(ParseError) as exc:
        Registry.load(str(path))
    assert "registry record must be a JSON object" in str(exc.value)
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("change, named", [("drop", "missing fields ['derived_order']"),
                                          ("add", "unknown fields ['surprise']")])
def test_load_names_a_missing_or_unknown_fingerprint_field(tmp_path, change, named):
    rec = entry_for("c(4)", "c(4)", 2, cyclic(4)).to_record()
    if change == "drop":
        del rec["fingerprint"]["derived_order"]
    else:
        rec["fingerprint"]["surprise"] = 1
    path = tmp_path / "fields.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError) as exc:
        Registry.load(str(path))
    assert f"fingerprint with {named}" in str(exc.value) and "line 1" in str(exc.value)


def test_load_contradictions_name_their_line(tmp_path):
    good = entry_for("c(4)", "c(4)", 2, cyclic(4))
    cases = {
        "duplicate entry name 'c(4)'": dataclasses.replace(good, expr=None),
        "registry is keyed to prime 2, entry has 3": dataclasses.replace(good, name="c(4)@3", prime=3),
        "contradictory status": dataclasses.replace(good, name="bad-c4", status="bad", rule="CITED"),
    }
    path = tmp_path / "contra.jsonl"
    for message, second in cases.items():
        path.write_text("".join(json.dumps(e.to_record()) + "\n" for e in (good, second)))
        with pytest.raises(ConsistencyError) as exc:
            Registry.load(str(path))
        assert message in str(exc.value) and str(exc.value).endswith("(line 2)"), message


def test_entry_table_lists_the_dataclass_fields_in_order():
    assert list(registry_mod.ENTRY_FIELDS) == [f.name for f in dataclasses.fields(RegistryEntry)]


@st.composite
def _fingerprints(draw):
    # Self-consistent, as Fingerprint refuses any other: the element orders
    # split the order among some of its divisors, and the classes are the
    # central ones plus classes of one size dividing the order.
    order = draw(st.integers(min_value=1, max_value=5000))
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    picked = st.lists(st.sampled_from(divisors), min_size=1, max_size=min(4, order), unique=True)
    orders = sorted(draw(picked))
    k = len(orders) - 1
    cuts = draw(st.lists(st.integers(1, order - 1), min_size=k, max_size=k, unique=True)) if k else []
    bounds = [0, *sorted(cuts), order]
    size = draw(st.sampled_from(divisors[1:] or [1]))
    noncentral = draw(st.integers(0, (order - 1) // size)) if size > 1 else 0
    center = order - size * noncentral
    return Fingerprint(
        order=order,
        exponent=math.lcm(*orders),
        element_order_histogram=tuple(zip(orders, (b - a for a, b in zip(bounds, bounds[1:])))),
        class_size_histogram=((1, center),) + (((size, noncentral),) if noncentral else ()),
        center_order=center,
        derived_order=draw(st.sampled_from(divisors)),
        abelian=center == order,
    )


@st.composite
def _entries(draw):
    fingerprint = draw(st.none() | _fingerprints())
    order = draw(st.none() | st.integers(min_value=1)) if fingerprint is None else fingerprint.order
    return RegistryEntry(
        name=draw(st.text()),
        expr=draw(st.none() | st.text()),
        prime=draw(st.integers()),
        order=order,
        fingerprint=fingerprint,
        status=draw(st.sampled_from(registry_mod.STATUSES)),
        rule=draw(st.text()),
        parents=tuple(draw(st.lists(st.text(), max_size=3))),
    )


@settings(deadline=None, max_examples=200)
@given(_entries())
def test_entry_record_roundtrip_through_json(entry):
    rec = json.loads(json.dumps(entry.to_record()))
    assert RegistryEntry.from_record(rec) == entry
    assert list(rec) == list(registry_mod.ENTRY_FIELDS)
    if entry.fingerprint is not None:
        assert list(rec["fingerprint"]) == list(FINGERPRINT_FIELDS)


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
    # A good entry whose expression does not parse is no witness.
    reg.add(entry_for("unparsed", "prod(", 2, cyclic(5), rule="CITED"))
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
    with pytest.raises(ConsistencyError, match="keyed to prime 3, not 2"):
        certify("c(4)", 2, Registry.with_defaults(3))


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
    # A registry with no axiom entries cannot back a SEED node.
    with pytest.raises(ConsistencyError, match="axiom entry axiom:abelian missing"):
        replay(certify("c(1)", 2, reg), 2, Registry(2))


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


def _bad_entry(expr, fingerprint_of):
    return RegistryEntry(
        name="bad-lookalike",
        expr=expr,
        prime=3,
        order=9,
        fingerprint=dsl.evaluate(dsl.parse(fingerprint_of)).fingerprint(),
        status="bad",
        rule="CITED",
    )


def test_explore_skips_a_fingerprint_collision_with_a_bad_entry(caplog):
    # A bad entry for c(9) stored with the fingerprint of C_3 x C_3: the
    # product c(3) x c(3) matches it, but c(9) has another class profile, so
    # the match is a collision, not a contradiction.
    reg = seeded_registry(3, ["c(3)"])
    reg.add(_bad_entry("c(9)", "prod(c(3),c(3))"))
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        assert explore(reg, 3, 9, depth=1) == []
    assert any("fingerprint collision" in m and "bad-lookalike" in m for m in caplog.messages)
    # The same fingerprint on a bad entry that denotes C_3 x C_3, or that
    # cannot be realized, is a contradiction; the error says why the entry
    # could not be realized, and no log line claims it was skipped.
    for expr, why in (
        ("prod(c(3),c(3))", None),
        (None, "no expression"),
        ("cent(s(4),order=3,czorder=3)", "over the enumeration limit"),
    ):
        reg = seeded_registry(3, ["c(3)"])
        reg.add(_bad_entry(expr, "prod(c(3),c(3))"))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="chromarank.registry"):
            with pytest.raises(ConsistencyError, match="matches bad entry 'bad-lookalike'") as err:
                explore(reg, 3, 9, depth=1, limit=20)
        assert ("cannot be realized" in str(err.value)) == (why is not None), expr
        assert why is None or why in str(err.value), expr
        assert not any("bad-lookalike" in m and "skipping" in m for m in caplog.messages), expr


def test_explore_logs_a_shared_centralizers_collision_once_per_class(caplog):
    # The three classes of elements of order 3 outside the center of
    # C_3 x S_3 share one centralizer, C_3 x C_3, whose fingerprint a bad
    # entry for c(9) carries.  That centralizer is one candidate, but its
    # skip is logged for each class, with each class's name, as a try per
    # class logs it, and the round line counts every class.
    reg = seeded_registry(3, ["prod(c(3),s(3))"])
    reg.add(_bad_entry("c(9)", "prod(c(3),c(3))"))
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        assert explore(reg, 3, 9, depth=1) == []
    skip = "and bad entry bad-lookalike: class profiles differ; skipping"
    assert caplog.messages == [
        f"explore: fingerprint collision between prod(c(3),c(3)) {skip}",
        f"explore: fingerprint collision between cent(prod(c(3),s(3)),order=3,czorder=9) {skip}",
        f"explore: fingerprint collision between cent[prod(c(3),s(3));o3;cz9;(0 1 2)(3 4 5)] {skip}",
        f"explore: fingerprint collision between cent[prod(c(3),s(3));o3;cz9;(0 2 1)(3 4 5)] {skip}",
        "explore round 1: 3 entries, 3 new; candidates WREATH 0, PRODUCT 1, CENTRALIZER 4; "
        "added 0, fingerprint duplicates 1",
    ]


def test_the_seeded_bad_entry_is_realized_by_its_builder(caplog):
    # U_4(F_3) has no expression; SEEDED_GROUPS builds it, so a candidate
    # with its fingerprint but another class profile is a collision, which
    # is skipped, not a contradiction.  A record under its name with another
    # fingerprint is not realized by that builder.
    reg = Registry.with_defaults(3)
    bad = reg.get("unipotent-radical-gl4")
    group, why = registry_mod._realize(reg, bad, None)
    assert why == "" and group.order() == 729 and group.fingerprint() == bad.fingerprint
    assert registry_mod._realize(reg, bad, None) == (group, "")
    lookalike = constructors.abelian((3,) * 6)
    lookalike._cache["fingerprint"] = bad.fingerprint
    assert lookalike.class_profile() != group.class_profile()
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        added = registry_mod._register_candidate(
            reg,
            lambda: "lookalike",
            None,
            3,
            lambda: lookalike.fingerprint(),
            lambda: lookalike,
            "PRODUCT",
            (),
            None,
            False,
            Counter(),
        )
    assert added is None
    collision = "fingerprint collision between lookalike and bad entry unipotent-radical-gl4"
    assert any(collision in m for m in caplog.messages)
    other = dataclasses.replace(bad, order=9, fingerprint=cyclic(9).fingerprint())
    assert registry_mod._realize(Registry.with_defaults(3), other, None) == (
        None,
        "its builder unitriangular4(3) gives another fingerprint",
    )


def _multiplied_orders(columns):
    # A wrong product rule: element orders multiplied, not their lcm taken.
    rows = [(1, 1)]
    for column in columns:
        rows = [(a * c, b * d) for a, b in rows for c, d in column]
    return rows


def _swapped_factor_reps(original):
    # A wrong product rule: reps y + x rather than x + y, from the factors
    # paired in reverse; each class keeps its factor classes' order and size.
    def wrong(factors, limit, keep):
        rows, rep = original(factors[::-1], limit, keep)
        return (((o, size), ks[::-1]) for (o, size), ks in rows), lambda ks: rep(ks[::-1])

    return wrong


def _misplaced_wreath_reps(original):
    # A wrong wreath rule: the reps of H's classes on the first d blocks
    # rather than the last d, a conjugate of the class's least element.
    def wrong(base, n, limit):
        rows, rep = original(base, n, limit)
        degree = base.degree

        def misplaced(key):
            j, word = key
            x, d = rep(key), len(word)
            h = [[v - (b + j) % n * degree for v in x[b * degree : (b + 1) * degree]] for b in range(n)]
            h = h[n - d :] + h[: n - d]
            return tuple(v + (b + j) % n * degree for b, hb in enumerate(h) for v in hb)

        return rows, misplaced

    return wrong


def _base_only_wreath_centralizer(original):
    # A wrong wreath rule: the centralizer without its elements of top part
    # c**t, t != 0, which send point 0 off block 0.  They still form a group.
    def wrong(base, n, z, limit):
        return tuple(x for x in original(base, n, z, limit) if x[0] < base.degree)

    return wrong


def _wreath_words_without_block_count(original):
    # A wrong wreath rule: element orders lcm(o(c_i)), without the factor
    # m = n / d.  The orders still divide |G| and the sizes are right, so
    # the fingerprint stays self-consistent.
    def wrong(rows, base_order, n):
        for j, word, o, size in original(rows, base_order, n):
            yield j, word, o // (n // math.gcd(j, n)), size

    return wrong


def _wreath_derived_without_base_power(original):
    # A wrong wreath rule: |H'| for H wr C_n, without the factor
    # |H|**(n - 1); still a divisor of |G|.
    def wrong(self, limit):
        return self.base._derived_order(limit)

    return wrong


def _product_derived_with_first_factor_order(original):
    # A wrong product rule, the wreath's |H|**(n - 1) |H'| misapplied:
    # |G| |H'| for G x H, not |G'| |H'|; still a divisor of |G x H|.  A
    # product's fingerprint reads the factors' fingerprints, not this rule.
    def wrong(self, limit):
        first, *rest = self.factors
        return first.order() * math.prod(f._derived_order(limit) for f in rest)

    return wrong


def _first_factor_product_centralizer(original):
    # A wrong product rule: C_G(x) x H, as if y were central in H.
    def wrong(factors, targets, limit):
        first, *_ = original(factors, targets, limit)
        return (first, *factors[1:])

    return wrong


def _swapped_product_centralizer_factors(original):
    # A wrong record for product centralizers only, the products that
    # _product_of_centralizers builds through _direct_product: C_H(y) x C_G(x)
    # on the generators of C_G(x) x C_H(y).  Its order, profile and
    # derived order are right, so the fingerprint is too; its class reps
    # are y + x.
    def wrong(self, record):
        if isinstance(record, Product) and sys._getframe(2).f_code.co_name == "_product_of_centralizers":
            record = Product(record.factors[::-1])
        return original(self, record)

    return wrong


@pytest.mark.parametrize(
    "owner, attr, wrong, bound, depth",
    [
        (group_mod, "_product_rows", lambda original: _multiplied_orders, 81, 1),
        (group_mod, "_wreath_words", lambda original: _wreath_words_without_block_count(original), 81, 1),
        (Wreath, "derived_order", _wreath_derived_without_base_power, 81, 1),
        (Product, "derived_order", _product_derived_with_first_factor_order, 81, 1),
        (group_mod, "_paired_classes", _swapped_factor_reps, 81, 1),
        (group_mod, "_wreath_rows", _misplaced_wreath_reps, 81, 1),
        # first reached by cent(prod(c(3),wr(c(3),c(3))),order=3,czorder=81)
        (group_mod, "_product_centralizer", _first_factor_product_centralizer, 243, 3),
        (group_mod, "_wreath_centralizer", _base_only_wreath_centralizer, 81, 1),
        # CENTRALIZER candidates, first reached as above
        (PermGroup, "_record_factors", _swapped_product_centralizer_factors, 243, 3),
        # element orders multiplied, not lcm'd, in a product's fingerprint:
        # a product of element orders divides the order, so the fingerprint
        # agrees with itself, and only the fingerprint reads the rule
        (group_mod, "_convolve", lambda original: lambda hists, combine: original(hists, operator.mul), 81, 1),
    ],
)
def test_explore_paranoid_mode_checks_the_factor_rule(monkeypatch, owner, attr, wrong, bound, depth):
    # Products and wreaths take their class tables, centralizers and
    # fingerprints from their factors; paranoid mode compares each with the
    # group's own class walk, centralizer_filter over the closure of its
    # generators and derived subgroup, so a wrong rule is caught there.
    # Nothing else reads these facts against the generators, so without it
    # explore runs to the end.  Each wrong rule here keeps the fingerprint
    # self-consistent; Fingerprint refuses one that is not in either mode
    # (test_explore_refuses_a_wrong_rule_that_breaks_a_fingerprint).
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, bound, depth=depth)
    with pytest.raises(ConsistencyError, match="from its factors is"):
        explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, bound, depth=depth, paranoid=True)


def test_explore_paranoid_mode_checks_the_centralizer_is_the_reps(monkeypatch):
    # A centralizer candidate must be the group _centralizer_raw gives for
    # its class rep.  A copy of it has the same elements, so it passes the
    # element comparison, and paranoid mode names it; explore without it
    # runs to the end.
    class_rows = PermGroup._class_rows

    def copied(self, limit, keep):
        rows, rep, centralizer = class_rows(self, limit, keep)

        def copy(key):
            sub = centralizer(key)
            return PermGroup(sub.degree, sub.generators)

        return rows, rep, copy

    monkeypatch.setattr(PermGroup, "_class_rows", copied)
    explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, 81, depth=1)
    with pytest.raises(ConsistencyError, match="is not the centralizer of its class rep"):
        explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, 81, depth=1, paranoid=True)


def _record_doubled_orders(monkeypatch):
    # A wrong order recorded for products and wreaths: twice the order of
    # the group they generate.
    record_factors = PermGroup._record_factors

    def doubled(self, record):
        record_factors(self, record)
        self._cache["order"] *= 2
        return self

    monkeypatch.setattr(PermGroup, "_record_factors", doubled)


def test_explore_refuses_a_recorded_order_that_breaks_a_fingerprint(monkeypatch):
    # A doubled order contradicts the element count of the class profile
    # taken from the factors, so the fingerprint refuses it in either mode,
    # before paranoid mode compares it with the chain's order.
    _record_doubled_orders(monkeypatch)
    for paranoid in (False, True):
        with pytest.raises(ChromarankError, match=re.escape("fingerprint of order 6 counts 3 element orders")):
            explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, 81, depth=1, paranoid=paranoid)


def test_explore_paranoid_mode_checks_the_recorded_order(monkeypatch):
    # Paranoid mode's first comparison (_check_factor_rule), called here
    # directly since explore's fingerprint refuses a doubled order first:
    # the recorded order against the stabilizer chain of the generators.
    _record_doubled_orders(monkeypatch)
    group = wreath_cyclic(cyclic(1), 3)
    with pytest.raises(
        ConsistencyError,
        match=re.escape("order of 'wr(c(1),c(3))' from its factors is 6, its generators give 3"),
    ):
        registry_mod._check_factor_rule(lambda: "wr(c(1),c(3))", group, 10_000)


@pytest.mark.parametrize(
    "owner, attr, wrong, message",
    [
        # class sizes without the factor |H|**(n - d)
        (
            group_mod,
            "_wreath_words",
            lambda original: lambda rows, order, n: original(rows, 1, n),
            "fingerprint of order 81 counts 33 element orders",
        ),
        # twice |G'|, which divides no odd order
        (
            PermGroup,
            "_derived_order",
            lambda original: lambda g, limit: 2 * original(g, limit),
            "fingerprint derived order 2 does not divide order 1",
        ),
    ],
)
def test_explore_refuses_a_wrong_rule_that_breaks_a_fingerprint(monkeypatch, owner, attr, wrong, message):
    # A fingerprint whose fields contradict each other is refused when it
    # is made, so these wrong rules stop explore with or without paranoid
    # mode.
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    for paranoid in (False, True):
        with pytest.raises(ChromarankError, match=re.escape(message)):
            explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, 81, depth=1, paranoid=paranoid)


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


@pytest.mark.parametrize("name", ["certify_example_p2.jsonl", "explore_p3_bound81.jsonl"])
def test_golden_registries_load_and_save_back_byte_identical(tmp_path, name):
    path = tmp_path / name
    Registry.load(str(GOLDEN / name)).save(str(path))
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def _with_opaque_entry(reg):
    # A good entry with no expression and no builder: it cannot be realized.
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
    return reg


def test_explore_skips_unrealizable_entries(caplog):
    # With c(2) beside it, the entry is no product factor either.
    reg = _with_opaque_entry(seeded_registry(2, ["c(2)"]))
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        added = explore(reg, 2, 16, depth=1)
    assert any("cannot realize" in m for m in caplog.messages)
    assert added and all("opaque" not in e.parents for e in added)


def test_explore_realizes_each_entry_once(caplog):
    # An unrealizable entry is logged once per call, not once per round;
    # the rounds are unchanged.
    reg = _with_opaque_entry(seeded_registry(2, ["c(2)"]))
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        explore(reg, 2, 16, depth=3)
    assert sum("cannot realize opaque" in m for m in caplog.messages) == 1
    assert [m for m in caplog.messages if m.startswith("explore round")] == [
        "explore round 1: 2 entries, 2 new; candidates WREATH 1, PRODUCT 1, CENTRALIZER 3; "
        "added 2, fingerprint duplicates 3",
        "explore round 2: 4 entries, 2 new; candidates WREATH 0, PRODUCT 3, CENTRALIZER 0; "
        "added 3, fingerprint duplicates 0",
        "explore round 3: 7 entries, 3 new; candidates WREATH 0, PRODUCT 1, CENTRALIZER 6; "
        "added 1, fingerprint duplicates 6",
    ]


def test_explore_skips_candidates_past_the_limit(caplog):
    # s(5) is past the enumeration limit, so its centralizers are not tried
    # and no product with it is registered; round 2 does not come back to
    # its centralizers, and each round counts the products it skips.
    reg = seeded_registry(2, ["s(5)", "c(2)"])
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        added = explore(reg, 2, 10**4, depth=2, limit=100)
    assert added and all("s(5)" not in e.parents for e in added)
    messages = caplog.messages
    assert (
        "explore: skipping prod(c(2),s(5)): desk-scale exceeded: group order 240 > limit 100"
        in messages
    )
    assert messages.count("explore: s(5) too large to enumerate for centralizers") == 1
    assert [m for m in messages if m.startswith("explore round")] == [
        "explore round 1: 2 entries, 2 new; candidates WREATH 1, PRODUCT 2, CENTRALIZER 3; "
        "added 3, fingerprint duplicates 2",
        "explore round 2: 5 entries, 3 new; candidates WREATH 3, PRODUCT 12, CENTRALIZER 20; "
        "added 12, fingerprint duplicates 19",
    ]


def test_explore_logs_an_abelian_entry_past_the_limit_once(caplog):
    # ab(2,4) has only central classes, so it never has a centralizer
    # candidate; past the limit it is still reported, once per call.
    reg = seeded_registry(2, ["ab(2,4)", "c(2)"])
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        added = explore(reg, 2, 64, depth=2, limit=4)
    assert [e.name for e in added] == ["prod(c(2),c(2))"]
    messages = caplog.messages
    assert messages.count("explore: ab(2,4) too large to enumerate for centralizers") == 1
    assert len([m for m in messages if m.startswith("explore round")]) == 2


def test_explore_tries_no_centralizer_of_an_abelian_entry(caplog):
    # prod(c(3),c(3)) is abelian: every class is central, so explore builds
    # no class table of it, and each round is the one that walking its
    # classes gave.
    reg = seeded_registry(3, ["c(3)", "prod(c(3),c(3))"])
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        explore(reg, 3, 243, depth=3)
    group = reg._memo(None)["prod(c(3),c(3))"]
    assert "classes" not in group._cache
    assert [m for m in caplog.messages if m.startswith("explore round")] == [
        "explore round 1: 2 entries, 2 new; candidates WREATH 1, PRODUCT 3, CENTRALIZER 14; "
        "added 4, fingerprint duplicates 14",
        "explore round 2: 6 entries, 4 new; candidates WREATH 0, PRODUCT 8, CENTRALIZER 0; "
        "added 6, fingerprint duplicates 2",
        "explore round 3: 12 entries, 6 new; candidates WREATH 0, PRODUCT 5, CENTRALIZER 42; "
        "added 1, fingerprint duplicates 46",
    ]


def test_explore_suffixes_a_taken_name():
    # A good entry already holds the wreath's name with another fingerprint.
    reg = seeded_registry(2, ["c(2)"])
    reg.add(
        RegistryEntry(
            name="wr(c(2),c(2))",
            expr=None,
            prime=2,
            order=8,
            fingerprint=dsl.evaluate(dsl.parse("ab(2,4)")).fingerprint(),
            status="good",
            rule="CITED",
        )
    )
    added = explore(reg, 2, 8, depth=1)
    assert "wr(c(2),c(2))#2" in [e.name for e in added]
    assert reg.get("wr(c(2),c(2))#2").expr == "wr(c(2),c(2))"
    # With the name and its #2 taken, the next free suffix is #3.
    reg = seeded_registry(2, ["c(2)"])
    for name, text in (("wr(c(2),c(2))", "ab(2,4)"), ("wr(c(2),c(2))#2", "c(8)")):
        group = dsl.evaluate(dsl.parse(text))
        reg.add(entry_for(name, None, 2, group, rule="CITED"))
    explore(reg, 2, 8, depth=1)
    assert reg.get("wr(c(2),c(2))#3").expr == "wr(c(2),c(2))"


def test_every_entry_point_refuses_a_composite_prime_alike():
    # One check (arith.check_prime) serves the registry, the search, explore,
    # the Sylow subgroup and the ranks.
    for call in (
        lambda: Registry(4),
        lambda: seed_defaults(4),
        lambda: certify("c(1)", 4, Registry()),
        lambda: explore(Registry(), 4, 16),
        lambda: cyclic(4).sylow_subgroup(4),
        lambda: hkr_rank(cyclic(4), 4, 1),
    ):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            call()


def test_explore_refuses_a_composite_or_foreign_prime():
    with pytest.raises(ValueError, match="4 is not prime"):
        explore(Registry.with_defaults(2), 4, 16)
    with pytest.raises(ConsistencyError, match="keyed to prime 3, not 2"):
        explore(Registry.with_defaults(3), 2, 16)


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
    # Written by the implementation that scanned H for every wreath
    # centralizer and tried every class of a product as its own candidate.
    19683: "84478f77e7f3960f04e97c9b43148acabc1fe60403ddfe16f5ae50cdd8ee5132",
}


@pytest.mark.parametrize("bound", sorted(EXPLORE_P3_DIGESTS))
def test_explore_registry_bytes_match_digest(tmp_path, bound):
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    explore(reg, 3, bound, depth=6)
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPLORE_P3_DIGESTS[bound]


# The round log lines of explore at p=3, depth 6, to order 243 from c(1) and
# c(3), as the implementation that built every candidate before looking up
# its fingerprint logged them: 22 of the 30 PRODUCT candidates and 53 of the
# 56 CENTRALIZER candidates are fingerprint duplicates.
EXPLORE_P3_243_ROUNDS = [
    "explore round 1: 2 entries, 2 new; candidates WREATH 2, PRODUCT 3, CENTRALIZER 14; "
    "added 4, fingerprint duplicates 15",
    "explore round 2: 6 entries, 4 new; candidates WREATH 0, PRODUCT 13, CENTRALIZER 0; "
    "added 7, fingerprint duplicates 6",
    "explore round 3: 13 entries, 7 new; candidates WREATH 0, PRODUCT 13, CENTRALIZER 42; "
    "added 1, fingerprint duplicates 54",
    "explore round 4: 14 entries, 1 new; candidates WREATH 0, PRODUCT 1, CENTRALIZER 0; "
    "added 0, fingerprint duplicates 1",
]


def test_explore_p3_rounds_match_the_pinned_lines(caplog):
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        explore(reg, 3, 243, depth=6)
    assert [m for m in caplog.messages if m.startswith("explore round")] == EXPLORE_P3_243_ROUNDS


def test_explore_builds_no_product_duplicate(monkeypatch, caplog):
    # A product candidate and a centralizer candidate of a recorded product
    # take their fingerprints from their factors', so a fingerprint
    # duplicate among them calls no direct_product and builds no subgroup
    # of the candidate's degree from elements (its factor centralizers,
    # interned in the factors, have smaller degrees; a product's
    # centralizer is built from their generators).  The classes of a
    # product that share a centralizer make one candidate, and the round
    # lines still count each class: all 42 centralizer candidates of
    # products are duplicates.
    built = []
    direct_product = constructors.direct_product
    subgroup_from_elements = group_mod._subgroup_from_elements
    register_candidate = registry_mod._register_candidate
    centralizer_children = registry_mod._centralizer_children
    checked = Counter()

    def recording_product(g, h):
        built.append(("product", g.degree + h.degree))
        return direct_product(g, h)

    def recording_subgroup(degree, elements):
        built.append(("subgroup", degree))
        return subgroup_from_elements(degree, elements)

    def checking(registry, name, expr, p, fingerprint, build, rule, parents, *rest):
        checked[f"{rule} tried"] += 1
        if rule != "PRODUCT":
            return register_candidate(registry, name, expr, p, fingerprint, build, rule, parents, *rest)
        memo = registry._memo(None)
        degree = sum(memo[registry_mod._memo_key(e.name, e.expr)].degree for e in map(registry.get, parents))
        del built[:]
        entry = register_candidate(registry, name, expr, p, fingerprint, build, rule, parents, *rest)
        if entry is None:
            assert all(kind == "subgroup" and d < degree for kind, d in built), (name(), built)
            checked[rule] += 1
        return entry

    def checking_children(registry, parent, group, p, bound, limit, paranoid, tally):
        if not isinstance(group._record(own=True), Product):
            return centralizer_children(registry, parent, group, p, bound, limit, paranoid, tally)
        del built[:]
        before, tried = tally.copy(), checked["CENTRALIZER tried"]
        added = centralizer_children(registry, parent, group, p, bound, limit, paranoid, tally)
        assert all(kind == "subgroup" and d < group.degree for kind, d in built), (parent.name, built)
        checked["CENTRALIZER"] += tally["CENTRALIZER"] - before["CENTRALIZER"]
        checked["CENTRALIZER duplicate"] += tally["duplicate"] - before["duplicate"]
        checked["CENTRALIZER of a product tried"] += checked["CENTRALIZER tried"] - tried
        return added

    monkeypatch.setattr(constructors, "direct_product", recording_product)
    monkeypatch.setattr(group_mod, "_subgroup_from_elements", recording_subgroup)
    monkeypatch.setattr(registry_mod, "_register_candidate", checking)
    monkeypatch.setattr(registry_mod, "_centralizer_children", checking_children)
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        explore(reg, 3, 243, depth=6)
    assert [m for m in caplog.messages if m.startswith("explore round")] == EXPLORE_P3_243_ROUNDS
    # 42 classes of products with 6 distinct centralizers among them
    assert checked == {
        "WREATH tried": 2,
        "PRODUCT tried": 30,
        "PRODUCT": 22,
        "CENTRALIZER tried": 12,
        "CENTRALIZER of a product tried": 6,
        "CENTRALIZER": 42,
        "CENTRALIZER duplicate": 42,
    }


def test_explore_paranoid_mode_builds_and_checks_every_candidate(monkeypatch, tmp_path):
    # Paranoid mode builds each candidate, duplicates included, and checks
    # each one with a factor record against a copy with none.
    register_candidate = registry_mod._register_candidate
    check_factor_rule = registry_mod._check_factor_rule
    candidates, built, checked = [], [], []

    def recording(registry, name, expr, p, fingerprint, build, *rest):
        candidates.append(name())

        def recording_build():
            group = build()
            built.append((name(), group))
            return group

        return register_candidate(registry, name, expr, p, fingerprint, recording_build, *rest)

    def recording_check(name, group, limit):
        checked.append(group)
        return check_factor_rule(name, group, limit)

    monkeypatch.setattr(registry_mod, "_register_candidate", recording)
    monkeypatch.setattr(registry_mod, "_check_factor_rule", recording_check)
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    explore(reg, 3, 243, depth=6, paranoid=True)
    assert len(candidates) == 2 + 30 + 56
    assert sorted({name for name, _ in built}) == sorted(set(candidates))
    recorded = {id(g) for _, g in built if g.factor_record() is not None}
    assert recorded and recorded <= {id(g) for g in checked}
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPLORE_P3_DIGESTS[243]


def test_explore_paranoid_mode_checks_a_fingerprint_taken_before_the_build(monkeypatch):
    # A wrong rule for the fingerprint of a product candidate, which is not
    # built: its first factor's fingerprint.  Without paranoid mode each
    # such candidate passes for a duplicate of that factor; paranoid mode
    # builds it and compares.
    monkeypatch.setattr(registry_mod, "product_fingerprint", lambda prints: prints[0])
    explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, 243, depth=6)
    with pytest.raises(ConsistencyError, match="differs from its built group's"):
        explore(seeded_registry(3, ["c(1)", "c(3)"]), 3, 243, depth=6, paranoid=True)


@pytest.mark.parametrize("bound", [243, 729])
def test_explore_paranoid_mode_compares_fingerprints(monkeypatch, tmp_path, bound):
    # Paranoid mode compares the fingerprint of every group with a factor
    # record, last of its facts, with that of a copy with no record, and
    # writes the registry that explore writes without it.
    compared = Counter()
    compare = registry_mod._compare_factor_fact

    def counting(name, fact, ruled, enumerated):
        compared[fact] += 1
        return compare(name, fact, ruled, enumerated)

    monkeypatch.setattr(registry_mod, "_compare_factor_fact", counting)
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    explore(reg, 3, bound, depth=6, paranoid=True)
    assert compared["fingerprint"] == compared["order"] > 0
    assert [fact for fact, _ in registry_mod._FACTOR_FACTS][-1] == "fingerprint"
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPLORE_P3_DIGESTS[bound]


# sha256 of the registry file that explore at p=2, default depth 3, to order
# 512 writes from the README's certify -p 2 "wr(gl(2,3),c(2))" registry.
# Written by the implementation that filtered every centralizer of a product
# or wreath from the group's own elements; 108 entries.
EXPLORE_P2_DIGEST = "0a1c5cdeba0854cd1f7ed2f47ab8e6aa89b6aa6f2976959c480d7c24d8e11498"


def test_explore_p2_registry_bytes_match_digest(tmp_path, caplog):
    reg = seeded_registry(2, ["wr(gl(2,3),c(2))"])
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        explore(reg, 2, 512)
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert len(reg.entries) == 108
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPLORE_P2_DIGEST
    assert [m for m in caplog.messages if m.startswith("explore round")] == [
        "explore round 1: 2 entries, 2 new; candidates WREATH 0, PRODUCT 0, CENTRALIZER 28; "
        "added 13, fingerprint duplicates 15",
        "explore round 2: 15 entries, 13 new; candidates WREATH 5, PRODUCT 34, CENTRALIZER 418; "
        "added 37, fingerprint duplicates 420",
        "explore round 3: 52 entries, 37 new; candidates WREATH 4, PRODUCT 99, CENTRALIZER 1204; "
        "added 51, fingerprint duplicates 1256",
    ]


# The round lines test_explore_p2_registry_bytes_match_digest pins.
EXPLORE_P2_512_ROUNDS = [
    "explore round 1: 2 entries, 2 new; candidates WREATH 0, PRODUCT 0, CENTRALIZER 28; "
    "added 13, fingerprint duplicates 15",
    "explore round 2: 15 entries, 13 new; candidates WREATH 5, PRODUCT 34, CENTRALIZER 418; "
    "added 37, fingerprint duplicates 420",
    "explore round 3: 52 entries, 37 new; candidates WREATH 4, PRODUCT 99, CENTRALIZER 1204; "
    "added 51, fingerprint duplicates 1256",
]


def test_explore_p2_paranoid_mode_writes_the_pinned_bytes(tmp_path, caplog):
    # Paranoid mode checks every factor rule, fingerprint and centralizer
    # that the p=2 explore reads, against the groups' generators, and writes
    # the bytes explore writes without it.  p=3 explores never meet a wreath
    # centralizer whose base word is periodic; this one does, so it fails
    # when _aperiodic_class_word misjudges one.
    reg = seeded_registry(2, ["wr(gl(2,3),c(2))"])
    with caplog.at_level(logging.INFO, logger="chromarank.registry"):
        explore(reg, 2, 512, paranoid=True)
    path = tmp_path / "reg.jsonl"
    reg.save(str(path))
    assert len(reg.entries) == 108
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPLORE_P2_DIGEST
    assert [m for m in caplog.messages if m.startswith("explore round")] == EXPLORE_P2_512_ROUNDS


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
        "added 4, fingerprint duplicates 15",
        "explore round 2: 6 entries, 4 new; candidates WREATH 0, PRODUCT 10, CENTRALIZER 0; "
        "added 4, fingerprint duplicates 6",
        "explore round 3: 10 entries, 4 new; candidates WREATH 0, PRODUCT 5, CENTRALIZER 0; "
        "added 0, fingerprint duplicates 5",
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


class _CountingEnviron(dict):
    """An environment that counts reads of the enumeration limit."""

    reads = 0

    def get(self, key, default=None):
        self.reads += key == group_mod.LIMIT_ENV_VAR
        return super().get(key, default)


def test_public_entry_points_resolve_the_limit_once(monkeypatch):
    # Each call reads CHROMARANK_MAX_ORDER once, at entry, and passes the
    # resolved limit on; every cached lookup below it checks that integer.
    env = _CountingEnviron({group_mod.LIMIT_ENV_VAR: "100000"})
    monkeypatch.setattr(group_mod, "os", type("os", (), {"environ": env}))
    reg = seeded_registry(3, ["c(1)", "c(3)"])
    wreath = certify("wr(c(3),c(3))", 3, reg)
    product = certify("prod(c(3),wr(c(3),c(3)))", 3, reg)
    # register_derivation first, while the registry lacks the product
    calls = {
        "register_derivation": lambda limit: register_derivation(reg, product, 3, limit=limit),
        "explore": lambda limit: explore(reg, 3, 243, limit=limit),
        "certify": lambda limit: certify("wr(c(3),c(3))", 3, reg, limit=limit),
        "replay": lambda limit: replay(wreath, 3, reg, limit=limit),
        "verify_rank_identity": lambda limit: verify_rank_identity(
            wreath_cyclic(cyclic(3), 3), 3, 2, 1, limit=limit
        ),
    }
    for name, call in calls.items():
        env.reads = 0
        call(None)
        assert env.reads == 1, name
        with pytest.raises(ValueError, match="enumeration limit must be positive"):
            call(0)


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
