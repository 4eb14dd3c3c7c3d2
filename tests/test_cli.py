import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chromarank import chromatic
from chromarank.cli import main, run
from chromarank.group import PermGroup


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.strip(), captured.err.strip()


def test_order(capsys):
    assert run(["order", "wr(gl(2,3),c(2))"]) == 0
    out, _ = out_of(capsys)
    assert out == "4608"


def test_module_runs_the_command_line_from_a_checkout():
    # python -m chromarank works with the checkout's src on PYTHONPATH,
    # with nothing installed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "chromarank", "order", "s(4)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "24\n", "")


def test_order_json(capsys):
    assert run(["order", "s(5)", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["schema"] == "chromarank.v1"
    assert payload["order"] == 120


def test_rank(capsys):
    assert run(["rank", "c(2)", "-p", "2", "-n", "3"]) == 0
    out, _ = out_of(capsys)
    assert out == "8"


def test_loops_height_flag(capsys):
    assert run(["loops", "s(3)", "-p", "2", "-h", "2", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert len(payload["components"]) == 4
    assert payload["h"] == 2
    sizes = sorted(c["orbit_size"] for c in payload["components"])
    assert sizes == [1, 3, 3, 3]


def test_loops_help_still_available(capsys):
    # --help on the loops subparser exits 0 through run()'s SystemExit guard
    assert run(["loops", "--help"]) == 0
    out, _ = out_of(capsys)
    assert "usage" in out


def test_centralizer_of_a_central_class(capsys):
    assert run(["centralizer", "d(4)", "-p", "2", "--elt-order", "2"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines() == [
        "(0 1)(2 3)  centralizer=4  sylow_2=4  class_size=2",
        "(1 3)  centralizer=4  sylow_2=4  class_size=2",
        "(0 2)(1 3)  centralizer=8  sylow_2=8  class_size=1",
    ]


def test_centralizer_table(capsys):
    assert run(
        ["centralizer", "wr(gl(2,3),c(2))", "-p", "2", "--elt-order", "4", "--json"]
    ) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    rows = payload["classes"]
    assert any(r["centralizer_order"] == 96 and r["sylow_order"] == 32 for r in rows)
    cents = [r["centralizer_order"] for r in rows]
    assert cents == sorted(cents)


CENTRALIZER_ROWS = {
    ("wr(gl(2,3),c(2))", "2", "4"): [
        "(0 8)(1 9)(2 10 5 13)(3 11 6 14)(4 12 7 15)  centralizer=8  sylow_2=8  class_size=576",
        "(2 5)(3 6)(4 7)(8 10 9 13)(11 12 15 14)  centralizer=32  sylow_2=32  class_size=144",
        "(0 8 1 9)(2 10 5 13)(3 11 7 15)(4 12 6 14)  centralizer=96  sylow_2=32  class_size=48",
        "(0 2 1 5)(3 4 7 6)(8 10 9 13)(11 12 15 14)  centralizer=128  sylow_2=128  class_size=36",
        "(0 1)(2 5)(3 7)(4 6)(8 10 9 13)(11 12 15 14)  centralizer=384  sylow_2=128  class_size=12",
        "(8 10 9 13)(11 12 15 14)  centralizer=384  sylow_2=128  class_size=12",
    ],
    ("s(5)", "3", "2"): [
        "(1 2)(3 4)  centralizer=8  sylow_3=1  class_size=15",
        "(3 4)  centralizer=12  sylow_3=3  class_size=10",
    ],
    ("s(3)", "2", "7"): ["no conjugacy classes of element order 7"],
}


def assert_centralizer_rows(capsys):
    for (expr, p, order), rows in CENTRALIZER_ROWS.items():
        assert run(["centralizer", expr, "-p", p, "--elt-order", order]) == 0
        out, _ = out_of(capsys)
        assert out.splitlines() == rows


def test_centralizer_builds_no_sylow_subgroup(monkeypatch, capsys):
    # A Sylow p-subgroup of C has order p_part(|C|, p), so none is built.
    def no_sylow(self, *args, **kwargs):
        raise AssertionError("centralizer built a Sylow subgroup")

    monkeypatch.setattr(PermGroup, "sylow_subgroup", no_sylow)
    assert_centralizer_rows(capsys)


def test_centralizer_builds_no_centralizer_subgroup(monkeypatch, capsys):
    # |C(x)| = |G| / |x^G|, and the class walk yields |x^G|.
    def no_centralizer(self, *args, **kwargs):
        raise AssertionError("centralizer built a centralizer subgroup")

    monkeypatch.setattr(PermGroup, "_centralizer_raw", no_centralizer)
    assert_centralizer_rows(capsys)


def test_verify_pass(capsys):
    assert run(["verify", "s(3)", "-p", "2", "-n", "2", "-t", "1"]) == 0
    out, _ = out_of(capsys)
    assert "pass" in out and "lhs=4" in out and "rhs=4" in out


def test_verify_json_schema(capsys):
    assert run(["verify", "d(4)", "-p", "2", "-n", "1", "-t", "0", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["schema"] == "chromarank.v1"
    assert payload["pass"] is True
    assert payload["lhs"] == payload["rhs"]


def test_parse_error_exit_2(capsys):
    assert run(["order", "wr(c(2),"]) == 2
    _, err = out_of(capsys)
    assert "offset 8" in err


def test_superscript_digit_in_an_expression_exit_2(capsys):
    # "²".isdigit() holds, but int() rejects it: only 0-9 are digits.
    assert run(["order", "c(²)"]) == 2
    _, err = out_of(capsys)
    assert err.startswith("error:") and "offset 2" in err


@pytest.mark.parametrize(
    "text, line",
    [("degree 2\n(0 ¹)\n", "line 2"), ("degree ³\n(0 1)\n", "line 1")],
    ids=["point", "degree"],
)
def test_superscript_digit_in_a_generator_file_exit_2(tmp_path, capsys, text, line):
    path = tmp_path / "gens.txt"
    path.write_text(text, encoding="utf-8")
    assert run(["order", f'ingest("{path}")']) == 2
    _, err = out_of(capsys)
    assert err.startswith("error:") and line in err


def test_threshold_exit_3(capsys):
    assert run(["rank", "s(12)", "-p", "2", "-n", "1"]) == 3
    _, err = out_of(capsys)
    assert "desk-scale" in err


def test_height_exit_3(capsys):
    assert run(["loops", "c(2)", "-p", "2", "-h", "9"]) == 3


def test_max_order_flag(capsys):
    assert run(["order", "s(6)", "--max-order", "100"]) == 0  # order needs no enumeration
    assert run(["rank", "s(6)", "-p", "2", "-n", "1", "--max-order", "100"]) == 3


def test_usage_error_exit_2(capsys):
    assert run(["rank", "c(2)", "-p", "4", "-n", "1"]) == 2  # composite p
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_argument_ranges_exit_2(capsys):
    assert run(["rank", "c(2)", "-p", "2", "-n", "-1"]) == 2
    assert run(["loops", "c(2)", "-p", "2", "-h", "-1"]) == 2
    assert run(["order", "c(2)", "--max-order", "0"]) == 2
    assert run(["verify", "c(2)", "-p", "2", "-n", "1", "-t", "2"]) == 2
    assert run(["verify", "c(2)", "-p", "2", "-n", "1", "-t", "-1"]) == 2
    assert run(["centralizer", "c(4)", "-p", "2", "--elt-order", "0"]) == 2
    assert run(["centralizer", "c(4)", "-p", "2", "--elt-order", "-2"]) == 2
    assert run(["explore", "-p", "2", "--bound", "-5", "--depth", "1"]) == 2
    assert run(["explore", "-p", "2", "--bound", "8", "--depth", "-1"]) == 2
    assert run(["certify", "c(2)", "-p", "2", "--depth", "-3"]) == 2
    _, err = out_of(capsys)
    assert "0 <= t <= n" in err


def test_main_exits_with_the_code_of_run(monkeypatch, capsys):
    for argv, code in ((["order", "s(3)"], 0), (["rank", "c(2)", "-p", "2", "-n", "-1"], 2)):
        monkeypatch.setattr(sys, "argv", ["chromarank", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code, argv
    out, _ = out_of(capsys)
    assert out == "6"


def test_internal_value_error_propagates(monkeypatch):
    # A ValueError from inside a command is a bug, not a usage error.
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(chromatic, "hkr_rank", broken)
    with pytest.raises(ValueError, match="internal"):
        run(["rank", "c(2)", "-p", "2", "-n", "1"])


def test_malformed_registry_record_exit_2(tmp_path, capsys):
    path = tmp_path / "reg.jsonl"
    path.write_text(
        '{"name":"x","expr":null,"prime":"two","order":null,"fingerprint":null,'
        '"status":"good","rule":"SEED","parents":[]}\n'
    )
    assert run(["registry", "list", "--registry", str(path)]) == 2
    _, err = out_of(capsys)
    assert "line 1" in err


def test_registry_list_rejects_wrong_json_types(tmp_path, capsys):
    path = tmp_path / "reg.jsonl"
    path.write_text(
        '{"name":"c(3)","expr":"c(3)","prime":3,"order":3.7,"fingerprint":{"order":3,'
        '"exponent":3,"element_order_histogram":[[1,1],[3,2]],"class_size_histogram":[[1,3]],'
        '"center_order":3,"derived_order":1,"abelian":"no"},"status":"good","rule":"SEED",'
        '"parents":"abc"}\n'
    )
    assert run(["registry", "list", "--registry", str(path)]) == 2
    _, err = out_of(capsys)
    assert "'order'" in err and "line 1" in err


def test_explore_refuses_an_order_its_fingerprint_contradicts(tmp_path, capsys):
    path = tmp_path / "reg.jsonl"
    assert run(["certify", "-p", "2", "--registry", str(path), "s(4)"]) == 0
    text = path.read_text().replace('"order":24,"fingerprint"', '"order":2,"fingerprint"')
    path.write_text(text)
    argv = ["explore", "-p", "2", "--bound", "50", "--depth", "1", "--registry", str(path)]
    assert run(argv) == 2
    _, err = out_of(capsys)
    assert "order 2 contradicts" in err and "(line " in err
    assert path.read_text() == text


def test_registry_list_refuses_a_self_contradicting_fingerprint(tmp_path, capsys):
    # s(4)'s line edited to 105 elements of order 24, center order 7.
    path = tmp_path / "reg.jsonl"
    assert run(["certify", "-p", "2", "--registry", str(path), "s(4)"]) == 0
    lines = path.read_text().splitlines()
    (no,) = [i for i, line in enumerate(lines, start=1) if '"name":"s(4)"' in line]
    edited = lines[no - 1].replace(
        '"element_order_histogram":[[1,1],[2,9],[3,8],[4,6]]',
        '"element_order_histogram":[[1,1],[2,90],[3,8],[4,6]]',
    ).replace('"center_order":1,', '"center_order":7,')
    assert edited.count("[2,90]") == edited.count('"center_order":7,') == 1
    lines[no - 1] = edited
    path.write_text("\n".join(lines) + "\n")
    assert run(["registry", "list", "--registry", str(path)]) == 2
    _, err = out_of(capsys)
    assert "counts 105 element orders" in err and f"(line {no})" in err


def test_certify_seeds_an_empty_registry_file(tmp_path, capsys):
    path = tmp_path / "reg.jsonl"
    path.write_text("")
    assert run(["certify", "-p", "3", "--registry", str(path), "c(3)"]) == 0
    names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
    assert "c(3)" in names
    assert {"axiom:abelian", "axiom:symmetric", "axiom:gl-coprime", "axiom:order-p3"} <= set(names)
    assert "unipotent-radical-gl4" in names


def test_certify_at_p13_seeds_the_bad_entry_without_enumerating(tmp_path, capsys):
    # U_4(F_13) has 13**6 elements, past the default limit; its seed
    # fingerprint comes from a closed form.
    path = tmp_path / "reg.jsonl"
    assert run(["certify", "-p", "13", "--registry", str(path), "c(13)"]) == 0
    records = {rec["name"]: rec for rec in map(json.loads, path.read_text().splitlines())}
    bad = records["unipotent-radical-gl4"]
    assert bad["status"] == "bad"
    assert bad["order"] == bad["fingerprint"]["order"] == 4826809
    assert records["c(13)"]["status"] == "good"


def test_certify_at_p3_seeds_the_bad_entry_under_a_small_limit(tmp_path, capsys):
    # U_4(F_3) has 729 elements, past --max-order 100; its seed fingerprint
    # comes from a closed form, so the limit bounds only the certified group.
    records = {}
    for limit in ([], ["--max-order", "100"]):
        path = tmp_path / f"reg{len(limit)}.jsonl"
        assert run(["certify", "-p", "3", *limit, "--registry", str(path), "c(3)"]) == 0
        records[len(limit)] = {
            rec["name"]: rec for rec in map(json.loads, path.read_text().splitlines())
        }
    bad = records[2]["unipotent-radical-gl4"]
    assert bad == records[0]["unipotent-radical-gl4"]
    assert bad["fingerprint"]["exponent"] == 9
    assert records[2]["c(3)"]["status"] == "good"


def test_certify_and_registry_flow(tmp_path, capsys):
    reg_path = str(tmp_path / "reg.jsonl")
    assert run(["certify", "gl(2,3)", "-p", "2", "--registry", reg_path]) == 0
    out, _ = out_of(capsys)
    assert out.startswith("good")
    assert "SEED" in out

    assert run(["explore", "-p", "2", "--bound", "500", "--depth", "1", "--registry", reg_path]) == 0
    out, _ = out_of(capsys)
    assert "added:" in out

    assert run(["registry", "list", "--registry", reg_path, "--json"]) == 0
    out, _ = out_of(capsys)
    entries = json.loads(out)["entries"]
    assert any(e["name"] == "gl(2,3)" for e in entries)

    assert run(["registry", "show", "gl(2,3)", "--registry", reg_path, "--json"]) == 0
    out, _ = out_of(capsys)
    entry = json.loads(out)["entry"]
    assert entry["order"] == 48
    assert entry["fingerprint"]["order"] == 48

    assert run(["registry", "show", "missing", "--registry", reg_path]) == 2


def test_certify_unknown_is_exit_0(capsys):
    assert run(["certify", "d(8)", "-p", "2"]) == 0
    out, _ = out_of(capsys)
    assert out == "unknown"


def test_registry_list_missing_file(capsys):
    assert run(["registry", "list", "--registry", "/nonexistent/reg.jsonl"]) == 2


def test_certify_json(capsys):
    assert run(["certify", "wr(gl(2,3),c(2))", "-p", "2", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["status"] == "good"
    assert payload["derivation"]["rule"] == "WREATH"
    assert payload["derivation"]["premises"][0]["rule"] == "SEED"


EXPLORE_81 = """\
added: 8
wr(c(3),c(3))  order=81  rule=WREATH
cent(wr(c(3),c(3)),order=3,czorder=27)  order=27  rule=CENTRALIZER
cent(wr(c(3),c(3)),order=3,czorder=9)  order=9  rule=CENTRALIZER
cent(wr(c(3),c(3)),order=9,czorder=9)  order=9  rule=CENTRALIZER
prod(c(3),cent(wr(c(3),c(3)),order=3,czorder=27))  order=81  rule=PRODUCT
prod(c(3),cent(wr(c(3),c(3)),order=9,czorder=9))  order=27  rule=PRODUCT
prod(cent(wr(c(3),c(3)),order=3,czorder=9),cent(wr(c(3),c(3)),order=9,czorder=9))  order=81  rule=PRODUCT
prod(cent(wr(c(3),c(3)),order=9,czorder=9),cent(wr(c(3),c(3)),order=9,czorder=9))  order=81  rule=PRODUCT
"""


def test_verbose_logs_explore_rounds_to_stderr(tmp_path, capsys):
    path = tmp_path / "reg.jsonl"
    for expr in ("c(1)", "c(3)"):
        assert run(["certify", expr, "-p", "3", "--registry", str(path)]) == 0
    seeded = path.read_bytes()
    capsys.readouterr()
    command = ["explore", "-p", "3", "--bound", "81", "--depth", "6", "--registry", str(path)]
    assert run(command) == 0
    quiet = capsys.readouterr()
    assert quiet.out == EXPLORE_81
    assert quiet.err == ""
    explored = path.read_bytes()
    path.write_bytes(seeded)
    assert run(command + ["-v"]) == 0
    loud = capsys.readouterr()
    assert loud.out == EXPLORE_81
    assert [line.split(":")[0] for line in loud.err.splitlines()] == [
        "explore round 1",
        "explore round 2",
        "explore round 3",
    ]
    assert path.read_bytes() == explored
    assert logging.getLogger("chromarank").handlers == []
