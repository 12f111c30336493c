import hashlib
import json
import random

import pytest

from sgideals.cli import analysis_report, main, verdict_report
from sgideals.core import format_cayley
from sgideals.corpus import build_delta, corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "corpus", "dump", "ef4")
    assert code == 0
    path = tmp_path / "ef4.cay"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and "valid" in out


def test_validate_broken_associativity(tmp_path, capsys):
    path = tmp_path / "bad.cay"
    path.write_text("4 1 0\n0 0 0 0\n0 1 2 3\n0 2 3 3\n0 3 3 2\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "i,j,k" in err or "(" in err  # the witness triple is printed


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "short.cay"
    path.write_text("3 1 0\n0 0 0\n0 1 2\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and "parse error" in err


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/file.cay")
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "analyze", "verify"])
def test_undecodable_input_exits_2(tmp_path, capsys, command):
    path = tmp_path / "binary.cay"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2 and "cannot read" in err


def test_analyze_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "ef4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report == json.loads(json.dumps(report))
    assert report["schema"] == 1
    assert report["radicals"]["nilpotent_elements"] == [0, 5, 6, 7, 8]
    assert any(row["holds"] for row in report["comparability"])
    bottom = [row for row in report["segments"] if row["bottom"]]
    assert bottom and bottom[0]["class"] == "archimedean"
    assert report["notes"]


def test_analyze_text_matches_json_facts(capsys):
    code, text, _ = run_cli(capsys, "analyze", "ef4")
    assert code == 0
    entry = corpus()["ef4"]
    report = analysis_report("ef4", entry.semigroup, entry, 10**6)
    # the text mode is a projection of the same dictionary
    assert f"hash {report['hash']}" in text
    assert "class=archimedean" in text
    assert "note:" in text


def test_analyze_path_target(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "corpus", "dump", "chain_x4")
    path = tmp_path / "c.cay"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_analyze_twelve_elements_does_not_stall(tmp_path, capsys):
    # delta(10) has 10! automorphisms; the canonical hash of a relabelled
    # copy must come from the pruned search, not from all 10! labellings
    delta = build_delta(10)
    perm = list(range(delta.n))
    random.Random(10).shuffle(perm)
    path = tmp_path / "delta10.cay"
    path.write_text(format_cayley(delta.relabel(perm)))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 12
    assert report["hash"] == hashlib.sha256(delta.canonical_form()).hexdigest()[:16]


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "Thm4.8", "chain_x4")
    assert code == 0 and "holds" in out


def test_verify_corpus_exit_codes(capsys):
    for name in corpus():
        code, out, _ = run_cli(capsys, "verify", name)
        assert code == 0, name


def test_verify_enumerate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--enumerate", "3")
    assert code == 0
    assert "enumerated 3 monoids" in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "Thm0.0", "min2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("enumerate", "7"),
    ("verify", "--enumerate", "1"),
    ("analyze", "ef4", "--cap", "0"),
    ("corpus", "dump"),
    ("corpus", "list", "min2"),
    ("verify", "min2", "--enumerate", "3"),
    ("verify",),
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and "Traceback" not in err


def test_enumerate_ndjson(tmp_path, capsys):
    out_path = tmp_path / "out.ndjson"
    code, out, _ = run_cli(capsys, "enumerate", "4", "--ndjson", str(out_path))
    assert code == 0
    count = int(out.strip())
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == count == 15
    row = json.loads(lines[0])
    assert row["n"] == 4 and row["one"] == 1 and row["zero"] == 0
    assert len(row["table"]) == 4 and isinstance(row["canonical"], str)


def test_enumerate_ndjson_unwritable_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "out.ndjson"
    code, out, err = run_cli(capsys, "enumerate", "3", "--ndjson", str(path))
    assert code == 2 and out == ""
    assert f"error: cannot write {path}" in err


def test_enumerate_2(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2")
    assert code == 0 and out.strip() == "1"


def test_enumerate_6(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "6")
    assert code == 0 and out.strip() == "1101"


def test_corpus_list_and_dump_errors(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    for name in ("min2", "ef4", "delta3"):
        assert name in out
    code, _, err = run_cli(capsys, "corpus", "dump", "nope")
    assert code == 2
    assert err.startswith("error: unknown corpus entry 'nope'; have [")


def test_checks_listing(capsys):
    code, out, _ = run_cli(capsys, "checks")
    assert code == 0 and "Thm4.8" in out and "Lem2.1.i" in out


def test_verdict_report_schema(capsys):
    s = corpus()["min2"].semigroup
    rep = verdict_report("min2", s, 10**6, None)
    assert rep == json.loads(json.dumps(rep))
    assert {r["status"] for r in rep["results"]} <= {"holds", "vacuous"}


def test_verify_exit_one_on_discrepancy(capsys, monkeypatch):
    # a synthetic always-failing check exercises the exit-code contract
    from sgideals import verify as verify_mod
    from sgideals.verdict import discrepancy

    fake = verify_mod.TheoremCheck(
        id="Fake0.0",
        statement="always fails",
        fn=lambda s, cap: discrepancy((), {"reason": "synthetic"}),
    )
    monkeypatch.setitem(verify_mod.CHECKS, "fake0.0", fake)
    code, out, _ = run_cli(capsys, "verify", "--check", "Fake0.0", "min2")
    assert code == 1 and "discrepancy" in out


def test_analysis_report_python_dict_roundtrips():
    entry = corpus()["ef4"]
    rep = analysis_report("ef4", entry.semigroup, entry, 10**6)
    assert rep == json.loads(json.dumps(rep))


def test_analyze_with_verdicts(capsys):
    code, out, _ = run_cli(capsys, "analyze", "min2", "--json", "--verdicts")
    assert code == 0
    rep = json.loads(out)
    assert {r["status"] for r in rep["verdicts"]} <= {"holds", "vacuous"}
    code, out, _ = run_cli(capsys, "analyze", "min2", "--verdicts")
    assert code == 0 and "verdicts:" in out


def test_reports_deterministic_across_fresh_instances():
    from sgideals.corpus import build_ef
    from sgideals.verify import run_suite

    a = analysis_report("x", build_ef(4), None, 10**6)
    b = analysis_report("x", build_ef(4), None, 10**6)
    assert a == b
    ra = [(cid, v.to_dict()) for cid, v in run_suite(build_ef(4))]
    rb = [(cid, v.to_dict()) for cid, v in run_suite(build_ef(4))]
    assert ra == rb
