import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sgideals.cli import CORPUS_NAMES, analysis_report, main, verdict_report
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


def test_validate_accepts_byte_order_mark(tmp_path, capsys):
    # editors on some platforms save UTF-8 with a leading BOM
    _, out, _ = run_cli(capsys, "corpus", "dump", "ef4")
    path = tmp_path / "ef4.cay"
    path.write_bytes(b"\xef\xbb\xbf" + out.encode())
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


def test_analyze_path_text_renders_indices(tmp_path, capsys):
    # a file carries no element names, so the text sets list indices
    s = corpus()["ef4"].semigroup
    path = tmp_path / "ef4.cay"
    path.write_text(format_cayley(s))
    code, text, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    report = analysis_report(str(path), s, None, 10**6)
    assert text.startswith(f"{path}: order 9, one 1, zero 0, hash {report['hash']}\n")
    assert "  nilpotent_elements           {0, 5, 6, 7, 8}\n" in text
    for key, val in report["radicals"].items():
        if key != "flags":
            assert f"  {key:28s} {{{', '.join(map(str, val))}}}\n" in text
    assert "x2" not in text and "note:" not in text


def test_analyze_cap_exceeded_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "ef4", "--cap", "2")
    assert code == 2 and out == ""
    assert err == "cap exceeded: two-sided ideal enumeration truncated\n"


def test_verify_text_names_the_failed_gate(capsys):
    # a blown cap is vacuous with the trace (cap_not_exceeded, False), so
    # every vacuous row names a failed gate
    code, out, _ = run_cli(capsys, "verify", "ef4", "--cap", "2")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 54
    assert all("  (fails: " in r for r in rows if r.split()[1] == "vacuous")
    assert "  Lem2.13      vacuous  (fails: cap_not_exceeded)" in rows
    assert "  Co2.14       vacuous  (fails: left_cancellative)" in rows


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


def test_verify_check_reports_the_registered_id(capsys):
    # an alias runs the check and is reported under its registered id, and
    # a registered id prints the bytes it always did
    code, out, _ = run_cli(capsys, "verify", "--check", "Lemma 3.1", "min2")
    assert code == 0 and out.splitlines()[1] == "  Lem3.1       holds"
    code, out, _ = run_cli(capsys, "verify", "--check", "Lemma 3.1", "min2", "--json")
    assert code == 0 and [r["id"] for r in json.loads(out)["results"]] == ["Lem3.1"]
    code, out, _ = run_cli(capsys, "verify", "--check", "Thm4.8", "chain_x4")
    assert (code, out) == (0, "chain_x4 (hash 2280797121313584)\n  Thm4.8       holds\n")


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
    assert err == "error: no check named 'Thm0.0'\n"


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


def _cli_process(*argv: str, stdout) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "sgideals.cli", *argv],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            stdout=stdout, stderr=subprocess.PIPE)


def test_closed_stdout_is_an_output_error():
    # the reader stops after 100 bytes of some 170 kB of reports, more than
    # a pipe buffers, so the command writes into a closed pipe
    with _cli_process("verify", "--enumerate", "4", "--json", stdout=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err.startswith("error: cannot write output: ") and "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv, to_full", [
    (("enumerate", "4", "--ndjson", "/dev/full"), False),
    (("corpus", "list"), True),
], ids=["ndjson", "stdout"])
def test_full_device_is_an_output_error(argv, to_full):
    with open("/dev/full", "w") as full:
        proc = _cli_process(*argv, stdout=full if to_full else subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == "error: cannot write output: [Errno 28] No space left on device\n"


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


def _register_failing_check(monkeypatch):
    # a synthetic always-failing check exercises the exit-code contract
    from sgideals import verify as verify_mod

    fake = verify_mod.TheoremCheck(
        id="Fake0.0",
        statement="always fails",
        fn=lambda s, cap: iter([{"reason": "synthetic"}]),
    )
    monkeypatch.setitem(verify_mod.CHECKS, "fake0.0", fake)


def test_verify_exit_one_on_discrepancy(capsys, monkeypatch):
    _register_failing_check(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--check", "Fake0.0", "min2")
    assert code == 1 and "discrepancy" in out


def test_analyze_verdicts_exit_one_on_discrepancy(capsys, monkeypatch):
    _register_failing_check(monkeypatch)
    code, out, _ = run_cli(capsys, "analyze", "min2", "--json", "--verdicts")
    assert code == 1
    assert [r["id"] for r in json.loads(out)["verdicts"] if r["status"] == "discrepancy"] == [
        "Fake0.0"]
    code, out, _ = run_cli(capsys, "analyze", "min2", "--verdicts")
    assert code == 1 and "verdicts: 55 checks, 1 discrepancies" in out


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


# -- start-up: each command loads only the modules it calls -----------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# Run the CLI's main in a fresh interpreter, then print the sgideals modules
# it has loaded, and dataclasses if loaded (it pulls in inspect, ast, dis and
# tokenize), so the cases below show that no command loads it.
LOADED_PROBE = """
import contextlib, io, json, sys
import sgideals.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = sgideals.cli.main(sys.argv[1:])
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "sgideals" or m == "dataclasses")))
"""


def _run_fresh(code: str, *argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


BASE = {"sgideals", "sgideals.core", "sgideals.ideals", "sgideals.cli"}
ANALYSIS = {"sgideals.classify", "sgideals.localize", "sgideals.segments"}
VERIFY = ANALYSIS | {"sgideals.verdict", "sgideals.verify"}


@pytest.mark.parametrize("argv, extra", [
    ((), set()),
    (("validate", "FILE"), set()),
    (("corpus", "list"), {"sgideals.corpus"}),
    (("analyze", "FILE", "--json"), ANALYSIS),
    (("checks",), VERIFY),
    (("verify", "FILE"), VERIFY),
], ids=["import", "validate", "corpus-list", "analyze", "checks", "verify"])
def test_commands_load_only_what_they_call(tmp_path, argv, extra):
    path = tmp_path / "ef4.cay"
    path.write_text(format_cayley(corpus()["ef4"].semigroup))
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert set(json.loads(_run_fresh(LOADED_PROBE, *argv))) == BASE | extra


def test_corpus_names_are_the_registry():
    # analyze and verify tell a corpus name from a path by this tuple, so
    # that a path never loads the corpus module
    assert CORPUS_NAMES == tuple(corpus())


# The names `sgideals` exports, by defining module.
EXPORTS = {
    "core": "BadIdentity BadZero CayleyFormatError Mask NotAssociative OneEqualsZero "
            "Semigroup SemigroupError decode_canonical format_cayley mask_contains "
            "mask_elems mask_of parse_cayley",
    "ideals": "CapExceeded IdealKind NotAnIdeal NotProper enumerate_ideals ideal_closure "
              "intersect_powers is_ideal is_nil_set principals right_annihilator",
    "classify": "PrimenessKind RadicalReport associated_prime comparizer_ideals "
                "comparizer_radical comparizer_support exceptional_primes is_comparizer "
                "is_completely_prime is_completely_semiprime is_prime is_prime_variant "
                "is_right_chain is_right_comparizer is_right_waist is_semiprime "
                "is_waist prime_family radicals right_waists",
    "localize": "ComparabilityReport NotCompletelyPrime NotMultClosed equivalence_class "
                "is_right_ore_set is_right_p_comparable right_ore_condition saturate",
    "segments": "PrimeSegment SegmentClass classify_segment completely_prime_spectrum "
                "has_non_nilpotent_over is_locally_invariant pairing_ideal prime_segments "
                "strictly_between tail_intersection",
    "corpus": "CorpusEntry NontrivialUnits NotRightChain all_monoids_with_zero "
              "build_adjoined build_chain_x build_delta build_ef build_min_chain "
              "build_minimal corpus corpus_entry enumerate_monoids_with_zero",
    "verdict": "DISCREPANCY HOLDS VACUOUS Verdict",
    "verify": "Gate TheoremCheck UnknownCheck registered_ids run_check run_suite "
              "search_converse_candidates",
}

# Read every export through the package, in table order, then once more
# after all submodules are loaded; print the names that are not the
# defining module's own binding.
EXPORTS_PROBE = """
import importlib, json, sys
import sgideals
exports = json.loads(sys.argv[1])
bad = []
for _ in range(2):
    for module, names in exports.items():
        for name in names.split():
            home = importlib.import_module("sgideals." + module)
            if getattr(sgideals, name) is not getattr(home, name):
                bad.append(name)
from sgideals import corpus
import sgideals.corpus as corpus_too
if not corpus is corpus_too is sgideals.corpus.__globals__["corpus"]:
    bad.append("import corpus")
print(json.dumps(bad))
"""


def test_package_exports_resolve_to_their_modules():
    assert json.loads(_run_fresh(EXPORTS_PROBE, json.dumps(EXPORTS))) == []
    import sgideals

    names = {n for names in EXPORTS.values() for n in names.split()}
    assert set(sgideals.__all__) == names
    assert names <= set(dir(sgideals))


def test_package_unknown_name_raises_attribute_error():
    import sgideals

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sgideals.no_such_name
    assert not hasattr(sgideals, "DEFAULT_CAP")  # module-level, never exported


def test_package_reads_the_current_binding(monkeypatch):
    # nothing is cached on the package: a binding replaced in its module
    # (as the benchmark's span tracer does) shows through, and so does its
    # restoration
    import sgideals
    from sgideals import ideals

    original = sgideals.enumerate_ideals
    monkeypatch.setattr(ideals, "enumerate_ideals", len)
    assert sgideals.enumerate_ideals is len
    monkeypatch.undo()
    assert sgideals.enumerate_ideals is original is ideals.enumerate_ideals
