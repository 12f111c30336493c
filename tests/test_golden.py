"""Golden digests of the JSON reports.

Each digest is a sha256 over sorted-key JSON, recorded before the check
registry was made declarative, so any change to a report, a verdict, a
hypothesis trace, a witness or a note shows up here.  The pools are run at
the default cap and at cap=4; the small cap sends most checks down the
CapExceeded path, so the gate-vacuous, cap-vacuous and holds paths of the
runner are all pinned.  The order-6 digest covers the verdict reports of
all 1,101 classes at the default cap; it was recorded before the comparizer
test was rewritten around a table of bounds.  The demos are pinned by a
sha256 of their standard output, recorded before principal ideals moved to
ideals.principals.  The standard output of `sgideals verify --enumerate N
--json` is pinned byte for byte at orders 5 and 6, recorded when the
command still collected its pool through its own enumerator sink; the
order-6 digest is read back from that output, so the 1,101 reports are
computed once.  The verdict reports of the large families (n = 12 to 42)
are pinned at both caps as well, recorded before saturation and element
powers each lost their second implementation.  The corpus, default-cap pool, order-6 and `--enumerate`
pins were recorded again when Thm2.7.i dropped an existence gate that no
finite monoid fails; putting its constant `true` entry back into each
Thm2.7.i trace reproduces the earlier pins exactly.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sgideals.cli import analysis_report, main, verdict_report
from sgideals.core import Semigroup
from sgideals.corpus import (all_monoids_with_zero, build_chain_x, build_delta, build_ef,
                             build_min_chain, corpus)
from sgideals.ideals import DEFAULT_CAP

GOLDEN = {
    "corpus": "8a2cdd9b0c37c24a3c396b386b0e997626a487c36cf93123a7b91cc7b606675b",
    "pools_default_cap": "1d557cd3118a9929771affedca4b44b5d8d9ad177e1d752769ac306c2b566d40",
    "pools_cap4": "8f2a6db30c01fe95d36b2fe994748c147b86cc47318f64332e27931a17582607",
}
# verdict_report of ef(30), min_chain(40), chain_x(30), delta(10) and
# min_chain(10), at the default cap and then at cap 4
LARGE_FAMILIES = "852feac1d1188b09b5575cf82dc7883313e0efc1bea93f02807f0cb111f6e443"
ORDER6 = "c0f00d2bb2e6788b3d8ad9b655ccada1618fc8ac5e0621c62474120ce843353a"
VERIFY_ENUMERATE = {
    5: "b9b035c19dff41d6692ea5b4349e4ed7b1c75478679332fc2efb9731b071080d",
    6: "4517102b9098d237781236c34f18bac620acc1854c51e09139271b363ef4e883",
}
ROOT = Path(__file__).resolve().parent.parent
DEMOS = {
    "01_build_and_validate.py": "74cbb35b0e3814289b3e0f7ea811d6316a354e280c842d8c1103bd94b714e4cb",
    "02_ideals_and_radicals.py": "6519b204639e328fbe628bb2bb24211ca23a9a63d76fbce0a9c357308b1495eb",
    "03_saturation_and_comparability.py": "7f244d3716063a6b560695c17c5e15ac27c2235ac726a5d45be97831d15ea771",
    "04_prime_segments.py": "5ad22848d26abf905ff09e0913313df9ca40975c9d3212e0ac3802ce4459b6ee",
    "05_exhaustive_checks.py": "f45147357f18b544b4a515fc8e7226b91ca3cf7d9798d62deb9111154121f9d9",
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh(s: Semigroup) -> Semigroup:
    return Semigroup(s.rows, s.one, s.zero)


def _corpus_reports():
    out = []
    for name, entry in corpus().items():
        s = _fresh(entry.semigroup)
        report = analysis_report(name, s, entry, DEFAULT_CAP)
        report["verdicts"] = verdict_report(name, s, DEFAULT_CAP, None)["results"]
        out.append(report)
    return out


def _pool_reports(cap: int):
    return [
        verdict_report(f"order{n}#{i}", _fresh(s), cap, None)
        for n in range(2, 6)
        for i, s in enumerate(all_monoids_with_zero(n))
    ]


@pytest.mark.parametrize("part", sorted(GOLDEN))
def test_golden_report_digest(part):
    if part == "corpus":
        payload = _corpus_reports()
    else:
        payload = _pool_reports(4 if part == "pools_cap4" else DEFAULT_CAP)
    assert _digest(payload) == GOLDEN[part]


def test_large_family_reports_digest():
    # traces and notes at n = 12..42, where the benchmark pins statuses only
    large = [("ef(30)", build_ef(30)), ("min_chain(40)", build_min_chain(40)),
             ("chain_x(30)", build_chain_x(30)), ("delta(10)", build_delta(10)),
             ("min_chain(10)", build_min_chain(10))]
    payload = [verdict_report(name, _fresh(s), cap, None)
               for cap in (DEFAULT_CAP, 4) for name, s in large]
    assert _digest(payload) == LARGE_FAMILIES


def _verify_enumerate_stdout(order: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--enumerate", str(order), "--json"]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def order6_stdout():
    return _verify_enumerate_stdout(6)


def _printed_reports(stdout: str) -> list:
    """The JSON reports `verify --json` prints, one after another."""
    decoder = json.JSONDecoder()
    text = stdout.split("\n", 1)[1]  # after the count line
    reports, pos = [], 0
    while pos < len(text):
        report, pos = decoder.raw_decode(text, pos)
        reports.append(report)
        pos += 1  # the newline print adds
    return reports


@pytest.mark.slow
def test_order6_verdict_digest(order6_stdout):
    # `verify --enumerate 6` prints verdict_report(f"order6#{i}", s, cap,
    # None) for each fresh instance of the pool, at the default cap
    reports = _printed_reports(order6_stdout)
    assert [r["semigroup"] for r in reports] == [f"order6#{i}" for i in range(1101)]
    assert _digest(reports) == ORDER6


def test_verify_enumerate_json_bytes_5():
    stdout = _verify_enumerate_stdout(5)
    assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_ENUMERATE[5]


@pytest.mark.slow
def test_verify_enumerate_json_bytes_6(order6_stdout):
    assert hashlib.sha256(order6_stdout.encode()).hexdigest() == VERIFY_ENUMERATE[6]


def test_small_cap_exercises_every_runner_path():
    tally = Counter()
    for report in _pool_reports(4):
        for row in report["results"]:
            key = row["status"]
            if key == "vacuous" and row["note"] == "cap":
                key = "vacuous_cap"
            tally[key] += 1
    assert tally == {"holds": 1098, "vacuous": 2305, "vacuous_cap": 3671}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
def test_demo_output_digest(demo):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS.get(demo)
