"""Golden digests of the JSON reports.

Each digest is a sha256 over sorted-key JSON, recorded before the check
registry was made declarative, so any change to a report, a verdict, a
hypothesis trace, a witness or a note shows up here.  The pools are run at
the default cap and at cap=4; the small cap sends most checks down the
CapExceeded path, so the gate-vacuous, cap-vacuous and holds paths of the
runner are all pinned.
"""
import hashlib
import json
from collections import Counter

import pytest

from sgideals.cli import analysis_report, verdict_report
from sgideals.core import Semigroup
from sgideals.corpus import all_monoids_with_zero, corpus
from sgideals.ideals import DEFAULT_CAP

GOLDEN = {
    "corpus": "3e6c823e7519c9a3a83c1a1b575dcc99c33d2876fbd3475e73e63de5fc1dd355",
    "pools_default_cap": "71ead62907d301f52558d19ca27fafb1b74aeb309e4c62f0ae3877b6147e9a72",
    "pools_cap4": "8f2a6db30c01fe95d36b2fe994748c147b86cc47318f64332e27931a17582607",
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


def test_small_cap_exercises_every_runner_path():
    tally = Counter()
    for report in _pool_reports(4):
        for row in report["results"]:
            key = row["status"]
            if key == "vacuous" and row["note"] == "cap":
                key = "vacuous_cap"
            tally[key] += 1
    assert tally == {"holds": 1098, "vacuous": 2305, "vacuous_cap": 3671}
