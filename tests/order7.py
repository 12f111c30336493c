"""One pass over every monoid with zero of order 7.

The 17,267 classes are enumerated once, with the enumerator's limit raised
in process, and each class goes through

- run_suite: the status of every verdict per check, and a sha256 over the
  verdict reports, one sorted-key JSON line per class in enumeration order;
- the principal-cover lemma (README "Principal covers"): for a nonempty
  proper right ideal T, I is the intersection of the translates a*P_r(T)
  over the a outside T; when T lies strictly inside I, I must be cS for
  every c in I outside T;
- the comparability oracle: the report and the saturations of every
  completely prime right ideal against the pair loops of oracles.py;
- the nil test (README "What a check costs"): on every right ideal, some
  power inside {0}, by set products, exactly when every member is
  nilpotent;
- the nil radical and the nilpotent union of radicals against the unions of
  the nil and of the nilpotent two-sided ideals, each decided by set-product
  powers.

It prints the tally as JSON and exits 1 unless the tally equals the one in
order7.json beside this file.  Run from the repository root:

    PYTHONPATH=src:tests python tests/order7.py

It is not a test module (pytest collects test_*.py only): the pass takes
about 40 s on a 2-vCPU host.
"""
import hashlib
import json
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

from oracles import nil_unions_scan, nilpotent_scan, p_comparability_bruteforce
from sgideals.classify import PrimenessKind, associated_primes, prime_family, radicals
from sgideals.core import is_subset, mask_elems
from sgideals.ideals import IdealKind, enumerate_ideals
from sgideals.localize import is_right_p_comparable, saturation_by_element
from sgideals.verify import run_suite

EXPECTED = Path(__file__).with_name("order7.json")


class Tally:
    def __init__(self):
        self.digest = hashlib.sha256()
        self.statuses: dict[str, Counter] = {}
        self.counts = Counter(strict_covers=0, cover_failures=0, reports=0, failing=0,
                              mismatches=0, nilpotency_checked=0, nilpotency_mismatches=0,
                              nil_radical_checked=0, nil_radical_mismatches=0)

    def __call__(self, s) -> None:
        results = run_suite(s)
        line = json.dumps([[cid, v.to_dict()] for cid, v in results], sort_keys=True)
        self.digest.update(line.encode() + b"\n")
        for cid, v in results:
            self.statuses.setdefault(cid, Counter())[v.status] += 1
        self.principal_covers(s)
        self.comparability(s)
        self.nilpotency(s)
        self.nil_radical(s)

    def principal_covers(self, s) -> None:
        for t, p in associated_primes(s):
            trans = s.translates(p)
            inter = s.full
            for a in mask_elems(s.full & ~t):
                inter &= trans[a]
            if t != inter and t & ~inter == 0:
                self.counts["strict_covers"] += 1
                self.counts["cover_failures"] += any(
                    s.right_principal(c) != inter for c in mask_elems(inter & ~t))

    def comparability(self, s) -> None:
        for p in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT):
            want, sat = p_comparability_bruteforce(s, p)
            got = is_right_p_comparable(s, p)
            self.counts["reports"] += 1
            self.counts["failing"] += not got.holds
            self.counts["mismatches"] += got != want or saturation_by_element(s, p) != sat

    def nilpotency(self, s) -> None:
        nil = s.nilpotent_elements()
        for m in enumerate_ideals(s, IdealKind.RIGHT):
            self.counts["nilpotency_checked"] += 1
            self.counts["nilpotency_mismatches"] += nilpotent_scan(s, m) != is_subset(m, nil)

    def nil_radical(self, s) -> None:
        rad = radicals(s)
        self.counts["nil_radical_checked"] += 1
        self.counts["nil_radical_mismatches"] += (rad.nil_radical, rad.nilpotent_union) != (
            nil_unions_scan(s, enumerate_ideals(s, IdealKind.TWO_SIDED)))

    def result(self, classes: int) -> dict:
        total = sum(self.statuses.values(), Counter())
        return {
            "classes": classes,
            "verdicts": total.total(),
            "statuses": dict(sorted(total.items())),
            "verdict_sha256": self.digest.hexdigest(),
            "by_check": {cid: dict(sorted(c.items())) for cid, c in self.statuses.items()},
            **self.counts,
        }


def main() -> int:
    corpus = import_module("sgideals.corpus")
    corpus.MAX_ENUM_ORDER = 7
    tally = Tally()
    got = tally.result(corpus.enumerate_monoids_with_zero(7, sink=tally))
    print(json.dumps(got, sort_keys=True))
    want = json.loads(EXPECTED.read_text())
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            print(f"{key}: expected {want.get(key)!r}, got {got.get(key)!r}", file=sys.stderr)
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main())
