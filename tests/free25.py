"""run_suite on the 32-element F(2, 5).

F(2, 5) is the free monoid on two letters with every word of length at
least 5 sent to 0; it has 458,331 right ideals.  The suite must finish with
54 verdicts, 26 holds and 28 vacuous, none of them for the cap, so a body
that quietly turns vacuous fails too, and a sha256 of the verdicts pins
every trace, witness and note.  It runs in process, because the CLI still
hashes its input with a canonical form that does not finish on this table.

It prints the tally and exits 1 unless it matches.  Run from the repository
root:

    PYTHONPATH=src:tests python tests/free25.py

It is not a test module (pytest collects test_*.py only): the suite takes
about 23 s on a 2-vCPU host.
"""
import hashlib
import json
from collections import Counter

from oracles import free_truncated
from sgideals.verify import run_suite

WANT = "9714f553d9f54ded00aea9522043114f8d3e4db73daa749fbbc48fad96c84dc9"


def main() -> int:
    results = run_suite(free_truncated(2, 5))
    tally = Counter(v.status for _, v in results)
    capped = [cid for cid, v in results if v.note == "cap"]
    digest = hashlib.sha256(json.dumps([[cid, v.to_dict()] for cid, v in results],
                                       sort_keys=True).encode()).hexdigest()
    print(len(results), "verdicts:", dict(tally), "cap notes:", capped, "sha256:", digest)
    return int(tally != {"holds": 26, "vacuous": 28} or bool(capped) or digest != WANT)


if __name__ == "__main__":
    raise SystemExit(main())
