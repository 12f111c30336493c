"""The executable property catalog over exhaustively enumerated monoids.

Every registered check returns holds, vacuous (a named hypothesis failed),
or discrepancy (hypotheses satisfied, conclusion refuted, witness attached).
This script sweeps all monoids with zero up to order 4, tallies the
verdicts per check, runs the open-question search for an archimedean
comparable segment that is not locally invariant, and checks on the
left-cancellative classes that the nonunits are the only completely prime
ideal and that no prime ideal is exceptional.
"""
from collections import Counter

from sgideals.classify import exceptional_primes
from sgideals.corpus import all_monoids_with_zero
from sgideals.segments import completely_prime_spectrum
from sgideals.verify import registered_ids, run_suite, search_converse_candidates

pool = []
for n in (2, 3, 4):
    pool.extend(all_monoids_with_zero(n))
print(f"{len(pool)} monoids with zero of order 2..4 (up to isomorphism "
      "fixing the identity and the zero)\n")

tally: dict[str, Counter] = {cid: Counter() for cid in registered_ids()}
for s in pool:
    for cid, v in run_suite(s):
        tally[cid][v.status] += 1

width = max(len(cid) for cid in tally)
print(f"{'check'.ljust(width)}  holds  vacuous  discrepancy")
for cid in registered_ids():
    c = tally[cid]
    print(f"{cid.ljust(width)}  {c['holds']:5d}  {c['vacuous']:7d}  "
          f"{c['discrepancy']:11d}")

assert all(c["discrepancy"] == 0 for c in tally.values())
print("\nno discrepancies at this scale")

found = search_converse_candidates(4)
print("\nsearch for an archimedean, comparable, left-cancellative segment")
print("that is NOT locally invariant (the open converse):",
      f"{len(found)} candidate(s) up to order 4")
if found:
    for cand in found:
        print("  candidate:", cand)

left = [s for s in pool if s.is_left_cancellative()]
shadow = all(completely_prime_spectrum(s) == (s.nonunits_mask(),)
             and exceptional_primes(s) == () for s in left)
print(f"\n{len(left)} of them are left cancellative; on each, the nonunits J are")
print("the only completely prime ideal and no prime ideal is exceptional:", shadow)
print('(README, "Finite shadow": the same holds at every finite order)')
