"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated runtime bound is asserted with time.monotonic().
"""
import time

from sgideals.core import Semigroup, mask_contains, mask_of
from sgideals.classify import comparizer_radical, is_completely_prime, is_right_chain, radicals
from sgideals.ideals import IdealKind, enumerate_ideals, is_ideal
from sgideals.localize import is_right_p_comparable, saturate, saturation_by_element
from sgideals.segments import (
    classify_segment,
    prime_segments,
    tail_intersection,
)
from sgideals.corpus import (
    all_monoids_with_zero,
    build_delta,
    build_ef,
    build_min_chain,
    corpus,
)
from sgideals.verify import run_suite, search_converse_candidates

from oracles import (
    beta_bruteforce,
    comparizer_union_bruteforce,
    completely_prime_scan,
    ideals_bruteforce,
    translates_scan,
)

P_EF = mask_of([0, 5, 6, 7, 8])


def _pool_up_to_4():
    out = []
    for n in (2, 3, 4):
        out.extend(all_monoids_with_zero(n))
    return out


def test_criterion_1_ef4_golden_run():
    t0 = time.monotonic()
    s = build_ef(4)
    names = corpus()["ef4"].element_names
    e, f = names.index("e"), names.index("f")
    assert completely_prime_scan(s, P_EF)
    rep = is_right_p_comparable(s, P_EF)
    assert rep.holds
    assert len(set(rep.conditions)) == 1 and rep.conditions[0]
    assert not is_right_chain(s)
    t_mask = s.full & ~P_EF
    sat_e = saturate(s, s.right_principal(e), t_mask)
    sat_f = saturate(s, s.right_principal(f), t_mask)
    assert mask_contains(sat_e, f)
    assert sat_e == sat_f
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS  ef4 golden run ({elapsed:.3f}s)")


def test_criterion_2_example_segments():
    t0 = time.monotonic()
    m4 = build_min_chain(4)
    chain_pairs = 0
    for seg in prime_segments(m4):
        if seg.bottom or seg.lower == mask_of([0]):
            continue
        assert classify_segment(m4, seg).label == "simple"
        chain_pairs += 1
    assert chain_pairs == 3  # the three generated-chain covers
    ef = build_ef(4)
    bottoms = [g for g in prime_segments(ef) if g.bottom]
    assert len(bottoms) == 1
    assert classify_segment(ef, bottoms[0]).label == "archimedean"
    d3 = build_delta(3)
    assert not d3.is_left_cancellative()
    d3_bottoms = [g for g in prime_segments(d3) if g.bottom]
    assert len(d3_bottoms) == 3
    for seg in d3_bottoms:
        assert classify_segment(d3, seg).label == "none"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS  segment classes reproduced ({elapsed:.3f}s)")


def test_criterion_3_idempotent_tail():
    s = build_ef(4)
    names = corpus()["ef4"].element_names
    ef_, e, f = names.index("ef"), names.index("e"), names.index("f")
    q = tail_intersection(s, ef_)
    assert is_ideal(s, q, IdealKind.TWO_SIDED)
    assert mask_contains(q, ef_)
    assert not mask_contains(q, e) and not mask_contains(q, f)
    assert q != s.full and not is_completely_prime(s, q)
    assert not mask_contains(P_EF, ef_)
    # ef is not nilpotent, so no power ideal of ef is zero
    assert not mask_contains(s.nilpotent_elements(), ef_)
    print("\nACCEPTANCE 3 PASS  idempotent power tail reproduced")


def test_criterion_4_corpus_suite():
    t0 = time.monotonic()
    notes_seen = []
    for name, entry in corpus().items():
        for cid, v in run_suite(entry.semigroup):
            assert v.status != "discrepancy", (name, cid, v.witness)
        notes_seen.extend(entry.notes)
    # the saturation display difference lives in the corpus notes only
    assert any("sat(eS)" in note for note in notes_seen)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 PASS  corpus suite clean ({elapsed:.2f}s)")


def test_criterion_5_exhaustive_suite():
    t0 = time.monotonic()
    named = {"thm2.4.i": [0, 0], "thm2.4.iv": [0, 0], "lem2.12.i": [0, 0],
             "pr3.5": [0, 0], "thm4.8": [0, 0]}
    total = 0
    for s in _pool_up_to_4():
        total += 1
        for cid, v in run_suite(s):
            assert v.status != "discrepancy", (s.rows, cid, v.witness)
            key = cid.lower()
            if key in named:
                named[key][1] += 1
                if v.status == "holds":
                    named[key][0] += 1
    assert total == 19
    for key, (held, seen) in named.items():
        assert held > 0, key  # each highlighted check is exercised non-vacuously
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 5 PASS  {total} monoids swept clean ({elapsed:.2f}s)")


def test_criterion_6_oracle_equivalences():
    for s in _pool_up_to_4():
        for kind in IdealKind:
            assert list(enumerate_ideals(s, kind)) == ideals_bruteforce(s, kind.value)
    for s in _pool_up_to_4() + list(all_monoids_with_zero(5)):
        assert comparizer_radical(s) == comparizer_union_bruteforce(s)
    for entry in corpus().values():
        assert radicals(entry.semigroup).prime_radical == beta_bruteforce(entry.semigroup)
    print("\nACCEPTANCE 6 PASS  oracle equivalences exact")


def test_criterion_7_translate_saturation_sweep():
    # forward direction on every pair; the converse on pairs whose common
    # translate is not the zero ideal (zero-translate collisions are a
    # finite truncation artifact, recorded in the decisions log)
    checked_pairs = 0
    targets = _pool_up_to_4() + [e.semigroup for e in corpus().values()]
    for s in targets:
        if not s.is_left_cancellative():
            continue
        for p in [m for m in enumerate_ideals(s, IdealKind.TWO_SIDED)
                  if m and m != s.full and completely_prime_scan(s, m)]:
            if not is_right_p_comparable(s, p).holds:
                continue
            sat = saturation_by_element(s, p)
            trans = translates_scan(s, p)
            for a in range(s.n):
                a_p = trans[a]
                for b in range(a + 1, s.n):
                    b_p = trans[b]
                    if sat[a] == sat[b]:
                        assert a_p == b_p, (s.rows, a, b)
                    if a_p == b_p and a_p != s.zero_mask:
                        assert sat[a] == sat[b], (s.rows, a, b)
                    checked_pairs += 1
    assert checked_pairs > 0
    print(f"\nACCEPTANCE 7 PASS  translate/saturation sweep ({checked_pairs} pairs)")


def test_criterion_8_converse_search():
    found = search_converse_candidates(4)
    for cand in found:
        s = Semigroup(cand["table"], 1, 0)
        assert s.is_left_cancellative()
        upper = mask_of(cand["segment"]["upper"])
        assert is_right_p_comparable(s, upper).holds
    # no assertion on emptiness: the list is the result of the run
    print(f"\nACCEPTANCE 8 PASS  converse search complete, {len(found)} candidate(s)")
