import pytest

from sgideals.core import Semigroup, mask_elems, mask_of
from sgideals.classify import comparizer_radical
from sgideals.ideals import is_nilpotent_ideal
from sgideals.localize import is_right_p_comparable
from sgideals.segments import completely_prime_spectrum
from sgideals.corpus import build_chain_x, build_delta, build_minimal, corpus
from sgideals.verify import (
    CHECKS,
    UnknownCheck,
    _incomparable_pair,
    normalize_id,
    registered_ids,
    run_check,
    run_suite,
    search_converse_candidates,
)


def test_id_normalization():
    assert normalize_id("Lemma2.1.i") == "lem2.1.i"
    assert normalize_id("THEOREM 2.4.iv") == "thm2.4.iv"
    assert normalize_id("prop3.5") == "pr3.5"
    assert normalize_id("Corollary 2.9") == "co2.9"
    assert normalize_id("Thm4.8") == "thm4.8"


def test_registry_keys_are_normalised():
    # run_check looks a key up as given before normalising it
    assert all(normalize_id(key) == key for key in CHECKS)
    s = build_chain_x(4)
    for spelling in ("Lemma 2.1.ii", "lem2.1.ii", "LEM_2.1.ii"):
        assert run_check(s, spelling) == run_check(s, "Lem2.1.ii")


def test_incomparable_pair():
    assert _incomparable_pair([0b1, 0b11, 0b100, 0b110]) == (0b1, 0b100)
    assert _incomparable_pair([0b1, 0b11, 0b111]) is None
    assert _incomparable_pair([]) is None


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check(build_minimal(), "Thm9.9")


def test_registry_covers_catalog():
    ids = registered_ids()
    assert len(ids) == len(set(ids))
    for prefix in ("Lem2.1", "Lem2.2", "Pr2.3", "Thm2.4", "Lem2.5", "Lem2.6",
                   "Thm2.7", "Thm2.8", "Co2.9", "Thm2.10", "Lem2.12", "Lem2.13",
                   "Co2.14", "Lem3.1", "Lem3.4", "Pr3.5", "Thm3.6", "Lem3.7",
                   "Thm3.8", "Co3.9", "Pr3.10", "Lem3.11", "Co3.12", "Thm3.13",
                   "Lem3.14", "Pr3.15", "Lem4.4", "Lem4.5", "Lem4.6", "Thm4.8",
                   "Lem4.10"):
        assert any(i.startswith(prefix) for i in ids), prefix
    for check in CHECKS.values():
        assert check.statement  # every check describes its content


def test_known_verdicts():
    c4 = build_chain_x(4)
    assert run_check(c4, "Thm2.4.iv").status == "holds"
    assert run_check(c4, "Thm3.8").status == "holds"
    ef = corpus()["ef4"].semigroup
    v = run_check(ef, "Thm3.8")
    assert v.status == "vacuous"
    assert ("left_cancellative", False) in v.hypothesis_trace
    for s in (c4, ef, build_minimal(), build_delta(3)):
        assert run_check(s, "Lemma2.1.i").status == "holds"


def test_gates_have_pass_and_fail_instances():
    c4 = build_chain_x(4)  # left cancellative, comparizer radical nonnilpotent
    d3 = build_delta(3)    # fails left cancellation
    for cid in ("Thm2.8.i", "Thm2.8.ii", "Thm2.8.iii", "Co2.9", "Thm2.10"):
        assert run_check(c4, cid).status == "holds"
        v = run_check(d3, cid)
        assert v.status == "vacuous"
        assert ("left_cancellative", False) in v.hypothesis_trace
    # comparability gate: delta has completely prime ideals but none of them
    # satisfies the pairwise condition
    v = run_check(d3, "Lem3.4")
    assert v.status == "vacuous"
    assert ("has_comparability_ideal", False) in v.hypothesis_trace
    ef = corpus()["ef4"].semigroup
    assert run_check(ef, "Lem3.4").status == "holds"
    # nilpotent comparizer radical: the gate of Thm2.7.i
    assert is_nilpotent_ideal(build_delta(2), comparizer_radical(build_delta(2)))
    assert run_check(build_delta(2), "Thm2.7.i").status == "holds"
    v = run_check(c4, "Thm2.7.i")
    assert v.status == "vacuous"


def test_suite_on_minimal_all_holds_or_vacuous():
    for cid, v in run_suite(build_minimal()):
        assert v.status in ("holds", "vacuous"), (cid, v)


def test_suite_zero_discrepancies_on_corpus(corpus_entries):
    for entry in corpus_entries:
        for cid, v in run_suite(entry.semigroup):
            assert v.status != "discrepancy", (entry.name, cid, v.witness)


def test_suite_total_on_pool(pool234):
    for s in pool234:
        for cid, v in run_suite(s):
            assert v.status in ("holds", "vacuous", "discrepancy")
            if v.status == "vacuous":
                assert v.note or any(not ok for _, ok in v.hypothesis_trace)
            if v.status == "discrepancy":
                assert v.witness is not None


def test_left_cancellative_monoids_have_unique_completely_prime(pool234):
    # a nonunit u in a finite left cancellative monoid has u^i == u^(i+p)
    # somewhere; off zero that cancels to u^p == 1, impossible, so every
    # nonunit is nilpotent and the nonunits are the only completely prime
    # ideal; the harness leans on this structure, so pin it down
    for s in pool234:
        if not s.is_left_cancellative():
            continue
        assert s.nilpotent_elements() == s.nonunits_mask()
        assert completely_prime_spectrum(s) == (s.nonunits_mask(),)


def test_thm48_note_on_degenerate_overlap():
    v = run_check(build_chain_x(1), "Thm4.8")
    assert v.status == "holds"
    assert v.note and "more than one branch" in v.note


def test_co39_separation_is_noted_not_failed():
    table = [
        [0, 0, 0, 0, 0],
        [0, 1, 2, 3, 4],
        [0, 2, 0, 0, 0],
        [0, 3, 0, 0, 2],
        [0, 4, 0, 0, 2],
    ]
    s = Semigroup(table, one=1, zero=0)
    v = run_check(s, "Co3.9")
    assert v.status == "holds"
    assert v.note and "separate" in v.note


def test_search_converse_candidates_revalidate():
    from sgideals.segments import classify_segment, is_locally_invariant, prime_segments

    found = search_converse_candidates(4)
    for cand in found:
        s = Semigroup(cand["table"], one=1, zero=0)
        assert s.is_left_cancellative()
        upper = mask_of(cand["segment"]["upper"])
        assert is_right_p_comparable(s, upper).holds
        match = [g for g in prime_segments(s)
                 if mask_elems(g.upper) == cand["segment"]["upper"]
                 and mask_elems(g.lower) == cand["segment"]["lower"]]
        assert match
        cls = classify_segment(s, match[0])
        assert cls.branches["archimedean"] and not is_locally_invariant(s, match[0])


def test_chain_x4_never_a_candidate():
    # commutative tables are locally invariant everywhere
    found = search_converse_candidates(4)
    c4 = build_chain_x(4).canonical_form()
    for cand in found:
        assert Semigroup(cand["table"], 1, 0).canonical_form() != c4


def test_search_exceptional_candidates_completes():
    from sgideals.verify import search_exceptional_candidates

    found = search_exceptional_candidates(4)
    # any candidate would be a small finite exceptional configuration, which
    # is not known to exist; revalidate rather than assert emptiness
    from sgideals.classify import _completely_prime, _prime

    for cand in found:
        s = Semigroup(cand["table"], 1, 0)
        q = mask_of(cand["q"])
        assert _prime(s, q) and not _completely_prime(s, q)


def test_searches_empty_through_order_6():
    from sgideals.verify import search_exceptional_candidates

    assert search_exceptional_candidates(6) == []
    assert search_converse_candidates(6) == []
