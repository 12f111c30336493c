from collections import Counter
from dataclasses import replace

import pytest

from sgideals import verify
from sgideals.core import Semigroup, mask_elems, mask_of
from sgideals.classify import PrimenessKind, comparizer_radical
from sgideals.ideals import DEFAULT_CAP, IdealKind, is_nilpotent_ideal
from sgideals.localize import is_right_p_comparable
from sgideals.segments import completely_prime_spectrum
from sgideals.corpus import build_chain_x, build_delta, build_min_chain, build_minimal, corpus
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
    from sgideals.classify import is_completely_prime, is_prime

    for cand in found:
        s = Semigroup(cand["table"], 1, 0)
        q = mask_of(cand["q"])
        assert is_prime(s, q) and not is_completely_prime(s, q)


def test_searches_empty_through_order_6():
    from sgideals.verify import search_exceptional_candidates

    assert search_exceptional_candidates(6) == []
    assert search_converse_candidates(6) == []


def test_order7_converse_of_lem410_fails():
    # a left-cancellative monoid of order 7 whose one prime segment is
    # comparable and archimedean but not locally invariant, so the converse
    # that search_converse_candidates looks for fails at order 7
    from sgideals.segments import classify_segment, is_locally_invariant, prime_segments

    rows = ["0000000", "0123456", "0200003", "0300002", "0400235", "0500234", "0623451"]
    s = Semigroup([[int(c) for c in r] for r in rows], one=1, zero=0)
    assert s.is_left_cancellative()
    assert mask_elems(s.units_mask()) == [1, 6]
    (seg,) = prime_segments(s)
    n_mask = mask_of([0, 2, 3, 4, 5])
    assert seg.upper == n_mask
    assert is_right_p_comparable(s, n_mask).holds
    assert classify_segment(s, seg).branches == {
        "archimedean": True, "simple": False, "exceptional": False,
    }
    assert not is_locally_invariant(s, seg)
    assert mask_elems(s.right_mul(n_mask, 4)) == [0, 2]
    assert mask_elems(s.left_mul(4, n_mask)) == [0, 2, 3]
    tally = Counter(v.status for _, v in run_suite(s))
    assert tally == {"holds": 43, "vacuous": 11}


# -- negative controls: each body below is fed one wrong answer and must report
# a discrepancy, so a check made lenient enough never to fail is caught; the
# inputs are rebuilt under the patch because the families are memoized on the
# instance


def _toggle(family, *masks):
    """family with the membership of each mask flipped, order kept."""
    return tuple([m for m in family if m not in masks] + [m for m in masks if m not in family])


def _patch_two_sided_family(monkeypatch, kind, *masks):
    real = verify.prime_family

    def patched(s, k, ik, cap=DEFAULT_CAP):
        fam = real(s, k, ik, cap)
        return _toggle(fam, *masks) if (k, ik) == (kind, IdealKind.TWO_SIDED) else fam

    monkeypatch.setattr(verify, "prime_family", patched)


@pytest.mark.parametrize("cid", ["Lem2.1.ii", "Lem2.1.iii"])
def test_comparizer_checks_flag_a_flipped_test(monkeypatch, cid):
    assert run_check(build_chain_x(4), cid).status == "holds"
    real = verify.is_comparizer
    monkeypatch.setattr(verify, "is_comparizer",
                        lambda s, i, within=None: real(s, i, within) != (i == s.zero_mask))
    assert run_check(build_chain_x(4), cid).status == "discrepancy"


def test_lem25i_flags_a_flipped_comparizer_family(monkeypatch):
    assert run_check(build_chain_x(4), "Lem2.5.i").status == "holds"
    real = verify.comparizer_ideals
    monkeypatch.setattr(verify, "comparizer_ideals",
                        lambda s, cap=DEFAULT_CAP: _toggle(real(s, cap), s.zero_mask))
    assert run_check(build_chain_x(4), "Lem2.5.i").status == "discrepancy"


def test_thm36iii_flags_a_flipped_completely_semiprime_family(monkeypatch):
    # {0} of ef4 is neither completely prime nor completely semiprime, and
    # lies below the comparability ideal
    ef4 = corpus()["ef4"].semigroup
    assert run_check(ef4, "Thm3.6.iii").status == "holds"
    _patch_two_sided_family(monkeypatch, PrimenessKind.COMPLETELY_SEMIPRIME, ef4.zero_mask)
    fresh = Semigroup(ef4.rows, ef4.one, ef4.zero)
    assert run_check(fresh, "Thm3.6.iii").status == "discrepancy"


@pytest.mark.parametrize("cid", ["Thm2.4.ii", "Lem3.7"])
@pytest.mark.parametrize("name", ["min_chain4", "ef4"])
def test_translate_checks_flag_a_missing_translate(monkeypatch, cid, name):
    # both checks read membership of a*W in the right waists; {0} is the
    # translate 0*W of every nonempty waist W, so dropping it from the
    # family leaves translates that are no waists
    s = build_min_chain(4) if name == "min_chain4" else corpus()["ef4"].semigroup
    assert run_check(s, cid).status == "holds"
    real = verify.right_waists
    monkeypatch.setattr(verify, "right_waists",
                        lambda s, cap=DEFAULT_CAP: _toggle(real(s, cap), s.zero_mask))
    assert run_check(Semigroup(s.rows, s.one, s.zero), cid).status == "discrepancy"


def test_lem46iv_flags_a_missing_cover(monkeypatch):
    # every completely semiprime ideal strictly below a comparability ideal
    # of min_chain4 lies in the lower end of a prime segment; keeping only
    # the bottom segments leaves those ideals without a cover
    s = build_min_chain(4)
    assert run_check(s, "Lem4.6.iv").status == "holds"
    real = verify.prime_segments
    monkeypatch.setattr(verify, "prime_segments", lambda s, cap=DEFAULT_CAP: tuple(
        g for g in real(s, cap) if g.bottom))
    assert run_check(Semigroup(s.rows, s.one, s.zero), "Lem4.6.iv").status == "discrepancy"


def test_pr35_flags_a_flipped_condition(monkeypatch):
    s = build_min_chain(4)
    assert run_check(s, "Pr3.5").status == "holds"
    real = verify.is_right_p_comparable

    def patched(s, p):
        rep = real(s, p)
        flipped = (rep.conditions[0], not rep.conditions[1], *rep.conditions[2:])
        return replace(rep, conditions=flipped)

    monkeypatch.setattr(verify, "is_right_p_comparable", patched)
    assert run_check(build_min_chain(4), "Pr3.5").status == "discrepancy"


@pytest.mark.parametrize("cid", ["Lem4.6.i", "Lem4.6.ii", "Lem4.6.iii"])
def test_lem46_flags_incomparable_semiprimes(monkeypatch, cid):
    # P = {0, 2, 3} is a comparability ideal with no semiprime two-sided ideal
    # strictly below it, but two incomparable two-sided ideals {0, 2}, {0, 3};
    # declared semiprime, they form no chain, their union is P (outside the
    # family) and their meet {0} is no member
    table = [
        [0, 0, 0, 0, 0],
        [0, 1, 2, 3, 4],
        [0, 2, 0, 0, 0],
        [0, 3, 0, 0, 0],
        [0, 4, 2, 3, 4],
    ]
    s = Semigroup(table, one=1, zero=0)
    assert verify.comparability_ideals(s) == (mask_of([0, 2, 3]),)
    assert run_check(s, cid).status != "discrepancy"
    _patch_two_sided_family(monkeypatch, PrimenessKind.SEMIPRIME, mask_of([0, 2]), mask_of([0, 3]))
    assert run_check(Semigroup(table, one=1, zero=0), cid).status == "discrepancy"
