import inspect
import random
import re
import sys
from collections import Counter

import pytest

from sgideals import classify, segments, verify
from sgideals.core import Semigroup, is_subset, mask_elems, mask_of
from sgideals.classify import PrimenessKind, comparizer_radical, exceptional_primes
from sgideals.ideals import DEFAULT_CAP, CapExceeded, IdealKind, enumerate_ideals
from sgideals.localize import is_right_p_comparable
from sgideals.segments import (ARCHIMEDEAN, PrimeSegment, classify_segment,
                               completely_prime_spectrum, is_locally_invariant,
                               prime_segments)
from sgideals.corpus import (all_monoids_with_zero, build_chain_x, build_delta, build_ef,
                             build_min_chain, build_minimal, corpus)
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

from oracles import (
    elems_scan,
    free_truncated,
    ideals_bruteforce,
    is_cover_scan,
    lem21ii_pairs_bruteforce,
    mask_scan,
    nilpotent_scan,
    right_translates_scan,
    set_product_scan,
    shuffled,
    translates_scan,
)


def test_id_normalization():
    assert normalize_id("Lemma2.1.i") == "lem2.1.i"
    assert normalize_id("THEOREM 2.4.iv") == "thm2.4.iv"
    assert normalize_id("prop3.5") == "pr3.5"
    assert normalize_id("Corollary 2.9") == "co2.9"
    assert normalize_id("Thm4.8") == "thm4.8"


def test_registry_keys_are_normalised():
    # _register keys every check by its normalised id, and run_check
    # normalises the id it is asked for, so every key is a fixed point
    assert all(normalize_id(key) == key for key in CHECKS)
    s = build_chain_x(4)
    for spelling in ("Lemma 2.1.ii", "lem2.1.ii", "LEM_2.1.ii"):
        assert run_check(s, spelling) == run_check(s, "Lem2.1.ii")


def test_run_suite_passes_registry_keys(monkeypatch):
    # run_check reads a registry key as it is, so the suite never calls
    # normalize_id; other spellings still go through it
    def refuse(raw):
        raise AssertionError(f"normalize_id({raw!r})")

    monkeypatch.setattr(verify, "normalize_id", refuse)
    assert len(run_suite(build_chain_x(4))) == 54
    monkeypatch.undo()
    assert run_check(build_chain_x(4), "Lemma 3.1") == run_check(build_chain_x(4), "lem3.1")


def test_incomparable_pair():
    assert _incomparable_pair([0b1, 0b11, 0b100, 0b110]) == (0b1, 0b100)
    assert _incomparable_pair([0b1, 0b11, 0b111]) is None
    assert _incomparable_pair([]) is None


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check(build_minimal(), "Thm9.9")


# the run_check contract, on synthetic checks: a body yields its witnesses
# and may return a note, and run_check alone turns that into a Verdict
ALWAYS = verify.Gate("always", lambda s, cap: True)


def _run_synthetic(monkeypatch, body, found=("object",)):
    exists = verify.Gate("finds", lambda s, cap: found)
    check = verify.TheoremCheck("Syn0.0", "synthetic", body, (ALWAYS,), exists)
    monkeypatch.setitem(CHECKS, "syn0.0", check)
    return run_check(build_minimal(), "Syn0.0")


def test_run_check_turns_a_witness_into_a_discrepancy(monkeypatch):
    def body(s, cap, found):
        yield {"a": 1}
        raise AssertionError("resumed after the first witness")

    v = _run_synthetic(monkeypatch, body)
    assert v.status == "discrepancy" and v.witness == {"a": 1}
    assert v.hypothesis_trace == (("always", True), ("finds", True))


@pytest.mark.parametrize("note", ["a note", None])
def test_run_check_turns_a_return_into_holds(monkeypatch, note):
    def body(s, cap, found):
        yield from ()
        if note is not None:
            return note

    v = _run_synthetic(monkeypatch, body)
    assert (v.status, v.witness, v.note) == ("holds", None, note)
    assert v.hypothesis_trace == (("always", True), ("finds", True))


def test_run_check_turns_a_blown_cap_into_vacuous(monkeypatch):
    def body(s, cap, found):
        raise CapExceeded("synthetic")
        yield {"a": 1}

    v = _run_synthetic(monkeypatch, body)
    assert (v.status, v.note) == ("vacuous", "cap")


def test_run_check_skips_the_body_when_nothing_exists(monkeypatch):
    def body(s, cap, found):
        raise AssertionError("entered")

    v = _run_synthetic(monkeypatch, body, found=[])
    assert v.status == "vacuous"
    assert v.hypothesis_trace == (("always", True), ("finds", False))


def test_run_check_hands_the_exists_objects_to_the_body(monkeypatch):
    found, seen = [object()], []

    def body(s, cap, objects):
        seen.append(objects)
        yield from ()

    assert _run_synthetic(monkeypatch, body, found=found).status == "holds"
    assert seen[0] is found


# run_suite reuses the vacuous verdict of a check stopped by a required gate
# for every later check with an equal requires= tuple (README, "The suite
# decides each hypothesis once")
NEVER = verify.Gate("never", lambda s, cap: False)


def _yields_a_witness(s, cap):
    yield {"a": 1}


def _suite_with(monkeypatch, *checks):
    """The verdicts run_suite gives the synthetic checks Syn0.1, Syn0.2, ..
    registered beside the real ones, on the order-2 monoid."""
    for i, (fn, requires, exists) in enumerate(checks, 1):
        check = verify.TheoremCheck(f"Syn0.{i}", "synthetic", fn, requires, exists)
        monkeypatch.setitem(CHECKS, f"syn0.{i}", check)
    got = dict(run_suite(build_minimal()))
    return [got[f"Syn0.{i}"] for i in range(1, len(checks) + 1)]


def _fresh(s):
    return Semigroup(s.rows, s.one, s.zero)


@pytest.mark.parametrize("cap", [DEFAULT_CAP, 4])
def test_run_suite_equals_run_check(pool234, pool5, corpus_entries, cap):
    # run_check on a fresh instance, so no verdict of the suite's memo is
    # read; on every input the gates that fail are shared by identity
    shared = 0
    inputs = [*pool234, *pool5, *(e.semigroup for e in corpus_entries),
              shuffled(build_ef(12), 12)]
    for s in inputs:
        suite = run_suite(_fresh(s), cap)
        fresh = _fresh(s)
        assert suite == [(CHECKS[k].id, run_check(fresh, k, cap)) for k in sorted(CHECKS)]
        first = {}
        for (cid, v), check in zip(suite, (CHECKS[k] for k in sorted(CHECKS))):
            if v.status == "vacuous" and v.note is None and len(
                    v.hypothesis_trace) == len(check.requires):
                if check.requires in first:
                    assert first[check.requires] is v, (cid, s.rows)
                    shared += 1
                first.setdefault(check.requires, v)
    assert shared > 0


def test_run_suite_reuses_a_required_gate_failure(monkeypatch):
    calls = []

    def never(s, cap):
        calls.append(cap)
        return False

    def refused(s, cap):
        raise AssertionError("entered")
        yield

    gate = verify.Gate("never", never)
    first, second = _suite_with(monkeypatch, (refused, (gate,), None),
                                (_yields_a_witness, (gate,), None))
    assert first is second
    assert first.hypothesis_trace == (("never", False),) and len(calls) == 1


def test_run_suite_runs_a_check_after_an_exists_failure(monkeypatch):
    # the first check's gates held and its exists= gate found nothing: that
    # vacuous verdict says nothing of the second check, which must run
    def refused(s, cap, found):
        raise AssertionError("entered")
        yield

    finds_nothing = verify.Gate("finds", lambda s, cap: [])
    first, second = _suite_with(monkeypatch, (refused, (ALWAYS,), finds_nothing),
                                (_yields_a_witness, (ALWAYS,), None))
    assert first.status == "vacuous"
    assert first.hypothesis_trace == (("always", True), ("finds", False))
    assert (second.status, second.witness) == ("discrepancy", {"a": 1})


def test_run_suite_keys_on_gates_not_names(monkeypatch):
    same_name = verify.Gate("never", lambda s, cap: True)
    assert same_name.name == NEVER.name and same_name != NEVER
    first, second = _suite_with(monkeypatch, (_yields_a_witness, (NEVER,), None),
                                (_yields_a_witness, (same_name,), None))
    assert first.status == "vacuous"
    assert (second.status, second.hypothesis_trace) == ("discrepancy", (("never", True),))


def test_run_suite_never_reuses_a_cap_verdict(monkeypatch):
    calls = []

    def capped(s, cap):
        calls.append(cap)
        raise CapExceeded("synthetic")

    gate = verify.Gate("capped", capped)
    verdicts = _suite_with(monkeypatch, (_yields_a_witness, (gate,), None),
                           (_yields_a_witness, (gate,), None))
    assert [(v.status, v.note) for v in verdicts] == [("vacuous", "cap")] * 2
    assert len(calls) == 2

    # a body's blown cap leaves a one-entry trace, as long as (ALWAYS,):
    # the note alone tells it from a failed gate
    def blows_the_cap(s, cap):
        raise CapExceeded("synthetic")
        yield

    first, second = _suite_with(monkeypatch, (blows_the_cap, (ALWAYS,), None),
                                (_yields_a_witness, (ALWAYS,), None))
    assert (first.status, first.note) == ("vacuous", "cap")
    assert len(first.hypothesis_trace) == 1
    assert second.status == "discrepancy"


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
        # run_check calls next() on the body, so a body with no yield would
        # raise TypeError on a valid semigroup
        assert inspect.isgeneratorfunction(check.fn), check.id


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
    assert nilpotent_scan(build_delta(2), comparizer_radical(build_delta(2)))
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


def _declared_gates(check):
    return [g.name for g in (*check.requires, check.exists) if g]


@pytest.mark.parametrize("cap", [DEFAULT_CAP, 4])
def test_traces_name_declared_gates(pool234, pool5, corpus_entries, cap):
    # run_check writes every trace: each entry is a gate the check declares,
    # or the cap that stopped it; at the default cap every declared gate
    # also fails somewhere, so none is true of every finite monoid
    # (min_chain(12), n = 14, fails subset_enumeration_feasible); at cap=4
    # a cap trip can stop a check before its gates are read
    by_id = {c.id: c for c in CHECKS.values()}
    failed = set()
    for s in [*pool234, *pool5, *(e.semigroup for e in corpus_entries), build_min_chain(12)]:
        for cid, v in run_suite(s, cap):
            declared = _declared_gates(by_id[cid])
            for name, ok in v.hypothesis_trace:
                assert name in {*declared, "cap_not_exceeded"}, (cid, name, s.rows)
                if not ok:
                    failed.add((cid, name))
    if cap == DEFAULT_CAP:
        gates = {(c.id, name) for c in CHECKS.values() for name in _declared_gates(c)}
        assert gates - failed == set()


def _renamed(note, perm):
    """note with each element list in it, such as Co3.9's P, renamed by perm."""
    if note is None:
        return None
    return re.sub(r"\[([\d, ]*)\]", lambda m: str(sorted(
        perm[int(x)] for x in m.group(1).split(", ") if x)), note)


def test_suite_invariant_under_relabelling(pool234, corpus_entries):
    # verdicts are about the isomorphism class: statuses and gate traces must
    # not move when the elements are renamed, and notes only by the renaming
    # (witnesses are the first found, so they may differ)
    for seed, s in enumerate([*pool234, *(e.semigroup for e in corpus_entries)]):
        perm = list(range(s.n))
        random.Random(seed).shuffle(perm)
        got = [(cid, v.status, v.hypothesis_trace, v.note)
               for cid, v in run_suite(s.relabel(perm))]
        want = [(cid, v.status, v.hypothesis_trace, _renamed(v.note, perm))
                for cid, v in run_suite(s)]
        assert got == want, s.rows


# where each fact first fails off the hypothesis, as (order, pool index): the
# order-3 class 2 has the idempotent nonunit 2 with 2*1 == 2*2, the order-4
# class 8 is the first of 231 classes of order 4-6 with a bottom segment that
# is not archimedean, and the order-6 class 712 is the Brandt monoid of 2x2
# matrix units with an identity
FIRST_FAILURE = {
    "nilpotents_are_nonunits": (3, 2),
    "nonunits_nilpotent": (3, 2),
    "spectrum_is_nonunits": (3, 2),
    "one_bottom_segment": (3, 2),
    "comparability_only_nonunits": (3, 2),
    "no_idempotent_right_ideal": (3, 2),
    "radical_nonnilpotent_iff_full": (5, 7),
    "no_exceptional_prime": (6, 712),
    "bottom_segment_archimedean": (4, 8),
}


def _finite_shadow(s: Semigroup) -> dict[str, bool]:
    """The facts README "Finite shadow" proves for every finite
    left-cancellative monoid with zero, J the nonunits."""
    j = s.nonunits_mask()
    c = comparizer_radical(s)
    return {
        "nilpotents_are_nonunits": s.nilpotent_elements() == j,
        "nonunits_nilpotent": nilpotent_scan(s, j),
        "spectrum_is_nonunits": completely_prime_spectrum(s) == (j,),
        "one_bottom_segment": prime_segments(s) == (PrimeSegment(0, j, True),),
        "no_exceptional_prime": exceptional_primes(s) == (),
        "comparability_only_nonunits": set(verify.comparability_ideals(s)) <= {j},
        "radical_nonnilpotent_iff_full": (not nilpotent_scan(s, c)) == (c == s.full),
        "no_idempotent_right_ideal": not any(
            s.product(m, m) == m for m in enumerate_ideals(s, IdealKind.RIGHT)
            if m not in (0, s.zero_mask, s.full)),
        "bottom_segment_archimedean": all(
            classify_segment(s, seg).branches[ARCHIMEDEAN]
            for seg in prime_segments(s) if seg.bottom),
    }


def test_left_cancellative_monoids_have_unique_completely_prime(pools, corpus_entries,
                                                               large_families):
    # every fact holds on every left-cancellative input, and each fails on
    # some other input, so none holds by construction; the first such input
    # is pinned as (order, pool index)
    inputs = [*(((n, i), s) for n, pool in pools.items() for i, s in enumerate(pool)),
              *((e.name, e.semigroup) for e in corpus_entries),
              *large_families]
    left_cancellative, first_failure = 0, {}
    for where, s in inputs:
        facts = _finite_shadow(s)
        if s.is_left_cancellative():
            left_cancellative += 1
            assert all(facts.values()), (where, facts)
        else:
            for name, ok in facts.items():
                if not ok:
                    first_failure.setdefault(name, where)
    assert left_cancellative == 51
    assert first_failure == FIRST_FAILURE


def test_thm28ii_generated_ideals_are_nilpotent(pools, corpus_entries, large_families):
    # Thm2.8.ii tests only that the nilpotent elements T are closed: then the
    # ideal of T that t generates, {t} + tT + Tt + TtT, is closed and nil,
    # hence nilpotent (README, "Finite shadow"); here each is nilpotent by
    # set-product powers on every input whose T is closed, gates or not
    inputs = [*(((n, i), s) for n, pool in pools.items() for i, s in enumerate(pool)),
              *((e.name, e.semigroup) for e in corpus_entries),
              *large_families]
    open_, generated = [], 0
    for where, s in inputs:
        t = [a for a in range(s.n) if nilpotent_scan(s, 1 << a)]
        if set_product_scan(s, t, t) & ~mask_scan(t):
            open_.append(where)
            continue
        for x in t:
            tx = set_product_scan(s, t, [x])
            gen = (1 << x) | set_product_scan(s, [x], t) | tx | set_product_scan(
                s, elems_scan(tx), t)
            assert nilpotent_scan(s, gen), (where, x)
            generated += 1
    # B2^1, the order-6 class 712: e12*e21 = e11 is idempotent
    assert (len(inputs), open_, generated) == (1243, [(6, 712)], 3090)


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


# a left-cancellative monoid of order 7 whose one prime segment is
# comparable and archimedean but not locally invariant
ORDER7_ROWS = ["0000000", "0123456", "0200003", "0300002", "0400235", "0500234", "0623451"]
ORDER7_TABLE = [[int(c) for c in r] for r in ORDER7_ROWS]


def test_search_converse_candidates_revalidate(monkeypatch):
    # positive control: the pinned order-7 counterexample as the only pool
    # member, so the revalidation below runs on a real hit
    # sgideals.corpus, read as an attribute, is the function corpus()
    monkeypatch.setattr(sys.modules["sgideals.corpus"], "all_monoids_with_zero", lambda order: (
        (Semigroup(ORDER7_TABLE, one=1, zero=0),) if order == 7 else ()))
    found = search_converse_candidates(7)
    assert found == [{
        "order": 7, "index": 0, "table": ORDER7_TABLE,
        "segment": {"lower": [], "upper": [0, 2, 3, 4, 5], "bottom": True},
    }]
    monkeypatch.undo()
    # the real pools hold no hit up to the enumerator's limit
    assert search_converse_candidates(6) == []
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


def test_order7_converse_of_lem410_fails():
    # a left-cancellative monoid of order 7 whose one prime segment is
    # comparable and archimedean but not locally invariant, so the converse
    # that search_converse_candidates looks for fails at order 7
    s = Semigroup(ORDER7_TABLE, one=1, zero=0)
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
    assert mask_elems(right_translates_scan(s, n_mask)[4]) == [0, 2]
    assert mask_elems(translates_scan(s, n_mask)[4]) == [0, 2, 3]
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


# Lem2.1.ii reads the test on the union of every comparizer ideal alone,
# which is the whole carrier of the right chain chain_x(4); Lem2.1.iii reads
# it on every right ideal below the comparizer radical, {0} among them
@pytest.mark.parametrize("cid, flipped", [
    pytest.param("Lem2.1.ii", lambda s: s.full, id="Lem2.1.ii"),
    pytest.param("Lem2.1.iii", lambda s: s.zero_mask, id="Lem2.1.iii"),
])
def test_comparizer_checks_flag_a_flipped_test(monkeypatch, cid, flipped):
    assert run_check(build_chain_x(4), cid).status == "holds"
    real = verify.is_comparizer
    monkeypatch.setattr(verify, "is_comparizer",
                        lambda s, i, within=None: real(s, i, within) != (i == flipped(s)))
    assert run_check(build_chain_x(4), cid).status == "discrepancy"


def test_lem21ii_matches_pairwise_bruteforce(pools, corpus_entries):
    # the union of all comparizer ideals against the literal statement over
    # every pair, neither side through the comparizer kernel
    inputs = [*(s for n in (2, 3, 4, 5) for s in pools[n]),
              *(e.semigroup for e in corpus_entries)]
    for s in inputs:
        want = "holds" if lem21ii_pairs_bruteforce(s) else "discrepancy"
        assert run_check(s, "Lem2.1.ii").status == want


# the first of the three order-7 classes, and no smaller input, on which
# Lem2.13's right side is a principal cover: the waist {0} is not the
# intersection {0, 2} of its translates, which is 2S with nothing strictly
# between
COVER7_ROWS = ["0000000", "0123456", "0200002", "0300020", "0400224", "0500225", "0623446"]


def _cover7() -> Semigroup:
    return Semigroup([[int(c) for c in r] for r in COVER7_ROWS], one=1, zero=0)


def test_lem213_principal_cover():
    s = _cover7()
    assert run_check(s, "Lem2.13").status == "holds"
    zero = s.zero_mask
    assert verify.is_waist(s, zero)
    inter = verify._translate_intersection(s, zero, verify.associated_prime(s, zero))
    # a body reading only "T == intersection" would call {0} no waist here
    assert inter != zero and inter == s.right_principal(2) == mask_of([0, 2])


def test_lem213_flags_a_flipped_waist(monkeypatch):
    real = verify.is_waist
    monkeypatch.setattr(verify, "is_waist", lambda s, m: real(s, m) != (m == s.zero_mask))
    v = run_check(_cover7(), "Lem2.13")
    assert v.status == "discrepancy"
    assert v.witness == {"ideal": [0], "intersection": [0, 2], "rhs": True}


# Co2.14 and Lem3.14 read associated primes: on chain_x(4) P_r({0}) is the
# nonunits {0, 2, 3, 4, 5}, and {0} is both a right waist and the translate
# 0*J; given the identity as well, Co2.14's intersection through the prime
# keeps 5 and Lem3.14's prime of 0*J is no longer J
@pytest.mark.parametrize("cid, witness", [
    ("Co2.14", {"waist": [0], "via_prime": [0, 5], "via_nonunits": [0]}),
    ("Lem3.14", {"p": [0, 2, 3, 4, 5], "q": [0, 2, 3, 4, 5], "a": 0}),
])
def test_prime_checks_flag_a_flipped_associated_prime(monkeypatch, cid, witness):
    assert run_check(build_chain_x(4), cid).status == "holds"
    real = verify.associated_prime
    monkeypatch.setattr(verify, "associated_prime", lambda s, a_mask: (
        real(s, a_mask) ^ (1 << s.one) if a_mask == s.zero_mask else real(s, a_mask)))
    v = run_check(build_chain_x(4), cid)
    assert v.status == "discrepancy" and v.witness == witness


def test_principal_cover_criterion(pools, corpus_entries):
    # no right ideal lies strictly between T and bS exactly when T | cS is
    # bS for every c in bS outside T; the family side is a power-set scan
    inputs = [*(s for pool in pools.values() for s in pool),
              *(e.semigroup for e in corpus_entries)]
    pairs = covers = 0
    for s in inputs:
        fam = ideals_bruteforce(s, "right")
        for t in fam:
            for bs in set(s.right_principals):
                if t == bs or not is_subset(t, bs):
                    continue
                cover = all(t | s.right_principal(c) == bs for c in mask_elems(bs & ~t))
                assert cover == is_cover_scan(fam, t, bs)
                pairs, covers = pairs + 1, covers + cover
    assert 0 < covers < pairs


def test_suite_on_free_truncated():
    # F(2, 4): words of length at least 4 in two letters are 0
    s = free_truncated(2, 4)
    assert s.n == 16
    results = run_suite(s)
    assert len(results) == 54
    assert not [cid for cid, v in results if v.status == "discrepancy"]


# Thm2.7.iii, Thm2.8.iii, and Thm3.6.ii after its chain clause, read
# is_prime on the prime radical alone, {0, x, .., x^4} on chain_x(4)
@pytest.mark.parametrize("cid", ["Thm2.7.iii", "Thm2.8.iii", "Thm3.6.ii"])
def test_prime_radical_checks_flag_a_refused_prime(monkeypatch, cid):
    assert run_check(build_chain_x(4), cid).status == "holds"
    monkeypatch.setattr(verify, "is_prime", lambda s, x: False)
    v = run_check(build_chain_x(4), cid)
    assert v.status == "discrepancy" and v.witness == {"prime_radical": [0, 2, 3, 4, 5]}


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
        return rep._replace(conditions=flipped)

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
    v = run_check(Semigroup(table, one=1, zero=0), cid)
    assert v.status == "discrepancy"
    if cid != "Lem4.6.iii":
        # both sweep the family in its order, so they name the same pair
        assert v.witness["pair"] == [[0, 2], [0, 3]]


# Thm2.4.i, Lem2.5.ii, Lem2.5.iii, Lem2.12.i and Lem2.12.ii read membership
# of a family that classify builds from a predicate: right_waists from
# is_waist, comparizer_ideals from is_comparizer, the completely prime right
# ideals from _PRIME_FNS, associated_primes from associated_prime.  Each
# control flips that predicate on one member, on a fresh instance: x^4 S =
# {0, 5} of chain_x(4), or {0, 2} of min_chain(4), where every ideal is
# idempotent, completely prime and a right waist, and is its own
# associated prime
def _flip_predicate(monkeypatch, predicate, member):
    if predicate == "associated_prime":
        real = classify.associated_prime
        monkeypatch.setattr(classify, predicate, lambda s, a_mask: (
            real(s, a_mask) ^ (1 << s.one) if a_mask == member else real(s, a_mask)))
    elif predicate == "completely_prime":
        kind = PrimenessKind.COMPLETELY_PRIME
        real = classify._PRIME_FNS[kind]
        monkeypatch.setitem(classify._PRIME_FNS, kind, lambda s, x: real(s, x) != (x == member))
    else:
        real = getattr(classify, predicate)
        monkeypatch.setattr(classify, predicate,
                            lambda s, m, *within: real(s, m, *within) != (m == member))


@pytest.mark.parametrize("cid, build, predicate, member, witness", [
    pytest.param("Thm2.4.i", build_min_chain, "is_waist", [0, 2], {"ideal": [0, 2]},
                 id="Thm2.4.i"),
    pytest.param("Lem2.5.ii", build_chain_x, "is_comparizer", [0, 5],
                 {"waist": [0, 5], "ideal": [0, 5]}, id="Lem2.5.ii"),
    pytest.param("Lem2.5.iii", build_chain_x, "is_comparizer", [0, 5],
                 {"waist": [0, 5], "power": 1}, id="Lem2.5.iii"),
    pytest.param("Lem2.12.i", build_min_chain, "completely_prime", [0, 2],
                 {"ideal": [0, 2], "associated": [0, 2]}, id="Lem2.12.i"),
    pytest.param("Lem2.12.ii", build_min_chain, "associated_prime", [0, 2],
                 {"ideal": [0, 2], "waist": [0, 2, 3]}, id="Lem2.12.ii"),
])
def test_family_bodies_flag_a_flipped_member(monkeypatch, cid, build, predicate, member, witness):
    s = build(4)
    assert run_check(s, cid).status == "holds"
    _flip_predicate(monkeypatch, predicate, mask_of(member))
    v = run_check(_fresh(s), cid)
    assert v.status == "discrepancy" and v.witness == witness


# Thm2.4.iii, Thm3.13 and Lem4.4 keep only the clauses that their inputs do
# not already guarantee; each control shows that what is left can still fail


def test_thm24iii_flags_a_prime_that_is_no_waist(monkeypatch):
    # the comparizer ideal {0, 2} of this order-3 class holds the prime right
    # ideal {0} strictly inside it; without {0} among the right waists, that
    # prime is no waist
    s = all_monoids_with_zero(3)[2]
    assert s.rows == ((0, 0, 0), (0, 1, 2), (0, 2, 2))
    assert run_check(s, "Thm2.4.iii").status == "holds"
    real = verify.right_waists
    monkeypatch.setattr(verify, "right_waists", lambda s, cap=DEFAULT_CAP: tuple(
        m for m in real(s, cap) if m != s.zero_mask))
    v = run_check(_fresh(s), "Thm2.4.iii")
    assert v.status == "discrepancy" and v.witness == {"comparizer": [0, 2], "prime": [0]}


def test_thm313_flags_a_flipped_waist(monkeypatch):
    # x^4 S = {0, 5} of chain_x(4) is a nonzero right ideal whose associated
    # prime is J; declared no waist, it fails the last clause
    assert run_check(build_chain_x(4), "Thm3.13").status == "holds"
    real = verify.is_waist
    monkeypatch.setattr(verify, "is_waist", lambda s, m: real(s, m) != (m == mask_of([0, 5])))
    v = run_check(build_chain_x(4), "Thm3.13")
    assert v.status == "discrepancy" and v.witness == {"ideal": [0, 5],
                                                       "associated": [0, 2, 3, 4, 5]}


# Lem2.6.i, Lem2.6.ii, Thm2.7.i and Co2.9 compare one memoized mask with
# another; each control moves one side of the comparison


def test_lem26i_flags_an_elementwise_radical_apart_from_the_union(monkeypatch, ef4):
    # the comparizer right ideals of ef4 cover {0, 4, .., 8}; the elementwise
    # formula read without the element 4 misses one of them
    assert run_check(ef4.semigroup, "Lem2.6.i").status == "holds"
    real = verify.comparizer_radical
    monkeypatch.setattr(verify, "comparizer_radical", lambda s: real(s) & ~(1 << 4))
    v = run_check(_fresh(ef4.semigroup), "Lem2.6.i")
    assert v.status == "discrepancy" and v.witness == {"elementwise": [0, 5, 6, 7, 8],
                                                       "union": [0, 4, 5, 6, 7, 8]}


def test_lem26ii_flags_a_negated_right_chain(monkeypatch):
    # chain_x(4) is a right chain and its comparizer radical is the carrier;
    # declared no right chain, the two sides of the equivalence part
    assert run_check(build_chain_x(4), "Lem2.6.ii").status == "holds"
    real = verify.is_right_chain
    monkeypatch.setattr(verify, "is_right_chain", lambda s: not real(s))
    v = run_check(build_chain_x(4), "Lem2.6.ii")
    assert v.status == "discrepancy" and v.witness == {"comparizer_radical": [0, 1, 2, 3, 4, 5]}


def test_thm27i_flags_a_moved_completely_prime_radical(monkeypatch):
    # the order-4 class 0 has the nilpotent comparizer radical {0, 2, 3},
    # equal to its completely prime radical; with that radical read as {0},
    # the comparizer radical no longer lies inside it
    s = all_monoids_with_zero(4)[0]
    assert s.rows == ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 0), (0, 3, 0, 0))
    assert run_check(s, "Thm2.7.i").status == "holds"
    real = verify.radicals
    monkeypatch.setattr(verify, "radicals", lambda s, cap=DEFAULT_CAP: real(s, cap)._replace(
        completely_prime_radical=s.zero_mask))
    v = run_check(_fresh(s), "Thm2.7.i")
    assert v.status == "discrepancy" and v.witness == {"comparizer_radical": [0, 2, 3]}


def test_thm27ii_flags_a_completely_prime_radical_that_is_not_completely_prime(monkeypatch):
    # chain_x(4) is a right chain, so its comparizer radical is the carrier;
    # with the completely prime radical read as {0}, which x * x^4 = 0
    # leaves, only the completely prime clause fails
    assert run_check(build_chain_x(4), "Thm2.7.ii").status == "holds"
    real = verify.radicals
    monkeypatch.setattr(verify, "radicals", lambda s, cap=DEFAULT_CAP: real(s, cap)._replace(
        completely_prime_radical=s.zero_mask))
    v = run_check(build_chain_x(4), "Thm2.7.ii")
    assert v.status == "discrepancy" and v.witness == {"completely_prime_radical": [0]}


def test_thm210_flags_nilpotents_refused_as_an_ideal(monkeypatch):
    # the nilpotent elements of chain_x(4) are J, an ideal equal to the
    # prime radical, which is completely prime; with J refused as an ideal,
    # the first of the three equivalent statements parts from the others
    assert run_check(build_chain_x(4), "Thm2.10").status == "holds"
    real = verify.is_ideal
    monkeypatch.setattr(verify, "is_ideal", lambda s, x, kind: (
        real(s, x, kind) and x != s.nilpotent_elements()))
    v = run_check(build_chain_x(4), "Thm2.10")
    assert v.status == "discrepancy" and v.witness == {
        "ideal": False, "equals_prime_radical": True, "radical_completely_prime": True}


def test_co29_flags_a_moved_prime_radical(monkeypatch):
    # the two-sided ideals of chain_x(4) form a chain through J, its prime
    # and completely prime radical; with the prime radical read as {0}, the
    # ideal {0, 5} lies above it and below J
    assert run_check(build_chain_x(4), "Co2.9").status == "holds"
    real = verify.radicals
    monkeypatch.setattr(verify, "radicals", lambda s, cap=DEFAULT_CAP: real(s, cap)._replace(
        prime_radical=s.zero_mask))
    v = run_check(build_chain_x(4), "Co2.9")
    assert v.status == "discrepancy" and v.witness == {"ideal": [0, 5]}


@pytest.mark.parametrize("no_waist, witness", [
    pytest.param(False, {"q": [0], "d": [0, 5]}, id="not-idempotent"),
    pytest.param(True, {"q": [0], "fails": "no waist ideal above"}, id="no-waist-above"),
])
def test_lem44_flags_a_bad_pairing_ideal(monkeypatch, no_waist, witness):
    # no finite left-cancellative input has an exceptional prime (README
    # "Finite shadow", fact (b)), so the check is vacuous by its exists gate;
    # declared exceptional, {0} lies strictly inside chain_x(4)'s
    # comparability ideal J, and the least waist above it, x^4 S = {0, 5},
    # squares to {0}; with no mask a waist, nothing lies above
    assert run_check(build_chain_x(4), "Lem4.4").status == "vacuous"
    monkeypatch.setattr(verify, "exceptional_primes", lambda s, cap=DEFAULT_CAP: (s.zero_mask,))
    if no_waist:
        monkeypatch.setattr(segments, "is_waist", lambda s, m: False)
    v = run_check(build_chain_x(4), "Lem4.4")
    assert v.status == "discrepancy" and v.witness == witness


def test_lem44_flags_an_ideal_between(monkeypatch):
    # every waist of a finite left-cancellative monoid lies in J, which is
    # nilpotent, so there no pairing ideal is idempotent; with the gates
    # dropped, min_chain(4), whose ideals are all idempotent, isolates the
    # minimality clause: {0}, declared exceptional, pairs with {0, 2} and the
    # check holds; with {0, 2} no waist, {0, 2} lies strictly between {0} and
    # the pairing ideal {0, 2, 3}
    monkeypatch.setitem(CHECKS, "lem4.4", CHECKS["lem4.4"]._replace(requires=()))
    monkeypatch.setattr(verify, "exceptional_primes", lambda s, cap=DEFAULT_CAP: (s.zero_mask,))
    assert run_check(build_min_chain(4), "Lem4.4").status == "holds"
    real = segments.is_waist
    monkeypatch.setattr(segments, "is_waist", lambda s, m: real(s, m) and m != mask_of([0, 2]))
    v = run_check(build_min_chain(4), "Lem4.4")
    assert v.status == "discrepancy" and v.witness == {"q": [0], "d": [0, 2, 3]}


# -- controls for guards that state the theorem: on every finite input they
# change no verdict, so each is fed a patched family that only the guard
# keeps from changing the status


def test_lem46iv_reads_only_the_covers_of_its_ideal(monkeypatch):
    # each segment keeps its lower end and names the next spectrum member as
    # its upper ideal (the largest wraps to the least): no segment of
    # min_chain(4) is then named after {0, 2}, whose completely semiprime
    # ideal {0} is left without a cover; a body reading every lower end
    # would find one and hold
    real = verify.prime_segments

    def rotated(s, cap=DEFAULT_CAP):
        spec = completely_prime_spectrum(s, cap)
        up = {p: spec[(i + 1) % len(spec)] for i, p in enumerate(spec)}
        return tuple(g._replace(upper=up[g.upper]) for g in real(s, cap))

    monkeypatch.setattr(verify, "prime_segments", rotated)
    v = run_check(build_min_chain(4), "Lem4.6.iv")
    assert v.status == "discrepancy" and v.witness == {"p": [0, 2], "ideal": [0]}


@pytest.mark.parametrize("exceptional", [
    pytest.param(lambda s: s.nonunits_mask(), id="the-comparability-ideal"),
    pytest.param(lambda s: 1 << s.one, id="outside-it"),
])
def test_exceptional_pairs_need_a_prime_strictly_inside(monkeypatch, exceptional):
    # chain_x(4)'s one comparability ideal is J; an exceptional prime equal
    # to J, or not inside it, pairs with nothing, and both checks stay
    # vacuous by their gate (with the pair, Lem4.4 finds no waist above it)
    monkeypatch.setattr(verify, "exceptional_primes",
                        lambda s, cap=DEFAULT_CAP: (exceptional(s),))
    for cid in ("Lem4.4", "Lem4.5"):
        v = run_check(build_chain_x(4), cid)
        assert v.status == "vacuous" and v.hypothesis_trace[-1] == ("has_exceptional_prime", False)


def test_lem314_reads_only_primes_below_its_ideal(monkeypatch):
    # with {0} as the comparability ideal of chain_x(4) and {0, 5} (x^4 S) as
    # the spectrum, nothing lies below: the check holds, where reading {0, 5}
    # would find 0*{0, 5} = {0}, whose associated prime is J
    monkeypatch.setattr(verify, "comparability_ideals", lambda s, cap=DEFAULT_CAP: (s.zero_mask,))
    monkeypatch.setattr(verify, "completely_prime_spectrum",
                        lambda s, cap=DEFAULT_CAP: (mask_of([0, 5]),))
    assert run_check(build_chain_x(4), "Lem3.14").status == "holds"


def test_thm24v_reads_only_idempotent_comparizers(monkeypatch):
    # {0, 5} of chain_x(4), declared nonnilpotent, is not completely prime;
    # its square {0} differs from it, so the idempotence clause skips it
    monkeypatch.setattr(verify, "_two_sided_comparizers", lambda s, cap: [mask_of([0, 5])])
    monkeypatch.setattr(verify, "is_nil_set", lambda s, m: False)
    assert run_check(build_chain_x(4), "Thm2.4.v").status == "holds"


def test_pr315_asks_complete_primeness_of_two_sided_tails_only(monkeypatch):
    # the group of order 2 with a zero adjoined; {0, 1} as the tail of g is
    # prime and a waist, and no ideal, so it need not be completely prime
    # (it is not: g*g = 1); no right ideal of a monoid of order at most 6 is
    # prime, a waist, one-sided and not completely prime
    s = Semigroup([[0, 0, 0], [0, 1, 2], [0, 2, 1]], one=1, zero=0)
    monkeypatch.setattr(verify, "tail_intersection", lambda s, t: mask_of([0, 1]))
    body = verify.CHECKS["pr3.15"].fn(s, DEFAULT_CAP, [(s.zero_mask, 2)])
    assert next(body, None) is None
