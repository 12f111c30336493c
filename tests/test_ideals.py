from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sgideals import ideals, verify
from sgideals.classify import comparizer_radical
from sgideals.core import Semigroup, is_subset, mask_elems, mask_of
from sgideals.ideals import (
    DEFAULT_CAP,
    CapExceeded,
    IdealKind,
    enumerate_ideals,
    ideal_closure,
    intersect_powers,
    is_ideal,
    is_nil_set,
    power_sequence,
    principals,
    right_annihilator,
)
from sgideals.corpus import (
    build_chain_x,
    build_delta,
    build_min_chain,
    build_minimal,
)
from sgideals.verify import run_suite

from oracles import (
    ideals_bruteforce,
    is_left_ideal_scan,
    is_right_ideal_scan,
    nilpotent_scan,
    right_annihilator_scan,
    set_product_scan,
)

P_EF = mask_of([0, 5, 6, 7, 8])


def test_is_ideal_examples(ef4):
    s = ef4.semigroup
    assert is_ideal(s, P_EF, IdealKind.TWO_SIDED)
    assert is_ideal(s, 1 << s.zero, IdealKind.TWO_SIDED)
    assert is_ideal(s, 0, IdealKind.RIGHT)
    e = ef4.element_names.index("e")
    assert not is_ideal(s, mask_of([0, e]), IdealKind.RIGHT)  # e*f lands outside


def test_principal(ef4):
    s = ef4.semigroup
    e = ef4.element_names.index("e")
    assert principals(s, IdealKind.RIGHT)[e] == mask_of([0, 2, 4, 5, 6, 7, 8])
    assert principals(s, IdealKind.RIGHT)[s.one] == s.full
    m = build_min_chain(3)
    assert principals(m, IdealKind.TWO_SIDED)[3] == mask_of([0, 2, 3])


def test_ideal_closure(ef4):
    s = ef4.semigroup
    e = ef4.element_names.index("e")
    assert ideal_closure(s, 0, IdealKind.RIGHT) == 0
    assert ideal_closure(s, 1 << e, IdealKind.RIGHT) == s.right_principal(e)
    d = build_delta(3)
    assert ideal_closure(d, mask_of([2, 3]), IdealKind.TWO_SIDED) == mask_of([0, 2, 3])


def test_set_product_and_powers(ef4):
    s = ef4.semigroup
    assert power_sequence(s, P_EF)[4:] == [1 << s.zero] * 2  # P^5 == {0}
    assert s.product(P_EF, 1 << s.zero) == 1 << s.zero
    m = build_min_chain(3)
    i = mask_of([0, 2, 3])
    assert power_sequence(m, i) == [i, i]  # idempotent
    # elementwise product matches the scan oracle
    assert s.product(P_EF, s.right_principal(2)) == set_product_scan(
        s, mask_elems(P_EF), mask_elems(s.right_principal(2))
    )


def test_ideal_power_large_exponent_cycles():
    # powers of a non-ideal subset can cycle: the sequence stops at the
    # first repeat, which need not be its last distinct value
    s = build_semigroup_c2()
    g = 2  # the order-2 unit
    x = 1 << g
    assert power_sequence(s, x) == [x, 1 << s.one, x]


def test_ideal_power_matches_iterated_product(pool234):
    # every subset: X, X^2, .. by the scan, up to the first repeat
    for s in pool234:
        for x in range(1 << s.n):
            want = [x]
            while want.count(want[-1]) < 2:
                want.append(set_product_scan(s, mask_elems(want[-1]), mask_elems(x)))
            assert power_sequence(s, x) == want


def build_semigroup_c2():
    from sgideals.core import Semigroup

    return Semigroup([[0, 0, 0], [0, 1, 2], [0, 2, 1]], 1, 0)


def test_intersect_powers(ef4):
    s = ef4.semigroup
    assert intersect_powers(s, P_EF) == 1 << s.zero
    m = build_min_chain(3)
    i = mask_of([0, 2, 3])
    assert intersect_powers(m, i) == i
    d = build_delta(3)
    assert intersect_powers(d, mask_of([0, 2])) == mask_of([0, 2])


def test_right_annihilator(ef4):
    s = ef4.semigroup
    assert right_annihilator(s, 1 << s.zero) == s.full
    assert right_annihilator(s, P_EF) == mask_of([0, 8])
    d = build_delta(3)
    assert right_annihilator(d, mask_of([0, 2])) == mask_of([0, 3, 4])


def test_right_annihilator_matches_scan(pool234, corpus_entries):
    for s in [*pool234, *(e.semigroup for e in corpus_entries)]:
        for m in range(1 << s.n):
            assert right_annihilator(s, m) == right_annihilator_scan(s, m)


def _power_sequence_arguments(monkeypatch, s: Semigroup) -> set[int]:
    """Every X whose powers run_suite takes on a fresh copy of s."""
    met = set()
    real = ideals.power_sequence

    def recording(t, x):
        met.add(x)
        return real(t, x)

    with monkeypatch.context() as patch:
        patch.setattr(ideals, "power_sequence", recording)
        patch.setattr(verify, "power_sequence", recording)
        run_suite(Semigroup(s.rows, s.one, s.zero))
    return met


def test_product_matches_scan(pool234, pool5, corpus_entries, monkeypatch):
    """Every pair of masks at orders 2-3.  From order 4 on, every A against
    every right ideal B, every singleton B and every non-ideal B whose
    powers run_suite takes; at orders 4-5 and on the corpus run_suite takes
    powers of right ideals only, so order 5 asserts that alone."""
    non_ideals = 0
    full_pools = [*pool234, *(e.semigroup for e in corpus_entries)]
    for s in [*full_pools, *pool5]:
        met = _power_sequence_arguments(monkeypatch, s) if s.n > 3 else set()
        extra = {m for m in met if not is_ideal(s, m, IdealKind.RIGHT)}
        non_ideals += len(extra)
        if s.n <= 3:
            factors = range(1 << s.n)
        elif s not in full_pools:
            factors = extra
        else:
            singletons = {1 << b for b in range(s.n)}
            factors = {*enumerate_ideals(s, IdealKind.RIGHT), *singletons, *extra}
        for b in factors:
            ys = mask_elems(b)
            for a in range(1 << s.n):
                assert s.product(a, b) == set_product_scan(s, mask_elems(a), ys)
    assert non_ideals == 0


def test_enumerate_ideals_frozen():
    m = build_minimal()
    fam = enumerate_ideals(m, IdealKind.RIGHT)
    assert list(fam) == [0, mask_of([0]), mask_of([0, 1])]
    c3 = build_chain_x(3)
    fam = enumerate_ideals(c3, IdealKind.RIGHT)
    assert [mask_elems(x) for x in fam] == [
        [], [0], [0, 4], [0, 3, 4], [0, 2, 3, 4], [0, 1, 2, 3, 4]
    ]
    d2 = build_delta(2)
    fam = enumerate_ideals(d2, IdealKind.TWO_SIDED)
    assert [mask_elems(x) for x in fam] == [
        [], [0], [0, 2], [0, 3], [0, 2, 3], [0, 1, 2, 3]
    ]


def test_enumerate_matches_powerset_filter(pool234, pool5, corpus_entries):
    small_corpus = [e.semigroup for e in corpus_entries if e.semigroup.n <= 7]
    for s in [*pool234, *pool5, *small_corpus]:
        for kind in IdealKind:
            assert list(enumerate_ideals(s, kind)) == ideals_bruteforce(s, kind.value)


def test_cap_bounds_the_family():
    d2 = build_delta(2)
    fam = enumerate_ideals(d2, IdealKind.TWO_SIDED, cap=6)
    assert len(fam) == 6
    assert enumerate_ideals(d2, IdealKind.TWO_SIDED, 6) is fam  # the memoized tuple
    for _ in range(2):  # the answer at the cap is remembered, not the exception
        with pytest.raises(CapExceeded, match="two-sided ideal enumeration truncated"):
            enumerate_ideals(d2, IdealKind.TWO_SIDED, cap=5)


def test_a_tripped_cap_is_searched_once_per_kind(monkeypatch):
    searches = Counter()
    real = ideals._divisibility_classes

    def counting(s, kind):
        searches[kind] += 1
        return real(s, kind)

    monkeypatch.setattr(ideals, "_divisibility_classes", counting)
    results = run_suite(build_delta(12), 1000)  # 4,098 ideals of each kind
    assert sum(v.note == "cap" for _, v in results) > 1
    assert searches and max(searches.values()) == 1


def test_ideal_search_is_free_in_its_class_order(pools, monkeypatch):
    # the down-sets reached and the count at which the cap trips do not
    # depend on the order of the divisibility classes
    def fresh(s):
        return Semigroup(s.rows, s.one, s.zero)

    def families(s, cap):
        out = []
        for kind in IdealKind:
            try:
                out.append(enumerate_ideals(s, kind, cap))
            except CapExceeded:
                out.append(None)
        return out

    inputs = [s for n in (2, 3, 4, 5) for s in pools[n]]
    want = {cap: [families(fresh(s), cap) for s in inputs] for cap in (DEFAULT_CAP, 4)}
    real = ideals._divisibility_classes
    monkeypatch.setattr(ideals, "_divisibility_classes", lambda s, kind: real(s, kind)[::-1])
    for cap, fams in want.items():
        assert [families(fresh(s), cap) for s in inputs] == fams
    assert any(None in fams for fams in want[4])
    assert not any(None in fams for fams in want[DEFAULT_CAP])


def test_nil_predicates(ef4):
    s = ef4.semigroup
    tail = mask_of([0, 6, 7, 8])
    for x in (tail, 1 << s.zero, P_EF, 0):  # 0: the empty set counts as nilpotent
        assert nilpotent_scan(s, x) and is_nil_set(s, x)
    assert not nilpotent_scan(s, s.full) and not is_nil_set(s, s.full)


# a set closed under products is nilpotent exactly when it is nil: were a
# product x1..xk of k = |X| members nonzero in every prefix, two prefixes
# would be equal, p = p*y, so p = p*y^j for every j with y a nilpotent
# member, and p = 0.  Every ideal is closed, and so is the comparizer
# radical, a right ideal, whose gates read the nil form (README, "What a
# check costs"); nilpotent_scan takes the powers as set products
@pytest.mark.parametrize("order", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_closed_nil_sets_are_nilpotent(pools, corpus_entries, order):
    monoids = list(pools[order])
    if order == 2:
        monoids += [e.semigroup for e in corpus_entries]
    for s in monoids:
        nil = s.nilpotent_elements()
        for kind in IdealKind:
            for m in enumerate_ideals(s, kind):
                assert nilpotent_scan(s, m) == is_subset(m, nil)
        scan = nilpotent_scan(s, comparizer_radical(s))
        assert verify.COMPARIZER_RADICAL_NILPOTENT.test(s, DEFAULT_CAP) == scan
        assert verify.COMPARIZER_RADICAL_NONNILPOTENT.test(s, DEFAULT_CAP) == (not scan)


def test_nil_needs_closure_to_be_nilpotent(pools):
    # B2^1, the order-6 class 712 (tests/test_verify.py): {0, 2, 5} holds the
    # nilpotent matrix units e12 and e21, but their products e11 and e22 are
    # idempotent, so its powers cycle through {0, 3, 4} and never reach {0};
    # no other class of order 4-6 has a nil set that is not nilpotent
    b21 = pools[6][712]
    x = mask_of([0, 2, 5])
    assert is_nil_set(b21, x) and not is_ideal(b21, x, IdealKind.RIGHT)
    assert power_sequence(b21, x) == [x, mask_of([0, 3, 4]), x]
    assert not nilpotent_scan(b21, x)
    found = [(n, i, mask_elems(x)) for n in (4, 5, 6) for i, s in enumerate(pools[n])
             for x in range(1 << n) if is_nil_set(s, x) and not nilpotent_scan(s, x)]
    assert found == [(6, 712, [2, 5]), (6, 712, [0, 2, 5])]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_union_intersection_of_right_ideals(pool234, data):
    s = data.draw(st.sampled_from(pool234))
    fam = list(enumerate_ideals(s, IdealKind.RIGHT))
    a = data.draw(st.sampled_from(fam))
    b = data.draw(st.sampled_from(fam))
    assert is_ideal(s, a | b, IdealKind.RIGHT)
    assert is_ideal(s, a & b, IdealKind.RIGHT)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_product_stays_in_one_sided_ideals(pool234, data):
    s = data.draw(st.sampled_from(pool234))
    rights = list(enumerate_ideals(s, IdealKind.RIGHT))
    lefts = list(enumerate_ideals(s, IdealKind.LEFT))
    a = data.draw(st.sampled_from(rights))
    b = data.draw(st.sampled_from(lefts))
    anything = data.draw(st.integers(min_value=0, max_value=s.full))
    assert s.product(a, anything) & ~a == 0
    assert s.product(anything, b) & ~b == 0


def test_power_descends_for_two_sided(pool234):
    for s in pool234:
        for m in enumerate_ideals(s, IdealKind.TWO_SIDED):
            if not m:
                continue
            seq = power_sequence(s, m)
            for prev, cur in zip(seq, seq[1:]):
                assert cur & ~prev == 0


def test_closure_is_smallest(pool234):
    for s in pool234:
        for a in range(s.n):
            c = ideal_closure(s, 1 << a, IdealKind.RIGHT)
            assert c == principals(s, IdealKind.RIGHT)[a]
            assert is_ideal(s, c, IdealKind.RIGHT)


def test_is_ideal_matches_scans(pool234):
    for s in pool234:
        for m in range(1 << s.n):
            members = set(mask_elems(m))
            right = is_right_ideal_scan(s, members)
            left = is_left_ideal_scan(s, members)
            assert is_ideal(s, m, IdealKind.RIGHT) == right
            assert is_ideal(s, m, IdealKind.LEFT) == left
            assert is_ideal(s, m, IdealKind.TWO_SIDED) == (right and left)


def test_principal_is_least_ideal_containing_it(pool234):
    for s in pool234:
        for kind in IdealKind:
            family = ideals_bruteforce(s, kind.value)
            for a in range(s.n):
                least = next(m for m in family if m >> a & 1)
                assert principals(s, kind)[a] == least


def test_every_nonempty_ideal_contains_zero(pool234):
    for s in pool234:
        for kind in IdealKind:
            for m in enumerate_ideals(s, kind):
                if m:
                    assert m & (1 << s.zero)
