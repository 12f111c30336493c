from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sgideals import ideals
from sgideals.core import mask_elems, mask_of
from sgideals.ideals import (
    CapExceeded,
    IdealKind,
    enumerate_ideals,
    ideal_closure,
    ideal_power,
    intersect_powers,
    is_a_nilpotent,
    is_ideal,
    is_nil_set,
    is_nilpotent_ideal,
    principal,
    right_annihilator,
)
from sgideals.corpus import (
    build_chain_x,
    build_delta,
    build_min_chain,
    build_minimal,
)
from sgideals.verify import run_suite

from oracles import ideals_bruteforce, set_product_scan

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
    assert principal(s, e, IdealKind.RIGHT) == mask_of([0, 2, 4, 5, 6, 7, 8])
    assert principal(s, s.one, IdealKind.RIGHT) == s.full
    m = build_min_chain(3)
    assert principal(m, 3, IdealKind.TWO_SIDED) == mask_of([0, 2, 3])


def test_ideal_closure(ef4):
    s = ef4.semigroup
    e = ef4.element_names.index("e")
    assert ideal_closure(s, 0, IdealKind.RIGHT) == 0
    assert ideal_closure(s, 1 << e, IdealKind.RIGHT) == s.right_principal(e)
    d = build_delta(3)
    assert ideal_closure(d, mask_of([2, 3]), IdealKind.TWO_SIDED) == mask_of([0, 2, 3])


def test_set_product_and_powers(ef4):
    s = ef4.semigroup
    assert ideal_power(s, P_EF, 5) == 1 << s.zero
    assert s.product(P_EF, 1 << s.zero) == 1 << s.zero
    m = build_min_chain(3)
    i = mask_of([0, 2, 3])
    assert ideal_power(m, i, 2) == i  # idempotent
    # elementwise product matches the scan oracle
    assert s.product(P_EF, s.right_principal(2)) == set_product_scan(
        s, mask_elems(P_EF), mask_elems(s.right_principal(2))
    )


def test_ideal_power_large_exponent_cycles():
    # powers of a non-ideal subset can cycle; exact reduction is required
    s = build_semigroup_c2()
    g = 2  # the order-2 unit
    x = 1 << g
    assert ideal_power(s, x, 2) == 1 << s.one
    assert ideal_power(s, x, 101) == x
    assert ideal_power(s, x, 100) == 1 << s.one


def test_ideal_power_matches_iterated_product(pool234):
    # every subset, through and past the cycle of its powers
    for s in pool234:
        for x in range(1 << s.n):
            cur = x
            for k in range(1, 2 * s.n + 4):
                assert ideal_power(s, x, k) == cur
                cur = set_product_scan(s, mask_elems(cur), mask_elems(x))


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


def test_enumerate_matches_powerset_filter(pool234, corpus_entries):
    small_corpus = [e.semigroup for e in corpus_entries if e.semigroup.n <= 7]
    for s in pool234 + small_corpus:
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


def test_nil_predicates(ef4):
    s = ef4.semigroup
    tail = mask_of([0, 6, 7, 8])
    assert is_nilpotent_ideal(s, tail)
    assert is_nilpotent_ideal(s, 1 << s.zero)
    assert is_a_nilpotent(s, P_EF, mask_of([0, 7, 8]))
    assert is_nil_set(s, P_EF)
    assert not is_nil_set(s, s.full)
    assert is_nilpotent_ideal(s, 0)  # empty set convention


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
            prev = m
            for k in range(2, s.n + 2):
                cur = ideal_power(s, m, k)
                assert cur & ~prev == 0
                prev = cur


def test_closure_is_smallest(pool234):
    for s in pool234:
        for a in range(s.n):
            c = ideal_closure(s, 1 << a, IdealKind.RIGHT)
            assert c == principal(s, a, IdealKind.RIGHT)
            assert is_ideal(s, c, IdealKind.RIGHT)


def test_every_nonempty_ideal_contains_zero(pool234):
    for s in pool234:
        for kind in IdealKind:
            for m in enumerate_ideals(s, kind):
                if m:
                    assert m & (1 << s.zero)
