from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sgideals.core import is_subset, mask_elems, mask_of
from sgideals.ideals import DEFAULT_CAP, IdealKind, NotAnIdeal, NotProper, enumerate_ideals
from sgideals.classify import (
    PrimenessKind,
    associated_prime,
    comparizer_ideals,
    comparizer_radical,
    comparizer_support,
    exceptional_primes,
    is_comparizer,
    is_prime,
    is_prime_variant,
    is_right_chain,
    is_right_comparizer,
    is_right_waist,
    is_semiprime,
    is_waist,
    prime_family,
    radicals,
    right_waists,
    sandwiches,
)
from sgideals.corpus import (
    build_chain_x,
    build_delta,
    build_ef,
    build_min_chain,
    build_minimal,
)
from sgideals.segments import completely_prime_spectrum

from oracles import (
    associated_prime_scan,
    comparizer_bruteforce,
    comparizer_union_bruteforce,
    completely_prime_scan,
    elems_scan,
    ideals_bruteforce,
    is_left_ideal_scan,
    is_right_ideal_scan,
    mask_scan,
    nil_unions_scan,
    nilpotent_scan,
    prime_meet_scan,
    prime_scan,
    restricted_comparizer_bruteforce,
    right_principal_scan,
    semiprime_scan,
    set_product_scan,
    shuffled,
    translates_scan,
    units_scan,
    waist_bruteforce,
)

P_EF = mask_of([0, 5, 6, 7, 8])


# -- primeness ----------------------------------------------------------------


def test_prime_variant_examples(ef4):
    s = ef4.semigroup
    assert is_prime_variant(s, P_EF, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED)
    assert not is_prime_variant(
        s, 1 << s.zero, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED
    )  # x * x4 == 0 with both factors nonzero
    d = build_delta(3)
    for i in (2, 3, 4):
        p = d.full & ~(1 << d.one) & ~(1 << i)
        assert is_prime_variant(d, p, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED)


def test_prime_variant_validation(ef4):
    s = ef4.semigroup
    e = ef4.element_names.index("e")
    with pytest.raises(NotAnIdeal):
        is_prime_variant(s, mask_of([0, e]), PrimenessKind.PRIME, IdealKind.RIGHT)
    with pytest.raises(NotProper):
        is_prime_variant(s, s.full, PrimenessKind.PRIME, IdealKind.RIGHT)
    assert not is_prime_variant(s, 0, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT)


def test_primeness_ladder(pool234):
    for s in pool234:
        for m in enumerate_ideals(s, IdealKind.TWO_SIDED):
            if not m or m == s.full:
                continue
            cp = is_prime_variant(s, m, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED)
            pr = is_prime_variant(s, m, PrimenessKind.PRIME, IdealKind.TWO_SIDED)
            sp = is_prime_variant(s, m, PrimenessKind.SEMIPRIME, IdealKind.TWO_SIDED)
            csp = is_prime_variant(
                s, m, PrimenessKind.COMPLETELY_SEMIPRIME, IdealKind.TWO_SIDED
            )
            assert not cp or pr
            assert not pr or sp
            assert not cp or csp
            assert not csp or sp  # identity present: a*1*a == a^2


def test_primeness_matches_scans(pool234):
    for s in pool234:
        for m in enumerate_ideals(s, IdealKind.TWO_SIDED):
            if not m or m == s.full:
                continue
            assert is_prime_variant(s, m, PrimenessKind.PRIME, IdealKind.TWO_SIDED) == prime_scan(s, m)
            assert is_prime_variant(
                s, m, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED
            ) == completely_prime_scan(s, m)
            assert is_prime_variant(
                s, m, PrimenessKind.SEMIPRIME, IdealKind.TWO_SIDED
            ) == semiprime_scan(s, m)


def test_prime_total(pool234, pool5):
    # any mask, not only ideals; on the full carrier the scans answer False
    # while is_prime and is_semiprime hold vacuously (no element lies
    # outside).  Order 5 is the first where testing only the pairs a <= b
    # goes wrong
    for s in [*pool234, *pool5]:
        for x in range(s.full):
            assert is_prime(s, x) == prime_scan(s, x)
            assert is_semiprime(s, x) == semiprime_scan(s, x)
        assert is_prime(s, s.full) and is_semiprime(s, s.full)


def test_sandwiches_match_scan(pool234, corpus_entries):
    benchmark_size = [shuffled(build_ef(30), 30), shuffled(build_min_chain(40), 40)]
    for s in [*pool234, *(e.semigroup for e in corpus_entries), *benchmark_size]:
        sw = sandwiches(s)
        for a in range(s.n):
            a_s = mask_elems(right_principal_scan(s, a))
            assert sw[a] == tuple(set_product_scan(s, a_s, [b]) for b in range(s.n))


# -- waists ---------------------------------------------------------------------


def test_waist_examples(ef4):
    s = ef4.semigroup
    e = ef4.element_names.index("e")
    assert is_right_waist(s, P_EF)
    assert not is_right_waist(s, s.right_principal(e))
    c3 = build_chain_x(3)
    for m in enumerate_ideals(c3, IdealKind.RIGHT):
        if m != c3.full:
            assert is_right_waist(c3, m)
    with pytest.raises(NotProper):
        is_right_waist(s, s.full)
    with pytest.raises(NotAnIdeal):
        is_right_waist(s, mask_of([0, e]))


def test_waist_matches_bruteforce(pool234):
    for s in pool234:
        for m in enumerate_ideals(s, IdealKind.RIGHT):
            if m == s.full:
                continue
            assert is_right_waist(s, m) == waist_bruteforce(s, m)


def test_waist_total(pool234):
    # any mask, not only right ideals; the full carrier answers False
    for s in pool234:
        for x in range(1 << s.n):
            assert is_waist(s, x) == waist_bruteforce(s, x)


# -- comparizers ------------------------------------------------------------------


def test_comparizer_examples(ef4):
    s = ef4.semigroup
    assert is_right_comparizer(s, 1 << s.zero)
    ef_ = ef4.element_names.index("ef")
    e = ef4.element_names.index("e")
    f = ef4.element_names.index("f")
    assert is_right_comparizer(s, s.right_principal(ef_))
    for m in enumerate_ideals(s, IdealKind.RIGHT):
        if m != s.full and is_right_comparizer(s, m):
            assert not (m >> e) & 1 and not (m >> f) & 1


def _oracle_targets(pool234, pool5, corpus_entries):
    return [*pool234, *pool5, *(e.semigroup for e in corpus_entries)]


def test_comparizer_matches_pair_form(pool234, pool5, corpus_entries):
    for s in _oracle_targets(pool234, pool5, corpus_entries):
        for m in enumerate_ideals(s, IdealKind.RIGHT):
            assert is_right_comparizer(s, m) == comparizer_bruteforce(s, m)


def test_comparizer_ideals_match_pair_form(pool234, pool5, corpus_entries):
    for s in _oracle_targets(pool234, pool5, corpus_entries):
        want = [m for m in ideals_bruteforce(s, "right") if comparizer_bruteforce(s, m)]
        got = comparizer_ideals(s)
        assert list(got) == want
        assert got[0] == 0  # the empty ideal always passes
        assert (s.full in got) == is_right_chain(s)


def test_restricted_comparizer_matches_double_loop(pool234, pool5, corpus_entries):
    # Lem2.5.i restricts to right waists, where the restricted and global
    # answers agree; every right ideal W is swept so that a kernel ignoring
    # the restriction fails too
    for s in _oracle_targets(pool234, pool5, corpus_entries):
        fam = enumerate_ideals(s, IdealKind.RIGHT)
        for w in fam:
            for c in fam:
                if is_subset(c, w):
                    assert is_comparizer(s, c, w) == restricted_comparizer_bruteforce(s, w, c)


def test_comparizer_total(pool234):
    # every pair of masks I, W, not only right ideals, the empty W included
    for s in pool234:
        for w in range(1 << s.n):
            for c in range(1 << s.n):
                assert is_comparizer(s, c, w) == restricted_comparizer_bruteforce(s, w, c)
        for c in range(1 << s.n):
            assert is_comparizer(s, c) == is_comparizer(s, c, s.full)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sub_ideal_of_comparizer_is_comparizer(pool234, data):
    s = data.draw(st.sampled_from(pool234))
    big = comparizer_radical(s)
    fam = [m for m in enumerate_ideals(s, IdealKind.RIGHT) if m & ~big == 0]
    m = data.draw(st.sampled_from(fam))
    assert is_right_comparizer(s, m)


def test_comparizer_radical_frozen(ef4):
    assert comparizer_radical(build_chain_x(3)) == build_chain_x(3).full
    assert comparizer_radical(ef4.semigroup) == mask_of([0, 4, 5, 6, 7, 8])
    assert comparizer_radical(build_delta(2)) == mask_of([0])


def test_comparizer_radical_matches_union(pool234):
    for s in pool234:
        assert comparizer_radical(s) == comparizer_union_bruteforce(s)


def test_comparizer_radical_is_support_over_carrier(pool5, corpus_entries):
    for s in [*pool5, *(e.semigroup for e in corpus_entries)]:
        assert comparizer_radical(s) == comparizer_support(s, s.full)
        assert comparizer_radical(s) == comparizer_union_bruteforce(s)


def test_right_chain_matches_pair_scan(pool234):
    seen = set()
    for s in pool234:
        princ = [right_principal_scan(s, a) for a in range(s.n)]
        want = all(
            is_subset(princ[a], princ[b]) or is_subset(princ[b], princ[a])
            for a in range(s.n)
            for b in range(s.n)
        )
        assert is_right_chain(s) == want
        seen.add(want)
    assert seen == {True, False}


def test_right_chain(ef4):
    assert is_right_chain(build_chain_x(4))
    assert not is_right_chain(ef4.semigroup)
    assert not is_right_chain(build_delta(2))
    assert is_right_chain(build_min_chain(3))


# -- radicals ---------------------------------------------------------------------


def test_radicals_ef4(ef4):
    rad = radicals(ef4.semigroup)
    assert rad.nilpotent_elements == P_EF
    assert rad.completely_prime_radical == P_EF
    assert rad.prime_radical == P_EF
    assert rad.prime_right_radical == P_EF
    assert rad.nil_radical == P_EF
    assert rad.nilpotent_union == P_EF
    assert rad.comparizer == mask_of([0, 4, 5, 6, 7, 8])
    assert rad.nonunits == ef4.semigroup.full & ~(1 << ef4.semigroup.one)


@pytest.mark.parametrize(
    "order", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
)
def test_nonunits_are_prime_in_every_sense(pools, corpus_entries, order):
    # so every prime family the radicals intersect is nonempty
    monoids = list(pools[order])
    if order == 2:
        monoids += [e.semigroup for e in corpus_entries]
    for s in monoids:
        j = s.nonunits_mask()
        assert j in completely_prime_spectrum(s)
        assert j in prime_family(s, PrimenessKind.PRIME, IdealKind.TWO_SIDED)
        assert j in prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT)


def test_radicals_chain_x3():
    s = build_chain_x(3)
    rad = radicals(s)
    j = mask_of([0, 2, 3, 4])
    assert rad.nilpotent_elements == j
    assert rad.prime_radical == j
    assert rad.completely_prime_radical == j
    assert rad.nil_radical == j == rad.nilpotent_union
    assert rad.comparizer == s.full


def test_radicals_minimal():
    s = build_minimal()
    rad = radicals(s)
    z = mask_of([0])
    assert (
        rad.prime_radical == rad.completely_prime_radical == rad.nil_radical
        == rad.nilpotent_union == rad.nilpotent_elements == z == rad.nonunits
    )
    # the two element monoid is a right chain, so its comparizer radical is
    # everything
    assert rad.comparizer == s.full


def test_radical_inclusions(pool234):
    for s in pool234:
        rad = radicals(s)
        assert rad.nilpotent_union & ~rad.nil_radical == 0
        assert rad.nil_radical & ~rad.nilpotent_elements == 0
        assert rad.nilpotent_elements & ~s.nonunits_mask() == 0


def _pools_then_corpus_and_large(pools, corpus_entries, large_families, order):
    """The pool of one order; at order 2 also the corpus and the large
    families, so each of those is read once."""
    monoids = list(pools[order])
    if order == 2:
        monoids += [e.semigroup for e in corpus_entries]
        monoids += [s for _, s in large_families]
    return monoids


@pytest.mark.parametrize(
    "order", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
)
def test_nil_radical_matches_scan(pools, corpus_entries, large_families, order):
    # the unions of the nil and of the nilpotent two-sided ideals
    for s in _pools_then_corpus_and_large(pools, corpus_entries, large_families, order):
        rad = radicals(s)
        assert (rad.nil_radical, rad.nilpotent_union) == nil_unions_scan(
            s, enumerate_ideals(s, IdealKind.TWO_SIDED)), s.rows


def _assert_prime_radicals_match_scan(s, two_sided, right):
    rad = radicals(s)
    assert rad.prime_radical == prime_meet_scan(s, two_sided), s.rows
    assert rad.prime_right_radical == prime_meet_scan(s, right), s.rows


def test_beta_matches_bruteforce(pool234, pool5, corpus_entries, large_families):
    # the prime radical and the prime right radical, each the intersection
    # of the members of its family that pass prime_scan; the power-set
    # filter reads all 2^n subsets, so the large families filter
    # enumerate_ideals instead
    for s in [*pool234, *pool5, *(e.semigroup for e in corpus_entries)]:
        _assert_prime_radicals_match_scan(
            s, ideals_bruteforce(s, "two-sided"), ideals_bruteforce(s, "right"))
    for _, s in large_families:
        _assert_prime_radicals_match_scan(
            s, enumerate_ideals(s, IdealKind.TWO_SIDED), enumerate_ideals(s, IdealKind.RIGHT))


@pytest.mark.slow
def test_beta_matches_bruteforce_pool6(pool6):
    for s in pool6:
        _assert_prime_radicals_match_scan(
            s, ideals_bruteforce(s, "two-sided"), ideals_bruteforce(s, "right"))


@pytest.mark.parametrize(
    "order", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
)
def test_nil_radical_settles_thm210_and_thm27i(pools, corpus_entries, large_families, order):
    # the nilpotent elements T form a two-sided ideal exactly when T is the
    # nil radical N, and a nil comparizer radical lies in N (README, "The
    # prime radicals are the nil radical"); nilpotency by set-product
    # powers, the ideal test by the element scans
    for s in _pools_then_corpus_and_large(pools, corpus_entries, large_families, order):
        rad = radicals(s)
        t = mask_scan(a for a in range(s.n) if nilpotent_scan(s, 1 << a))
        members = set(elems_scan(t))
        t_ideal = is_right_ideal_scan(s, members) and is_left_ideal_scan(s, members)
        assert t_ideal == (t == rad.nil_radical), s.rows
        if nilpotent_scan(s, rad.comparizer):
            assert is_subset(rad.comparizer, rad.nil_radical), s.rows


def test_radicals_build_no_prime_two_sided_family():
    # the prime radical is the nil radical's mask; the prime right radical
    # still intersects its family
    s = build_chain_x(4)
    radicals(s)
    fams = {k[1:] for k in s._cache if k[0] is prime_family.__wrapped__}
    assert (PrimenessKind.PRIME, IdealKind.TWO_SIDED, DEFAULT_CAP) not in fams
    assert (PrimenessKind.PRIME, IdealKind.RIGHT, DEFAULT_CAP) in fams


# -- associated prime ----------------------------------------------------------------


def test_associated_prime(ef4):
    s = ef4.semigroup
    assert associated_prime(s, P_EF) == P_EF
    zero_div = associated_prime(s, 1 << s.zero)
    # right zero divisors of the truncated chain: every power of x, plus 0
    assert zero_div == P_EF
    x = ef4.element_names.index("x")
    xp = translates_scan(s, P_EF)[x]
    assert xp == mask_of([0, 6, 7, 8])
    assert associated_prime(s, xp) == P_EF
    with pytest.raises(NotProper):
        associated_prime(s, s.full)


def test_associated_prime_is_completely_prime(pool234):
    for s in pool234:
        for m in enumerate_ideals(s, IdealKind.RIGHT):
            if not m or m == s.full:
                continue
            p = associated_prime(s, m)
            assert completely_prime_scan(s, p)


def test_associated_prime_matches_scan(pool234, corpus_entries):
    # every proper mask, right ideal or not
    for s in [*pool234, *(e.semigroup for e in corpus_entries)]:
        for m in range(s.full):
            assert associated_prime(s, m) == associated_prime_scan(s, m)


def test_prime_family_and_waists_cached(ef4):
    s = ef4.semigroup
    primes = prime_family(s, PrimenessKind.PRIME, IdealKind.TWO_SIDED)
    assert P_EF in primes and len(primes) == 4
    assert prime_family(s, PrimenessKind.PRIME, IdealKind.TWO_SIDED) is primes
    ws = right_waists(s)
    assert P_EF in ws and s.right_principal(ef4.element_names.index("e")) not in ws
    assert right_waists(s) is ws


def test_right_waists_are_the_nonempty_waist_ideals(pool234, pool5, corpus_entries):
    for s in [*pool234, *pool5, *(e.semigroup for e in corpus_entries)]:
        ws = right_waists(s)
        assert 0 not in ws
        rights = enumerate_ideals(s, IdealKind.RIGHT)
        assert list(ws) == [m for m in rights if m and is_waist(s, m)]


@pytest.mark.parametrize(
    "order", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
)
def test_right_waists_form_a_chain(pools, corpus_entries, large_families, order):
    # each waist is a right ideal and is comparable with every right ideal,
    # so any two are comparable (README, "Right waists form a chain")
    for s in _pools_then_corpus_and_large(pools, corpus_entries, large_families, order):
        ws = right_waists(s)
        assert not [(a, b) for a, b in combinations(ws, 2) if a & ~b and b & ~a], s.rows


@pytest.mark.parametrize(
    "order", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
)
def test_completely_prime_right_ideals_hold_no_unit(pools, corpus_entries, large_families,
                                                    order):
    # a proper right ideal holding a unit u holds u*u^-1 = 1 (README, "Finite
    # shadow"); the units here are those of the scan
    for s in _pools_then_corpus_and_large(pools, corpus_entries, large_families, order):
        units = units_scan(s)
        cp_right = prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT)
        assert not [p for p in cp_right if p & units], s.rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_union_of_comparizers_is_comparizer(pool234, data):
    s = data.draw(st.sampled_from(pool234))
    comps = [m for m in enumerate_ideals(s, IdealKind.RIGHT) if is_right_comparizer(s, m)]
    a = data.draw(st.sampled_from(comps))
    b = data.draw(st.sampled_from(comps))
    assert is_right_comparizer(s, a | b)


def test_brandt_monoid_zero_ideal_is_exceptional_prime():
    # the 2x2 matrix-unit monoid (Brandt semigroup with adjoined identity)
    # is the smallest structure whose zero ideal is prime without being
    # completely prime: indices 2..5 behave as e12, e11, e22, e21, so every
    # aSb off zero hits a nonzero product while e12 * e12 == 0
    from sgideals.core import Semigroup

    table = [
        [0, 0, 0, 0, 0, 0],
        [0, 1, 2, 3, 4, 5],
        [0, 2, 0, 0, 2, 3],
        [0, 3, 2, 3, 0, 0],
        [0, 4, 0, 0, 4, 5],
        [0, 5, 4, 5, 0, 0],
    ]
    s = Semigroup(table, one=1, zero=0)
    z = mask_of([0])
    assert is_prime_variant(s, z, PrimenessKind.PRIME, IdealKind.TWO_SIDED)
    assert not is_prime_variant(s, z, PrimenessKind.COMPLETELY_PRIME, IdealKind.TWO_SIDED)
    assert not s.is_left_cancellative()


@pytest.mark.parametrize(
    "order", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
)
def test_exceptional_primes_match_scans(pools, order):
    # no class below order 6 has a prime, not completely prime, two-sided
    # ideal, and two of the 1,101 order-6 classes do, so only the order-6
    # sweep tells the family apart from an empty one
    with_exceptional = 0
    for s in pools[order]:
        want = [
            m for m in ideals_bruteforce(s, "two-sided")
            if prime_scan(s, m) and not completely_prime_scan(s, m)
        ]
        assert list(exceptional_primes(s)) == want
        with_exceptional += bool(want)
    assert with_exceptional == (2 if order == 6 else 0)
