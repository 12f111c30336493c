from sgideals.core import Semigroup, mask_elems, mask_of
from sgideals.ideals import IdealKind, is_ideal
from sgideals.segments import (
    classify_segment,
    completely_prime_spectrum,
    has_non_nilpotent_over,
    is_locally_invariant,
    pairing_ideal,
    prime_segments,
    segment_base,
    strictly_between,
    tail_intersection,
)
from sgideals.corpus import (
    build_chain_x,
    build_delta,
    build_min_chain,
    build_minimal,
)

from oracles import (
    ideals_bruteforce,
    pairing_ideal_scan,
    tail_intersection_scan,
)

P_EF = mask_of([0, 5, 6, 7, 8])


def test_spectrum_ef4(ef4):
    spec = completely_prime_spectrum(ef4.semigroup)
    assert [mask_elems(m) for m in spec] == [
        [0, 5, 6, 7, 8],
        [0, 2, 4, 5, 6, 7, 8],
        [0, 3, 4, 5, 6, 7, 8],
        [0, 2, 3, 4, 5, 6, 7, 8],
    ]


def test_spectrum_min_chain():
    spec = completely_prime_spectrum(build_min_chain(3))
    # no zero divisors, so the zero ideal joins the generated chain
    assert [mask_elems(m) for m in spec] == [[0], [0, 2], [0, 2, 3], [0, 2, 3, 4]]


def test_spectrum_minimal():
    assert [mask_elems(m) for m in completely_prime_spectrum(build_minimal())] == [[0]]


def test_prime_segments_shapes(ef4):
    segs = prime_segments(ef4.semigroup)
    pairs = {(seg.lower, seg.upper) for seg in segs}
    es = ef4.semigroup.right_principal(ef4.element_names.index("e"))
    fs = ef4.semigroup.right_principal(ef4.element_names.index("f"))
    j = ef4.semigroup.nonunits_mask()
    assert (0, P_EF) in pairs  # the bottom segment
    assert (P_EF, es) in pairs and (P_EF, fs) in pairs
    assert (es, j) in pairs and (fs, j) in pairs
    assert len(segs) == 5
    for seg in segs:
        assert seg.bottom == (seg.lower == 0)

    assert prime_segments(ef4.semigroup) is segs  # one memoized tuple

    m2 = build_minimal()
    segs = prime_segments(m2)
    assert len(segs) == 1 and segs[0].bottom and segs[0].upper == mask_of([0])

    d3 = build_delta(3)
    bottoms = [seg for seg in prime_segments(d3) if seg.bottom]
    assert len(bottoms) == 3


def test_classify_min_chain_simple():
    m4 = build_min_chain(4)
    for seg in prime_segments(m4):
        assert classify_segment(m4, seg).label == "simple"


def test_classify_ef4_bottom_archimedean(ef4):
    s = ef4.semigroup
    segs = [g for g in prime_segments(s) if g.bottom]
    assert len(segs) == 1
    cls = classify_segment(s, segs[0])
    assert cls.label == "archimedean"
    assert cls.branches == {"archimedean": True, "simple": False, "exceptional": False}
    assert not cls.overlap


def test_classify_delta_bottoms_none():
    d3 = build_delta(3)
    assert not d3.is_left_cancellative()
    for seg in prime_segments(d3):
        if seg.bottom:
            assert classify_segment(d3, seg).label == "none"
        else:
            assert classify_segment(d3, seg).label == "simple"


def test_degenerate_overlap_square_zero():
    # {0, 1, x} with x^2 == 0: nothing sits strictly between {0} and J, and
    # J itself recovers the base as its power intersection, so the simple
    # and archimedean branch definitions both hold; the label follows the
    # case order of the classification argument and the overlap is flagged
    s = build_chain_x(1)
    (seg,) = prime_segments(s)
    cls = classify_segment(s, seg)
    assert cls.branches["simple"] and cls.branches["archimedean"]
    assert cls.label == "simple"
    assert cls.overlap


def test_classify_exceptional_bottom():
    # B2^1 (the 2x2 matrix units with an identity) plus a null element 6,
    # 6*x == x*6 == 0 for x != 1: the one bottom segment 0 < J has no
    # archimedean ideal at 2, and {0, 6} is an exceptional prime strictly
    # inside J with nothing strictly between the two
    rows = ["0000000", "0123456", "0223000", "0300230", "0445000", "0500450", "0600000"]
    s = Semigroup([[int(c) for c in r] for r in rows], one=1, zero=0)
    (seg,) = prime_segments(s)
    assert seg.bottom and seg.upper == s.nonunits_mask() == mask_of([0, 2, 3, 4, 5, 6])
    cls = classify_segment(s, seg)
    assert cls.label == "exceptional"
    assert cls.q == mask_of([0, 6])
    assert cls.branches == {"archimedean": False, "simple": False, "exceptional": True}
    assert not cls.overlap


def test_pairing_ideal_gates(ef4):
    s = ef4.semigroup
    # the only exceptional-prime hypothesis holder would need a prime that is
    # not completely prime below a comparability ideal; ef4 has none, and the
    # zero ideal fails primeness, so the helper reports the nearest waist or
    # nothing at all
    d = pairing_ideal(s, 1 << s.zero)
    assert d is None or is_ideal(s, d, IdealKind.TWO_SIDED)
    m2 = build_minimal()
    assert pairing_ideal(m2, mask_of([0])) is None  # no waist strictly above


def test_pairing_ideal_is_the_intersection_of_the_waists_above(pools, corpus_entries):
    # the first two-sided waist strictly above q in family order is the
    # intersection of them all, since they form a chain (README, "Right
    # waists form a chain"): for every mask q up to order 4, and for every
    # two-sided ideal q at order 5 and on the corpus
    for s in [*(s for n in (2, 3, 4, 5) for s in pools[n]),
              *(e.semigroup for e in corpus_entries)]:
        qs = range(1 << s.n) if s.n <= 4 else ideals_bruteforce(s, "two-sided")
        for q in qs:
            assert pairing_ideal(s, q) == pairing_ideal_scan(s, q), (s.rows, q)


def test_has_non_nilpotent_over(ef4):
    s = ef4.semigroup
    efs = s.right_principal(ef4.element_names.index("ef"))
    a = has_non_nilpotent_over(s, efs, P_EF)
    assert a is not None
    tail = tail_intersection(s, a)
    assert P_EF & ~tail == 0 and tail != P_EF


def test_locally_invariant(ef4):
    c4 = build_chain_x(4)
    for seg in prime_segments(c4):
        assert is_locally_invariant(c4, seg)
    s = ef4.semigroup
    for seg in prime_segments(s):
        if seg.bottom:
            assert is_locally_invariant(s, seg)  # commutative table


def test_tail_intersection(ef4, pools, corpus_entries):
    m3 = build_min_chain(3)
    assert tail_intersection(m3, 3) == mask_of([0, 2, 3])
    s = ef4.semigroup
    assert tail_intersection(s, s.one) == s.full
    ef_ = ef4.element_names.index("ef")
    assert tail_intersection(s, ef_) == s.right_principal(ef_)
    # t^(k+1)S lies inside t^kS, so the last distinct power gives the
    # intersection the scan takes over every power; it holds that power, so
    # it is never empty
    for s in [*(t for pool in pools.values() for t in pool),
              *(e.semigroup for e in corpus_entries)]:
        for t in range(s.n):
            tail = tail_intersection(s, t)
            assert tail == tail_intersection_scan(s, t) and tail != 0


def test_segment_base():
    m2 = build_minimal()
    (seg,) = prime_segments(m2)
    assert seg.bottom and segment_base(m2, seg) == mask_of([0])


def _family_key(m):
    return (bin(m).count("1"), m)


def test_segments_are_covering_pairs(pool234, corpus_entries):
    for s in pool234 + [e.semigroup for e in corpus_entries]:
        spec = set(completely_prime_spectrum(s))
        segs = prime_segments(s)
        # the loops emit the segments in order: the spectrum is in family
        # order and each list of ideals below an upper one keeps it
        keys = [(*_family_key(g.upper), *_family_key(g.lower)) for g in segs]
        assert keys == sorted(keys)
        for seg in segs:
            between = strictly_between(s, segment_base(s, seg), seg.upper)
            if between:
                least = mask_elems(min(between, key=_family_key))
                assert classify_segment(s, seg).witnesses["intermediate_ideal"] == least
            assert seg.upper in spec
            if seg.bottom:
                assert seg.lower == 0
                assert not any(
                    q != seg.upper and q & ~seg.upper == 0 for q in spec
                )
            else:
                assert seg.lower in spec
                assert not any(
                    q not in (seg.lower, seg.upper)
                    and seg.lower & ~q == 0 and q & ~seg.upper == 0
                    for q in spec
                )


def test_pairing_ideal_least_waist_above(ef4):
    # the least two-sided waist ideal strictly above the chain of nilpotents
    # adjoins exactly the idempotent ef, and is idempotent itself; this
    # exercises the pairing construction even though no small monoid offers
    # an exceptional prime to feed it
    s = ef4.semigroup
    efs = s.right_principal(ef4.element_names.index("ef"))
    d = pairing_ideal(s, P_EF)
    assert d == efs
    assert s.product(d, d) == d
