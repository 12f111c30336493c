from sgideals.core import mask_elems, mask_of
from sgideals.ideals import IdealKind, is_ideal
from sgideals.segments import (
    classify_segment,
    completely_prime_spectrum,
    has_non_nilpotent_over,
    is_locally_invariant,
    is_locally_right_invariant,
    lower_union,
    pairing_ideal,
    power_tail_report,
    prime_segments,
    segment_base,
    tail_intersection,
)
from sgideals.corpus import (
    build_chain_x,
    build_delta,
    build_min_chain,
    build_minimal,
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


def test_lower_union(ef4):
    m3 = build_min_chain(3)
    assert lower_union(m3, mask_of([0, 2, 3])) == mask_of([0, 2])
    assert lower_union(m3, mask_of([0])) == 0
    assert lower_union(ef4.semigroup, P_EF) == mask_of([0, 6, 7, 8])


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
        assert is_locally_right_invariant(c4, seg)
    s = ef4.semigroup
    for seg in prime_segments(s):
        if seg.bottom:
            assert is_locally_invariant(s, seg)  # commutative table


def test_tail_intersection(ef4):
    m3 = build_min_chain(3)
    assert tail_intersection(m3, 3) == mask_of([0, 2, 3])
    s = ef4.semigroup
    assert tail_intersection(s, s.one) == s.full
    ef_ = ef4.element_names.index("ef")
    assert tail_intersection(s, ef_) == s.right_principal(ef_)


def test_power_tail_report_ef(ef4):
    # the tail of the idempotent ef is two sided, contains ef, misses e and
    # f, and is therefore not completely prime; the hypothesis flag records
    # that ef lies outside the distinguished completely prime ideal
    s = ef4.semigroup
    names = ef4.element_names
    ef_, e, f = names.index("ef"), names.index("e"), names.index("f")
    rep = power_tail_report(s, ef_, P_EF)
    assert rep["two_sided"]
    assert ef_ in rep["tail"] and e not in rep["tail"] and f not in rep["tail"]
    assert not rep["completely_prime"]
    assert rep["t_in_p"] is False
    assert rep["all_power_ideals_nonzero"]


def test_segment_base():
    m2 = build_minimal()
    (seg,) = prime_segments(m2)
    assert seg.bottom and segment_base(m2, seg) == mask_of([0])


def test_segments_are_covering_pairs(pool234, corpus_entries):
    for s in pool234 + [e.semigroup for e in corpus_entries]:
        spec = set(completely_prime_spectrum(s))
        for seg in prime_segments(s):
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
