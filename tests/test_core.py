import pytest
from hypothesis import given, settings, strategies as st

from sgideals.core import (
    BadIdentity,
    BadZero,
    CayleyFormatError,
    NotAssociative,
    OneEqualsZero,
    Semigroup,
    SemigroupError,
    decode_canonical,
    format_cayley,
    mask_contains,
    mask_elems,
    mask_of,
    parse_cayley,
)
from sgideals.corpus import (
    all_monoids_with_zero,
    build_chain_x,
    build_delta,
    build_ef,
    build_min_chain,
)

from oracles import power_scan, right_principal_scan


def test_minimal_monoid_is_valid():
    s = Semigroup([[0, 0], [0, 1]], one=1, zero=0)
    assert s.n == 2 and s.mul(1, 1) == 1 and s.mul(0, 1) == 0


def test_chain_min_table_is_valid():
    assert build_min_chain(2).n == 4


def test_not_associative_carries_witness():
    Semigroup([[0, 0, 0], [0, 1, 2], [0, 2, 1]], 1, 0)  # C2 with zero
    bad = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 2]]
    with pytest.raises(NotAssociative) as exc:
        Semigroup(bad, 1, 0)
    i, j, k = exc.value.witness
    assert bad[bad[i][j]][k] != bad[i][bad[j][k]]


def test_bad_identity_and_zero():
    with pytest.raises(BadIdentity):
        Semigroup([[0, 0], [1, 1]], one=1, zero=0)
    with pytest.raises(BadZero):
        Semigroup([[1, 0], [0, 1]], one=1, zero=0)
    with pytest.raises(OneEqualsZero):
        Semigroup([[0, 0], [0, 0]], one=0, zero=0)
    with pytest.raises(SemigroupError):
        Semigroup([[9, 0], [0, 1]], one=1, zero=0)
    with pytest.raises(SemigroupError):
        Semigroup([[0]], one=0, zero=0)
    with pytest.raises(SemigroupError):
        Semigroup([[0, 0], [0]], one=1, zero=0)  # ragged
    with pytest.raises(SemigroupError):
        Semigroup([[0, 0], [0, 1.5]], one=1, zero=0)  # not an integer


def test_multiply_examples(ef4):
    s = ef4.semigroup
    e, f, ef_, x = (ef4.element_names.index(w) for w in ("e", "f", "ef", "x"))
    assert s.mul(e, f) == ef_
    for a in range(s.n):
        assert s.mul(s.one, a) == a == s.mul(a, s.one)
    x4 = ef4.element_names.index("x4")
    assert s.mul(x, x4) == s.zero


def test_element_power(ef4):
    s = ef4.semigroup
    x = ef4.element_names.index("x")
    assert s.power(x, 5) == s.zero == power_scan(s, x, 5)
    assert s.power(s.one, 17) == s.one
    m = build_min_chain(3)
    assert m.power(3, 2) == 3  # idempotent generator


def test_power_additivity(pool234):
    for s in pool234:
        for a in range(s.n):
            for j in range(1, 4):
                for k in range(1, 4):
                    assert s.power(a, j + k) == s.mul(s.power(a, j), s.power(a, k))


def test_nilpotent_elements(ef4):
    s = ef4.semigroup
    x = ef4.element_names.index("x")
    assert s.is_nilpotent_element(x)
    assert not s.is_nilpotent_element(s.one)
    d = build_delta(3)
    assert not d.is_nilpotent_element(2)  # idempotent generator


def test_units(ef4, pool234):
    s = ef4.semigroup
    assert s.units_mask() == 1 << s.one
    for t in pool234:
        units = t.units_mask()
        assert mask_contains(units, t.one)
        assert not mask_contains(units, t.zero)
        # closed under multiplication
        for a in mask_elems(units):
            for b in mask_elems(units):
                assert mask_contains(units, t.mul(a, b))
        assert units & t.nonunits_mask() == 0


def test_cancellativity(ef4):
    assert build_chain_x(4).is_left_cancellative()
    d = build_delta(3)
    assert not d.is_left_cancellative()
    a, b, c = d.left_cancellation_witness()
    assert d.mul(a, b) == d.mul(a, c) != d.zero and b != c
    s = ef4.semigroup
    assert not s.is_left_cancellative()
    e, f, ef_ = (ef4.element_names.index(w) for w in ("e", "f", "ef"))
    assert s.mul(e, f) == s.mul(e, ef_) != s.zero  # the witness pair exists


def test_associativity_holds_on_pool(pool234):
    for s in pool234:
        t = s.rows
        n = s.n
        assert all(
            t[t[i][j]][k] == t[i][t[j][k]]
            for i in range(n) for j in range(n) for k in range(n)
        )


def test_right_principal_matches_scan(pool234):
    for s in pool234:
        for a in range(s.n):
            assert s.right_principal(a) == right_principal_scan(s, a)


# -- canonical form ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_orbit_invariance(data):
    pool = [build_ef(3), build_chain_x(3), build_delta(3), build_min_chain(3)]
    s = data.draw(st.sampled_from(pool))
    rest = [i for i in range(s.n) if i not in (s.one, s.zero)]
    target = data.draw(st.permutations(rest))
    perm = list(range(s.n))
    for a, b in zip(rest, target):
        perm[a] = b
    assert s.relabel(perm).canonical_form() == s.canonical_form()


def test_canonical_form_separates():
    assert build_chain_x(2).canonical_form() != build_delta(2).canonical_form()


def test_order_two_unique():
    assert len(all_monoids_with_zero(2)) == 1


def test_canonical_roundtrip(ef4):
    blob = ef4.semigroup.canonical_form()
    assert decode_canonical(blob).canonical_form() == blob


# -- Cayley text format -------------------------------------------------------


def test_cayley_roundtrip(ef4):
    s = ef4.semigroup
    text = format_cayley(s, header="demo\nsecond line")
    t = parse_cayley(text)
    assert t == s


def test_cayley_comments_and_errors():
    good = "# comment\n2 1 0\n0 0\n0 1\n"
    assert parse_cayley(good).n == 2
    with pytest.raises(CayleyFormatError):
        parse_cayley("2 1 0\n0 0\n")  # missing row
    with pytest.raises(CayleyFormatError):
        parse_cayley("2 1 0\n0 x\n0 1\n")  # non-integer
    with pytest.raises(CayleyFormatError):
        parse_cayley("2 1\n0 0\n0 1\n")  # bad header
    with pytest.raises(CayleyFormatError):
        parse_cayley("")
    with pytest.raises(CayleyFormatError):
        parse_cayley("2 1 0\n0 0 0\n0 1 0\n")  # row width


def test_mask_helpers():
    m = mask_of([0, 3, 5])
    assert mask_elems(m) == [0, 3, 5]
    assert mask_contains(m, 3) and not mask_contains(m, 1)
