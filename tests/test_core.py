import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sgideals
from sgideals.classify import PrimenessKind, associated_prime, prime_family, radicals
from sgideals.cli import analysis_report
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
    is_subset,
    mask_contains,
    mask_elems,
    mask_of,
    memoized,
    parse_cayley,
)
from sgideals.corpus import (
    all_monoids_with_zero,
    build_chain_x,
    build_delta,
    build_ef,
    build_min_chain,
    corpus,
)
from sgideals.ideals import (
    DEFAULT_CAP,
    CapExceeded,
    IdealKind,
    enumerate_ideals,
    power_sequence,
)
from sgideals.localize import (
    is_right_p_comparable,
    right_ore_condition,
    saturate,
    saturation_by_element,
)
from sgideals.segments import prime_segments
from sgideals.verdict import VACUOUS
from sgideals.verify import run_check, run_suite

from oracles import (
    canonical_form_bruteforce,
    elems_scan,
    null_monoid,
    power_scan,
    preimages_scan,
    right_principal_scan,
    right_translates_scan,
    shuffled,
    translates_scan,
    units_scan,
)


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


def test_relabel_rejects_a_non_permutation():
    # too long (its tail was ignored), too short (a bare IndexError) and
    # not injective (a misleading BadIdentity from the constructor)
    for s, perm in ((build_chain_x(3), range(6)),
                    (build_chain_x(3), [0, 1, 3, 2]),
                    (build_chain_x(3), [0, 1, 2, 2, 4])):
        assert s.n == 5
        with pytest.raises(ValueError, match="not a permutation") as exc:
            s.relabel(perm)
        assert not isinstance(exc.value, SemigroupError)


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
    assert s.powers(x)[-1] == s.zero and len(s.powers(x)) == 5  # x^5 == 0
    assert s.powers(s.one) == [s.one]
    assert build_min_chain(3).powers(3) == [3]  # idempotent generator


def test_powers_match_scan(pool234, pool5, corpus_entries):
    for s in [*pool234, *pool5, *(e.semigroup for e in corpus_entries)]:
        for a in range(s.n):
            want = []
            k = 1
            while power_scan(s, a, k) not in want:
                want.append(power_scan(s, a, k))
                k += 1
            assert s.powers(a) == want
            assert s.is_nilpotent_element(a) == (s.zero in want)


def test_nilpotent_elements(ef4):
    s = ef4.semigroup
    x = ef4.element_names.index("x")
    assert s.is_nilpotent_element(x)
    assert not s.is_nilpotent_element(s.one)
    d = build_delta(3)
    assert not d.is_nilpotent_element(2)  # idempotent generator


def test_units(ef4, pool234, pools, corpus_entries):
    s = ef4.semigroup
    assert s.units_mask() == 1 << s.one
    # units_mask reads 1 in uS alone: a one-sided inverse is two-sided
    for t in [*(u for pool in pools.values() for u in pool),
              *(e.semigroup for e in corpus_entries)]:
        assert t.units_mask() == units_scan(t)
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


def test_left_divisors_match_inclusion_scan(pool234):
    for s in pool234:
        princ = [right_principal_scan(s, a) for a in range(s.n)]
        for a in range(s.n):
            assert s.left_divisors()[a] == mask_of(
                b for b in range(s.n) if is_subset(princ[a], princ[b])
            )


def test_memo_is_the_only_cache_writer(corpus_entries):
    """Derived data lives under memoized's (function, *args) keys only."""
    for entry in corpus_entries:
        s = entry.semigroup
        run_suite(s)
        analysis_report(entry.name, s, entry, DEFAULT_CAP)
        assert s._cache
        assert all(isinstance(k, tuple) and callable(k[0]) for k in s._cache)


def test_translates_match_scan(pool234, corpus_entries):
    for s in [*pool234, *(e.semigroup for e in corpus_entries)]:
        for x in range(1 << s.n):
            assert s.translates(x) == translates_scan(s, x)


def test_mask_elems_matches_scan():
    for m in range(1 << 16):
        assert mask_elems(m) == elems_scan(m)
    # every width to 300 bits, so each byte boundary is the top bit of some
    # mask, and the bits on both sides of each boundary set together
    rng = random.Random(29)
    masks = [rng.getrandbits(w) | 1 << (w - 1) for w in range(1, 301) for _ in range(3)]
    masks += [3 << (8 * k - 1) for k in range(1, 38)]
    for m in masks:
        assert mask_elems(m) == elems_scan(m)


@pytest.mark.parametrize("build, k", [(build_ef, 30), (build_min_chain, 40)])
def test_translates_match_scan_at_benchmark_size(build, k):
    s = shuffled(build(k), k)
    rng = random.Random(k)
    masks = [0, s.full, *(1 << a for a in range(s.n)), *s.right_principals,
             *(rng.getrandbits(s.n) for _ in range(40))]
    for x in masks:
        assert s.translates(x) == s.left_muls(x) == translates_scan(s, x)
        assert s.right_muls(x) == right_translates_scan(s, x)


def test_saturation_sweep_memoizes_no_translates():
    """saturate and right_ore_condition keep no translates: a sweep over
    all 512 T of ef(4) leaves at most the column table on the instance."""
    s = build_ef(4)
    x = s.right_principal(2)
    for t in range(1 << s.n):
        saturate(s, x, t)
        right_ore_condition(s, t)
    assert {key[0].__qualname__ for key in s._cache} <= {"Semigroup._columns"}


def test_preimages_match_scan(pool234, corpus_entries):
    for s in [*pool234, *(e.semigroup for e in corpus_entries)]:
        assert s.preimages() == preimages_scan(s)


# the memo size after run_suite, before preimages() joined it: set products,
# power sequences and associated primes take one mask each, and memoizing
# them would grow the memo with every distinct mask a run meets
MEMO_ENTRIES = ((build_delta, 10, 65), (build_min_chain, 10, 77), (build_chain_x, 12, 55))


@pytest.mark.parametrize("build, arg, entries", MEMO_ENTRIES)
def test_memo_holds_no_per_mask_products(build, arg, entries):
    s = build(arg)
    run_suite(s)
    unmemoized = {Semigroup.product, Semigroup.generated_product, Semigroup.left_muls,
                  Semigroup.right_muls, power_sequence, associated_prime}
    assert not {f.__qualname__ for f in unmemoized} & {key[0].__qualname__ for key in s._cache}
    # + 1 for the one associated_primes(s, cap) tuple, a single entry per
    # right ideal family that replaces a call per mask
    assert len(s._cache) <= entries + 2


# -- opposite monoid ---------------------------------------------------------


def test_opposite_is_the_transpose(pool234, corpus_entries):
    for s in [*pool234, *(e.semigroup for e in corpus_entries)]:
        op = s.opposite()
        assert (op.one, op.zero) == (s.one, s.zero)
        assert all(op.mul(a, b) == s.mul(b, a) for a in range(s.n) for b in range(s.n))
        assert op.opposite() == s


def test_opposite_translates_are_right_products(pool234, corpus_entries):
    # a*X in S^op is X*a in S, on every mask
    for s in [*pool234, *(e.semigroup for e in corpus_entries)]:
        op = s.opposite()
        for x in range(1 << s.n):
            assert op.translates(x) == s.right_muls(x) == right_translates_scan(s, x)


def test_opposite_swaps_left_and_right(pool234, pool5, corpus_entries):
    # metamorphic: left notions of S are the right notions of S^op, and the
    # two-sided ones are shared
    two = IdealKind.TWO_SIDED
    for s in [*pool234, *pool5, *(e.semigroup for e in corpus_entries)]:
        op = s.opposite()
        assert set(enumerate_ideals(s, IdealKind.LEFT)) == set(enumerate_ideals(op, IdealKind.RIGHT))
        assert set(enumerate_ideals(s, two)) == set(enumerate_ideals(op, two))
        for kind in (PrimenessKind.PRIME, PrimenessKind.COMPLETELY_PRIME):
            assert set(prime_family(s, kind, two)) == set(prime_family(op, kind, two))
        rad, rad_op = radicals(s), radicals(op)
        assert rad.prime_radical == rad_op.prime_radical
        assert rad.completely_prime_radical == rad_op.completely_prime_radical
        assert rad.nil_radical == rad_op.nil_radical
        assert s.nilpotent_elements() == op.nilpotent_elements()
        assert s.left_cancellation_witness() == op.right_cancellation_witness()


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


def _own_blob(s: Semigroup) -> bytes:
    """The encoding of s's own table, which is canonical when every
    labelling of s gives the same table."""
    return bytes([s.n, s.one, s.zero, *(v for row in s.rows for v in row)])


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_canonical_form_matches_bruteforce_pool(pools, order):
    for i, s in enumerate(pools[order]):
        for seed in range(3):
            t = shuffled(s, 1000 * order + 3 * i + seed)
            assert t.canonical_form() == canonical_form_bruteforce(t)


@pytest.mark.slow
def test_canonical_form_matches_bruteforce_order6(pool6):
    for i, s in enumerate(pool6):
        t = shuffled(s, i)
        assert t.canonical_form() == canonical_form_bruteforce(t)


def test_canonical_form_matches_bruteforce_corpus_and_families():
    samples = [e.semigroup for e in corpus().values()]
    samples += [null_monoid(n) for n in range(2, 10)]
    samples += [build_delta(count) for count in range(2, 8)]
    for seed, s in enumerate(samples):
        for t in (s, shuffled(s, seed)):
            assert t.canonical_form() == canonical_form_bruteforce(t)


def _nilpotent3(rng: random.Random, k: int, m: int, density: float) -> Semigroup:
    """A random monoid with zero in which k generators multiply into m
    further elements or 0, and every longer product is 0."""
    n = 2 + k + m
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[1][i] = table[i][1] = i
    for i in range(2, 2 + k):
        for j in range(2, 2 + k):
            if rng.random() < density:
                table[i][j] = rng.randrange(2 + k, n)
    return Semigroup(table, 1, 0)


def test_canonical_form_matches_bruteforce_random_nilpotent():
    # small automorphism groups that move elements of several signature
    # blocks together, which the pool of order <= 6 hardly has: they catch
    # an orbit computed with automorphisms that move the current prefix
    rng = random.Random(0)
    for _ in range(1000):
        s = _nilpotent3(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3]), rng.choice([0.2, 0.4]))
        t = shuffled(s, rng.randrange(1 << 30))
        assert t.canonical_form() == canonical_form_bruteforce(t)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_form_relabelling_invariant_on_pool(pools, data):
    order = data.draw(st.integers(2, 6))
    s = data.draw(st.sampled_from(pools[order]))
    perm = data.draw(st.permutations(range(order)))
    assert s.relabel(perm).canonical_form() == s.canonical_form()


def test_canonical_form_beyond_the_bruteforce_range():
    # every relabelling fixes the null monoid's table and delta(14)'s, so
    # each is its own canonical form; a search that stops pruning symmetric
    # branches runs through 14! labellings here instead of finishing
    null16 = null_monoid(16)
    assert null16.canonical_form() == _own_blob(null16)
    delta14 = build_delta(14)
    assert delta14.canonical_form() == _own_blob(delta14)
    assert shuffled(delta14, 14).canonical_form() == delta14.canonical_form()


def test_canonical_form_separates():
    assert build_chain_x(2).canonical_form() != build_delta(2).canonical_form()


def test_order_two_unique():
    assert len(all_monoids_with_zero(2)) == 1


def test_canonical_roundtrip(ef4):
    blob = ef4.semigroup.canonical_form()
    assert decode_canonical(blob).canonical_form() == blob


@pytest.mark.parametrize("n", [255, 256])
def test_canonical_roundtrip_at_the_byte_boundary(n):
    # min_chain is rigid: every element has its own signature, so the
    # canonical search tries one labelling however large n is
    s = build_min_chain(n - 2)
    blob = s.canonical_form()
    if n < 256:
        assert blob[:3] == bytes([n, 1, 0]) and len(blob) == 3 + n * n
    t = decode_canonical(blob)
    assert t.n == n and t.canonical_form() == blob


@pytest.mark.parametrize("blob", [b"", b"\x00", b"\x00\x01", b"\x03", b"\x02\x01"])
def test_decode_canonical_rejects_truncated_blobs(blob):
    with pytest.raises(SemigroupError):
        decode_canonical(blob)


# -- Cayley text format -------------------------------------------------------


def test_cayley_roundtrip(ef4):
    s = ef4.semigroup
    text = format_cayley(s, header="demo\nsecond line")
    t = parse_cayley(text)
    assert t == s


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cayley_roundtrip_on_relabelled_pool(pools, data):
    order = data.draw(st.integers(2, 6))
    s = data.draw(st.sampled_from(pools[order]))
    s = s.relabel(data.draw(st.permutations(range(order))))
    assert parse_cayley(format_cayley(s)) == s


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


# -- the per-instance memo ------------------------------------------------------


def _fresh(s: Semigroup) -> Semigroup:
    return Semigroup(s.rows, s.one, s.zero)


def test_memo_returns_the_identical_object(ef4):
    s = _fresh(ef4.semigroup)
    assert s.canonical_form() is s.canonical_form()
    assert enumerate_ideals(s, IdealKind.RIGHT) is enumerate_ideals(s, IdealKind.RIGHT)
    assert radicals(s) is radicals(s)
    p = prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT)[0]
    assert is_right_p_comparable(s, p) is is_right_p_comparable(s, p)
    assert saturation_by_element(s, p) is saturation_by_element(s, p)
    # the memo is per instance: an equal table starts empty
    assert radicals(_fresh(s)) is not radicals(s)


def test_memo_records_reject_field_assignment(ef4):
    # every caller of a memoized function gets the same record, so no caller
    # may change it for the others
    s = ef4.semigroup
    p = prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT)[0]
    records = [(run_check(s, "Thm2.10"), "status"), (radicals(s), "nonunits"),
               (is_right_p_comparable(s, p), "holds"), (prime_segments(s)[0], "upper")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_memo_binds_defaulted_arguments(ef4):
    s = _fresh(ef4.semigroup)
    kinds = (PrimenessKind.PRIME, IdealKind.RIGHT)
    primes = prime_family(s, *kinds)
    assert prime_family(s, *kinds, DEFAULT_CAP) is primes
    assert prime_family(s, *kinds, cap=DEFAULT_CAP) is primes
    assert prime_family(s, ideal_kind=IdealKind.RIGHT, kind=PrimenessKind.PRIME) is primes
    fams = [k for k in s._cache if isinstance(k, tuple) and k[0] is prime_family.__wrapped__]
    assert fams == [(prime_family.__wrapped__, *kinds, DEFAULT_CAP)]


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                       # x is missing
    ((), {"cap": 5}),               # x is still missing
    ((3,), {"bogus": 1}),           # unknown keyword
    ((3,), {"x": 3}),               # x given twice
    ((3, 5, 7), {}),                # one positional too many
])
def test_memo_rejects_bad_arguments(ef4, args, kwargs):
    @memoized
    def family(s, x, cap=DEFAULT_CAP):
        return (x, cap)

    s = _fresh(ef4.semigroup)
    with pytest.raises(TypeError):
        family(s, *args, **kwargs)
    assert not s._cache


def test_core_does_not_import_inspect():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sgideals.core; print('inspect' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(Path(sgideals.__file__).parent.parent)},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"


def test_memo_keys_on_the_cap(ef4):
    s = _fresh(ef4.semigroup)
    enumerate_ideals(s, IdealKind.RIGHT)
    primes = prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT)
    # a family computed at the default cap must not answer a smaller cap
    with pytest.raises(CapExceeded):
        enumerate_ideals(s, IdealKind.RIGHT, 2)
    for _ in range(2):  # an exception is not cached
        with pytest.raises(CapExceeded):
            prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT, 2)
    v = run_check(s, "Thm2.4.iii", 2)
    assert v.status == VACUOUS and v.note == "cap"
    assert prime_family(s, PrimenessKind.PRIME, IdealKind.RIGHT) is primes


def test_memo_holds_only_hashable_values(corpus_entries):
    for entry in corpus_entries:
        s = _fresh(entry.semigroup)
        run_suite(s)
        analysis_report(entry.name, s, entry, DEFAULT_CAP)
        for key, value in s._cache.items():
            hash(key), hash(value)  # a mutable value would be shared by every caller


def test_only_core_touches_the_cache():
    src = Path(sgideals.__file__).parent
    owners = sorted(p.name for p in src.glob("*.py") if "_cache" in p.read_text(encoding="utf-8"))
    assert owners == ["core.py"]
