from collections import Counter

import pytest

from sgideals.core import Semigroup, mask_elems, mask_of
from sgideals.localize import (
    NotCompletelyPrime,
    NotMultClosed,
    OreSweep,
    _ideal_waist_or_full,
    equivalence_class,
    is_right_ore_set,
    is_right_p_comparable,
    saturate,
    saturation_by_element,
)
from sgideals.classify import PrimenessKind, is_mult_closed, is_waist, prime_family
from sgideals.corpus import (
    build_chain_x,
    build_delta,
    build_ef,
    build_min_chain,
)
from sgideals.ideals import IdealKind, is_ideal
from sgideals.verify import run_check

from oracles import (
    lem31_bruteforce,
    null_monoid,
    p_comparability_bruteforce,
    right_ore_sets_bruteforce,
    saturate_scan,
    shuffled,
)

P_EF = mask_of([0, 5, 6, 7, 8])


def T_of(s, p):
    return s.full & ~p


def test_ore_sets(ef4):
    s = ef4.semigroup
    assert is_right_ore_set(s, 1 << s.one)
    assert is_right_ore_set(s, T_of(s, P_EF))
    assert is_right_ore_set(s, s.units_mask())
    e = ef4.element_names.index("e")
    with pytest.raises(NotMultClosed):
        is_right_ore_set(s, mask_of([e, ef4.element_names.index("f")]))


def test_ore_warns_without_identity(ef4):
    s = ef4.semigroup
    with pytest.warns(UserWarning):
        is_right_ore_set(s, 1 << s.zero)


def test_saturate_examples(ef4):
    s = ef4.semigroup
    names = ef4.element_names
    e, f, x = names.index("e"), names.index("f"), names.index("x")
    t_mask = T_of(s, P_EF)
    sat_e = saturate(s, s.right_principal(e), t_mask)
    assert (sat_e >> f) & 1  # f*ef lands in eS
    assert saturate(s, s.right_principal(e), 1 << s.one) == s.right_principal(e)
    assert saturate(s, s.right_principal(x), t_mask) == s.right_principal(x) == P_EF
    assert sat_e == saturate(s, s.right_principal(f), t_mask)
    # under the strict membership reading the saturation of eS absorbs the
    # identity as well (1*e lands in eS), hence equals the whole carrier
    assert sat_e == s.full


def test_saturate_matches_scan(pool234):
    for s in pool234:
        for t_mask in range(1 << s.n):
            if not is_mult_closed(s, t_mask):
                continue
            for a in range(s.n):
                x = s.right_principal(a)
                assert saturate(s, x, t_mask) == saturate_scan(
                    s, set(mask_elems(x)), mask_elems(t_mask)
                )


def test_comparability_ef4(ef4):
    rep = is_right_p_comparable(ef4.semigroup, P_EF)
    assert rep.holds
    assert rep.conditions == (True,) * 5
    assert rep.weak_holds
    assert rep.improper_waist_admitted  # sat(eS) is the whole carrier
    assert rep.witness is None
    d = rep.to_dict()
    assert d["p"] == [0, 5, 6, 7, 8] and all(d["conditions"].values())


def test_comparability_chain(ef4):
    c3 = build_chain_x(3)
    j = c3.nonunits_mask()
    assert is_right_p_comparable(c3, j).holds
    assert is_right_p_comparable(c3, j).weak_holds


def test_comparability_delta_fails():
    d = build_delta(3)
    p1 = d.full & ~(1 << 1) & ~(1 << 2)  # everything except 1 and x1
    rep = is_right_p_comparable(d, p1)
    assert not rep.holds
    assert rep.witness == (2, 3)


def test_comparability_validates(ef4):
    s = ef4.semigroup
    with pytest.raises(NotCompletelyPrime):
        is_right_p_comparable(s, 1 << s.zero)  # {0} is not completely prime here
    with pytest.raises(NotCompletelyPrime):
        is_right_p_comparable(s, mask_of([0, ef4.element_names.index("e")]))
    with pytest.raises(NotCompletelyPrime):
        is_right_p_comparable(s, s.full)


def test_equivalence_class(ef4):
    s = ef4.semigroup
    names = ef4.element_names
    e, f, x = names.index("e"), names.index("f"), names.index("x")
    cls_e = equivalence_class(s, e, P_EF)
    assert (s.right_principal(e) | s.right_principal(f)) & ~cls_e == 0
    assert equivalence_class(s, s.one, P_EF) == s.full
    assert equivalence_class(s, x, P_EF) == s.right_principal(x)


def test_sat_equals_translate(ef4):
    c4 = build_chain_x(4)
    v = run_check(c4, "Thm3.8")
    assert v.status == "holds"
    v = run_check(ef4.semigroup, "Thm3.8")
    assert v.status == "vacuous"
    assert ("left_cancellative", False) in v.hypothesis_trace


def test_nested_saturation_direction_is_monotone(pool234, corpus_entries):
    # the antitone inclusion, sat(aS, T') inside sat(aS, T) for nested
    # multiplicatively closed T inside T', fails on every input at its first
    # pair, the empty set inside any nonempty closed T': sat(aS, {}) is
    # empty, while 0*t = 0 lies in aS and so puts 0 in sat(aS, T')
    for s in [*pool234, *(e.semigroup for e in corpus_entries)]:
        closed = [t for t in range(1, 1 << s.n) if is_mult_closed(s, t)]
        assert s.zero_mask in closed
        for a_s in set(s.right_principals):
            assert saturate(s, a_s, 0) == 0
            assert all(saturate(s, a_s, t) & s.zero_mask for t in closed)


def test_monotone_inclusion_always(pool234):
    for s in pool234:
        closed = [t for t in range(1 << s.n) if is_mult_closed(s, t)]
        for t1 in closed:
            for t2 in closed:
                if t1 & ~t2:
                    continue
                for a in range(s.n):
                    x = s.right_principal(a)
                    assert saturate(s, x, t1) & ~saturate(s, x, t2) == 0


def test_weak_without_strict_order5_witness():
    # smallest known separation of weak and strict comparability under left
    # cancellation: b*c == a == c*c with everything else in the free block
    # vanishing; bP == cP == {0, a} while bS and cS saturate apart
    table = [
        [0, 0, 0, 0, 0],
        [0, 1, 2, 3, 4],
        [0, 2, 0, 0, 0],
        [0, 3, 0, 0, 2],
        [0, 4, 0, 0, 2],
    ]
    s = Semigroup(table, one=1, zero=0)
    assert s.is_left_cancellative()
    j = s.nonunits_mask()
    rep = is_right_p_comparable(s, j)
    assert rep.weak_holds and not rep.holds


def test_saturate_contains_input_when_identity_present(pool234):
    for s in pool234:
        for t_mask in range(1 << s.n):
            if not (t_mask >> s.one) & 1 or not is_mult_closed(s, t_mask):
                continue
            for a in range(s.n):
                x = s.right_principal(a)
                assert x & ~saturate(s, x, t_mask) == 0


def _assert_sweep_matches_bruteforce(s):
    ore = right_ore_sets_bruteforce(s)
    sweep = OreSweep(s)
    assert tuple(sweep) == tuple(ore)
    for t_mask in ore:
        members = mask_elems(t_mask)
        assert sweep.saturations(t_mask) == [
            saturate_scan(s, set(s.rows[a]), members) for a in range(s.n)
        ]


def test_ore_sweep_matches_bruteforce_pools_and_corpus(pool234, pool5, corpus_entries):
    for s in [*pool234, *pool5, *(e.semigroup for e in corpus_entries)]:
        _assert_sweep_matches_bruteforce(s)


@pytest.mark.slow
def test_ore_sweep_matches_bruteforce_order6(pool6):
    for s in pool6:
        _assert_sweep_matches_bruteforce(s)


class _ForcedSweep(OreSweep):
    """OreSweep with every yS read as the whole carrier, so that a
    saturation passes the right-ideal test only when it is empty or S."""

    def __init__(self, s):
        super().__init__(s)
        self._times_s = (s.full,) * s.n


def _forced_witness(s):
    # the first Ore set T, and then the least a, whose sat(aS, T) is
    # neither empty nor S, from the literal definitions
    return next(((t_mask, a) for t_mask in right_ore_sets_bruteforce(s) for a in range(s.n)
                 if saturate_scan(s, set(s.rows[a]), mask_elems(t_mask)) not in (0, s.full)),
                None)


def test_first_non_ideal_saturation_witness_order(pool234, pool5):
    # every saturation is a right ideal (Lem3.1), so the test is run with
    # every yS read as the whole carrier: then the first failure is the
    # first T, and then the least a, whose sat(aS, T) is neither empty (T
    # empty: no y to read) nor S; on the pools as enumerated that is always
    # ({1}, 0), so each is run relabelled too
    pools = [*pool234, *pool5]
    for s in [*pools, *(shuffled(s, i) for i, s in enumerate(pools))]:
        assert OreSweep(s).first_non_ideal_saturation() is None
        want = _forced_witness(s)
        assert want is not None
        assert _ForcedSweep(s).first_non_ideal_saturation() == want


def test_lem31_forced_discrepancy(pool234, monkeypatch):
    from sgideals import verify

    monkeypatch.setattr(verify, "OreSweep", _ForcedSweep)
    for s in [*pool234, *(shuffled(s, i) for i, s in enumerate(pool234))]:
        t_mask, a = _forced_witness(s)
        got = run_check(s, "Lem3.1")
        assert (got.status, got.witness) == ("discrepancy", {"ore_set": mask_elems(t_mask), "a": a})


FAMILIES = {"null": null_monoid, "delta": lambda n: build_delta(n - 2),
            "min_chain": lambda n: build_min_chain(n - 2)}


@pytest.mark.parametrize("n", [
    4, 6, 8, 10, pytest.param(12, marks=pytest.mark.slow),
])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ore_sweep_matches_bruteforce_relabelled_families(family, n):
    _assert_sweep_matches_bruteforce(shuffled(FAMILIES[family](n), 100 * n + len(family)))


@pytest.mark.parametrize("order", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_lem31_matches_bruteforce(pools, order):
    for s in pools[order]:
        got = run_check(s, "Lem3.1")
        want = lem31_bruteforce(s)
        assert got.hypothesis_trace == (("subset_enumeration_feasible", True),)
        assert (got.status, got.witness) == (want.status, want.witness)


def _assert_comparability_matches_bruteforce(monoids):
    """Every completely prime right ideal of every monoid: the report and
    the saturations equal the pair loops'.  Returns how many reports fail
    the pairwise condition, so a sweep can show it met both outcomes."""
    failing = 0
    for s in monoids:
        for p in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT):
            want, sat = p_comparability_bruteforce(s, p)
            got = is_right_p_comparable(s, p)
            assert got.to_dict() == want.to_dict()
            assert saturation_by_element(s, p) == sat
            failing += not got.holds
    return failing


def test_waist_form_kernel_matches_the_predicates(pool234, pool5, corpus_entries):
    # the fifth form's one-pass test against is_ideal and is_waist: every
    # mask of the monoids of order at most 4 and the corpus, and every
    # saturation by S-P of the order-5 pool
    def literal(s, m):
        return is_ideal(s, m, IdealKind.RIGHT) and (m == s.full or is_waist(s, m))

    seen = Counter()
    for s in [*pool234, *(e.semigroup for e in corpus_entries)]:
        for m in range(1 << s.n):
            want = literal(s, m)
            assert _ideal_waist_or_full(s, m) == want, (s.rows, m)
            seen[want] += 1
    for s in pool5:
        for p in prime_family(s, PrimenessKind.COMPLETELY_PRIME, IdealKind.RIGHT):
            for m in set(saturation_by_element(s, p)):
                want = literal(s, m)
                assert _ideal_waist_or_full(s, m) == want, (s.rows, p, m)
                seen[want, "saturation"] += 1
    assert min(seen.values()) > 0 and len(seen) == 4


def test_comparability_matches_bruteforce_pools_and_corpus(pool234, pool5, corpus_entries):
    assert _assert_comparability_matches_bruteforce(pool234) > 0
    assert _assert_comparability_matches_bruteforce(pool5) > 0
    _assert_comparability_matches_bruteforce(e.semigroup for e in corpus_entries)


COMPARABILITY_FAMILIES = {"min_chain": build_min_chain, "delta": build_delta, "ef": build_ef}


@pytest.mark.parametrize("k", [2, 3, 5, 8])
@pytest.mark.parametrize("family", sorted(COMPARABILITY_FAMILIES))
def test_comparability_matches_bruteforce_relabelled_families(family, k):
    s = shuffled(COMPARABILITY_FAMILIES[family](k), 31 * k + len(family))
    _assert_comparability_matches_bruteforce([s])


def test_comparability_matches_bruteforce_benchmark_families():
    # the large_families inputs but min_chain(10), relabelled: 57 reports,
    # 14 of them failing the pairwise condition
    monoids = [shuffled(build(k), k) for build, k in
               [(build_min_chain, 40), (build_ef, 30), (build_delta, 10), (build_chain_x, 30)]]
    assert _assert_comparability_matches_bruteforce(monoids) > 0


@pytest.mark.slow
def test_comparability_matches_bruteforce_order6(pool6):
    assert _assert_comparability_matches_bruteforce(pool6) > 0
