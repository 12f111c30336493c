import hashlib
import importlib
from itertools import permutations

import pytest

from sgideals.core import Semigroup, mask_of
from sgideals.corpus import (
    NontrivialUnits,
    NotRightChain,
    all_monoids_with_zero,
    build_adjoined,
    build_chain_x,
    build_delta,
    build_ef,
    build_min_chain,
    build_minimal,
    chain_x_names,
    corpus,
    corpus_entry,
    ef_names,
    enumerate_monoids_with_zero,
    generator_names,
)
from sgideals.classify import is_right_chain
from sgideals.localize import is_right_p_comparable
from sgideals.segments import completely_prime_spectrum

from oracles import isomorphic_bruteforce, monoids_with_zero_first_seen


def test_ef_construction(ef4):
    s = ef4.semigroup
    names = ef4.element_names
    assert s.n == 9 and len(names) == 9
    e, x = names.index("e"), names.index("x")
    assert s.mul(e, x) == x == s.mul(x, e)
    x2, x3 = names.index("x2"), names.index("x3")
    assert s.mul(x2, x3) == s.zero  # degrees add past the truncation
    assert build_ef(2).n == 7
    with pytest.raises(ValueError):
        build_ef(1)


def test_chain_x_and_names():
    c = build_chain_x(4)
    assert c.n == 6 and chain_x_names(4) == ("0", "1", "x", "x2", "x3", "x4")
    assert c.mul(2, 2) == 3  # x * x == x2
    assert c.powers(2) == [2, 3, 4, 5, 0]  # x, .., x4, then 0
    with pytest.raises(ValueError):
        build_chain_x(0)


def test_min_chain_and_delta():
    m = build_min_chain(3)
    assert m.mul(3, 4) == 3 and m.mul(4, 3) == 3
    d = build_delta(3)
    assert d.mul(2, 2) == 2 and d.mul(2, 3) == d.zero
    assert generator_names(3) == ("0", "1", "x1", "x2", "x3")
    with pytest.raises(ValueError):
        build_delta(1)
    with pytest.raises(ValueError):
        build_min_chain(1)


def test_adjoined_matches_ef():
    for n_pow in range(2, 7):
        adj = build_adjoined(build_chain_x(n_pow))
        ef = build_ef(n_pow)
        assert adj.n == ef.n == n_pow + 5
        assert adj.canonical_form() == ef.canonical_form()
    # spot check the canonical-form equality against raw permutation search
    assert isomorphic_bruteforce(build_adjoined(build_chain_x(2)), build_ef(2))


def test_adjoined_properties():
    h = build_chain_x(3)
    s = build_adjoined(h)
    assert not is_right_chain(s)
    assert is_right_p_comparable(s, h.nonunits_mask()).holds


def test_adjoined_rejects_bad_bases():
    with pytest.raises(NotRightChain):
        build_adjoined(build_delta(2))
    c2_with_zero = Semigroup([[0, 0, 0], [0, 1, 2], [0, 2, 1]], 1, 0)
    assert is_right_chain(c2_with_zero)
    with pytest.raises(NontrivialUnits):
        build_adjoined(c2_with_zero)


def _x(k):
    """The name of x^k, as the power chain names it."""
    return "1" if k == 0 else "x" if k == 1 else f"x{k}"


def _degree(name):
    """The power of x a chain_x or ef name stands for; 0 for 1, e, f, ef."""
    return int(name[1:] or 1) if name.startswith("x") else 0


def _chain_x_rule(n_pow):
    def rule(u, v):
        k = _degree(u) + _degree(v)
        return "0" if "0" in (u, v) or k > n_pow else _x(k)
    return rule


def _ef_rule(n_pow):
    # e and f are commuting idempotents with product ef; every flag acts as
    # an identity on the powers of x
    def rule(u, v):
        k = _degree(u) + _degree(v)
        if "0" in (u, v) or k > n_pow:
            return "0"
        if k:
            return _x(k)
        return "".join(sorted(set(u + v) - {"1"})) or "1"
    return rule


def _generator_rule(product):
    """0 absorbs, 1 is the identity, and two generators multiply by `product`."""
    def rule(u, v):
        if "0" in (u, v):
            return "0"
        if "1" in (u, v):
            return v if u == "1" else u
        return product(u, v)
    return rule


_min_rule = _generator_rule(lambda u, v: min(u, v, key=lambda w: int(w[1:])))
_delta_rule = _generator_rule(lambda u, v: u if u == v else "0")


def _follows(s, names, rule):
    """Each cell of s, read through the element names, is what the rule says."""
    assert len(names) == s.n
    assert (names[s.one], names[s.zero]) == ("1", "0")
    return all(names[s.mul(i, j)] == rule(u, v)
               for i, u in enumerate(names) for j, v in enumerate(names))


def test_builders_follow_their_rules():
    # the docstring rules, written on element names and without the table
    # constructor the builders share, so a swapped label is a failed cell
    for n in range(1, 9):
        assert _follows(build_chain_x(n), chain_x_names(n), _chain_x_rule(n))
    for n in range(2, 9):
        assert _follows(build_min_chain(n), generator_names(n), _min_rule)
        assert _follows(build_delta(n), generator_names(n), _delta_rule)
        assert _follows(build_ef(n), ef_names(n), _ef_rule(n))


# the right chains with trivial units among the 131 classes of order 2-5
ADJOINED_BASES_IN_POOLS_2_TO_5 = 37


def test_adjoined_follows_its_rule(pool234, pool5):
    # H keeps its indices and e, f, ef follow; a flag acts as an identity
    # on H less 1, absorbs 1, and flags multiply by union of their letters
    built = 0
    for h in [*pool234, *pool5]:
        if not is_right_chain(h):
            with pytest.raises(NotRightChain):
                build_adjoined(h)
            continue
        if h.units_mask() != 1 << h.one:
            with pytest.raises(NontrivialUnits):
                build_adjoined(h)
            continue
        s = build_adjoined(h)
        built += 1
        assert (s.n, s.one, s.zero) == (h.n + 3, h.one, h.zero)
        flags = ["e", "f", "ef"]
        for i in range(s.n):
            for j in range(s.n):
                if i < h.n and j < h.n:
                    want = h.mul(i, j)
                elif i >= h.n and j >= h.n:
                    word = "".join(sorted(set(flags[i - h.n] + flags[j - h.n])))
                    want = h.n + flags.index(word)
                else:
                    g, x = (i, j) if i >= h.n else (j, i)
                    want = g if x == h.one else x
                assert s.mul(i, j) == want, (h.rows, i, j)
    assert built == ADJOINED_BASES_IN_POOLS_2_TO_5


# sha256 of n, one, zero and the rows of the large_families inputs (ef(30),
# min_chain(40), chain_x(30), delta(10), min_chain(10)) and of the corpus
# entries in registry order; canonical hashes do not see a relabelling,
# this does
BUILT_TABLES_SHA256 = "c58fdb3169e685d9a4c9c320e716cd4a7a65a199e96cab98abad02bf23626823"


def test_built_tables_are_pinned():
    tables = [build_ef(30), build_min_chain(40), build_chain_x(30), build_delta(10),
              build_min_chain(10), *(e.semigroup for e in corpus().values())]
    digest = hashlib.sha256()
    for s in tables:
        digest.update(bytes([s.n, s.one, s.zero, *(v for row in s.rows for v in row)]))
    assert digest.hexdigest() == BUILT_TABLES_SHA256


def test_minimal():
    m = build_minimal()
    assert m.n == 2 and m.mul(1, 1) == 1


def test_enumeration_counts():
    assert enumerate_monoids_with_zero(2) == 1
    assert enumerate_monoids_with_zero(3) == 3
    assert enumerate_monoids_with_zero(4) == 15
    with pytest.raises(ValueError):
        enumerate_monoids_with_zero(1)


def _labelled_count(pool, n):
    """The labelled tables the classes account for, by orbit-stabilizer:
    the sum of (n-2)!/|Aut S|, with |Aut S| counted over all relabellings of
    2..n-1, independently of the enumerator."""
    labelled = 0
    relabellings = [(0, 1) + p for p in permutations(range(2, n))]
    for s in pool:
        aut = sum(
            all(p[s.rows[i][j]] == s.rows[p[i]][p[j]] for i in range(n) for j in range(n))
            for p in relabellings
        )
        assert len(relabellings) % aut == 0
        labelled += len(relabellings) // aut
    return labelled


@pytest.mark.parametrize("order, labelled", [(4, 25), (5, 533), (6, 21010)])
def test_enumeration_accounts_for_every_labelled_table(order, labelled):
    assert _labelled_count(all_monoids_with_zero(order), order) == labelled


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_enumeration_matches_first_seen_oracle(order):
    # lex-leader pruning keeps, in the same order, exactly the tables a
    # full labelled search keeps when it drops every later isomorphic copy
    got = [[list(r) for r in s.rows] for s in all_monoids_with_zero(order)]
    assert got == monoids_with_zero_first_seen(order)


# sha256 of the order-6 rows, each table row-major, in emission order, as
# the search emitted them when it left non-associative tables to the
# constructor: pruning a subtree with no associative table keeps both
ORDER6_ROWS_SHA256 = "5936d3c70de313cef711141b417ce3004902b27306afcd2aa03c13fdcce3e1f5"


def test_enumeration_rows_and_order_at_6(pool6):
    flat = bytes(v for s in pool6 for row in s.rows for v in row)
    assert hashlib.sha256(flat).hexdigest() == ORDER6_ROWS_SHA256


@pytest.mark.parametrize("order, classes", [(2, 1), (3, 3), (4, 15), (5, 112), (6, 1101)])
def test_enumeration_completes_only_associative_tables(monkeypatch, order, classes):
    # every triple is checked when its last cell is filled, so each complete
    # table the search reaches is a class: one constructor call per class
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return Semigroup(*args, **kwargs)

    # the package's name `corpus` is the registry function, not the module
    module = importlib.import_module("sgideals.corpus")
    monkeypatch.setattr(module, "Semigroup", counting)
    assert enumerate_monoids_with_zero(order) == classes
    assert calls == classes


def test_enumeration_complete_at_6(pool6):
    # the count enumerate_monoids_with_zero(6) returns is pinned through
    # `sgideals enumerate 6` in test_cli
    assert len(pool6) == 1101
    assert len({s.canonical_form() for s in pool6}) == 1101
    # orbit-stabilizer: the classes account for all 21,010 labelled tables
    assert _labelled_count(pool6, 6) == 21010


def test_enumeration_emits_valid_deduped(pool234):
    seen = set()
    for s in pool234:
        assert isinstance(s, Semigroup)
        assert s.one == 1 and s.zero == 0
        form = s.canonical_form()
        assert form not in seen
        seen.add(form)


def test_enumeration_complete_at_3():
    # every 3x3 table with forced 0/1 rows is determined by the one free
    # cell; all three choices are associative and pairwise non-isomorphic
    pool = all_monoids_with_zero(3)
    assert len(pool) == 3
    cells = sorted(s.rows[2][2] for s in pool)
    assert cells == [0, 1, 2]


P_EF4 = ["0", "x", "x2", "x3", "x4"]  # ef4's nilpotents, by element name

# (order, is_right_chain, is_left_cancellative, nilpotent elements,
# completely prime spectrum, comparability ideals checked), the last three
# by element name; None where the entry records no such fact
FACTS = {
    "min2": (2, True, True, ["0"], [["0"]], None),
    "chain_x4": (6, True, True, ["0", "x", "x2", "x3", "x4"], [["0", "x", "x2", "x3", "x4"]],
                 None),
    "ef4": (9, False, False, P_EF4, None, [P_EF4]),
    "min_chain3": (5, True, False, None, [["0"], ["0", "x1"], ["0", "x1", "x2"],
                                          ["0", "x1", "x2", "x3"]], None),
    "min_chain4": (6, True, False, None, None, None),
    "delta3": (5, False, False, None, [["0", "x1", "x2"], ["0", "x1", "x2", "x3"],
                                       ["0", "x1", "x3"], ["0", "x2", "x3"]], None),
}


def test_corpus_registry_and_facts():
    reg = corpus()
    assert set(reg) == set(FACTS)
    for name, entry in reg.items():
        s, names = entry.semigroup, entry.element_names
        assert len(names) == s.n
        order, chain, cancel, nilp, spectrum, comparable = FACTS[name]
        assert (s.n, is_right_chain(s), s.is_left_cancellative()) == (order, chain, cancel), name

        def mask(labels):
            return mask_of(names.index(w) for w in labels)

        if nilp is not None:
            assert s.nilpotent_elements() == mask(nilp), name
        if spectrum is not None:
            assert sorted(completely_prime_spectrum(s)) == sorted(map(mask, spectrum)), name
        if comparable is not None:
            assert all(is_right_p_comparable(s, mask(p)).holds for p in comparable), name


def test_corpus_entry_lookup():
    assert corpus_entry("ef4").name == "ef4"
    with pytest.raises(KeyError):
        corpus_entry("nope")


def test_ef_names_layout():
    assert ef_names(4)[:5] == ("0", "1", "e", "f", "ef")


def test_enumeration_order_bound():
    from sgideals.corpus import MAX_ENUM_ORDER

    with pytest.raises(ValueError):
        enumerate_monoids_with_zero(MAX_ENUM_ORDER + 1)
