"""Built-in example monoids and the exhaustive small-order enumerator.

Index conventions used by every builder:

  chain_x(N):    0:"0", 1:"1", then x^k at index k+1 for k = 1..N
  min_chain(n):  0:"0", 1:"1", then x_i at index i+1
  delta(n):      0:"0", 1:"1", then x_i at index i+1
  ef(N):         0:"0", 1:"1", 2:"e", 3:"f", 4:"ef", then x^k at index k+4

The enumerator fixes zero at index 0 and the identity at index 1 and
emits one table per isomorphism class: its lex-minimal labelling, with the
classes in increasing lex order.  Lex-leader pruning cuts every partial
table that some relabelling of the other elements makes lex-smaller, so no
duplicate is ever completed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .core import NotAssociative, Semigroup, mask_elems, mask_of


class NotRightChain(ValueError):
    pass


class NontrivialUnits(ValueError):
    pass


def build_chain_x(n_pow: int) -> Semigroup:
    """The truncated power chain {0, 1, x, .., x^N} with x^(N+1) = 0.

    Left cancellative and a right chain; the workhorse for every statement
    that needs both properties.
    """
    if n_pow < 1:
        raise ValueError("need at least one power of x")
    n = n_pow + 2

    def idx(k):  # power k -> index, with overflow to zero
        if k == 0:
            return 1
        return k + 1 if k <= n_pow else 0

    def pw(i):  # index -> power, None for zero
        return None if i == 0 else i - 1

    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a, b = pw(i), pw(j)
            table[i][j] = 0 if a is None or b is None else idx(a + b)
    return Semigroup(table, one=1, zero=0)


def chain_x_names(n_pow: int) -> tuple[str, ...]:
    return ("0", "1") + tuple(f"x{k}" if k > 1 else "x" for k in range(1, n_pow + 1))


def build_min_chain(count: int) -> Semigroup:
    """{0, 1, x_1, .., x_n} with x_i * x_j = x_min(i,j); every x_i idempotent."""
    if count < 2:
        raise ValueError("need at least two chain generators")
    n = count + 2
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[1][i] = i
        table[i][1] = i
    for i in range(2, n):
        for j in range(2, n):
            table[i][j] = min(i, j)
    return Semigroup(table, one=1, zero=0)


def build_delta(count: int) -> Semigroup:
    """{0, 1, x_1, .., x_n} with x_i * x_j = x_j when i == j, else 0.

    Fails left cancellation; its minimal completely prime ideals sit in
    pairwise incomparable position.
    """
    if count < 2:
        raise ValueError("need at least two generators")
    n = count + 2
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[1][i] = i
        table[i][1] = i
    for i in range(2, n):
        table[i][i] = i
    return Semigroup(table, one=1, zero=0)


def generator_names(count: int) -> tuple[str, ...]:
    return ("0", "1") + tuple(f"x{i}" for i in range(1, count + 1))


def build_ef(n_pow: int) -> Semigroup:
    """The truncated two-idempotent extension of the power chain.

    Elements 0, 1, e, f, ef, x, .., x^N with e and f commuting idempotents,
    ef their product, e*x = f*x = ef*x = x, and x^(N+1) = 0.  Encoded as
    triples (a, b, k): the e-flag, the f-flag and the x-degree, where any
    positive degree absorbs both flags.
    """
    if n_pow < 2:
        raise ValueError("need x^2 distinct from 0")
    elems = [None, (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    elems += [(0, 0, k) for k in range(1, n_pow + 1)]
    index = {v: i for i, v in enumerate(elems)}
    n = len(elems)

    def mul(u, v):
        if u is None or v is None:
            return None
        a1, b1, k1 = u
        a2, b2, k2 = v
        k = k1 + k2
        if k > n_pow:
            return None
        if k >= 1:
            return (0, 0, k)
        return (a1 | a2, b1 | b2, 0)

    table = [[index.get(mul(u, v), 0) for v in elems] for u in elems]
    return Semigroup(table, one=1, zero=0)


def ef_names(n_pow: int) -> tuple[str, ...]:
    return ("0", "1", "e", "f", "ef") + tuple(
        f"x{k}" if k > 1 else "x" for k in range(1, n_pow + 1)
    )


def build_adjoined(h: Semigroup) -> Semigroup:
    """Adjoin commuting idempotents e, f (and their product ef) to a right
    chain monoid H, acting as identities on every element of H except 1.

    Requires the unit group of H to be trivial: a nontrivial unit u would
    force (e*u)*u' = u*u' = 1 while e*(u*u') = e, breaking associativity.
    """
    from .classify import is_right_chain

    if not is_right_chain(h):
        raise NotRightChain("the base monoid must be a right chain")
    if h.units_mask() != (1 << h.one):
        raise NontrivialUnits("the base monoid must have trivial units")
    nh = h.n
    n = nh + 3
    E, F, EF = nh, nh + 1, nh + 2
    flags = {E: (1, 0), F: (0, 1), EF: (1, 1)}
    table = [[0] * n for _ in range(n)]
    for i in range(nh):
        for j in range(nh):
            table[i][j] = h.rows[i][j]
    for g, (a, b) in flags.items():
        for i in range(nh):
            if i == h.one:
                table[g][i] = g
                table[i][g] = g
            else:
                table[g][i] = i
                table[i][g] = i
        for g2, (a2, b2) in flags.items():
            fa, fb = a | a2, b | b2
            table[g][g2] = {(1, 0): E, (0, 1): F, (1, 1): EF}[(fa, fb)]
    return Semigroup(table, one=h.one, zero=h.zero)


def build_minimal() -> Semigroup:
    """The two element monoid with zero (table forced by the axioms)."""
    return Semigroup([[0, 0], [0, 1]], one=1, zero=0)


# ---------------------------------------------------------------------------
# corpus registry


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    semigroup: Semigroup
    element_names: tuple[str, ...]
    expected: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()


EF_SATURATION_NOTE = (
    "strict saturation of eS over the complement of P contains every unit "
    "(u*t lands in eS already for t = e), so sat(eS) is the whole carrier "
    "here; the invariant content is f in sat(eS) and sat(eS) == sat(fS), "
    "which hold under any reading of the denominator set"
)


def _entries() -> dict[str, CorpusEntry]:
    ef4 = build_ef(4)
    efn = ef_names(4)

    def ix(names, *labels):
        return sorted(names.index(w) for w in labels)

    p_ef = ix(efn, "0", "x", "x2", "x3", "x4")
    entries = [
        CorpusEntry(
            name="min2",
            semigroup=build_minimal(),
            element_names=("0", "1"),
            expected={
                "order": 2,
                "is_right_chain": True,
                "is_left_cancellative": True,
                "nilpotent_elements": [0],
                "completely_prime_spectrum": [[0]],
            },
        ),
        CorpusEntry(
            name="chain_x4",
            semigroup=build_chain_x(4),
            element_names=chain_x_names(4),
            expected={
                "order": 6,
                "is_right_chain": True,
                "is_left_cancellative": True,
                "nilpotent_elements": [0, 2, 3, 4, 5],
                "completely_prime_spectrum": [[0, 2, 3, 4, 5]],
            },
        ),
        CorpusEntry(
            name="ef4",
            semigroup=ef4,
            element_names=efn,
            expected={
                "order": 9,
                "is_right_chain": False,
                "is_left_cancellative": False,
                "nilpotent_elements": p_ef,
                "comparability_holds": [p_ef],
            },
            notes=(EF_SATURATION_NOTE,),
        ),
        CorpusEntry(
            name="min_chain3",
            semigroup=build_min_chain(3),
            element_names=generator_names(3),
            expected={
                "order": 5,
                "is_right_chain": True,
                "is_left_cancellative": False,
                "completely_prime_spectrum": [[0], [0, 2], [0, 2, 3], [0, 2, 3, 4]],
            },
        ),
        CorpusEntry(
            name="min_chain4",
            semigroup=build_min_chain(4),
            element_names=generator_names(4),
            expected={
                "order": 6,
                "is_right_chain": True,
                "is_left_cancellative": False,
            },
        ),
        CorpusEntry(
            name="delta3",
            semigroup=build_delta(3),
            element_names=generator_names(3),
            expected={
                "order": 5,
                "is_right_chain": False,
                "is_left_cancellative": False,
                "completely_prime_spectrum": [
                    [0, 2, 3],
                    [0, 2, 3, 4],
                    [0, 2, 4],
                    [0, 3, 4],
                ],
            },
        ),
    ]
    return {e.name: e for e in entries}


_CORPUS: dict[str, CorpusEntry] | None = None


def corpus() -> dict[str, CorpusEntry]:
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _entries()
    return _CORPUS


def corpus_entry(name: str) -> CorpusEntry:
    try:
        return corpus()[name]
    except KeyError:
        raise KeyError(f"unknown corpus entry {name!r}; have {sorted(corpus())}")


def evaluate_expected(entry: CorpusEntry) -> list[tuple[str, bool, object]]:
    """Check every recorded fact live; returns (key, ok, computed) rows."""
    from .classify import is_right_chain
    from .localize import is_right_p_comparable
    from .segments import completely_prime_spectrum

    s = entry.semigroup
    out = []
    for key, want in entry.expected.items():
        if key == "order":
            got = s.n
        elif key == "is_right_chain":
            got = is_right_chain(s)
        elif key == "is_left_cancellative":
            got = s.is_left_cancellative()
        elif key == "nilpotent_elements":
            got = mask_elems(s.nilpotent_elements())
        elif key == "completely_prime_spectrum":
            got = sorted(mask_elems(m) for m in completely_prime_spectrum(s))
        elif key == "comparability_holds":
            got = [p for p in want if is_right_p_comparable(s, mask_of(p)).holds]
        else:
            out.append((key, False, "unknown fact key"))
            continue
        out.append((key, got == want, got))
    return out


# ---------------------------------------------------------------------------
# exhaustive enumeration of monoids with zero, zero=0 and one=1 fixed


MAX_ENUM_ORDER = 6


def enumerate_monoids_with_zero(order: int, sink=None) -> int:
    """Stream every associative order-n table with absorbing 0 and identity 1,
    one representative per isomorphism class.

    The search fills the free block (rows and columns 2..n-1) in row-major
    order, trying values in ascending order, so complete tables are reached
    in lexicographic order of that block.  Partial tables are pruned with
    the associativity triples whose inputs touch the just-assigned cell, and
    the Semigroup constructor checks every triple of a complete table.

    Each class is emitted as its lex-minimal labelling, and the classes come
    in increasing lex order of those labellings.  Two tables are isomorphic
    exactly when a relabelling of 2..n-1 carries one to the other, so a
    partial table is pruned as soon as some relabelling sigma makes it
    lex-larger than sigma(T) on the cells known on both sides (lex-leader
    symmetry breaking).  At a complete table that comparison is exact.
    Returns the number of emitted semigroups.  Orders beyond MAX_ENUM_ORDER
    are out of range for this search strategy.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if order > MAX_ENUM_ORDER:
        raise ValueError(f"order must be at most {MAX_ENUM_ORDER}")
    n = order
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[1][i] = i
        table[i][1] = i
    free = [(i, j) for i in range(2, n) for j in range(2, n)]
    for i, j in free:
        table[i][j] = -1
    # vals[k] mirrors the table at free[k]; sigma(T) holds sigma[vals[src[k]]]
    # at free[k], where src[k] is the position of (sigma^-1 i, sigma^-1 j)
    vals = [-1] * len(free)
    position = {cell: k for k, cell in enumerate(free)}
    relabellings = []
    for perm in permutations(range(2, n)):
        sigma = (0, 1) + perm
        if sigma == tuple(range(n)):
            continue
        inv = [0] * n
        for x, y in enumerate(sigma):
            inv[y] = x
        src = [position[inv[i], inv[j]] for i, j in free]
        relabellings.append((sigma, src))
    count = 0

    def partial_ok(i: int, j: int) -> bool:
        # triples whose first-level product is the cell (i, j)
        for c in range(n):
            p = table[i][j]
            q = table[j][c]
            if q != -1:
                pc = table[p][c] if p != -1 else -1
                iq = table[i][q]
                if pc != -1 and iq != -1 and pc != iq:
                    return False
        for a in range(n):
            q = table[i][j]
            p = table[a][i]
            if p != -1:
                pj = table[p][j]
                aq = table[a][q] if q != -1 else -1
                if pj != -1 and aq != -1 and pj != aq:
                    return False
        return True

    def lex_leader(pos: int) -> bool:
        # False when some sigma(T) is smaller than T on the first cell where
        # they differ, every earlier cell being known on both sides
        for sigma, src in relabellings:
            for k in range(pos + 1):
                m = src[k]
                if m > pos:
                    break
                a = vals[k]
                b = sigma[vals[m]]
                if b != a:
                    if b < a:
                        return False
                    break
        return True

    def fill(pos: int) -> None:
        nonlocal count
        if pos == len(free):
            # prior pruning is partial only; the constructor checks every triple
            try:
                s = Semigroup(table, one=1, zero=0)
            except NotAssociative:
                return
            count += 1
            if sink is not None:
                sink(s)
            return
        i, j = free[pos]
        for v in range(n):
            table[i][j] = v
            vals[pos] = v
            if partial_ok(i, j) and lex_leader(pos):
                fill(pos + 1)
        table[i][j] = -1
        vals[pos] = -1

    fill(0)
    return count


_POOLS: dict[int, tuple[Semigroup, ...]] = {}


def all_monoids_with_zero(order: int) -> tuple[Semigroup, ...]:
    """Deduplicated list of all monoids with zero of one order (cached)."""
    got = _POOLS.get(order)
    if got is None:
        acc: list[Semigroup] = []
        enumerate_monoids_with_zero(order, sink=acc.append)
        got = tuple(acc)
        _POOLS[order] = got
    return got
