"""Built-in example monoids and the exhaustive small-order enumerator.

Index conventions used by every builder, each the order of the element
list that the builder hands to `_table` with its product rule:

  chain_x(N):    0:"0", 1:"1", then x^k at index k+1 for k = 1..N
  min_chain(n):  0:"0", 1:"1", then x_i at index i+1
  delta(n):      0:"0", 1:"1", then x_i at index i+1
  ef(N):         0:"0", 1:"1", 2:"e", 3:"f", 4:"ef", then x^k at index k+4
  adjoined(H):   H's own indices, then e, f, ef at H.n, H.n+1, H.n+2

The enumerator fixes zero at index 0 and the identity at index 1 and
emits one table per isomorphism class: its lex-minimal labelling, with the
classes in increasing lex order.  Lex-leader pruning cuts every partial
table that some relabelling of the other elements makes lex-smaller, so no
duplicate is ever completed.
"""
from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .core import Semigroup


class NotRightChain(ValueError):
    pass


class NontrivialUnits(ValueError):
    pass


def _table(elems: list, mul) -> list[list[int]]:
    """The Cayley table of `mul` on the labels `elems`, by index.  `None`, where
    present, is the zero: it absorbs every element, and `mul` may return it."""
    index = {v: i for i, v in enumerate(elems)}
    return [[index[None if u is None or v is None else mul(u, v)] for v in elems]
            for u in elems]


def build_chain_x(n_pow: int) -> Semigroup:
    """The truncated power chain {0, 1, x, .., x^N} with x^(N+1) = 0.

    Left cancellative and a right chain; the workhorse for every statement
    that needs both properties.  An element is its power of x.
    """
    if n_pow < 1:
        raise ValueError("need at least one power of x")
    rows = _table([None, *range(n_pow + 1)], lambda a, b: a + b if a + b <= n_pow else None)
    return Semigroup(rows, one=1, zero=0)


def chain_x_names(n_pow: int) -> tuple[str, ...]:
    return ("0", "1") + tuple(f"x{k}" if k > 1 else "x" for k in range(1, n_pow + 1))


def build_min_chain(count: int) -> Semigroup:
    """{0, 1, x_1, .., x_n} with x_i * x_j = x_min(i,j); every x_i idempotent.
    An element is its subscript, and the identity is 0."""
    if count < 2:
        raise ValueError("need at least two chain generators")
    rows = _table([None, *range(count + 1)], lambda i, j: min(i, j) if i and j else i + j)
    return Semigroup(rows, one=1, zero=0)


def build_delta(count: int) -> Semigroup:
    """{0, 1, x_1, .., x_n} with x_i * x_j = x_j when i == j, else 0, labelled
    as in build_min_chain.

    Fails left cancellation; its minimal completely prime ideals sit in
    pairwise incomparable position.
    """
    if count < 2:
        raise ValueError("need at least two generators")
    rows = _table([None, *range(count + 1)],
                  lambda i, j: i + j if not (i and j) else (j if i == j else None))
    return Semigroup(rows, one=1, zero=0)


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

    def mul(u, v):
        a1, b1, k1 = u
        a2, b2, k2 = v
        k = k1 + k2
        if k > n_pow:
            return None
        if k >= 1:
            return (0, 0, k)
        return (a1 | a2, b1 | b2, 0)

    return Semigroup(_table(elems, mul), one=1, zero=0)


def ef_names(n_pow: int) -> tuple[str, ...]:
    return ("0", "1", "e", "f", "ef") + chain_x_names(n_pow)[2:]


def build_adjoined(h: Semigroup) -> Semigroup:
    """Adjoin commuting idempotents e, f (and their product ef) to a right
    chain monoid H, acting as identities on every element of H except 1.

    Requires the unit group of H to be trivial: a nontrivial unit u would
    force (e*u)*u' = u*u' = 1 while e*(u*u') = e, breaking associativity.
    e, f and ef are the sets of their letters, and multiply by union.
    """
    from .classify import is_right_chain

    if not is_right_chain(h):
        raise NotRightChain("the base monoid must be a right chain")
    if h.units_mask() != (1 << h.one):
        raise NontrivialUnits("the base monoid must have trivial units")

    def mul(u, v):
        if isinstance(u, int) and isinstance(v, int):
            return h.rows[u][v]
        if isinstance(u, frozenset) and isinstance(v, frozenset):
            return u | v
        # g*x = x*g = x for x in H other than 1, and g*1 = 1*g = g
        g, x = (u, v) if isinstance(u, frozenset) else (v, u)
        return g if x == h.one else x

    elems = [*range(h.n), frozenset("e"), frozenset("f"), frozenset("ef")]
    return Semigroup(_table(elems, mul), one=h.one, zero=h.zero)


def build_minimal() -> Semigroup:
    """The two element monoid with zero (table forced by the axioms)."""
    return Semigroup([[0, 0], [0, 1]], one=1, zero=0)


# ---------------------------------------------------------------------------
# corpus registry


class CorpusEntry(NamedTuple):
    name: str
    semigroup: Semigroup
    element_names: tuple[str, ...]
    notes: tuple[str, ...] = ()


EF_SATURATION_NOTE = (
    "strict saturation of eS over the complement of P contains every unit "
    "(u*t lands in eS already for t = e), so sat(eS) is the whole carrier "
    "here; the invariant content is f in sat(eS) and sat(eS) == sat(fS), "
    "which hold under any reading of the denominator set"
)


def corpus() -> dict[str, CorpusEntry]:
    """The built-in examples by name, built afresh on every call."""
    entries = [
        CorpusEntry("min2", build_minimal(), ("0", "1")),
        CorpusEntry("chain_x4", build_chain_x(4), chain_x_names(4)),
        CorpusEntry("ef4", build_ef(4), ef_names(4), notes=(EF_SATURATION_NOTE,)),
        CorpusEntry("min_chain3", build_min_chain(3), generator_names(3)),
        CorpusEntry("min_chain4", build_min_chain(4), generator_names(4)),
        CorpusEntry("delta3", build_delta(3), generator_names(3)),
    ]
    return {e.name: e for e in entries}


def corpus_entry(name: str) -> CorpusEntry:
    try:
        return corpus()[name]
    except KeyError:
        raise KeyError(f"unknown corpus entry {name!r}; have {sorted(corpus())}")


# ---------------------------------------------------------------------------
# exhaustive enumeration of monoids with zero, zero=0 and one=1 fixed


MAX_ENUM_ORDER = 6


def enumerate_monoids_with_zero(order: int, sink=None) -> int:
    """Stream every associative order-n table with absorbing 0 and identity 1,
    one representative per isomorphism class.

    The search fills the free block (rows and columns 2..n-1) in row-major
    order, trying values in ascending order, so complete tables are reached
    in lexicographic order of that block.  A triple (a, b, c) is checked
    when the last of its four cells ab, bc, (ab)c and a(bc) is filled, so
    every complete table is associative; the Semigroup constructor checks
    every triple again.

    Each class is emitted as its lex-minimal labelling, and the classes come
    in increasing lex order of those labellings.  Two tables are isomorphic
    exactly when a relabelling of 2..n-1 carries one to the other, so a
    partial table is pruned as soon as some relabelling sigma makes it
    lex-larger than sigma(T) on the cells known on both sides (lex-leader
    symmetry breaking).  At a complete table that comparison is exact.  Each
    sigma keeps, down the search, the cell up to which sigma(T) equals T and
    resumes there; once sigma(T) is larger it leaves the subtree.
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
    inner = range(2, n)
    free = [(i, j) for i in inner for j in inner]
    for i, j in free:
        table[i][j] = -1
    last = len(free)
    # preimages[v]: the filled free cells (x, y) with x*y = v, in fill order
    preimages = [[] for _ in range(n)]
    # vals[k] mirrors the table at free[k]; sigma(T) holds sigma[vals[src[k]]]
    # at free[k], where src[k] is the position of (sigma^-1 i, sigma^-1 j).
    # waiting[w] holds (sigma, src, k) when sigma(T) equals T on the cells
    # before k and the next comparison needs cells k and src[k] filled, the
    # later of which is w.
    vals = [-1] * last
    position = {cell: k for k, cell in enumerate(free)}
    waiting = [[] for _ in range(last)]
    for perm in permutations(inner):
        sigma = (0, 1) + perm
        if sigma == tuple(range(n)):
            continue
        inv = [0] * n
        for x, y in enumerate(sigma):
            inv[y] = x
        src = [position[inv[i], inv[j]] for i, j in free]
        waiting[src[0]].append((sigma, src, 0))
    count = 0

    def associative_so_far(i: int, j: int, v: int) -> bool:
        # every triple (a, b, c) of 2..n-1 whose four cells ab, bc, (ab)c and
        # a(bc) are now known and one of which is (i, j); triples with a 0
        # or a 1 hold by the fixed rows and columns
        row = table[i]
        for c in inner:  # (i, j) is ab
            q = table[j][c]
            if q != -1:
                lhs = table[v][c]
                rhs = row[q]
                if lhs != rhs and lhs != -1 and rhs != -1:
                    return False
        for a in inner:  # (i, j) is bc
            p = table[a][i]
            if p != -1:
                lhs = table[p][j]
                rhs = table[a][v]
                if lhs != rhs and lhs != -1 and rhs != -1:
                    return False
        for x, y in preimages[i]:  # (i, j) is (ab)c, with ab = (x, y)
            q = table[y][j]
            if q != -1:
                rhs = table[x][q]
                if rhs != v and rhs != -1:
                    return False
        for y, z in preimages[j]:  # (i, j) is a(bc), with bc = (y, z)
            p = row[y]
            if p != -1:
                lhs = table[p][z]
                if lhs != v and lhs != -1:
                    return False
        return True

    def fill(pos: int) -> None:
        nonlocal count
        if pos == last:
            # every triple was checked when its last cell was filled; the
            # constructor checks them all again
            s = Semigroup(table, one=1, zero=0)
            count += 1
            if sink is not None:
                sink(s)
            return
        cell = free[pos]
        i, j = cell
        woken = waiting[pos]
        for v in range(n):
            table[i][j] = v
            if not associative_so_far(i, j, v):
                continue
            vals[pos] = v
            # lex-leader: resume each relabelling that waits for this cell.
            # One whose image is smaller at the first differing cell cuts T;
            # one whose image is larger, or equal throughout, drops out of
            # the subtree; the others wait for their next unknown cell.
            moved = []
            leader = True
            for sigma, src, k in woken:
                while True:
                    m = src[k]
                    if k > pos or m > pos:
                        w = k if k > m else m
                        waiting[w].append((sigma, src, k))
                        moved.append(w)
                        break
                    a = vals[k]
                    b = sigma[vals[m]]
                    if b != a:
                        leader = b > a
                        break
                    k += 1
                    if k == last:
                        break
                if not leader:
                    break
            if leader:
                preimages[v].append(cell)
                fill(pos + 1)
                preimages[v].pop()
            for w in moved:
                waiting[w].pop()
        table[i][j] = -1
        vals[pos] = -1

    fill(0)
    return count


def all_monoids_with_zero(order: int) -> tuple[Semigroup, ...]:
    """Every monoid with zero of one order, one per isomorphism class, in
    the enumerator's order; each call enumerates afresh."""
    acc: list[Semigroup] = []
    enumerate_monoids_with_zero(order, sink=acc.append)
    return tuple(acc)
