"""Finite monoids with zero, represented by Cayley tables.

The carrier is always the index set {0, .., n-1}.  Subsets of the carrier
(ideals, radicals, saturations) are plain Python ints used as bitmasks, so
union/intersection/subset tests are single machine operations even for the
largest orders this library targets (n <= ~40).
"""
from __future__ import annotations

import functools
import inspect
import operator
from itertools import permutations, product

Mask = int

_MISSING = object()


def memoized(fn):
    """Cache fn(s, *args) on the Semigroup s under (fn, *args), defaulted
    arguments bound, so f(s, x) and f(s, x, default) share one entry.
    Exceptions are not cached.  Every caller gets the same object, so fn
    must return an immutable value."""
    sig = inspect.signature(fn)
    arity = len(sig.parameters) - 1

    @functools.wraps(fn)
    def wrapper(s, *args, **kwargs):
        if kwargs or len(args) != arity:
            bound = sig.bind(s, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key = (fn, *args)
        got = s._cache.get(key, _MISSING)
        if got is _MISSING:
            got = s._cache[key] = fn(s, *args)
        return got

    return wrapper


class SemigroupError(ValueError):
    """Raised when a table fails one of the structural requirements."""


class NotAssociative(SemigroupError):
    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(f"(i*j)*k != i*(j*k) for (i,j,k)=({i},{j},{k})")


class BadIdentity(SemigroupError):
    def __init__(self, i: int):
        self.index = i
        super().__init__(f"designated identity does not fix element {i}")


class BadZero(SemigroupError):
    def __init__(self, i: int):
        self.index = i
        super().__init__(f"designated zero does not absorb element {i}")


class OneEqualsZero(SemigroupError):
    def __init__(self):
        super().__init__("identity and zero must be distinct elements")


class CayleyFormatError(SemigroupError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


# ---------------------------------------------------------------------------
# bitmask helpers


def mask_of(indices) -> Mask:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def mask_elems(mask: Mask) -> list[int]:
    """Sorted list of set bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_contains(mask: Mask, i: int) -> bool:
    return (mask >> i) & 1 == 1


def is_subset(a: Mask, b: Mask) -> bool:
    return a & ~b == 0


def popcount(mask: Mask) -> int:
    return mask.bit_count()


class Semigroup:
    """A validated finite monoid with zero.

    Construction checks all four axioms (associativity, two-sided identity,
    absorbing zero, identity != zero) and raises a SemigroupError subclass
    with a witness on the first violation.  Instances are immutable; derived
    data is computed on first use and kept on the instance: the principal
    ideals by _principals, everything else by @memoized functions.
    """

    __slots__ = ("n", "one", "zero", "rows", "_cache")

    def __init__(self, table, one: int, zero: int):
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in table)
            one, zero = operator.index(one), operator.index(zero)
        except TypeError as exc:
            raise SemigroupError(f"table and one/zero must be integers: {exc}") from None
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise SemigroupError(f"table must be square, row {i} has "
                                     f"{len(row)} entries for {n} rows")
        if n < 2:
            raise SemigroupError("order must be at least 2")
        for i, row in enumerate(rows):
            if min(row) < 0 or max(row) >= n:
                j = next(j for j, v in enumerate(row) if not 0 <= v < n)
                raise SemigroupError(f"entry out of range at {(i, j)}")
        if not (0 <= one < n and 0 <= zero < n):
            raise SemigroupError("one/zero index out of range")
        if one == zero:
            raise OneEqualsZero()
        for i in range(n):
            if rows[one][i] != i or rows[i][one] != i:
                raise BadIdentity(i)
        for i in range(n):
            if rows[zero][i] != zero or rows[i][zero] != zero:
                raise BadZero(i)
        # (i*j)*k versus i*(j*k): row i*j of the table against row j read
        # through row i, one C-level gather per pair (i, j)
        through = [operator.itemgetter(*row) for row in rows]
        for i, row in enumerate(rows):
            for j, ij in enumerate(row):
                if rows[ij] != through[j](row):
                    k = next(k for k in range(n) if rows[ij][k] != row[rows[j][k]])
                    raise NotAssociative(i, j, k)
        self.n = n
        self.one = one
        self.zero = zero
        self.rows = rows
        self._cache: dict = {}

    # -- products ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 1:
            raise ValueError("exponent must be >= 1")
        acc = None
        base = a
        rows = self.rows
        while k:
            if k & 1:
                acc = base if acc is None else rows[acc][base]
            k >>= 1
            if k:
                base = rows[base][base]
        return acc

    # -- masks ---------------------------------------------------------------

    @property
    def full(self) -> Mask:
        return (1 << self.n) - 1

    @property
    def zero_mask(self) -> Mask:
        return 1 << self.zero

    def _principals(self, key: str) -> tuple:
        got = self._cache.get(key)
        if got is not None:
            return got
        n = self.n
        rows = self.rows
        if key == "right":
            out = tuple(mask_of(rows[a]) for a in range(n))
        elif key == "left":
            out = tuple(mask_of(rows[b][a] for b in range(n)) for a in range(n))
        else:  # two-sided: S a S
            right = self._principals("right")
            out = []
            for a in range(n):
                m = 0
                for b in range(n):
                    m |= right[rows[b][a]]
                out.append(m)
            out = tuple(out)
        self._cache[key] = out
        return out

    def right_principal(self, a: int) -> Mask:
        """aS, the principal right ideal of a (contains a)."""
        return self._principals("right")[a]

    def left_principal(self, a: int) -> Mask:
        return self._principals("left")[a]

    def two_sided_principal(self, a: int) -> Mask:
        return self._principals("two")[a]

    def left_mul(self, a: int, m: Mask) -> Mask:
        """The set a*X for X given as a mask."""
        row = self.rows[a]
        out = 0
        while m:
            low = m & -m
            out |= 1 << row[low.bit_length() - 1]
            m ^= low
        return out

    def right_mul(self, m: Mask, a: int) -> Mask:
        rows = self.rows
        out = 0
        while m:
            low = m & -m
            out |= 1 << rows[low.bit_length() - 1][a]
            m ^= low
        return out

    def product(self, a_mask: Mask, b_mask: Mask) -> Mask:
        """Elementwise product set {a*b : a in A, b in B}.  For a right ideal
        A (or a left ideal B) the result is again an ideal of that kind."""
        out = 0
        m = a_mask
        while m:
            low = m & -m
            out |= self.left_mul(low.bit_length() - 1, b_mask)
            m ^= low
        return out

    # -- units and cancellation ---------------------------------------------

    @memoized
    def units_mask(self) -> Mask:
        n, one, rows = self.n, self.one, self.rows
        out = 0
        for u in range(n):
            row = rows[u]
            for v in range(n):
                if row[v] == one and rows[v][u] == one:
                    out |= 1 << u
                    break
        return out

    def nonunits_mask(self) -> Mask:
        return self.full & ~self.units_mask()

    def left_cancellation_witness(self):
        """A triple (a, b, c) with a*b == a*c != 0 and b != c, or None."""
        return self._cancel_witness(True)

    def right_cancellation_witness(self):
        return self._cancel_witness(False)

    @memoized
    def _cancel_witness(self, left: bool):
        n, zero, rows = self.n, self.zero, self.rows
        for a in range(n):
            seen: dict[int, int] = {}
            for b in range(n):
                v = rows[a][b] if left else rows[b][a]
                if v == zero:
                    continue
                if v in seen and seen[v] != b:
                    return (a, seen[v], b)
                seen[v] = b
        return None

    def is_left_cancellative(self) -> bool:
        return self.left_cancellation_witness() is None

    def is_right_cancellative(self) -> bool:
        return self.right_cancellation_witness() is None

    def is_cancellative(self) -> bool:
        return self.is_left_cancellative() and self.is_right_cancellative()

    # -- nilpotency ----------------------------------------------------------

    def is_nilpotent_element(self, a: int) -> bool:
        # the power sequence cycles within n steps, so it reaches 0 iff it
        # reaches 0 within n steps
        zero, rows = self.zero, self.rows
        v = a
        for _ in range(self.n):
            if v == zero:
                return True
            v = rows[v][a]
        return v == zero

    @memoized
    def nilpotent_elements(self) -> Mask:
        return mask_of(a for a in range(self.n) if self.is_nilpotent_element(a))

    # -- relabeling and canonical form ---------------------------------------

    def relabel(self, perm) -> "Semigroup":
        """Apply an index bijection: new[p(i)][p(j)] = p(old[i][j])."""
        n = self.n
        p = list(perm)
        new = [[0] * n for _ in range(n)]
        rows = self.rows
        for i in range(n):
            pi = p[i]
            for j in range(n):
                new[pi][p[j]] = p[rows[i][j]]
        return Semigroup(new, p[self.one], p[self.zero])

    def _element_signature(self, a: int) -> tuple:
        n, zero, rows = self.n, self.zero, self.rows
        r = popcount(self.right_principal(a))
        l = popcount(self.left_principal(a))
        idem = rows[a][a] == a
        # least k with a^k == 0, or 0 when the element is not nilpotent
        v, idx = a, 0
        for step in range(1, n + 1):
            if v == zero:
                idx = step
                break
            v = rows[v][a]
        kills_r = sum(1 for b in range(n) if rows[a][b] == zero)
        kills_l = sum(1 for b in range(n) if rows[b][a] == zero)
        return (r, l, idem, idx, kills_r, kills_l)

    @memoized
    def canonical_form(self) -> bytes:
        """Minimal byte encoding over all relabelings that fix one and zero.

        Two semigroups get equal canonical forms exactly when some bijection
        preserving the identity and the zero carries one table to the other.
        Elements are first partitioned by relabeling-invariant signatures,
        which keeps the permutation search within signature blocks.
        """
        n = self.n
        rows = self.rows
        # elements other than one/zero grouped by signature; positions 2..
        # are allocated to the signature blocks in sorted key order, so two
        # isomorphic tables consider exactly the same candidate labelings
        groups: dict[tuple, list[int]] = {}
        for i in range(n):
            if i not in (self.zero, self.one):
                groups.setdefault(self._element_signature(i), []).append(i)
        blocks = [groups[k] for k in sorted(groups)]

        best = None
        for parts in product(*(permutations(b) for b in blocks)):
            p = [0] * n
            p[self.zero] = 0
            p[self.one] = 1
            pos = 2
            for part in parts:
                for src in part:
                    p[src] = pos
                    pos += 1
            inv = [0] * n
            for i, pi in enumerate(p):
                inv[pi] = i
            flat = []
            for i in range(n):
                row = rows[inv[i]]
                for j in range(n):
                    flat.append(p[row[inv[j]]])
            flat = tuple(flat)
            if best is None or flat < best:
                best = flat
        values = (n, 1, 0, *best)
        if n < 256:
            return bytes(values)
        # a 0 byte (never a valid order) and the width lead wider values
        width = (n.bit_length() + 7) // 8
        return bytes([0, width]) + b"".join(v.to_bytes(width, "big") for v in values)

    # -- dunder ----------------------------------------------------------------

    def __repr__(self):
        return f"Semigroup(n={self.n}, one={self.one}, zero={self.zero})"

    def __eq__(self, other):
        return (
            isinstance(other, Semigroup)
            and self.rows == other.rows
            and self.one == other.one
            and self.zero == other.zero
        )

    def __hash__(self):
        return hash((self.rows, self.one, self.zero))


def decode_canonical(blob: bytes) -> Semigroup:
    """The monoid whose canonical form is `blob`."""
    if blob[0]:
        values = list(blob)
    else:
        width, body = blob[1], blob[2:]
        if not width or len(body) % width:
            raise SemigroupError("canonical blob has wrong length")
        values = [int.from_bytes(body[i:i + width], "big") for i in range(0, len(body), width)]
    n, one, zero, entries = values[0], values[1], values[2], values[3:]
    if len(entries) != n * n:
        raise SemigroupError("canonical blob has wrong length")
    table = [entries[i * n : (i + 1) * n] for i in range(n)]
    return Semigroup(table, one, zero)


def isomorphic_fixing_one_zero(a: Semigroup, b: Semigroup) -> bool:
    return a.canonical_form() == b.canonical_form()


# ---------------------------------------------------------------------------
# Cayley text interchange format
#
#   line 1:  n one zero
#   lines 2..n+1:  row i of the table, n whitespace-separated indices
#   '#' starts a comment line; blank lines are ignored


def format_cayley(s: Semigroup, header: str | None = None) -> str:
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    lines.append(f"{s.n} {s.one} {s.zero}")
    width = len(str(s.n - 1))
    for row in s.rows:
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def parse_cayley(text: str) -> Semigroup:
    rows = []
    header = None
    lineno = 0
    for raw in text.splitlines():
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise CayleyFormatError(lineno, f"non-integer token in {parts!r}")
        if header is None:
            if len(values) != 3:
                raise CayleyFormatError(lineno, "expected header 'n one zero'")
            header = values
            continue
        if len(values) != header[0]:
            raise CayleyFormatError(
                lineno, f"expected {header[0]} entries, got {len(values)}"
            )
        rows.append(values)
        if len(rows) > header[0]:
            raise CayleyFormatError(lineno, "too many table rows")
    if header is None:
        raise CayleyFormatError(lineno, "empty input")
    if len(rows) != header[0]:
        raise CayleyFormatError(lineno, f"expected {header[0]} rows, got {len(rows)}")
    return Semigroup(rows, header[1], header[2])
