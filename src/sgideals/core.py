"""Finite monoids with zero, represented by Cayley tables.

The carrier is always the index set {0, .., n-1}.  Subsets of the carrier
(ideals, radicals, saturations) are plain Python ints used as bitmasks, so
union/intersection/subset tests are single machine operations even for the
largest orders this library targets (n <= ~40).
"""
from __future__ import annotations

import functools
import operator

Mask = int


def memoized(fn):
    """Cache fn(s, *args) on the Semigroup s under (fn, *args), keyword and
    defaulted arguments bound, so f(s, x), f(s, x, default) and
    f(s, x, cap=default) share one entry.  Exceptions are not cached.  Every
    caller gets the same object, so fn must return an immutable value.

    The wrapper is generated, as collections.namedtuple generates __new__,
    with fn's own name, parameter names and defaults: Python binds the
    arguments, and a bad call raises TypeError before the memo is read.  A
    hit builds one key tuple and does one dict lookup; a function of s alone
    has the one key (fn,), built here.  A miss computes fn outside the
    lookup's handler, so an exception fn raises carries no KeyError context.
    fn takes plain positional parameters, none named _fn or _key; anything
    else (*args, **kwargs, keyword-only ones) raises TypeError here."""
    code = fn.__code__
    s, *rest = names = code.co_varnames[:code.co_argcount]
    # 0x0C is CO_VARARGS | CO_VARKEYWORDS
    if code.co_flags & 0x0C or code.co_kwonlyargcount or {"_fn", "_key"} & {fn.__name__, *names}:
        raise TypeError(f"@memoized {fn.__qualname__}() must take plain positional parameters")
    params = ", ".join(names)
    key = f"(_fn, {', '.join(rest)})" if rest else "_key"
    namespace = {}
    exec(f"def make(_fn, _key):\n"
         f"    def {fn.__name__}({params}):\n"
         f"        try:\n"
         f"            return {s}._cache[{key}]\n"
         f"        except KeyError:\n"
         f"            pass\n"
         f"        return {s}._cache.setdefault({key}, _fn({params}))\n"
         f"    return {fn.__name__}\n", namespace)
    wrapper = namespace["make"](fn, (fn,))
    wrapper.__defaults__ = fn.__defaults__
    return functools.wraps(fn)(wrapper)


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


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """The set bits of every byte value b, in increasing order: the lowest
    bit of b, then the bits of b with that bit cleared."""
    table = [()]
    for b in range(1, 256):
        table.append(((b & -b).bit_length() - 1, *table[b & (b - 1)]))
    return tuple(table)


_BYTE_BITS = _byte_bits()


def mask_elems(mask: Mask) -> list[int]:
    """Sorted list of set bits, read a byte at a time from _BYTE_BITS; each
    higher byte adds its offset."""
    out = list(_BYTE_BITS[mask & 255])
    base = 0
    while mask := mask >> 8:
        base += 8
        bits = _BYTE_BITS[mask & 255]
        if bits:
            out += [base + i for i in bits]
    return out


def mask_contains(mask: Mask, i: int) -> bool:
    return (mask >> i) & 1 == 1


def is_subset(a: Mask, b: Mask) -> bool:
    return a & ~b == 0


class Semigroup:
    """A validated finite monoid with zero.

    Construction checks all four axioms (associativity, two-sided identity,
    absorbing zero, identity != zero) and raises a SemigroupError subclass
    with a witness on the first violation.  Instances are immutable.  The
    principal right ideals aS are built with the table, as right_principals,
    and so are the masks of the whole carrier (full) and of the zero
    (zero_mask), which every sweep reads; all other derived data is
    computed on first use by @memoized functions and kept on the instance.
    """

    __slots__ = ("n", "one", "zero", "rows", "full", "zero_mask", "right_principals",
                 "_cache")

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
        self.full = (1 << n) - 1
        self.zero_mask = 1 << zero
        # aS for every a, indexed by a
        self.right_principals = tuple(mask_of(row) for row in rows)
        self._cache: dict = {}

    # -- products ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def powers(self, a: int) -> list[int]:
        """a, a^2, a^3, .. up to the first repeat, each once.  The sequence
        then cycles through its tail, so it holds every power of a; a
        nilpotent a ends in the zero."""
        rows = self.rows
        out = []
        seen = set()
        v = a
        while v not in seen:
            seen.add(v)
            out.append(v)
            v = rows[v][a]
        return out

    # -- masks ---------------------------------------------------------------

    @memoized
    def left_divisors(self) -> tuple[Mask, ...]:
        """For every a, the b with a in bS, indexed by a.  With an identity,
        a in bS exactly when aS is inside bS."""
        out = [0] * self.n
        for b, row in enumerate(self.rows):
            for v in row:
                out[v] |= 1 << b
        return tuple(out)

    def right_principal(self, a: int) -> Mask:
        """aS, the principal right ideal of a (contains a)."""
        return self.right_principals[a]

    @memoized
    def _columns(self) -> tuple[tuple[Mask, ...], ...]:
        """a*x as a one-bit mask, indexed [x][a]."""
        return tuple(tuple(1 << v for v in col) for col in zip(*self.rows))

    def left_muls(self, x: Mask) -> tuple[Mask, ...]:
        """a*X for every a, indexed by a: the columns of the x in X, ORed
        whole.  Not memoized, so a caller may pass any number of masks."""
        cols = self._columns()
        out = [0] * self.n
        for c in mask_elems(x):
            out = list(map(operator.or_, out, cols[c]))
        return tuple(out)

    def right_muls(self, x: Mask) -> tuple[Mask, ...]:
        """X*b for every b, indexed by b: the rows of the x in X, each entry
        read as a one-bit mask, ORed whole.  Not memoized, and no row table
        is kept, so a caller may pass any number of masks."""
        rows = self.rows
        out = [0] * self.n
        for r in mask_elems(x):
            out = list(map(operator.or_, out, map((1).__lshift__, rows[r])))
        return tuple(out)

    @memoized
    def translates(self, x: Mask) -> tuple[Mask, ...]:
        """a*X for every a, indexed by a, kept on the instance."""
        return self.left_muls(x)

    @memoized
    def preimages(self) -> tuple[tuple[Mask, ...], ...]:
        """The c with a*c == v, indexed [a][v]; each row partitions the
        carrier."""
        out = []
        for row in self.rows:
            pre = [0] * self.n
            for c, v in enumerate(row):
                pre[v] |= 1 << c
            out.append(tuple(pre))
        return tuple(out)

    def right_generators(self, b_mask: Mask) -> list[int] | None:
        """G inside a right ideal B with GS == B, or None when B is not a
        right ideal.  G holds the g in B whose left divisors in B all lie in
        gS: the maxima of the divisibility preorder on B.  Every b in B lies
        below one of them, so GS holds B, and GS lies in B as B is a right
        ideal."""
        princ = self.right_principals
        divisors = self.left_divisors()
        closure = 0
        gens = []
        for b in mask_elems(b_mask):
            closure |= princ[b]
            if divisors[b] & b_mask & ~princ[b] == 0:
                gens.append(b)
        return gens if closure == b_mask else None

    def generated_product(self, a_mask: Mask, gens: list[int]) -> Mask:
        """A*B for B = GS given by right_generators: the union of (a*g)S."""
        rows, princ = self.rows, self.right_principals
        out = 0
        for a in mask_elems(a_mask):
            row = rows[a]
            for g in gens:
                out |= princ[row[g]]
        return out

    def product(self, a_mask: Mask, b_mask: Mask) -> Mask:
        """Elementwise product set {a*b : a in A, b in B}.  For a right ideal
        A (or a left ideal B) the result is again an ideal of that kind.

        A right ideal B goes through its right generators, A*B = (A*G)S.  Any
        other B has no such G: A*B need not be closed under S, so A*B
        is the union of the translates a*B over the a in A."""
        gens = self.right_generators(b_mask)
        if gens is not None:
            return self.generated_product(a_mask, gens)
        trans = self.left_muls(b_mask)
        out = 0
        for a in mask_elems(a_mask):
            out |= trans[a]
        return out

    # -- units and cancellation ---------------------------------------------

    @memoized
    def units_mask(self) -> Mask:
        """The u with 1 in uS: a one-sided inverse is two-sided (README "Finite shadow")."""
        one = self.one
        return mask_of(u for u, us in enumerate(self.right_principals) if mask_contains(us, one))

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
                if v in seen:
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
        return self.powers(a)[-1] == self.zero

    @memoized
    def nilpotent_elements(self) -> Mask:
        return mask_of(a for a in range(self.n) if self.is_nilpotent_element(a))

    # -- relabeling and canonical form ---------------------------------------

    def relabel(self, perm) -> "Semigroup":
        """Apply an index bijection: new[p(i)][p(j)] = p(old[i][j])."""
        n = self.n
        p = list(perm)
        if sorted(p) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {p}")
        new = [[0] * n for _ in range(n)]
        rows = self.rows
        for i in range(n):
            pi = p[i]
            for j in range(n):
                new[pi][p[j]] = p[rows[i][j]]
        return Semigroup(new, p[self.one], p[self.zero])

    def opposite(self) -> "Semigroup":
        """The opposite monoid: the transposed table, a*b read as b*a."""
        return Semigroup(tuple(zip(*self.rows)), self.one, self.zero)

    def _element_signature(self, a: int) -> tuple:
        n, zero, rows = self.n, self.zero, self.rows
        r = len(set(rows[a]))
        l = len({row[a] for row in rows})
        idem = rows[a][a] == a
        # least k with a^k == 0, or 0 when the element is not nilpotent
        pw = self.powers(a)
        idx = len(pw) if pw[-1] == zero else 0
        kills_r = sum(1 for b in range(n) if rows[a][b] == zero)
        kills_l = sum(1 for b in range(n) if rows[b][a] == zero)
        return (r, l, idem, idx, kills_r, kills_l)

    @memoized
    def canonical_form(self) -> bytes:
        """Minimal byte encoding over all relabelings that fix one and zero.

        Two semigroups get equal canonical forms exactly when some bijection
        preserving the identity and the zero carries one table to the other.
        Elements are first partitioned by relabeling-invariant signatures,
        and only signature-respecting relabelings are searched.  The search
        fills positions 2, 3, .. in order, depth first, and keeps the exact
        lexicographic minimum of the relabeled table while skipping two kinds
        of branch that cannot go below the best table found so far:

        - prefix bound: row 2 of the image is compared with the best one
          cell by cell; a product whose element has no position yet is at
          least the first free position of its signature block, and a branch
          goes once such a cell is larger than the best one;
        - automorphisms: two labelings with equal tables differ by an
          automorphism g, g(best_inv[k]) = inv[k].  A candidate in the orbit
          of an explored sibling, under the automorphisms found so far that
          fix the current prefix, leads to the same tables and is skipped;
          on finding g the search returns straight to the position where the
          two labelings part, since the rest of that subtree is g's image of
          one already searched.
        """
        n, rows, zero, one = self.n, self.rows, self.zero, self.one
        # elements other than one/zero grouped by signature; positions 2..
        # are allocated to the signature blocks in sorted key order, so two
        # isomorphic tables consider exactly the same candidate labelings
        groups: dict[tuple, list[int]] = {}
        for i in range(n):
            if i not in (zero, one):
                groups.setdefault(self._element_signature(i), []).append(i)
        # slot[k]: the block that position k draws from; floor[x]: the first
        # position of x's block, a lower bound on x's position
        slot: list = [None, None]
        floor = [0] * n
        for key in sorted(groups):
            for x in groups[key]:
                floor[x] = len(slot)
            slot.extend([groups[key]] * len(groups[key]))

        p = [-1] * n  # element -> position, -1 while unplaced
        p[zero], p[one] = 0, 1
        inv = [zero, one] + [-1] * (n - 2)  # position -> element
        best = best_inv = None  # rows 2.. of the least image, its labeling
        gens: list[list[int]] = []  # automorphisms found, as element maps

        def beaten(k: int) -> bool:
            """Row 2 of every labeling extending inv[..k] exceeds best's."""
            row, bound = rows[inv[2]], best[0]
            for j in range(2, k + 1):
                x = row[inv[j]]
                v = p[x]
                if v < 0:
                    return max(k + 1, floor[x]) > bound[j]
                if v != bound[j]:
                    return v > bound[j]
            return False

        # one frame per position 2..k: the candidates explored there
        stack: list[set] = [set()] if n > 2 else []
        while stack:
            k = len(stack) + 1
            explored = stack[-1]
            if inv[k] >= 0:
                p[inv[k]] = -1
                inv[k] = -1
            fixing = [g for g in gens if all(g[inv[j]] == inv[j] for j in range(2, k))]
            c = None
            for x in slot[k]:
                if p[x] >= 0 or x in explored:
                    continue
                orbit, todo = {x}, [x]
                while todo:
                    y = todo.pop()
                    for g in fixing:
                        if g[y] not in orbit:
                            orbit.add(g[y])
                            todo.append(g[y])
                if explored.isdisjoint(orbit):
                    c = x
                    break
            if c is None:
                stack.pop()
                continue
            explored.add(c)
            p[c], inv[k] = k, c
            if best is not None and beaten(k):
                continue
            if k < n - 1:
                stack.append(set())
                continue
            image = tuple(tuple([p[rows[i][j]] for j in inv]) for i in inv[2:])
            if best is None or image < best:
                best, best_inv = image, inv[:]
            elif image == best:
                g = [0] * n
                for a, b in zip(best_inv, inv):
                    g[a] = b
                gens.append(g)
                # back to the first position where the two labelings differ
                m = next(j for j in range(2, n) if best_inv[j] != inv[j])
                for j in range(m + 1, n):
                    p[inv[j]] = -1
                    inv[j] = -1
                del stack[m - 1:]
        best = best or ()
        values = (n, 1, 0, *[0] * n, *range(n), *(v for row in best for v in row))
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
    """The monoid whose canonical form is `blob`; SemigroupError when no
    monoid has that form."""
    values = list(blob)
    if values[:1] == [0]:
        width, body = blob[1] if len(blob) > 1 else 0, blob[2:]
        if not width or len(body) % width:
            raise SemigroupError("canonical blob has wrong length")
        values = [int.from_bytes(body[i:i + width], "big") for i in range(0, len(body), width)]
    if len(values) < 3 or len(values) != 3 + values[0] ** 2:
        raise SemigroupError("canonical blob has wrong length")
    n, one, zero, entries = values[0], values[1], values[2], values[3:]
    table = [entries[i * n : (i + 1) * n] for i in range(n)]
    return Semigroup(table, one, zero)


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
