"""Brute-force reference implementations used to freeze expected values.

Everything here quantifies over raw subsets or element tuples straight from
the definitions, deliberately ignoring the library's smarter enumeration
and bitmask shortcuts, so the two sides stay independent.
"""
from itertools import permutations

from sgideals.core import Semigroup, mask_elems, mask_of


def subsets(n):
    return range(1 << n)


def is_right_ideal_scan(s: Semigroup, members) -> bool:
    return all(s.mul(a, b) in members for a in members for b in range(s.n))


def is_left_ideal_scan(s: Semigroup, members) -> bool:
    return all(s.mul(b, a) in members for a in members for b in range(s.n))


def ideals_bruteforce(s: Semigroup, kind: str) -> list[int]:
    """All ideal masks of one kind by power-set filtering."""
    out = []
    for m in subsets(s.n):
        members = set(mask_elems(m))
        ok = True
        if kind in ("right", "two-sided"):
            ok = ok and is_right_ideal_scan(s, members)
        if kind in ("left", "two-sided"):
            ok = ok and is_left_ideal_scan(s, members)
        if ok:
            out.append(m)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


def right_principal_scan(s: Semigroup, a: int) -> int:
    return mask_of(s.mul(a, b) for b in range(s.n))


def power_scan(s: Semigroup, a: int, k: int) -> int:
    v = a
    for _ in range(k - 1):
        v = s.mul(v, a)
    return v


def set_product_scan(s: Semigroup, xs, ys) -> int:
    return mask_of(s.mul(a, b) for a in xs for b in ys)


def waist_bruteforce(s: Semigroup, m: int) -> bool:
    """Comparable with every right ideal, right ideals by power-set filter."""
    if m == (1 << s.n) - 1:
        return False
    me = set(mask_elems(m))
    for other in ideals_bruteforce(s, "right"):
        oe = set(mask_elems(other))
        if not (me <= oe or oe <= me):
            return False
    return True


def comparizer_bruteforce(s: Semigroup, m: int) -> bool:
    """The right-ideal-pair form: A inside B, or B*I inside A."""
    fam = ideals_bruteforce(s, "right")
    i_members = mask_elems(m)
    for a_mask in fam:
        ae = set(mask_elems(a_mask))
        for b_mask in fam:
            if ae <= set(mask_elems(b_mask)):
                continue
            bi = {s.mul(b, i) for b in mask_elems(b_mask) for i in i_members}
            if not bi <= ae:
                return False
    return True


def restricted_comparizer_bruteforce(s: Semigroup, w: int, c: int) -> bool:
    """The comparizer condition with a and b ranging over W only: for all
    a, b in W, a in bS or b*C inside aS, as a literal double loop."""
    members = mask_elems(w)
    for a in members:
        a_s = set(mask_elems(right_principal_scan(s, a)))
        for b in members:
            if a in mask_elems(right_principal_scan(s, b)):
                continue
            if not {s.mul(b, x) for x in mask_elems(c)} <= a_s:
                return False
    return True


def comparizer_union_bruteforce(s: Semigroup) -> int:
    out = 0
    for m in ideals_bruteforce(s, "right"):
        if comparizer_bruteforce(s, m):
            out |= m
    return out


def completely_prime_scan(s: Semigroup, m: int) -> bool:
    if m == 0 or m == (1 << s.n) - 1:
        return False
    members = set(mask_elems(m))
    for a in range(s.n):
        for b in range(s.n):
            if s.mul(a, b) in members and a not in members and b not in members:
                return False
    return True


def prime_scan(s: Semigroup, m: int) -> bool:
    if m == 0 or m == (1 << s.n) - 1:
        return False
    members = set(mask_elems(m))
    for a in range(s.n):
        if a in members:
            continue
        for b in range(s.n):
            if b in members:
                continue
            if all(s.mul(s.mul(a, t), b) in members for t in range(s.n)):
                return False
    return True


def semiprime_scan(s: Semigroup, m: int) -> bool:
    if m == 0 or m == (1 << s.n) - 1:
        return False
    members = set(mask_elems(m))
    for a in range(s.n):
        if a in members:
            continue
        if all(s.mul(s.mul(a, t), a) in members for t in range(s.n)):
            return False
    return True


def beta_bruteforce(s: Semigroup) -> int:
    """Intersection of all prime two-sided ideals by power-set filtering."""
    out = (1 << s.n) - 1
    for m in ideals_bruteforce(s, "two-sided"):
        if prime_scan(s, m):
            out &= m
    return out


def saturate_scan(s: Semigroup, x_members, t_members) -> int:
    return mask_of(
        y for y in range(s.n) if any(s.mul(y, t) in x_members for t in t_members)
    )


def isomorphic_bruteforce(a: Semigroup, b: Semigroup) -> bool:
    """Permutation search over bijections fixing one and zero."""
    if a.n != b.n:
        return False
    rest_a = [i for i in range(a.n) if i not in (a.one, a.zero)]
    rest_b = [i for i in range(b.n) if i not in (b.one, b.zero)]
    for guess in permutations(rest_b):
        p = {a.one: b.one, a.zero: b.zero}
        p.update(dict(zip(rest_a, guess)))
        if all(
            p[a.mul(i, j)] == b.mul(p[i], p[j])
            for i in range(a.n)
            for j in range(a.n)
        ):
            return True
    return False


def monoids_with_zero_first_seen(n: int) -> list[list[list[int]]]:
    """Tables of every monoid with zero of order n, zero at 0 and one at 1.

    A plain depth-first search fills the cells of rows and columns 2..n-1
    in row-major order with ascending values, and cuts a branch once some
    triple whose four products are all known fails associativity.  Complete
    tables therefore arrive in lexicographic order; the first one of each
    isomorphism class is kept, classes being told apart by the minimum of
    the table over all relabellings of 2..n-1.
    """
    free = [(i, j) for i in range(2, n) for j in range(2, n)]
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[1][i] = table[i][1] = i
    for i, j in free:
        table[i][j] = -1
    relabellings = [(0, 1) + p for p in permutations(range(2, n))]
    seen = set()
    out = []

    def consistent():
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    bc = table[b][c]
                    if ab == -1 or bc == -1:
                        continue
                    left, right = table[ab][c], table[a][bc]
                    if left != -1 and right != -1 and left != right:
                        return False
        return True

    def form():
        best = None
        for p in relabellings:
            inv = [0] * n
            for x, y in enumerate(p):
                inv[y] = x
            flat = tuple(p[table[inv[i]][inv[j]]] for i in range(n) for j in range(n))
            if best is None or flat < best:
                best = flat
        return best

    def fill(pos):
        if pos == len(free):
            f = form()
            if f not in seen:
                seen.add(f)
                out.append([row[:] for row in table])
            return
        i, j = free[pos]
        for v in range(n):
            table[i][j] = v
            if consistent():
                fill(pos + 1)
        table[i][j] = -1

    fill(0)
    return out
