"""Brute-force reference implementations used to freeze expected values.

Everything here quantifies over raw subsets or element tuples straight from
the definitions, deliberately ignoring the library's smarter enumeration
and bitmask shortcuts, so the two sides stay independent.
"""
import random
from itertools import permutations, product

from sgideals.classify import is_mult_closed, is_waist
from sgideals.core import Semigroup, is_subset, mask_contains
from sgideals.ideals import IdealKind, is_ideal
from sgideals.localize import ComparabilityReport
from sgideals.verdict import Verdict, discrepancy, holds


def elems_scan(m: int) -> list[int]:
    """The set bits of m in increasing order, one bit tested at a time."""
    return [i for i in range(m.bit_length()) if m >> i & 1]


def mask_scan(indices) -> int:
    """The mask with a bit set for each index, duplicates allowed."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


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
        members = set(elems_scan(m))
        ok = True
        if kind in ("right", "two-sided"):
            ok = ok and is_right_ideal_scan(s, members)
        if kind in ("left", "two-sided"):
            ok = ok and is_left_ideal_scan(s, members)
        if ok:
            out.append(m)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


def right_principal_scan(s: Semigroup, a: int) -> int:
    return mask_scan(s.mul(a, b) for b in range(s.n))


def power_scan(s: Semigroup, a: int, k: int) -> int:
    v = a
    for _ in range(k - 1):
        v = s.mul(v, a)
    return v


def tail_intersection_scan(s: Semigroup, t: int) -> int:
    """The intersection of t^k S over k = 1 .. n + 1, by which the powers of
    t have cycled."""
    out = s.full
    for k in range(1, s.n + 2):
        out &= right_principal_scan(s, power_scan(s, t, k))
    return out


def units_scan(s: Semigroup) -> int:
    """The u with some v such that u*v == v*u == 1."""
    return mask_scan(u for u in range(s.n)
                     if any(s.mul(u, v) == s.one == s.mul(v, u) for v in range(s.n)))


def translates_scan(s: Semigroup, m: int) -> tuple:
    """a*X for every a, one table read per product a*x."""
    return tuple(
        mask_scan(s.mul(a, x) for x in range(s.n) if m >> x & 1) for a in range(s.n)
    )


def right_translates_scan(s: Semigroup, m: int) -> tuple:
    """X*b for every b, one table read per product x*b."""
    return tuple(
        mask_scan(s.mul(x, b) for x in range(s.n) if m >> x & 1) for b in range(s.n)
    )


def right_ore_scan(s: Semigroup, t_mask: int) -> bool:
    """a*T meets tS for every a in S and t in T, each a*T by translates_scan."""
    trans = translates_scan(s, t_mask)
    t_principals = [right_principal_scan(s, t) for t in elems_scan(t_mask)]
    return all(a_t & t_s for t_s in t_principals for a_t in trans)


def set_product_scan(s: Semigroup, xs, ys) -> int:
    return mask_scan(s.mul(a, b) for a in xs for b in ys)


def nilpotent_scan(s: Semigroup, x: int) -> bool:
    """Some power X^k lies inside {0}: X, X^2, .. by set products, until a
    power repeats.  The empty set counts as nilpotent."""
    xs = elems_scan(x)
    seen, power = set(), x
    while power not in seen:
        if power & ~(1 << s.zero) == 0:
            return True
        seen.add(power)
        power = set_product_scan(s, elems_scan(power), xs)
    return False


def nil_unions_scan(s: Semigroup, family) -> tuple[int, int]:
    """The unions of the nil and of the nilpotent members of family, each
    decided by set-product powers: of every element, and of the member."""
    nil = nilpotent = 0
    for m in family:
        if all(nilpotent_scan(s, 1 << a) for a in elems_scan(m)):
            nil |= m
        if nilpotent_scan(s, m):
            nilpotent |= m
    return nil, nilpotent


def preimages_scan(s: Semigroup) -> tuple:
    """The c with a*c == v for every a and v, one pass over row a per v."""
    return tuple(
        tuple(mask_scan(c for c in range(s.n) if s.mul(a, c) == v) for v in range(s.n))
        for a in range(s.n)
    )


def right_annihilator_scan(s: Semigroup, m: int) -> int:
    """{b : a*b == 0 for every a in I}, as written."""
    return mask_scan(b for b in range(s.n) if all(s.mul(a, b) == s.zero for a in elems_scan(m)))


def associated_prime_scan(s: Semigroup, m: int) -> int:
    """P_r(A) = {t : x*t in A for some x outside A}, as written."""
    outside = [x for x in range(s.n) if not m >> x & 1]
    return mask_scan(t for t in range(s.n) if any(m >> s.mul(x, t) & 1 for x in outside))


def waist_bruteforce(s: Semigroup, m: int) -> bool:
    """Comparable with every right ideal, right ideals by power-set filter."""
    if m == (1 << s.n) - 1:
        return False
    me = set(elems_scan(m))
    for other in ideals_bruteforce(s, "right"):
        oe = set(elems_scan(other))
        if not (me <= oe or oe <= me):
            return False
    return True


def comparizer_bruteforce(s: Semigroup, m: int) -> bool:
    """The right-ideal-pair form: A inside B, or B*I inside A."""
    fam = ideals_bruteforce(s, "right")
    i_members = elems_scan(m)
    for a_mask in fam:
        ae = set(elems_scan(a_mask))
        for b_mask in fam:
            if ae <= set(elems_scan(b_mask)):
                continue
            bi = {s.mul(b, i) for b in elems_scan(b_mask) for i in i_members}
            if not bi <= ae:
                return False
    return True


def restricted_comparizer_bruteforce(s: Semigroup, w: int, c: int) -> bool:
    """The comparizer condition with a and b ranging over W only: for all
    a, b in W, a in bS or b*C inside aS, as a literal double loop."""
    members = elems_scan(w)
    for a in members:
        a_s = set(elems_scan(right_principal_scan(s, a)))
        for b in members:
            if a in elems_scan(right_principal_scan(s, b)):
                continue
            if not {s.mul(b, x) for x in elems_scan(c)} <= a_s:
                return False
    return True


def comparizer_union_bruteforce(s: Semigroup) -> int:
    out = 0
    for m in ideals_bruteforce(s, "right"):
        if comparizer_bruteforce(s, m):
            out |= m
    return out


def lem21ii_pairs_bruteforce(s: Semigroup) -> bool:
    """Lem2.1.ii as stated: for every pair of right ideals passing
    comparizer_bruteforce, their union passes it too.  A union of right
    ideals is a right ideal, so it passes exactly when it is in `passing`."""
    passing = {m for m in ideals_bruteforce(s, "right") if comparizer_bruteforce(s, m)}
    return all(a | b in passing for a in passing for b in passing)


def is_cover_scan(family, lo: int, hi: int) -> bool:
    """No member of `family` lies strictly between lo and hi."""
    return not any(
        h != lo and h != hi and is_subset(lo, h) and is_subset(h, hi) for h in family
    )


def completely_prime_scan(s: Semigroup, m: int) -> bool:
    if m == 0 or m == (1 << s.n) - 1:
        return False
    members = set(elems_scan(m))
    for a in range(s.n):
        for b in range(s.n):
            if s.mul(a, b) in members and a not in members and b not in members:
                return False
    return True


def prime_scan(s: Semigroup, m: int) -> bool:
    if m == 0 or m == (1 << s.n) - 1:
        return False
    members = set(elems_scan(m))
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
    members = set(elems_scan(m))
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
    return mask_scan(
        y for y in range(s.n) if any(s.mul(y, t) in x_members for t in t_members)
    )


def right_ore_sets_bruteforce(s: Semigroup) -> list[int]:
    """Every subset T with T*T inside T such that for every a in S and t in T
    some a' in S and t' in T satisfy a*t' == t*a', in increasing order."""
    rows = s.rows
    out = []
    for t_mask in subsets(s.n):
        members = elems_scan(t_mask)
        if any(rows[a][b] not in members for a in members for b in members):
            continue
        if all(
            {rows[a][u] for u in members} & set(rows[t])
            for t in members
            for a in range(s.n)
        ):
            out.append(t_mask)
    return out


def lem31_bruteforce(s: Semigroup) -> Verdict:
    """Lem3.1's body as a filter over all 2^n subsets, one subset at a
    time, with the Ore condition and the saturations by scans."""
    principals = [set(elems_scan(right_principal_scan(s, a))) for a in range(s.n)]
    for t_mask in range(1 << s.n):
        if not is_mult_closed(s, t_mask) or not right_ore_scan(s, t_mask):
            continue
        t_members = elems_scan(t_mask)
        for a in range(s.n):
            sat = saturate_scan(s, principals[a], t_members)
            if not is_ideal(s, sat, IdealKind.RIGHT):
                return discrepancy({"ore_set": elems_scan(t_mask), "a": a})
    return holds()


def p_comparability_bruteforce(s: Semigroup, p_mask: int):
    """The comparability report for a completely prime right ideal P, and
    sat(aS, S-P) for every a, by the pair loops over all (a, b), with
    `saturate_scan` per a and the Ore condition and the translates a*P by
    scans."""
    n = s.n
    t_mask = s.full & ~p_mask
    t_members = elems_scan(t_mask)
    princ = [right_principal_scan(s, a) for a in range(n)]
    sat = tuple(saturate_scan(s, set(elems_scan(princ[a])), t_members) for a in range(n))

    witness = None
    cond1 = True
    for a in range(n):
        for b in range(a + 1, n):
            if is_subset(princ[a], princ[b]) or is_subset(princ[b], princ[a]):
                continue
            if sat[a] != sat[b]:
                cond1 = False
                witness = (a, b)
                break
        if not cond1:
            break

    cond2 = all(
        is_subset(princ[a], princ[b]) or is_subset(sat[b], sat[a])
        for a in range(n)
        for b in range(n)
    )
    cond3 = all(
        is_subset(princ[a], princ[b]) or is_subset(princ[b], sat[a])
        for a in range(n)
        for b in range(n)
    )
    cond4 = right_ore_scan(s, t_mask) and all(
        is_subset(princ[a], princ[b]) or mask_contains(sat[a], b)
        for a in range(n)
        for b in range(n)
    )
    improper = False
    cond5 = True
    for a in range(n):
        if not is_ideal(s, sat[a], IdealKind.RIGHT):
            cond5 = False
            break
        if sat[a] == s.full:
            improper = True
            continue
        if not is_waist(s, sat[a]):
            cond5 = False
            break

    trans = translates_scan(s, p_mask)
    weak = all(
        is_subset(princ[a], princ[b])
        or is_subset(princ[b], princ[a])
        or trans[a] == trans[b]
        for a in range(n)
        for b in range(a + 1, n)
    )
    report = ComparabilityReport(
        p=p_mask,
        holds=cond1,
        conditions=(cond1, cond2, cond3, cond4, cond5),
        weak_holds=weak,
        witness=witness,
        improper_waist_admitted=improper,
    )
    return report, sat


def null_monoid(n: int) -> Semigroup:
    """The monoid with zero in which every non-identity product is 0."""
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[1][i] = table[i][1] = i
    return Semigroup(table, 1, 0)


def free_truncated(k: int, length: int) -> Semigroup:
    """The free monoid on k letters with every word of at least `length`
    letters sent to 0: element 0 is the zero, 1 the empty word, then the
    shorter nonempty words in shortlex order."""
    words = [()]
    for size in range(1, length):
        words += product(range(k), repeat=size)
    index = {w: i + 1 for i, w in enumerate(words)}
    table = [[0] * (len(words) + 1) for _ in range(len(words) + 1)]
    for u, i in index.items():
        for v, j in index.items():
            table[i][j] = index.get(u + v, 0)
    return Semigroup(table, 1, 0)


def shuffled(s: Semigroup, seed: int) -> Semigroup:
    """s under a seeded relabelling of all its elements, one and zero too."""
    perm = list(range(s.n))
    random.Random(seed).shuffle(perm)
    return s.relabel(perm)


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


def canonical_form_bruteforce(s: Semigroup) -> bytes:
    """The canonical form by trying every signature-respecting labelling:
    the factorial search `Semigroup.canonical_form` used before it pruned."""
    n = s.n
    rows = s.rows
    groups: dict[tuple, list[int]] = {}
    for i in range(n):
        if i not in (s.zero, s.one):
            groups.setdefault(s._element_signature(i), []).append(i)
    blocks = [groups[k] for k in sorted(groups)]

    best = None
    for parts in product(*(permutations(b) for b in blocks)):
        p = [0] * n
        p[s.zero] = 0
        p[s.one] = 1
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
    width = (n.bit_length() + 7) // 8
    return bytes([0, width]) + b"".join(v.to_bytes(width, "big") for v in values)


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
